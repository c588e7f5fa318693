"""Draft-tree construction.

A draft tree holds candidate continuations of a committed context. Depth-1
nodes are the top root candidates of the draft model; deeper nodes are
top-branch children of expanded nodes. Expansion is best-first by cumulative
path log-probability so a small node budget still populates every depth,
with ties broken by insertion order for determinism.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import InputError
from .model import Dist, LanguageModel, TokenSeq, context_suffix, top_candidates


@dataclass(frozen=True)
class TreeParams:
    """Structural limits for one draft tree."""

    max_depth: int = 3
    max_branch: int = 2
    root_top_k: int = 3
    max_nodes: int = 8

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_branch < 1 or self.root_top_k < 1:
            raise InputError("tree limits must all be >= 1")
        if self.max_nodes < self.root_top_k:
            raise InputError("max_nodes must be >= root_top_k")


@dataclass
class TreeNode:
    """One speculative token.

    ``parent`` is an index into the owning tree's node list (None at depth 1).
    ``cum_logp`` accumulates ln(p_draft) along the root-to-node path; log
    domain keeps long chains away from underflow.
    """

    token: int
    depth: int
    parent: int | None
    p_draft: float
    cum_logp: float


@dataclass
class DraftTree:
    """Nodes in insertion order plus the committed-context length at build time.

    ``paths[i]`` holds the tokens from node i's depth-1 ancestor down to node
    i inclusive. ``build_draft_tree`` fills it as it grows the tree; a tree
    built by hand gets it from the parent links.
    """

    nodes: list[TreeNode] = field(default_factory=list)
    context_len: int = 0
    paths: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.paths) != len(self.nodes):
            self.paths = []
            for node in self.nodes:
                prefix = () if node.parent is None else self.paths[node.parent]
                self.paths.append(prefix + (node.token,))


def build_draft_tree(draft: LanguageModel, context: TokenSeq, params: TreeParams) -> DraftTree:
    """Build one speculative tree over ``context`` with the draft model.

    Depth-1 nodes are the ``root_top_k`` top candidates at the bare context;
    thereafter the unexpanded node with the highest cum_logp is expanded into
    its top ``max_branch`` children until ``max_nodes`` nodes exist, the depth
    cap stops expansion, or no expandable node remains. Zero-probability
    candidates are never materialized (they are not proposals). Each frontier
    is rescored fresh over context + path, batched per depth wave; the
    context is range-checked once and then cut to the draft's window.
    """
    if len(context) == 0:
        raise InputError("context must be non-empty")
    draft.check_context(context)
    base = context_suffix(context, draft.context_window)
    vocab_size = draft.vocab.size

    nodes: list[TreeNode] = []
    paths: list[tuple[int, ...]] = []  # per node: tokens from depth 1 down to it
    root_dist = draft.next_token_dist(base)
    for token, prob in top_candidates(root_dist, min(params.root_top_k, vocab_size)):
        if prob <= 0.0 or len(nodes) >= params.max_nodes:
            break
        nodes.append(TreeNode(token, 1, None, prob, math.log(prob)))
        paths.append((token,))

    # Frontier of unexpanded expandable nodes, best cum_logp first, insertion
    # order on ties. Distributions are fetched lazily: the first pop at a
    # depth scores every same-depth frontier path in one batched call.
    frontier = [(-node.cum_logp, i) for i, node in enumerate(nodes) if node.depth < params.max_depth]
    heapq.heapify(frontier)
    pending: dict[int, Dist] = {}
    branch = min(params.max_branch, vocab_size)

    while frontier and len(nodes) < params.max_nodes:
        _, index = heapq.heappop(frontier)
        if index not in pending:
            depth = nodes[index].depth
            wave = sorted(
                {index}
                | {j for _, j in frontier if nodes[j].depth == depth and j not in pending}
            )
            dists = draft.next_token_dists([[*base, *paths[j]] for j in wave])
            pending.update(zip(wave, dists))
        parent = nodes[index]
        for token, prob in top_candidates(pending.pop(index), branch):
            if prob <= 0.0 or len(nodes) >= params.max_nodes:
                break
            child = TreeNode(token, parent.depth + 1, index, prob, parent.cum_logp + math.log(prob))
            child_index = len(nodes)
            nodes.append(child)
            paths.append(paths[index] + (token,))
            if child.depth < params.max_depth:
                heapq.heappush(frontier, (-child.cum_logp, child_index))

    return DraftTree(nodes=nodes, context_len=len(context), paths=paths)
