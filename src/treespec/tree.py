"""Draft-tree construction.

A draft tree holds candidate continuations of a committed context. Depth-1
nodes are the top root candidates of the draft model; deeper nodes are
top-branch children of expanded nodes. Expansion is best-first by cumulative
path log-probability so a small node budget still populates every depth,
with ties broken by insertion order for determinism. A tree reads only the
draft's window of its context (``draft.window``), so contexts that share one
get equal trees and the runner grows one tree per distinct draft window.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Generator, NamedTuple, Sequence

from .errors import InputError
from .model import Dist, LanguageModel, TokenSeq, top_candidates


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


class DraftTree(NamedTuple):
    """Speculative tokens as one list per field, in insertion order.

    ``parents[i]`` indexes node i's parent (None at depth 1). ``cum_logp[i]``
    accumulates ln(p_draft) along the root-to-node path; log domain keeps
    long chains away from underflow. ``paths[i]`` holds the tokens from node
    i's depth-1 ancestor down to node i inclusive.
    """

    tokens: list[int]
    depths: list[int]
    parents: list[int | None]
    p_draft: list[float]
    cum_logp: list[float]
    paths: list[tuple[int, ...]]


def build_draft_tree(draft: LanguageModel, context: TokenSeq, params: TreeParams) -> DraftTree:
    """Build one speculative tree over ``context``: ``grow_trees`` of one context."""
    return grow_trees(draft, [context], params)[0]


def grow_trees(
    draft: LanguageModel, contexts: Sequence[TokenSeq], params: TreeParams
) -> list[DraftTree]:
    """Build one speculative tree per context with the draft model, in lockstep.

    Each tree grows as ``_grow`` says, and asks for its distributions a
    request at a time. Every round gathers the pending request of each
    unfinished tree into one ``draft.next_token_dists`` call, so the trees
    take as many model calls together as the one that asks most often.
    """
    growers = [_grow(draft, context, params) for context in contexts]
    requests = [next(grower) for grower in growers]
    trees: list[DraftTree] = [None] * len(growers)  # type: ignore[list-item]
    live = list(range(len(growers)))
    while live:
        dists = draft.next_token_dists([c for i in live for c in requests[i]])
        still, start = [], 0
        for i in live:
            stop = start + len(requests[i])
            try:
                requests[i] = growers[i].send(dists[start:stop])
                still.append(i)
            except StopIteration as done:
                trees[i] = done.value
            start = stop
        live = still
    return trees


def _grow(
    draft: LanguageModel, context: TokenSeq, params: TreeParams
) -> Generator[list[tuple[int, ...]], list[Dist], DraftTree]:
    """One tree's expansion; yields each list of contexts it needs scored and
    is sent their distributions, in order.

    Depth-1 nodes are the ``root_top_k`` top candidates at the bare context;
    thereafter the unexpanded node with the highest cum_logp is expanded into
    its top ``max_branch`` children until ``max_nodes`` nodes exist, the depth
    cap stops expansion, or no expandable node remains. Zero-probability
    candidates are never materialized (they are not proposals). Each frontier
    is rescored fresh over context + path, requested per depth wave; the
    context is checked once and cut to the draft's window (``draft.window``).
    """
    if len(context) == 0:
        raise InputError("context must be non-empty")
    base = draft.window(context)
    vocab_size = draft.vocab.size
    max_nodes, max_depth = params.max_nodes, params.max_depth
    tree = DraftTree([], [], [], [], [], [])
    tokens, depths, parents, probs, cum_logps, paths = tree

    (root_dist,) = yield [base]
    for token, prob in top_candidates(root_dist, min(params.root_top_k, vocab_size)):
        if prob <= 0.0 or len(tokens) >= max_nodes:
            break
        tokens.append(token)
        depths.append(1)
        parents.append(None)
        probs.append(prob)
        cum_logps.append(math.log(prob))
        paths.append((token,))

    # Frontier of unexpanded expandable nodes, best cum_logp first, insertion
    # order on ties. Distributions are fetched lazily: the first pop at a
    # depth requests every same-depth frontier path at once.
    frontier = [(-cum_logp, i) for i, cum_logp in enumerate(cum_logps) if max_depth > 1]
    heapq.heapify(frontier)
    pending: dict[int, Dist] = {}
    branch = min(params.max_branch, vocab_size)

    while frontier and len(tokens) < max_nodes:
        _, index = heapq.heappop(frontier)
        if index not in pending:
            depth = depths[index]
            wave = sorted(
                {index} | {j for _, j in frontier if depths[j] == depth and j not in pending}
            )
            dists = yield [base + paths[j] for j in wave]
            pending.update(zip(wave, dists))
        depth, cum_logp, path = depths[index] + 1, cum_logps[index], paths[index]
        for token, prob in top_candidates(pending.pop(index), branch):
            if prob <= 0.0 or len(tokens) >= max_nodes:
                break
            child_logp = cum_logp + math.log(prob)
            if depth < max_depth:
                heapq.heappush(frontier, (-child_logp, len(tokens)))
            tokens.append(token)
            depths.append(depth)
            parents.append(index)
            probs.append(prob)
            cum_logps.append(child_logp)
            paths.append(path + (token,))

    return tree
