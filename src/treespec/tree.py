"""Draft-tree construction.

A draft tree holds candidate continuations of a committed context. Depth-1
nodes are the top root candidates of the draft model; deeper nodes are
top-branch children of expanded nodes. Expansion is best-first by cumulative
path log-probability so a small node budget still populates every depth,
with ties broken by insertion order for determinism. A tree reads only the
draft's window of its context (``draft.windows``), so contexts that share one
get equal trees and the runner grows one tree per distinct draft window.

Trees are grown and held a batch at a time, as node columns: the nodes of
every tree in turn, each tree's in insertion order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .model import LanguageModel, TokenSeq, _check_ints, _ids, _ranges


@dataclass(frozen=True)
class TreeParams:
    """Structural limits for one draft tree: integers >= 1 (``_check_ints``), max_nodes >= root_top_k."""

    max_depth: int = 3
    max_branch: int = 2
    root_top_k: int = 3
    max_nodes: int = 8

    def __post_init__(self) -> None:
        _check_ints(1, max_depth=self.max_depth, max_branch=self.max_branch, root_top_k=self.root_top_k)
        _check_ints(self.root_top_k, max_nodes=self.max_nodes)


class DraftTrees(NamedTuple):
    """The nodes of a batch of trees as columns; tree i's nodes are
    ``offsets[i]:offsets[i + 1]``, in insertion order.

    ``parents`` indexes a node's parent within its own tree (-1 at depth 1).
    ``tokens``, ``depths``, ``parents`` and ``offsets`` are int64, ``p_draft``
    float64.
    """

    tokens: np.ndarray
    depths: np.ndarray
    parents: np.ndarray
    p_draft: np.ndarray
    offsets: np.ndarray

    def take(self, which: Sequence[int] | np.ndarray) -> DraftTrees:
        """The trees at the indices ``which`` (``_ids`` of the trees), in that order; an index may repeat."""
        which = _ids(which, "tree indices", len(self.offsets) - 1)
        lo, hi = self.offsets[which], self.offsets[which + 1]
        nodes = _ranges(lo, hi)
        return DraftTrees(*(column[nodes] for column in self[:-1]),
                          np.concatenate(([0], np.cumsum(hi - lo))))


def build_draft_tree(draft: LanguageModel, context: TokenSeq, params: TreeParams) -> DraftTrees:
    """Build one speculative tree over ``context``: ``grow_trees`` of one context."""
    return grow_trees(draft, [context], params)


def grow_trees(
    draft: LanguageModel, contexts: Sequence[TokenSeq] | np.ndarray, params: TreeParams
) -> DraftTrees:
    """Build one speculative tree per context with the draft model, all at once.

    Depth-1 nodes are the ``root_top_k`` top candidates at the bare context;
    thereafter the unexpanded node with the highest cumulative log-probability
    (the sum of ln(p_draft) along its path; the log domain keeps long chains
    away from underflow, and the first node wins ties) is expanded into its top ``max_branch`` children until
    ``max_nodes`` nodes exist, the depth cap stops expansion, or no
    expandable node remains. A candidate with probability <= 0 ends its
    parent's expansion (it is not a proposal). The contexts, in either form
    ``draft.windows`` takes, are checked and cut to the draft's window in
    one ``draft.windows`` call; InputError for an empty one (in an array, a
    row of -1 alone).

    The trees grow in rounds over (trees x width) arrays: the first round
    places every tree's roots, and each later one pops every live tree's
    best frontier node, asks one ``draft.next_token_dists`` call for those
    nodes' windows alone, ranks each row of that batch once and writes the
    children. A node's window, its context + path cut to the draft's
    window, is a row of a (trees x width x window) array: its parent's
    window (the tree's base window for a root) shifted left by one, with
    its own token last. The width grows as trees fill; it is never sized by
    ``max_nodes``.
    """
    bases = draft.windows(contexts)
    if ((contexts < 0).all(axis=1).any() if isinstance(contexts, np.ndarray)
            else not all(map(len, contexts))):
        raise InputError("context must be non-empty")
    n, span = bases.shape
    vocab_size = draft.vocab.size
    # No tree outgrows int64, nor gets deeper than its node count.
    max_nodes = min(params.max_nodes, sys.maxsize)
    max_depth = min(params.max_depth, max_nodes)
    k, branch = min(params.root_top_k, vocab_size), min(params.max_branch, vocab_size)
    width = min(k + branch, max_nodes)
    count = np.zeros(n, dtype=np.int64)
    tokens, depths, parents = (np.zeros((n, width), dtype=np.int64) for _ in range(3))
    p_draft = np.zeros((n, width))
    windows = np.zeros((n, width, span), dtype=np.int64)
    # The cumulative log-probability of each node that awaits expansion, -inf elsewhere.
    frontier = np.full((n, width), -np.inf)

    # The first round expands each tree's bare context (-1) into its roots.
    live, popped = np.arange(n), np.full(n, -1)
    parent_depth, parent_logp = np.zeros(n, dtype=np.int64), np.zeros(n)
    requests = bases
    while live.size:
        # A row's candidates end at its first probability <= 0, whose log is taken as 0.
        which, ranked_tokens, ranked_probs = draft.next_token_dists(requests).top(k)
        ends = ranked_probs <= 0.0
        ranked_logps = np.zeros(ranked_probs.shape)
        ranked_logps[~ends] = list(map(math.log, ranked_probs[~ends].tolist()))
        usable = np.where(ends.any(axis=1), ends.argmax(axis=1), k)
        placed = np.minimum(usable[which], max_nodes - count[live])
        stops = count[live] + placed
        if int(stops.max()) > width:
            grow = max(int(stops.max()), 2 * width) - width
            tokens, depths, parents, p_draft = (
                np.pad(column, ((0, 0), (0, grow))) for column in (tokens, depths, parents, p_draft))
            windows = np.pad(windows, ((0, 0), (0, grow), (0, 0)))
            frontier = np.pad(frontier, ((0, 0), (0, grow)), constant_values=-np.inf)
            width += grow
        # Each popped node's children: tree ``tree``, column ``at``, candidate
        # ``rank`` of ranked row ``row``, whose parent's window is request ``source``.
        source = np.repeat(np.arange(live.size), placed)
        tree, row = live[source], which[source]
        rank = np.arange(row.size) - np.repeat(np.cumsum(placed) - placed, placed)
        at = count[tree] + rank
        child_depth = parent_depth[source] + 1
        child_logp = parent_logp[source] + ranked_logps[row, rank]
        tokens[tree, at] = ranked_tokens[row, rank]
        depths[tree, at] = child_depth
        parents[tree, at] = popped[source]
        p_draft[tree, at] = ranked_probs[row, rank]
        # The last ``span`` tokens of the parent's window and the child's token.
        windows[tree, at] = np.concatenate((requests[source], tokens[tree, at, None]), axis=1)[:, 1:]
        frontier[tree, at] = np.where(child_depth < max_depth, child_logp, -np.inf)
        count[live] = stops

        k = branch
        frontier[live[stops >= max_nodes]] = -np.inf  # a full tree expands no more
        best = frontier.argmax(axis=1)  # the first of equal bests, as a heap pops them
        live = np.flatnonzero(frontier[np.arange(n), best] > -np.inf)
        popped = best[live]
        parent_depth, parent_logp = depths[live, popped], frontier[live, popped]
        frontier[live, popped] = -np.inf
        requests = windows[live, popped]

    filled = np.arange(width) < count[:, None]
    offsets = np.concatenate(([0], np.cumsum(count)))
    return DraftTrees(tokens[filled], depths[filled], parents[filled], p_draft[filled], offsets)

