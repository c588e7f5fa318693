"""Target-side verification of a draft tree.

Scores every node of one or many trees against the target model in one
batched call, giving float64 columns of the token-level acceptance
probability min(1, p_target / p_draft) and the target entropy at each
node's position. No token is committed here: the runner's trajectory
commits the target's greedy token before any tree is scored.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InputError
from .model import LanguageModel, TokenSeq
from .tree import DraftTrees


def score_tree(target: LanguageModel, context: TokenSeq, tree: DraftTrees) -> dict[str, np.ndarray]:
    """Score all nodes of one tree: ``score_trees`` of one tree."""
    return score_trees(target, [context], tree)


def score_trees(
    target: LanguageModel, contexts: Sequence[TokenSeq], trees: DraftTrees
) -> dict[str, np.ndarray]:
    """Score every node of each tree over its context.

    A node at depth d is scored on context + its (d-1)-token ancestor prefix,
    the context its parent was expanded on. Each tree asks for its bare
    context first, then for each node with children, in the order they were
    expanded: a node's children follow one another, so each run of equal
    ``parents`` is one expansion. The contexts are checked and cut to the
    target's window in one ``target.windows`` call, and an expanded node's
    window is its parent's (its tree's for a root) shifted left by one with
    its own token last, found for every expanded node of one depth in one
    numpy pass (InputError unless each depth agrees with ``parents``). One
    batched model invocation serves all the trees; the ``RowBatch`` it
    returns gives every node's ``p_target`` in one gather and its rows'
    entropies together, and the acceptance probabilities are one array
    (``acceptance_probs``). A tree may be scored over any context that ends
    in the draft window it grew on. Returns the float64 columns
    ``p_target``, ``alpha`` and ``target_entropy``, one value per node of
    every tree in order.
    """
    offsets = trees.offsets
    if len(contexts) != offsets.size - 1:
        raise InputError("need one context per tree")
    tree_of = np.repeat(np.arange(len(contexts)), np.diff(offsets))
    child = trees.parents >= 0
    parent = np.where(child, trees.parents + offsets[tree_of], -1)  # an index into the batch
    if (trees.depths != np.where(child, trees.depths[parent] + 1, 1)).any():
        raise InputError("a node's depth must be 1 at the root and its parent's + 1 below it")
    first = child & (parent != np.concatenate(([-1], parent[:-1])))  # a run's first child
    expanded = parent[first]
    # Requests go tree by tree: the bare context, then each expanded node's context.
    per_tree = np.bincount(tree_of[expanded], minlength=len(contexts))
    base_slot = np.arange(len(contexts)) + np.cumsum(per_tree) - per_tree
    node_slot = base_slot[tree_of]  # the request of each node's parent's window
    node_slot[child] = (np.cumsum(first) + tree_of)[child]
    expanded_slot = node_slot[first]

    requests = np.empty((len(contexts) + expanded.size, target.context_window), dtype=np.int64)
    requests[base_slot] = target.windows(contexts)
    depth_of = trees.depths[expanded]
    for depth in range(1, int(depth_of.max(initial=0)) + 1):
        at = depth_of == depth
        node = expanded[at]
        requests[expanded_slot[at]] = np.concatenate(
            (requests[node_slot[node]], trees.tokens[node, None]), axis=1)[:, 1:]

    rows = target.next_token_dists(requests)
    p_target = rows.prob(node_slot, trees.tokens)
    return {"p_target": p_target, "alpha": acceptance_probs(p_target, trees.p_draft),
            "target_entropy": rows.entropies()[node_slot]}


def acceptance_probs(p_target: Sequence[float], p_draft: Sequence[float]) -> np.ndarray:
    """The rejection-sampling keep probability min(1, p_target / p_draft) of each
    pair, as float64; InputError names the first pair with p_target outside
    [0, 1] or p_draft outside (0, 1], or the shapes of two inputs that are not
    one-dimensional of one length."""
    pt = np.asarray(p_target, dtype=np.float64)
    pd = np.asarray(p_draft, dtype=np.float64)
    if pt.ndim != 1 or pt.shape != pd.shape:
        raise InputError(f"p_target and p_draft must pair up as one-dimensional arrays of one "
                         f"length, got shapes {pt.shape} and {pd.shape}")
    bad = ~((pt >= 0.0) & (pt <= 1.0) & (pd > 0.0) & (pd <= 1.0))
    if bad.any():
        first = int(np.argmax(bad))
        t, d = float(pt[first]), float(pd[first])
        if not 0.0 <= t <= 1.0:
            raise InputError(f"p_target={t!r} outside [0, 1]")
        raise InputError(f"p_draft={d!r} outside (0, 1]")
    # A subnormal p_draft (from a tiny smoothing) can send the ratio to inf,
    # and the token is then kept with 1.0.
    with np.errstate(over="ignore"):
        return np.minimum(1.0, pt / pd)
