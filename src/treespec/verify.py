"""Target-side verification of a draft tree.

Scores every node of one or many trees against the target model in one
batched call, giving float64 columns of the token-level acceptance
probability min(1, p_target / p_draft) and the target entropy at each
node's position. No token is committed here: the runner's trajectory
commits the target's greedy token before any tree is scored. The
stochastic accept/resample primitives live here too; the harness records
acceptance analytically, but sampling is what makes the rule testable.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import InputError
from .model import LanguageModel, TokenSeq, validate_dist
from .tree import DraftTrees


def acceptance_prob(p_target: float, p_draft: float) -> float:
    """Rejection-sampling keep probability min(1, p_target / p_draft)."""
    if not 0.0 <= p_target <= 1.0:
        raise InputError(f"p_target={p_target!r} outside [0, 1]")
    if not 0.0 < p_draft <= 1.0:
        raise InputError(f"p_draft={p_draft!r} outside (0, 1]")
    return min(1.0, p_target / p_draft)


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
    ``parents`` is one expansion. One batched model invocation serves all the
    trees; the ``RowBatch`` it returns gives every node's ``p_target`` in one
    gather and its rows' entropies together, and the acceptance probabilities
    are one array (``acceptance_probs``). The contexts are checked and cut to
    the target's window in one ``target.windows`` call; a tree may be scored
    over any context that ends in the draft window it grew on. Returns the
    float64 columns ``p_target``, ``alpha`` and ``target_entropy``, one value
    per node of every tree in order.
    """
    offsets = trees.offsets
    if len(contexts) != offsets.size - 1:
        raise InputError("need one context per tree")
    tree_of = np.repeat(np.arange(len(contexts)), np.diff(offsets))
    child = trees.parents >= 0
    parent = np.where(child, trees.parents + offsets[tree_of], -1)  # an index into the batch
    first = child & (parent != np.concatenate(([-1], parent[:-1])))  # a run's first child
    expanded = parent[first]
    # Requests go tree by tree: the bare context, then each expanded node's context.
    per_tree = np.bincount(tree_of[expanded], minlength=len(contexts))
    node_slot = (np.arange(len(contexts)) + np.cumsum(per_tree) - per_tree)[tree_of]
    node_slot[child] = (np.cumsum(first) + tree_of)[child]

    requests: list[tuple[int, ...]] = []
    asked: dict[int, tuple[int, ...]] = {}  # expanded node -> its context
    rows = zip(expanded.tolist(), parent[expanded].tolist(), trees.tokens[expanded].tolist())
    for base, n_expanded in zip(target.windows(contexts), per_tree.tolist()):
        requests.append(base)
        for node, above, token in itertools.islice(rows, n_expanded):
            requests.append((base if above < 0 else asked[above]) + (token,))
            asked[node] = requests[-1]

    rows = target.next_token_dists(requests)
    p_target = rows.prob(node_slot, trees.tokens)
    return {"p_target": p_target, "alpha": acceptance_probs(p_target, trees.p_draft),
            "target_entropy": rows.entropies()[node_slot]}


def acceptance_probs(p_target: Sequence[float], p_draft: Sequence[float]) -> np.ndarray:
    """``acceptance_prob`` of each pair, checked and divided as float64 arrays.

    ``np.minimum(1, p_target / p_draft)`` is the scalar rule's IEEE
    operation; the first pair that fails a check raises the scalar error.
    """
    pt = np.asarray(p_target, dtype=np.float64)
    pd = np.asarray(p_draft, dtype=np.float64)
    bad = ~((pt >= 0.0) & (pt <= 1.0) & (pd > 0.0) & (pd <= 1.0))
    if bad.any():
        first = int(np.argmax(bad))
        acceptance_prob(float(pt[first]), float(pd[first]))
    # A subnormal p_draft (from a tiny smoothing) can send the ratio to inf,
    # as the scalar division does, and both then keep the token with 1.0.
    with np.errstate(over="ignore"):
        return np.minimum(1.0, pt / pd)


def residual_dist(
    target_dist: np.ndarray | Sequence[float], draft_dist: np.ndarray | Sequence[float]
) -> np.ndarray:
    """normalize(max(0, target - draft)); falls back to target when identically zero.

    Sampling from this after a rejection is exactly what preserves the target
    distribution under the min(1, p_target/p_draft) acceptance rule.
    """
    t = validate_dist(target_dist)
    d = validate_dist(draft_dist, t.shape[0])
    residual = np.clip(t - d, 0.0, None)
    total = float(residual.sum())
    if total <= 0.0:
        return t.copy()
    return residual / total
