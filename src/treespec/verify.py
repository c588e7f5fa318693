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
from .model import LanguageModel, TokenSeq, entropies, validate_dist
from .tree import DraftTree


def acceptance_prob(p_target: float, p_draft: float) -> float:
    """Rejection-sampling keep probability min(1, p_target / p_draft)."""
    if not 0.0 <= p_target <= 1.0:
        raise InputError(f"p_target={p_target!r} outside [0, 1]")
    if not 0.0 < p_draft <= 1.0:
        raise InputError(f"p_draft={p_draft!r} outside (0, 1]")
    return min(1.0, p_target / p_draft)


def score_tree(target: LanguageModel, context: TokenSeq, tree: DraftTree) -> dict[str, np.ndarray]:
    """Score all nodes of one tree: ``score_trees`` of one tree."""
    return score_trees(target, [context], [tree])


def score_trees(
    target: LanguageModel, contexts: Sequence[TokenSeq], trees: Sequence[DraftTree]
) -> dict[str, np.ndarray]:
    """Score every node of each tree over its context.

    A node at depth d is scored on context + its (d-1)-token ancestor prefix,
    read from ``tree.paths``. Each tree's distinct prefixes, the bare context
    first, go through one batched model invocation for all the trees; the
    entropies of the rows it returns are taken together
    (``model.entropies``) and the acceptance probabilities as one array
    (``acceptance_probs``). Each context is checked once and cut to the
    target's window (``target.window``); a tree may be scored over any
    context that ends in the draft window it grew on. Returns the float64
    columns ``p_target``, ``alpha`` and ``target_entropy``, one value per
    node of every tree in order.
    """
    if len(contexts) != len(trees):
        raise InputError("need one context per tree")
    requests: list[tuple[int, ...]] = []
    slots: list[int] = []  # per node of every tree: its prefix's index
    for context, tree in zip(contexts, trees):
        base = target.window(context)
        prefix_slot: dict[tuple[int, ...], int] = {(): len(requests)}
        requests.append(base)
        for path in tree.paths:
            ancestors = path[:-1]
            slot = prefix_slot.get(ancestors)
            if slot is None:
                slot = prefix_slot[ancestors] = len(requests)
                requests.append(base + ancestors)
            slots.append(slot)

    dists = target.next_token_dists(requests)
    tokens = itertools.chain.from_iterable(tree.tokens for tree in trees)
    p_target = np.fromiter((dists[slot][token] for slot, token in zip(slots, tokens)),
                           np.float64, len(slots))
    p_draft = np.fromiter(itertools.chain.from_iterable(tree.p_draft for tree in trees),
                          np.float64, len(slots))
    return {"p_target": p_target, "alpha": acceptance_probs(p_target, p_draft),
            "target_entropy": np.array(entropies(dists))[np.array(slots, dtype=np.intp)]}


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
