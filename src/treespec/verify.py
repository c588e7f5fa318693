"""Target-side verification of a draft tree.

Scores every node of one or many trees against the target model in one
batched call and computes the token-level acceptance probability min(1,
p_target / p_draft) and the target entropy at each node's position. No
token is committed here: the runner's trajectory commits the target's
greedy token before any tree is scored. The stochastic accept/resample
primitives live here too; the measurement harness records acceptance
analytically, but sampling is what makes the rule testable.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

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


class TreeScores(NamedTuple):
    """Verification of one tree: per node, in node order."""

    p_target: list[float]
    alpha: list[float]
    target_entropy: list[float]


def score_tree(target: LanguageModel, context: TokenSeq, tree: DraftTree) -> TreeScores:
    """Score all nodes of one tree: ``score_trees`` of one tree."""
    return score_trees(target, [context], [tree])[0]


def score_trees(
    target: LanguageModel, contexts: Sequence[TokenSeq], trees: Sequence[DraftTree]
) -> list[TreeScores]:
    """Score every node of each tree over its context.

    A node at depth d is scored on context + its (d-1)-token ancestor prefix,
    read from ``tree.paths``. Each tree's distinct prefixes, the bare context
    first, go through one batched model invocation for all the trees; the
    entropies of the rows it returns are taken together
    (``model.entropies``) and the acceptance probabilities as one array
    (``acceptance_probs``). Each context is checked once and cut to the
    target's window (``target.window``).
    """
    if len(contexts) != len(trees):
        raise InputError("need one context per tree")
    requests: list[tuple[int, ...]] = []
    slots: list[int] = []  # per node of every tree: its prefix's index
    for context, tree in zip(contexts, trees):
        if tree.context_len != len(context):
            raise InputError("tree was built over a context of different length")
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
    row_entropies = entropies(dists)
    tokens = itertools.chain.from_iterable(tree.tokens for tree in trees)
    p_target = [float(dists[slot][token]) for slot, token in zip(slots, tokens)]
    alpha = acceptance_probs(p_target, list(itertools.chain.from_iterable(
        tree.p_draft for tree in trees)))
    entropy = [row_entropies[slot] for slot in slots]

    results = []
    start = 0
    for tree in trees:
        stop = start + len(tree.tokens)
        results.append(TreeScores(p_target[start:stop], alpha[start:stop], entropy[start:stop]))
        start = stop
    return results


def acceptance_probs(p_target: Sequence[float], p_draft: Sequence[float]) -> list[float]:
    """``acceptance_prob`` of each pair, checked and divided as arrays.

    ``np.minimum(1, p_target / p_draft)`` is the scalar rule's IEEE
    operation; the first pair that fails a check raises the scalar error.
    """
    pt = np.array(p_target, dtype=np.float64)
    pd = np.array(p_draft, dtype=np.float64)
    bad = ~((pt >= 0.0) & (pt <= 1.0) & (pd > 0.0) & (pd <= 1.0))
    if bad.any():
        first = int(np.argmax(bad))
        acceptance_prob(p_target[first], p_draft[first])
    # A subnormal p_draft (from a tiny smoothing) can send the ratio to inf,
    # as the scalar division does, and both then keep the token with 1.0.
    with np.errstate(over="ignore"):
        return np.minimum(1.0, pt / pd).tolist()


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
