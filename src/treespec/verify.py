"""Target-side verification of a draft tree.

Scores every tree node against the target model in one batched call,
computes the token-level acceptance probability min(1, p_target / p_draft)
and the target entropy at each node's position, and extracts the greedy
bonus token from the bare-context row of the same pass. The stochastic
accept/resample primitives live here too; the measurement harness records
acceptance analytically, but sampling is what makes the rule testable.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .model import (
    LanguageModel,
    TokenSeq,
    context_suffix,
    entropy_nats,
    top_candidates,
    validate_dist,
)
from .tree import DraftTree


class NodeScore(NamedTuple):
    """Verification result for one tree node (index into the tree's node list)."""

    node_index: int
    p_target: float
    alpha: float
    target_entropy: float


def acceptance_prob(p_target: float, p_draft: float) -> float:
    """Rejection-sampling keep probability min(1, p_target / p_draft)."""
    if not 0.0 <= p_target <= 1.0:
        raise InputError(f"p_target={p_target!r} outside [0, 1]")
    if not 0.0 < p_draft <= 1.0:
        raise InputError(f"p_draft={p_draft!r} outside (0, 1]")
    return min(1.0, p_target / p_draft)


def score_tree(
    target: LanguageModel, context: TokenSeq, tree: DraftTree
) -> tuple[list[NodeScore], int]:
    """Score all tree nodes with the target model; also return the bonus token.

    A node at depth d is scored on context + its (d-1)-token ancestor prefix.
    All distinct prefixes, including the bare context, go through one batched
    model invocation; the bonus token is the top candidate of the bare-context
    row (ties to the lowest token index). Each node's ancestor prefix is read
    from ``tree.paths``. The context is range-checked once and then cut to
    the target's window.
    """
    if tree.context_len != len(context):
        raise InputError("tree was built over a context of different length")
    target.check_context(context)
    base = context_suffix(context, target.context_window)

    prefixes: list[tuple[int, ...]] = [()]
    prefix_slot: dict[tuple[int, ...], int] = {(): 0}
    node_slot: list[int] = []
    for path in tree.paths:
        ancestors = path[:-1]
        slot = prefix_slot.get(ancestors)
        if slot is None:
            slot = len(prefixes)
            prefixes.append(ancestors)
            prefix_slot[ancestors] = slot
        node_slot.append(slot)

    dists = target.next_token_dists([[*base, *p] for p in prefixes])
    entropies = [entropy_nats(d) for d in dists]

    scores = []
    for i, node in enumerate(tree.nodes):
        slot = node_slot[i]
        p_target = float(dists[slot][node.token])
        scores.append(
            NodeScore(i, p_target, acceptance_prob(p_target, node.p_draft), entropies[slot])
        )
    bonus = top_candidates(dists[0], 1)[0][0]
    return scores, bonus


def simulate_chain_acceptance(
    path_scores: Sequence[NodeScore], rng: np.random.Generator
) -> int:
    """Walk one root-to-leaf path, accepting each node independently w.p. alpha.

    Returns the accepted prefix length; stops at the first rejection.
    """
    accepted = 0
    for score in path_scores:
        if rng.random() >= score.alpha:
            break
        accepted += 1
    return accepted


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


def residual_resample(
    target_dist: np.ndarray | Sequence[float],
    draft_dist: np.ndarray | Sequence[float],
    rng: np.random.Generator,
) -> int:
    """Sample a replacement token from the residual distribution."""
    dist = residual_dist(target_dist, draft_dist)
    return int(rng.choice(dist.shape[0], p=dist))
