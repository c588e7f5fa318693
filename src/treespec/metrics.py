"""Aggregation of per-node observations into per-domain statistics.

One NodeRecord is one observation row; everything downstream (summaries,
depth profiles, chain probabilities, expected accepted length, position
bins, rank correlation) is a pure fold over a record sequence. Standard
deviations are population (divide by n); chain probabilities multiply
per-depth mean acceptance rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, UndefinedCorrelationError


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """One speculative-node observation."""

    domain: str
    prompt_id: int
    step_index: int
    depth: int
    position_bin: int
    token: int
    p_draft: float
    p_target: float
    alpha: float
    target_entropy: float

    def validate(self) -> None:
        """Range and self-consistency checks for persisted rows."""
        if self.step_index < 0 or self.depth < 1:
            raise InputError("step_index must be >= 0 and depth >= 1")
        if self.position_bin not in (0, 1):
            raise InputError(f"position_bin must be 0 or 1, got {self.position_bin}")
        if not 0.0 <= self.alpha <= 1.0 or self.target_entropy < 0.0:
            raise InputError("alpha outside [0, 1] or negative entropy")
        if self.p_draft <= 0.0:
            raise InputError("p_draft must be positive for a proposed token")
        if abs(self.alpha - min(1.0, self.p_target / self.p_draft)) > 1e-9:
            raise InputError("alpha inconsistent with stored p_target / p_draft")


RECORD_FIELDS = tuple(f.name for f in fields(NodeRecord))


@dataclass
class DomainSummary:
    """Aggregated statistics for one domain.

    ``spearman_rho`` is NaN when the correlation is undefined for the
    domain's records (one variable entirely tied).
    """

    node_count: int
    mean_alpha: float
    std_alpha: float
    mean_entropy: float
    per_depth_alpha: dict[int, float]
    chain_prob: dict[int, float]
    expected_len: float
    spearman_rho: float


@dataclass(frozen=True)
class DepthProfile:
    """Mean acceptance per (domain, depth) cell plus shallow-to-deep deltas."""

    cells: dict[tuple[str, int], float]
    delta: dict[str, float]


@dataclass(frozen=True)
class PositionEffects:
    """Mean acceptance per (depth, position bin) cell, pooled across domains."""

    cells: dict[tuple[int, int], float]
    delta: dict[int, float]


def chain_probabilities(per_depth_alpha: Mapping[int, float]) -> dict[int, float]:
    """Cumulative products: probability a whole depth-d chain is accepted."""
    depths = sorted(per_depth_alpha)
    if not depths:
        raise InputError("per-depth acceptance map is empty")
    if depths != list(range(1, len(depths) + 1)):
        raise InputError(f"depths must form a contiguous range 1..D, got {depths}")
    chain: dict[int, float] = {}
    running = 1.0
    for depth in depths:
        running *= per_depth_alpha[depth]
        chain[depth] = running
    return chain


def expected_accepted_length(per_depth_alpha: Mapping[int, float]) -> float:
    """Expected accepted tokens per verification call: sum of chain probabilities."""
    return sum(chain_probabilities(per_depth_alpha).values())


def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.shape[0], dtype=np.float64)
    start = 0
    while start < arr.shape[0]:
        stop = start
        while stop + 1 < arr.shape[0] and arr[order[stop + 1]] == arr[order[start]]:
            stop += 1
        ranks[order[start:stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def spearman_rho(pairs: Iterable[tuple[float, float]]) -> float:
    """Spearman correlation: Pearson correlation of average-assigned ranks."""
    data = list(pairs)
    if len(data) < 2:
        raise InputError("need at least 2 pairs for a correlation")
    x = np.asarray([p[0] for p in data], dtype=np.float64)
    y = np.asarray([p[1] for p in data], dtype=np.float64)
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedCorrelationError("correlation undefined: a variable is all-tied")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))
    return max(-1.0, min(1.0, rho))


def _per_depth_means(depths: np.ndarray, alphas: np.ndarray) -> dict[int, float]:
    return {
        int(d): float(alphas[depths == d].mean())
        for d in sorted(np.unique(depths))
    }


def summarize(records: Sequence[NodeRecord]) -> dict[str, DomainSummary]:
    """Per-domain counts, acceptance/entropy moments, chain law, and rank correlation."""
    by_domain: dict[str, list[NodeRecord]] = {}
    for rec in records:
        by_domain.setdefault(rec.domain, []).append(rec)

    summaries: dict[str, DomainSummary] = {}
    for domain in sorted(by_domain):
        rows = by_domain[domain]
        alphas = np.asarray([r.alpha for r in rows], dtype=np.float64)
        entropies = np.asarray([r.target_entropy for r in rows], dtype=np.float64)
        depths = np.asarray([r.depth for r in rows], dtype=np.int64)
        per_depth = _per_depth_means(depths, alphas)
        chain = chain_probabilities(per_depth)
        try:
            rho = spearman_rho(zip(entropies.tolist(), alphas.tolist()))
        except UndefinedCorrelationError:
            rho = math.nan
        summaries[domain] = DomainSummary(
            node_count=len(rows),
            mean_alpha=float(alphas.mean()),
            std_alpha=float(alphas.std()),
            mean_entropy=float(entropies.mean()),
            per_depth_alpha=per_depth,
            chain_prob=chain,
            expected_len=sum(chain.values()),
            spearman_rho=rho,
        )
    return summaries


def depth_profile(records: Sequence[NodeRecord]) -> DepthProfile:
    """Mean acceptance at each (domain, depth) cell, with per-domain deltas."""
    groups: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        if rec.depth < 1:
            raise InputError(f"record depth {rec.depth} out of range")
        groups.setdefault((rec.domain, rec.depth), []).append(rec.alpha)
    cells = {key: float(np.mean(groups[key])) for key in sorted(groups)}
    delta: dict[str, float] = {}
    for domain in sorted({d for d, _ in cells}):
        depths = sorted(depth for dom, depth in cells if dom == domain)
        delta[domain] = cells[(domain, depths[-1])] - cells[(domain, depths[0])]
    return DepthProfile(cells=cells, delta=delta)


def position_effects(records: Sequence[NodeRecord]) -> PositionEffects:
    """Mean acceptance per (depth, bin) pooled over domains; delta is late minus early."""
    groups: dict[tuple[int, int], list[float]] = {}
    for rec in records:
        if rec.position_bin not in (0, 1):
            raise InputError(f"position_bin {rec.position_bin} out of range")
        groups.setdefault((rec.depth, rec.position_bin), []).append(rec.alpha)
    cells = {key: float(np.mean(groups[key])) for key in sorted(groups)}
    delta = {
        depth: cells[(depth, 1)] - cells[(depth, 0)]
        for depth in sorted({d for d, _ in cells})
        if (depth, 0) in cells and (depth, 1) in cells
    }
    return PositionEffects(cells=cells, delta=delta)
