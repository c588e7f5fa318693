"""Aggregation of per-node observations into per-domain statistics.

One NodeRecord is one observation row. A run's rows are held column-wise in
a RecordTable; everything downstream (summaries, depth profiles, chain
probabilities, expected accepted length, position bins, rank correlation)
is a pure fold over its columns. Groups are taken with order-preserving
masks, so every mean sums the same values in the same order as a fold over
the rows would. Standard deviations are population (divide by n); chain
probabilities multiply per-depth mean acceptance rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping, Sequence

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
        """Range and self-consistency checks for persisted rows.

        ``RecordTable.invalid_rows`` is the same check over columns; keep
        the two in step.
        """
        for name in FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)!r}")
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
INT_FIELDS = RECORD_FIELDS[1:6]  # prompt_id .. token
FLOAT_FIELDS = RECORD_FIELDS[6:]  # p_draft .. target_entropy


def check_domain_names(domains: Iterable[str]) -> None:
    """Reject a domain name holding a line break: a record file keeps each record on one line."""
    for name in domains:
        if "\r" in name or "\n" in name:
            raise InputError(f"domain name {name!r} holds a line break")


class RecordTable:
    """Node records held column-wise: one numpy array per NodeRecord field.

    ``domains`` names the domains and ``domain_code`` gives each row's index
    into it; the other columns are int64 (``INT_FIELDS``) or float64
    (``FLOAT_FIELDS``). Iterating yields one NodeRecord per row.
    """

    __slots__ = ("domains", "domain_code", *INT_FIELDS, *FLOAT_FIELDS)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, domains: Sequence[str], domain_code, **columns) -> None:
        self.domains = tuple(domains)
        if len(set(self.domains)) != len(self.domains):
            raise InputError(f"duplicate domain names: {self.domains}")
        check_domain_names(self.domains)
        self.domain_code = np.asarray(domain_code, dtype=np.int64)
        for name in INT_FIELDS:
            setattr(self, name, np.asarray(columns.pop(name), dtype=np.int64))
        for name in FLOAT_FIELDS:
            setattr(self, name, np.asarray(columns.pop(name), dtype=np.float64))
        if columns:
            raise TypeError(f"unknown record columns: {sorted(columns)}")
        n = self.domain_code.shape[0]
        if any(getattr(self, name).shape != (n,) for name in RECORD_FIELDS[1:]):
            raise InputError("record columns must be one-dimensional and of equal length")
        if n and (self.domain_code.min() < 0 or self.domain_code.max() >= len(self.domains)):
            raise InputError("domain code outside the domain names")

    @classmethod
    def from_records(cls, records: Iterable[NodeRecord]) -> RecordTable:
        """Columns of a NodeRecord sequence, domains numbered by first appearance."""
        codes: dict[str, int] = {}
        rows = [
            (codes.setdefault(r.domain, len(codes)), r.prompt_id, r.step_index, r.depth,
             r.position_bin, r.token, r.p_draft, r.p_target, r.alpha, r.target_entropy)
            for r in records
        ]
        columns = list(zip(*rows)) if rows else [()] * len(RECORD_FIELDS)
        return cls(codes, columns[0], **dict(zip(RECORD_FIELDS[1:], columns[1:])))

    def domain_masks(self) -> Iterator[tuple[str, np.ndarray]]:
        """(name, row mask) for every domain that has rows, in name order."""
        for name in sorted(self.domains):
            mask = self.domain_code == self.domains.index(name)
            if mask.any():
                yield name, mask

    def invalid_rows(self) -> np.ndarray:
        """Row mask of what ``NodeRecord.validate`` rejects."""
        p_draft, p_target, alpha = self.p_draft, self.p_target, self.alpha
        bad = ~np.all([np.isfinite(getattr(self, name)) for name in FLOAT_FIELDS], axis=0)
        bad |= (self.step_index < 0) | (self.depth < 1)
        bad |= (self.position_bin != 0) & (self.position_bin != 1)
        bad |= ~((alpha >= 0.0) & (alpha <= 1.0)) | (self.target_entropy < 0.0)
        bad |= ~(p_draft > 0.0)
        # Rows with a non-finite value or p_draft <= 0 are flagged above; on
        # the rest np.minimum agrees with the scalar min(1.0, ratio).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = p_target / p_draft
            bad |= np.abs(alpha - np.minimum(ratio, 1.0)) > 1e-9
        return bad

    def __len__(self) -> int:
        return self.domain_code.shape[0]

    def __iter__(self) -> Iterator[NodeRecord]:
        names = self.domains
        columns = [getattr(self, name).tolist() for name in RECORD_FIELDS[1:]]
        for code, *values in zip(self.domain_code.tolist(), *columns):
            yield NodeRecord(names[code], *values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordTable):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self.domains == other.domains:
            same_domains = np.array_equal(self.domain_code, other.domain_code)
        else:
            ours = np.array(self.domains, dtype=object)[self.domain_code]
            theirs = np.array(other.domains, dtype=object)[other.domain_code]
            same_domains = bool(np.all(ours == theirs))
        return same_domains and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in RECORD_FIELDS[1:]
        )

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} rows, domains={self.domains})"


def as_table(records: RecordTable | Iterable[NodeRecord]) -> RecordTable:
    """``records`` itself if it is a RecordTable, else its columns."""
    if isinstance(records, RecordTable):
        return records
    return RecordTable.from_records(records)


@dataclass
class DomainSummary:
    """Aggregated statistics for one domain.

    ``spearman_rho`` is NaN when the correlation is undefined for the
    domain's records (fewer than 2 records, or one variable entirely tied).
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
    """1-based ranks with ties assigned the average of their positions.

    A tie is a run of equal values in stable sorted order (NaN ties with
    nothing); each run of sorted positions start..stop gets
    (start + stop) / 2 + 1.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0]
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    run_start = np.empty(n, dtype=bool)
    run_start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:] - 1
    stops[-1:] = n - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + stops) / 2.0 + 1.0, stops - starts + 1)
    return ranks


def spearman_rho(pairs: Iterable[tuple[float, float]]) -> float:
    """Spearman correlation: Pearson correlation of average-assigned ranks."""
    data = list(pairs)
    x = np.asarray([p[0] for p in data], dtype=np.float64)
    y = np.asarray([p[1] for p in data], dtype=np.float64)
    return _spearman(x, y)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    if x.shape[0] < 2:
        raise UndefinedCorrelationError("need at least 2 pairs for a correlation")
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


def summarize(records: RecordTable | Sequence[NodeRecord]) -> dict[str, DomainSummary]:
    """Per-domain counts, acceptance/entropy moments, chain law, and rank correlation."""
    table = as_table(records)
    summaries: dict[str, DomainSummary] = {}
    for domain, mask in table.domain_masks():
        alphas = table.alpha[mask]
        entropies = table.target_entropy[mask]
        per_depth = _per_depth_means(table.depth[mask], alphas)
        try:
            chain = chain_probabilities(per_depth)
        except InputError as exc:
            raise InputError(f"domain {domain!r}: {exc}") from exc
        try:
            rho = _spearman(entropies, alphas)
        except UndefinedCorrelationError:
            rho = math.nan
        summaries[domain] = DomainSummary(
            node_count=alphas.shape[0],
            mean_alpha=float(alphas.mean()),
            std_alpha=float(alphas.std()),
            mean_entropy=float(entropies.mean()),
            per_depth_alpha=per_depth,
            chain_prob=chain,
            expected_len=sum(chain.values()),
            spearman_rho=rho,
        )
    return summaries


def depth_profile(records: RecordTable | Sequence[NodeRecord]) -> DepthProfile:
    """Mean acceptance at each (domain, depth) cell, with per-domain deltas."""
    table = as_table(records)
    bad = np.flatnonzero(table.depth < 1)
    if bad.size:
        raise InputError(f"record depth {table.depth[bad[0]]} out of range")
    cells: dict[tuple[str, int], float] = {}
    delta: dict[str, float] = {}
    for domain, mask in table.domain_masks():
        per_depth = _per_depth_means(table.depth[mask], table.alpha[mask])
        cells.update(((domain, depth), alpha) for depth, alpha in per_depth.items())
        delta[domain] = per_depth[max(per_depth)] - per_depth[min(per_depth)]
    return DepthProfile(cells=cells, delta=delta)


def position_effects(records: RecordTable | Sequence[NodeRecord]) -> PositionEffects:
    """Mean acceptance per (depth, bin) pooled over domains; delta is late minus early."""
    table = as_table(records)
    bins = table.position_bin
    bad = np.flatnonzero((bins != 0) & (bins != 1))
    if bad.size:
        raise InputError(f"position_bin {bins[bad[0]]} out of range")
    cells: dict[tuple[int, int], float] = {}
    for depth in np.unique(table.depth).tolist():
        at_depth = table.depth == depth
        for position_bin in (0, 1):
            mask = at_depth & (bins == position_bin)
            if mask.any():
                cells[(depth, position_bin)] = float(table.alpha[mask].mean())
    delta = {
        depth: cells[(depth, 1)] - cells[(depth, 0)]
        for depth in sorted({d for d, _ in cells})
        if (depth, 0) in cells and (depth, 1) in cells
    }
    return PositionEffects(cells=cells, delta=delta)
