"""Aggregation of per-node observations into per-domain statistics.

One record is one speculative-node observation. A run's records are held in
a RecordTable; everything downstream (summaries, chain probabilities,
expected accepted length, position bins, rank correlation) is a pure fold
over its per-record columns, and depth profiles are read off the
summaries. Groups are taken with order-preserving masks, so every mean
sums the same values in the same order as a fold over the rows would. Rank correlation ranks each distinct
tree row once, weighted by the records that use it, which gives every
record the rank a per-record ranking would. Standard deviations are
population (divide by n); chain probabilities multiply per-depth mean
acceptance rates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError, UndefinedCorrelationError
from .model import _ranges, _sorted_distinct


# A record's fields, in a record file's column order.
RECORD_FIELDS = ("domain", "prompt_id", "step_index", "depth", "position_bin", "token",
                 "p_draft", "p_target", "alpha", "target_entropy")
INT_FIELDS = RECORD_FIELDS[1:6]  # prompt_id .. token
FLOAT_FIELDS = RECORD_FIELDS[6:]  # p_draft .. target_entropy
# A RecordTable's step columns (the last is the step's tree id), its tree
# row columns, and its per-record columns.
STEP_FIELDS = ("domain_code", "prompt_id", "step_index", "position_bin", "tree")
TREE_FIELDS = ("depth", "token", *FLOAT_FIELDS)
RECORD_COLUMNS = ("domain_code", *RECORD_FIELDS[1:])


def check_domain_names(domains: Iterable[str]) -> None:
    """Reject a domain name holding a line break: a record file keeps each record on one line."""
    for name in domains:
        if "\r" in name or "\n" in name:
            raise InputError(f"domain name {name!r} holds a line break")


class RecordTable:
    """Node records held as steps over distinct trees.

    A run verifies one draft tree per step and records one row per tree
    node, and many steps verify equal trees. The table keeps that shape:

    - ``steps`` maps each ``STEP_FIELDS`` name to one int64 entry per step:
      its ``domain_code`` (an index into ``domains``), ``prompt_id``,
      ``step_index`` and ``position_bin``, and ``tree``, its tree id.
    - ``trees`` maps each ``TREE_FIELDS`` name to the rows of every distinct
      tree, once: int64 ``depth`` and ``token``, float64 ``FLOAT_FIELDS``.
      Tree t's rows are ``tree_offsets[t]:tree_offsets[t + 1]``.

    The records are the steps in order, each giving one record per row of
    its tree. A tree is its content: two are one tree when their rows are
    equal, floats compared by bit pattern (so -0.0 and 0.0 differ), and tree
    ids are numbered by first appearance in step order. A step is a maximal
    run of records with equal step fields. So a table's steps and trees
    follow from its records alone, however it was built.

    Each per-record column (``domain_code`` and the ``RECORD_FIELDS`` after
    ``domain``) is gathered from the steps and trees on first use and kept,
    so every fold over it sees the records' values in record order.
    """

    __slots__ = ("domains", "steps", "trees", "tree_offsets", "_length", "_columns", "_row_index")
    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_steps(
        cls,
        domains: Sequence[str],
        steps: Mapping[str, np.ndarray],
        tree_offsets: np.ndarray,
        trees: Mapping[str, np.ndarray],
    ) -> RecordTable:
        """Records of ``steps`` over candidate trees; equal candidates become one tree.

        ``steps`` and ``trees`` are laid out as in the table, except that
        ``steps["tree"]`` indexes candidate trees, which may repeat content
        and need not all be used; candidate c's rows are
        ``tree_offsets[c]:tree_offsets[c + 1]``. The table keeps one tree per
        distinct content that a step uses, numbered by first use. Each step
        used must have rows, and no two adjacent steps may share their step
        fields (such steps are one step of the records).
        """
        offsets = np.asarray(tree_offsets, dtype=np.int64)
        trees = {name: _array(name, trees[name]) for name in TREE_FIELDS}
        steps = {name: np.asarray(steps[name], dtype=np.int64) for name in STEP_FIELDS}
        tree = steps["tree"]
        if (offsets.ndim != 1 or not offsets.size or offsets[0] != 0 or np.any(np.diff(offsets) < 0)
                or any(trees[name].shape != (offsets[-1],) for name in TREE_FIELDS)):
            raise InputError("tree offsets must rise from 0 to the number of tree rows")
        if any(steps[name].shape != tree.shape for name in STEP_FIELDS) or tree.ndim != 1:
            raise InputError("step columns must be one-dimensional and of equal length")
        if tree.size and (tree.min() < 0 or tree.max() >= offsets.size - 1):
            raise InputError("step tree outside the candidate trees")
        if not _step_starts([steps[name] for name in STEP_FIELDS[:-1]]).all():
            raise InputError("adjacent steps share their step fields")
        content, _ = _number_blocks(_row_bits(trees).tobytes(), 8 * len(TREE_FIELDS), offsets)
        tree_of_step, first_step = _first_appearance(content[tree])
        lo, hi = offsets[tree[first_step]], offsets[tree[first_step] + 1]
        if np.any(hi == lo):
            raise InputError("a step's tree has no rows")
        domains = tuple(domains)
        if len(set(domains)) != len(domains):
            raise InputError(f"duplicate domain names: {domains}")
        check_domain_names(domains)
        codes = steps["domain_code"]
        if codes.size and (codes.min() < 0 or codes.max() >= len(domains)):
            raise InputError("domain code outside the domain names")
        rows = _ranges(lo, hi)
        table = cls.__new__(cls)
        table.domains = domains
        table.steps = {**steps, "tree": tree_of_step}
        table.tree_offsets = np.append(0, np.cumsum(hi - lo))
        table.trees = {name: trees[name][rows] for name in TREE_FIELDS}
        table._length = int(table._step_sizes().sum())
        table._row_index = None
        table._columns = {}
        return table

    def _step_sizes(self) -> np.ndarray:
        """The number of records each step gives: the row count of its tree."""
        return np.diff(self.tree_offsets)[self.steps["tree"]]

    def _column(self, name: str) -> np.ndarray:
        """The per-record column ``name``, gathered on first use."""
        column = self._columns.get(name)
        if column is None:
            if name in TREE_FIELDS:
                column = self.trees[name][self._tree_rows()]
            else:
                column = np.repeat(self.steps[name], self._step_sizes())
            self._columns[name] = column
        return column

    def _tree_rows(self) -> np.ndarray:
        """Each record's row in ``trees``."""
        if self._row_index is None:
            tree = self.steps["tree"]
            self._row_index = _ranges(self.tree_offsets[tree], self.tree_offsets[tree + 1])
        return self._row_index

    def domain_masks(self) -> Iterator[tuple[str, np.ndarray]]:
        """(name, row mask) for every domain that has rows, in name order."""
        for name in sorted(self.domains):
            mask = self.domain_code == self.domains.index(name)
            if mask.any():
                yield name, mask

    def __len__(self) -> int:
        return self._length

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
            np.array_equal(self._column(name), other._column(name))
            for name in RECORD_FIELDS[1:]
        )

    def __repr__(self) -> str:
        return (f"RecordTable({len(self)} rows, {len(self.steps['tree'])} steps, "
                f"{len(self.tree_offsets) - 1} trees, domains={self.domains})")


for _name in RECORD_COLUMNS:
    setattr(RecordTable, _name, property(functools.partial(RecordTable._column, name=_name),
                                         doc=f"Per-record ``{_name}``, gathered on first use."))


def _array(name: str, values) -> np.ndarray:
    """``values`` as the dtype of record column ``name``: float64 or int64."""
    return np.asarray(values, dtype=np.float64 if name in FLOAT_FIELDS else np.int64)


def _row_bits(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """The ``TREE_FIELDS`` of each row as one row of uint64 bit patterns."""
    return np.stack([columns[name].view(np.uint64) for name in TREE_FIELDS], axis=1)


def _step_starts(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the records that start a step: the first, and each whose keys differ
    from the record before."""
    n = keys[0].shape[0]
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def _number_blocks(data: bytes, width: int, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number blocks of rows by content, 0, 1, ... in order of first appearance.

    ``data`` holds rows of ``width`` bytes whose bytes tell row contents
    apart, and block b is rows ``bounds[b]:bounds[b + 1]``. Returns each
    block's number and, for each number, the first block that has it.
    """
    cuts = (np.asarray(bounds, dtype=np.int64) * width).tolist()
    numbers: dict[bytes, int] = {}
    blocks = [numbers.setdefault(data[lo:hi], len(numbers)) for lo, hi in zip(cuts[:-1], cuts[1:])]
    block_numbers = np.array(blocks, dtype=np.int64)
    return block_numbers, np.unique(block_numbers, return_index=True)[1]


def _first_appearance(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``labels`` renumbered 0, 1, ... by first appearance, and where each number first appears."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], first[order]


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


def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions.

    A tie is a run of equal values in stable sorted order (NaN ties with
    nothing); each run of sorted positions start..stop gets
    (start + stop) / 2 + 1.
    """
    arr = np.asarray(values, dtype=np.float64)
    return _weighted_ranks(arr, np.ones(arr.shape[0], dtype=np.int64))[0]


def _weighted_ranks(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, int]:
    """``average_ranks`` of ``values[i]`` repeated ``weights[i]`` times, one rank per i.

    Every weight is positive; copies of one value are one tie, and the
    ranks come from ``average_ranks``'s own expression. Also returns the
    number of ties.
    """
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    run_start = np.empty(n, dtype=bool)
    run_start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    firsts = np.flatnonzero(run_start)
    sizes = np.add.reduceat(weights[order], firsts)
    stops = np.cumsum(sizes) - 1
    starts = stops - sizes + 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + stops) / 2.0 + 1.0, np.diff(np.append(firsts, n)))
    return ranks, firsts.shape[0]


def spearman_rho(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Spearman correlation of x and y: Pearson correlation of average-assigned ranks."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise InputError(f"x has {x.shape[0]} values but y has {y.shape[0]}")
    if x.shape[0] < 2:
        raise UndefinedCorrelationError("need at least 2 pairs for a correlation")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedCorrelationError("correlation undefined: a variable is all-tied")
    return _rank_correlation(average_ranks(x), average_ranks(y))


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two rank arrays, clipped to [-1, 1]; both are changed in place."""
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))
    return max(-1.0, min(1.0, rho))


def _tree_row_rho(x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> float:
    """``spearman_rho(x[rows], y[rows])``, NaN where undefined, for values held per tree row.

    Each distinct row is ranked once, weighted by the records that use it;
    ranks are integers or halves, so each record's rank, and the sums over
    them, are the ones ``spearman_rho`` would compute. Values that hold a
    NaN are ranked per record, where each NaN is a tie of its own.
    """
    weights = np.bincount(rows, minlength=x.shape[0])
    used = np.flatnonzero(weights)
    if np.isnan(x[used]).any() or np.isnan(y[used]).any():
        try:
            return spearman_rho(x[rows], y[rows])
        except UndefinedCorrelationError:
            return math.nan
    rank_x, ties_x = _weighted_ranks(x[used], weights[used])
    rank_y, ties_y = _weighted_ranks(y[used], weights[used])
    if rows.shape[0] < 2 or ties_x == 1 or ties_y == 1:
        return math.nan
    per_row = np.empty((2, x.shape[0]), dtype=np.float64)
    per_row[0, used], per_row[1, used] = rank_x, rank_y
    return _rank_correlation(per_row[0][rows], per_row[1][rows])


def summarize(table: RecordTable) -> dict[str, DomainSummary]:
    """Per-domain counts, acceptance/entropy moments, chain law, and rank correlation."""
    summaries: dict[str, DomainSummary] = {}
    rows = table._tree_rows()
    for domain, mask in table.domain_masks():
        alphas = table.alpha[mask]
        entropies = table.target_entropy[mask]
        depths = table.depth[mask]
        per_depth = {d: float(alphas[depths == d].mean()) for d in _sorted_distinct(depths).tolist()}
        try:
            chain = chain_probabilities(per_depth)
        except InputError as exc:
            raise InputError(f"domain {domain!r}: {exc}") from exc
        rho = _tree_row_rho(table.trees["target_entropy"], table.trees["alpha"], rows[mask])
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


def depth_profile(summaries: Mapping[str, DomainSummary]) -> DepthProfile:
    """Mean acceptance at each (domain, depth) cell, with per-domain deltas, from ``per_depth_alpha``."""
    cells: dict[tuple[str, int], float] = {}
    delta: dict[str, float] = {}
    for domain, summary in summaries.items():
        per_depth = summary.per_depth_alpha
        cells.update(((domain, depth), alpha) for depth, alpha in per_depth.items())
        delta[domain] = per_depth[max(per_depth)] - per_depth[min(per_depth)]
    return DepthProfile(cells=cells, delta=delta)


def position_effects(table: RecordTable) -> PositionEffects:
    """Mean acceptance per (depth, bin) pooled over domains; delta is late minus early."""
    bins = table.position_bin
    bad = np.flatnonzero((bins != 0) & (bins != 1))
    if bad.size:
        raise InputError(f"position_bin {bins[bad[0]]} out of range")
    cells: dict[tuple[int, int], float] = {}
    for depth in _sorted_distinct(table.depth).tolist():
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
