"""Language-model interface and deterministic n-gram reference models.

Everything here is desk-scale and exactly reproducible: models are plain
count tables, distributions are numpy vectors over a fixed vocabulary (an
n-gram model's are ``SparseRow`` values with the same numbers), and all
tie-breaking is by ascending token index.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError

TokenSeq = Sequence[int]


@dataclass(frozen=True)
class Vocabulary:
    """Ordered, duplicate-free token inventory; index <-> token is a bijection."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) < 2:
            raise InputError("vocabulary needs at least 2 tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise InputError("vocabulary tokens must be unique")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index_of(self, token: str) -> int:
        idx = self._index.get(token)  # type: ignore[attr-defined]
        if idx is None:
            raise InputError(f"token {token!r} not in vocabulary")
        return idx

    def get(self, token: str, default: int | None = None) -> int | None:
        return self._index.get(token, default)  # type: ignore[attr-defined]


def validate_dist(probs: np.ndarray | Sequence[float], size: int | None = None) -> np.ndarray:
    """Check that ``probs`` is a distribution (finite, non-negative, sums to 1 within 1e-9)."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError("distribution must be one-dimensional")
    if size is not None and arr.shape[0] != size:
        raise InputError(f"distribution has length {arr.shape[0]}, expected {size}")
    if arr.shape[0] < 1:
        raise InputError("distribution must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InputError("distribution has non-finite entries")
    if np.any(arr < 0.0):
        raise InputError("distribution has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"distribution sums to {total!r}, not 1")
    return arr


def entropy_nats(dist: Dist | Sequence[float]) -> float:
    """Shannon entropy -sum(p ln p) in nats, with 0 ln 0 taken as 0."""
    return entropies([dist])[0]


def _dense_entropy(dist: np.ndarray | Sequence[float]) -> float:
    arr = np.asarray(dist, dtype=np.float64)
    pos = arr[arr > 0.0]
    return float(-(pos * np.log(pos)).sum()) + 0.0


def top_candidates(dist: Dist | Sequence[float], k: int) -> list[tuple[int, float]]:
    """The k highest-probability (token, probability) pairs, descending.

    Ties are broken by ascending token index so results are reproducible.
    """
    if isinstance(dist, SparseRow):
        return dist.top(k)
    arr = np.asarray(dist, dtype=np.float64)
    _check_k(k, arr.shape[0])
    order = np.argsort(-arr, kind="stable")[:k]
    return [(int(i), float(arr[i])) for i in order]


def _check_k(k: int, size: int) -> None:
    if not 1 <= k <= size:
        raise InputError(f"k={k} out of range for vocabulary of {size}")


class SparseRow:
    """A next-token distribution over ``size`` tokens held as the few that
    stand out: token t has probability ``row[t]`` if t is in ``row`` and
    ``floor`` otherwise. ``np.asarray(self)`` is the dense vector of those
    values; ``dist[t]``, ``top`` and the entropy equal their dense
    counterparts bit for bit.

    ``row`` lists its tokens in rank order: descending probability, then
    ascending token (``NGramModel`` lays its rows out so), so ``top`` reads
    its first k. A row with a positive floor lists positive probabilities.
    The row keeps its entropy in ``h`` once ``entropies`` computes it; the
    model keeps one row per context, so each is computed once per count row.
    """

    __slots__ = ("size", "row", "floor", "h")

    def __init__(self, size: int, row: Mapping[int, float], floor: float) -> None:
        self.size, self.row, self.floor = size, row, floor
        self.h: float | None = None

    def __getitem__(self, token: int) -> float:
        if not 0 <= token < self.size:
            raise IndexError(f"token {token} out of range for vocabulary of {self.size}")
        return self.row.get(token, self.floor)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        probs = np.full(self.size, self.floor)
        probs[list(self.row)] = list(self.row.values())
        return probs if dtype is None else probs.astype(dtype, copy=False)

    def top(self, k: int) -> list[tuple[int, float]]:
        """``top_candidates`` of the dense vector, from the row alone, as a new list.

        The row's first k tokens lead it. Tokens outside the row all sit at
        the floor and tie by index, so the k lowest-index ones are the only
        ones that can join them, and only when the k-th is not above the floor.
        """
        _check_k(k, self.size)
        row, floor = self.row, self.floor
        ranked = list(itertools.islice(row.items(), k))
        if len(ranked) < k or ranked[-1][1] <= floor:
            extra = itertools.islice((token for token in range(self.size) if token not in row), k)
            ranked = sorted(ranked + [(token, floor) for token in extra],
                            key=lambda item: (-item[1], item[0]))[:k]
        return ranked


Dist = np.ndarray | SparseRow

# Sparse rows whose entropies are computed together are laid out as
# C-contiguous (rows x |V|) float64 blocks of at most this many entries.
_ENTROPY_BLOCK = 1 << 16


def entropies(dists: Sequence[Dist]) -> list[float]:
    """``entropy_nats`` of each distribution.

    A sparse row keeps its entropy in ``h``, so a row is summed once however
    often it is asked. The distinct new rows with a positive floor get theirs
    together (``_set_entropies``); at a zero floor the zero entries drop out
    of the dense sum, so the dense vector is built.
    """
    new = {id(d): d for d in dists if isinstance(d, SparseRow) and d.h is None}.values()
    _set_entropies([d for d in new if d.floor > 0.0])
    for d in new:
        if d.h is None:
            d.h = _dense_entropy(d)
    return [d.h if isinstance(d, SparseRow) else _dense_entropy(d) for d in dists]


def _set_entropies(rows: Iterable[SparseRow]) -> None:
    """Set ``h`` of each of ``rows`` (positive floors), the rows of each size
    laid out in one reused C-contiguous (rows x |V|) float64 block of at most
    ``_ENTROPY_BLOCK`` entries at a time and summed row-wise.

    With a positive floor every dense entry is positive, so the dense sum
    runs over all |V| p ln p terms in token order: the floor's term outside
    the row and each row token's own term inside it. The terms of all the
    rows of a size are computed in one pass from their few values, without
    a vocabulary-sized log (np.log gives a value the same result in any
    array), and a row-wise sum of a C-contiguous block adds each row as the
    sum of the dense 1-D array does (tests hold numpy to both).
    """
    by_size: dict[int, list[SparseRow]] = {}
    for row in rows:
        by_size.setdefault(row.size, []).append(row)
    for size, rows in by_size.items():
        per_block = max(1, _ENTROPY_BLOCK // size)
        lengths = [len(row.row) for row in rows]
        n = sum(lengths)
        tokens = np.fromiter(itertools.chain.from_iterable(row.row for row in rows), np.int64, n)
        values = np.fromiter(itertools.chain(
            itertools.chain.from_iterable(row.row.values() for row in rows),
            (row.floor for row in rows)), np.float64, n + len(rows))
        terms = values * np.log(values)
        at = np.repeat(np.arange(len(rows)) % per_block, lengths)
        ends = np.cumsum([0, *lengths]).tolist()
        buffer = np.empty((min(per_block, len(rows)), size))
        for first in range(0, len(rows), per_block):
            part = rows[first:first + per_block]
            start, stop = ends[first], ends[first + len(part)]
            block = buffer[:len(part)]
            block[:] = terms[n + first:n + first + len(part), None]
            block[at[start:stop], tokens[start:stop]] = terms[start:stop]
            for row, h in zip(part, (-block.sum(axis=1) + 0.0).tolist()):
                row.h = h


class LanguageModel(abc.ABC):
    """Yields a normalized next-token distribution for any token context.

    Implementations are immutable after construction and safe for concurrent
    reads. Contexts are sequences of token indices into ``vocab``.

    ``context_window`` is how many trailing context tokens the model reads;
    None means all of them. Callers may pass any context that ends in those
    tokens and get the same distribution.
    """

    vocab: Vocabulary
    context_window: int | None = None

    def next_token_dist(self, context: TokenSeq) -> Dist:
        """Next-token distribution given ``context``: a batch of one."""
        return self._batch_dists([context])[0]

    def next_token_dists(self, contexts: Sequence[TokenSeq]) -> list[Dist]:
        """Score many contexts in one invocation (the batched call boundary).

        Subclasses serve the batch through ``_batch_dists`` and leave this
        method alone, so every batch passes through this one boundary.
        """
        return self._batch_dists(contexts)

    @abc.abstractmethod
    def _batch_dists(self, contexts: Sequence[TokenSeq]) -> list[Dist]:
        """The next-token distribution of each context; deterministic per input."""

    def window(self, context: TokenSeq) -> tuple[int, ...]:
        """The last ``context_window`` tokens of ``context`` as ints, all of them when None.

        InputError unless every token of the whole context is an integer
        (``_int_key``) in the vocabulary.
        """
        tokens = _int_key(tuple(context))
        if tokens and (min(tokens) < 0 or max(tokens) >= self.vocab.size):
            raise InputError("context contains a token outside the model vocabulary")
        span = self.context_window
        return tokens if span is None else tokens[max(0, len(tokens) - span):]


class NGramModel(LanguageModel):
    """Additively smoothed order-n count model.

    A context is the last ``order - 1`` tokens before a position; near a
    document start it is shorter. The conditional is (count + smoothing) /
    (total + smoothing * |V|), so any positive smoothing guarantees full
    support on unseen contexts. A context with zero total mass (possible only
    at smoothing 0) falls back to uniform so the output is always a valid
    distribution.

    Counts live in flat int64 columns. A context gets an id level by level:
    at level k (1 .. order - 1) it is the rank of its code, the pair (its
    level k - 1 id, ``back``) packed as ``parent * (|V| + 1) + back``, among
    the distinct codes, where the level-0 id is 0 and ``back`` is the token
    k places back plus one, or 0 past a document start. Ids stay below the
    number of contexts, so a code fits one int64 at any order.
    ``_levels[k - 1]`` holds level k's distinct codes, ascending, so an id
    is its code's index there and a lookup is a binary search. The context
    with final id c has the successors ``_tokens[_offsets[c]:_offsets[c +
    1]]`` (ascending), their counts ``_counts`` over the same slice, and the
    sum ``_totals[c]``.

    A batch (``_batch_dists``; ``next_token_dist`` is a batch of one) walks
    the levels once for all of its new contexts, one ``np.searchsorted`` per
    level, and computes and ranks all of their successors' probabilities in
    one numpy pass (``_read_rows``). The ``SparseRow`` built for each, those
    probabilities over the floor smoothing / (total + smoothing * |V|), is
    kept, so a context is read once. Contexts unseen in training share one
    row. Each row keeps its own entropy, so that is computed once per count
    row.
    """

    @classmethod
    def fit(cls, vocab: Vocabulary, documents: Sequence[TokenSeq], order: int,
            smoothing: float) -> "NGramModel":
        """Count successor statistics over ``documents`` (index sequences).

        Each token must be an integer, by the rule ``window`` applies to a
        context. The model is ``_fit_orders`` at this one order.
        """
        if _plain_ints(tuple(itertools.chain.from_iterable(documents))) is None:
            raise InputError("a document holds a token that is not an integer")
        return cls._fit_orders(vocab, documents, (order,), smoothing)[0]

    @classmethod
    def _fit_orders(cls, vocab: Vocabulary, documents: Sequence[TokenSeq], orders: Sequence[int],
                    smoothing: float) -> list["NGramModel"]:
        """``fit`` at each of the ascending ``orders``, from one ranking of the levels.

        The documents are flattened into one range-checked array, and each
        level's context ids are ranked over all positions at once up to the
        highest order (``_ranked_levels``). After level k - 1 the order-k model
        counts its (context, token) pairs in one pass (``_count``) and keeps
        ``_levels[:k - 1]``, the very level objects every higher order holds.
        """
        if orders[0] < 1:
            raise InputError("order must be >= 1")
        if not 0 <= smoothing < math.inf:
            raise InputError(f"smoothing must be finite and >= 0, got {smoothing!r}")
        size = vocab.size
        lengths = np.array([len(doc) for doc in documents], dtype=np.int64)
        flat = np.fromiter(itertools.chain.from_iterable(documents), dtype=np.int64,
                           count=int(lengths.sum()))
        if flat.size and (flat.min() < 0 or flat.max() >= size):
            raise InputError("document contains a token outside the model vocabulary")
        since_start = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        # Made one level at a time, so only one column is alive at once.
        columns = (np.where(since_start < k, 0, np.roll(flat, k) + 1) for k in range(1, orders[-1]))
        return [cls._packed(vocab, order, smoothing, levels,
                            *_count(ids * size + flat, n_contexts * size), n_contexts)
                for order, (levels, ids, n_contexts)
                in enumerate(_ranked_levels(columns, flat.size, size + 1), 1) if order in orders]

    @classmethod
    def _packed(cls, vocab: Vocabulary, order: int, smoothing: float, levels: list[memoryview],
                keys: np.ndarray, counts: np.ndarray, n_contexts: int) -> "NGramModel":
        """The model of ``levels`` and ascending ``context id * |V| + token`` keys' counts."""
        model, size = cls(), vocab.size
        model.vocab, model.order, model.context_window = vocab, order, order - 1
        model.smoothing = float(smoothing)
        model._rows = {}  # context -> its SparseRow, once read
        # Unseen contexts share one row; () is the real document-start row.
        model._unseen = _smoothed_row(size, {}, model.smoothing, model.smoothing * size)
        model._levels = levels
        rows = keys // size
        offsets = np.searchsorted(rows, np.arange(n_contexts + 1))
        # Differences of running sums give a row with no successors a total of 0.
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        model._offsets = memoryview(offsets)
        model._tokens = memoryview(keys - rows * size)
        model._counts = memoryview(counts)
        model._totals = memoryview(cumulative[offsets[1:]] - cumulative[offsets[:-1]])
        return model

    @functools.cached_property
    def counts(self) -> Mapping[tuple[int, ...], dict[int, int]]:
        """Read-only view, context tuple -> {token: count}, decoded on first use.

        Scoring never builds it. Each row lists its tokens in ascending order.
        """
        node = np.arange(len(self._totals))
        columns = []
        for codes in reversed(self._levels):
            node, back = np.divmod(np.asarray(codes)[node], self.vocab.size + 1)
            columns.append(back)
        backs = np.stack(columns, axis=1).tolist() if columns else [[]] * len(self._totals)
        offsets, tokens = self._offsets.tolist(), self._tokens.tolist()
        counts = self._counts.tolist()
        return MappingProxyType({
            tuple(t - 1 for t in back if t): dict(zip(tokens[start:stop], counts[start:stop]))
            for back, start, stop in zip(backs, offsets, offsets[1:])
        })

    def _batch_dists(self, contexts: Sequence[TokenSeq]) -> list[SparseRow]:
        """``next_token_dists``: one range check for the batch, a dict hit per
        context seen before, and one ``_read_rows`` for the new ones."""
        size, span = self.vocab.size, self.context_window
        tokens = list(itertools.chain.from_iterable(contexts))
        if tokens and (min(tokens) < 0 or max(tokens) >= size):
            raise InputError("context contains a token outside the model vocabulary")
        # A key of numpy ints finds the row of the same plain ints; unless the
        # batch holds plain ints alone, a miss is looked up again as plain ints
        # (InputError if a token is not an integer) before it is read.
        keys = [tuple(c[-span:]) for c in contexts] if span else [()] * len(contexts)
        rows = self._rows
        dists = list(map(rows.get, keys))
        if None in dists:
            missed = [i for i, dist in enumerate(dists) if dist is None]
            as_ints = _int_key if set(map(type, tokens)) - {int} else tuple
            plain = {keys[i]: as_ints(keys[i]) for i in missed}
            new = [key for key in dict.fromkeys(plain.values()) if key not in rows]
            rows.update(zip(new, self._read_rows(new)))
            for i in missed:
                dists[i] = rows[plain[keys[i]]]
        return dists

    def _read_rows(self, keys: list[tuple[int, ...]]) -> list[SparseRow]:
        """The ``SparseRow`` of each key's count row, each level searched for all keys at once.

        A key's column k - 1 holds its ``back`` at level k; a key shorter
        than the window is padded with -1, whose ``back`` is 0. A key that
        leaves the levels gets the shared unseen row.
        """
        span, radix, size = self.order - 1, self.vocab.size + 1, self.vocab.size
        node = np.zeros(len(keys), dtype=np.int64)
        if span:
            padded = np.array([key if len(key) == span else (-1,) * (span - len(key)) + key
                               for key in keys], dtype=np.int64).reshape(len(keys), span)
            backs = padded[:, ::-1] + 1
            for k, codes in enumerate(self._levels):
                codes = np.asarray(codes)
                if not codes.size:
                    node[:] = -1
                    break
                want = node * radix + backs[:, k]
                found = np.minimum(np.searchsorted(codes, want), codes.size - 1)
                # An unseen parent (-1) makes a negative code, which never matches.
                node = np.where(codes[found] == want, found, -1)
        n_rows = len(self._totals)
        seen = node[(node >= 0) & (node < n_rows)]
        # Every seen row's successors and probabilities, gathered into two
        # lists in rank order: descending probability, then ascending token,
        # as a stable sort of ascending tokens leaves equal probabilities.
        offsets = np.asarray(self._offsets)
        starts, lengths = offsets[seen], offsets[seen + 1] - offsets[seen]
        smoothing = self.smoothing
        denoms = np.asarray(self._totals)[seen] + smoothing * size
        at = np.arange(int(lengths.sum())) + np.repeat(starts - (np.cumsum(lengths) - lengths),
                                                        lengths)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero denom makes an empty row
            probs = (smoothing + np.asarray(self._counts)[at]) / np.repeat(denoms, lengths)
        order = np.lexsort((-probs, np.repeat(np.arange(seen.size), lengths)))
        tokens, probs = np.asarray(self._tokens)[at[order]].tolist(), probs[order].tolist()
        found = iter(zip(lengths.tolist(), denoms.tolist()))
        rows, start = [], 0
        for n in node.tolist():
            if not 0 <= n < n_rows:
                rows.append(self._unseen)
                continue
            length, denom = next(found)
            stop = start + length
            rows.append(_smoothed_row(size, dict(zip(tokens[start:stop], probs[start:stop])),
                                      smoothing, denom))
            start = stop
        return rows


def _smoothed_row(size: int, row: dict[int, float], smoothing: float, denom: float) -> SparseRow:
    """The ``SparseRow`` of ``row``'s probabilities over the floor smoothing / denom;
    the uniform row when ``denom`` is not positive."""
    return SparseRow(size, row, smoothing / denom) if denom > 0.0 else SparseRow(size, {}, 1.0 / size)


# Up to this many codes' worth of code space, a presence mask or a bincount
# over the whole space ranks or counts codes faster than np.unique's sort;
# beyond it, allocating and scanning the space costs more than the sort.
_DENSE_SPACE_PER_CODE = 2


def _ranked_levels(columns: Iterable[np.ndarray], n: int,
                   radix: int) -> Iterator[tuple[list[memoryview], np.ndarray, int]]:
    """Yield (the levels so far, the ``n`` rows' ids, the number of contexts) at level 0, where
    every row is the one context () (none when n is 0), then after ranking each ``back`` column.
    """
    ids = np.zeros(n, dtype=np.int64)
    levels: list[memoryview] = []
    yield levels, ids, min(n, 1)
    for back in columns:
        codes, ids = _distinct(ids * radix + back, (len(levels[-1]) if levels else 1) * radix)
        levels = [*levels, memoryview(codes)]  # a new list: the yielded ones stay as they are
        yield levels, ids, codes.size


def _distinct(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for int64 codes in [0, space)."""
    if space > _DENSE_SPACE_PER_CODE * codes.size:
        return np.unique(codes, return_inverse=True)
    present = np.zeros(space, dtype=bool)
    present[codes] = True
    return np.flatnonzero(present), np.cumsum(present)[codes] - 1


def _count(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_counts=True)`` for int64 codes in [0, space)."""
    if space > _DENSE_SPACE_PER_CODE * codes.size:
        return np.unique(codes, return_counts=True)
    counts = np.bincount(codes, minlength=space)
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


def _plain_ints(values: tuple) -> tuple[int, ...] | None:
    """``values`` as plain ints, or None unless each value is an integer: equal to its ``int``."""
    try:
        plain = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return plain if plain == values else None


def _int_key(key: tuple) -> tuple[int, ...]:
    """``key`` as plain ints; InputError unless each of its tokens is an integer."""
    plain = _plain_ints(key)
    if plain is None:
        raise InputError(f"context {key!r} holds a token that is not an integer")
    return plain
