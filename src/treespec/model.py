"""Language-model interface and deterministic n-gram reference models.

Everything here is desk-scale and exactly reproducible: models are plain
count tables, distributions are numpy vectors over a fixed vocabulary (an
n-gram model's are ``SparseRow`` values with the same numbers), and all
tie-breaking is by ascending token index.
"""

from __future__ import annotations

import abc
import bisect
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    if isinstance(dist, SparseRow):
        return dist.entropy()
    return _dense_entropy(dist)


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
    """An n-gram next-token distribution held as its successor-count row.

    Token t has probability (smoothing + row[t]) / denom if t is in ``row``
    and ``floor`` (smoothing / denom) otherwise, by the same IEEE operations
    that fill the dense vector ``np.asarray(self)``; every value, the
    ``top`` order and the entropy equal their dense counterparts bit for
    bit. An empty ``row`` with ``floor`` 1 / size is the uniform fallback.

    ``entropy`` is computed once per count row and kept in ``entropies``
    (the model's cache) under ``key``: the row's context, or None for a
    context unseen in training. Counts are assumed non-negative, as ``fit``
    makes them. ``tops`` keeps ``top``'s rankings by k, made on first use.
    """

    __slots__ = ("size", "row", "smoothing", "denom", "floor", "key", "entropies", "tops")

    def __init__(
        self,
        size: int,
        row: Mapping[int, int],
        smoothing: float,
        denom: float,
        key: tuple[int, ...] | None,
        entropies: dict,
    ) -> None:
        self.size = size
        if denom <= 0.0:
            row, self.floor = {}, 1.0 / size
        else:
            self.floor = smoothing / denom
        self.row = row
        self.smoothing = smoothing
        self.denom = denom
        self.key = key
        self.entropies = entropies
        self.tops: dict[int, tuple[tuple[int, float], ...]] | None = None

    def __getitem__(self, token: int) -> float:
        if not 0 <= token < self.size:
            raise IndexError(f"token {token} out of range for vocabulary of {self.size}")
        count = self.row.get(token)
        return self.floor if count is None else (self.smoothing + count) / self.denom

    def _row_probs(self) -> list[float]:
        """The row tokens' probabilities, in row order."""
        smoothing, denom = self.smoothing, self.denom
        return [(smoothing + count) / denom for count in self.row.values()]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        probs = np.full(self.size, self.floor)
        probs[list(self.row)] = self._row_probs()
        return probs if dtype is None else probs.astype(dtype, copy=False)

    def top(self, k: int) -> list[tuple[int, float]]:
        """``top_candidates`` of the dense vector, from the row alone.

        Tokens outside the row all sit at the floor and tie by index, so the
        k lowest-index ones are the only ones that can make the top k. Each
        k is ranked once and kept as a tuple; every call returns a new list.
        """
        if self.tops is None:
            self.tops = {}
        ranked = self.tops.get(k)
        if ranked is None:
            ranked = self.tops[k] = tuple(self._rank_top(k))
        return list(ranked)

    def _rank_top(self, k: int) -> list[tuple[int, float]]:
        _check_k(k, self.size)
        row = self.row
        ranked = [(-p, token) for token, p in zip(row, self._row_probs())]
        floor = -self.floor
        token = extra = 0
        while extra < k and token < self.size:
            if token not in row:
                ranked.append((floor, token))
                extra += 1
            token += 1
        ranked.sort()
        return [(token, -p) for p, token in ranked[:k]]

    def entropy(self) -> float:
        """``entropy_nats`` of the dense vector, computed once per count row.

        With a positive floor every entry is positive, so the dense sum runs
        over all ``size`` p ln p terms in token order: the floor's term
        outside the row and each row token's own term inside it. That array
        is built from the row's few terms and summed the same way, which
        gives the same bits without a vocabulary-sized log (np.log gives a
        value the same result in any array; a test holds it to that). At a
        zero floor the zero entries drop out of the dense sum, so the dense
        vector is built.
        """
        h = self.entropies.get(self.key)
        if h is None:
            if self.floor > 0.0:
                values = np.array([*self._row_probs(), self.floor])
                terms = values * np.log(values)
                dense = np.full(self.size, terms[-1])
                dense[list(self.row)] = terms[:-1]
                h = float(-dense.sum()) + 0.0
            else:
                h = _dense_entropy(self)
            self.entropies[self.key] = h
        return h


Dist = np.ndarray | SparseRow


def context_suffix(context: TokenSeq, window: int | None) -> list[int]:
    """The last ``window`` tokens of ``context`` as ints; all of it when None."""
    start = 0 if window is None else max(0, len(context) - window)
    return [int(t) for t in context[start:]]


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

    @abc.abstractmethod
    def next_token_dist(self, context: TokenSeq) -> Dist:
        """Next-token distribution given ``context``; deterministic per input."""

    def next_token_dists(self, contexts: Sequence[TokenSeq]) -> list[Dist]:
        """Score many contexts in one invocation (the batched call boundary)."""
        return [self.next_token_dist(c) for c in contexts]

    def check_context(self, context: TokenSeq) -> None:
        """Raise InputError unless every token of ``context`` is in the vocabulary."""
        if len(context) and (min(context) < 0 or max(context) >= self.vocab.size):
            raise InputError("context contains a token outside the model vocabulary")


class NGramModel(LanguageModel):
    """Additively smoothed order-n count model.

    A context is the last ``order - 1`` tokens before a position; near a
    document start it is shorter. The conditional is (count + smoothing) /
    (total + smoothing * |V|), so any positive smoothing guarantees full
    support on unseen contexts. A context with zero total mass (possible only
    at smoothing 0) falls back to uniform so the output is always a valid
    distribution.

    Counts live in flat int64 columns. A context gets an id level by level:
    at level k (1 .. order - 1) it is the rank of the pair (its level k - 1
    id, ``back``) among the distinct pairs, where the level-0 id is 0 and
    ``back`` is the token k places back plus one, or 0 past a document
    start. Ids stay below the number of contexts, so a pair packs into one
    int64 code at any order. ``_levels[k - 1]`` holds level k as a trie
    layer: the children of level k - 1 id p are the ids
    ``_levels[k - 1][0][p]`` up to ``[p + 1]``, whose ``back`` values,
    ascending, are the same slice of ``_levels[k - 1][1]``. ``_first`` maps
    a level-1 ``back`` straight to its id (-1 if none). The context with
    final id c has the successors ``_tokens[_offsets[c]:_offsets[c + 1]]``
    (ascending), their counts ``_counts`` over the same slice, and the sum
    ``_totals[c]``.

    ``next_token_dist`` walks the levels once per distinct context and keeps
    the ``SparseRow`` it builds. The entropy of each count row is computed
    once and cached on the model, so that cache holds at most
    ``len(counts) + 1`` entries (the extra one for contexts unseen in
    training).
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        counts: Mapping[tuple[int, ...], Mapping[int, int]],
        smoothing: float,
    ) -> None:
        """Pack ``counts`` (context tuple -> {token: count}) into the columns.

        Contexts may be shorter than ``order - 1`` but not longer, every token
        must be in the vocabulary and every count a non-negative integer.
        """
        self._setup(vocab, order, smoothing)
        span, size = order - 1, vocab.size
        backs, lengths, tokens, weights = [], [], [], []
        for context, row in counts.items():
            context = tuple(context)
            if len(context) > span:
                raise InputError(f"context {context} is longer than order - 1 = {span}")
            _check_tokens(context, size)
            _check_tokens(row, size)
            for count in row.values():
                if not isinstance(count, numbers.Integral) or count < 0:
                    raise InputError(f"count {count!r} after context {context} is not "
                                     "a non-negative integer")
            backs.append([context[-k] + 1 if k <= len(context) else 0 for k in range(1, order)])
            lengths.append(len(row))
            tokens.extend(row)
            weights.extend(row.values())
        columns = np.array(backs, dtype=np.int64).reshape(len(backs), span).T
        ids = self._rank(columns, len(backs))
        keys = np.repeat(ids, lengths) * size + np.array(tokens, dtype=np.int64)
        ascending = np.argsort(keys)
        self._pack(keys[ascending], np.array(weights, dtype=np.int64)[ascending], len(backs))

    @classmethod
    def fit(
        cls,
        vocab: Vocabulary,
        documents: Sequence[TokenSeq],
        order: int,
        smoothing: float,
    ) -> "NGramModel":
        """Count successor statistics over ``documents`` (index sequences).

        The documents are flattened into one array; each level's context ids
        come from one ``np.unique`` over all positions and the (context,
        token) pairs are counted with one more.
        """
        model = cls.__new__(cls)
        model._setup(vocab, order, smoothing)
        lengths = np.array([len(doc) for doc in documents], dtype=np.int64)
        flat = np.fromiter(itertools.chain.from_iterable(documents), dtype=np.int64,
                           count=int(lengths.sum()))
        if flat.size and (flat.min() < 0 or flat.max() >= vocab.size):
            raise InputError("document contains a token outside the model vocabulary")
        since_start = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        # Made one level at a time, so only one column is alive at once.
        columns = (np.where(since_start < k, 0, np.roll(flat, k) + 1) for k in range(1, order))
        ids = model._rank(columns, flat.size)
        model._pack(*np.unique(ids * vocab.size + flat, return_counts=True), flat.size)
        return model

    def _setup(self, vocab: Vocabulary, order: int, smoothing: float) -> None:
        if order < 1:
            raise InputError("order must be >= 1")
        if not 0 <= smoothing < math.inf:
            raise InputError(f"smoothing must be finite and >= 0, got {smoothing!r}")
        self.vocab = vocab
        self.order = order
        self.context_window = order - 1
        self.smoothing = float(smoothing)
        self._entropies: dict[tuple[int, ...] | None, float] = {}
        self._rows: dict[tuple[int, ...], SparseRow] = {}
        # Unseen contexts share one row; () is the real document-start row.
        size = vocab.size
        self._unseen = SparseRow(size, {}, self.smoothing, self.smoothing * size, None,
                                 self._entropies)

    def _rank(self, columns: Iterable[np.ndarray], n: int) -> np.ndarray:
        """Fill ``_levels`` and ``_first`` from each level's ``back`` column; the final ids."""
        radix = self.vocab.size + 1
        ids = np.zeros(n, dtype=np.int64)
        self._levels = []
        parents = 1
        for back in columns:
            codes, ids = np.unique(ids * radix + back, return_inverse=True)
            parent, children = np.divmod(codes, radix)
            starts = np.searchsorted(parent, np.arange(parents + 1))
            # Memoryviews index and slice to plain ints without a list of them.
            self._levels.append((memoryview(starts), memoryview(children)))
            parents = codes.size
        first = np.full(radix, -1)
        if self._levels:
            first[self._levels[0][1]] = np.arange(len(self._levels[0][1]))
        self._first = memoryview(first)
        return ids

    def _pack(self, keys: np.ndarray, counts: np.ndarray, n: int) -> None:
        """Fill the row columns from ascending ``context id * |V| + token`` keys.

        ``n`` is the number of context rows ``_rank`` ranked.
        """
        n_contexts = len(self._levels[-1][1]) if self._levels else min(n, 1)
        size = self.vocab.size
        rows = keys // size
        offsets = np.searchsorted(rows, np.arange(n_contexts + 1))
        # Differences of running sums give an empty row (a context given
        # with no successors) a total of 0.
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        self._offsets = memoryview(offsets)
        self._tokens = memoryview(keys - rows * size)
        self._counts = memoryview(counts)
        self._totals = memoryview(cumulative[offsets[1:]] - cumulative[offsets[:-1]])

    @functools.cached_property
    def counts(self) -> Mapping[tuple[int, ...], dict[int, int]]:
        """Read-only view, context tuple -> {token: count}, decoded on first use.

        Scoring never builds it. Each row lists its tokens in ascending order.
        """
        node = np.arange(len(self._totals))
        columns = []
        for starts, children in reversed(self._levels):
            columns.append(np.asarray(children)[node])
            node = np.searchsorted(starts, node, side="right") - 1
        backs = np.stack(columns, axis=1).tolist() if columns else [[]] * len(self._totals)
        offsets, tokens = self._offsets.tolist(), self._tokens.tolist()
        counts = self._counts.tolist()
        return MappingProxyType({
            tuple(t - 1 for t in back if t): dict(zip(tokens[start:stop], counts[start:stop]))
            for back, start, stop in zip(backs, offsets, offsets[1:])
        })

    def next_token_dist(self, context: TokenSeq) -> SparseRow:
        self.check_context(context)
        span = self.context_window
        key = tuple(map(int, context[-span:])) if span else ()
        dist = self._rows.get(key)
        if dist is None:
            dist = self._rows[key] = self._read_row(key)
        return dist

    def _read_row(self, key: tuple[int, ...]) -> SparseRow:
        """The ``SparseRow`` of ``key``'s count row, found by walking the levels."""
        n = len(key)
        node = self._first[key[-1] + 1 if n else 0] if self._levels else 0
        for k in range(2, self.order):
            if node < 0:
                return self._unseen
            starts, children = self._levels[k - 1]
            back = key[-k] + 1 if k <= n else 0
            lo, hi = starts[node], starts[node + 1]
            node = bisect.bisect_left(children, back, lo, hi)
            if node == hi or children[node] != back:
                return self._unseen
        if not 0 <= node < len(self._totals):
            return self._unseen
        start, stop = self._offsets[node], self._offsets[node + 1]
        size = self.vocab.size
        denom = self._totals[node] + self.smoothing * size
        row = dict(zip(self._tokens[start:stop], self._counts[start:stop]))
        return SparseRow(size, row, self.smoothing, denom, key, self._entropies)


def _check_tokens(tokens: Iterable, size: int) -> None:
    for token in tokens:
        if not isinstance(token, numbers.Integral) or not 0 <= token < size:
            raise InputError(f"token {token!r} outside the model vocabulary of {size}")


class TableModel(LanguageModel):
    """Hand-built model: explicit distributions per exact context tuple.

    Contexts absent from the table get ``default``. Useful for constructing
    worked examples and oracle tests with known probabilities.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        default: np.ndarray | Sequence[float],
        table: Mapping[tuple[int, ...], np.ndarray | Sequence[float]] | None = None,
    ) -> None:
        self.vocab = vocab
        self.default = validate_dist(default, vocab.size)
        self.table = {
            tuple(ctx): validate_dist(d, vocab.size) for ctx, d in (table or {}).items()
        }

    def next_token_dist(self, context: TokenSeq) -> np.ndarray:
        self.check_context(context)
        return self.table.get(tuple(int(t) for t in context), self.default)
