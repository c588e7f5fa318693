"""Language-model interface and deterministic n-gram reference models.

Everything here is desk-scale and exactly reproducible: models are plain
count tables, a batch of distributions over a fixed vocabulary is one
``RowBatch`` of rank-ordered sparse rows (one distribution is a numpy
vector), and all tie-breaking is by ascending token index.
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


def entropy_nats(dist: np.ndarray | Sequence[float]) -> float:
    """Shannon entropy -sum(p ln p) in nats of a dense vector, with 0 ln 0 taken as 0."""
    arr = np.asarray(dist, dtype=np.float64)
    pos = arr[arr > 0.0]
    return float(-(pos * np.log(pos)).sum()) + 0.0


# Rows whose entropies are summed together are laid out as C-contiguous
# (rows x |V|) float64 blocks of at most this many entries.
_ENTROPY_BLOCK = 1 << 16


class RowBatch:
    """Next-token distributions over ``size`` tokens, held as the tokens that stand out.

    Row r lists ``tokens[offsets[r]:offsets[r + 1]]`` and their ``probs`` in
    rank order (descending probability, then ascending token); every other
    token has the probability ``floors[r]``, and context i has row
    ``index[i]``. ``top`` equals a stable descending sort of the dense
    vectors (``dense``), ``prob`` their indexing and ``entropies`` their
    ``entropy_nats``, bit for bit, each over the distinct rows at once.

    The constructor ranks each row itself; with no ``index``, context i is
    row i. ``_ranked`` takes rows already in rank order and sorts nothing. A
    dense vector is a row that lists every token over a floor of 0.
    """

    __slots__ = ("size", "offsets", "tokens", "probs", "floors", "index")

    def __init__(self, size: int, offsets: Sequence[int], tokens: Sequence[int],
                 probs: Sequence[float], floors: Sequence[float],
                 index: Sequence[int] | None = None) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        tokens, probs = np.asarray(tokens, dtype=np.int64), np.asarray(probs, dtype=np.float64)
        rows = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        order = np.lexsort((tokens, -probs, rows))
        self._ranked(size, offsets, tokens[order], probs[order], floors, index, self)

    @classmethod
    def _ranked(cls, size: int, offsets: np.ndarray, tokens: np.ndarray, probs: np.ndarray,
                floors: Sequence[float], index: Sequence[int] | None = None,
                batch: RowBatch | None = None) -> RowBatch:
        """``batch`` (a new one when None) holding rows given in rank order, unsorted."""
        batch = cls.__new__(cls) if batch is None else batch
        batch.size, batch.offsets, batch.tokens, batch.probs = size, offsets, tokens, probs
        batch.floors = np.asarray(floors, dtype=np.float64)
        batch.index = np.arange(batch.floors.size) if index is None else np.asarray(index, np.int64)
        return batch

    def dense(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The dense vectors of ``rows``, each context's row when None, as a (rows x size) array."""
        rows = self.index if rows is None else rows
        at, lengths = _gather(self.offsets, rows)
        vectors = np.repeat(self.floors[rows, None], self.size, axis=1)
        vectors[np.repeat(np.arange(rows.size), lengths), self.tokens[at]] = self.probs[at]
        return vectors

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The k most probable tokens of each distinct row, ties by ascending token, each
        row ranked once: each context's position among the distinct rows, and their
        (rows x k) tokens and probabilities; InputError unless 1 <= k <= ``size``.

        A row's first k entries lead it. The tokens it does not list all sit at
        the floor and tie by index, so only a row with fewer than k entries
        above its floor merges in its k lowest-index unlisted tokens.
        """
        if not 1 <= k <= self.size:
            raise InputError(f"k={k} out of range for vocabulary of {self.size}")
        rows, which = _distinct(self.index, self.floors.size, dense=True)
        starts, ranks = self.offsets[rows], np.arange(k)
        listed = ranks < (lengths := self.offsets[rows + 1] - starts)[:, None]
        tokens, probs = np.zeros((rows.size, k), dtype=np.int64), np.zeros((rows.size, k))
        at = (starts[:, None] + ranks)[listed]
        tokens[listed], probs[listed] = self.tokens[at], self.probs[at]
        short = (lengths < self.size) & ~(listed[:, -1] & (probs[:, -1] > self.floors[rows]))
        for i in np.flatnonzero(short).tolist():
            taken = set(self.tokens[starts[i]:starts[i] + lengths[i]].tolist())
            extra = itertools.islice((t for t in range(self.size) if t not in taken), k)
            floor = float(self.floors[rows[i]])
            ranked = sorted([*zip(tokens[i].tolist(), probs[i].tolist())][:lengths[i]]
                            + [(t, floor) for t in extra], key=lambda item: (-item[1], item[0]))
            tokens[i], probs[i] = zip(*ranked[:k])
        return which, tokens, probs

    def prob(self, contexts: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """The probability of each ``tokens[i]`` at context ``contexts[i]``, as float64: its row's
        entry, found by one search over the distinct rows' (row, token) keys, or else its floor;
        InputError for a token outside the vocabulary."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size and not 0 <= tokens.min() <= tokens.max() < self.size:
            raise InputError("a scored token is outside the model vocabulary")
        rows = self.index[contexts]
        distinct, local = _distinct(rows, self.floors.size, dense=True)
        at, lengths = _gather(self.offsets, distinct)
        keys = np.repeat(np.arange(distinct.size), lengths) * self.size + self.tokens[at]
        order = np.argsort(keys)
        # A last key past every wanted one, so that each search lands on a key.
        keys = np.append(keys[order], distinct.size * self.size)
        want = local * self.size + tokens
        found = np.searchsorted(keys, want)
        return np.where(keys[found] == want, np.append(self.probs[at[order]], 0.0)[found],
                        self.floors[rows])

    def entropies(self) -> np.ndarray:
        """Each context's ``entropy_nats``, as float64; each distinct row is summed once."""
        rows, which = _distinct(self.index, self.floors.size, dense=True)
        return _entropies(self, rows)[which]


def _entropies(batch: RowBatch, rows: np.ndarray) -> np.ndarray:
    """The entropy of each of the distinct ``rows`` of ``batch``, in that order.

    A row whose floor and entries are all positive sums all |V| p ln p terms
    of its dense vector in token order. Its terms are computed in one pass
    without a vocabulary-sized log (np.log gives a value the same result in
    any array) and laid out in one reused C-contiguous (rows x |V|) block of
    at most ``_ENTROPY_BLOCK`` entries, summed row-wise as the dense 1-D sum
    adds them (tests hold numpy to both). Any other row sums its dense
    vector, where its zero entries drop out.
    """
    at, lengths = _gather(batch.offsets, rows)
    positive = batch.floors[rows] > 0.0
    positive[np.repeat(np.arange(rows.size), lengths)[batch.probs[at] <= 0.0]] = False
    h = np.empty(rows.size)
    for i in np.flatnonzero(~positive).tolist():
        h[i] = entropy_nats(batch.dense(rows[i, None])[0])
    where, size = np.flatnonzero(positive), batch.size
    at, lengths = _gather(batch.offsets, rows[where])
    values, floors = batch.probs[at], batch.floors[rows[where]]
    terms, floor_terms = values * np.log(values), floors * np.log(floors)
    per_block = max(1, _ENTROPY_BLOCK // size)
    local, tokens = np.repeat(np.arange(where.size) % per_block, lengths), batch.tokens[at]
    ends = np.concatenate(([0], np.cumsum(lengths))).tolist()
    buffer = np.empty((min(per_block, where.size), size))
    for first in range(0, where.size, per_block):
        last = min(first + per_block, where.size)
        block, part = buffer[:last - first], slice(ends[first], ends[last])
        block[:] = floor_terms[first:last, None]
        block[local[part], tokens[part]] = terms[part]
        h[where[first:last]] = -block.sum(axis=1) + 0.0
    return h


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(lo[i], hi[i])`` over i."""
    sizes = hi - lo
    return np.arange(int(sizes.sum())) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)


def _gather(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of ``rows``' entries under CSR ``offsets``, row after row, and their lengths."""
    starts, stops = offsets[rows], offsets[rows + 1]
    return _ranges(starts, stops), stops - starts


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending.

    Found by a sort: np.unique takes a hash path for ints that is many
    times slower.
    """
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


class LanguageModel(abc.ABC):
    """Yields a normalized next-token distribution for any token context.

    Implementations are immutable after construction and safe for concurrent
    reads. Contexts are sequences of token indices into ``vocab``.

    ``context_window``, an int >= 0 every model sets, is how many trailing
    context tokens the model reads. Callers may pass any context that ends in
    those tokens and get the same distribution.
    """

    vocab: Vocabulary
    context_window: int

    def next_token_dist(self, context: TokenSeq) -> np.ndarray:
        """Next-token distribution given ``context`` as a dense vector: a batch of one."""
        return self._batch_dists(self.windows([context])).dense()[0]

    def next_token_dists(self, contexts: Sequence[TokenSeq] | np.ndarray) -> RowBatch:
        """Score many contexts, in either form ``windows`` takes, in one invocation (the
        batched call boundary). Subclasses serve the checked windows through
        ``_batch_dists`` and leave this method alone, so every batch passes through it."""
        return self._batch_dists(self.windows(contexts))

    @abc.abstractmethod
    def _batch_dists(self, windows: np.ndarray) -> RowBatch:
        """The next-token distribution of each row of a ``windows`` array, as one ``RowBatch``
        with an ``index`` entry per row; deterministic per input."""

    def windows(self, contexts: Sequence[TokenSeq] | np.ndarray) -> np.ndarray:
        """Each context's last ``context_window`` tokens as one (contexts x ``context_window``)
        int64 array: right-aligned, with -1 before the first token of a shorter context.

        ``contexts`` is either a sequence of contexts, InputError unless every
        token of every whole context is an integer (``_int_key``, which names
        the first context that holds one that is not) in the vocabulary; or an
        integer array of rows in this form, InputError unless it is 2-D with
        entries in [-1, |V|) and -1 only as a leading run in its row. A
        narrower array is padded on the left with -1, a wider one cut.
        """
        span = self.context_window
        if isinstance(contexts, np.ndarray):
            if contexts.ndim != 2 or contexts.dtype.kind not in "iu":
                raise InputError(f"a window array must be 2-D of integers, "
                                 f"got {contexts.ndim}-D of {contexts.dtype}")
            if contexts.size and (contexts.min() < -1 or contexts.max() >= self.vocab.size):
                raise InputError("context contains a token outside the model vocabulary")
            pad = contexts < 0
            if (pad[:, 1:] & ~pad[:, :-1]).any():
                raise InputError("a window array holds -1 after a token")
            cut = contexts[:, max(0, contexts.shape[1] - span):].astype(np.int64, copy=False)
            return np.pad(cut, ((0, 0), (span - cut.shape[1], 0)), constant_values=-1)
        contexts = [tuple(context) for context in contexts]
        tokens = list(itertools.chain.from_iterable(contexts))
        if set(map(type, tokens)) - {int}:
            contexts = list(map(_int_key, contexts))
        if tokens and (min(tokens) < 0 or max(tokens) >= self.vocab.size):
            raise InputError("context contains a token outside the model vocabulary")
        pad = (-1,) * span
        return np.array([(pad + c)[len(c):] for c in contexts],
                        dtype=np.int64).reshape(len(contexts), span)


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
    1]]``, their counts ``_counts`` over the same slice, and the sum
    ``_totals[c]``. ``fit`` puts each context's successors in rank order
    once: descending count, then ascending token. A probability rises with
    its count, so a context's row is read out already ranked.

    Nothing changes after ``fit``. A batch (``_batch_dists``) walks the
    levels once for all of its windows, one ``np.searchsorted`` per level,
    which gives each its id, and builds a ``RowBatch`` of just its distinct
    ids, ascending: each context's successors' probabilities over the
    floor smoothing / (total + smoothing * |V|), in one numpy pass. Every
    unseen context (id -1) shares the first row, which lists no token.
    """

    @classmethod
    def fit(cls, vocab: Vocabulary, documents: Sequence[TokenSeq], order: int,
            smoothing: float) -> "NGramModel":
        """Count successor statistics over ``documents`` (index sequences): ``_fit_orders``
        at this one order, on the documents flattened by ``_flat_documents``."""
        return cls._fit_orders(vocab, *_flat_documents(documents), (order,), smoothing)[0]

    @classmethod
    def _fit_orders(cls, vocab: Vocabulary, tokens: np.ndarray, offsets: np.ndarray,
                    orders: Sequence[int], smoothing: float) -> list["NGramModel"]:
        """``fit`` at each of the ascending ``orders``, from one ranking of the levels.

        Document i is ``tokens[offsets[i]:offsets[i + 1]]``; the tokens are
        range-checked here. Each level's context ids are ranked over all
        positions at once up to the highest order (``_ranked_levels``). After
        level k - 1 the order-k model counts its (context, token) pairs in one
        pass (``_count``) and keeps ``_levels[:k - 1]``, the very level objects
        every higher order holds.
        """
        if orders[0] < 1:
            raise InputError("order must be >= 1")
        if not 0 <= smoothing < math.inf:
            raise InputError(f"smoothing must be finite and >= 0, got {smoothing!r}")
        size = vocab.size
        _check_token_ids(tokens, size)
        since_start = np.arange(tokens.size) - np.repeat(offsets[:-1], np.diff(offsets))
        # Made one level at a time, so only one column is alive at once.
        columns = (np.where(since_start < k, 0, np.roll(tokens, k) + 1) for k in range(1, orders[-1]))
        return [cls._packed(vocab, order, smoothing, levels,
                            *_count(ids * size + tokens, n_contexts * size), n_contexts)
                for order, (levels, ids, n_contexts)
                in enumerate(_ranked_levels(columns, tokens.size, size + 1), 1) if order in orders]

    @classmethod
    def _packed(cls, vocab: Vocabulary, order: int, smoothing: float, levels: list[memoryview],
                keys: np.ndarray, counts: np.ndarray, n_contexts: int) -> "NGramModel":
        """The model of ``levels`` and ascending ``context id * |V| + token`` keys' counts."""
        model, size = cls(), vocab.size
        model.vocab, model.order, model.context_window = vocab, order, order - 1
        model.smoothing = float(smoothing)
        model._levels = levels
        rows = keys // size
        offsets = np.searchsorted(rows, np.arange(n_contexts + 1))
        # Differences of running sums give a row with no successors a total of 0.
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        # Rank order within each row: the keys ascend by token, and lexsort is stable.
        ranked = np.lexsort((-counts, rows))
        model._offsets = memoryview(offsets)
        model._tokens = memoryview((keys - rows * size)[ranked])
        model._counts = memoryview(counts[ranked])
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
        offsets, tokens = np.asarray(self._offsets), np.asarray(self._tokens)
        ascending = np.lexsort((tokens, np.repeat(np.arange(len(self._totals)), np.diff(offsets))))
        tokens, counts = tokens[ascending].tolist(), np.asarray(self._counts)[ascending].tolist()
        offsets = offsets.tolist()
        return MappingProxyType({
            tuple(t - 1 for t in back if t): dict(zip(tokens[start:stop], counts[start:stop]))
            for back, start, stop in zip(backs, offsets, offsets[1:])
        })

    def _batch_dists(self, windows: np.ndarray) -> RowBatch:
        """``next_token_dists``: one level walk that gives each window its id (the -1 that pads
        a short window has the ``back`` 0), then one row per distinct id, ascending, each
        context's row its id's. An unseen context's id is -1, and so is every window's in a
        model of no contexts, which walks no level. A context with no mass (possible only at
        smoothing 0) is served as unseen: the uniform row then."""
        size, smoothing = self.vocab.size, self.smoothing
        totals = np.asarray(self._totals)
        backs = windows[:, ::-1] + 1
        ids = np.full(len(windows), 0 if totals.size else -1)
        for k, codes in enumerate(self._levels if totals.size else ()):
            codes = np.asarray(codes)
            want = ids * (size + 1) + backs[:, k]
            found = np.minimum(np.searchsorted(codes, want), codes.size - 1)
            # An unseen parent (-1) makes a negative code, which never matches.
            ids = np.where(codes[found] == want, found, -1)
        if not smoothing and totals.size:
            ids[totals[ids] == 0] = -1
        distinct = _sorted_distinct(ids)
        seen = distinct[distinct >= 0]
        unseen = distinct.size - seen.size  # 1 when row 0 is the unseen row, else 0
        denoms = totals[seen] + smoothing * size
        at, lengths = _gather(np.asarray(self._offsets), seen)
        probs = (smoothing + np.asarray(self._counts)[at]) / np.repeat(denoms, lengths)
        floor = smoothing / (smoothing * size) if smoothing else 1.0 / size
        return RowBatch._ranked(size, np.concatenate(([0] * (1 + unseen), np.cumsum(lengths))),
                                np.asarray(self._tokens)[at], probs,
                                np.concatenate(([floor] * unseen, smoothing / denoms)),
                                np.searchsorted(distinct, ids))


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


def _distinct(codes: np.ndarray, space: int, dense: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for int64 codes in [0, space), by a presence
    mask when ``dense`` (a batch's rows, each one read) or the space is small next to the codes."""
    if not dense and space > _DENSE_SPACE_PER_CODE * codes.size:
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


def _flat_documents(documents: Sequence[TokenSeq]) -> tuple[np.ndarray, np.ndarray]:
    """``documents`` end to end in one int64 array, and their CSR offsets; InputError unless each
    is a sequence of integer tokens (``_int_key``, the rule ``windows`` applies to a context)."""
    try:
        offsets = np.cumsum([0, *map(len, documents)], dtype=np.int64)
    except TypeError:
        raise InputError("a document is not a sequence of tokens") from None
    tokens = itertools.chain.from_iterable(documents)
    # The sum is a plain int only when every token is an int or a bool;
    # numpy ints that overflow it are checked token by token too.
    with np.errstate(over="ignore"):
        try:
            plain = type(sum(map(sum, documents))) is int
        except TypeError:
            plain = False
    if not plain:
        tokens = _int_key(tuple(tokens), "a document")
    try:
        return np.fromiter(tokens, dtype=np.int64, count=int(offsets[-1])), offsets
    except OverflowError:  # a token past int64 is outside the vocabulary too
        raise InputError(_OUTSIDE_VOCABULARY) from None


_OUTSIDE_VOCABULARY = "document contains a token outside the model vocabulary"


def _check_token_ids(tokens: np.ndarray, size: int) -> None:
    """InputError unless every entry of the integer array ``tokens`` is in [0, size)."""
    if tokens.size and (tokens.min() < 0 or tokens.max() >= size):
        raise InputError(_OUTSIDE_VOCABULARY)


def _int_key(key: tuple, owner: str | None = None) -> tuple[int, ...]:
    """``key`` as plain ints; InputError, naming ``owner`` (the context ``key`` when None),
    unless each of its tokens is an integer: equal to its ``int``."""
    try:
        plain = tuple(map(int, key))
    except (TypeError, ValueError, OverflowError):
        plain = None
    if plain != key:
        raise InputError(f"{owner or f'context {key!r}'} holds a token that is not an integer")
    return plain
