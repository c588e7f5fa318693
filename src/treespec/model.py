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
    """Shannon entropy -sum(p ln p) in nats of a dense vector, with 0 ln 0 taken as 0;
    InputError unless ``dist`` is ``_probabilities``."""
    arr = _probabilities(dist, "a distribution")
    return float(-_p_ln_p(arr[arr > 0.0]).sum()) + 0.0


class RowBatch:
    """Next-token distributions over ``size`` tokens, held as the tokens that stand out.

    Row r lists ``tokens[offsets[r]:offsets[r + 1]]`` and their ``probs`` in
    rank order (descending probability, then ascending token); every other
    token has the probability ``floors[r]``, and context i has row
    ``index[i]``. ``top`` equals a stable descending sort of the dense
    vectors (``dense``), ``prob`` their indexing and ``entropies`` their
    ``entropy_nats``, bit for bit, each over all the rows at once.

    The constructor checks and ranks each row itself; with no ``index``, context i
    is row i. ``_ranked`` takes checked rows in rank order and sorts nothing. A
    dense vector is a row that lists every token over a floor of 0.
    """

    __slots__ = ("size", "offsets", "tokens", "probs", "floors", "index")

    def __init__(self, size: int, offsets: Sequence[int], tokens: Sequence[int],
                 probs: Sequence[float], floors: Sequence[float],
                 index: Sequence[int] | None = None) -> None:
        tokens = _ids(tokens, "row tokens", size)
        offsets = _offsets(offsets, "row offsets", tokens.size)
        rows = offsets.size - 1
        index = np.arange(rows) if index is None else _ids(index, "the index", rows)
        floors, probs = _probabilities(floors, "row floors"), _probabilities(probs, "row probs")
        if probs.shape != tokens.shape or floors.shape != (rows,):
            raise InputError(f"a batch of {rows} rows needs {rows} floors and {tokens.size} probs")
        owner = np.repeat(np.arange(rows), np.diff(offsets))
        if _sorted_distinct(owner * size + tokens).size < tokens.size:
            raise InputError("a row lists a token twice")
        order = np.lexsort((tokens, -probs, owner))
        self._ranked(size, offsets, tokens[order], probs[order], floors, index, self)

    @classmethod
    def _ranked(cls, size: int, offsets: np.ndarray, tokens: np.ndarray, probs: np.ndarray,
                floors: np.ndarray, index: np.ndarray, batch: RowBatch | None = None) -> RowBatch:
        """``batch`` (a new one when None) holding checked rows given in rank order, unsorted."""
        batch = cls.__new__(cls) if batch is None else batch
        batch.size, batch.offsets, batch.tokens, batch.probs = size, offsets, tokens, probs
        batch.floors, batch.index = floors, index
        return batch

    def dense(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The dense vectors of ``rows``, each context's row when None, as a (rows x size) array."""
        rows = self.index if rows is None else rows
        at, lengths = _gather(self.offsets, rows)
        vectors = np.repeat(self.floors[rows, None], self.size, axis=1)
        vectors[np.repeat(np.arange(rows.size), lengths), self.tokens[at]] = self.probs[at]
        return vectors

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The k most probable tokens of each row, ties by ascending token, each row ranked
        once: a copy of ``index`` (each context's row), and the (rows x k) tokens and
        probabilities; InputError unless k is an integer (``_check_ints``) in [1, ``size``].

        A row's first k entries lead it. The tokens it does not list all sit at
        the floor and tie by index, so only a row with fewer than k entries
        above its floor merges in its k lowest-index unlisted tokens.
        """
        _check_ints(1, self.size + 1, k=k)
        starts, ranks, rows = self.offsets[:-1], np.arange(k), self.floors.size
        listed = ranks < (lengths := np.diff(self.offsets))[:, None]
        tokens, probs = np.zeros((rows, k), dtype=np.int64), np.zeros((rows, k))
        at = (starts[:, None] + ranks)[listed]
        tokens[listed], probs[listed] = self.tokens[at], self.probs[at]
        short = (lengths < self.size) & ~(listed[:, -1] & (probs[:, -1] > self.floors))
        for i in np.flatnonzero(short).tolist():
            taken = set(self.tokens[starts[i]:starts[i] + lengths[i]].tolist())
            extra = itertools.islice((t for t in range(self.size) if t not in taken), k)
            floor = float(self.floors[i])
            ranked = sorted([*zip(tokens[i].tolist(), probs[i].tolist())][:lengths[i]]
                            + [(t, floor) for t in extra], key=lambda item: (-item[1], item[0]))
            tokens[i], probs[i] = zip(*ranked[:k])
        return self.index.copy(), tokens, probs

    def prob(self, contexts: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """The probability of each ``tokens[i]`` at context ``contexts[i]``, as float64: its row's
        entry, found by one search over every row's (row, token) keys, or else its floor;
        InputError unless ``contexts`` and ``tokens`` are equally long ``_ids`` of contexts and tokens."""
        rows, n_rows = self.index[_ids(contexts, "contexts", self.index.size)], self.floors.size
        tokens = _ids(tokens, "scored tokens", self.size)
        if tokens.size != rows.size:
            raise InputError(f"contexts and scored tokens differ in length: {rows.size} and {tokens.size}")
        keys = np.repeat(np.arange(n_rows), np.diff(self.offsets)) * self.size + self.tokens
        order = np.argsort(keys)
        # A last key past every wanted one, so that each search lands on a key.
        keys = np.append(keys[order], n_rows * self.size)
        want = rows * self.size + tokens
        found = np.searchsorted(keys, want)
        return np.where(keys[found] == want, np.append(self.probs[order], 0.0)[found],
                        self.floors[rows])

    def entropies(self) -> np.ndarray:
        """Each context's ``entropy_nats``, as float64; each row is summed once."""
        return _entropies(self)[self.index]


def _entropies(batch: RowBatch) -> np.ndarray:
    """The entropy of each row of ``batch``, in row order: ``entropy_nats`` of its dense
    vector, bit for bit, with no row written out |V| wide (``_row_terms``, ``_row_sums``)."""
    floored = batch.floors > 0.0
    floor_terms = _p_ln_p(np.where(floored, batch.floors, 1.0))  # a zero floor's is never read
    return -_row_sums(floor_terms, *_row_terms(batch, floored)) + 0.0


def _row_terms(batch: RowBatch, floored: np.ndarray) -> tuple[np.ndarray, ...]:
    """How many terms ``entropy_nats`` adds for each row of ``batch``, and the row, place
    and probability of each listed positive entry.

    ``entropy_nats`` adds a row's positive terms p ln p in token order: all
    |V| tokens but the listed zeros under a positive (``floored``) floor,
    only the positive listed entries under a zero floor. A listed positive
    entry takes its place among them; every other place holds the floor's term.
    """
    size, rows, places, probs = batch.size, batch.floors.size, batch.tokens, batch.probs
    owner = np.repeat(np.arange(rows), np.diff(batch.offsets))
    positive = probs > 0.0
    lengths = np.where(floored, size - np.bincount(owner[~positive], minlength=rows),
                       np.bincount(owner[positive], minlength=rows))
    if positive.all() and floored.all():
        return lengths, owner, places, probs
    # In token order, each row's entries keep the row's offsets.
    order = np.argsort(owner * size + places)

    def before(marked: np.ndarray) -> np.ndarray:
        """How many ``marked`` entries of each entry's row list a lower token."""
        running = np.concatenate(([0], np.cumsum(marked[order])))
        counts = np.empty(order.size, dtype=np.int64)
        counts[order] = running[:-1] - running[batch.offsets[:-1]][owner]
        return counts

    places = np.where(floored[owner], places - before(~positive), before(positive & ~floored[owner]))
    return lengths, owner[positive], places[positive], probs[positive]


def _p_ln_p(values: np.ndarray) -> np.ndarray:
    """Each p ln p of ``values``: the terms of ``entropy_nats`` and of ``_entropies``."""
    return values * np.log(values)


# numpy adds a contiguous float64 array pairwise (Higham, "The accuracy of
# floating point summation", 1993): a run of more than _LEAF terms splits at
# half its length, rounded down to a multiple of _LANES, and a shorter run is a
# leaf, which numpy adds its own way. Leaves are written out _MIN_BLOCK to
# _MAX_BLOCK at a time, at most 1/_BLOCK_SHARE of a batch's dense terms.
_LEAF, _LANES = 128, 8
_MIN_BLOCK, _MAX_BLOCK, _BLOCK_SHARE = 64, 512, 192


def _pairwise(n: int, start: int, leaf):
    """``leaf(start, length)`` of each leaf of numpy's pairwise sum of the n terms from
    ``start``, in order, added as numpy adds the leaves' sums."""
    if n <= _LEAF:
        return leaf(start, n)
    half = n // 2 - n // 2 % _LANES
    return _pairwise(half, start, leaf) + _pairwise(n - half, start + half, leaf)


def _row_sums(floor_terms: np.ndarray, lengths: np.ndarray, rows: np.ndarray, places: np.ndarray,
              probs: np.ndarray) -> np.ndarray:
    """numpy's sum of each row i of ``lengths[i]`` terms: ``floor_terms[i]`` but at each
    ``places[j]`` of row ``rows[j]``, which holds the term of ``probs[j]``.

    That is its leaves' own sums (``_pairwise``), added in the split's order,
    all rows of one length at once. Only the leaves that hold a listed term
    are written out (``_leaf_sums``); one that holds none repeats its row's floor
    term, so it is summed once per leaf length and distinct floor term (by bit
    pattern) among the rows of its length.
    """
    width, row_sums = floor_terms.size, np.empty(floor_terms.size)
    block = min(max(int(lengths.sum()) // (_BLOCK_SHARE * _LEAF), _MIN_BLOCK), _MAX_BLOCK)
    # Leaf l of all the row lengths' terms laid end to end begins at term begins[l].
    ns = _sorted_distinct(lengths)
    shifts = np.cumsum(np.concatenate(([0], ns)))
    layouts = (_pairwise(n, shift, lambda start, length: [(start, length)])
               for n, shift in zip(ns.tolist(), shifts.tolist()))
    begins, leaf_lengths = np.array([*itertools.chain(*layouts)], dtype=np.int64).reshape(-1, 2).T
    # The rows renumbered by length: the rows of length ns[k] are groups[k]...groups[k + 1] - 1.
    by_length = np.argsort(lengths, kind="stable")
    groups = np.append(np.searchsorted(lengths[by_length], ns), width)
    at = shifts[np.searchsorted(ns, lengths[rows])] + places
    leaf = np.searchsorted(begins, at, side="right") - 1  # past an empty leaf that begins there
    at -= begins[leaf]
    keys = (leaf_lengths[leaf] * begins.size + leaf) * width + np.argsort(by_length)[rows]
    del leaf
    order = np.argsort(keys)
    keys = keys[order]  # each one in turn, so that few are alive at once
    at = at[order]
    terms = _p_ln_p(probs[order])
    del order
    # The written leaves, each (leaf, row) that holds a listed term, by leaf length, leaf and row.
    new = np.diff(keys, prepend=-1) != 0
    written = keys[new]
    sums = _leaf_sums(written // (begins.size * width), floor_terms[by_length[written % width]], block,
                      np.cumsum(new) - 1, at, terms)
    bounds = ((leaf_lengths * begins.size + np.arange(begins.size)) * width)[:, None] + [0, width]
    # ``_pairwise`` visits each length's leaves in order, so the lengths' folds take them in turn.
    leaves, written = iter(np.searchsorted(written, bounds).tolist()), written % width
    for k, n in enumerate(ns.tolist()):
        group = by_length[groups[k]:groups[k + 1]]
        (floors, floor_of), repeated = np.unique(floor_terms[group].view(np.int64), return_inverse=True), {}

        def leaf_sums(start: int, length: int) -> np.ndarray:
            if length not in repeated:
                repeated[length] = _leaf_sums(np.full(floors.size, length), floors.view(np.float64), block)
            values = repeated[length][floor_of]
            lo, hi = next(leaves)
            values[written[lo:hi] - groups[k]] = sums[lo:hi]
            return values

        row_sums[group] = _pairwise(n, 0, leaf_sums)
    return row_sums


def _leaf_sums(lengths: np.ndarray, fills: np.ndarray, block: int, *listed: np.ndarray) -> np.ndarray:
    """numpy's sum of each leaf i of ``lengths[i]`` terms: ``fills[i]``, but ``terms[j]`` at place
    ``places[j]`` of leaf ``leaves[j]`` (ascending) for ``listed`` = (leaves, places, terms). Each
    length's leaves, adjacent, are written out and reduced in blocks of at most ``block`` rows."""
    leaves, places, terms = listed or np.zeros((3, 0), dtype=np.int64)
    runs = [*np.flatnonzero(np.diff(lengths, prepend=-1)).tolist(), lengths.size]
    cuts = [*itertools.chain(*map(range, runs, runs[1:], itertools.repeat(block))), lengths.size]
    bounds = np.searchsorted(leaves, cuts).tolist()
    sums, buffer = np.empty(fills.size), np.empty(min(block, fills.size) * lengths.max(initial=0))
    for first, last, lo, hi in zip(cuts, cuts[1:], bounds, bounds[1:]):
        part = buffer[:(last - first) * lengths[first]].reshape(last - first, lengths[first])
        part[:] = fills[first:last, None]
        part[leaves[lo:hi] - first, places[lo:hi]] = terms[lo:hi]
        sums[first:last] = np.add.reduce(part, axis=1)
    return sums


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
        token of every whole context is an integer (``_is_int``; the message names
        the first context that holds one that is not) and ``_ids`` of the
        vocabulary; or an array of rows in this form, InputError unless 2-D
        ``_ids`` in [-1, |V|) with -1 only as a leading run in its row. A
        narrower array is padded on the left with -1, a wider one cut.
        """
        span = self.context_window
        if isinstance(contexts, np.ndarray):
            contexts = _ids(contexts, "a window array", self.vocab.size, low=-1, ndim=2)
            pad = contexts < 0
            if (pad[:, 1:] & ~pad[:, :-1]).any():
                raise InputError("a window array holds -1 after a token")
            cut = contexts[:, max(0, contexts.shape[1] - span):]
            return np.pad(cut, ((0, 0), (span - cut.shape[1], 0)), constant_values=-1)
        contexts = [tuple(context) for context in contexts]
        if set(map(type, itertools.chain.from_iterable(contexts))) - {int}:
            for context in contexts:
                if not all(map(_is_int, context)):
                    raise InputError(f"context {context!r} holds a token that is not an integer")
            contexts = [tuple(map(int, context)) for context in contexts]
        _ids(np.array([*itertools.chain.from_iterable(contexts)]), "context tokens", self.vocab.size)
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
        at this one order (an integer >= 1), on the documents flattened by ``_flat_documents``."""
        _check_ints(1, order=order)
        return cls._fit_orders(vocab, *_flat_documents(documents), (order,), smoothing)[0]

    @classmethod
    def _fit_orders(cls, vocab: Vocabulary, tokens: np.ndarray, offsets: np.ndarray,
                    orders: Sequence[int], smoothing: float) -> list["NGramModel"]:
        """``fit`` at each of the ascending ``orders``, from one ranking of the levels.

        Document i is ``tokens[offsets[i]:offsets[i + 1]]``; the tokens are
        ``_ids`` of the vocabulary. Each level's context ids are ranked over all
        positions at once up to the highest order (``_ranked_levels``). After
        level k - 1 the order-k model counts its (context, token) pairs in one
        pass (``_count``) and keeps ``_levels[:k - 1]``, the very level objects
        every higher order holds.
        """
        smoothing, size = _check_smoothing(smoothing), vocab.size
        tokens = _ids(tokens, "document tokens", size)
        since_start = np.arange(tokens.size) - np.repeat(offsets[:-1], np.diff(offsets))
        # Made one level at a time, so only one column is alive at once.
        columns = (np.where(since_start < k, 0, np.roll(tokens, k) + 1) for k in range(1, orders[-1]))
        return [cls._packed(vocab, order, smoothing, levels,
                            *_count(ids * size + tokens, n_contexts * size), n_contexts)
                for order, (levels, ids, n_contexts)
                in enumerate(_ranked_levels(columns, tokens.size, size + 1), 1) if order in orders]

    @classmethod
    def _packed(cls, vocab: Vocabulary, order: int, smoothing: float, levels: list[np.ndarray],
                keys: np.ndarray, counts: np.ndarray, n_contexts: int) -> "NGramModel":
        """The model of ``levels`` and ascending ``context id * |V| + token`` keys' counts."""
        model, size = cls(), vocab.size
        model.vocab, model.order, model.context_window = vocab, order, order - 1
        model.smoothing = smoothing
        model._levels = levels
        rows = keys // size
        offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_contexts))))
        # Differences of running sums give a row with no successors a total of 0.
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        # Rank order within each row: the keys ascend by token, and lexsort is stable.
        ranked = np.lexsort((-counts, rows))
        model._offsets = offsets
        model._tokens = (keys - rows * size)[ranked]
        model._counts = counts[ranked]
        model._totals = cumulative[offsets[1:]] - cumulative[offsets[:-1]]
        return model

    @functools.cached_property
    def counts(self) -> Mapping[tuple[int, ...], dict[int, int]]:
        """Read-only view, context tuple -> {token: count}, decoded on first use.

        Scoring never builds it. Each row lists its tokens in ascending order.
        """
        node = np.arange(len(self._totals))
        columns = []
        for codes in reversed(self._levels):
            node, back = np.divmod(codes[node], self.vocab.size + 1)
            columns.append(back)
        backs = np.stack(columns, axis=1).tolist() if columns else [[]] * len(self._totals)
        rows = np.repeat(np.arange(len(self._totals)), np.diff(self._offsets))
        ascending = np.lexsort((self._tokens, rows))
        tokens, counts = self._tokens[ascending].tolist(), self._counts[ascending].tolist()
        offsets = self._offsets.tolist()
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
        size, smoothing, totals = self.vocab.size, self.smoothing, self._totals
        backs = windows[:, ::-1] + 1
        ids = np.full(len(windows), 0 if totals.size else -1)
        for k, codes in enumerate(self._levels if totals.size else ()):
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
        at, lengths = _gather(self._offsets, seen)
        probs = (smoothing + self._counts[at]) / np.repeat(denoms, lengths)
        floor = smoothing / (smoothing * size) if smoothing else 1.0 / size
        return RowBatch._ranked(size, np.concatenate(([0] * (1 + unseen), np.cumsum(lengths))),
                                self._tokens[at], probs,
                                np.concatenate(([floor] * unseen, smoothing / denoms)),
                                np.searchsorted(distinct, ids))


# Up to this many codes' worth of code space, a presence mask or a bincount
# over the whole space ranks or counts codes faster than np.unique's sort;
# beyond it, allocating and scanning the space costs more than the sort.
_DENSE_SPACE_PER_CODE = 2


def _ranked_levels(columns: Iterable[np.ndarray], n: int,
                   radix: int) -> Iterator[tuple[list[np.ndarray], np.ndarray, int]]:
    """Yield (the levels so far, the ``n`` rows' ids, the number of contexts) at level 0, where
    every row is the one context () (none when n is 0), then after ranking each ``back`` column.
    """
    ids = np.zeros(n, dtype=np.int64)
    levels: list[np.ndarray] = []
    yield levels, ids, min(n, 1)
    for back in columns:
        codes, ids = _distinct(ids * radix + back, (len(levels[-1]) if levels else 1) * radix)
        levels = [*levels, codes]  # a new list: the yielded ones stay as they are
        yield levels, ids, codes.size


def _distinct(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for int64 codes in [0, space), by a presence
    mask when the space is small next to the codes."""
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


def _flat_documents(documents: Sequence[TokenSeq]) -> tuple[np.ndarray, np.ndarray]:
    """``documents`` end to end in one array for ``_ids``, and their int64 CSR offsets; InputError
    unless each is a sequence of integer tokens (``_is_int``, the rule ``windows`` applies)."""
    try:
        offsets = np.cumsum([0, *map(len, documents)], dtype=np.int64)
    except TypeError:
        raise InputError("a document is not a sequence of tokens") from None
    tokens = tuple(itertools.chain.from_iterable(documents))
    if not all(map(_is_int, tokens)):
        raise InputError("a document holds a token that is not an integer")
    # A token past int64 makes an object or a uint64 array, which ``_ids`` rejects.
    return np.array([*map(int, tokens)]), offsets


def _ids(values: object, name: str, high: int | np.ndarray, low: int = 0, ndim: int = 1) -> np.ndarray:
    """``values`` as an int64 array, nothing truncated; InputError naming ``name`` unless it is ``ndim``-D
    and, if not empty, integers each in [``low``, ``high``), ``high`` an int or a same-shape array."""
    try:
        ids = np.asarray(values)  # a ragged nesting raises ValueError
        if ids.ndim != ndim or np.shape(high) not in ((), ids.shape) or ids.size and (
                ids.dtype.kind not in "iu" or ids.min() < low or (ids >= high).any()):
            raise ValueError
    except ValueError:
        bound = high if np.ndim(high) == 0 else "its own bound"
        raise InputError(f"{name} must be {ndim}-D of integers in [{low}, {bound})") from None
    return ids.astype(np.int64, copy=False)


def _probabilities(values: object, name: str) -> np.ndarray:
    """``values`` as a float64 array; InputError naming ``name`` unless it is 1-D and each
    value is a probability in [0, 1] (so neither NaN nor infinite)."""
    try:
        probs = np.asarray(values, dtype=np.float64)  # a ragged nesting or a string raises ValueError
    except (TypeError, ValueError):
        probs = None
    if probs is None or probs.ndim != 1:
        raise InputError(f"{name} must be 1-D of probabilities in [0, 1]")
    outside = ~((probs >= 0.0) & (probs <= 1.0))
    if outside.any():
        raise InputError(f"{name} must be probabilities in [0, 1], got {float(probs[outside][0])!r}")
    return probs


def _offsets(values: object, name: str, total: int) -> np.ndarray:
    """``values`` as int64 CSR offsets: ``_ids`` that rise from 0 to ``total``, InputError else."""
    offsets = _ids(values, name, total + 1)
    if not offsets.size or offsets[0] or offsets[-1] != total or (np.diff(offsets) < 0).any():
        raise InputError(f"{name} must rise from 0 to {total}")
    return offsets


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ints(low: int, high: int | None = None, /, **values: object) -> None:
    """The scalar ``_ids``: InputError naming the first of ``values`` that is no integer
    (``_is_int``) or lies outside [``low``, ``high``), ``high`` None for no ceiling."""
    for name, value in values.items():
        if not _is_int(value) or not low <= value < (math.inf if high is None else high):
            bound = f">= {low}" if high is None else f"in [{low}, {high})"
            raise InputError(f"{name} must be an integer {bound}, got {value!r}")


def _check_smoothing(value: object) -> float:
    """``value`` as a float; InputError unless it is a finite int or float >= 0 (a bool is not)."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (number and 0 <= value < math.inf):
        raise InputError(f"smoothing must be finite and >= 0, got {value!r}")
    return float(value)
