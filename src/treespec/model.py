"""Language-model interface and deterministic n-gram reference models.

Everything here is desk-scale and exactly reproducible: models are plain
count tables, distributions are numpy vectors over a fixed vocabulary (an
n-gram model's are ``SparseRow`` values with the same numbers), and all
tie-breaking is by ascending token index.
"""

from __future__ import annotations

import abc
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

MODEL_FORMAT = "treespec-ngram"
MODEL_FORMAT_VERSION = 1

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

    def token_of(self, index: int) -> str:
        if not 0 <= index < len(self.tokens):
            raise InputError(f"token index {index} out of range")
        return self.tokens[index]


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
    makes them.
    """

    __slots__ = ("size", "row", "smoothing", "denom", "floor", "key", "entropies")

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
        k lowest-index ones are the only ones that can make the top k.
        """
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

    ``counts`` maps a context tuple (the last ``order - 1`` tokens; shorter
    tuples occur near document starts) to per-token successor counts. The
    conditional is (count + smoothing) / (total + smoothing * |V|), so any
    positive smoothing guarantees full support on unseen contexts. A context
    with zero total mass (possible only at smoothing 0) falls back to uniform
    so the output is always a valid distribution.

    Distributions are ``SparseRow`` values over the context's count row; the
    entropy of each count row is computed once and cached on the model, so
    the cache holds at most ``len(counts) + 1`` entries (the extra one for
    contexts unseen in training).
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        counts: Mapping[tuple[int, ...], Mapping[int, int]],
        smoothing: float,
    ) -> None:
        if order < 1:
            raise InputError("order must be >= 1")
        if not 0 <= smoothing < math.inf:
            raise InputError(f"smoothing must be finite and >= 0, got {smoothing!r}")
        self.vocab = vocab
        self.order = order
        self.context_window = order - 1
        self.smoothing = float(smoothing)
        self.counts: dict[tuple[int, ...], dict[int, int]] = {
            tuple(ctx): dict(row) for ctx, row in counts.items()
        }
        self._totals = {ctx: sum(row.values()) for ctx, row in self.counts.items()}
        self._entropies: dict[tuple[int, ...] | None, float] = {}

    @classmethod
    def fit(
        cls,
        vocab: Vocabulary,
        documents: Sequence[TokenSeq],
        order: int,
        smoothing: float,
    ) -> "NGramModel":
        """Count successor statistics over ``documents`` (index sequences).

        Each document's n-grams are counted on their own and then merged, so
        peak memory grows with the distinct n-grams of one document, not of
        the corpus. Rows and their entries keep first-occurrence order.
        """
        if order < 1:
            raise InputError("order must be >= 1")
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        span = order - 1
        for doc in documents:
            doc = list(doc)
            # The first `span` tokens follow a context shorter than span.
            grams = Counter(tuple(doc[: i + 1]) for i in range(min(span, len(doc))))
            grams.update(zip(*(doc[k:] for k in range(order))))
            for gram, count in grams.items():
                row = counts.setdefault(gram[:-1], {})
                row[gram[-1]] = row.get(gram[-1], 0) + count
        return cls(vocab, order, counts, smoothing)

    def _context_key(self, context: TokenSeq) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        return tuple(map(int, context[-(self.order - 1):]))

    def next_token_dist(self, context: TokenSeq) -> SparseRow:
        self.check_context(context)
        key = self._context_key(context)
        row = self.counts.get(key)
        if row is None:
            # Unseen contexts share one row; () is the real document-start row.
            key, row, total = None, {}, 0
        else:
            total = self._totals[key]
        size = self.vocab.size
        denom = total + self.smoothing * size
        return SparseRow(size, row, self.smoothing, denom, key, self._entropies)


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


def save_model(model: NGramModel, path: str | Path) -> None:
    """Write an NGramModel to a versioned JSON file (see ``load_model``)."""
    entries = [
        [list(ctx), {str(tok): c for tok, c in sorted(row.items())}]
        for ctx, row in sorted(model.counts.items())
    ]
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "order": model.order,
        "smoothing": model.smoothing,
        "vocab": list(model.vocab.tokens),
        "counts": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> NGramModel:
    """Read a model produced by ``save_model``; rejects unknown formats."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != MODEL_FORMAT or payload.get("version") != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model file format in {path}")
    counts = {
        tuple(ctx): {int(tok): int(c) for tok, c in row.items()}
        for ctx, row in payload["counts"]
    }
    return NGramModel(
        Vocabulary(tuple(payload["vocab"])),
        int(payload["order"]),
        counts,
        float(payload["smoothing"]),
    )
