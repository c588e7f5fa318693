"""Per-domain corpora: loading, tokenization, prompt sampling, model training.

A corpus is a set of documents encoded into a closed vocabulary (index 0 is
the reserved unknown token), held end to end in one array of token ids.
Bundled synthetic generators produce four stylistically distinct domains
(chat, code, math, reasoning) so the whole pipeline can run and be tested
without any external data. Synthetic documents are streams of short episodes,
each terminated by an explicit end-of-sequence token, which gives the trained
models a learnable stopping pattern. Their draws follow ``random``'s own rules
on the 32-bit words of one seeded ``random.Random``, taken in bulk through
numpy's MT19937, so the documents equal what ``randint``, ``choice``,
``sample`` and ``random`` would give from that generator; the tests hold them
to an oracle written with those methods.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .model import NGramModel, Vocabulary, _check_ints, _ids, _offsets

UNK_TOKEN = "<unk>"
END_TOKEN = "<end>"
SYNTHETIC_DOMAINS = ("chat", "code", "math", "reasoning")
SYNTHETIC_DOCS = 160  # documents per synthetic domain in the reference run


def build_vocabulary(domain: str, token_docs: Iterable[Sequence[str]]) -> Vocabulary:
    """Unknown token at index 0, then all observed tokens in sorted order.

    A domain with no tokens, or none but the unknown token, is rejected by name.
    """
    seen = set(itertools.chain.from_iterable(token_docs))
    if not seen:
        raise InputError(f"domain {domain!r} has no tokens: every document is empty")
    seen.discard(UNK_TOKEN)
    if not seen:
        raise InputError(f"domain {domain!r} has no tokens besides {UNK_TOKEN}")
    return Vocabulary((UNK_TOKEN, *sorted(seen)))


@dataclass(eq=False)
class DomainCorpus:
    """One domain's documents over one vocabulary, end to end in one int64 ``tokens`` array:
    document i is ``tokens[offsets[i]:offsets[i + 1]]``. InputError unless ``tokens`` are
    ``_ids`` of the vocabulary and ``offsets`` are ``_offsets`` to ``tokens.size``."""

    domain: str
    tokens: np.ndarray
    offsets: np.ndarray
    vocabulary: Vocabulary

    def __post_init__(self) -> None:
        self.tokens = _ids(self.tokens, f"domain {self.domain!r}: tokens", self.vocabulary.size)
        self.offsets = _offsets(self.offsets, f"domain {self.domain!r}: offsets", self.tokens.size)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DomainCorpus) and self.domain == other.domain
                and self.vocabulary == other.vocabulary
                and np.array_equal(self.tokens, other.tokens)
                and np.array_equal(self.offsets, other.offsets))

    @classmethod
    def from_tokens(cls, domain: str, token_docs: Iterable[Sequence[str]]) -> "DomainCorpus":
        """Encode token lists over the vocabulary they span; empty documents are dropped. One
        pass in C numbers the tokens by first appearance; one gather in place renumbers them."""
        token_docs = [doc for doc in token_docs if doc]
        offsets = np.cumsum([0, *map(len, token_docs)], dtype=np.int64)
        first = defaultdict(itertools.count().__next__)
        tokens = np.fromiter(map(first.__getitem__, itertools.chain.from_iterable(token_docs)),
                             dtype=np.int64, count=int(offsets[-1]))
        vocab = build_vocabulary(domain, [first.keys()])
        # Every id is below len(first): "clip" clips none, and unlike "raise" it copies nothing.
        np.take(np.array([*map(vocab.index_of, first)]), tokens, out=tokens, mode="clip")
        return cls(domain, tokens, offsets, vocab)

    @classmethod
    def from_texts(cls, domain: str, texts: Iterable[str]) -> "DomainCorpus":
        """Split texts on whitespace and encode them with ``from_tokens``."""
        return cls.from_tokens(domain, [t.split() for t in texts])


def sample_prompts(
    corpus: DomainCorpus, n: int, seed: int, max_len: int = 512
) -> list[tuple[int, ...]]:
    """Draw n prompts from the corpus documents, truncated to max_len tokens.

    Sampling uses numpy's default_rng(seed).choice over document indices,
    without replacement whenever the corpus has at least n documents.
    Truncation keeps the leading tokens.
    """
    offsets = corpus.offsets.tolist()
    if len(offsets) < 2:
        raise InputError(f"domain {corpus.domain!r} has no documents")
    _check_ints(1, n=n, max_len=max_len)
    _check_ints(0, seed=seed)
    rng = np.random.default_rng(seed)
    try:
        chosen = rng.choice(len(offsets) - 1, size=n, replace=len(offsets) <= n)
    except (ValueError, OverflowError, MemoryError) as exc:  # n too large for one array
        raise InputError(f"cannot draw {n} prompts from domain {corpus.domain!r}: {exc}") from exc
    return [tuple(corpus.tokens[offsets[i]:min(offsets[i] + max_len, offsets[i + 1])].tolist())
            for i in chosen.tolist()]


def train_models(
    corpus: DomainCorpus, draft_order: int, target_order: int, smoothing: float
) -> tuple[NGramModel, NGramModel]:
    """Fit the (draft, target) pair on one corpus; both share its vocabulary.

    The orders are integers, 1 <= draft_order < target_order. The corpus arrays'
    context levels are ranked once (``NGramModel._fit_orders``): the draft is
    counted from the target's lower levels and holds the same level objects.
    """
    _check_ints(1, draft_order=draft_order)
    _check_ints(draft_order + 1, target_order=target_order)
    return tuple(NGramModel._fit_orders(corpus.vocabulary, corpus.tokens, corpus.offsets,
                                        (draft_order, target_order), smoothing))


def load_domain_dir(path: str | Path) -> DomainCorpus:
    """Read one domain, named after its directory; each *.txt file in it is one document."""
    root = Path(path)
    files = sorted(root.glob("*.txt"))
    if not files:
        raise InputError(f"no *.txt documents under {root}")
    texts = []
    for f in files:
        try:
            texts.append(f.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise InputError(f"{f} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return DomainCorpus.from_texts(root.name, texts)


def load_corpora(root: str | Path) -> dict[str, DomainCorpus]:
    """Load every immediate subdirectory of ``root`` as one domain corpus."""
    base = Path(root)
    domains = sorted(p for p in base.iterdir() if p.is_dir())
    if not domains:
        raise InputError(f"no domain subdirectories under {base}")
    return {p.name: load_domain_dir(p) for p in domains}


# --- synthetic domains -----------------------------------------------------
#
# A synthetic document packs episodes until it reaches its target length, so
# default 512-token prompt truncation cuts mid-episode and generation continues
# naturally. Each episode ends in END_TOKEN, and the "." token appears only
# directly before it, giving n-gram models an unambiguous stopping cue.
#
# A domain's draws follow random's own rules on the 32-bit words of
# random.Random(f"{domain}-{seed}"), so the documents equal what randint,
# choice, sample and random give from that generator, draw for draw:
# randrange(n) (and so randint and choice) takes the first word, at or after
# the current one, whose top n.bit_length() bits are below n
# (Random._randbelow_with_getrandbits); random() is
# ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 from the next two words; and
# sample(seq, 2) draws below len(seq), then below len(seq) - 1 from the pool
# whose vacancy took its last item. The generator's state (getstate: 624 key
# words and a position) is loaded into numpy's MT19937, which gives the same
# words in bulk. Each draw is tabled at every word position, so the end of the
# episode that would start at any position is known at once; one walk from
# position 0 picks the episode starts and cuts the documents, and only the
# chosen episodes are written, as template ids remapped to the sorted
# vocabulary, with no token string per token.


class _Stream:
    """A generator's 32-bit words, each randrange draw tabled at every position.

    Positions run from 0 to ``size``, the number of words; ``size + 1`` stands for past the
    end, where a draw that runs out of words lands and stays."""

    def __init__(self, words: np.ndarray) -> None:
        self.size = words.size
        # Three zero words past the end: what a draw from past the end reads, and never uses.
        self.words = np.zeros(self.size + 3, np.uint32)
        self.words[:self.size] = words
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def below(self, n: int, at: np.ndarray) -> np.ndarray:
        """randrange(n) from each position in ``at``: the positions after it."""
        return self._table(n)[0].take(at)

    def value(self, n: int, after: np.ndarray) -> np.ndarray:
        """The values of the randrange(n) draws that end at positions ``after``."""
        return self._table(n)[1].take(after)

    def random(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """random() from each position in ``at``: (the values, the positions after)."""
        high, low = self.words.take(at) >> 5, self.words.take(at + 1) >> 6
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0), np.minimum(at + 2, self.size + 1)

    def _table(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """randrange(n)'s tables: for every position, the one after the first word at or after
        it whose top n.bit_length() bits are below n; and for every position q, word q - 1's
        top bits, in the smallest type that holds values below n (a rejected word's may wrap,
        but none is read)."""
        if n not in self._tables:
            past = self.size + 1
            top = self.words[:past + 1] >> (32 - n.bit_length())
            # np.where(top < n, p + 1, past) as past + (p + 1 - past) * (top < n), without a
            # branch per word.
            after = np.arange(1 - past, 2, dtype=np.int32)
            after *= top < n
            after += past
            after[self.size:] = past
            np.minimum.accumulate(after[::-1], out=after[::-1])
            values = np.zeros(past + 1, np.min_scalar_type(n - 1))
            values[1:] = top[:past]
            self._tables[n] = after, values
        return self._tables[n]


class _Episode(NamedTuple):
    """One synthetic domain's episode: the draws below each bound in ``head``, then those in
    ``body`` ``repeats`` times over, where ``repeats`` is randint over a range, once if
    random() < a float and else never, or None for no body. ``tokens`` writes the episodes
    that repeat the body equally often from their drawn values, as a list of items: a token
    text, a number array (each its own text) or a pair (texts, indices into them)."""

    head: tuple[int, ...]
    repeats: range | float | None
    body: tuple[int, ...]
    tokens: Callable[[list, list], list]
    words_per_token: float  # measured over seeds at the reference size

    @property
    def most_repeats(self) -> int:
        return self.repeats[-1] if isinstance(self.repeats, range) else int(self.repeats is not None)

    def lengths(self) -> np.ndarray:
        """The tokens in an episode that repeats the body r times, for each r: the length of
        what ``tokens`` writes for no episodes."""
        none = np.zeros(0, np.intp)
        return np.array([len(self.tokens([none] * len(self.head), [[none] * len(self.body)] * r))
                         for r in range(self.most_repeats + 1)], np.int32)


def _pool_swap(first: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """The index of sample(seq, 2)'s second item, where ``first`` was drawn below n and
    ``second`` below n - 1: the pool's vacancy at ``first`` took its last item."""
    return np.where(second == first, n - 1, second)


_CHAT_GREETINGS = ("hello", "hi", "hey", "greetings")
_CHAT_TOPICS = ("books", "chess", "cooking", "films", "gardens", "music", "travel", "weather")
_CHAT_MOODS = ("busy", "cheerful", "fine", "great")
_CHAT_OPINIONS = ("interesting", "popular", "relaxing", "tricky")


def _chat_tokens(head: list, body: list) -> list:
    greeting, mood = head
    ep = ["user", ":", (_CHAT_GREETINGS, greeting), "how", "are", "you", "today", "?"]
    ep += ["assistant", ":", "i", "am", (_CHAT_MOODS, mood), ",", "thank", "you", "for", "asking"]
    for topic, opinion in body:  # once if random() < 0.4
        topic = (_CHAT_TOPICS, topic)
        ep += ["user", ":", "tell", "me", "about", topic, "please", "?"]
        ep += ["assistant", ":", topic, "is", "quite", (_CHAT_OPINIONS, opinion), ",", "i", "enjoy", "it"]
    ep += ["user", ":", "thanks", "for", "the", "chat", "goodbye", ".", END_TOKEN]
    return ep


_CODE_NAMES = ("calc", "delta", "fold", "gain", "mix", "norm", "scale", "shift")
_CODE_ARGS = ("a", "b", "n", "x", "y")
_CODE_OPS = ("+", "-", "*")
# The text of every number an episode can hold; math's largest is (9 + 9) * 4**3.
_NUMBER_TEXT = tuple(map(str, range((9 + 9) * 4**3 + 1)))


def _code_tokens(head: list, body: list) -> list:
    name, arg, op, const = head
    name, arg = (_CODE_NAMES, name), (_CODE_ARGS, arg)
    ep = ["def", name, "(", arg, ")", ":", "return", arg, (_CODE_OPS, op), const + 1, "<nl>"]
    for (value,) in body:  # randint(2, 4) times
        ep += ["print", "(", name, "(", value + 1, ")", ")", "<nl>"]  # randint(1, 9)
    ep += ["#", "module", "done", ".", END_TOKEN]
    return ep


def _math_tokens(head: list, body: list) -> list:
    a, b = head[0] + 1, head[1] + 1  # randint(1, 9) twice
    total = a + b
    ep = ["solve", "the", "sum", a, "+", b, "=", total]
    for (c,) in body:  # randint(1, 3) times
        c = c + 2  # randint(2, 4)
        ep += [",", "then", total, "*", c, "=", total * c]
        total = total * c
    ep += [",", "the", "answer", "is", total, ".", END_TOKEN]
    return ep


_REASON_NAMES = ("alice", "ben", "carol", "dana")
_REASON_ITEMS = ("apples", "books", "coins", "pears")


def _reasoning_tokens(head: list, body: list) -> list:
    first, second, item, n, k = head
    who = (_REASON_NAMES, first)  # sample(_REASON_NAMES, 2)
    other = (_REASON_NAMES, _pool_swap(first, second, len(_REASON_NAMES)))
    item = (_REASON_ITEMS, item)
    n, k = n + 5, k + 1  # randint(5, 12), randint(1, 4)
    ep = ["if", who, "has", n, item, "and", "gives", k, "to", other, ","]
    ep += ["then", who, "keeps", n - k, item, ","]
    ep += ["so", "the", "answer", "is", n - k, ".", END_TOKEN]
    return ep


_EPISODES = {
    "chat": _Episode((len(_CHAT_GREETINGS), len(_CHAT_MOODS)), 0.4,
                     (len(_CHAT_TOPICS), len(_CHAT_OPINIONS)), _chat_tokens, 0.22),
    "code": _Episode((len(_CODE_NAMES), len(_CODE_ARGS), len(_CODE_OPS), 9), range(2, 5), (9,),
                     _code_tokens, 0.33),
    "math": _Episode((9, 9), range(1, 4), (3,), _math_tokens, 0.26),
    "reasoning": _Episode((len(_REASON_NAMES), len(_REASON_NAMES) - 1, len(_REASON_ITEMS), 8, 4),
                          None, (), _reasoning_tokens, 0.39),
}


def _draw(stream: _Stream, episode: _Episode, at: np.ndarray,
          values: bool = True) -> tuple[list, np.ndarray, list, np.ndarray]:
    """``episode`` drawn from each position in ``at``: (head values, repeat counts, body values
    per repeat, positions after), the values widened to intp, or left out without ``values``.
    A repeat past an episode's count is drawn but unused."""
    head = []
    for n in episode.head:
        at = stream.below(n, at)
        if values:
            head.append(stream.value(n, at).astype(np.intp))
    if episode.repeats is None:
        repeats = np.zeros(at.shape, np.uint8)
    elif isinstance(episode.repeats, float):
        value, at = stream.random(at)
        repeats = (value < episode.repeats).view(np.uint8)
    else:
        at = stream.below(len(episode.repeats), at)
        repeats = stream.value(len(episode.repeats), at) + episode.repeats.start
    body, end = [], at
    for i in range(episode.most_repeats):
        drawn = []
        for n in episode.body:
            at = stream.below(n, at)
            if values:
                drawn.append(stream.value(n, at).astype(np.intp))
        body.append(drawn)
        step = at - end  # end = np.where(repeats > i, at, end), without a branch per position
        step *= repeats > i
        end = end + step
    return head, repeats, body, end


def _walk(end: np.ndarray, length: np.ndarray, n_docs: int, doc_len: int) -> tuple[list, list, int]:
    """From position 0, each document takes episodes until it holds doc_len tokens: (the
    episode starts, the document offsets, the position after the last episode, which is past
    the end if the words ran out)."""
    end, length = memoryview(end), memoryview(length)  # whose items read as Python ints
    starts, offsets = [], [0]
    at = total = 0
    for _ in range(n_docs):
        stop = total + doc_len
        while total < stop:
            starts.append(at)
            total += length[at]
            at = end[at]
        offsets.append(total)
    return starts, offsets, at


def _stream_size(episode: _Episode, n_docs: int, doc_len: int, longest: int) -> int:
    """The words to draw first: the episode's measured words per token, times the most tokens
    the documents can hold. Too few double until the walk fits, so the stream stays under twice
    what the documents need, a fraction of the corpus's own token array."""
    return math.ceil(episode.words_per_token * n_docs * (doc_len + longest))


def _mt19937(state: tuple[int, ...]) -> np.random.MT19937:
    """numpy's MT19937 at the ``random`` state ``state`` (``getstate()[1]``: the 624 key words,
    then the position), so it gives the same 32-bit words from there."""
    generator = np.random.MT19937(0)  # its seed is replaced at once
    generator.state = {"bit_generator": "MT19937",
                       "state": {"key": np.array(state[:-1], np.uint32), "pos": state[-1]}}
    return generator


# Start positions drawn at once: a block's scratch arrays stay small beside the stream's
# own tables, where drawing from every position at once held several arrays of its size.
_BLOCK = 8192


def _chosen_episodes(episode: _Episode, state: tuple[int, ...], lengths: np.ndarray,
                     n_docs: int, doc_len: int) -> tuple[list, np.ndarray, list, list]:
    """The episodes that fill the documents, drawn from the words of the ``random`` state
    ``state``: ``_draw``'s values and repeat counts at their starts, and the document offsets."""
    generator = _mt19937(state)
    stream = _Stream(generator.random_raw(_stream_size(episode, n_docs, doc_len, int(lengths.max()))))
    while True:
        end = np.empty(stream.size + 2, np.int32)  # by start position: the episode's end
        length = np.empty_like(end)  # and its tokens
        for block in range(0, end.size, _BLOCK):
            span = slice(block, min(block + _BLOCK, end.size))
            at = np.arange(span.start, span.stop, dtype=np.int32)
            _, repeats, _, end[span] = _draw(stream, episode, at, False)
            length[span] = lengths.take(repeats)
        starts, offsets, at = _walk(end, length, n_docs, doc_len)
        if at <= stream.size:
            head, repeats, body, _ = _draw(stream, episode, np.array(starts, np.intp))
            return head, repeats, body, offsets
        stream = _Stream(np.append(stream.words[:stream.size], generator.random_raw(stream.size)))


def _template_ids(ids: dict[str, int], item: str | tuple | np.ndarray) -> int | np.ndarray:
    """One ``_Episode.tokens`` item as template ids, numbering new texts in ``ids``."""
    if isinstance(item, str):
        return ids.setdefault(item, len(ids))
    if isinstance(item, tuple):
        texts, indices = item
        return np.array([ids.setdefault(text, len(ids)) for text in texts])[indices]
    return item  # a number: ids start with _NUMBER_TEXT in order


def synthetic_corpus(
    domain: str, n_docs: int = SYNTHETIC_DOCS, seed: int = 42, doc_len: int = 600
) -> DomainCorpus:
    """Generate one deterministic synthetic domain corpus."""
    episode = _EPISODES.get(domain)
    if episode is None:
        raise InputError(f"unknown synthetic domain {domain!r}; choose from {SYNTHETIC_DOMAINS}")
    _check_ints(1, n_docs=n_docs, doc_len=doc_len)
    _check_ints(0, seed=seed)
    lengths = episode.lengths()
    head, repeats, body, offsets = _chosen_episodes(
        episode, random.Random(f"{domain}-{seed}").getstate()[1], lengths, n_docs, doc_len)
    per_episode = lengths.take(repeats)
    first = np.cumsum(per_episode) - per_episode  # each episode's first token
    ids = dict(zip(_NUMBER_TEXT, itertools.count()))  # token text -> template id
    tokens = np.empty(offsets[-1], np.int64)
    for r in range(len(lengths)):
        chosen = repeats == r
        items = episode.tokens([value[chosen] for value in head],
                               [[value[chosen] for value in drawn] for drawn in body[:r]])
        at = first[chosen]
        for item in items:
            tokens[at] = _template_ids(ids, item)
            at += 1
    texts = [*ids]
    seen = np.flatnonzero(np.bincount(tokens, minlength=len(texts))).tolist()
    vocab = build_vocabulary(domain, [[texts[i] for i in seen]])
    remap = np.zeros(len(texts), np.int64)
    remap[seen] = [vocab.index_of(texts[i]) for i in seen]
    # Every id is below len(texts): "clip" clips none, and unlike "raise" it copies nothing.
    np.take(remap, tokens, out=tokens, mode="clip")
    return DomainCorpus(domain, tokens, np.array(offsets, np.int64), vocab)


def synthetic_corpora(
    n_docs: int = SYNTHETIC_DOCS, seed: int = 42, doc_len: int = 600
) -> dict[str, DomainCorpus]:
    """All four bundled synthetic domains, keyed by domain label."""
    return {d: synthetic_corpus(d, n_docs=n_docs, seed=seed, doc_len=doc_len) for d in SYNTHETIC_DOMAINS}
