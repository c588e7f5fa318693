"""Per-domain corpora: loading, tokenization, prompt sampling, model training.

A corpus is a set of documents encoded into a closed vocabulary (index 0 is
the reserved unknown token), held end to end in one array of token ids.
Bundled synthetic generators produce four stylistically distinct domains
(chat, code, math, reasoning) so the whole pipeline can run and be tested
without any external data. Synthetic documents are streams of short episodes,
each terminated by an explicit end-of-sequence token, which gives the trained
models a learnable stopping pattern. Their draws go through ``getrandbits`` by ``random``'s own rejection
rule, so the documents equal what ``randint``, ``choice`` and ``sample`` would
give from the same seeded generator; the tests hold them to an oracle written
with those methods.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError
from .model import NGramModel, Vocabulary, _check_token_ids

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
    document i is ``tokens[offsets[i]:offsets[i + 1]]``. InputError unless both arrays are
    1-D of integers, each id is in [0, |V|) and ``offsets`` rise from 0 to ``tokens.size``."""

    domain: str
    tokens: np.ndarray
    offsets: np.ndarray
    vocabulary: Vocabulary

    def __post_init__(self) -> None:
        tokens, offsets = np.asarray(self.tokens), np.asarray(self.offsets)
        if any(array.ndim != 1 or array.dtype.kind not in "iu" for array in (tokens, offsets)):
            raise InputError(f"domain {self.domain!r}: tokens and offsets must be 1-D of integers")
        _check_token_ids(tokens, self.vocabulary.size)
        if not offsets.size or offsets[0] or offsets[-1] != tokens.size or (
                offsets[1:] < offsets[:-1]).any():
            raise InputError(f"domain {self.domain!r}: offsets must rise from 0 to {tokens.size}")
        self.tokens = tokens.astype(np.int64, copy=False)
        self.offsets = offsets.astype(np.int64, copy=False)

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
    if n < 1 or max_len < 1:
        raise InputError("n and max_len must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
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

    The corpus arrays' context levels are ranked once (``NGramModel._fit_orders``,
    which also rejects an order below 1): the draft is counted from the target's
    lower levels and holds the same level objects.
    """
    if draft_order >= target_order:
        raise InputError("draft_order must be strictly below target_order")
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
# Each generator emits one episode as a token list ending in END_TOKEN. A
# document packs episodes until it exceeds the target length, so default
# 512-token prompt truncation cuts mid-episode and generation continues
# naturally. The "." token appears only directly before END_TOKEN, giving
# n-gram models an unambiguous stopping cue.

# Every bounded draw is one _below call: random's own rejection rule for
# randrange, choice and sample (Random._randbelow_with_getrandbits) applied to
# getrandbits. The episodes therefore equal what those methods give from the
# same generator, without their call stack: randint(a, b) is
# a + _below(bits, b - a + 1), choice(seq) is seq[_below(bits, len(seq))], and
# sample(seq, 2) draws again from the pool whose vacancy took its last item.


def _below(bits: Callable[[int], int], n: int) -> int:
    """A uniform int in [0, n): n.bit_length() bits, drawn again while >= n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


_CHAT_GREETINGS = ["hello", "hi", "hey", "greetings"]
_CHAT_TOPICS = ["books", "chess", "cooking", "films", "gardens", "music", "travel", "weather"]
_CHAT_MOODS = ["busy", "cheerful", "fine", "great"]
_CHAT_OPINIONS = ["interesting", "popular", "relaxing", "tricky"]


def _chat_episode(rng: random.Random) -> list[str]:
    bits = rng.getrandbits
    greeting = _CHAT_GREETINGS[_below(bits, len(_CHAT_GREETINGS))]
    mood = _CHAT_MOODS[_below(bits, len(_CHAT_MOODS))]
    ep = ["user", ":", greeting, "how", "are", "you", "today", "?"]
    ep += ["assistant", ":", "i", "am", mood, ",", "thank", "you", "for", "asking"]
    if rng.random() < 0.4:
        topic = _CHAT_TOPICS[_below(bits, len(_CHAT_TOPICS))]
        opinion = _CHAT_OPINIONS[_below(bits, len(_CHAT_OPINIONS))]
        ep += ["user", ":", "tell", "me", "about", topic, "please", "?"]
        ep += ["assistant", ":", topic, "is", "quite", opinion, ",", "i", "enjoy", "it"]
    ep += ["user", ":", "thanks", "for", "the", "chat", "goodbye", ".", END_TOKEN]
    return ep


_CODE_NAMES = ["calc", "delta", "fold", "gain", "mix", "norm", "scale", "shift"]
_CODE_ARGS = ["a", "b", "n", "x", "y"]
_CODE_OPS = ["+", "-", "*"]
# The text of every number an episode can hold; math's largest is (9 + 9) * 4**3.
_NUMBER_TEXT = tuple(map(str, range((9 + 9) * 4**3 + 1)))


def _code_episode(rng: random.Random) -> list[str]:
    bits = rng.getrandbits
    name = _CODE_NAMES[_below(bits, len(_CODE_NAMES))]
    arg = _CODE_ARGS[_below(bits, len(_CODE_ARGS))]
    op = _CODE_OPS[_below(bits, len(_CODE_OPS))]
    const = _NUMBER_TEXT[1 + _below(bits, 9)]  # randint(1, 9)
    ep = ["def", name, "(", arg, ")", ":", "return", arg, op, const, "<nl>"]
    for _ in range(2 + _below(bits, 3)):  # randint(2, 4)
        ep += ["print", "(", name, "(", _NUMBER_TEXT[1 + _below(bits, 9)], ")", ")", "<nl>"]
    ep += ["#", "module", "done", ".", END_TOKEN]
    return ep


def _math_episode(rng: random.Random) -> list[str]:
    bits = rng.getrandbits
    a = 1 + _below(bits, 9)  # randint(1, 9)
    b = 1 + _below(bits, 9)
    total = a + b
    ep = ["solve", "the", "sum", _NUMBER_TEXT[a], "+", _NUMBER_TEXT[b], "=", _NUMBER_TEXT[total]]
    for _ in range(1 + _below(bits, 3)):  # randint(1, 3)
        c = 2 + _below(bits, 3)  # randint(2, 4)
        ep += [",", "then", _NUMBER_TEXT[total], "*", _NUMBER_TEXT[c], "=", _NUMBER_TEXT[total * c]]
        total *= c
    ep += [",", "the", "answer", "is", _NUMBER_TEXT[total], ".", END_TOKEN]
    return ep


_REASON_NAMES = ["alice", "ben", "carol", "dana"]
_REASON_ITEMS = ["apples", "books", "coins", "pears"]


def _reasoning_episode(rng: random.Random) -> list[str]:
    bits = rng.getrandbits
    last = len(_REASON_NAMES) - 1
    first = _below(bits, last + 1)  # sample(_REASON_NAMES, 2)
    second = _below(bits, last)
    who = _REASON_NAMES[first]
    other = _REASON_NAMES[last if second == first else second]
    item = _REASON_ITEMS[_below(bits, len(_REASON_ITEMS))]
    n = 5 + _below(bits, 8)  # randint(5, 12)
    k = 1 + _below(bits, 4)  # randint(1, 4)
    keeps = _NUMBER_TEXT[n - k]
    ep = ["if", who, "has", _NUMBER_TEXT[n], item, "and", "gives", _NUMBER_TEXT[k], "to", other, ","]
    ep += ["then", who, "keeps", keeps, item, ","]
    ep += ["so", "the", "answer", "is", keeps, ".", END_TOKEN]
    return ep


_EPISODE_GENERATORS = {
    "chat": _chat_episode,
    "code": _code_episode,
    "math": _math_episode,
    "reasoning": _reasoning_episode,
}


def synthetic_corpus(
    domain: str, n_docs: int = SYNTHETIC_DOCS, seed: int = 42, doc_len: int = 600
) -> DomainCorpus:
    """Generate one deterministic synthetic domain corpus."""
    generator = _EPISODE_GENERATORS.get(domain)
    if generator is None:
        raise InputError(f"unknown synthetic domain {domain!r}; choose from {SYNTHETIC_DOMAINS}")
    if n_docs < 1 or doc_len < 1:
        raise InputError("n_docs and doc_len must be >= 1")
    rng = random.Random(f"{domain}-{seed}")
    token_docs = []
    for _ in range(n_docs):
        tokens: list[str] = []
        while len(tokens) < doc_len:
            tokens.extend(generator(rng))
        token_docs.append(tokens)
    return DomainCorpus.from_tokens(domain, token_docs)


def synthetic_corpora(
    n_docs: int = SYNTHETIC_DOCS, seed: int = 42, doc_len: int = 600
) -> dict[str, DomainCorpus]:
    """All four bundled synthetic domains, keyed by domain label."""
    return {d: synthetic_corpus(d, n_docs=n_docs, seed=seed, doc_len=doc_len) for d in SYNTHETIC_DOMAINS}
