"""Per-domain corpora: loading, tokenization, prompt sampling, model training.

A corpus is a set of documents encoded into a closed vocabulary (index 0 is
the reserved unknown token). Bundled synthetic generators produce four
stylistically distinct domains (chat, code, math, reasoning) so the whole
pipeline can run and be tested without any external data. Synthetic
documents are streams of short episodes, each terminated by an explicit
end-of-sequence token, which gives the trained models a learnable stopping
pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .model import NGramModel, Vocabulary

UNK_TOKEN = "<unk>"
END_TOKEN = "<end>"
SYNTHETIC_DOMAINS = ("chat", "code", "math", "reasoning")
SYNTHETIC_DOCS = 160  # documents per synthetic domain in the reference run


def build_vocabulary(token_docs: Iterable[Sequence[str]]) -> Vocabulary:
    """Unknown token at index 0, then all observed tokens in sorted order."""
    seen = {t for doc in token_docs for t in doc}
    seen.discard(UNK_TOKEN)
    return Vocabulary((UNK_TOKEN, *sorted(seen)))


@dataclass
class DomainCorpus:
    """Encoded documents of one domain sharing one vocabulary."""

    domain: str
    documents: list[tuple[int, ...]]
    vocabulary: Vocabulary

    @classmethod
    def from_texts(
        cls,
        domain: str,
        texts: Sequence[str],
        vocabulary: Vocabulary | None = None,
    ) -> "DomainCorpus":
        """Split texts on whitespace and encode them; unseen tokens map to the unknown index."""
        token_docs = [t.split() for t in texts]
        if vocabulary is None and not any(token_docs):
            raise InputError(f"domain {domain!r} has no tokens: every document is empty")
        vocab = vocabulary if vocabulary is not None else build_vocabulary(token_docs)
        unk = vocab.get(UNK_TOKEN, 0)
        documents = [
            tuple(vocab.get(t, unk) for t in doc)  # type: ignore[misc]
            for doc in token_docs
            if doc
        ]
        return cls(domain=domain, documents=documents, vocabulary=vocab)


@dataclass
class PromptSet:
    """Seeded prompt sample; resampling with the same seed is identical."""

    prompts: list[tuple[int, ...]]
    doc_indices: list[int]


def sample_prompts(corpus: DomainCorpus, n: int, seed: int, max_len: int = 512) -> PromptSet:
    """Draw n prompts from the corpus documents, truncated to max_len tokens.

    Sampling uses numpy's default_rng(seed).choice over document indices,
    without replacement whenever the corpus has at least n documents.
    Truncation keeps the leading tokens.
    """
    if not corpus.documents:
        raise InputError(f"domain {corpus.domain!r} has no documents")
    if n < 1 or max_len < 1:
        raise InputError("n and max_len must be >= 1")
    rng = np.random.default_rng(seed)
    replace = len(corpus.documents) < n
    indices = [int(i) for i in rng.choice(len(corpus.documents), size=n, replace=replace)]
    prompts = [tuple(corpus.documents[i][:max_len]) for i in indices]
    return PromptSet(prompts=prompts, doc_indices=indices)


def train_models(
    corpus: DomainCorpus, draft_order: int, target_order: int, smoothing: float
) -> tuple[NGramModel, NGramModel]:
    """Fit the (draft, target) pair on one corpus; both share its vocabulary."""
    if draft_order < 1 or target_order < 1:
        raise InputError("model orders must be >= 1")
    if draft_order >= target_order:
        raise InputError("draft_order must be strictly below target_order")
    draft = NGramModel.fit(corpus.vocabulary, corpus.documents, draft_order, smoothing)
    target = NGramModel.fit(corpus.vocabulary, corpus.documents, target_order, smoothing)
    return draft, target


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

_CHAT_GREETINGS = ["hello", "hi", "hey", "greetings"]
_CHAT_TOPICS = ["books", "chess", "cooking", "films", "gardens", "music", "travel", "weather"]
_CHAT_MOODS = ["busy", "cheerful", "fine", "great"]
_CHAT_OPINIONS = ["interesting", "popular", "relaxing", "tricky"]


def _chat_episode(rng: random.Random) -> list[str]:
    ep = ["user", ":", rng.choice(_CHAT_GREETINGS), "how", "are", "you", "today", "?"]
    ep += ["assistant", ":", "i", "am", rng.choice(_CHAT_MOODS), ",", "thank", "you", "for", "asking"]
    if rng.random() < 0.4:
        topic = rng.choice(_CHAT_TOPICS)
        ep += ["user", ":", "tell", "me", "about", topic, "please", "?"]
        ep += ["assistant", ":", topic, "is", "quite", rng.choice(_CHAT_OPINIONS), ",", "i", "enjoy", "it"]
    ep += ["user", ":", "thanks", "for", "the", "chat", "goodbye", ".", END_TOKEN]
    return ep


_CODE_NAMES = ["calc", "delta", "fold", "gain", "mix", "norm", "scale", "shift"]
_CODE_ARGS = ["a", "b", "n", "x", "y"]
_CODE_OPS = ["+", "-", "*"]


def _code_episode(rng: random.Random) -> list[str]:
    name = rng.choice(_CODE_NAMES)
    arg = rng.choice(_CODE_ARGS)
    op = rng.choice(_CODE_OPS)
    const = str(rng.randint(1, 9))
    ep = ["def", name, "(", arg, ")", ":", "return", arg, op, const, "<nl>"]
    for _ in range(rng.randint(2, 4)):
        ep += ["print", "(", name, "(", str(rng.randint(1, 9)), ")", ")", "<nl>"]
    ep += ["#", "module", "done", ".", END_TOKEN]
    return ep


def _math_episode(rng: random.Random) -> list[str]:
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    total = a + b
    ep = ["solve", "the", "sum", str(a), "+", str(b), "=", str(total)]
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(2, 4)
        ep += [",", "then", str(total), "*", str(c), "=", str(total * c)]
        total = total * c
    ep += [",", "the", "answer", "is", str(total), ".", END_TOKEN]
    return ep


_REASON_NAMES = ["alice", "ben", "carol", "dana"]
_REASON_ITEMS = ["apples", "books", "coins", "pears"]


def _reasoning_episode(rng: random.Random) -> list[str]:
    who, other = rng.sample(_REASON_NAMES, 2)
    item = rng.choice(_REASON_ITEMS)
    n = rng.randint(5, 12)
    k = rng.randint(1, 4)
    ep = ["if", who, "has", str(n), item, "and", "gives", str(k), "to", other, ","]
    ep += ["then", who, "keeps", str(n - k), item, ","]
    ep += ["so", "the", "answer", "is", str(n - k), ".", END_TOKEN]
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
    texts = []
    for _ in range(n_docs):
        tokens: list[str] = []
        while len(tokens) < doc_len:
            tokens.extend(generator(rng))
        texts.append(" ".join(tokens))
    return DomainCorpus.from_texts(domain, texts)


def synthetic_corpora(
    n_docs: int = SYNTHETIC_DOCS, seed: int = 42, doc_len: int = 600
) -> dict[str, DomainCorpus]:
    """All four bundled synthetic domains, keyed by domain label."""
    return {d: synthetic_corpus(d, n_docs=n_docs, seed=seed, doc_len=doc_len) for d in SYNTHETIC_DOMAINS}
