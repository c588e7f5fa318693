import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, documents
from treespec import (
    DomainCorpus,
    InputError,
    Vocabulary,
    sample_prompts,
    synthetic_corpora,
    synthetic_corpus,
    train_models,
)
import treespec.corpus as corpus_module
from treespec.corpus import (
    _CHAT_GREETINGS,
    _CHAT_MOODS,
    _CHAT_OPINIONS,
    _CHAT_TOPICS,
    _CODE_ARGS,
    _CODE_NAMES,
    _CODE_OPS,
    _REASON_ITEMS,
    _REASON_NAMES,
    END_TOKEN,
    SYNTHETIC_DOMAINS,
    UNK_TOKEN,
    _pool_swap,
    _Stream,
    build_vocabulary,
    load_corpora,
    load_domain_dir,
)

# Frozen output of the documented sampler (default_rng(42).choice over 200
# docs, size 50, without replacement), recorded from a verified first run.
FROZEN_DOC_INDICES = [
    71, 85, 76, 13, 199, 195, 113, 135, 52, 87, 68, 134, 154, 194, 130, 84,
    170, 145, 32, 141, 102, 146, 190, 110, 164, 176, 67, 16, 133, 161, 120,
    100, 119, 81, 158, 118, 11, 124, 79, 160, 97, 41, 156, 136, 117, 31, 63,
    21, 15, 155,
]


# sha256 of repr((vocabulary tokens, documents)) per domain, keyed by
# (seed, n_docs, doc_len): the reference shape and one off it. Recorded from
# the generators that drew through random's randint, choice and sample.
GOLDEN_CORPORA = {
    (42, 160, 600): {
        "chat": "ddd8a0da4e9de5548f7c068e0bbac5e2ce9320a128f3aed848fa63bd40de686a",
        "code": "86edf67fee6a999e3328e74c1db8cb525024257aa7d6ea06dac3549cd481aadc",
        "math": "3343401425580d9484386cd8f633f0e01a5c523d30f52a0509d6a61ec58f556e",
        "reasoning": "b78fb50dd9213b6b93c62cab78129584241610c3b2d551183a28835a7cb50609",
    },
    (7, 20, 300): {
        "chat": "b5fc6e81ec5dde58b5405c1f6540a43fd6c80de790a63d779fe32cf97d723ac6",
        "code": "d031c2f5ee5b42b3d9eff3cc4c361785e6fca83001e198657b04824c64445be9",
        "math": "a4a5ec90e8f6f503fd46d7ae9d9c758d43629364243c3c287c482b6d6fc035b4",
        "reasoning": "abc29866660ac8a036902db09f469ea322bd4b7aa94f892b1145488943aba278",
    },
}


def _corpus_digest(corpus):
    return hashlib.sha256(repr((corpus.vocabulary.tokens, documents(corpus))).encode()).hexdigest()


# The episode generators as written with random's own methods: the oracle
# that the array draws in treespec.corpus must equal, draw for draw.
def _oracle_chat(rng):
    ep = ["user", ":", rng.choice(_CHAT_GREETINGS), "how", "are", "you", "today", "?"]
    ep += ["assistant", ":", "i", "am", rng.choice(_CHAT_MOODS), ",", "thank", "you", "for", "asking"]
    if rng.random() < 0.4:
        topic = rng.choice(_CHAT_TOPICS)
        ep += ["user", ":", "tell", "me", "about", topic, "please", "?"]
        ep += ["assistant", ":", topic, "is", "quite", rng.choice(_CHAT_OPINIONS), ",", "i", "enjoy", "it"]
    ep += ["user", ":", "thanks", "for", "the", "chat", "goodbye", ".", END_TOKEN]
    return ep


def _oracle_code(rng):
    name = rng.choice(_CODE_NAMES)
    arg = rng.choice(_CODE_ARGS)
    op = rng.choice(_CODE_OPS)
    const = str(rng.randint(1, 9))
    ep = ["def", name, "(", arg, ")", ":", "return", arg, op, const, "<nl>"]
    for _ in range(rng.randint(2, 4)):
        ep += ["print", "(", name, "(", str(rng.randint(1, 9)), ")", ")", "<nl>"]
    ep += ["#", "module", "done", ".", END_TOKEN]
    return ep


def _oracle_math(rng):
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    total = a + b
    ep = ["solve", "the", "sum", str(a), "+", str(b), "=", str(total)]
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(2, 4)
        ep += [",", "then", str(total), "*", str(c), "=", str(total * c)]
        total = total * c
    ep += [",", "the", "answer", "is", str(total), ".", END_TOKEN]
    return ep


def _oracle_reasoning(rng):
    who, other = rng.sample(_REASON_NAMES, 2)
    item = rng.choice(_REASON_ITEMS)
    n = rng.randint(5, 12)
    k = rng.randint(1, 4)
    ep = ["if", who, "has", str(n), item, "and", "gives", str(k), "to", other, ","]
    ep += ["then", who, "keeps", str(n - k), item, ","]
    ep += ["so", "the", "answer", "is", str(n - k), ".", END_TOKEN]
    return ep


ORACLE_GENERATORS = {
    "chat": _oracle_chat,
    "code": _oracle_code,
    "math": _oracle_math,
    "reasoning": _oracle_reasoning,
}


def oracle_corpus(domain, n_docs, seed, doc_len):
    """``synthetic_corpus`` as written with random's own methods: the oracle episodes of one
    seeded generator, packed into documents and encoded by ``DomainCorpus.from_tokens``."""
    rng = random.Random(f"{domain}-{seed}")
    docs = []
    for _ in range(n_docs):
        doc = []
        while len(doc) < doc_len:
            doc += ORACLE_GENERATORS[domain](rng)
        docs.append(doc)
    return DomainCorpus.from_tokens(domain, docs)


# The reference shape, one off it, a single document, documents shorter than
# an episode, one-token documents and a corpus larger than the reference.
ORACLE_SHAPES = [(42, 160, 600), (7, 20, 300), (0, 1, 600), (3, 5, 10), (1, 3, 1), (11, 400, 1000)]


def stream_of(rng, size):
    """A ``_Stream`` of the next ``size`` words of ``rng``, one getrandbits(32) each; ``rng``
    is left where it was."""
    state = rng.getstate()
    words = np.array([rng.getrandbits(32) for _ in range(size)], dtype=np.uint32)
    rng.setstate(state)
    return _Stream(words)


class TestDraws:
    @pytest.mark.parametrize("domain", SYNTHETIC_DOMAINS)
    def test_corpus_matches_the_random_method_oracle(self, domain):
        # Fifty more seeds, each with its own document count and length.
        shapes = ORACLE_SHAPES + [(seed, 1 + seed % 7, 1 + 37 * seed % 251) for seed in range(50)]
        for seed, n_docs, doc_len in shapes:
            expected = oracle_corpus(domain, n_docs, seed, doc_len)
            assert synthetic_corpus(domain, n_docs, seed, doc_len) == expected, (seed, n_docs, doc_len)

    def test_a_stream_too_short_grows_until_the_documents_fit(self, monkeypatch):
        # From one word, the stream doubles until a walk fits the documents.
        walk, sizes = corpus_module._walk, []

        def counted_walk(end, *args):
            sizes.append(end.size - 2)
            return walk(end, *args)

        monkeypatch.setattr(corpus_module, "_stream_size", lambda *args: 1)
        monkeypatch.setattr(corpus_module, "_walk", counted_walk)
        for domain in SYNTHETIC_DOMAINS:
            sizes.clear()
            assert synthetic_corpus(domain, 6, 5, 200) == oracle_corpus(domain, 6, 5, 200)
            assert len(sizes) >= 5 and sizes == [2**i for i in range(len(sizes))], (domain, sizes)

    # The generator's 624-word key, read from its start, inside it, at its end
    # (where the next word regenerates it) and past one regeneration.
    @pytest.mark.parametrize("words_before", [0, 1, 623, 624, 1000])
    def test_randbytes_is_the_next_words_little_endian(self, words_before):
        rng, twin = random.Random("chat-42"), random.Random("chat-42")
        for _ in range(words_before):
            rng.getrandbits(32)
            twin.getrandbits(32)
        data = rng.randbytes(6000)
        assert data == b"".join(twin.getrandbits(32).to_bytes(4, "little") for _ in range(1500))
        assert rng.getrandbits(32) == twin.getrandbits(32)

    def test_getrandbits_takes_one_word_from_the_top(self):
        # The rule each bounded draw is tabled by: getrandbits(k <= 32) is one word's top k bits.
        rng, words = random.Random(5), random.Random(5)
        for k in [*range(1, 33)] * 3:
            assert rng.getrandbits(k) == words.getrandbits(32) >> (32 - k)

    # Every n up to 64 takes the redraw branch wherever n is not a power of two.
    @pytest.mark.parametrize("n", range(1, 65))
    def test_bounded_draw_matches_randint_and_choice(self, n):
        seq = range(n)
        for seed in range(3):
            expected = random.Random(seed)
            stream = stream_of(expected, 600)
            at = np.zeros(1, np.intp)
            for _ in range(50):
                at = stream.below(n, at)
                assert -3 + stream.value(n, at).item() == expected.randint(-3, n - 4)
                at = stream.below(n, at)
                assert seq[stream.value(n, at).item()] == expected.choice(seq)
            assert at[0] <= stream.size and stream.words[at[0]] == expected.getrandbits(32)

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_bounded_draw_from_every_position(self, n):
        # From position p, a draw gives what randrange gives after p words and takes as many
        # words; one that runs out of words lands past the end, and a draw from there stays.
        stream = stream_of(random.Random(n), 40)
        at = stream.below(n, np.arange(stream.size + 2))
        values = stream.value(n, at)
        for p in range(stream.size + 2):
            rng = random.Random(n)
            for _ in range(p):
                rng.getrandbits(32)
            counter = random.Random()
            counter.setstate(rng.getstate())
            draw, taken = rng.randrange(n), 0
            while counter.getstate() != rng.getstate():
                counter.getrandbits(32)
                taken += 1
            if p + taken <= stream.size:
                assert (at[p], values[p]) == (p + taken, draw), p
            else:
                assert at[p] == stream.size + 1, p

    # random.sample(seq, 2) swaps within a pool while len(seq) <= 21, which
    # covers the reasoning generator's names.
    @pytest.mark.parametrize("n", range(2, 22))
    def test_pool_swap_matches_sample(self, n):
        seq = [f"t{i}" for i in range(n)]
        for seed in range(3):
            expected = random.Random(seed)
            stream = stream_of(expected, 600)
            at = np.zeros(1, np.intp)
            for _ in range(50):
                at = stream.below(n, at)
                first = stream.value(n, at)
                at = stream.below(n - 1, at)
                second = stream.value(n - 1, at)
                assert [seq[first[0]], seq[_pool_swap(first, second, n)[0]]] == expected.sample(seq, 2)
            assert at[0] <= stream.size and stream.words[at[0]] == expected.getrandbits(32)

    def test_float_draw_matches_random(self):
        # A word between draws starts the next float at the other parity.
        for seed in range(3):
            expected = random.Random(seed)
            stream = stream_of(expected, 200)
            at = np.zeros(1, np.intp)
            for _ in range(60):
                value, at = stream.random(at)
                assert value[0] == expected.random()
                assert stream.words[at[0]] == expected.getrandbits(32)
                at += 1
            value, at = stream.random(np.array([stream.size - 1]))
            assert at[0] == stream.size + 1  # two words from the last one run past the end


class TestTokenize:
    def test_whitespace(self):
        corpus = DomainCorpus.from_texts("d", ["a b\ta\n b"])
        assert corpus.vocabulary.tokens == (UNK_TOKEN, "a", "b")
        assert documents(corpus) == [(1, 2, 1, 2)]

    def test_empty(self):
        corpus = DomainCorpus.from_texts("d", ["a", "", " \n"])
        assert documents(corpus) == [(1,)]

    def test_deterministic(self):
        text = "def f ( x ) :\n  return x"
        assert DomainCorpus.from_texts("d", [text]) == DomainCorpus.from_texts("d", [text])


def from_tokens_oracle(domain, token_docs):
    """``DomainCorpus.from_tokens`` one token at a time: (vocabulary tokens, documents), the
    unknown token first and the rest sorted, each token encoded by one dict lookup."""
    token_docs = [doc for doc in token_docs if doc]
    seen = {token for doc in token_docs for token in doc}
    if not seen:
        raise InputError(f"domain {domain!r} has no tokens: every document is empty")
    seen.discard(UNK_TOKEN)
    if not seen:
        raise InputError(f"domain {domain!r} has no tokens besides {UNK_TOKEN}")
    vocabulary = (UNK_TOKEN, *sorted(seen))
    index = {token: i for i, token in enumerate(vocabulary)}
    return vocabulary, [tuple(index[token] for token in doc) for doc in token_docs]


# Short tokens, non-ASCII among them, with the unknown token often inside a document.
TOKENS = st.one_of(st.sampled_from([UNK_TOKEN, "a", "b", "é", "日本", "Ω", "\U0001f600"]),
                   st.text(max_size=3))


class TestFromTokensOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(TOKENS, max_size=8), max_size=6))
    def test_matches_the_scalar_oracle(self, token_docs):
        try:
            expected = from_tokens_oracle("d", token_docs)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                DomainCorpus.from_tokens("d", token_docs)
            return
        corpus = DomainCorpus.from_tokens("d", token_docs)
        assert (corpus.vocabulary.tokens, documents(corpus)) == expected
        assert corpus.tokens.dtype == corpus.offsets.dtype == np.int64

    def test_oracle_cases(self):
        # Each case the property test must reach, spelt out: the unknown token
        # inside a document, an empty document and non-ASCII tokens.
        corpus = DomainCorpus.from_tokens("d", [["日本", UNK_TOKEN, "é"], [], ["a", "日本"]])
        assert (corpus.vocabulary.tokens, documents(corpus)) == from_tokens_oracle(
            "d", [["日本", UNK_TOKEN, "é"], [], ["a", "日本"]])
        assert documents(corpus) == [(3, 0, 2), (1, 3)]


class TestConstructor:
    VOCAB = Vocabulary((UNK_TOKEN, "a", "b"))

    def test_keeps_int64_arrays(self):
        corpus = DomainCorpus("d", np.array([1, 2, 0], dtype=np.uint8),
                              np.array([0, 2, 2, 3], dtype=np.int32), self.VOCAB)
        assert corpus.tokens.dtype == corpus.offsets.dtype == np.int64
        assert documents(corpus) == [(1, 2), (), (0,)]

    @pytest.mark.parametrize("tokens", [np.array([[1, 2]]), np.array([1.0, 2.0]), np.array(1),
                                        np.array(["a"])])
    def test_tokens_not_one_dimensional_of_integers_rejected(self, tokens):
        with pytest.raises(InputError, match=r"^domain 'd': tokens must be 1-D of integers in \[0, 3\)$"):
            DomainCorpus("d", tokens, np.array([0, 2]), self.VOCAB)

    @pytest.mark.parametrize("token", [-1, 3, 2**62])
    def test_id_outside_the_vocabulary_rejected(self, token):
        with pytest.raises(InputError, match=r"^domain 'd': tokens must be 1-D of integers in \[0, 3\)$"):
            DomainCorpus("d", np.array([1, token]), np.array([0, 2]), self.VOCAB)

    @pytest.mark.parametrize("offsets", [[], [1, 2], [0, 1], [0, 2, 1, 2]])
    def test_offsets_that_do_not_run_from_zero_to_the_end_rejected(self, offsets):
        with pytest.raises(InputError, match="^domain 'd': offsets must rise from 0 to 2$"):
            DomainCorpus("d", np.array([1, 2]), np.array(offsets, dtype=np.int64), self.VOCAB)

    def test_offsets_not_one_dimensional_of_integers_rejected(self):
        # Ids past the end, or before the start, fail the same rule.
        for offsets in (np.array([[0, 2]]), np.array([0.0, 2.0]), np.array([0, 3]), np.array([-1, 2])):
            with pytest.raises(InputError, match=r"^domain 'd': offsets must be 1-D of integers in \[0, 3\)$"):
                DomainCorpus("d", np.array([1, 2]), offsets, self.VOCAB)

    def test_equality_compares_the_arrays(self):
        corpus = corpus_of("d", [(1, 2), (0,)], self.VOCAB)
        assert corpus == corpus_of("d", [(1, 2), (0,)], self.VOCAB)
        # Arrays of other lengths, other offsets, another domain or vocabulary, or
        # another type compare unequal, without raising.
        for other in (corpus_of("d", [(1, 2)], self.VOCAB), corpus_of("d", [(1,), (2, 0)], self.VOCAB),
                      corpus_of("e", [(1, 2), (0,)], self.VOCAB),
                      corpus_of("d", [(1, 2), (0,)], Vocabulary((UNK_TOKEN, "a", "c"))), "d"):
            assert corpus != other and not corpus == other


class TestVocabularyBuild:
    def test_unk_first_then_sorted(self):
        vocab = build_vocabulary("d", [["b", "a"], ["c", "a", UNK_TOKEN]])
        assert vocab.tokens == (UNK_TOKEN, "a", "b", "c")

    def test_no_tokens_names_the_domain(self):
        with pytest.raises(InputError, match="domain 'd' has no tokens: every document is empty"):
            DomainCorpus.from_texts("d", ["", "  \n\t"])
        with pytest.raises(InputError, match="domain 'd' has no tokens"):
            DomainCorpus.from_texts("d", [])
        with pytest.raises(InputError, match=f"domain 'd' has no tokens besides {UNK_TOKEN}"):
            DomainCorpus.from_texts("d", [f"{UNK_TOKEN} {UNK_TOKEN}", ""])

    def test_unknown_token_keeps_index_zero(self):
        corpus = DomainCorpus.from_tokens("d", [["b", UNK_TOKEN, "a"], []])
        assert documents(corpus) == [(2, 0, 1)]

    def test_blank_documents_dropped(self):
        corpus = DomainCorpus.from_texts("d", ["a b", "   ", "b"])
        assert len(documents(corpus)) == 2


class TestSamplePrompts:
    def test_single_document(self):
        corpus = DomainCorpus.from_texts("d", ["a b c d e"])
        assert sample_prompts(corpus, 1, seed=0, max_len=3) == [documents(corpus)[0][:3]]

    def test_same_seed_identical(self):
        corpus = synthetic_corpus("chat", n_docs=30, seed=1)
        first = sample_prompts(corpus, 10, seed=42)
        second = sample_prompts(corpus, 10, seed=42)
        assert first == second

    def test_different_seed_differs(self):
        corpus = synthetic_corpus("chat", n_docs=30, seed=1)
        assert sample_prompts(corpus, 10, seed=1) != sample_prompts(corpus, 10, seed=2)

    def test_frozen_index_fixture(self):
        corpus = synthetic_corpus("chat", n_docs=200, seed=7)
        prompts = sample_prompts(corpus, 50, seed=42, max_len=512)
        assert prompts == [documents(corpus)[i][:512] for i in FROZEN_DOC_INDICES]
        # Without replacement: 50 distinct prompts, so 50 distinct documents.
        assert len(set(prompts)) == len(set(FROZEN_DOC_INDICES)) == 50

    def test_with_replacement_when_scarce(self):
        corpus = DomainCorpus.from_texts("d", ["a b", "b a"])
        assert len(sample_prompts(corpus, 5, seed=3)) == 5

    def test_truncation(self):
        corpus = synthetic_corpus("math", n_docs=5, seed=2)
        prompts = sample_prompts(corpus, 3, seed=42, max_len=40)
        assert all(len(p) == 40 for p in prompts)

    def test_empty_corpus_rejected(self):
        corpus = corpus_of("d", [], Vocabulary((UNK_TOKEN, "a")))
        with pytest.raises(InputError):
            sample_prompts(corpus, 1, seed=0)

    @pytest.mark.parametrize("n, max_len, match", [
        (0, 512, r"^n must be an integer >= 1, got 0$"),
        # 2.5 and max_len 1.5 raised numpy's and a slice's bare TypeError.
        (2.5, 512, r"^n must be an integer >= 1, got 2.5$"),
        (1, 1.5, r"^max_len must be an integer >= 1, got 1.5$"),
        (1, 0, r"^max_len must be an integer >= 1, got 0$"),
    ])
    def test_bad_n_rejected(self, n, max_len, match):
        corpus = DomainCorpus.from_texts("d", ["a b"])
        with pytest.raises(InputError, match=match):
            sample_prompts(corpus, n, seed=0, max_len=max_len)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_slicing_oracle(self, data):
        # Both sides of the replacement rule, and a max_len past int64.
        docs = data.draw(st.lists(st.lists(st.integers(0, 3), max_size=10), min_size=1, max_size=6))
        n = data.draw(st.integers(1, 2 * len(docs) + 2))
        seed = data.draw(st.integers(0, 2**64))
        max_len = data.draw(st.one_of(st.integers(1, 12), st.just(2**70)))
        corpus = corpus_of("d", docs, Vocabulary((UNK_TOKEN, "a", "b", "c")))
        chosen = np.random.default_rng(seed).choice(len(docs), size=n, replace=len(docs) < n)
        expected = [tuple(docs[i][:max_len]) for i in chosen.tolist()]
        prompts = sample_prompts(corpus, n, seed, max_len)
        assert prompts == expected
        assert all(type(token) is int for prompt in prompts for token in prompt)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x"])
    def test_negative_seed_rejected(self, seed):
        # Each raised numpy's bare ValueError or TypeError from default_rng.
        corpus = DomainCorpus.from_texts("d", ["a b"])
        with pytest.raises(InputError, match=f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"):
            sample_prompts(corpus, 1, seed=seed)


class TestTrainModels:
    def test_hand_counts_orders_one_two(self):
        corpus = DomainCorpus.from_texts("d", ["a b a b"])
        draft, target = train_models(corpus, draft_order=1, target_order=2, smoothing=0.0)
        assert draft.vocab is corpus.vocabulary
        assert target.vocab is corpus.vocabulary
        # unigram: a and b twice each, unk never
        assert np.allclose(draft.next_token_dist([1]), [0.0, 0.5, 0.5])
        # bigram: a is always followed by b, b always by a
        assert np.allclose(target.next_token_dist([1]), [0.0, 0.0, 1.0])
        assert np.allclose(target.next_token_dist([2]), [0.0, 1.0, 0.0])

    def test_smoothed_hand_count(self):
        corpus = DomainCorpus.from_texts("d", ["a b a b"])
        _, target = train_models(corpus, 1, 2, smoothing=0.5)
        # context (a,): count(b)=2, total=2, |V|=3
        expected = (2 + 0.5) / (2 + 0.5 * 3)
        assert target.next_token_dist([1])[2] == pytest.approx(expected, abs=1e-12)

    def test_equal_orders_rejected(self):
        corpus = DomainCorpus.from_texts("d", ["a b"])
        with pytest.raises(InputError):
            train_models(corpus, 2, 2, smoothing=0.1)

    @pytest.mark.parametrize("draft_order, target_order, match", [
        (0, 2, r"^draft_order must be an integer >= 1, got 0$"),
        # 1.5 returned one model, 2.5 raised a bare TypeError and True fitted order 1.
        (1.5, 3, r"^draft_order must be an integer >= 1, got 1.5$"),
        (1, 2.5, r"^target_order must be an integer >= 2, got 2.5$"),
        (True, 2, r"^draft_order must be an integer >= 1, got True$"),
    ])
    def test_bad_order_rejected(self, draft_order, target_order, match):
        corpus = DomainCorpus.from_texts("d", ["a b"])
        with pytest.raises(InputError, match=match):
            train_models(corpus, draft_order, target_order, smoothing=0.1)


class TestSynthetic:
    def test_all_domains(self):
        corpora = synthetic_corpora(n_docs=5, seed=9)
        assert sorted(corpora) == ["chat", "code", "math", "reasoning"]

    @pytest.mark.parametrize("shape", sorted(GOLDEN_CORPORA))
    def test_golden_corpora(self, shape):
        seed, n_docs, doc_len = shape
        corpora = synthetic_corpora(n_docs=n_docs, seed=seed, doc_len=doc_len)
        assert {d: _corpus_digest(c) for d, c in corpora.items()} == GOLDEN_CORPORA[shape]

    def test_doc_length_and_end_token(self):
        corpus = synthetic_corpus("reasoning", n_docs=4, seed=13, doc_len=300)
        assert all(len(doc) >= 300 for doc in documents(corpus))
        end = corpus.vocabulary.index_of(END_TOKEN)
        assert all(end in doc for doc in documents(corpus))

    @pytest.mark.parametrize("kwargs, match", [
        # Each seed drew a corpus, and n_docs 1.5 raised a bare TypeError.
        ({"seed": -3}, r"^seed must be an integer >= 0, got -3$"),
        ({"seed": 1.5}, r"^seed must be an integer >= 0, got 1.5$"),
        ({"seed": "x"}, r"^seed must be an integer >= 0, got 'x'$"),
        ({"n_docs": 1.5}, r"^n_docs must be an integer >= 1, got 1.5$"),
        ({"doc_len": 0}, r"^doc_len must be an integer >= 1, got 0$"),
    ])
    def test_bad_argument_rejected(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            synthetic_corpus("chat", **kwargs)

    def test_unknown_domain(self):
        with pytest.raises(InputError):
            synthetic_corpus("poetry")

    def test_tokens_survive_whitespace_split(self):
        for domain, corpus in synthetic_corpora(n_docs=40, seed=3).items():
            for token in corpus.vocabulary.tokens:
                assert token and token.split() == [token], (domain, token)

    @pytest.mark.parametrize("domain", SYNTHETIC_DOMAINS)
    def test_tokens_encode_like_joined_text(self, domain):
        # synthetic_corpus writes template ids and remaps them to the sorted
        # vocabulary; the space-joined documents, read back by from_texts and so
        # encoded by from_tokens, must give the same corpus.
        for seed, n_docs in ((0, 1), (7, 3), (42, 20)):
            corpus = synthetic_corpus(domain, n_docs=n_docs, seed=seed)
            tokens = corpus.vocabulary.tokens
            texts = [" ".join(tokens[i] for i in doc) for doc in documents(corpus)]
            assert DomainCorpus.from_texts(domain, texts) == corpus


class TestIO:
    def test_load_domain_dir(self, tmp_path):
        d = tmp_path / "chat"
        d.mkdir()
        (d / "b.txt").write_text("b b b", encoding="utf-8")
        (d / "a.txt").write_text("a a", encoding="utf-8")
        corpus = load_domain_dir(d)
        assert corpus.domain == "chat"
        assert len(documents(corpus)) == 2
        # files read in sorted order
        assert documents(corpus)[0] == tuple([corpus.vocabulary.index_of("a")] * 2)

    def test_load_corpora(self, tmp_path):
        for name in ("alpha", "beta"):
            d = tmp_path / name
            d.mkdir()
            (d / "doc.txt").write_text(f"{name} text here", encoding="utf-8")
        corpora = load_corpora(tmp_path)
        assert sorted(corpora) == ["alpha", "beta"]

    def test_load_empty_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(InputError):
            load_domain_dir(tmp_path / "empty")
