import numpy as np
import pytest

from treespec import (
    DomainCorpus,
    InputError,
    Vocabulary,
    sample_prompts,
    synthetic_corpora,
    synthetic_corpus,
    train_models,
)
from treespec.corpus import END_TOKEN, UNK_TOKEN, build_vocabulary, load_corpora, load_domain_dir

# Frozen output of the documented sampler (default_rng(42).choice over 200
# docs, size 50, without replacement), recorded from a verified first run.
FROZEN_DOC_INDICES = [
    71, 85, 76, 13, 199, 195, 113, 135, 52, 87, 68, 134, 154, 194, 130, 84,
    170, 145, 32, 141, 102, 146, 190, 110, 164, 176, 67, 16, 133, 161, 120,
    100, 119, 81, 158, 118, 11, 124, 79, 160, 97, 41, 156, 136, 117, 31, 63,
    21, 15, 155,
]


class TestTokenize:
    def test_whitespace(self):
        corpus = DomainCorpus.from_texts("d", ["a b\ta\n b"])
        assert corpus.vocabulary.tokens == (UNK_TOKEN, "a", "b")
        assert corpus.documents == [(1, 2, 1, 2)]

    def test_empty(self):
        corpus = DomainCorpus.from_texts("d", ["a", "", " \n"])
        assert corpus.documents == [(1,)]

    def test_deterministic(self):
        text = "def f ( x ) :\n  return x"
        assert DomainCorpus.from_texts("d", [text]) == DomainCorpus.from_texts("d", [text])


class TestVocabularyBuild:
    def test_unk_first_then_sorted(self):
        vocab = build_vocabulary([["b", "a"], ["c", "a"]])
        assert vocab.tokens == (UNK_TOKEN, "a", "b", "c")

    def test_oov_maps_to_unk(self):
        vocab = build_vocabulary([["a", "b"]])
        corpus = DomainCorpus.from_texts("d", ["a zzz b"], vocabulary=vocab)
        assert corpus.documents == [(1, 0, 2)]

    def test_no_tokens_names_the_domain(self):
        with pytest.raises(InputError, match="domain 'd' has no tokens: every document is empty"):
            DomainCorpus.from_texts("d", ["", "  \n\t"])
        with pytest.raises(InputError, match="domain 'd' has no tokens"):
            DomainCorpus.from_texts("d", [])

    def test_blank_documents_dropped(self):
        corpus = DomainCorpus.from_texts("d", ["a b", "   ", "b"])
        assert len(corpus.documents) == 2


class TestSamplePrompts:
    def test_single_document(self):
        corpus = DomainCorpus.from_texts("d", ["a b c d e"])
        prompts = sample_prompts(corpus, 1, seed=0, max_len=3)
        assert prompts.prompts == [corpus.documents[0][:3]]

    def test_same_seed_identical(self):
        corpus = synthetic_corpus("chat", n_docs=30, seed=1)
        first = sample_prompts(corpus, 10, seed=42)
        second = sample_prompts(corpus, 10, seed=42)
        assert first == second

    def test_different_seed_differs(self):
        corpus = synthetic_corpus("chat", n_docs=30, seed=1)
        assert (
            sample_prompts(corpus, 10, seed=1).doc_indices
            != sample_prompts(corpus, 10, seed=2).doc_indices
        )

    def test_frozen_index_fixture(self):
        corpus = synthetic_corpus("chat", n_docs=200, seed=7)
        prompts = sample_prompts(corpus, 50, seed=42, max_len=512)
        assert prompts.doc_indices == FROZEN_DOC_INDICES
        assert len(set(prompts.doc_indices)) == 50  # without replacement

    def test_with_replacement_when_scarce(self):
        corpus = DomainCorpus.from_texts("d", ["a b", "b a"])
        prompts = sample_prompts(corpus, 5, seed=3)
        assert len(prompts.prompts) == 5

    def test_truncation(self):
        corpus = synthetic_corpus("math", n_docs=5, seed=2)
        prompts = sample_prompts(corpus, 3, seed=42, max_len=40)
        assert all(len(p) == 40 for p in prompts.prompts)

    def test_empty_corpus_rejected(self):
        corpus = DomainCorpus("d", [], Vocabulary((UNK_TOKEN, "a")))
        with pytest.raises(InputError):
            sample_prompts(corpus, 1, seed=0)

    def test_bad_n_rejected(self):
        corpus = DomainCorpus.from_texts("d", ["a b"])
        with pytest.raises(InputError):
            sample_prompts(corpus, 0, seed=0)


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

    def test_bad_order_rejected(self):
        corpus = DomainCorpus.from_texts("d", ["a b"])
        with pytest.raises(InputError):
            train_models(corpus, 0, 2, smoothing=0.1)


class TestSynthetic:
    def test_all_domains(self):
        corpora = synthetic_corpora(n_docs=5, seed=9)
        assert sorted(corpora) == ["chat", "code", "math", "reasoning"]

    def test_deterministic(self):
        a = synthetic_corpus("code", n_docs=8, seed=11)
        b = synthetic_corpus("code", n_docs=8, seed=11)
        assert a.documents == b.documents
        assert a.vocabulary.tokens == b.vocabulary.tokens

    def test_doc_length_and_end_token(self):
        corpus = synthetic_corpus("reasoning", n_docs=4, seed=13, doc_len=300)
        assert all(len(doc) >= 300 for doc in corpus.documents)
        end = corpus.vocabulary.index_of(END_TOKEN)
        assert all(end in doc for doc in corpus.documents)

    def test_unknown_domain(self):
        with pytest.raises(InputError):
            synthetic_corpus("poetry")


class TestIO:
    def test_load_domain_dir(self, tmp_path):
        d = tmp_path / "chat"
        d.mkdir()
        (d / "b.txt").write_text("b b b")
        (d / "a.txt").write_text("a a")
        corpus = load_domain_dir(d)
        assert corpus.domain == "chat"
        assert len(corpus.documents) == 2
        # files read in sorted order
        assert corpus.documents[0] == tuple([corpus.vocabulary.index_of("a")] * 2)

    def test_load_corpora(self, tmp_path):
        for name in ("alpha", "beta"):
            d = tmp_path / name
            d.mkdir()
            (d / "doc.txt").write_text(f"{name} text here")
        corpora = load_corpora(tmp_path)
        assert sorted(corpora) == ["alpha", "beta"]

    def test_load_empty_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(InputError):
            load_domain_dir(tmp_path / "empty")
