import itertools
import math

import numpy as np
import pytest

from treespec import (
    InputError,
    NGramModel,
    TableModel,
    Vocabulary,
    entropy_nats,
    top_candidates,
    validate_dist,
)
from treespec.model import context_suffix

AB = Vocabulary(("a", "b"))
WXYZ = Vocabulary(("w", "x", "y", "z"))


def hand_count_bigram(corpus, context_token, successor, smoothing, vocab_size):
    """Independent oracle: (count + s) / (total + s*|V|) from raw pair counts."""
    pairs = list(zip(corpus, corpus[1:]))
    count = sum(1 for a, b in pairs if a == context_token and b == successor)
    total = sum(1 for a, _ in pairs if a == context_token)
    return (count + smoothing) / (total + smoothing * vocab_size)


class TestVocabulary:
    def test_bijection(self):
        assert WXYZ.size == 4
        for i, tok in enumerate(WXYZ.tokens):
            assert WXYZ.index_of(tok) == i

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Vocabulary(("a", "a", "b"))

    def test_rejects_tiny(self):
        with pytest.raises(InputError):
            Vocabulary(("a",))

    def test_unknown_token(self):
        with pytest.raises(InputError):
            AB.index_of("zzz")


class TestCheckContext:
    model = TableModel(WXYZ, [0.25, 0.25, 0.25, 0.25])

    @pytest.mark.parametrize(
        "context",
        [[], (), [0, 3, 1], (3,), [np.int64(2), np.int32(0)], np.array([1, 2, 3])],
    )
    def test_in_vocabulary_accepted(self, context):
        self.model.check_context(context)

    @pytest.mark.parametrize(
        "context",
        [[-1], [0, 1, -5], [4], [0, 99], [np.int64(4)], np.array([0, -1]), np.array([7])],
    )
    def test_outside_vocabulary_rejected(self, context):
        with pytest.raises(InputError, match="outside the model vocabulary"):
            self.model.check_context(context)


class TestValidateDist:
    def test_accepts_valid(self):
        validate_dist([0.5, 0.25, 0.25])

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            validate_dist([1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(InputError):
            validate_dist([0.5, 0.4])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            validate_dist([0.5, 0.5], size=3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(InputError, match="non-finite"):
            validate_dist([value, 1.0])
        with pytest.raises(InputError, match="non-finite"):
            TableModel(AB, [value, 1.0])
        with pytest.raises(InputError, match="non-finite"):
            TableModel(AB, [0.5, 0.5], {(0,): [1.0, value]})


class TestNextTokenDist:
    def test_uniform_table_model(self):
        model = TableModel(WXYZ, [0.25, 0.25, 0.25, 0.25])
        for context in ([0], [3, 2], [1, 1, 1]):
            assert np.allclose(model.next_token_dist(context), [0.25] * 4)

    def test_bigram_hand_count(self):
        corpus = [0, 1, 0, 1, 0]  # "a b a b a"
        for smoothing in (0.0, 0.5, 1.0):
            model = NGramModel.fit(AB, [corpus], order=2, smoothing=smoothing)
            dist = model.next_token_dist([0])
            for successor in (0, 1):
                expected = hand_count_bigram(corpus, 0, successor, smoothing, AB.size)
                assert dist[successor] == pytest.approx(expected, abs=1e-12)

    def test_empty_context_order_one(self):
        model = NGramModel.fit(AB, [[0, 1, 0, 1, 0]], order=1, smoothing=0.0)
        assert np.allclose(model.next_token_dist([]), [0.6, 0.4])

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_bad_smoothing(self, smoothing):
        with pytest.raises(InputError, match="smoothing must be finite and >= 0"):
            NGramModel.fit(AB, [[0, 1, 0]], order=2, smoothing=smoothing)
        with pytest.raises(InputError, match="smoothing must be finite and >= 0"):
            NGramModel(AB, 2, {(0,): {1: 1}}, smoothing)

    def test_successor_outside_vocabulary_rejected(self):
        # It used to score token 5 at 0.917 in a two-token vocabulary.
        with pytest.raises(InputError, match="token 5 outside the model vocabulary of 2"):
            NGramModel(AB, 2, {(0,): {5: 1}}, 0.1)
        with pytest.raises(InputError, match="token -1 outside"):
            NGramModel(AB, 2, {(0,): {-1: 1}}, 0.1)

    def test_context_token_outside_vocabulary_rejected(self):
        with pytest.raises(InputError, match="token 2 outside the model vocabulary of 2"):
            NGramModel(AB, 3, {(0, 2): {1: 1}}, 0.1)

    def test_negative_count_rejected(self):
        # It used to give a uniform row.
        with pytest.raises(InputError, match=r"count -3 after context \(0,\) is not"):
            NGramModel(AB, 2, {(0,): {1: -3}}, 0.1)

    @pytest.mark.parametrize("count", [1.5, 2.0, "3", None])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(InputError, match="not a non-negative integer"):
            NGramModel(AB, 2, {(0,): {0: 1, 1: count}}, 0.1)

    def test_context_longer_than_window_rejected(self):
        with pytest.raises(InputError, match=r"context \(0, 1\) is longer than order - 1 = 1"):
            NGramModel(AB, 2, {(0, 1): {1: 1}}, 0.1)
        with pytest.raises(InputError, match="longer than order - 1 = 0"):
            NGramModel(AB, 1, {(0,): {1: 1}}, 0.1)

    def test_empty_row_kept(self):
        for order, context in ((1, ()), (2, (0,))):
            model = NGramModel(AB, order, {context: {}}, 0.0)
            assert model.counts == {context: {}}
            assert np.array_equal(model.next_token_dist(list(context)), [0.5, 0.5])

    def test_fit_token_outside_vocabulary_rejected(self):
        with pytest.raises(InputError, match="outside the model vocabulary"):
            NGramModel.fit(AB, [[0, 1], [1, 2]], order=2, smoothing=0.1)

    def test_unknown_token_in_context(self):
        model = NGramModel.fit(AB, [[0, 1]], order=2, smoothing=0.1)
        with pytest.raises(InputError):
            model.next_token_dist([0, 7])

    def test_unseen_context_smoothed_is_uniform(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2]], order=3, smoothing=0.3)
        assert np.allclose(model.next_token_dist([3, 3]), [0.25] * 4)

    def test_unseen_context_unsmoothed_falls_back_to_uniform(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2]], order=3, smoothing=0.0)
        dist = model.next_token_dist([3, 3])
        assert np.allclose(dist, [0.25] * 4)

    def test_sums_to_one_over_random_contexts(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            size = int(rng.integers(2, 12))
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            doc = [int(t) for t in rng.integers(0, size, size=80)]
            order = int(rng.integers(1, 4))
            model = NGramModel.fit(vocab, [doc], order=order, smoothing=float(rng.uniform(0, 0.8)))
            context = [int(t) for t in rng.integers(0, size, size=int(rng.integers(0, 6)))]
            dist = np.asarray(model.next_token_dist(context))
            assert abs(dist.sum() - 1.0) < 1e-9
            assert np.all(dist >= 0)

    def test_deterministic(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=2, smoothing=0.2)
        a = model.next_token_dist([0, 1])
        b = model.next_token_dist([0, 1])
        assert np.array_equal(a, b)

    def test_batched_matches_single(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=2, smoothing=0.2)
        contexts = [[0], [1, 2], [3, 3, 3]]
        batched = model.next_token_dists(contexts)
        for ctx, dist in zip(contexts, batched):
            assert np.array_equal(dist, model.next_token_dist(ctx))


class TestContextWindow:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_ngram_window_is_order_minus_one(self, order):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3]], order=order, smoothing=0.1)
        assert model.context_window == order - 1

    def test_table_model_reads_whole_context(self):
        assert TableModel(WXYZ, [0.25] * 4).context_window is None

    def test_context_suffix(self):
        assert context_suffix([4, 5, 6, 7], 2) == [6, 7]
        assert context_suffix([5, 6], 3) == [5, 6]  # shorter than the window
        assert context_suffix([5, 6, 7], 0) == []
        assert context_suffix((5, np.int64(6)), None) == [5, 6]

    def test_short_context_scored_like_full(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 1, 2, 0, 1, 3]], order=4, smoothing=0.1)
        for context in ([1], [0, 1], [2, 0, 1], [3, 2, 0, 1]):
            suffix = context_suffix(context, model.context_window)
            assert np.array_equal(model.next_token_dist(suffix), model.next_token_dist(context))

    def test_fit_matches_position_loop(self):
        # Reference: one count per position, keyed on the up-to-(order-1)
        # tokens before it; the fit must equal it, with each row's tokens
        # in ascending order.
        rng = np.random.default_rng(11)
        for _ in range(40):
            order = int(rng.integers(1, 5))
            docs = [[int(t) for t in rng.integers(0, 4, size=int(rng.integers(0, 12)))]
                    for _ in range(int(rng.integers(1, 4)))]
            expected = position_loop_counts(docs, order)
            counts = NGramModel.fit(WXYZ, docs, order=order, smoothing=0.1).counts
            assert counts == expected
            assert {k: list(r) for k, r in counts.items()} == {
                k: sorted(r) for k, r in expected.items()
            }


def position_loop_counts(docs, order):
    """One count per position, keyed on the up-to-(order-1) tokens before it."""
    expected: dict = {}
    for doc in docs:
        for i, token in enumerate(doc):
            row = expected.setdefault(tuple(doc[max(0, i - order + 1):i]), {})
            row[token] = row.get(token, 0) + 1
    return expected


class TestCountStore:
    """The fitted count columns against the position loop, row by row."""

    def check_against_position_loop(self, rng, size, order, docs, smoothing):
        vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
        model = NGramModel.fit(vocab, docs, order=order, smoothing=smoothing)
        expected = position_loop_counts(docs, order)
        assert model.counts == expected
        assert len(model.counts) == len(expected)
        packed = NGramModel(vocab, order, expected, smoothing)
        assert packed.counts == expected
        span = order - 1
        contexts = [list(key) for key in expected]
        # Full-length contexts behind a longer history, short and unseen ones.
        contexts += [[int(rng.integers(size)), *key] for key in expected if len(key) == span]
        contexts += [[int(t) for t in rng.integers(0, size, size=int(rng.integers(0, order + 2)))]
                     for _ in range(10)]
        for context in contexts:
            row = expected.get(tuple(context[-span:]) if span else ())
            dist = model.next_token_dist(context)
            assert dist.denom == (sum(row.values()) if row else 0) + smoothing * size
            dense = dense_dist(model, context)
            assert_same_bits(dist, dense)
            assert_same_bits(packed.next_token_dist(context), dense)
            assert top_candidates(dist, min(3, size)) == top_candidates(dense, min(3, size))
            assert entropy_nats(dist).hex() == entropy_nats(dense).hex()
        assert len(model._entropies) <= len(model.counts) + 1

    def test_random_shapes(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            size = int(rng.integers(2, 61))
            order = int(rng.integers(1, 6))
            # A small alphabet repeats contexts; lengths run from empty past the span.
            alphabet = int(rng.integers(1, size + 1))
            docs = [
                [int(t) for t in rng.integers(0, alphabet, size=int(rng.integers(0, 3 * order)))]
                for _ in range(int(rng.integers(0, 5)))
            ]
            smoothing = float(rng.choice([0.0, 0.1, 1.0]))
            self.check_against_position_loop(rng, size, order, docs, smoothing)

    def test_codes_past_int64_packing(self):
        # (4000 + 1) ** 6 > 2 ** 63: a context packed into one int64 overflows.
        rng = np.random.default_rng(47)
        size, order = 4000, 7
        assert (size + 1) ** (order - 1) > 2 ** 63
        head = [3999, 3998, 0, 3999, 3998, 3999, 1]
        docs = [head, head[:3], [], [int(t) for t in rng.integers(0, size, size=9)], head * 2]
        self.check_against_position_loop(rng, size, order, docs, 0.1)

    def test_no_documents(self):
        rng = np.random.default_rng(53)
        for order in (1, 3):
            self.check_against_position_loop(rng, 5, order, [], 0.5)
            self.check_against_position_loop(rng, 5, order, [[], []], 0.0)


class TestTopCandidates:
    def test_basic(self):
        assert top_candidates([0.1, 0.7, 0.2], 2) == [(1, 0.7), (2, 0.2)]

    def test_tie_break_by_index(self):
        assert top_candidates([0.25, 0.25, 0.25, 0.25], 2) == [(0, 0.25), (1, 0.25)]

    def test_k_equals_vocab(self):
        assert top_candidates([0.5, 0.3, 0.2], 3) == [(0, 0.5), (1, 0.3), (2, 0.2)]

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        model = NGramModel.fit(Vocabulary(("a", "b", "c")), [[0, 1, 2]], order=2, smoothing=0.1)
        for dist in ([0.5, 0.3, 0.2], model.next_token_dist([0])):
            with pytest.raises(InputError):
                top_candidates(dist, k)

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            size = int(rng.integers(2, 15))
            weights = rng.random(size)
            dist = weights / weights.sum()
            picked = top_candidates(dist, size)
            assert sorted(i for i, _ in picked) == list(range(size))
            probs = [p for _, p in picked]
            assert probs == sorted(probs, reverse=True)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy_nats([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_is_log_v(self):
        assert entropy_nats([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_half_half(self):
        assert entropy_nats([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            weights = rng.random(8)
            dist = weights / weights.sum()
            shuffled = rng.permutation(dist)
            assert entropy_nats(shuffled) == pytest.approx(entropy_nats(dist), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            size = int(rng.integers(2, 30))
            weights = rng.random(size)
            weights[rng.integers(0, size)] = 0.0
            dist = weights / weights.sum()
            h = entropy_nats(dist)
            assert 0.0 <= h <= math.log(size) + 1e-12


# --- sparse rows against the dense builder ------------------------------------


def dense_dist(model, context):
    """The dense builder NGramModel used before SparseRow, kept as the oracle."""
    key = tuple(int(t) for t in context[-(model.order - 1):]) if model.order > 1 else ()
    row = model.counts.get(key)
    size = model.vocab.size
    denom = (sum(row.values()) if row else 0) + model.smoothing * size
    if denom <= 0.0:
        return np.full(size, 1.0 / size)
    probs = np.full(size, model.smoothing, dtype=np.float64)
    if row:
        for token, count in row.items():
            probs[token] += count
    probs /= denom
    return probs


def random_counts(rng, size, order, high=4):
    """Rows of counts in [0, high), so at the default high tokens tie within
    a row and (at count 0) with the floor; rows run from one token to every
    token, () among them."""
    counts = {}
    for _ in range(int(rng.integers(1, 8))):
        length = 0 if order == 1 or rng.random() < 0.2 else int(rng.integers(1, order))
        key = tuple(int(t) for t in rng.integers(0, size, size=length))
        width = int(rng.integers(1, size + 1))
        tokens = rng.choice(size, size=width, replace=False)
        counts[key] = {int(t): int(rng.integers(0, high)) for t in tokens}
    return counts


def assert_same_bits(a, b):
    assert np.asarray(a).dtype == np.float64
    assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestSparseRow:
    @pytest.mark.parametrize("smoothing", [0.0, 1e-3, 0.1, 1.0])
    def test_matches_dense_builder_bit_for_bit(self, smoothing):
        rng = np.random.default_rng(int(smoothing * 1000) + 17)
        for _ in range(40):
            size = int(rng.integers(2, 61))
            order = int(rng.integers(1, 5))
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            counts = random_counts(rng, size, order)
            model = NGramModel(vocab, order, counts, smoothing)
            contexts = [[], *(list(key) for key in counts)]
            for _ in range(100):
                unseen = [int(t) for t in rng.integers(0, size, size=order - 1)]
                if tuple(unseen) not in counts:
                    # First, so that its cached entropy cannot stand in for
                    # the () row's.
                    contexts.insert(0, unseen)
                    break
            for context in contexts:
                dist = model.next_token_dist(context)
                dense = dense_dist(model, context)
                assert_same_bits(dist, dense)
                assert_same_bits(validate_dist(dist, size), dense)
                assert [dist[t] for t in range(size)] == [float(p) for p in dense]
                for k in range(1, size + 1):
                    assert top_candidates(dist, k) == top_candidates(dense, k)
                assert top_candidates(dist, 1)[0][0] == int(np.argmax(dense))
                assert entropy_nats(dist).hex() == entropy_nats(dense).hex()
                assert entropy_nats(dist).hex() == entropy_nats(dense).hex()  # cached

    def test_entropy_matches_dense_at_large_vocabularies(self):
        # Past 128 entries numpy's pairwise sum splits the array into blocks;
        # counts up to 10^4 give thousands of distinct p ln p terms.
        rng = np.random.default_rng(29)
        for size in (129, 517, 4000, 8193):
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            for smoothing, high in itertools.product((1e-3, 0.1, 1.0), (4, 10_000)):
                model = NGramModel(vocab, 2, random_counts(rng, size, 2, high), smoothing)
                for context in [[], *(list(key) for key in model.counts)]:
                    dist = model.next_token_dist(context)
                    dense = dense_dist(model, context)
                    assert entropy_nats(dist).hex() == entropy_nats(dense).hex()
                    assert top_candidates(dist, 40) == top_candidates(dense, 40)

    def test_log_does_not_depend_on_array_length(self):
        # SparseRow.entropy takes its p ln p terms from a short array and the
        # dense path from a vocabulary-sized one; their bits agree only while
        # np.log gives a value the same result wherever it sits.
        values = np.random.default_rng(31).random(20_000) + 1e-12
        whole = np.log(values)
        for step in (1, 2, 3, 9):
            parts = [np.log(values[i:i + step]) for i in range(0, values.size, step)]
            assert_same_bits(np.concatenate(parts), whole)

    def test_entropy_cache_keyed_per_count_row(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 0, 1, 3, 3, 2]], order=3, smoothing=0.1)
        for context in ([2, 2], [3, 0], [], [0], [0, 1], [2, 0, 1]):
            entropy_nats(model.next_token_dist(context))
        # [2, 2] and [3, 0] are unseen and share one entry; [2, 0, 1] reads (0, 1).
        assert set(model._entropies) == {None, (), (0,), (0, 1)}
        assert len(model._entropies) <= len(model.counts) + 1

    def test_top_repeats_and_hands_out_copies(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 0, 1, 3, 3, 2]], order=2, smoothing=0.1)
        dist = model.next_token_dist([0])
        dense = dense_dist(model, [0])
        for k in (1, 3, 4):
            first = dist.top(k)
            assert first == top_candidates(dense, k)
            first.append((99, 2.0))
            first[0] = (99, 2.0)
            assert dist.top(k) == top_candidates(dense, k)
            assert top_candidates(dist, k) == top_candidates(dense, k)
            assert dist.top(k) is not dist.top(k)
        assert sorted(dist.tops) == [1, 3, 4]
        # The row is cached on the model, so a later lookup reuses its rankings.
        assert model.next_token_dist([0]).tops is dist.tops
        with pytest.raises(InputError):
            dist.top(5)
        assert 5 not in dist.tops

    def test_token_out_of_range(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 0, 1, 3]], order=2, smoothing=0.1)
        dist = model.next_token_dist([0])
        assert dist[np.int64(1)] == dense_dist(model, [0])[1]
        for token in (4, -1):
            with pytest.raises(IndexError):
                dist[token]

    def test_asarray_dtype(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2]], order=2, smoothing=0.1)
        dist = model.next_token_dist([0])
        assert np.asarray(dist, dtype=np.float32).dtype == np.float32
        assert_same_bits(np.asarray(dist, dtype=np.float64), dense_dist(model, [0]))
