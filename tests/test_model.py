import concurrent.futures
import functools
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from conftest import (TableModel, checked_dist, corpus_of, dense_batch, ngram_model,
                      top_candidates, window_tuples)
from treespec import (
    InputError,
    LanguageModel,
    NGramModel,
    RowBatch,
    Vocabulary,
    entropy_nats,
    train_models,
)
from treespec import model as model_module

AB = Vocabulary(("a", "b"))
WXYZ = Vocabulary(("w", "x", "y", "z"))


def fits(vocab):
    """The order-2 model of some documents, by ``NGramModel.fit`` and by ``train_models``."""
    return (lambda documents: NGramModel.fit(vocab, documents, 2, 0.1),
            lambda documents: train_models(corpus_of("d", documents, vocab), 1, 2, 0.1)[1])


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
    """``windows`` checks every whole context, or every row of an array of windows, and returns
    the model's window of each; a batch, of many contexts or of one, applies the same rule."""

    trigram = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=3, smoothing=0.2)
    unigram = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=1, smoothing=0.2)  # span 0
    table = TableModel(WXYZ, [0.25] * 4, {(1, 2, 3): [0.7, 0.1, 0.1, 0.1], (3,): [0.1, 0.7, 0.1, 0.1]},
                       context_window=3)

    def calls(self, context):
        """Each way ``context`` reaches each model's rule, after a good context."""
        for model in (self.trigram, self.unigram, self.table):
            yield functools.partial(model.windows, [[0], context])
            yield functools.partial(model.next_token_dists, [[0], context])
            yield functools.partial(model.next_token_dist, context)

    @pytest.mark.parametrize(
        "context, window",
        [([], ()), ((), ()), ([0, 3, 1], (3, 1)), ((3,), (3,)),
         ([np.int64(2), np.int32(0)], (2, 0)), (np.array([1, 2, 3]), (2, 3))],
    )
    def test_in_vocabulary_accepted(self, context, window):
        whole = tuple(map(int, context))
        for model, want in ((self.trigram, window), (self.unigram, ()), (self.table, whole)):
            got = model.windows([[0], context])
            assert got.dtype == np.int64 and got.shape == (2, model.context_window)
            assert window_tuples(got) == [(0,)[:model.context_window], want]
            dense = model.next_token_dist(want)
            assert np.array_equal(model.next_token_dist(context), dense)
            assert np.array_equal(model.next_token_dists([[0], context]).dense()[1], dense)

    @pytest.mark.parametrize(
        "context",
        [[-1], [0, 1, -5], [4], [0, 99], [np.int64(4)], np.array([0, -1]), np.array([7]),
         [99, 0, 1], [-1, 2, 3, 0]],
    )
    def test_outside_vocabulary_rejected(self, context):
        # Anywhere in the context, before the window too.
        for call in self.calls(context):
            with pytest.raises(InputError, match=r"^context tokens must be 1-D of integers in \[0, 4\)$"):
                call()

    @pytest.mark.parametrize(
        "context",
        [[1.5], [0, 1.5], [1.5, 0, 1], [float("nan")], [2, float("nan")], [float("nan"), 0, 1],
         ["1"], [None, 0, 1], ["a", 0, 1], [0, 1, "x"],
         # Each was taken as the integer it equals, though an array of it is rejected.
         [True, 1], [1.0], [0, np.float64(2.0)], [np.True_]],
    )
    def test_token_that_is_not_an_integer_rejected(self, context):
        # Before the window too; the message names the context.
        for call in self.calls(context):
            with pytest.raises(InputError, match="not an integer") as caught:
                call()
            assert repr(tuple(context)) in str(caught.value)

    @pytest.mark.parametrize("rows", [
        [[-1, -1, 2], [0, 1, 3], [-1, -1, -1]],  # leading -1 runs, a whole row of them too
        [[3], [-1]],  # narrower than the trigram's and the table's windows
        [[-1, -1, 1, 2, 3], [3, 2, 1, 0, 3]],  # wider than every window
        np.zeros((2, 0), dtype=np.int64),
        np.zeros((0, 4), dtype=np.int64),
    ])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_window_array_accepted(self, rows, dtype):
        # As the contexts that the rows' tokens make.
        rows = np.asarray(rows, dtype=dtype)
        contexts = [[t for t in row if t >= 0] for row in rows.tolist()]
        for model in (self.trigram, self.unigram, self.table):
            got = model.windows(rows)
            assert got.dtype == np.int64 and got.shape == (len(rows), model.context_window)
            assert np.array_equal(got, model.windows(contexts))
            batch, plain = model.next_token_dists(rows), model.next_token_dists(contexts)
            assert np.array_equal(batch.dense(), plain.dense())
            assert np.array_equal(batch.entropies(), plain.entropies())

    @pytest.mark.parametrize("rows, match", [
        (np.array([0, 1]), "2-D"),
        (np.zeros((1, 2, 2), dtype=np.int64), "2-D"),
        (np.array([[0.0, 1.0]]), "2-D of integers"),
        (np.array([[0, 1]], dtype=object), "2-D of integers"),
        (np.array([[True, False]]), "2-D of integers"),
        (np.array([[-2, 1]]), r"2-D of integers in \[-1, 4\)"),
        (np.array([[0, 1], [1, 4]]), r"2-D of integers in \[-1, 4\)"),
        (np.array([[2**40, 1]]), r"2-D of integers in \[-1, 4\)"),
        (np.array([[0, -1, 1]]), "-1 after a token"),
        (np.array([[-1, 2, -1, 3, 0]]), "-1 after a token"),  # before every window
        (np.array([[1, -1]]), "-1 after a token"),
    ])
    def test_window_array_rejected(self, rows, match):
        for model in (self.trigram, self.unigram, self.table):
            for call in (model.windows, model.next_token_dists):
                with pytest.raises(InputError, match=match):
                    call(rows)


class TestValidateDist:
    """``checked_dist``, the suite's check that a model row is a distribution,
    fails on each defect it stands guard for."""

    def test_accepts_valid(self):
        dist = checked_dist(np.array([0.5, 0.25, 0.25]), 3)
        assert dist.tolist() == [0.5, 0.25, 0.25]

    def test_rejects_negative(self):
        with pytest.raises(AssertionError):
            checked_dist(np.array([1.5, -0.5]), 2)

    def test_rejects_bad_sum(self):
        with pytest.raises(AssertionError):
            checked_dist(np.array([0.5, 0.4]), 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(AssertionError):
            checked_dist(np.array([0.5, 0.5]), 3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(AssertionError):
            checked_dist(np.array([value, 1.0]), 2)


class TestNextTokenDist:
    def test_uniform_table_model(self):
        model = TableModel(WXYZ, [0.25, 0.25, 0.25, 0.25], context_window=3)
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

    # "0.1" and None raised a bare TypeError, and True was taken as 1.
    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf, -0.1, "0.1", None, True])
    def test_rejects_bad_smoothing(self, smoothing):
        with pytest.raises(InputError, match="smoothing must be finite and >= 0"):
            NGramModel.fit(AB, [[0, 1, 0]], order=2, smoothing=smoothing)

    # 2.5 raised a bare TypeError, and True fitted order 1.
    @pytest.mark.parametrize("order", [0, 2.5, True])
    def test_rejects_bad_order(self, order):
        with pytest.raises(InputError, match=f"^order must be an integer >= 1, got {order!r}$"):
            NGramModel.fit(AB, [[0, 1, 0]], order=order, smoothing=0.1)

    def test_empty_row_kept(self):
        for order, context in ((1, ()), (2, (0,))):
            model = ngram_model(AB, order, {context: {}}, 0.0)
            assert model.counts == {context: {}}
            assert np.array_equal(model.next_token_dist(list(context)), [0.5, 0.5])

    def test_fit_token_outside_vocabulary_rejected(self):
        # Past int64 too, through both entry points.
        for documents in ([[0, 1], [1, 2]], [[0, 2**70]], [[-2**70, 1]]):
            for fit in fits(AB):
                with pytest.raises(InputError, match=r"tokens must be 1-D of integers in \[0, 2\)$"):
                    fit(documents)

    @pytest.mark.parametrize("documents", [
        [[0, 1.5, 2]], [(0, 1.5, 2)], [[0, 1], [2, 0.5]], [[float("nan")]], [["1"]], [[0, None]],
        [[np.int64(2**62)] * 4 + [0.5]],
        # Each was counted as the integer it equals.
        [[0, 1.0, 2]], [[0, True, 2]], [[np.float64(1)]],
    ])
    def test_fit_token_that_is_not_an_integer_rejected(self, documents):
        # The rule window applies to a context: 1.5 is not counted as 1, nor
        # "1" as 1, by fit or by train_models.
        abc = Vocabulary(("a", "b", "c"))
        for fit in fits(abc):
            with pytest.raises(InputError, match="a document holds a token that is not an integer"):
                fit(documents)
        with pytest.raises(InputError, match="not an integer"):
            NGramModel.fit(abc, [[0, 1, 2]], 2, 0.1).windows(documents[-1:])

    @pytest.mark.parametrize("documents", [[None], [[1, 2], 5], [[0], 1.5], [iter([0, 1])]])
    def test_fit_document_that_is_not_a_sequence_rejected(self, documents):
        # A bare TypeError (no len()) before: both entry points name the document.
        for fit in fits(Vocabulary(("a", "b", "c"))):
            with pytest.raises(InputError, match="^a document is not a sequence of tokens$"):
                fit(documents)

    def test_fit_takes_integer_tokens_of_any_type(self):
        abc = Vocabulary(("a", "b", "c"))
        plain = NGramModel.fit(abc, [[0, 1, 2]], 2, 0.1).counts
        for documents in ([[0, np.int32(1), np.int64(2)]], [np.array([0, 1, 2])], [(0, 1, np.uint8(2))]):
            for fit in fits(abc):
                assert fit(documents).counts == plain

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
            checked_dist(model.next_token_dist(context), size)

    def test_deterministic(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=2, smoothing=0.2)
        a = model.next_token_dist([0, 1])
        b = model.next_token_dist([0, 1])
        assert np.array_equal(a, b)

    def test_batched_matches_single(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=2, smoothing=0.2)
        contexts = [[0], [1, 2], [3, 3, 3]]
        batched = model.next_token_dists(contexts)
        for ctx, dist in zip(contexts, batched.dense()):
            assert np.array_equal(dist, model.next_token_dist(ctx))

    def test_large_batch_matches_single(self):
        # Short, full and longer than the window, unseen ones, numpy ints
        # and repeats, in one batch.
        rng = np.random.default_rng(59)
        vocab = Vocabulary(tuple(f"t{i}" for i in range(30)))
        docs = [[int(t) for t in rng.integers(0, 30, size=200)] for _ in range(3)]
        model = NGramModel.fit(vocab, docs, order=3, smoothing=0.1)
        contexts = [list(rng.integers(0, 30, size=int(rng.integers(0, 6)))) for _ in range(96)]
        contexts += contexts[:5] + [[int(t) for t in c] for c in contexts[5:10]]
        batch = model.next_token_dists(contexts)
        windows = window_tuples(model.windows(contexts))
        for i, (context, window, dense) in enumerate(zip(contexts, windows, batch.dense())):
            single = model.next_token_dists([context])
            assert_same_bits(dense, single.dense()[0])
            assert row_of(batch, i) == row_of(single, 0)
            assert_smoothed_counts(batch, i, model.counts.get(window), 0.1)
        # One row per distinct context; every unseen one shares a row.
        assert batch.floors.size == len({w if w in model.counts else None for w in windows})

    def test_concurrent_batches_match_a_serial_model(self):
        # Four threads send overlapping batches to one fresh model at once.
        # Each batch equals a serial twin's, and the model ends holding the
        # very objects it held before.
        rng = np.random.default_rng(61)
        vocab = Vocabulary(tuple(f"t{i}" for i in range(30)))
        docs = [[int(t) for t in rng.integers(0, 30, size=300)] for _ in range(3)]
        model, twin = (NGramModel.fit(vocab, docs, order=3, smoothing=0.1) for _ in range(2))
        pool = [[int(t) for t in rng.integers(0, 30, size=int(rng.integers(0, 4)))]
                for _ in range(300)]
        batches = [[[pool[i] for i in rng.integers(0, len(pool), size=24)] for _ in range(25)]
                   for _ in range(4)]
        start = threading.Barrier(len(batches))
        before = dict(vars(model))

        def send(mine):
            start.wait(timeout=10)
            return [model.next_token_dists(contexts).dense() for contexts in mine]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(len(batches)) as threads:
                served = list(threads.map(send, batches))
        finally:
            sys.setswitchinterval(interval)
        for mine, dense in zip(batches, served):
            for contexts, got in zip(mine, dense):
                assert_same_bits(got, twin.next_token_dists(contexts).dense())
        assert vars(model).keys() == before.keys()
        assert all(vars(model)[name] is value for name, value in before.items())

    @pytest.mark.parametrize("bad", [[4], [-1], [0, 1, 9]])
    def test_batch_rejects_a_token_outside_the_vocabulary(self, bad):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=2, smoothing=0.2)
        with pytest.raises(InputError):
            model.next_token_dists([[0], bad, [1]])

    @pytest.mark.parametrize("bad", [[1.5], [0, 2.5], [float("nan")], [2, float("nan")]])
    def test_rejects_a_token_that_is_not_an_integer(self, bad):
        # On a first call, and again once the context of the same ints is
        # known; numpy ints are integers.
        plain = [0 if math.isnan(t) else int(t) for t in bad]
        for model in (NGramModel.fit(WXYZ, [[0, 1, 2, 3, 0, 1]], order=3, smoothing=0.2),
                      TableModel(WXYZ, [0.25] * 4, {tuple(plain): [0.7, 0.1, 0.1, 0.1]},
                                 context_window=2)):
            for _ in range(2):
                with pytest.raises(InputError, match="not an integer"):
                    model.next_token_dist(bad)
                with pytest.raises(InputError, match="not an integer"):
                    model.next_token_dists([plain, bad])
                as_numpy, as_plain = (model.next_token_dists([c]) for c in (np.array(plain), plain))
                assert as_numpy.index.tolist() == as_plain.index.tolist()
                assert_same_bits(as_numpy.dense(), as_plain.dense())


class TestContextWindow:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_ngram_window_is_order_minus_one(self, order):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3]], order=order, smoothing=0.1)
        assert model.context_window == order - 1

    def test_every_model_sets_its_window(self):
        # The base class has no default window: every model reads a set number of tokens.
        assert not hasattr(LanguageModel, "context_window")
        assert TableModel(WXYZ, [0.25] * 4, context_window=5).context_window == 5

    def test_window_is_the_last_context_window_tokens(self):
        # Right-aligned, with -1 before the first token of a shorter context.
        contexts = [[0, 1, 2, 3], [2, 3], [1]]  # longer than, as long as and shorter than 2
        for order, windows in ((3, [[2, 3], [2, 3], [-1, 1]]),
                               (4, [[1, 2, 3], [-1, 2, 3], [-1, -1, 1]]), (1, [[], [], []])):
            model = NGramModel.fit(WXYZ, [[0, 1, 2, 3]], order=order, smoothing=0.1)
            got = model.windows(contexts)
            assert got.dtype == np.int64 and got.shape == (3, order - 1)
            assert got.tolist() == windows
            assert model.windows([]).shape == (0, order - 1)
        table = TableModel(WXYZ, [0.25] * 4, context_window=3)
        assert table.windows([(1, np.int64(2)), [3]]).tolist() == [[-1, 1, 2], [-1, -1, 3]]

    def test_short_context_scored_like_full(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 3, 1, 2, 0, 1, 3]], order=4, smoothing=0.1)
        for context in ([1], [0, 1], [2, 0, 1], [3, 2, 0, 1]):
            [suffix] = window_tuples(model.windows([context]))
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
        packed = ngram_model(vocab, order, expected, smoothing)
        assert packed.counts == expected
        span = order - 1
        contexts = [list(key) for key in expected]
        # Full-length contexts behind a longer history, short and unseen ones.
        contexts += [[int(rng.integers(size)), *key] for key in expected if len(key) == span]
        contexts += [[int(t) for t in rng.integers(0, size, size=int(rng.integers(0, order + 2)))]
                     for _ in range(10)]
        for context in contexts:
            row = expected.get(tuple(context[-span:]) if span else ())
            batch = model.next_token_dists([context])
            assert_smoothed_counts(batch, 0, row, smoothing)
            dense = dense_dist(model, context)
            assert_same_bits(model.next_token_dist(context), dense)
            assert_same_bits(packed.next_token_dist(context), dense)
            assert top_lists(batch, min(3, size))[0] == top_candidates(dense, min(3, size))
            assert batch.entropies()[0].hex() == entropy_nats(dense).hex()

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
    """``RowBatch.top`` of dense rows, each listing every token over a floor of 0."""

    def test_basic(self):
        assert top_lists(dense_batch([[0.1, 0.7, 0.2]]), 2) == [[(1, 0.7), (2, 0.2)]]

    def test_tie_break_by_index(self):
        assert top_lists(dense_batch([[0.25, 0.25, 0.25, 0.25]]), 2) == [[(0, 0.25), (1, 0.25)]]

    def test_k_equals_vocab(self):
        assert top_lists(dense_batch([[0.5, 0.3, 0.2]]), 3) == [[(0, 0.5), (1, 0.3), (2, 0.2)]]

    @pytest.mark.parametrize("k", [0, 4, -1, 1.5, True])
    def test_k_out_of_range(self, k):
        model = NGramModel.fit(Vocabulary(("a", "b", "c")), [[0, 1, 2]], order=2, smoothing=0.1)
        for batch in (dense_batch([[0.5, 0.3, 0.2]]), model.next_token_dists([[0]])):
            with pytest.raises(InputError, match=rf"^k must be an integer in \[1, 4\), got {k!r}$"):
                batch.top(k)

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            size = int(rng.integers(2, 15))
            weights = rng.random(size)
            dist = weights / weights.sum()
            [picked] = top_lists(dense_batch([dist]), size)
            assert sorted(i for i, _ in picked) == list(range(size))
            probs = [p for _, p in picked]
            assert probs == sorted(probs, reverse=True)
            assert picked == top_candidates(dist, size)


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

    @pytest.mark.parametrize("dist, match", [
        # Each was summed: to -0.608, 0.0, nan and, over both rows, 1.386.
        ([-0.5, 1.5], r"^a distribution must be probabilities in \[0, 1\], got -0\.5$"),
        ([math.nan, 1.0], r"^a distribution must be probabilities in \[0, 1\], got nan$"),
        ([0.5, math.inf], r"^a distribution must be probabilities in \[0, 1\], got inf$"),
        ([[0.5, 0.5], [0.5, 0.5]], r"^a distribution must be 1-D of probabilities in \[0, 1\]$"),
        (0.5, r"^a distribution must be 1-D of probabilities in \[0, 1\]$"),
        (["a"], r"^a distribution must be 1-D of probabilities in \[0, 1\]$"),
    ])
    def test_rejects_values_that_are_not_probabilities(self, dist, match):
        with pytest.raises(InputError, match=match):
            entropy_nats(dist)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            size = int(rng.integers(2, 30))
            weights = rng.random(size)
            weights[rng.integers(0, size)] = 0.0
            dist = weights / weights.sum()
            h = entropy_nats(dist)
            assert 0.0 <= h <= math.log(size) + 1e-12


# --- row batches against the dense builder -----------------------------------


def dense_dist(model, context):
    """The dense builder NGramModel used before its rows were sparse, kept as the oracle."""
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


def row_of(batch, i):
    """Context i's row of ``batch``: its (token, probability) entries in order and its floor."""
    row = batch.index[i]
    start, stop = batch.offsets[row], batch.offsets[row + 1]
    return list(zip(batch.tokens[start:stop].tolist(), batch.probs[start:stop].tolist())), \
        float(batch.floors[row])


def top_lists(batch, k):
    """``batch.top(k)`` as one list of (token, probability) pairs per context."""
    which, tokens, probs = batch.top(k)
    return [list(zip(tokens[w].tolist(), probs[w].tolist())) for w in which.tolist()]


def assert_smoothed_counts(batch, i, row, smoothing):
    """Context i's row of ``batch`` holds (smoothing + count) / denom of each
    token of the count ``row`` (None for an unseen context) and the floor
    smoothing / denom, bit for bit; with no mass (denom 0), no tokens and
    the floor 1 / |V|."""
    row = row or {}
    denom = sum(row.values()) + smoothing * batch.size
    entries, floor = row_of(batch, i)
    if denom <= 0.0:
        assert (entries, floor) == ([], 1.0 / batch.size)
        return
    assert {t: p.hex() for t, p in entries} == {
        t: ((smoothing + count) / denom).hex() for t, count in row.items()}
    assert floor.hex() == (smoothing / denom).hex()


def spy_on_entropies(monkeypatch):
    """The rows ``_entropies`` sums from now on, in order: every row of each batch it is handed."""
    summed = []
    entropies = model_module._entropies

    def spy(batch):
        summed.extend(range(batch.floors.size))
        return entropies(batch)

    monkeypatch.setattr(model_module, "_entropies", spy)
    return summed


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


class TestRowBatch:
    @pytest.mark.parametrize("smoothing", [0.0, 1e-3, 0.1, 1.0])
    def test_matches_dense_builder_bit_for_bit(self, smoothing):
        rng = np.random.default_rng(int(smoothing * 1000) + 17)
        for _ in range(40):
            size = int(rng.integers(2, 61))
            order = int(rng.integers(1, 5))
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            counts = random_counts(rng, size, order)
            model = ngram_model(vocab, order, counts, smoothing)
            contexts = [[], *(list(key) for key in counts)]
            for _ in range(100):
                unseen = [int(t) for t in rng.integers(0, size, size=order - 1)]
                if tuple(unseen) not in counts:
                    contexts.insert(0, unseen)
                    break
            for context in contexts:
                batch = model.next_token_dists([context])
                dense = dense_dist(model, context)
                assert_same_bits(batch.dense()[0], dense)
                assert_same_bits(checked_dist(model.next_token_dist(context), size), dense)
                assert_same_bits(batch.prob(np.zeros(size, dtype=np.int64), np.arange(size)), dense)
                for k in range(1, size + 1):
                    assert top_lists(batch, k) == [top_candidates(dense, k)]
                assert batch.top(1)[1][0, 0] == int(np.argmax(dense))
                assert batch.entropies()[0].hex() == entropy_nats(dense).hex()

    def test_entropy_matches_dense_at_large_vocabularies(self):
        # Past 128 entries numpy's pairwise sum splits the array into blocks;
        # counts up to 10^4 give thousands of distinct p ln p terms.
        rng = np.random.default_rng(29)
        for size in (129, 517, 4000, 8193):
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            for smoothing, high in itertools.product((1e-3, 0.1, 1.0), (4, 10_000)):
                model = ngram_model(vocab, 2, random_counts(rng, size, 2, high), smoothing)
                contexts = [[], *(list(key) for key in model.counts)]
                batch = model.next_token_dists(contexts)
                dense = [dense_dist(model, context) for context in contexts]
                assert [h.hex() for h in batch.entropies()] == [entropy_nats(d).hex() for d in dense]
                assert top_lists(batch, 40) == [top_candidates(d, 40) for d in dense]

    def test_log_does_not_depend_on_array_length(self):
        # _entropies takes its p ln p terms from arrays of the listed
        # entries and the floors, and the dense path from a vocabulary-sized
        # one; their bits agree only while np.log gives a value the same
        # result wherever it sits.
        values = np.random.default_rng(31).random(20_000) + 1e-12
        whole = np.log(values)
        for step in (1, 2, 3, 9):
            parts = [np.log(values[i:i + step]) for i in range(0, values.size, step)]
            assert_same_bits(np.concatenate(parts), whole)

    @pytest.mark.parametrize("size", [129, 517, 4000, 8193])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_batched_entropies_match_single_rows_and_dense(self, size, smoothing, monkeypatch):
        # Unseen contexts share one row, and a row may repeat.
        summed = spy_on_entropies(monkeypatch)
        rng = np.random.default_rng(size + int(10 * smoothing))
        vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
        counts = {}
        for i, context in enumerate(rng.choice(size, size=11, replace=False)):
            width = int(rng.integers(1, size + 1)) if i % 2 else int(rng.integers(1, 40))
            tokens = rng.choice(size, size=width, replace=False)
            high = 4 if i % 3 else 10_000  # ties and zero counts, or thousands of distinct terms
            counts[(int(context),)] = {int(t): int(rng.integers(0, high)) for t in tokens}
        unseen = [[t] for t in range(size) if (t,) not in counts][:2]
        contexts = [list(key) for key in counts] + unseen + [list(next(iter(counts)))]
        model = ngram_model(vocab, 2, counts, smoothing)
        batch = model.next_token_dists(contexts)
        hs = batch.entropies()
        # The batch holds one row per distinct context, each summed once; at
        # smoothing 0 only the uniform fallback has a positive floor.
        assert summed == list(range(batch.floors.size))
        assert np.count_nonzero(batch.floors > 0.0) == (12 if smoothing else 1)
        for context, h in zip(contexts, hs):
            assert h.hex() == entropy_nats(model.next_token_dist(context)).hex()

    def test_each_row_is_summed_once_per_batch(self, monkeypatch):
        summed = spy_on_entropies(monkeypatch)
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 0, 1, 3, 3, 2]], order=3, smoothing=0.1)
        batch = model.next_token_dists([[2, 2], [3, 0], [], [0], [0, 1], [2, 0, 1]])
        # [2, 2] and [3, 0] are unseen and share row 0; [2, 0, 1] reads (0, 1).
        assert batch.index.tolist() == [0, 0, 1, 2, 3, 3]
        dense = [entropy_nats(vector) for vector in batch.dense()]
        assert batch.entropies().tolist() == dense
        assert summed == [0, 1, 2, 3]
        # A later batch holds only its own rows and sums each of them.
        summed.clear()
        later = model.next_token_dists([[0, 1], [1, 2], [2, 2]])
        assert later.entropies().tolist() == [dense[4], entropy_nats(later.dense()[1]), dense[0]]
        assert summed == [0, 1, 2]

    def test_top_hands_out_new_arrays(self):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 0, 1, 3, 3, 2]], order=2, smoothing=0.1)
        batch = model.next_token_dists([[0]])
        dense = dense_dist(model, [0])
        for k in (1, 3, 4):
            _, tokens, probs = batch.top(k)
            assert top_lists(batch, k) == [top_candidates(dense, k)]
            tokens[0], probs[0] = 99, 2.0
            assert top_lists(batch, k) == [top_candidates(dense, k)]
        with pytest.raises(InputError):
            batch.top(5)

    @pytest.mark.parametrize("size, row, floor, dense", [
        # The last listed probability equals the floor, so it ties with
        # tokens 0 and 2 outside the row, which rank before it.
        (6, {3: 0.4, 1: 0.2, 5: 0.1}, 0.1, [0.1, 0.2, 0.1, 0.4, 0.1, 0.1]),
        # Ties inside the row, given out of rank order.
        (5, {3: 0.3, 0: 0.2, 1: 0.3}, 0.1, [0.2, 0.3, 0.1, 0.3, 0.1]),
        # A zero floor: tokens outside the row have probability 0.
        (5, {1: 0.25, 4: 0.5, 3: 0.25}, 0.0, [0.0, 0.25, 0.0, 0.25, 0.5]),
        # A listed probability under the floor, given before a higher one.
        (3, {0: 0.2, 1: 0.5}, 0.3, [0.2, 0.5, 0.3]),
        # A listed zero under a positive floor.
        (4, {2: 0.0, 0: 0.5}, 0.25, [0.5, 0.25, 0.0, 0.25]),
    ])
    def test_hand_built_rows_match_their_dense_vectors(self, size, row, floor, dense):
        batch = RowBatch(size, [0, len(row)], list(row), list(row.values()), [floor])
        assert_same_bits(batch.dense()[0], dense)
        assert_same_bits(batch.prob(np.zeros(size, dtype=np.int64), np.arange(size)), dense)
        for k in range(1, size + 1):
            assert top_lists(batch, k) == [top_candidates(dense, k)]
        assert batch.entropies()[0].hex() == entropy_nats(dense).hex()

    def test_constructor_ranks_the_rows_it_is_given(self):
        # It used to trust the caller's order and rank (2, 0.3) first.
        batch = RowBatch(3, [0, 2], [0, 1], [0.2, 0.5], [0.3])
        assert top_lists(batch, 1) == [[(1, 0.5)]]
        assert row_of(batch, 0) == ([(1, 0.5), (0, 0.2)], 0.3)

    @pytest.mark.parametrize("offsets, tokens, probs, floors, index, match", [
        # A token past the vocabulary of 3, which top(1) used to hand out.
        ([0, 1], [5], [0.5], [0.25], None, r"row tokens must be 1-D of integers in \[0, 3\)"),
        ([0, 1], [-1], [0.5], [0.25], None, r"row tokens must be 1-D of integers in \[0, 3\)"),
        # -1 used to serve the last row, and 1 raised a bare IndexError.
        ([0, 1], [1], [0.5], [0.25], [-1], r"index must be 1-D of integers in \[0, 1\)"),
        ([0, 1], [1], [0.5], [0.25], [0, 1], r"index must be 1-D of integers in \[0, 1\)"),
        ([0, 1], [1], [0.5], [0.25], [[0]], r"index must be 1-D of integers in \[0, 1\)"),
        # One floor too many used to raise a bare IndexError.
        ([0, 1], [1], [0.5], [0.25, 0.1], None, "needs 1 floors"),
        ([0, 1], [1], [0.5], [], None, "needs 1 floors"),
        ([0, 1], [1], [0.5, 0.2], [0.25], None, "1 probs"),
        # Two tokens in a row of one used to raise a bare ValueError.
        ([0, 1], [0, 1], [0.5, 0.2], [0.25], None, "rise from 0 to 2"),
        ([1, 1], [1], [0.5], [0.25], None, "rise from 0 to 1"),
        ([0, 2, 1], [1], [0.5], [0.25, 0.1], None, r"offsets must be 1-D of integers in \[0, 2\)"),
        ([], [], [], [], None, "rise from 0 to 0"),
        ([[0, 1]], [1], [0.5], [0.25], None, "must be 1-D"),
        ([0, 1], [[1]], [0.5], [0.25], None, "must be 1-D"),
        # A token listed twice in one row: dense() read 0.2 and prob() 0.5.
        ([0, 2], [1, 1], [0.5, 0.2], [0.3], None, "lists a token twice"),
        # Each was truncated: to token 1, to context 0's row 0, to row 1 and to offsets [0, 1, 1].
        ([0, 1], [1.5], [0.5], [0.25], None, r"row tokens must be 1-D of integers in \[0, 3\)"),
        ([0, 1], [1], [0.5], [0.25], [0.7], r"index must be 1-D of integers in \[0, 1\)"),
        ([0, 1, 2], [1, 2], [0.5, 0.5], [0.25, 0.25], [True], r"index must be 1-D of integers in \[0, 2\)"),
        ([0, 1.5, 1], [1], [0.5], [0.25, 0.1], None, r"offsets must be 1-D of integers in \[0, 2\)"),
        # Each value that is no probability was summed: nan gave a nan entropy and an infinite floor -inf.
        ([0, 1], [1], [math.nan], [0.25], None, r"row probs must be probabilities in \[0, 1\], got nan"),
        ([0, 1], [1], [-0.5], [0.25], None, r"row probs must be probabilities in \[0, 1\], got -0\.5"),
        ([0, 1], [1], [1.5], [0.25], None, r"row probs must be probabilities in \[0, 1\], got 1\.5"),
        ([0, 1], [1], [0.5], [math.inf], None, r"row floors must be probabilities in \[0, 1\], got inf"),
        ([0, 1], [1], [0.5], [-math.inf], None, r"row floors must be probabilities in \[0, 1\], got -inf"),
        ([0, 1], [1], [0.5], [math.nan], None, r"row floors must be probabilities in \[0, 1\], got nan"),
        ([0, 1], [1], [0.5], [-1e-300], None, r"row floors must be probabilities in \[0, 1\], got -1e-300"),
        ([0, 1], [1], [[0.5]], [0.25], None, r"row probs must be 1-D of probabilities in \[0, 1\]"),
        ([0, 1], [1], [0.5], ["x"], None, r"row floors must be 1-D of probabilities in \[0, 1\]"),
        # Ragged nestings raised numpy's bare ValueError (inhomogeneous shape).
        ([0, 1], [[1], [1, 2]], [0.5], [0.25], None, r"row tokens must be 1-D of integers in \[0, 3\)"),
        ([[0], [0, 1]], [1], [0.5], [0.25], None, r"offsets must be 1-D of integers in \[0, 2\)"),
        ([0, 1], [1], [0.5], [0.25], [[0], [0, 0]], r"index must be 1-D of integers in \[0, 1\)"),
    ])
    def test_constructor_rejects_broken_rows(self, offsets, tokens, probs, floors, index, match):
        with pytest.raises(InputError, match=match):
            RowBatch(3, offsets, tokens, probs, floors, index)

    @pytest.mark.parametrize("contexts, tokens, match", [
        ([0], [4], r"^scored tokens must be 1-D of integers in \[0, 4\)$"),
        ([0], [-1], r"^scored tokens must be 1-D of integers in \[0, 4\)$"),
        # -1 served the last context's row; 2 and 0.5 raised a bare IndexError.
        ([-1], [1], r"^contexts must be 1-D of integers in \[0, 2\)$"),
        ([2], [1], r"^contexts must be 1-D of integers in \[0, 2\)$"),
        ([0.5], [1], r"^contexts must be 1-D of integers in \[0, 2\)$"),
        ([[0], [0, 1]], [1, 1], r"^contexts must be 1-D of integers in \[0, 2\)$"),
        # One token was broadcast over both contexts, and three raised a bare ValueError.
        ([0, 1], [1], r"^contexts and scored tokens differ in length: 2 and 1$"),
        ([0, 1], [0, 1, 2], r"^contexts and scored tokens differ in length: 2 and 3$"),
    ])
    def test_token_out_of_range(self, contexts, tokens, match):
        model = NGramModel.fit(WXYZ, [[0, 1, 2, 0, 1, 3]], order=2, smoothing=0.1)
        batch = model.next_token_dists([[0], [1]])
        assert batch.prob([1, 0], [np.int64(1), 1]).tolist() == [dense_dist(model, [1])[1],
                                                                  dense_dist(model, [0])[1]]
        with pytest.raises(InputError, match=match):
            batch.prob(contexts, tokens)
