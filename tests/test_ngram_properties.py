"""Seeded property tests: NGramModel's count columns against an np.unique oracle.

Each case draws a vocabulary of 2 to a few thousand tokens, an order from 1
to 4 and either random documents (for ``fit`` and ``train_models``) or a
random count mapping (for the test-side builder ``ngram_model``, which
ranks it with ``fit``'s ``_ranked_levels`` and packs it with ``_packed``).
Both rank each level and count the pairs by dense counting when the level's
code space is small next to the number of codes and by sorting otherwise;
the cases fall on both sides, and every column must equal the one the
oracle builds with ``np.unique`` and a per-row sort alone. ``train_models``
ranks the levels once for both of its models, so the draft must hold the
target's own lower level objects. The level walk that serves a batch must
find each context's row as ``counts`` decodes it, and every ``RowBatch`` a
model serves, or the constructor ranks, must give the top candidates,
probabilities and entropies of its dense vectors bit for bit. A batch
sent as the array of its windows must be served as the batch of its
contexts, and no batch may change the model.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, ngram_model, top_candidates, window_tuples
from treespec import NGramModel, RowBatch, Vocabulary, entropy_nats
from treespec import train_models
from treespec import model as model_module

CASES = 200


def oracle_columns(size, order, backs, owner, tokens, weights):
    """The columns of rows ``backs`` (rows x order - 1) whose pairs are (owner, token, weight).

    Ids are ranked level by level and the pairs counted with ``np.unique``;
    each context's successors are then put in rank order by Python's sort:
    descending count, then ascending token.
    """
    radix = size + 1
    ids = np.zeros(len(backs), dtype=np.int64)
    levels, parents = [], 1
    for k in range(order - 1):
        codes, ids = np.unique(ids * radix + backs[:, k], return_inverse=True)
        levels.append(codes)
        parents = codes.size
    keys, inverse = np.unique(ids[owner] * size + tokens, return_inverse=True)
    counts = np.zeros(keys.size, dtype=np.int64)
    np.add.at(counts, inverse, weights)
    n_contexts = parents if levels else min(len(backs), 1)
    rows = keys // size
    offsets = np.searchsorted(rows, np.arange(n_contexts + 1))
    totals = np.zeros(n_contexts, dtype=np.int64)
    np.add.at(totals, rows, counts)
    tokens = keys - rows * size
    ranked = sorted(range(keys.size), key=lambda i: (rows[i], -counts[i], tokens[i]))
    return {"levels": levels, "offsets": offsets,
            "tokens": tokens[ranked], "counts": counts[ranked], "totals": totals}


def assert_columns(model, expected):
    assert len(model._levels) == len(expected["levels"])
    for codes, want in zip(model._levels, expected["levels"]):
        assert np.array_equal(np.asarray(codes), want)
    for name in ("offsets", "tokens", "counts", "totals"):
        column = np.asarray(getattr(model, f"_{name}"))
        assert column.dtype == np.int64, name
        assert np.array_equal(column, expected[name]), name


def random_vocab(rng):
    size = int(np.exp(rng.uniform(np.log(2), np.log(3000))))
    return Vocabulary(tuple(f"t{i}" for i in range(size)))


def backs_of(context, span):
    """Token k places back, plus one, for k = 1 .. span; 0 before the start."""
    return [context[-k] + 1 if k <= len(context) else 0 for k in range(1, span + 1)]


def is_sorted(space, n_codes):
    """Whether the model ranks or counts ``n_codes`` codes by sorting, by its own rule."""
    return space > model_module._DENSE_SPACE_PER_CODE * n_codes


def level_sides(size, order, backs):
    """(dense, sorted) tallies of the choices ``_ranked_levels`` makes for each level."""
    radix = size + 1
    ids, tally = np.zeros(len(backs), dtype=np.int64), [0, 0]
    parents = 1
    for k in range(order - 1):
        tally[is_sorted(parents * radix, len(backs))] += 1
        codes, ids = np.unique(ids * radix + backs[:, k], return_inverse=True)
        parents = codes.size
    return tally


def random_documents(rng, types, max_len=400):
    return [tuple(int(t) for t in rng.integers(0, types, size=int(rng.integers(0, max_len))))
            for _ in range(int(rng.integers(0, 8)))]


def fit_oracle(size, order, documents):
    """``oracle_columns`` of every position of ``documents``, each a pair of weight one."""
    span = order - 1
    flat = np.array([t for doc in documents for t in doc], dtype=np.int64)
    backs = np.array([backs_of(doc[:i], span) for doc in documents for i in range(len(doc))],
                     dtype=np.int64).reshape(flat.size, span)
    return backs, oracle_columns(size, order, backs, np.arange(flat.size), flat,
                                 np.ones(flat.size, dtype=np.int64))


def test_fit_matches_the_unique_oracle():
    rng = np.random.default_rng(4201)
    tally, pair_tally = [0, 0], [0, 0]
    for _ in range(CASES):
        vocab = random_vocab(rng)
        order = int(rng.integers(1, 5))
        # Few token types repeat a lot (dense levels); many types in a short
        # corpus leave the code space sparse (sorted levels).
        types = int(rng.integers(1, vocab.size + 1))
        documents = random_documents(rng, types)
        model = NGramModel.fit(vocab, documents, order, 0.1)
        backs, expected = fit_oracle(vocab.size, order, documents)
        assert_columns(model, expected)
        tally = np.add(tally, level_sides(vocab.size, order, backs))
        n_contexts = len(expected["levels"][-1]) if expected["levels"] else 1
        pair_tally[is_sorted(n_contexts * vocab.size, len(backs))] += 1
    assert min(tally) >= 20 and min(pair_tally) >= 20, (tally, pair_tally)


def test_train_models_matches_direct_fits_at_every_order_pair():
    # One ranking pass serves both orders: each model equals a direct fit
    # and the oracle column for column, and the draft's levels are the
    # target's first draft_order - 1 objects. Every third case holds only
    # documents shorter than 5 tokens, so some are shorter than the target
    # order, or than both orders.
    rng = np.random.default_rng(4204)
    pairs = [(d, t) for t in range(2, 5) for d in range(1, t)]
    for case in range(60):
        vocab = random_vocab(rng)
        types = int(rng.integers(1, vocab.size + 1))
        documents = random_documents(rng, types, max_len=5 if case % 3 == 0 else 200)
        corpus = corpus_of("d", documents, vocab)
        for draft_order, target_order in pairs:
            draft, target = train_models(corpus, draft_order, target_order, 0.1)
            for model, order in ((draft, draft_order), (target, target_order)):
                assert model.order == order
                expected = fit_oracle(vocab.size, order, documents)[1]
                assert_columns(model, expected)
                direct = NGramModel.fit(vocab, documents, order, 0.1)
                assert_columns(model, {"levels": direct._levels, **{
                    name: np.asarray(getattr(direct, f"_{name}"))
                    for name in ("offsets", "tokens", "counts", "totals")}})
            assert len(draft._levels) == draft_order - 1
            assert all(mine is theirs for mine, theirs in zip(draft._levels, target._levels))


def test_constructor_matches_the_unique_oracle():
    rng = np.random.default_rng(4202)
    tally = [0, 0]
    for _ in range(CASES):
        vocab = random_vocab(rng)
        order = int(rng.integers(1, 5))
        span = order - 1
        types = int(rng.integers(1, vocab.size + 1))
        counts = {}
        for _ in range(int(rng.integers(0, 300))):
            length = int(rng.integers(0, span + 1))
            context = tuple(int(t) for t in rng.integers(0, types, size=length))
            n_successors = int(rng.integers(0, 6))
            counts[context] = {
                int(t): int(rng.integers(0, 5))
                for t in rng.integers(0, vocab.size, size=n_successors)
            }
        model = ngram_model(vocab, order, counts, 0.1)
        backs = np.array([backs_of(c, span) for c in counts], dtype=np.int64).reshape(len(counts), span)
        lengths = [len(row) for row in counts.values()]
        owner = np.repeat(np.arange(len(counts)), lengths)
        tokens = np.array([t for row in counts.values() for t in row], dtype=np.int64)
        weights = np.array([w for row in counts.values() for w in row.values()], dtype=np.int64)
        assert_columns(model, oracle_columns(vocab.size, order, backs, owner, tokens, weights))
        tally = np.add(tally, level_sides(vocab.size, order, backs))
    assert min(tally) >= 20, tally


def random_model(rng, case):
    """A model from ``fit`` (even cases) or from ``ngram_model`` (odd ones), and its token types."""
    vocab = random_vocab(rng)
    order = int(rng.integers(1, 5))
    types = int(rng.integers(1, vocab.size + 1))
    if case % 2 == 0:
        return NGramModel.fit(vocab, random_documents(rng, types), order, 0.1), types
    counts = {}
    for _ in range(int(rng.integers(0, 300))):
        context = tuple(int(t) for t in rng.integers(0, types, size=int(rng.integers(0, order))))
        counts[context] = {int(t): int(rng.integers(0, 5))
                           for t in rng.integers(0, vocab.size, size=int(rng.integers(0, 6)))}
    return ngram_model(vocab, order, counts, 0.1), types


def test_level_walk_matches_the_decoded_counts():
    # ``counts`` decodes each row's context by divmod over the levels, in
    # context id order; the level walk must find that row for every context
    # the model holds, for their shorter suffixes and for random keys, mostly
    # unseen: one token type more than the model saw. One batch asks for
    # every key as plain ints, numpy ints and floats equal to ints, which
    # share one row. Its rows are row 0 when a key is unseen, which lists no
    # token, then one row per context id found, ascending.
    rng = np.random.default_rng(4203)
    unseen = 0
    for case in range(CASES):
        model, types = random_model(rng, case)
        span, size = model.order - 1, model.vocab.size
        held = model.counts
        ids = {key: i for i, key in enumerate(held)}
        keys = list(held) + [key[1:] for key in held if key]
        keys += [tuple(int(t) for t in rng.integers(0, min(types + 1, size),
                                                     size=int(rng.integers(0, span + 1))))
                 for _ in range(40)]
        keys = list(dict.fromkeys(keys))
        assert model.next_token_dists([]).index.size == 0
        forms = [form for key in keys for form in (key, np.array(key, dtype=np.int64),
                                                   [float(t) for t in key])]
        batch = model.next_token_dists(forms)
        index = batch.index.reshape(len(keys), 3)
        assert (index == index[:, :1]).all()
        found = sorted({ids[key] for key in keys if key in ids})
        first = int(any(key not in held for key in keys))
        assert batch.floors.size == first + len(found)
        for key, row in zip(keys, index[:, 0].tolist(), strict=True):
            expected = held.get(key)
            if expected is None:
                assert row == 0 and batch.offsets[1] == 0
                unseen += 1
                continue
            assert row == first + found.index(ids[key])
            # The row lists its tokens' probabilities in rank order: descending
            # probability, then ascending token.
            denom = sum(expected.values()) + 0.1 * size
            start, stop = batch.offsets[row], batch.offsets[row + 1]
            assert list(zip(batch.tokens[start:stop].tolist(), batch.probs[start:stop].tolist())) \
                == sorted(((token, (0.1 + count) / denom) for token, count in expected.items()),
                          key=lambda item: (-item[1], item[0]))
            assert batch.floors[row] == 0.1 / denom
        assert batch.offsets.size == batch.floors.size + 1
        assert batch.tokens.dtype == np.int64 and batch.probs.dtype == np.float64
    assert unseen >= CASES


def dense_oracle(model, key):
    """The dense vector of ``key``'s count row, built from ``counts`` token by token."""
    row = model.counts.get(key, {})
    size, smoothing = model.vocab.size, model.smoothing
    denom = sum(row.values()) + smoothing * size
    if denom <= 0.0:
        return np.full(size, 1.0 / size)
    probs = np.full(size, smoothing / denom)
    for token, count in row.items():
        probs[token] = (smoothing + count) / denom
    return probs


def assert_matches_dense(batch, vectors):
    """Context i of ``batch`` against its dense vector ``vectors[i]``: the dense
    vector itself, every k's top candidates, every token's probability and the
    entropy, bit for bit. Each distinct row is ranked once per ``top``."""
    vectors = np.asarray(vectors, dtype=np.float64).reshape(batch.index.size, batch.size)
    assert np.array_equal(batch.dense().view(np.uint64), vectors.view(np.uint64))
    n, size = batch.index.size, batch.size
    contexts = np.repeat(np.arange(n), size)
    probs = batch.prob(contexts, np.tile(np.arange(size), n))
    assert np.array_equal(probs.view(np.uint64), vectors.reshape(-1).view(np.uint64))
    for k in range(1, size + 1):
        which, tokens, ranked = batch.top(k)
        assert tokens.shape == ranked.shape == (len(set(batch.index.tolist())), k)
        assert which.tolist() == [sorted(set(batch.index.tolist())).index(r) for r in batch.index]
        for w, vector in zip(which.tolist(), vectors):
            assert list(zip(tokens[w].tolist(), ranked[w].tolist())) == top_candidates(vector, k)
    assert [h.hex() for h in batch.entropies()] == [entropy_nats(v).hex() for v in vectors]


def test_model_batches_match_their_dense_vectors(monkeypatch):
    # Small vocabularies, so that every k is checked. Counts from 0 tie
    # entries with each other and with the floor; smoothing 0 gives zero
    # floors and rows with no mass. Each case asks two batches of repeated,
    # unseen and short contexts, as plain ints, numpy ints and floats equal to
    # ints. A batch holds one row per distinct context id, ascending, and
    # sums each once: row 0 serves every unseen context and every one with
    # no mass.
    summed = []
    entropies = model_module._entropies

    def spy(batch, rows):
        summed.extend(rows.tolist())
        return entropies(batch, rows)

    monkeypatch.setattr(model_module, "_entropies", spy)
    rng = np.random.default_rng(4205)
    tally = dict.fromkeys(("unseen", "zero floor", "last at floor", "tie", "no mass"), 0)
    for case in range(CASES):
        size = int(rng.integers(2, 24))
        vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
        order = int(rng.integers(1, 5))
        types = int(rng.integers(1, size + 1))
        counts = {}
        for _ in range(int(rng.integers(0, 12))):
            context = tuple(int(t) for t in rng.integers(0, types, size=int(rng.integers(0, order))))
            counts[context] = {int(t): int(rng.integers(0, 4))
                               for t in rng.integers(0, size, size=int(rng.integers(0, size + 1)))}
        model = ngram_model(vocab, order, counts, float(rng.choice([0.0, 0.1, 1.0])))
        held = list(model.counts)
        ids = {key: i for i, key in enumerate(held)}
        massless = {key for key, row in model.counts.items()
                    if sum(row.values()) + model.smoothing * size <= 0}
        for _ in range(2):
            contexts = [list(held[i]) for i in rng.integers(0, len(held), size=6)] if held else []
            contexts += [rng.integers(0, size, size=int(rng.integers(0, order + 1))).tolist()
                         for _ in range(6)]
            contexts = [(c, np.array(c, dtype=np.int64), [float(t) for t in c])[i % 3]
                        for i, c in enumerate(contexts)]
            summed.clear()
            batch = model.next_token_dists(contexts)
            keys = window_tuples(model.windows(contexts))
            assert_matches_dense(batch, [dense_oracle(model, key) for key in keys])
            found = [-1 if key in massless else ids.get(key, -1) for key in keys]
            assert batch.index.tolist() == [sorted(set(found)).index(i) for i in found]
            assert summed == list(range(batch.floors.size))
            ends = batch.offsets[1:][batch.offsets[1:] > batch.offsets[:-1]] - 1
            at_floor = batch.probs[ends] == batch.floors[batch.offsets[1:] > batch.offsets[:-1]]
            owner = np.repeat(np.arange(batch.floors.size), np.diff(batch.offsets))
            same = (batch.probs[1:] == batch.probs[:-1]) & (owner[1:] == owner[:-1])
            tally["unseen"] += -1 in found
            tally["zero floor"] += bool((batch.floors[batch.index] == 0.0).any())
            tally["last at floor"] += bool(at_floor.any())
            tally["tie"] += bool(same.any())
            tally["no mass"] += bool(massless & set(keys))
    assert min(tally.values()) >= 20, tally


def test_constructed_batches_match_their_dense_vectors():
    # The constructor ranks rows given in any order: ties, probabilities
    # at, above and below the floor, zeros under a positive floor, zero
    # floors, empty rows and rows that list every token; contexts share rows.
    rng = np.random.default_rng(4206)
    for _ in range(CASES):
        size = int(rng.integers(2, 16))
        n_rows = int(rng.integers(1, 6))
        floors = rng.choice([0.0, 0.1, 0.25], size=n_rows)
        rows = [rng.choice(size, size=int(rng.integers(0, size + 1)), replace=False)
                for _ in range(n_rows)]
        values = [rng.choice([0.0, 0.1, 0.25, 0.4], size=row.size) for row in rows]
        index = rng.integers(0, n_rows, size=int(rng.integers(1, 8)))
        batch = RowBatch(size, np.cumsum([0] + [row.size for row in rows]),
                         np.concatenate(rows), np.concatenate(values), floors, index)
        vectors = np.repeat(floors[:, None], size, axis=1)
        for r, (row, value) in enumerate(zip(rows, values)):
            vectors[r, row] = value
        assert_matches_dense(batch, vectors[index])


def small_model(data):
    """A model ``fit`` on drawn documents over a vocabulary of 2 to 7 tokens, and a strategy
    for its contexts: 0 to ``order`` + 1 tokens, shorter than, as long as and longer than
    its window."""
    size = data.draw(st.integers(2, 7), label="size")
    order = data.draw(st.integers(1, 4), label="order")
    tokens = st.integers(0, size - 1)
    docs = data.draw(st.lists(st.lists(tokens, max_size=30), max_size=4), label="docs")
    vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
    smoothing = data.draw(st.sampled_from([0.0, 0.1, 1.0]), label="smoothing")
    model = NGramModel.fit(vocab, docs, order, smoothing)
    return model, st.lists(tokens, max_size=order + 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_window_array_is_served_as_its_contexts(data):
    # The array pads a context shorter than the window with -1 and holds a
    # longer one cut.
    model, contexts = small_model(data)
    contexts = data.draw(st.lists(contexts, min_size=1, max_size=8), label="contexts")
    plain, served = model.next_token_dists(contexts), model.next_token_dists(model.windows(contexts))
    assert plain.dense().view(np.uint64).tolist() == served.dense().view(np.uint64).tolist()
    k = data.draw(st.integers(1, model.vocab.size), label="k")
    for got, want in zip(served.top(k), plain.top(k)):
        assert np.array_equal(got, want)
    assert [h.hex() for h in served.entropies()] == [h.hex() for h in plain.entropies()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fit_ranks_each_contexts_successors_and_gives_each_context_mass(data):
    # A row is read out of the columns in rank order, so fit must leave each
    # context's successors there: descending count, then ascending token.
    # Every context fit makes follows some position, so its total is at least 1.
    model, _ = small_model(data)
    offsets, tokens, counts, totals = (np.asarray(getattr(model, f"_{name}"))
                                       for name in ("offsets", "tokens", "counts", "totals"))
    for c, (start, stop) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
        row = list(zip(tokens[start:stop].tolist(), counts[start:stop].tolist()))
        assert row == sorted(row, key=lambda item: (-item[1], item[0]))
        assert totals[c] == sum(counts[start:stop].tolist()) >= 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_batch_holds_one_row_per_distinct_context(data):
    # Contexts repeat, and unseen ones all share one row; two contexts share
    # a row exactly when the model reads the same counts for both.
    model, contexts = small_model(data)
    contexts = data.draw(st.lists(contexts, min_size=1, max_size=12), label="contexts")
    contexts += data.draw(st.lists(st.sampled_from(contexts), max_size=4), label="repeats")
    batch = model.next_token_dists(contexts)
    held = model.counts
    keys = [key if key in held else None for key in window_tuples(model.windows(contexts))]
    pairs = set(zip(keys, batch.index.tolist()))
    assert batch.floors.size == batch.offsets.size - 1 == len(pairs) == len(set(keys))
    assert sorted(row for _, row in pairs) == list(range(batch.floors.size))


def model_state(model):
    """Each attribute of ``model``: the object's identity and what it holds, arrays as bytes."""
    return {name: (id(value), [bytes(v) for v in value] if isinstance(value, list)
                   else bytes(value) if isinstance(value, memoryview) else value)
            for name, value in vars(model).items()}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batches_leave_the_model_as_fit_made_it(data):
    # No batch, served from contexts or from windows, may change what the
    # model holds: the same objects, holding the same values.
    model, contexts = small_model(data)
    state = model_state(model)
    for _ in range(data.draw(st.integers(0, 6), label="batches")):
        batch = data.draw(st.lists(contexts, max_size=8), label="contexts")
        served = model.next_token_dists(model.windows(batch) if data.draw(st.booleans()) else batch)
        served.entropies(), served.top(1)
        assert model_state(model) == state
