"""``RowBatch.entropies`` against ``entropy_nats`` of the dense vectors, bit for bit.

The batch splits each row into the leaves of numpy's pairwise float64 sum
and lets numpy add each leaf: it writes out only the leaves that hold a
listed token, sums a leaf that holds none once per distinct floor, and adds
the leaf sums in the split's order. These tests hold numpy to the facts this
rests on (its sum of a row is its leaves' own sums added in that order, and
a row reduction of a block of leaves is each leaf's own sum), and the batch
to the dense sum at the vocabulary sizes where the split changes shape, with
listed tokens at leaf edges, shared and distinct floors and small blocks.
"""

import tracemalloc

import numpy as np
import pytest

from treespec import RowBatch, entropy_nats
from treespec import model as model_module

# Around each size where numpy's pairwise split changes shape: one leaf up to
# 128 terms (which numpy adds in eight lanes from 8 terms, with a tail past
# each multiple of 8), two leaves from 129, and several from 257 on.
SPLIT_SIZES = [*range(1, 10), 127, 128, 129, 135, 136, 137, 255, 256, 257, 1023, 1024, 1025, 4001,
               20_000]


def pairwise_sum(values, start=0, n=None):
    """numpy's float64 sum of ``values[start:start + n]``, written out in Python."""
    n = len(values) - start if n is None else n
    if n < 8:
        total = -0.0
        for value in values[start:start + n]:
            total += value
        return total
    if n <= 128:
        lanes = list(values[start:start + 8])
        body = n - n % 8
        for i in range(8, body, 8):
            for j in range(8):
                lanes[j] += values[start + i + j]
        total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                 + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
        for value in values[start + body:start + n]:
            total += value
        return total
    half = n // 2 - n // 2 % 8
    return pairwise_sum(values, start, half) + pairwise_sum(values, start + half, n - half)


def assert_dense_entropies(batch):
    assert [h.hex() for h in batch.entropies()] == [entropy_nats(v).hex() for v in batch.dense()]


def test_numpy_sum_is_the_pairwise_sum_the_batch_follows():
    # If numpy changes how it adds a float64 array, this fails first: every
    # other entropy test then fails for that reason.
    rng = np.random.default_rng(3)
    for n in [*range(0, 300), 1023, 1025, 4001, 20_000, 65_537, 200_003]:
        p = rng.random(n) * 10.0 ** rng.integers(-12, 0, n)
        terms = p * np.log(p)
        # numpy adds the pairwise sum to 0.0, so an empty sum is 0.0.
        assert float(terms.sum()).hex() == (0.0 + pairwise_sum(terms.tolist())).hex()


def entropy_terms(rng, n):
    """n random p ln p terms of probabilities over twelve orders of magnitude."""
    p = rng.random(n) * 10.0 ** rng.integers(-12, 0, n)
    return p * np.log(p)


@pytest.mark.parametrize("size", SPLIT_SIZES)
def test_numpy_sum_is_its_leaves_own_sums(size):
    # The batch lets numpy add each leaf, then adds the leaf sums in the
    # split's order: numpy's sum of the whole row must be just that.
    rng = np.random.default_rng(size)
    for _ in range(20):
        terms = entropy_terms(rng, size)
        leaves = model_module._pairwise(size, 0, lambda start, length: terms[start:start + length].sum())
        assert float(terms.sum()).hex() == (0.0 + leaves).hex()


def test_row_reduction_of_a_block_is_each_rows_sum():
    # The batch writes the leaves of one length as the rows of a C-contiguous
    # block and reduces it along its rows: each result must be that row's
    # own 1-D sum, at every leaf length, for one row and for thousands.
    rng = np.random.default_rng(128)
    for length in range(1, 129):
        for rows in (1, 7, 2_000):
            block = entropy_terms(rng, rows * length).reshape(rows, length)
            assert block.flags.c_contiguous
            assert ([h.hex() for h in np.add.reduce(block, axis=1)]
                    == [float(row.sum()).hex() for row in block])


@pytest.mark.parametrize("size", SPLIT_SIZES)
def test_entropies_match_dense_sums_at_split_sizes(size):
    rng = np.random.default_rng(size)
    edges = sorted({t for t in (0, 127, 128, size - 1) if t < size})
    uniform = 1.0 / size
    rows = [
        # Tokens at the leaf edges and elsewhere, over a positive, a zero and two subnormal floors.
        *((np.union1d(edges, rng.choice(size, min(size, 40), replace=False)), floor)
          for floor in (uniform * rng.random(), 0.0, 5e-324, 1e-310)),
        # No token, over a positive and a zero floor.
        (np.array([], dtype=np.int64), uniform),
        (np.array([], dtype=np.int64), 0.0),
        # Every token, in no order, over a zero and a positive floor.
        (rng.permutation(size), 0.0),
        (rng.permutation(size), uniform),
    ]
    offsets, tokens, probs, floors = [0], [], [], []
    for i, (listed, floor) in enumerate(rows):
        # A listed zero is no term of the dense sum: one in five entries, and
        # every edge token of the row with the zero floor.
        p = rng.random(listed.size) * uniform * 4
        p[rng.random(listed.size) < 0.2] = 0.0
        if i == 1:
            p[np.isin(listed, edges)] = 0.0
        offsets.append(offsets[-1] + listed.size)
        tokens += listed.tolist()
        probs += np.minimum(p, 1.0).tolist()
        floors.append(floor)
    assert_dense_entropies(RowBatch(size, offsets, tokens, probs, floors))


def test_rows_of_many_lengths_in_one_batch():
    # Zero floors and listed zeros give a batch's rows different numbers of
    # terms, so one batch sums rows of many lengths.
    rng = np.random.default_rng(11)
    for _ in range(60):
        size = int(rng.integers(1, 3000))
        offsets, tokens, probs, floors = [0], [], [], []
        for _ in range(int(rng.integers(1, 12))):
            listed = rng.choice(size, int(rng.integers(0, min(size, 300) + 1)), replace=False)
            p = rng.random(listed.size) * 10.0 ** rng.integers(-12, 0, listed.size)
            p[rng.random(listed.size) < 0.1] = 0.0
            offsets.append(offsets[-1] + listed.size)
            tokens += listed.tolist()
            probs += p.tolist()
            floors.append(float(rng.choice([0.0, 5e-324, rng.random() / size])))
        assert_dense_entropies(RowBatch(size, offsets, tokens, probs, floors))


def listed_rows(rng, size, rows, listed, floors):
    """A batch of ``rows`` rows at |V| = ``size``, each listing ``listed`` random tokens
    (a fifth of them at probability 0) over its floor, ``floors[i]``."""
    tokens = np.concatenate([rng.choice(size, listed, replace=False) for _ in range(rows)])
    probs = rng.random(tokens.size) / size
    probs[rng.random(tokens.size) < 0.2] = 0.0
    return RowBatch(size, np.arange(0, tokens.size + 1, listed), tokens, probs, floors)


@pytest.mark.parametrize("size", [129, 1025, 4001])
def test_rows_that_share_one_floor(size):
    # A leaf that lists no token is summed once per distinct floor: here one
    # sum serves every row of each length.
    rng = np.random.default_rng(size)
    assert_dense_entropies(listed_rows(rng, size, 300, 20, np.full(300, 0.5 / size)))


@pytest.mark.parametrize("size", [129, 1025, 4001])
def test_rows_that_each_have_their_own_floor(size):
    rng = np.random.default_rng(size)
    assert_dense_entropies(listed_rows(rng, size, 300, 20, rng.random(300) / size))


@pytest.mark.parametrize("bound", [1, 3])
def test_written_leaves_across_many_blocks(monkeypatch, bound):
    # With blocks of one or three leaves, the written leaves of each leaf
    # length, and the floors' leaves, fill many blocks, the last of a length
    # often only in part.
    monkeypatch.setattr(model_module, "_MAX_BLOCK", bound)
    rng = np.random.default_rng(bound)
    floors = rng.choice([0.0, 1e-310, 0.2 / 1025, 0.3 / 1025], 200)
    assert_dense_entropies(listed_rows(rng, 1025, 200, 30, floors))


def test_a_batch_of_no_rows_has_no_entropies():
    assert RowBatch(3, [0], [], [], []).entropies().tolist() == []


def test_scratch_memory_stays_far_below_the_dense_rows():
    # Sixty rows of eight listed tokens at |V| = 20,000 are 9.6 MB as dense
    # vectors. Summed three rows to a (rows x |V|) block, they peaked at
    # 0.5 MB. Now no row is written out |V| wide: the scratch is a few words
    # per listed token and per row, one block of 64 written leaves (a block
    # holds at most 1/192 of the dense terms, and 64 to 512 leaves) and the
    # floors' leaf sums, one per distinct floor and leaf length.
    size, rows = 20_000, 60
    rng = np.random.default_rng(61)
    tokens = np.concatenate([rng.choice(size, 8, replace=False) for _ in range(rows)])
    probs = rng.random(tokens.size) / 16
    floors = (1.0 - probs.reshape(rows, 8).sum(axis=1)) / (size - 8)
    batch = RowBatch(size, np.arange(0, tokens.size + 1, 8), tokens, probs, floors)
    dense = [entropy_nats(vector) for vector in batch.dense()]
    tracemalloc.start()
    try:
        hs = batch.entropies()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hs.tolist() == dense
    assert peak < rows * size * np.dtype(np.float64).itemsize / 32
