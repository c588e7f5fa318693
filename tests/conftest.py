import json
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from treespec import LanguageModel, NGramModel, RecordTable, RowBatch, synthetic_corpora
from treespec.metrics import FLOAT_FIELDS, RECORD_COLUMNS, RECORD_FIELDS, STEP_FIELDS, TREE_FIELDS
from treespec.model import _ranked_levels

FIXTURES = Path(__file__).parent / "fixtures"

# One record as a row of its RECORD_FIELDS values.
Row = namedtuple("Row", RECORD_FIELDS)


def column_table(domains, columns):
    """A RecordTable of records given as one column per RECORD_COLUMNS name.

    Built through ``RecordTable.from_steps``: each maximal run of records
    with equal step fields is a step, whose rows are its own candidate tree.
    """
    columns = {name: np.asarray(columns[name], dtype=np.float64 if name in FLOAT_FIELDS else np.int64)
               for name in RECORD_COLUMNS}
    keys = [columns[name] for name in STEP_FIELDS[:-1]]
    n = len(keys[0])
    starts = np.flatnonzero(np.append(n > 0, np.any([key[1:] != key[:-1] for key in keys], axis=0)))
    steps = {name: key[starts] for name, key in zip(STEP_FIELDS, keys)}
    steps["tree"] = np.arange(starts.size)
    trees = {name: columns[name] for name in TREE_FIELDS}
    return RecordTable.from_steps(domains, steps, np.append(starts, n), trees)


def record_table(rows):
    """A RecordTable of rows of RECORD_FIELDS values, domains numbered by first appearance."""
    codes = {}
    columns = list(zip(*rows)) or [()] * len(RECORD_FIELDS)
    domain_code = [codes.setdefault(name, len(codes)) for name in columns[0]]
    return column_table(tuple(codes), dict(zip(RECORD_FIELDS[1:], columns[1:]), domain_code=domain_code))


def table_rows(table):
    """Each record of ``table`` as a Row."""
    columns = [getattr(table, name).tolist() for name in RECORD_FIELDS[1:]]
    return [Row(table.domains[code], *values) for code, *values in zip(table.domain_code.tolist(), *columns)]


def ngram_model(vocab, order, counts, smoothing):
    """An NGramModel holding exactly ``counts`` (context tuple -> {token: count}).

    Contexts may be shorter than ``order - 1``. The contexts are ranked with
    ``fit``'s own ``_ranked_levels`` and the columns packed with its
    ``_packed``. Nothing is checked: test data is valid by construction.
    """
    backs = [[context[-k] + 1 if k <= len(context) else 0 for k in range(1, order)]
             for context in counts]
    columns = np.array(backs, dtype=np.int64).reshape(len(backs), order - 1).T
    *_, (levels, ids, n_contexts) = _ranked_levels(columns, len(backs), vocab.size + 1)
    lengths = [len(row) for row in counts.values()]
    tokens = np.array([t for row in counts.values() for t in row], dtype=np.int64)
    weights = np.array([c for row in counts.values() for c in row.values()], dtype=np.int64)
    keys = np.repeat(ids, lengths) * vocab.size + tokens
    ascending = np.argsort(keys)
    return NGramModel._packed(vocab, order, smoothing, levels, keys[ascending], weights[ascending],
                              n_contexts)


def top_candidates(dist, k):
    """The k highest-probability (token, probability) pairs of a dense vector,
    descending, ties by ascending token: the oracle for ``RowBatch.top``."""
    arr = np.asarray(dist, dtype=np.float64)
    return [(int(i), float(arr[i])) for i in np.argsort(-arr, kind="stable")[:k]]


def checked_dist(dist, size):
    """``dist`` after checking that it is a distribution over ``size`` tokens:
    float64, finite, non-negative and summing to 1 within 1e-9."""
    arr = np.asarray(dist)
    assert arr.dtype == np.float64 and arr.shape == (size,)
    assert np.isfinite(arr).all() and (arr >= 0.0).all()
    assert abs(float(arr.sum()) - 1.0) <= 1e-9
    return arr


def dense_batch(vectors):
    """A RowBatch of dense vectors: a row per vector, listing every token over a floor of 0."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n, size = vectors.shape
    return RowBatch(size, np.arange(n + 1) * size, np.tile(np.arange(size), n),
                    vectors.reshape(-1), np.zeros(n))


def score_lists(scores):
    """``score_trees``' columns as lists, which compare with ``==``."""
    return {name: column.tolist() for name, column in scores.items()}


def tree_lists(trees):
    """``grow_trees``' columns as lists, which compare with ``==``."""
    return {name: column.tolist() for name, column in trees._asdict().items()}


def node_paths(tree):
    """Each node's tokens from its depth-1 ancestor down, for one grown tree."""
    paths = []
    for token, parent in zip(tree.tokens.tolist(), tree.parents.tolist()):
        paths.append((() if parent == -1 else paths[parent]) + (token,))
    return paths


def node_window(context, path, span):
    """The per-node rule: ``context`` + ``path`` cut to its last ``span`` tokens, as a tuple.
    The oracle for the window arrays that growth and scoring build from tree columns."""
    whole = (*context, *path)
    return tuple(whole[max(0, len(whole) - span):])


def expansions(tree):
    """The paths of one tree's nodes with children, in the order they were expanded: that of
    their first children. A popped node always gets a child, its top candidate."""
    return list(dict.fromkeys(path[:-1] for path in node_paths(tree) if len(path) > 1))


def growth_batches(contexts, trees, span):
    """The batches of windows ``grow_trees`` asks a draft that reads ``span`` tokens, by the
    per-node rule: each tree's context, then, round by round, the next node each tree
    expands, tree by tree."""
    per_tree = [expansions(trees.take([i])) for i in range(len(contexts))]
    return [[node_window(c, (), span) for c in contexts]] + [
        [node_window(c, paths[r], span) for c, paths in zip(contexts, per_tree) if len(paths) > r]
        for r in range(max(map(len, per_tree), default=0))]


def scoring_batch(contexts, trees, span):
    """The one batch of windows ``score_trees`` asks a target that reads ``span`` tokens, by
    the per-node rule: each tree's context, tree by tree, then, tree by tree, each node with
    children, in node order."""
    expanded = []
    for i, c in enumerate(contexts):
        tree = trees.take([i])
        parents = set(tree.parents.tolist())
        expanded += [node_window(c, path, span)
                     for node, path in enumerate(node_paths(tree)) if node in parents]
    return [node_window(c, (), span) for c in contexts] + expanded


def window_tuples(windows):
    """Each row of a ``LanguageModel.windows`` array as a tuple of its tokens, the -1 that
    pads a short window left out."""
    return [tuple(token for token in row if token >= 0) for row in windows.tolist()]


class TableModel(LanguageModel):
    """Hand-built model: an explicit dense distribution per exact window.

    It reads the last ``context_window`` tokens, and a window absent from
    ``table`` gets ``default``. It keeps each batch of windows it is asked in
    ``batches``, as ``window_tuples`` (``next_token_dist`` asks a batch of
    one), and counts the windows it scores in ``scored``. Distributions are
    taken as given: a batch is one ``RowBatch`` of the dense vectors, a row
    per window listing every token over a floor of 0, which the batch's
    constructor ranks.
    """

    def __init__(self, vocab, default, table=None, *, context_window):
        self.vocab = vocab
        self.context_window = context_window
        self.default = np.asarray(default, dtype=np.float64)
        self.table = {tuple(c): np.asarray(d, dtype=np.float64) for c, d in (table or {}).items()}
        self.batches = []
        self.scored = 0

    def _batch_dists(self, windows):
        self.batches.append(window_tuples(windows))
        self.scored += len(windows)
        vectors = [self.table.get(window, self.default) for window in self.batches[-1]]
        return dense_batch(np.reshape(vectors, (len(vectors), self.vocab.size)))


@pytest.fixture(scope="session")
def reference_stats():
    return json.loads((FIXTURES / "reference_statistics.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpora():
    """Shared synthetic corpora; read-only after construction."""
    return synthetic_corpora(n_docs=160, seed=42)
