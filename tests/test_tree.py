import math

import numpy as np
import pytest

from conftest import TableModel, growth_batches, ngram_model, tree_lists, window_tuples
from treespec import (
    DraftTrees,
    InputError,
    NGramModel,
    TreeParams,
    Vocabulary,
    build_draft_tree,
    grow_trees,
)

WXYZ = Vocabulary(("w", "x", "y", "z"))

# Hand-built trigram with known counts; probabilities follow from
# (count + s) / (total + s*|V|) with s = 0.2.
TRIGRAM_COUNTS = {
    (0, 1): {2: 3, 3: 1},
    (1, 2): {0: 2, 1: 2},
    (1, 3): {0: 5},
    (2, 0): {3: 4, 2: 1},
    (2, 1): {1: 3},
    (3, 0): {0: 1, 1: 2, 2: 3, 3: 4},
    (0, 3): {1: 1},
    (2, 2): {0: 1, 3: 1},
    (0, 0): {1: 4, 2: 1},
}


def trigram_model(smoothing=0.2):
    return ngram_model(WXYZ, 3, TRIGRAM_COUNTS, smoothing)


# --- independent oracle ------------------------------------------------------


def oracle_dist(counts, order, smoothing, vocab_size, context):
    key = tuple(context[-(order - 1):]) if order > 1 else ()
    row = counts.get(key, {})
    total = sum(row.values())
    denom = total + smoothing * vocab_size
    if denom <= 0:
        return [1.0 / vocab_size] * vocab_size
    return [(row.get(t, 0) + smoothing) / denom for t in range(vocab_size)]


def oracle_topk(dist, k):
    order = sorted(range(len(dist)), key=lambda i: (-dist[i], i))
    return [(i, dist[i]) for i in order[:k]]


class _Cand:
    """One node of the exhaustively enumerated (uncapped) candidate tree."""

    def __init__(self, token, depth, prob, cum_logp):
        self.token = token
        self.depth = depth
        self.prob = prob
        self.cum_logp = cum_logp
        self.children = []


def enumerate_candidates(model: NGramModel, context, params: TreeParams):
    """All <= k * b^(D-1) candidate paths, with probabilities recomputed
    from the raw counts rather than through the model."""
    vocab_size = model.vocab.size

    def dist_at(ctx):
        return oracle_dist(model.counts, model.order, model.smoothing, vocab_size, ctx)

    def grow(node, path):
        if node.depth >= params.max_depth:
            return
        for tok, p in oracle_topk(dist_at(context + path), min(params.max_branch, vocab_size)):
            if p <= 0:
                continue
            child = _Cand(tok, node.depth + 1, p, node.cum_logp + math.log(p))
            node.children.append(child)
            grow(child, path + [tok])

    roots = []
    for tok, p in oracle_topk(dist_at(list(context)), min(params.root_top_k, vocab_size)):
        if p <= 0:
            continue
        root = _Cand(tok, 1, p, math.log(p))
        roots.append(root)
        grow(root, [tok])
    return roots


def best_first_select(roots, params: TreeParams):
    """Replay the budgeted best-first cap rule over the enumerated candidates."""
    selected = []  # [candidate, parent_selection_index, expanded?]
    for root in roots:
        if len(selected) >= params.max_nodes:
            break
        selected.append([root, -1, False])
    while len(selected) < params.max_nodes:
        frontier = [
            (i, entry)
            for i, entry in enumerate(selected)
            if entry[0].depth < params.max_depth and not entry[2]
        ]
        if not frontier:
            break
        best_index, best = max(frontier, key=lambda pair: (pair[1][0].cum_logp, -pair[0]))
        best[2] = True
        for child in best[0].children:
            if len(selected) >= params.max_nodes:
                break
            selected.append([child, best_index, False])
    return [
        (entry[0].token, entry[0].depth, entry[1], entry[0].prob, entry[0].cum_logp)
        for entry in selected
    ]


def tree_tuples(tree: DraftTrees):
    return list(zip(*(column.tolist() for column in tree[:-1])))


def random_model_and_context(rng):
    size = int(rng.integers(2, 9))
    vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
    doc = [int(t) for t in rng.integers(0, size, size=70)]
    order = int(rng.integers(1, 4))
    model = NGramModel.fit(vocab, [doc], order=order, smoothing=float(rng.uniform(0.05, 1.0)))
    context = [int(t) for t in rng.integers(0, size, size=int(rng.integers(1, 7)))]
    return model, context


def random_params(rng):
    root_top_k = int(rng.integers(1, 5))
    return TreeParams(
        max_depth=int(rng.integers(1, 5)),
        max_branch=int(rng.integers(1, 4)),
        root_top_k=root_top_k,
        max_nodes=int(rng.integers(root_top_k, 14)),
    )


# --- build -------------------------------------------------------------------


class TestBuild:
    def test_deterministic_one_hot_chain(self):
        draft = TableModel(WXYZ, [1.0, 0.0, 0.0, 0.0], context_window=2)
        tree = build_draft_tree(draft, [1], TreeParams(3, 2, 3, 8))
        assert tree_tuples(tree) == [
            (0, 1, -1, 1.0, 0.0),
            (0, 2, 0, 1.0, 0.0),
            (0, 3, 1, 1.0, 0.0),
        ]

    def test_depth_cap_yields_only_roots(self):
        params = TreeParams(max_depth=1, max_branch=2, root_top_k=3, max_nodes=8)
        model = trigram_model()
        tree = build_draft_tree(model, [0, 1], params)
        assert len(tree.tokens) == min(3, WXYZ.size)
        assert tree.depths.tolist() == [1] * len(tree.tokens)

    def test_depth_cap_small_vocab(self):
        vocab = Vocabulary(("a", "b"))
        model = NGramModel.fit(vocab, [[0, 1, 0]], order=1, smoothing=0.5)
        tree = build_draft_tree(model, [0], TreeParams(1, 2, 3, 8))
        assert len(tree.tokens) == 2

    def test_trigram_matches_enumeration_oracle(self):
        model = trigram_model()
        for params in (
            TreeParams(3, 2, 3, 8),
            TreeParams(2, 2, 2, 8),
            TreeParams(3, 3, 4, 12),
            TreeParams(4, 2, 1, 10),
        ):
            tree = build_draft_tree(model, [0, 1], params)
            expected = best_first_select(enumerate_candidates(model, [0, 1], params), params)
            assert tree_tuples(tree) == expected

    def test_trigram_known_roots(self):
        # At context (w, x): y has 3 of 4 counts, so p = 3.2/4.8 = 2/3.
        tree = build_draft_tree(trigram_model(), [0, 1], TreeParams(3, 2, 3, 8))
        assert tree.tokens[:3].tolist() == [2, 3, 0]
        assert tree.p_draft[0] == pytest.approx(2 / 3, abs=1e-12)
        assert len(tree.tokens) == 8

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            model, context = random_model_and_context(rng)
            params = random_params(rng)
            tree = build_draft_tree(model, context, params)
            expected = best_first_select(
                enumerate_candidates(model, context, params), params
            )
            assert tree_tuples(tree) == expected

    def test_rebuild_is_identical(self):
        model = trigram_model()
        params = TreeParams(3, 2, 3, 8)
        first = build_draft_tree(model, [0, 1, 2], params)
        second = build_draft_tree(model, [0, 1, 2], params)
        assert tree_lists(first) == tree_lists(second)

    def test_empty_context_rejected(self):
        with pytest.raises(InputError):
            build_draft_tree(trigram_model(), [], TreeParams())

    @pytest.mark.parametrize("context", [[99, 0, 1], [-1, 0, 1], [0, 1, 4]])
    def test_out_of_range_token_rejected(self, context):
        # Before the window too, where the model never reads it.
        bigram = NGramModel.fit(WXYZ, [[0, 1, 2, 3]], order=2, smoothing=0.1)
        with pytest.raises(InputError, match="outside the model vocabulary"):
            build_draft_tree(bigram, context, TreeParams())
        with pytest.raises(InputError, match="outside the model vocabulary"):
            grow_trees(bigram, [[0, 1], context], TreeParams())

    @pytest.mark.parametrize("context", [[0, 1.5], [1.5, 0, 1], [0, float("nan")],
                                         [float("nan"), 0, 1]])
    def test_token_that_is_not_an_integer_rejected(self, context):
        # [0, 1.5] used to grow the tree of [0, 1].
        bigram = NGramModel.fit(WXYZ, [[0, 1, 2, 3]], order=2, smoothing=0.1)
        with pytest.raises(InputError, match="not an integer"):
            build_draft_tree(bigram, context, TreeParams())
        with pytest.raises(InputError, match="not an integer"):
            grow_trees(bigram, [[0, 1], context], TreeParams())

    def test_model_sees_the_window_of_context_and_path_only(self):
        seen = []
        spy = trigram_model()
        batch = spy.next_token_dists

        def recording_batch(contexts):
            seen.append(window_tuples(spy.windows(contexts)))
            return batch(contexts)

        spy.next_token_dists = recording_batch
        params = TreeParams(3, 2, 3, 8)
        context = [3, 3, 2, 0, 1]
        tree = build_draft_tree(spy, context, params)
        assert seen[0] == [(0, 1)]
        assert seen == growth_batches([context], tree, 2)
        assert tree_tuples(tree) == tree_tuples(build_draft_tree(trigram_model(), [0, 1], params))

    def test_growth_asks_only_for_the_rows_it_expands(self):
        # With every probability positive each expanded node gets a child, so
        # the draft is asked once for each tree's window and once for each
        # node with children, never for a node that stays a leaf.
        rng = np.random.default_rng(404)
        for _ in range(80):
            size = int(rng.integers(2, 6))
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            window = int(rng.integers(0, 3))
            table = {tuple(rng.integers(0, size, size=window).tolist()): rng.random(size) + 0.01
                     for _ in range(8)}
            draft = TableModel(vocab, np.ones(size), {c: d / d.sum() for c, d in table.items()},
                               context_window=window)
            contexts = [rng.integers(0, size, size=int(rng.integers(1, 5))).tolist()
                        for _ in range(int(rng.integers(1, 5)))]
            trees = grow_trees(draft, contexts, random_params(rng))
            tree_of = np.repeat(np.arange(len(contexts)), np.diff(trees.offsets))
            expanded = {(t, parent) for t, parent in zip(tree_of.tolist(), trees.parents.tolist())
                        if parent != -1}
            assert draft.batches[0] == window_tuples(draft.windows(contexts))
            assert sum(map(len, draft.batches)) == len(contexts) + len(expanded)
            assert draft.batches == growth_batches(contexts, trees, window)

    def test_invalid_params_rejected(self):
        with pytest.raises(InputError):
            TreeParams(max_depth=0)
        with pytest.raises(InputError):
            TreeParams(root_top_k=4, max_nodes=3)


class TestInvariants:
    def test_randomized_builds_respect_caps(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            model, context = random_model_and_context(rng)
            params = random_params(rng)
            tree = build_draft_tree(model, context, params)
            depths, parents, cum_logp = tree.depths.tolist(), tree.parents.tolist(), tree.cum_logp
            assert 1 <= len(depths) <= params.max_nodes
            assert depths.count(1) <= params.root_top_k
            assert max(depths) <= params.max_depth
            children = [0] * len(depths)
            for parent in parents:
                if parent != -1:
                    children[parent] += 1
            assert all(c <= params.max_branch for c in children)
            for i, (parent, p_draft) in enumerate(zip(parents, tree.p_draft)):
                if parent == -1:
                    assert depths[i] == 1
                    assert cum_logp[i] == pytest.approx(math.log(p_draft), abs=1e-12)
                else:
                    assert depths[i] == depths[parent] + 1
                    assert cum_logp[i] == pytest.approx(
                        cum_logp[parent] + math.log(p_draft), abs=1e-12
                    )

    def test_best_first_expansion_order(self):
        # Replay expansion events from the output: a parent's expansion happens
        # when its first child is created; no other unexpanded expandable node
        # existing at that moment may have strictly greater cum_logp.
        rng = np.random.default_rng(303)
        for _ in range(150):
            model, context = random_model_and_context(rng)
            params = random_params(rng)
            tree = build_draft_tree(model, context, params)
            events = []
            seen = set()
            for idx, parent in enumerate(tree.parents.tolist()):
                if parent != -1 and parent not in seen:
                    seen.add(parent)
                    events.append((idx, parent))
            expanded = set()
            for created_at, parent in events:
                parent_clp = tree.cum_logp[parent]
                for other in range(created_at):
                    if other == parent or other in expanded:
                        continue
                    if tree.depths[other] >= params.max_depth:
                        continue
                    assert tree.cum_logp[other] <= parent_clp + 1e-12
                expanded.add(parent)


# --- node paths ----------------------------------------------------------------


def oracle_paths_dfs(tree: DraftTrees):
    children: dict[int, list[int]] = {i: [] for i in range(len(tree.parents))}
    for i, parent in enumerate(tree.parents.tolist()):
        if parent != -1:
            children[parent].append(i)
    paths = []

    def walk(index, acc):
        acc = acc + [tree.tokens[index]]
        if not children[index]:
            paths.append((index, acc))
            return
        for child in children[index]:
            walk(child, acc)

    for i, parent in enumerate(tree.parents.tolist()):
        if parent == -1:
            walk(i, [])
    return paths


def paths_from_parents(tree: DraftTrees):
    """Each node's path rebuilt from the parent links, in insertion order."""
    paths = []
    for token, parent in zip(tree.tokens.tolist(), tree.parents.tolist()):
        paths.append((() if parent == -1 else paths[parent]) + (token,))
    return paths


def leaf_paths(tree: DraftTrees):
    """The paths of the childless nodes, in insertion order."""
    parents = set(tree.parents.tolist())
    return [list(path) for i, path in enumerate(paths_from_parents(tree)) if i not in parents]


class TestPaths:
    def test_single_chain(self):
        draft = TableModel(WXYZ, [1.0, 0.0, 0.0, 0.0], context_window=2)
        tree = build_draft_tree(draft, [1], TreeParams(3, 2, 3, 8))
        assert paths_from_parents(tree) == [(0,), (0, 0), (0, 0, 0)]
        assert leaf_paths(tree) == [[0, 0, 0]]

    def test_two_depth_one_leaves(self):
        draft = TableModel(WXYZ, [0.6, 0.4, 0.0, 0.0], context_window=2)
        tree = build_draft_tree(draft, [1], TreeParams(1, 2, 2, 8))
        assert leaf_paths(tree) == [[0], [1]]

    def test_matches_dfs_oracle(self):
        rng = np.random.default_rng(505)
        for _ in range(60):
            model, context = random_model_and_context(rng)
            tree = build_draft_tree(model, context, random_params(rng))
            got = leaf_paths(tree)
            dfs = oracle_paths_dfs(tree)
            # leaves in insertion order; dfs entries are keyed by leaf index
            assert got == [p for _, p in sorted(dfs)]
