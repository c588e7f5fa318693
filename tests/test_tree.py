import math

import numpy as np
import pytest

from treespec import (
    DraftTree,
    InputError,
    NGramModel,
    TableModel,
    TreeNode,
    TreeParams,
    Vocabulary,
    build_draft_tree,
    tree_attention_mask,
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
    return NGramModel(WXYZ, 3, TRIGRAM_COUNTS, smoothing)


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
        selected.append([root, None, False])
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


def tree_tuples(tree: DraftTree):
    return [(n.token, n.depth, n.parent, n.p_draft, n.cum_logp) for n in tree.nodes]


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
        draft = TableModel(WXYZ, [1.0, 0.0, 0.0, 0.0])
        tree = build_draft_tree(draft, [1], TreeParams(3, 2, 3, 8))
        assert tree_tuples(tree) == [
            (0, 1, None, 1.0, 0.0),
            (0, 2, 0, 1.0, 0.0),
            (0, 3, 1, 1.0, 0.0),
        ]

    def test_depth_cap_yields_only_roots(self):
        params = TreeParams(max_depth=1, max_branch=2, root_top_k=3, max_nodes=8)
        model = trigram_model()
        tree = build_draft_tree(model, [0, 1], params)
        assert len(tree.nodes) == min(3, WXYZ.size)
        assert all(n.depth == 1 for n in tree.nodes)

    def test_depth_cap_small_vocab(self):
        vocab = Vocabulary(("a", "b"))
        model = NGramModel.fit(vocab, [[0, 1, 0]], order=1, smoothing=0.5)
        tree = build_draft_tree(model, [0], TreeParams(1, 2, 3, 8))
        assert len(tree.nodes) == 2

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
        assert [n.token for n in tree.nodes[:3]] == [2, 3, 0]
        assert tree.nodes[0].p_draft == pytest.approx(2 / 3, abs=1e-12)
        assert len(tree.nodes) == 8

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
        assert first == second

    def test_empty_context_rejected(self):
        with pytest.raises(InputError):
            build_draft_tree(trigram_model(), [], TreeParams())

    def test_out_of_range_token_before_window_rejected(self):
        bigram = NGramModel.fit(WXYZ, [[0, 1, 2, 3]], order=2, smoothing=0.1)
        with pytest.raises(InputError):
            build_draft_tree(bigram, [99, 0, 1], TreeParams())

    def test_model_sees_window_plus_path_only(self):
        seen = []

        class Spy(NGramModel):
            def next_token_dist(self, context):
                seen.append(list(context))
                return super().next_token_dist(context)

        params = TreeParams(3, 2, 3, 8)
        context = [3, 3, 2, 0, 1]
        tree = build_draft_tree(Spy(WXYZ, 3, TRIGRAM_COUNTS, 0.2), context, params)
        assert tree.context_len == len(context)
        assert seen[0] == [0, 1]
        assert all(c[:2] == [0, 1] and len(c) <= 2 + 2 for c in seen)
        assert tree_tuples(tree) == tree_tuples(build_draft_tree(trigram_model(), [0, 1], params))

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
            assert 1 <= len(tree.nodes) <= params.max_nodes
            assert sum(1 for n in tree.nodes if n.depth == 1) <= params.root_top_k
            assert max(n.depth for n in tree.nodes) <= params.max_depth
            children = [0] * len(tree.nodes)
            for node in tree.nodes:
                if node.parent is not None:
                    children[node.parent] += 1
            assert all(c <= params.max_branch for c in children)
            for i, node in enumerate(tree.nodes):
                if node.parent is None:
                    assert node.depth == 1
                    assert node.cum_logp == pytest.approx(math.log(node.p_draft), abs=1e-12)
                else:
                    parent = tree.nodes[node.parent]
                    assert node.depth == parent.depth + 1
                    assert node.cum_logp == pytest.approx(
                        parent.cum_logp + math.log(node.p_draft), abs=1e-12
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
            for idx, node in enumerate(tree.nodes):
                if node.parent is not None and node.parent not in seen:
                    seen.add(node.parent)
                    events.append((idx, node.parent))
            expanded = set()
            for created_at, parent in events:
                parent_clp = tree.nodes[parent].cum_logp
                for other in range(created_at):
                    if other == parent or other in expanded:
                        continue
                    if tree.nodes[other].depth >= params.max_depth:
                        continue
                    assert tree.nodes[other].cum_logp <= parent_clp + 1e-12
                expanded.add(parent)


# --- attention mask ----------------------------------------------------------


def oracle_mask(tree: DraftTree) -> np.ndarray:
    """Explicit per-node ancestor walk over parent links."""
    ctx_len = tree.context_len
    size = ctx_len + len(tree.nodes)
    expected = np.zeros((size, size), dtype=bool)
    for i in range(ctx_len):
        expected[i, : i + 1] = True
    for i, node in enumerate(tree.nodes):
        visible = {i}
        current = node.parent
        while current is not None:
            visible.add(current)
            current = tree.nodes[current].parent
        expected[ctx_len + i, :ctx_len] = True
        for j in visible:
            expected[ctx_len + i, ctx_len + j] = True
    return expected


class TestMask:
    def test_single_node(self):
        tree = DraftTree(nodes=[TreeNode(0, 1, None, 1.0, 0.0)], context_len=2)
        mask = tree_attention_mask(tree)
        assert mask.tolist() == [
            [True, False, False],
            [True, True, False],
            [True, True, True],
        ]

    def test_sibling_isolation(self):
        tree = DraftTree(
            nodes=[TreeNode(0, 1, None, 0.5, math.log(0.5)), TreeNode(1, 1, None, 0.5, math.log(0.5))],
            context_len=1,
        )
        mask = tree_attention_mask(tree)
        assert not mask[1, 2]
        assert not mask[2, 1]
        assert mask[1, 1] and mask[2, 2]
        assert mask[1, 0] and mask[2, 0]

    def test_trigram_tree_matches_ancestor_walk(self):
        tree = build_draft_tree(trigram_model(), [0, 1], TreeParams(3, 2, 3, 8))
        assert np.array_equal(tree_attention_mask(tree), oracle_mask(tree))

    def test_randomized_masks(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            model, context = random_model_and_context(rng)
            tree = build_draft_tree(model, context, random_params(rng))
            assert np.array_equal(tree_attention_mask(tree), oracle_mask(tree))


# --- node paths ----------------------------------------------------------------


def oracle_paths_dfs(tree: DraftTree):
    children: dict[int, list[int]] = {i: [] for i in range(len(tree.nodes))}
    for i, node in enumerate(tree.nodes):
        if node.parent is not None:
            children[node.parent].append(i)
    paths = []

    def walk(index, acc):
        acc = acc + [tree.nodes[index].token]
        if not children[index]:
            paths.append((index, acc))
            return
        for child in children[index]:
            walk(child, acc)

    for i, node in enumerate(tree.nodes):
        if node.parent is None:
            walk(i, [])
    return paths


def leaf_paths(tree: DraftTree):
    """``tree.paths`` of the childless nodes, in insertion order."""
    parents = {node.parent for node in tree.nodes}
    return [list(path) for i, path in enumerate(tree.paths) if i not in parents]


class TestPaths:
    def test_single_chain(self):
        draft = TableModel(WXYZ, [1.0, 0.0, 0.0, 0.0])
        tree = build_draft_tree(draft, [1], TreeParams(3, 2, 3, 8))
        assert tree.paths == [(0,), (0, 0), (0, 0, 0)]
        assert leaf_paths(tree) == [[0, 0, 0]]

    def test_two_depth_one_leaves(self):
        draft = TableModel(WXYZ, [0.6, 0.4, 0.0, 0.0])
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
            # a tree built by hand derives the same paths from its parent links
            assert DraftTree(nodes=tree.nodes, context_len=tree.context_len).paths == tree.paths
