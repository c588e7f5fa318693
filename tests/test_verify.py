
import re

import numpy as np
import pytest

from conftest import TableModel, node_paths, score_lists, tree_lists, window_tuples
from treespec import (
    InputError,
    NGramModel,
    TreeParams,
    Vocabulary,
    build_draft_tree,
    entropy_nats,
    score_tree,
    score_trees,
)
from treespec.verify import acceptance_probs

ABCD = Vocabulary(("a", "b", "c", "d"))


class TestAcceptanceProb:
    """``acceptance_probs``, min(1, p_target / p_draft) of each pair."""

    def test_ratio(self):
        assert acceptance_probs([0.2], [0.4]).tolist() == [0.5]

    def test_clamp(self):
        assert acceptance_probs([0.9], [0.3]).tolist() == [1.0]

    def test_zero_target(self):
        assert acceptance_probs([0.0], [0.5]).tolist() == [0.0]

    def test_zero_draft_rejected(self):
        with pytest.raises(InputError, match=r"^p_draft=0\.0 outside \(0, 1\]$"):
            acceptance_probs([0.5], [0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError, match=r"^p_target=1\.5 outside \[0, 1\]$"):
            acceptance_probs([1.5], [0.5])
        with pytest.raises(InputError, match=r"^p_draft=1\.5 outside \(0, 1\]$"):
            acceptance_probs([0.5], [1.5])
        # The first bad pair is named: by its p_target when that is bad, else by its p_draft.
        with pytest.raises(InputError, match=r"^p_draft=2\.0 outside \(0, 1\]$"):
            acceptance_probs([0.5, 0.2, -0.5], [0.5, 2.0, 0.0])
        with pytest.raises(InputError, match=r"^p_target=nan outside \[0, 1\]$"):
            acceptance_probs([0.5, float("nan")], [0.5, 0.0])

    @pytest.mark.parametrize("p_target, p_draft", [
        ([0.2, 0.3], [0.5]),  # broadcast to two alphas before
        ([0.2, 0.3], [0.5, 0.5, 0.5]),  # numpy's bare broadcast ValueError before
        (1.5, 0.5),  # IndexError on the 0-d array before
        ([[0.2]], [[0.5]]),
    ], ids=["one-draft-for-two", "three-drafts-for-two", "scalars", "two-dimensional"])
    def test_unpaired_inputs_rejected(self, p_target, p_draft):
        shapes = f"{np.shape(p_target)} and {np.shape(p_draft)}"
        with pytest.raises(InputError, match=re.escape(shapes)):
            acceptance_probs(p_target, p_draft)

    def test_no_pairs(self):
        alphas = acceptance_probs([], [])
        assert alphas.dtype == np.float64 and alphas.shape == (0,)

    def test_subnormal_draft_keeps_the_token(self):
        # 0.25 / 5e-321 overflows to inf; the rule must say so without a warning.
        assert acceptance_probs([0.25, 1e-320], [5e-321, 0.5]).tolist() == [1.0, 2e-320]

    def test_monotone_in_target(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p_draft = float(rng.uniform(0.01, 1.0))
            targets = np.sort(rng.random(10))
            alphas = acceptance_probs(targets, np.full(10, p_draft)).tolist()
            assert all(a <= b for a, b in zip(alphas, alphas[1:]))
            for t, a in zip(targets, alphas):
                if t >= p_draft:
                    assert a == 1.0


class TestScoreTree:
    def test_target_equals_draft_gives_alpha_one(self):
        doc = [0, 1, 2, 3, 0, 1, 2, 0, 1]
        model = NGramModel.fit(ABCD, [doc], order=2, smoothing=0.4)
        tree = build_draft_tree(model, [0, 1], TreeParams(3, 2, 3, 8))
        scores = score_tree(model, [0, 1], tree)
        assert len(scores["alpha"]) == len(tree.tokens)
        assert all(alpha == 1.0 for alpha in scores["alpha"])

    def test_depths_that_disagree_with_parents_rejected(self):
        # Each node's window is built from its parent's, one depth at a time.
        model = NGramModel.fit(ABCD, [[0, 1, 2, 3, 0, 1, 2, 0, 1]], order=3, smoothing=0.4)
        tree = build_draft_tree(model, [0, 1], TreeParams(3, 2, 3, 8))
        assert tree.depths.max() == 3
        for depths in (np.ones_like(tree.depths), tree.depths + 1, tree.depths[::-1]):
            with pytest.raises(InputError, match="depth must be 1 at the root"):
                score_tree(model, [0, 1], tree._replace(depths=depths))

    def test_one_hot_target(self):
        draft = TableModel(ABCD, [0.5, 0.5, 0.0, 0.0], context_window=1)
        target = TableModel(ABCD, [1.0, 0.0, 0.0, 0.0], context_window=1)
        tree = build_draft_tree(draft, [2], TreeParams(1, 2, 2, 8))
        assert tree.tokens.tolist() == [0, 1]
        scores = score_lists(score_tree(target, [2], tree))
        assert scores["p_target"] == [1.0, 0.0] and scores["alpha"] == [1.0, 0.0]

    def test_sequential_oracle_six_token_corpus(self):
        doc = [0, 1, 2, 0, 1, 3]
        draft = NGramModel.fit(ABCD, [doc], order=2, smoothing=0.3)
        target = NGramModel.fit(ABCD, [doc], order=3, smoothing=0.3)
        context = [0, 1]
        tree = build_draft_tree(draft, context, TreeParams(3, 2, 3, 8))
        scores = score_lists(score_tree(target, context, tree))
        nodes = zip(tree.tokens, tree.p_draft, node_paths(tree), scores["p_target"],
                    scores["alpha"], scores["target_entropy"], strict=True)
        for token, p_draft, path, p_target, alpha, target_entropy in nodes:
            dist = target.next_token_dist(context + list(path[:-1]))
            assert p_target == float(dist[token])
            assert alpha == min(1.0, p_target / p_draft)
            assert target_entropy == entropy_nats(dist)

    def test_sequential_oracle_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            size = int(rng.integers(2, 8))
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            doc = [int(t) for t in rng.integers(0, size, size=60)]
            draft = NGramModel.fit(vocab, [doc], order=2, smoothing=float(rng.uniform(0.05, 0.9)))
            target = NGramModel.fit(vocab, [doc], order=3, smoothing=float(rng.uniform(0.05, 0.9)))
            context = [int(t) for t in rng.integers(0, size, size=int(rng.integers(1, 6)))]
            tree = build_draft_tree(draft, context, TreeParams(3, 2, 3, 10))
            scores = score_lists(score_tree(target, context, tree))
            nodes = zip(tree.tokens, node_paths(tree), scores["p_target"],
                        scores["target_entropy"], strict=True)
            for token, path, p_target, target_entropy in nodes:
                dist = target.next_token_dist(context + list(path[:-1]))
                assert p_target == float(dist[token])
                assert target_entropy == entropy_nats(dist)

    @pytest.mark.parametrize("draft_size, context",
                             [(4, [99, 0, 1]), (4, [-1, 0, 1]), (4, [0, 1, 4]), (5, [0, 1])])
    def test_out_of_range_token_rejected(self, draft_size, context):
        # Before the window too, where the model never reads it; or a draft
        # of 5 tokens grows a root token 4, which no context holds.
        draft_vocab = Vocabulary(tuple("abcde"[:draft_size]))
        draft = NGramModel.fit(draft_vocab, [[0, 1, draft_size - 1]], order=2, smoothing=0.1)
        model = NGramModel.fit(ABCD, [[0, 1, 2, 3]], order=2, smoothing=0.1)
        tree = build_draft_tree(draft, [0, 0, 1], TreeParams(max_depth=1))
        with pytest.raises(InputError, match="outside the model vocabulary"):
            score_tree(model, context, tree)
        with pytest.raises(InputError, match="outside the model vocabulary"):
            score_trees(model, [[0, 0, 1], context], tree.take([0, 0]))

    @pytest.mark.parametrize("context", [[0, 1.5], [1.5, 1], [0, float("nan")],
                                         [float("nan"), 1]])
    def test_token_that_is_not_an_integer_rejected(self, context):
        # [0, 1.5] used to be scored as [0, 1].
        model = NGramModel.fit(ABCD, [[0, 1, 2, 3]], order=2, smoothing=0.1)
        tree = build_draft_tree(model, [0, 1], TreeParams())
        with pytest.raises(InputError, match="not an integer"):
            score_tree(model, context, tree)
        with pytest.raises(InputError, match="not an integer"):
            score_trees(model, [[0, 1], context], tree.take([0, 0]))


class TestSparseMatchesTable:
    """Trees and scores over NGramModels equal those over TableModels that
    hold the same rows as dense vectors, keyed on the windows of the contexts asked."""

    @staticmethod
    def as_table(model, contexts):
        rows = {window: np.asarray(model.next_token_dist(c))
                for c, window in zip(contexts, window_tuples(model.windows(contexts)))}
        uniform = np.full(model.vocab.size, 1.0 / model.vocab.size)
        return TableModel(model.vocab, uniform, rows, context_window=model.context_window)

    @pytest.mark.parametrize("smoothing", [0.0, 1e-3, 0.1, 1.0])
    def test_same_trees_and_scores(self, smoothing):
        rng = np.random.default_rng(int(smoothing * 1000) + 5)
        for _ in range(30):
            size = int(rng.integers(2, 13))
            vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
            docs = [[int(t) for t in rng.integers(0, size, size=int(rng.integers(5, 40)))]
                    for _ in range(int(rng.integers(1, 4)))]
            draft_order = int(rng.integers(1, 4))
            draft = NGramModel.fit(vocab, docs, order=draft_order, smoothing=smoothing)
            target = NGramModel.fit(vocab, docs, order=draft_order + 1, smoothing=smoothing)
            params = TreeParams(
                max_depth=int(rng.integers(1, 5)),
                max_branch=int(rng.integers(1, 4)),
                root_top_k=int(rng.integers(1, 4)),
                max_nodes=int(rng.integers(3, 17)),
            )
            context = [int(t) for t in rng.integers(0, size, size=int(rng.integers(1, 6)))]
            tree = build_draft_tree(draft, context, params)
            scores = score_lists(score_tree(target, context, tree))

            asked = [context] + [context + list(path) for path in node_paths(tree)]
            table_tree = build_draft_tree(self.as_table(draft, asked), context, params)
            assert tree_lists(table_tree) == tree_lists(tree)  # every column
            assert score_lists(score_tree(self.as_table(target, asked), context, tree)) == scores
