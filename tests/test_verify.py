import math

import numpy as np
import pytest

from treespec import (
    InputError,
    NGramModel,
    NodeScore,
    TableModel,
    TreeParams,
    Vocabulary,
    acceptance_prob,
    build_draft_tree,
    entropy_nats,
    residual_dist,
    score_tree,
    simulate_chain_acceptance,
)

ABCD = Vocabulary(("a", "b", "c", "d"))


def random_dist(rng, size, allow_zero=True):
    weights = rng.random(size)
    if allow_zero and size > 2 and rng.random() < 0.5:
        weights[rng.integers(0, size)] = 0.0
    return weights / weights.sum()


class TestAcceptanceProb:
    def test_ratio(self):
        assert acceptance_prob(0.2, 0.4) == 0.5

    def test_clamp(self):
        assert acceptance_prob(0.9, 0.3) == 1.0

    def test_zero_target(self):
        assert acceptance_prob(0.0, 0.5) == 0.0

    def test_zero_draft_rejected(self):
        with pytest.raises(InputError):
            acceptance_prob(0.5, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            acceptance_prob(1.5, 0.5)
        with pytest.raises(InputError):
            acceptance_prob(0.5, 1.5)

    def test_monotone_in_target(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p_draft = float(rng.uniform(0.01, 1.0))
            targets = np.sort(rng.random(10))
            alphas = [acceptance_prob(float(t), p_draft) for t in targets]
            assert all(a <= b for a, b in zip(alphas, alphas[1:]))
            for t, a in zip(targets, alphas):
                if t >= p_draft:
                    assert a == 1.0


class TestScoreTree:
    def test_target_equals_draft_gives_alpha_one(self):
        doc = [0, 1, 2, 3, 0, 1, 2, 0, 1]
        model = NGramModel.fit(ABCD, [doc], order=2, smoothing=0.4)
        tree = build_draft_tree(model, [0, 1], TreeParams(3, 2, 3, 8))
        scores, _ = score_tree(model, [0, 1], tree)
        assert len(scores) == len(tree.nodes)
        assert all(s.alpha == 1.0 for s in scores)

    def test_one_hot_target(self):
        draft = TableModel(ABCD, [0.5, 0.5, 0.0, 0.0])
        target = TableModel(ABCD, [1.0, 0.0, 0.0, 0.0])
        tree = build_draft_tree(draft, [2], TreeParams(1, 2, 2, 8))
        assert [tree.nodes[i].token for i in range(2)] == [0, 1]
        scores, bonus = score_tree(target, [2], tree)
        assert scores[0].p_target == 1.0 and scores[0].alpha == 1.0
        assert scores[1].p_target == 0.0 and scores[1].alpha == 0.0
        assert bonus == 0

    def test_sequential_oracle_six_token_corpus(self):
        doc = [0, 1, 2, 0, 1, 3]
        draft = NGramModel.fit(ABCD, [doc], order=2, smoothing=0.3)
        target = NGramModel.fit(ABCD, [doc], order=3, smoothing=0.3)
        context = [0, 1]
        tree = build_draft_tree(draft, context, TreeParams(3, 2, 3, 8))
        scores, bonus = score_tree(target, context, tree)
        for score in scores:
            node = tree.nodes[score.node_index]
            prefix = context + list(tree.paths[score.node_index][:-1])
            dist = target.next_token_dist(prefix)
            assert score.p_target == float(dist[node.token])
            assert score.alpha == min(1.0, score.p_target / node.p_draft)
            assert score.target_entropy == entropy_nats(dist)
        assert bonus == int(np.argmax(target.next_token_dist(context)))

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
            scores, _ = score_tree(target, context, tree)
            assert [s.node_index for s in scores] == list(range(len(tree.nodes)))
            for score in scores:
                node = tree.nodes[score.node_index]
                prefix = context + list(tree.paths[score.node_index][:-1])
                dist = target.next_token_dist(prefix)
                assert score.p_target == float(dist[node.token])
                assert score.target_entropy == entropy_nats(dist)

    def test_out_of_range_token_before_window_rejected(self):
        model = NGramModel.fit(ABCD, [[0, 1, 2, 3]], order=2, smoothing=0.1)
        tree = build_draft_tree(model, [0, 0, 1], TreeParams())
        with pytest.raises(InputError):
            score_tree(model, [99, 0, 1], tree)

    def test_context_length_mismatch(self):
        draft = TableModel(ABCD, [0.25] * 4)
        tree = build_draft_tree(draft, [0, 1], TreeParams())
        with pytest.raises(InputError):
            score_tree(draft, [0], tree)


def make_path(alphas):
    return [NodeScore(i, a, a, 0.0) for i, a in enumerate(alphas)]


class TestChainSimulation:
    def test_all_accepted(self):
        rng = np.random.default_rng(1)
        assert all(
            simulate_chain_acceptance(make_path([1.0, 1.0, 1.0]), rng) == 3 for _ in range(100)
        )

    def test_first_rejected(self):
        rng = np.random.default_rng(2)
        assert all(
            simulate_chain_acceptance(make_path([0.0, 1.0, 1.0]), rng) == 0 for _ in range(100)
        )

    def test_expectation_matches_sum_of_products(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            alphas = [float(a) for a in rng.uniform(0.2, 0.95, size=int(rng.integers(1, 5)))]
            closed = 0.0
            running = 1.0
            for a in alphas:
                running *= a
                closed += running
            trials = 30_000
            path = make_path(alphas)
            samples = [simulate_chain_acceptance(path, rng) for _ in range(trials)]
            mean = sum(samples) / trials
            se = np.std(samples) / math.sqrt(trials)
            assert abs(mean - closed) <= 3 * se + 1e-9


class TestResidual:
    def test_identical_dists_fall_back_to_target(self):
        target = np.array([0.3, 0.7])
        assert np.array_equal(residual_dist(target, target), target)

    def test_one_hot_pair(self):
        target = np.array([1.0, 0.0])
        draft = np.array([0.0, 1.0])
        assert np.array_equal(residual_dist(target, draft), [1.0, 0.0])

    def test_hand_normalized_residual(self):
        target = np.array([0.6, 0.4])
        draft = np.array([0.4, 0.6])
        assert np.allclose(residual_dist(target, draft), [1.0, 0.0])

    def test_composite_sampler_exact_per_token_mass(self):
        # Closed form, no sampling: draft[t]*alpha[t] + P(reject)*residual[t]
        # must reproduce the target exactly.
        rng = np.random.default_rng(11)
        for _ in range(30):
            size = int(rng.integers(2, 6))
            target = random_dist(rng, size)
            draft = random_dist(rng, size, allow_zero=False)
            alphas = np.array(
                [acceptance_prob(float(t), float(d)) for t, d in zip(target, draft)]
            )
            reject_mass = float((draft * (1.0 - alphas)).sum())
            emitted = draft * alphas + reject_mass * residual_dist(target, draft)
            assert np.max(np.abs(emitted - target)) < 1e-12


class TestSparseMatchesTable:
    """Trees and scores over NGramModels equal those over TableModels that
    hold the same rows as dense vectors, keyed on the full contexts asked."""

    @staticmethod
    def as_table(model, contexts):
        rows = {tuple(c): np.asarray(model.next_token_dist(c)) for c in contexts}
        uniform = np.full(model.vocab.size, 1.0 / model.vocab.size)
        return TableModel(model.vocab, uniform, rows)

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
            scores, bonus = score_tree(target, context, tree)

            asked = [context] + [context + list(path) for path in tree.paths]
            table_tree = build_draft_tree(self.as_table(draft, asked), context, params)
            assert table_tree == tree  # nodes, context_len and paths
            table_scores, table_bonus = score_tree(self.as_table(target, asked), context, tree)
            assert table_scores == scores
            assert table_bonus == bonus
