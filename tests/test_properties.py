"""Seeded property tests over random TableModel draft/target pairs and TreeParams.

Each case draws a small vocabulary, a draft and a target table model that
read a random number of trailing tokens (8 of them, more than most
contexts hold, or fewer), random tree
limits and a random context. Distributions have zero entries and exact ties,
so the p <= 0 cut and the index tie-break are exercised. The tree, its scores
and a domain's steps are checked against re-computations that score one
context at a time over dense vectors.
"""

import itertools
import math

import numpy as np

from conftest import (TableModel, growth_batches, node_paths, scoring_batch, score_lists, tree_lists,
                      window_tuples)
from treespec.metrics import TREE_FIELDS
from treespec import (
    TreeParams,
    Vocabulary,
    build_draft_tree,
    entropy_nats,
    generate_step,
    grow_trees,
    score_tree,
    score_trees,
)

CASES = 300


def random_dist(rng, size):
    """Small integer weights (zeros and ties) or uniform reals, normalized."""
    if rng.random() < 0.6:
        weights = rng.integers(0, 4, size=size).astype(np.float64)
    else:
        weights = rng.random(size)
    if weights.sum() == 0.0:
        weights[rng.integers(size)] = 1.0
    return weights / weights.sum()


def random_model(rng, vocab):
    # A window of 8 is as long as the longest context a case starts on.
    window = [8, 0, 1, 2, 3][rng.integers(5)]
    table = {
        context: random_dist(rng, vocab.size)
        for n in range(min(window, 3) + 1)
        for context in itertools.product(range(vocab.size), repeat=n)
        if rng.random() < 0.8
    }
    return TableModel(vocab, random_dist(rng, vocab.size), table, context_window=window)


def random_case(rng):
    vocab = Vocabulary(tuple(f"t{i}" for i in range(int(rng.integers(2, 6)))))
    draft, target = random_model(rng, vocab), random_model(rng, vocab)
    root_top_k = int(rng.integers(1, 5))
    params = TreeParams(
        max_depth=int(rng.integers(1, 5)),
        max_branch=int(rng.integers(1, 4)),
        root_top_k=root_top_k,
        max_nodes=int(rng.integers(root_top_k, 16)),
    )
    context = [int(t) for t in rng.integers(0, vocab.size, size=int(rng.integers(1, 9)))]
    return draft, target, params, context


def dense(model, context):
    return np.asarray(model.next_token_dist(list(context)), dtype=np.float64)


def ranked(dist, k):
    """The k best (token, p) pairs with p > 0: descending p, ascending token on ties."""
    order = sorted(range(dist.shape[0]), key=lambda t: (-dist[t], t))[:k]
    return [(t, float(dist[t])) for t in order if dist[t] > 0.0]


def oracle_tree(draft, context, params):
    """Best-first expansion, one context at a time: (token, depth, parent, p, cum_logp, path)."""
    nodes = [
        (token, 1, -1, p, math.log(p), (token,))
        for token, p in ranked(dense(draft, context), params.root_top_k)
    ][: params.max_nodes]
    expanded = set()
    while len(nodes) < params.max_nodes:
        open_nodes = [
            i for i, node in enumerate(nodes) if node[1] < params.max_depth and i not in expanded
        ]
        if not open_nodes:
            break
        best = max(open_nodes, key=lambda i: (nodes[i][4], -i))
        expanded.add(best)
        _, depth, _, _, cum_logp, path = nodes[best]
        for token, p in ranked(dense(draft, [*context, *path]), params.max_branch):
            if len(nodes) >= params.max_nodes:
                break
            nodes.append((token, depth + 1, best, p, cum_logp + math.log(p), (*path, token)))
    return nodes


def test_tree_respects_budget_depth_cap_and_best_first_order():
    rng = np.random.default_rng(4101)
    for _ in range(CASES):
        draft, _, params, context = random_case(rng)
        tree = build_draft_tree(draft, context, params)
        parents = tree.parents.tolist()
        assert 1 <= len(parents) <= params.max_nodes
        assert all(1 <= depth <= params.max_depth for depth in tree.depths)
        assert parents.count(-1) <= params.root_top_k
        assert max(parents.count(i) for i in range(len(parents))) <= params.max_branch
        expected = oracle_tree(draft, context, params)
        assert list(zip(*(column.tolist() for column in tree[:-1]),
                        node_paths(tree))) == [(*node[:4], node[5]) for node in expected]


def test_score_tree_makes_one_batched_call_and_alpha_is_the_clipped_ratio():
    rng = np.random.default_rng(4102)
    for _ in range(CASES):
        draft, target, params, context = random_case(rng)
        tree = build_draft_tree(draft, context, params)
        scores = score_lists(score_tree(target, context, tree))
        paths = node_paths(tree)
        prefixes = list(dict.fromkeys([(), *(path[:-1] for path in paths)]))
        assert target.batches == [scoring_batch([context], tree, target.context_window)]
        assert target.scored == len(prefixes)
        nodes = zip(tree.tokens.tolist(), tree.p_draft.tolist(), paths, scores["p_target"],
                    scores["alpha"], scores["target_entropy"], strict=True)
        for token, p_draft, path, p_target, alpha, target_entropy in nodes:
            dist = dense(target, [*context, *path[:-1]])
            assert p_target == float(dist[token])
            assert alpha == min(1.0, p_target / p_draft)
            assert 0.0 <= alpha <= 1.0
            assert target_entropy == entropy_nats(dist)


def test_trees_grown_and_scored_in_lockstep_equal_one_at_a_time():
    rng = np.random.default_rng(4104)
    for _ in range(CASES):
        draft, target, params, context = random_case(rng)
        # Trees over other contexts may need fewer or more growth rounds.
        other = rng.integers(0, draft.vocab.size, size=int(rng.integers(1, 9))).tolist()
        contexts = [context, other, context[-1:]]
        trees = grow_trees(draft, contexts, params)
        assert [tree_lists(trees.take([i])) for i in range(len(contexts))] == [
            tree_lists(build_draft_tree(draft, c, params)) for c in contexts]
        singles = [score_lists(score_tree(target, c, trees.take([i])))
                   for i, c in enumerate(contexts)]
        assert score_lists(score_trees(target, contexts, trees)) == {
            name: [value for single in singles for value in single[name]] for name in singles[0]
        }


def test_growth_and_scoring_ask_the_per_node_windows():
    # Each batch holds exactly the windows of context + path, cut node by
    # node: over contexts shorter than the window (a window of 8 is wider
    # than most) and with models that read no token.
    rng = np.random.default_rng(4106)
    tally = {"short": 0, "no token": 0}
    for _ in range(CASES):
        draft, target, params, context = random_case(rng)
        other = rng.integers(0, draft.vocab.size, size=int(rng.integers(1, 9))).tolist()
        contexts = [context, other, context[-1:]]
        trees = grow_trees(draft, contexts, params)
        score_trees(target, contexts, trees)
        assert draft.batches == growth_batches(contexts, trees, draft.context_window)
        assert target.batches == [scoring_batch(contexts, trees, target.context_window)]
        windows = (draft.context_window, target.context_window)
        tally["short"] += any(len(c) < w for c in contexts for w in windows)
        tally["no token"] += 0 in windows
    assert min(tally.values()) >= CASES // 5, tally


def test_contexts_that_share_a_draft_window_share_one_tree():
    rng = np.random.default_rng(4105)
    shared_cases = 0
    for _ in range(CASES):
        draft, target, params, context = random_case(rng)
        size = draft.vocab.size
        longer = [[*rng.integers(0, size, size=int(rng.integers(1, 5))).tolist(), *context]
                  for _ in range(3)]
        cuts = window_tuples(draft.windows([context, *longer]))
        contexts = [c for c, cut in zip([context, *longer], cuts) if cut == cuts[0]]
        shared_cases += len(contexts) > 1
        # A tree depends on its draft window alone, not on what comes before it.
        trees = grow_trees(draft, contexts, params)
        assert tree_lists(trees) == tree_lists(trees.take([0] * len(contexts)))
        # So the shared tree scores over each full context as that context's own tree.
        for c in contexts:
            assert score_lists(score_tree(target, c, trees.take([0]))) == score_lists(
                score_tree(target, c, build_draft_tree(draft, c, params)))
    assert shared_cases > CASES // 3


def oracle_steps(draft, target, prompt, params, max_new_tokens, eos_index):
    """Each step of one prompt on its full context, with no memo: its tree's rows, as
    ``(depth, token, p_draft, p_target, alpha, target_entropy)`` tuples, until the
    target's top token is ``eos_index`` or ``max_new_tokens`` steps are taken."""
    context, steps = list(prompt), []
    for _ in range(max_new_tokens):
        committed = ranked(dense(target, context), 1)[0][0]
        if committed == eos_index:
            break
        rows = []
        for token, depth, _, p_draft, _, path in oracle_tree(draft, context, params):
            dist = dense(target, [*context, *path[:-1]])
            p_target = float(dist[token])
            rows.append((depth, token, p_draft, p_target, min(1.0, p_target / p_draft),
                         entropy_nats(dist)))
        steps.append(rows)
        context.append(committed)
    return steps


def test_generate_step_commits_the_target_top_token_and_records_each_step_tree():
    rng = np.random.default_rng(4103)
    for _ in range(CASES):
        draft, target, params, context = random_case(rng)
        other = rng.integers(0, draft.vocab.size, size=int(rng.integers(1, 9))).tolist()
        prompts = [tuple(context), tuple(other), tuple(context)]
        max_new_tokens = int(rng.integers(1, 5))
        eos_index = [None, *range(target.vocab.size)][rng.integers(target.vocab.size + 1)]
        steps, sizes, columns, counts = generate_step(draft, target, prompts, params,
                                                      max_new_tokens, eos_index)
        offsets = np.cumsum([0, *sizes]).tolist()
        rows = [list(zip(*(columns[name][offsets[e]:offsets[e + 1]].tolist()
                           for name in TREE_FIELDS))) for e in range(len(sizes))]
        expected = [oracle_steps(draft, target, p, params, max_new_tokens, eos_index)
                    for p in prompts]
        assert steps["prompt_id"].tolist() == [p for p, s in enumerate(expected) for _ in s]
        assert steps["step_index"].tolist() == [i for s in expected for i in range(len(s))]
        assert [rows[e] for e in steps["tree"].tolist()] == [r for s in expected for r in s]
        assert counts["stopped_prompts"] == sum(len(s) < max_new_tokens for s in expected)
