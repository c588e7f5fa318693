"""Built-in oracle suites, runnable as ``treespec selftest``.

Compact versions of the verification checks the test suite runs in full:
rejection-sampling exactness, the chain-length law, rank-correlation
equivalence against a quadratic oracle, tree structural invariants, and
entropy bounds. Each check prints one PASS/FAIL line.
"""

from __future__ import annotations

import math

import numpy as np

from .metrics import average_ranks, spearman_rho
from .model import NGramModel, Vocabulary, entropy_nats
from .tree import TreeParams, build_draft_tree, tree_attention_mask
from .verify import acceptance_prob, residual_dist, simulate_chain_acceptance


def _random_dist(rng: np.random.Generator, size: int, sparse: bool = False) -> np.ndarray:
    weights = rng.random(size)
    if sparse and size > 2:
        weights[rng.integers(0, size)] = 0.0
    if weights.sum() <= 0:
        weights[:] = 1.0
    return weights / weights.sum()


def _check_exactness(rng: np.random.Generator, pairs: int = 20) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(pairs):
        size = int(rng.integers(2, 6))
        target = _random_dist(rng, size, sparse=True)
        draft = _random_dist(rng, size)
        alphas = np.array([acceptance_prob(float(t), float(d)) for t, d in zip(target, draft)])
        reject_mass = float((draft * (1.0 - alphas)).sum())
        emitted = draft * alphas + reject_mass * residual_dist(target, draft)
        worst = max(worst, float(np.abs(emitted - target).max()))
    return worst < 1e-12, f"max per-token deviation {worst:.3e}"


def _check_monte_carlo_tv(rng: np.random.Generator, samples: int = 200_000) -> tuple[bool, str]:
    size = 5
    target = _random_dist(rng, size)
    draft = _random_dist(rng, size)
    alphas = np.array([acceptance_prob(float(t), float(d)) for t, d in zip(target, draft)])
    residual = residual_dist(target, draft)
    tokens = rng.choice(size, size=samples, p=draft)
    accepted = rng.random(samples) < alphas[tokens]
    tokens[~accepted] = rng.choice(size, size=int((~accepted).sum()), p=residual)
    freq = np.bincount(tokens, minlength=size) / samples
    tv = 0.5 * float(np.abs(freq - target).sum())
    return tv < 0.02, f"TV distance {tv:.4f}"


def _check_chain_law(rng: np.random.Generator, trials: int = 200_000) -> tuple[bool, str]:
    from .verify import NodeScore

    path = [NodeScore(i, 0.5, 0.5, 0.0) for i in range(3)]
    total = sum(simulate_chain_acceptance(path, rng) for _ in range(trials))
    mean = total / trials
    return abs(mean - 0.875) < 0.01, f"mean accepted length {mean:.4f} vs 0.875"


def _naive_ranks(values: np.ndarray) -> np.ndarray:
    return np.array(
        [float((values < v).sum()) + ((values == v).sum() + 1) / 2.0 for v in values]
    )


def _check_spearman(rng: np.random.Generator, datasets: int = 10) -> tuple[bool, str]:
    for _ in range(datasets):
        n = int(rng.integers(3, 300))
        x = np.round(rng.random(n), 1)
        y = np.round(rng.random(n), 1)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        if not np.array_equal(average_ranks(x), _naive_ranks(x)):
            return False, "rank vectors diverge"
        rx, ry = _naive_ranks(x), _naive_ranks(y)
        rx -= rx.mean()
        ry -= ry.mean()
        oracle = float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))
        got = spearman_rho(zip(x.tolist(), y.tolist()))
        if abs(got - oracle) > 1e-12:
            return False, f"rho {got} vs oracle {oracle}"
    return True, f"{datasets} datasets matched"


def _check_trees(rng: np.random.Generator, builds: int = 100) -> tuple[bool, str]:
    for _ in range(builds):
        vocab = Vocabulary(tuple(f"t{i}" for i in range(int(rng.integers(2, 10)))))
        doc = [int(t) for t in rng.integers(0, vocab.size, size=60)]
        model = NGramModel.fit(vocab, [doc], order=2, smoothing=float(rng.uniform(0.05, 1.0)))
        params = TreeParams(
            max_depth=int(rng.integers(1, 5)),
            max_branch=int(rng.integers(1, 4)),
            root_top_k=int(rng.integers(1, 5)),
            max_nodes=int(rng.integers(4, 13)),
        )
        if params.max_nodes < params.root_top_k:
            continue
        context = [int(t) for t in rng.integers(0, vocab.size, size=int(rng.integers(1, 6)))]
        tree = build_draft_tree(model, context, params)
        if len(tree.nodes) > params.max_nodes:
            return False, "node budget exceeded"
        if sum(1 for n in tree.nodes if n.depth == 1) > params.root_top_k:
            return False, "too many depth-1 nodes"
        if any(n.depth > params.max_depth for n in tree.nodes):
            return False, "depth cap exceeded"
        children = [0] * len(tree.nodes)
        for node in tree.nodes:
            if node.parent is not None:
                children[node.parent] += 1
        if any(c > params.max_branch for c in children):
            return False, "branch cap exceeded"
        mask = tree_attention_mask(tree)
        ctx_len = tree.context_len
        for i in range(len(tree.nodes)):
            visible = {j for j in range(len(tree.nodes)) if mask[ctx_len + i, ctx_len + j]}
            chain, current = set(), i
            while current is not None:
                chain.add(current)
                current = tree.nodes[current].parent
            if visible != chain:
                return False, "mask does not equal ancestor set"
    return True, f"{builds} randomized builds satisfied all invariants"


def _check_entropy() -> tuple[bool, str]:
    for size in (2, 3, 7, 33):
        uniform = np.full(size, 1.0 / size)
        if abs(entropy_nats(uniform) - math.log(size)) > 1e-12:
            return False, f"uniform entropy off at |V|={size}"
        one_hot = np.zeros(size)
        one_hot[size // 2] = 1.0
        if entropy_nats(one_hot) != 0.0:
            return False, f"one-hot entropy nonzero at |V|={size}"
    return True, "uniform and one-hot entropies exact"


def run_selftest(seed: int = 42) -> bool:
    """Run every check; prints one line per check, returns overall success."""
    rng = np.random.default_rng(seed)
    checks = [
        ("rejection-sampling exactness", lambda: _check_exactness(rng)),
        ("composite sampler monte carlo", lambda: _check_monte_carlo_tv(rng)),
        ("chain-length law", lambda: _check_chain_law(rng)),
        ("rank correlation vs naive oracle", lambda: _check_spearman(rng)),
        ("tree invariants and mask oracle", lambda: _check_trees(rng)),
        ("entropy bounds", _check_entropy),
    ]
    all_ok = True
    for name, check in checks:
        ok, detail = check()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
