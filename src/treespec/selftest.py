"""Release oracle checks, run at full size by the acceptance suite and at
compact size by ``treespec selftest``.

Each check draws its cases from the generator it is given and returns what
it measured; the caller holds the bound. Worst cases fold with numpy, which
keeps a NaN where Python's ``max`` drops it, so a NaN fails every bound. The
checks cover rejection-sampling exactness and its Monte Carlo, the chain-length
law, rank correlation against a quadratic oracle, tree structural invariants
with an ancestor-walk mask oracle, and closed-form entropies.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .metrics import average_ranks, spearman_rho
from .model import NGramModel, Vocabulary, entropy_nats
from .tree import TreeParams, build_draft_tree, tree_attention_mask
from .verify import NodeScore, acceptance_prob, residual_dist, simulate_chain_acceptance


def check_sampler(rng: np.random.Generator, pairs: int, samples: int) -> tuple[float, float]:
    """Accept-or-resample over random (target, draft) pairs of 2-5 tokens.

    Returns the worst per-token deviation of the summed emitted mass from the
    target (an alpha outside [0, 1] counts as deviation: it is no acceptance
    probability, however the masses add up) and the worst total-variation
    distance of ``samples`` draws of the same sampler from the target.
    """
    worst_exact = 0.0
    worst_tv = 0.0
    for _ in range(pairs):
        size = int(rng.integers(2, 6))
        target_w = rng.random(size)
        if size > 2 and rng.random() < 0.5:
            target_w[rng.integers(0, size)] = 0.0
        target = target_w / target_w.sum()
        draft_w = rng.random(size)
        draft = draft_w / draft_w.sum()
        alphas = np.array([acceptance_prob(float(t), float(d)) for t, d in zip(target, draft)])
        residual = residual_dist(target, draft)

        reject_mass = float((draft * (1.0 - alphas)).sum())
        emitted = draft * alphas + reject_mass * residual
        outside = np.abs(alphas - alphas.clip(0.0, 1.0)).max()
        worst_exact = np.max([worst_exact, np.abs(emitted - target).max(), outside])

        tokens = rng.choice(size, size=samples, p=draft)
        accepted = rng.random(samples) < alphas[tokens]
        tokens[~accepted] = rng.choice(size, size=int((~accepted).sum()), p=residual)
        freq = np.bincount(tokens, minlength=size) / samples
        worst_tv = np.maximum(worst_tv, 0.5 * np.abs(freq - target).sum())
    return float(worst_exact), float(worst_tv)


def check_chain_law(rng: np.random.Generator, trials: int) -> float:
    """Mean accepted length of a 3-node chain at alpha 0.5; the law gives 0.875."""
    path = [NodeScore(i, 0.5, 0.5, 0.0) for i in range(3)]
    return sum(simulate_chain_acceptance(path, rng) for _ in range(trials)) / trials


def _naive_ranks(values: np.ndarray) -> np.ndarray:
    """O(n^2) average ranks: count below plus half the tie group, per element."""
    below = (values[:, None] > values[None, :]).sum(axis=1)
    ties = (values[:, None] == values[None, :]).sum(axis=1)
    return below + (ties + 1) / 2.0


def check_ranks(rng: np.random.Generator, datasets: int) -> tuple[float, float]:
    """Ranks and Spearman rho on tied random data (n in 3..1000, 2 decimals).

    Returns the largest |average_ranks - naive ranks| and |rho - oracle rho|
    over ``datasets`` samples that are not constant.
    """
    worst_rank = 0.0
    worst_rho = 0.0
    done = 0
    while done < datasets:
        n = int(rng.integers(3, 1001))
        x = np.round(rng.random(n), 2)
        y = np.round(rng.random(n), 2)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        done += 1
        rx, ry = _naive_ranks(x), _naive_ranks(y)
        for values, oracle in ((x, rx), (y, ry)):
            worst_rank = np.maximum(worst_rank, np.abs(average_ranks(values) - oracle).max())
        rx -= rx.mean()
        ry -= ry.mean()
        oracle_rho = float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))
        rho = spearman_rho(zip(x.tolist(), y.tolist()))
        worst_rho = np.maximum(worst_rho, abs(rho - oracle_rho))
    return float(worst_rank), float(worst_rho)


def check_trees(rng: np.random.Generator, builds: int) -> list[str]:
    """Random n-gram trees (orders 1-3, max_nodes from root_top_k up).

    Returns each violated invariant once, in the order first met: the node
    budget, depth-1 count, depth and branch caps, and a mask row that is not
    the whole context plus the node's ancestor walk.
    """
    violations: dict[str, None] = {}
    for _ in range(builds):
        size = int(rng.integers(2, 9))
        vocab = Vocabulary(tuple(f"t{i}" for i in range(size)))
        doc = [int(t) for t in rng.integers(0, size, size=60)]
        model = NGramModel.fit(
            vocab, [doc], order=int(rng.integers(1, 4)), smoothing=float(rng.uniform(0.05, 1.0))
        )
        root_top_k = int(rng.integers(1, 5))
        params = TreeParams(
            max_depth=int(rng.integers(1, 5)),
            max_branch=int(rng.integers(1, 4)),
            root_top_k=root_top_k,
            max_nodes=int(rng.integers(root_top_k, 14)),
        )
        context = [int(t) for t in rng.integers(0, size, size=int(rng.integers(1, 6)))]
        tree = build_draft_tree(model, context, params)
        nodes = tree.nodes

        children = [0] * len(nodes)
        for node in nodes:
            if node.parent is not None:
                children[node.parent] += 1
        if len(nodes) > params.max_nodes:
            violations["node budget exceeded"] = None
        if sum(1 for n in nodes if n.depth == 1) > params.root_top_k:
            violations["too many depth-1 nodes"] = None
        if any(n.depth > params.max_depth for n in nodes):
            violations["depth cap exceeded"] = None
        if any(c > params.max_branch for c in children):
            violations["branch cap exceeded"] = None

        mask = tree_attention_mask(tree)
        ctx_len = tree.context_len
        for i in range(len(nodes)):
            walk, current = set(), i
            while current is not None:
                walk.add(current)
                current = nodes[current].parent
            row = mask[ctx_len + i]
            if not row[:ctx_len].all() or set(np.flatnonzero(row[ctx_len:]).tolist()) != walk:
                violations["mask row is not context plus ancestor walk"] = None
    return list(violations)


def check_entropy(sizes: Sequence[int]) -> tuple[float, float]:
    """Largest |H(uniform) - ln n| and largest H(one-hot), over every one-hot position."""
    uniform_dev = np.max([abs(entropy_nats(np.full(n, 1.0 / n)) - math.log(n)) for n in sizes])
    one_hot = np.max([entropy_nats(row) for n in sizes for row in np.eye(n)])
    return float(uniform_dev), float(one_hot)


def run_selftest(seed: int = 42) -> bool:
    """Run every check at compact size; prints one line per check, returns overall success."""
    rng = np.random.default_rng(seed)
    pairs, builds, datasets = 10, 100, 10
    exact, tv = check_sampler(rng, pairs, samples=200_000)
    mean = check_chain_law(rng, trials=200_000)
    rank_dev, rho_dev = check_ranks(rng, datasets)
    violations = check_trees(rng, builds)
    uniform_dev, one_hot = check_entropy((2, 3, 4, 7, 10, 33, 50))
    results = [
        ("rejection-sampling exactness", exact < 1e-12,
         f"max per-token deviation {exact:.3e} over {pairs} pairs"),
        ("composite sampler monte carlo", tv < 0.02, f"max TV distance {tv:.4f}"),
        ("chain-length law", abs(mean - 0.875) < 0.01, f"mean accepted length {mean:.4f} vs 0.875"),
        ("rank correlation vs naive oracle", rank_dev == 0.0 and rho_dev <= 1e-12,
         f"{datasets} datasets, ranks off by {rank_dev:.2e}, max |rho - oracle| {rho_dev:.2e}"),
        ("tree invariants and mask oracle", not violations,
         f"{builds} randomized builds: {', '.join(violations) or 'all invariants hold'}"),
        ("entropy bounds", uniform_dev <= 1e-12 and one_hot == 0.0,
         f"uniform off by {uniform_dev:.2e}, one-hot {one_hot:.2e}"),
    ]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all(ok for _, ok, _ in results)
