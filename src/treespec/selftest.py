"""Release oracle checks, run at full size by the acceptance suite and at
compact size by ``treespec selftest``.

Each check draws its cases from the generator it is given and returns what
it measured; the caller holds the bound. Worst cases fold with numpy, which
keeps a NaN where Python's ``max`` drops it, so a NaN fails every bound. The
checks cover the chain-length law, rank correlation against a quadratic
oracle, tree structural invariants and closed-form entropies.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .metrics import average_ranks, chain_probabilities, spearman_rho
from .model import NGramModel, RowBatch, Vocabulary, _check_ints, entropy_nats
from .tree import TreeParams, grow_trees


def check_chain_law(rng: np.random.Generator, profiles: int, trials: int) -> float:
    """Largest |simulated - law| mean accepted length, in standard errors, over chains
    of 1-5 nodes at random per-depth alphas. The law is sum(chain_probabilities),
    the E[L] that ``summarize`` reports.

    A trial accepts each node independently with its alpha, up to the first
    rejection; trials are drawn 2**16 at a time, never trials x depths at once.
    """
    worst, block = 0.0, 1 << 16
    for _ in range(profiles):
        alphas = rng.uniform(0.1, 0.95, size=int(rng.integers(1, 6)))
        lengths = np.concatenate([np.logical_and.accumulate(
            rng.random((min(block, trials - start), alphas.size)) < alphas, axis=1
        ).sum(axis=1, dtype=np.uint8) for start in range(0, trials, block)])
        law = sum(chain_probabilities(dict(enumerate(alphas.tolist(), 1))).values())
        worst = np.max([worst, abs(lengths.mean() - law) / (lengths.std() / math.sqrt(trials))])
    return float(worst)


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
        rho = spearman_rho(x, y)
        worst_rho = np.maximum(worst_rho, abs(rho - oracle_rho))
    return float(worst_rank), float(worst_rho)


def check_trees(rng: np.random.Generator, builds: int) -> list[str]:
    """Random n-gram trees, one ``grow_trees`` call each (orders 1-3, max_nodes
    from root_top_k up).

    Returns each violated invariant once, in the order first met: the node
    budget, depth-1 count, and depth and branch caps.
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
        tree = grow_trees(model, [context], params)
        depths = tree.depths.tolist()

        children = [0] * len(depths)
        for parent in tree.parents.tolist():
            if parent != -1:
                children[parent] += 1
        if len(depths) > params.max_nodes:
            violations["node budget exceeded"] = None
        if depths.count(1) > params.root_top_k:
            violations["too many depth-1 nodes"] = None
        if any(depth > params.max_depth for depth in depths):
            violations["depth cap exceeded"] = None
        if any(c > params.max_branch for c in children):
            violations["branch cap exceeded"] = None
    return list(violations)


def check_entropy(rng: np.random.Generator, sizes: Sequence[int]) -> tuple[float, float, int]:
    """``RowBatch.entropies``, the path ``score_trees`` takes, of one batch per size n: a
    uniform row with a positive floor and half its tokens listed at it, each one-hot row
    with a zero floor, and a random distribution that lists a few tokens over a positive
    floor. Past 128 tokens a row's sum has several of numpy's pairwise leaves to merge.

    Returns the largest |H(uniform) - ln n|, the largest H(one-hot), and how many random
    rows' entropies differ from ``entropy_nats`` of their dense vectors, bit for bit.
    """
    uniform_dev, one_hot, off = [], [], 0
    for n in sizes:
        listed = rng.choice(n, size=int(rng.integers(1, n // 8 + 2)), replace=False)
        weights = rng.random(listed.size + 1)
        weights /= weights.sum()
        floor = weights[-1] / (n - listed.size) if listed.size < n else 0.0
        batch = RowBatch(n, [0, *range(n - n // 2, 2 * n - n // 2 + 1), 2 * n - n // 2 + listed.size],
                         [*range(0, n, 2), *range(n), *listed.tolist()],
                         [1.0 / n] * (n - n // 2) + [1.0] * n + weights[:-1].tolist(),
                         [1.0 / n] + [0.0] * n + [floor])
        h = batch.entropies()
        uniform_dev.append(abs(h[0] - math.log(n)))
        one_hot.append(np.max(h[1:-1]))
        off += h[-1].hex() != entropy_nats(batch.dense(np.array([n + 1]))[0]).hex()
    return float(np.max(uniform_dev)), float(np.max(one_hot)), off


def run_selftest(seed: int = 42) -> bool:
    """Run every check at compact size; prints one line per check, returns overall success."""
    _check_ints(0, seed=seed)
    rng = np.random.default_rng(seed)
    builds, datasets = 100, 10
    chain_dev = check_chain_law(rng, profiles=4, trials=200_000)
    rank_dev, rho_dev = check_ranks(rng, datasets)
    violations = check_trees(rng, builds)
    sizes = (2, 3, 4, 7, 10, 33, 50, 129, 4001)
    uniform_dev, one_hot, sparse_off = check_entropy(rng, sizes)
    results = [
        ("chain-length law", chain_dev < 5.0,
         f"4 alpha profiles, mean accepted length off E[L] by <= {chain_dev:.2f} standard errors"),
        ("rank correlation vs naive oracle", rank_dev == 0.0 and rho_dev <= 1e-12,
         f"{datasets} datasets, ranks off by {rank_dev:.2e}, max |rho - oracle| {rho_dev:.2e}"),
        ("tree invariants", not violations,
         f"{builds} randomized builds: {', '.join(violations) or 'all invariants hold'}"),
        ("entropy bounds", uniform_dev <= 1e-12 and one_hot == 0.0 and sparse_off == 0,
         f"uniform off by {uniform_dev:.2e}, one-hot {one_hot:.2e}, "
         f"{sparse_off} of {len(sizes)} sparse rows off the dense sum"),
    ]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all(ok for _, ok, _ in results)
