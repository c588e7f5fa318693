"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The sampled oracle checks are the ones ``treespec selftest``
runs, here at full size. The full-scale criteria use the bundled synthetic domains at
the reference configuration (4 domains x 50 prompts x 64 tokens, 8-node
trees, seed 42).
"""

import math

import numpy as np
import pytest

from treespec import (
    GenerationConfig,
    chain_probabilities,
    expected_accepted_length,
    run_experiment,
    write_records_csv,
)
from treespec.selftest import (
    check_chain_law,
    check_entropy,
    check_ranks,
    check_sampler,
    check_trees,
)


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_report(corpora):
    return run_experiment(GenerationConfig(), corpora)


@pytest.fixture(scope="module")
def default_csv_bytes(default_report, tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "records.csv"
    write_records_csv(default_report.records, path)
    return path.read_bytes()


def test_analytics_identity_vs_reference_fixture(reference_stats):
    worst_chain = 0.0
    worst_len = 0.0
    cells = 0
    for payload in reference_stats["domains"].values():
        per_depth = {int(d): v for d, v in payload["per_depth_alpha"].items()}
        chain = chain_probabilities(per_depth)
        for depth_str, published in payload["chain_prob"].items():
            worst_chain = max(worst_chain, abs(chain[int(depth_str)] - published))
            cells += 1
        worst_len = max(
            worst_len, abs(expected_accepted_length(per_depth) - payload["expected_len"])
        )
    check(
        "analytics identity vs reference fixture",
        cells == 12 and worst_chain <= 1e-3 and worst_len <= 2e-3,
        f"12 chain cells off by <= {worst_chain:.2e}, E[L] off by <= {worst_len:.2e}",
    )


def test_distribution_preservation():
    pairs = 20
    worst_exact, worst_tv = check_sampler(np.random.default_rng(42), pairs, samples=1_000_000)
    check(
        "distribution preservation",
        worst_exact < 1e-12 and worst_tv < 0.01,
        f"{pairs} pairs: exact deviation <= {worst_exact:.2e}, MC TV <= {worst_tv:.4f}",
    )


def test_chain_length_law():
    mean = check_chain_law(np.random.default_rng(42), trials=1_000_000)
    check(
        "chain-length law",
        abs(mean - 0.875) <= 0.01,
        f"mean accepted length {mean:.5f} vs closed form 0.875",
    )


def test_spearman_oracle_equivalence():
    worst_rank, worst = check_ranks(np.random.default_rng(42), datasets=100)
    check(
        "rank-correlation oracle equivalence",
        worst_rank == 0.0 and worst <= 1e-12,
        f"100 datasets, max |rho - oracle| = {worst:.2e}"
        + (f", rank vectors off by {worst_rank:.2e}" if worst_rank else ""),
    )


def test_tree_invariant_suite():
    builds = 1000
    violations = check_trees(np.random.default_rng(42), builds)
    check(
        "tree invariant suite",
        not violations,
        f"{builds} randomized builds" + "".join(f", {v}" for v in violations),
    )


def test_count_arithmetic_full_run(default_report):
    per_domain = {
        d: meta["records"] for d, meta in default_report.metadata["domains"].items()
    }
    ok = set(per_domain) == {"chat", "code", "math", "reasoning"} and all(
        count == 25_600 for count in per_domain.values()
    )
    check(
        "count arithmetic, no early stop",
        ok,
        f"per-domain counts {per_domain} (50 prompts x 64 steps x 8 nodes)",
    )


def test_count_arithmetic_early_stop(corpora):
    report = run_experiment(GenerationConfig(eos_token="<end>"), corpora)
    per_domain = {d: meta["records"] for d, meta in report.metadata["domains"].items()}
    total = sum(per_domain.values())
    ok = (
        all(count <= 25_600 for count in per_domain.values())
        and per_domain["chat"] < 25_600
        and total < 102_400
    )
    check(
        "count arithmetic, early stops",
        ok,
        f"per-domain counts {per_domain}, total {total} < 102400",
    )


def test_entropy_checks(default_report):
    uniform_dev, one_hot = check_entropy((2, 3, 4, 10, 50))
    closed_form_ok = uniform_dev <= 1e-12 and one_hot == 0.0

    vocab_sizes = {
        d: meta["vocab_size"] for d, meta in default_report.metadata["domains"].items()
    }
    recorded_ok = all(
        0.0 <= rec.target_entropy <= math.log(vocab_sizes[rec.domain]) + 1e-12
        for rec in default_report.records
    )
    check(
        "entropy checks",
        closed_form_ok and recorded_ok,
        f"{len(default_report.records)} recorded entropies within [0, ln|V|]",
    )


def test_determinism_byte_identical(default_csv_bytes, corpora, tmp_path):
    report = run_experiment(GenerationConfig(), corpora)
    path = tmp_path / "records.csv"
    write_records_csv(report.records, path)
    identical = path.read_bytes() == default_csv_bytes
    check(
        "determinism",
        identical,
        f"two seed-42 runs, {len(default_csv_bytes)} bytes each, identical",
    )
