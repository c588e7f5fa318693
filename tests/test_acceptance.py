"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The oracle checks (chain-length law, rank correlation, tree
invariants and entropies) are the ones ``treespec selftest`` runs, here at
full size. The full-scale criteria use the bundled synthetic domains at
the reference configuration (4 domains x 50 prompts x 64 tokens, 8-node
trees, seed 42).
"""

import math

import numpy as np
import pytest

from treespec import (
    GenerationConfig,
    chain_probabilities,
    run_experiment,
    write_records_csv,
)
from treespec.selftest import (
    check_chain_law,
    check_entropy,
    check_ranks,
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
        worst_len = max(worst_len, abs(sum(chain.values()) - payload["expected_len"]))
    check(
        "analytics identity vs reference fixture",
        cells == 12 and worst_chain <= 1e-3 and worst_len <= 2e-3,
        f"12 chain cells off by <= {worst_chain:.2e}, E[L] off by <= {worst_len:.2e}",
    )


def test_chain_length_law():
    profiles = 10
    worst = check_chain_law(np.random.default_rng(42), profiles, trials=1_000_000)
    check(
        "chain-length law",
        worst < 5.0,
        f"{profiles} alpha profiles: mean accepted length off E[L] by <= {worst:.2f} standard errors",
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


def test_distinct_trees_per_domain(default_report, default_csv_bytes):
    # Recounted from the CSV text: a step's tree is its lines' depth and
    # node fields, without the step's own fields or its position bin.
    trees: dict[tuple[str, str, str], list[tuple[str, ...]]] = {}
    for line in default_csv_bytes.decode("utf-8").splitlines()[1:]:
        domain, prompt_id, step_index, depth, _, *node = line.split(",")
        trees.setdefault((domain, prompt_id, step_index), []).append((depth, *node))
    recount: dict[str, set] = {}
    for (domain, _, _), rows in trees.items():
        recount.setdefault(domain, set()).add(tuple(rows))
    meta = default_report.metadata["domains"]
    distinct = {d: info["distinct_trees"] for d, info in meta.items()}
    steps = {d: info["trees"] for d, info in meta.items()}
    check(
        "distinct trees per domain",
        distinct == {d: len(seen) for d, seen in recount.items()}
        == {"chat": 25, "code": 41, "math": 69, "reasoning": 34}
        and steps == {d: 3_200 for d in meta},
        f"distinct trees {distinct} over steps {steps}",
    )


def test_speculated_windows_and_grown_trees_per_domain(default_report):
    # Each distinct step window is grown and scored once, and each distinct
    # draft window (the window's last token) grows one tree.
    meta = default_report.metadata["domains"]
    windows = {d: info["speculated_windows"] for d, info in meta.items()}
    grown = {d: info["grown_trees"] for d, info in meta.items()}
    check(
        "speculated windows and grown trees per domain",
        windows == {"chat": 25, "code": 41, "math": 69, "reasoning": 34}
        and grown == {"chat": 20, "code": 23, "math": 27, "reasoning": 25},
        f"speculated windows {windows}, grown trees {grown}",
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
    uniform_dev, one_hot, sparse_off = check_entropy(np.random.default_rng(0), (2, 3, 4, 10, 50, 129, 4001))
    closed_form_ok = uniform_dev <= 1e-12 and one_hot == 0.0 and sparse_off == 0

    vocab_sizes = {
        d: meta["vocab_size"] for d, meta in default_report.metadata["domains"].items()
    }
    records = default_report.records
    ceiling = np.array([math.log(vocab_sizes[d]) for d in records.domains])[records.domain_code]
    entropy = records.target_entropy
    recorded_ok = bool(np.all((0.0 <= entropy) & (entropy <= ceiling + 1e-12)))
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
