import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Row, column_table, record_table
from treespec import (
    DomainSummary,
    InputError,
    RecordTable,
    UndefinedCorrelationError,
    average_ranks,
    chain_probabilities,
    depth_profile,
    position_effects,
    read_records_csv,
    spearman_rho,
    summarize,
    write_records_csv,
)
from treespec.metrics import FLOAT_FIELDS, INT_FIELDS, RECORD_FIELDS


def make_record(
    domain="dom",
    prompt_id=0,
    step_index=0,
    depth=1,
    position_bin=0,
    token=0,
    alpha=0.5,
    entropy=0.1,
):
    # p_draft 1.0 keeps alpha self-consistent for arbitrary synthetic alphas
    return Row(
        domain=domain,
        prompt_id=prompt_id,
        step_index=step_index,
        depth=depth,
        position_bin=position_bin,
        token=token,
        p_draft=1.0,
        p_target=alpha,
        alpha=alpha,
        target_entropy=entropy,
    )


def synthetic_records(rng, n=1000, domain="dom"):
    records = []
    for i in range(n):
        depth = int(rng.integers(1, 4))
        records.append(
            make_record(
                domain=domain,
                prompt_id=i % 7,
                step_index=i % 64,
                depth=depth,
                position_bin=int(rng.integers(0, 2)),
                token=int(rng.integers(0, 50)),
                alpha=float(rng.random()),
                entropy=float(rng.random() * 2),
            )
        )
    return records


def two_pass_mean_std(values):
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


class TestSummarize:
    def test_two_records(self):
        records = [make_record(alpha=0.0), make_record(alpha=1.0)]
        summary = summarize(record_table(records))["dom"]
        assert summary.node_count == 2
        assert summary.mean_alpha == 0.5
        assert summary.std_alpha == 0.5

    def test_empty_input(self):
        assert summarize(record_table([])) == {}

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(19)
        records = synthetic_records(rng)
        summary = summarize(record_table(records))["dom"]
        mean, std = two_pass_mean_std([r.alpha for r in records])
        assert summary.mean_alpha == pytest.approx(mean, abs=1e-12)
        assert summary.std_alpha == pytest.approx(std, abs=1e-12)
        h_mean, _ = two_pass_mean_std([r.target_entropy for r in records])
        assert summary.mean_entropy == pytest.approx(h_mean, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(23)
        records = synthetic_records(rng, n=300)
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = summarize(record_table(records))["dom"]
        b = summarize(record_table(shuffled))["dom"]
        assert a.node_count == b.node_count
        assert a.mean_alpha == pytest.approx(b.mean_alpha, abs=1e-12)
        assert a.std_alpha == pytest.approx(b.std_alpha, abs=1e-12)
        assert a.mean_entropy == pytest.approx(b.mean_entropy, abs=1e-12)
        assert a.per_depth_alpha.keys() == b.per_depth_alpha.keys()
        for depth in a.per_depth_alpha:
            assert a.per_depth_alpha[depth] == pytest.approx(b.per_depth_alpha[depth], abs=1e-12)
        assert a.expected_len == pytest.approx(b.expected_len, abs=1e-12)
        assert a.spearman_rho == pytest.approx(b.spearman_rho, abs=1e-12)

    def test_expected_len_is_sum_of_chain(self):
        rng = np.random.default_rng(29)
        summary = summarize(record_table(synthetic_records(rng, n=500)))["dom"]
        assert summary.expected_len == pytest.approx(sum(summary.chain_prob.values()), abs=1e-12)
        values = [summary.chain_prob[d] for d in sorted(summary.chain_prob)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_record_correlation_is_nan(self):
        two = [make_record(domain="two", alpha=a, entropy=a) for a in (0.2, 0.6)]
        summaries = summarize(record_table([make_record(alpha=0.4), *two]))
        assert summaries["dom"].node_count == 1
        assert math.isnan(summaries["dom"].spearman_rho)
        assert summaries["two"].spearman_rho == 1.0

    def test_degenerate_correlation_is_nan(self):
        records = [make_record(alpha=0.4, entropy=e) for e in (0.1, 0.2, 0.3)]
        assert math.isnan(summarize(record_table(records))["dom"].spearman_rho)

    def test_bad_depth_rejected(self):
        bad = Row("d", 0, 0, 0, 0, 0, 1.0, 0.5, 0.5, 0.0)
        with pytest.raises(InputError, match=r"domain 'd': depths must form a contiguous range 1..D, got \[0\]"):
            summarize(record_table([bad]))


class TestDepthProfile:
    def test_single_cell(self):
        profile = depth_profile(summarize(record_table([make_record(alpha=0.3), make_record(alpha=0.5)])))
        assert profile.cells == {("dom", 1): pytest.approx(0.4)}
        assert profile.delta == {"dom": 0.0}

    def test_reference_delta_row(self, reference_stats):
        per_depth = reference_stats["domains"]["chat"]["per_depth_alpha"]
        records = []
        for depth_str, alpha in per_depth.items():
            records += [make_record(depth=int(depth_str), alpha=alpha) for _ in range(10)]
        profile = depth_profile(summarize(record_table(records)))
        assert profile.delta["dom"] == pytest.approx(0.021, abs=1e-12)

    def test_group_by_oracle(self):
        rng = np.random.default_rng(31)
        records = synthetic_records(rng, n=400) + synthetic_records(rng, n=400, domain="other")
        profile = depth_profile(summarize(record_table(records)))
        groups = {}
        for rec in records:
            groups.setdefault((rec.domain, rec.depth), []).append(rec.alpha)
        for key, alphas in groups.items():
            assert profile.cells[key] == pytest.approx(
                math.fsum(alphas) / len(alphas), abs=1e-12
            )


class TestChainProbabilities:
    def test_reference_chat_row(self, reference_stats):
        chat = reference_stats["domains"]["chat"]
        per_depth = {int(d): v for d, v in chat["per_depth_alpha"].items()}
        chain = chain_probabilities(per_depth)
        assert chain[2] == pytest.approx(0.3136, abs=5e-5)
        for depth_str, published in chat["chain_prob"].items():
            assert chain[int(depth_str)] == pytest.approx(published, abs=1e-3)

    def test_all_ones(self):
        assert chain_probabilities({1: 1.0, 2: 1.0, 3: 1.0}) == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_halves(self):
        chain = chain_probabilities({1: 0.5, 2: 0.5, 3: 0.5})
        assert chain == {1: 0.5, 2: 0.25, 3: 0.125}

    def test_missing_depth_rejected(self):
        with pytest.raises(InputError):
            chain_probabilities({1: 0.5, 3: 0.5})
        with pytest.raises(InputError):
            chain_probabilities({2: 0.5, 3: 0.5})
        with pytest.raises(InputError):
            chain_probabilities({})


def expected_len(per_depth):
    """``summarize``'s E[L] for one record per depth at that depth's alpha."""
    table = record_table([make_record(depth=d, alpha=alpha) for d, alpha in per_depth.items()])
    return summarize(table)["dom"].expected_len


class TestExpectedAcceptedLength:
    def test_reference_values(self, reference_stats):
        for name, payload in reference_stats["domains"].items():
            per_depth = {int(d): v for d, v in payload["per_depth_alpha"].items()}
            assert expected_len(per_depth) == pytest.approx(
                payload["expected_len"], abs=2e-3
            ), name

    def test_math_row_terms(self):
        # 0.510 + 0.510*0.519 + 0.510*0.519*0.525 = 0.9137
        value = expected_len({1: 0.510, 2: 0.519, 3: 0.525})
        assert value == pytest.approx(0.9137, abs=5e-5)

    def test_all_zero(self):
        assert expected_len({1: 0.0, 2: 0.0}) == 0.0

    def test_identity_with_chain_sum(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            per_depth = {
                d + 1: float(rng.random()) for d in range(int(rng.integers(1, 6)))
            }
            assert expected_len(per_depth) == pytest.approx(
                sum(chain_probabilities(per_depth).values()), abs=1e-12
            )


class TestPositionEffects:
    def test_reference_depth_one_row(self):
        records = [make_record(depth=1, position_bin=0, alpha=0.520) for _ in range(5)]
        records += [make_record(depth=1, position_bin=1, alpha=0.548) for _ in range(5)]
        effects = position_effects(record_table(records))
        assert effects.delta[1] == pytest.approx(0.028, abs=1e-12)

    def test_identical_alphas_zero_delta(self):
        records = [
            make_record(depth=d, position_bin=b, alpha=0.4)
            for d in (1, 2, 3)
            for b in (0, 1)
        ]
        effects = position_effects(record_table(records))
        assert all(delta == 0.0 for delta in effects.delta.values())

    def test_group_by_oracle(self):
        rng = np.random.default_rng(41)
        records = synthetic_records(rng, n=600) + synthetic_records(rng, n=300, domain="b")
        effects = position_effects(record_table(records))
        groups = {}
        for rec in records:
            groups.setdefault((rec.depth, rec.position_bin), []).append(rec.alpha)
        for key, alphas in groups.items():
            assert effects.cells[key] == pytest.approx(
                math.fsum(alphas) / len(alphas), abs=1e-12
            )

    def test_bad_bin_rejected(self):
        bad = Row("d", 0, 0, 1, 2, 0, 1.0, 0.5, 0.5, 0.0)
        with pytest.raises(InputError):
            position_effects(record_table([bad]))


def naive_ranks(values):
    """Quadratic oracle: count-below plus half the tie group."""
    return np.array(
        [
            float(sum(1 for other in values if other < v))
            + (sum(1 for other in values if other == v) + 1) / 2.0
            for v in values
        ]
    )


class TestSpearman:
    def test_perfectly_decreasing(self):
        assert spearman_rho(np.array([1.0, 2.0, 3.0]), np.array([0.9, 0.5, 0.1])) == -1.0

    def test_identical_variables(self):
        x = np.array([0.3, 0.9, 0.1, 0.5])
        assert spearman_rho(x, x) == 1.0

    def test_negated(self):
        x = np.array([0.3, 0.9, 0.1, 0.5])
        assert spearman_rho(x, -x) == -1.0

    def test_all_tied_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho(np.array([1.0, 1.0, 1.0]), np.array([0.2, 0.4, 0.9]))

    def test_too_few_pairs(self):
        with pytest.raises(InputError):
            spearman_rho(np.array([1.0]), np.array([2.0]))

    @pytest.mark.parametrize("x, y", [([1, 2, 3], [3, 1]), ([1, 2], [1])])
    def test_unequal_lengths_rejected(self, x, y):
        # They raised numpy's broadcast ValueError and an "all-tied" error.
        with pytest.raises(InputError, match=f"^x has {len(x)} values but y has {len(y)}$") as caught:
            spearman_rho(x, y)
        assert not isinstance(caught.value, UndefinedCorrelationError)

    def test_matches_naive_oracle_with_ties(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(3, 200))
            x = np.round(rng.random(n), 1)
            y = np.round(rng.random(n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            rx, ry = naive_ranks(x), naive_ranks(y)
            assert np.array_equal(average_ranks(x), rx)
            assert np.array_equal(average_ranks(y), ry)
            rx -= rx.mean()
            ry -= ry.mean()
            expected = float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(47)
        x = rng.random(80)
        y = rng.random(80)
        base = spearman_rho(x, y)
        transformed = spearman_rho(np.exp(x), y ** 3)
        assert transformed == pytest.approx(base, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 100))
            x = rng.random(n)
            y = rng.random(n)
            assert -1.0 <= spearman_rho(x, y) <= 1.0


class TestReferenceFixtureConsistency:
    def test_chain_and_expected_len_for_all_domains(self, reference_stats):
        for name, payload in reference_stats["domains"].items():
            per_depth = {int(d): v for d, v in payload["per_depth_alpha"].items()}
            chain = chain_probabilities(per_depth)
            for depth_str, published in payload["chain_prob"].items():
                assert chain[int(depth_str)] == pytest.approx(published, abs=1e-3), name
            assert sum(chain.values()) == pytest.approx(payload["expected_len"], abs=2e-3), name


# --- scalar oracles: the per-element implementations the folds replaced ---


def scalar_average_ranks(values):
    """Walk the stable sort order and give each run of equal values its mean position."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.shape[0], dtype=np.float64)
    start = 0
    while start < arr.shape[0]:
        stop = start
        while stop + 1 < arr.shape[0] and arr[order[stop + 1]] == arr[order[start]]:
            stop += 1
        ranks[order[start:stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def scalar_spearman(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan
    rx = scalar_average_ranks(x)
    ry = scalar_average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))
    return max(-1.0, min(1.0, rho))


def scalar_summarize(records):
    """Group records one at a time and fold each domain's lists."""
    by_domain = {}
    for rec in records:
        by_domain.setdefault(rec.domain, []).append(rec)
    out = {}
    for domain in sorted(by_domain):
        rows = by_domain[domain]
        alphas = np.asarray([r.alpha for r in rows], dtype=np.float64)
        entropies = np.asarray([r.target_entropy for r in rows], dtype=np.float64)
        depths = np.asarray([r.depth for r in rows], dtype=np.int64)
        per_depth = {
            int(d): float(alphas[depths == d].mean()) for d in sorted(np.unique(depths))
        }
        chain = chain_probabilities(per_depth)
        out[domain] = DomainSummary(
            node_count=len(rows),
            mean_alpha=float(alphas.mean()),
            std_alpha=float(alphas.std()),
            mean_entropy=float(entropies.mean()),
            per_depth_alpha=per_depth,
            chain_prob=chain,
            expected_len=sum(chain.values()),
            spearman_rho=scalar_spearman(entropies, alphas),
        )
    return out


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def tied_values(rng, n):
    """Values drawn from a few levels (heavy ties), with ±0.0 and sometimes NaN."""
    levels = np.array([-0.0, 0.0, 0.25, 1.0, -3.5, 1e-300])
    values = levels[rng.integers(0, levels.shape[0], n)]
    if rng.random() < 0.3:
        values[rng.integers(0, n)] = math.nan
    return values


class TestRanksAgainstScalarOracle:
    def test_random_heavy_ties(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            values = tied_values(rng, n) if rng.random() < 0.6 else rng.random(n)
            assert same_bits(average_ranks(values), scalar_average_ranks(values))

    @pytest.mark.parametrize(
        "values",
        [[], [0.7], [2.0] * 9, [0.0, -0.0, 0.0, -0.0], [-0.0, 1.0, 0.0], [math.nan] * 3],
    )
    def test_edge_inputs(self, values):
        assert same_bits(average_ranks(values), scalar_average_ranks(values))

    def test_signed_zeros_tie(self):
        assert average_ranks([0.0, -0.0, 1.0]).tolist() == [1.5, 1.5, 3.0]

    def test_spearman_matches_scalar(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            x = tied_values(rng, n) if rng.random() < 0.5 else rng.random(n)
            y = np.round(rng.random(n), 1)
            expected = scalar_spearman(x, y)
            if math.isnan(expected):
                with pytest.raises(UndefinedCorrelationError):
                    spearman_rho(x, y)
            else:
                assert same_bits(spearman_rho(x, y), expected)


def random_records(rng):
    """Records over shuffled domain names; every domain covers depths 1..D."""
    names = ["code", "chat", "math", "reasoning", "zeta", ""]
    rng.shuffle(names)
    records = []
    for domain in names[: int(rng.integers(1, 5))]:
        depth_count = int(rng.integers(1, 5))
        n = int(rng.integers(max(2, depth_count), 200))  # one row has no correlation
        depths = np.concatenate([np.arange(1, depth_count + 1),
                                 rng.integers(1, depth_count + 1, n - depth_count)])
        tied = rng.random() < 0.5
        for depth in depths.tolist():
            alpha = float(np.round(rng.random(), 1) if tied else rng.random())
            entropy = float(np.round(rng.random(), 1) if tied else rng.random() * 3)
            records.append(make_record(domain=domain, depth=depth,
                                       position_bin=int(rng.integers(0, 2)),
                                       alpha=alpha, entropy=entropy))
    order = rng.permutation(len(records))
    return [records[i] for i in order]


def assert_summaries_identical(got, expected):
    assert list(got) == list(expected)
    for domain, want in expected.items():
        have = got[domain]
        assert have.node_count == want.node_count
        for name in ("mean_alpha", "std_alpha", "mean_entropy", "expected_len", "spearman_rho"):
            assert same_bits(getattr(have, name), getattr(want, name)), (domain, name)
        assert have.per_depth_alpha == want.per_depth_alpha
        assert have.chain_prob == want.chain_prob


class TestSummarizeAgainstScalarOracle:
    def test_random_tables(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            records = random_records(rng)
            expected = scalar_summarize(records)
            assert_summaries_identical(summarize(record_table(records)), expected)

    def test_position_cells_match_scalar_groups(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            records = random_records(rng)
            groups = {}
            for rec in records:
                groups.setdefault((rec.depth, rec.position_bin), []).append(rec.alpha)
            cells = position_effects(record_table(records)).cells
            assert list(cells) == sorted(groups)
            for key, alphas in groups.items():
                assert same_bits(cells[key], np.mean(alphas))


class TestRecordTable:
    def test_equality_ignores_domain_numbering(self):
        records = [make_record(domain="b"), make_record(domain="a", alpha=0.25)]
        table = record_table(records)
        assert table.domain_code.dtype == np.int64
        assert all(getattr(table, name).dtype == np.int64 for name in INT_FIELDS)
        assert all(getattr(table, name).dtype == np.float64 for name in FLOAT_FIELDS)
        columns = {name: getattr(table, name) for name in RECORD_FIELDS[1:]}
        renumbered = column_table(("a", "b"), {**columns, "domain_code": [1, 0]})
        assert renumbered == table
        assert column_table(("a", "b"), {**columns, "domain_code": [0, 1]}) != table
        assert table != records

    def test_empty(self):
        table = record_table([])
        assert len(table) == 0 and not table
        assert summarize(table) == {}

    def test_rejects_bad_codes_and_duplicate_domains(self):
        columns = {name: [1] for name in RECORD_FIELDS[1:]}
        with pytest.raises(InputError, match="domain code outside the domain names"):
            column_table(("a",), {**columns, "domain_code": [1]})
        with pytest.raises(InputError, match="duplicate domain names"):
            column_table(("a", "a"), {**columns, "domain_code": [0]})

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "\r\n"])
    def test_rejects_a_line_break_in_a_domain_name(self, name):
        columns = {field: [0] for field in RECORD_FIELDS[1:]}
        with pytest.raises(InputError, match=re.escape(f"domain name {name!r} holds a line break")):
            column_table(("ok", name), {**columns, "domain_code": [0]})

    def from_steps(self, tree, prompt_id=(0, 1, 2, 3), offsets=(0, 1, 2, 3, 3)):
        # Candidate trees: c0 and c1 hold equal rows, c2 another, c3 none.
        trees = {
            "depth": [1, 1, 1], "token": [5, 5, 7], "p_draft": [0.5] * 3,
            "p_target": [0.25, 0.25, 0.5], "alpha": [0.5, 0.5, 1.0], "target_entropy": [0.1, 0.1, 0.3],
        }
        n = len(tree)
        steps = {"domain_code": [0] * n, "prompt_id": prompt_id[:n], "step_index": [0] * n,
                 "position_bin": [0] * n, "tree": tree}
        return RecordTable.from_steps(("d",), steps, offsets, trees)

    def test_from_steps_keeps_one_tree_per_content_numbered_by_first_use(self):
        table = self.from_steps([2, 1, 0, 2])
        assert table.steps["tree"].tolist() == [0, 1, 1, 0]
        assert table.tree_offsets.tolist() == [0, 1, 2]
        assert table.trees["token"].tolist() == [7, 5]
        rebuilt = record_table([
            ("d", 0, 0, 1, 0, 7, 0.5, 0.5, 1.0, 0.3),
            ("d", 1, 0, 1, 0, 5, 0.5, 0.25, 0.5, 0.1),
            ("d", 2, 0, 1, 0, 5, 0.5, 0.25, 0.5, 0.1),
            ("d", 3, 0, 1, 0, 7, 0.5, 0.5, 1.0, 0.3),
        ])
        assert rebuilt == table
        assert rebuilt.steps["tree"].tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("tree, prompt_id, offsets, message", [
        ([0, 1], (0, 0), (0, 1, 2, 3, 3), "adjacent steps share their step fields"),
        ([0, 3], (0, 1), (0, 1, 2, 3, 3), "a step's tree has no rows"),
        ([0, 4], (0, 1), (0, 1, 2, 3, 3), "step tree outside the candidate trees"),
        ([0], (0,), (0, 2, 1, 3), "tree offsets must rise"),
        ([0], (0,), (0, 1, 2), "tree offsets must rise"),
        ([0, 1], (0,), (0, 1, 2, 3, 3), "step columns must be one-dimensional and of equal length"),
    ])
    def test_from_steps_rejects(self, tree, prompt_id, offsets, message):
        with pytest.raises(InputError, match=message):
            self.from_steps(tree, prompt_id, offsets)

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_validate_rejects_non_finite(self, tmp_path, name, value):
        # The reader's record check names the field and its value.
        row = Row("d", 0, 0, 1, 0, 0, 0.5, 0.25, 0.5, 0.1)._replace(**{name: value})
        path = tmp_path / "records.csv"
        write_records_csv(record_table([row]), path)
        with pytest.raises(InputError, match=re.escape(f"{path}:2: {name} must be finite, got {value!r}")):
            read_records_csv(path)


# --- per-record oracle over tables whose steps share trees --------------------

# alpha and entropy levels: -0.0 ties 0.0, and halves tie in sums.
TIED = [-0.0, 0.0, 0.25, 0.5, 1.0]


def spec_table(spec):
    """The table of ``spec`` = (domain count, trees, steps) through ``from_steps``.

    Each tree is a list of (alpha, entropy) rows at depths 1, 2, ...; each
    step is (domain code, tree, position bin) and takes the next step_index.
    """
    domains, trees, steps = spec
    rows = [(depth, alpha, entropy) for tree in trees for depth, (alpha, entropy) in enumerate(tree, 1)]
    depth, alpha, entropy = (list(column) for column in zip(*rows))
    n = len(steps)
    codes, tree, bins = (list(column) for column in zip(*steps))
    return RecordTable.from_steps(
        tuple(f"d{i}" for i in range(domains)),
        {"domain_code": codes, "prompt_id": [0] * n, "step_index": range(n), "position_bin": bins,
         "tree": tree},
        np.cumsum([0, *map(len, trees)]),
        {"depth": depth, "token": [0] * len(rows), "p_draft": [1.0] * len(rows), "p_target": alpha,
         "alpha": alpha, "target_entropy": entropy},
    )


def oracle_means(groups, values):
    """Mean of ``values`` per distinct group label, labels from np.unique."""
    return {int(g): float(values[groups == g].mean()) for g in np.unique(groups)}


def assert_matches_per_record_oracle(table):
    summaries = summarize(table)
    profile = depth_profile(summaries)
    assert list(summaries) == sorted({table.domains[c] for c in table.domain_code.tolist()})
    for domain, got in summaries.items():
        mask = table.domain_code == table.domains.index(domain)
        alphas, entropies, depths = table.alpha[mask], table.target_entropy[mask], table.depth[mask]
        per_depth = oracle_means(depths, alphas)
        try:
            rho = spearman_rho(entropies, alphas)
        except UndefinedCorrelationError:
            rho = math.nan
        chain = chain_probabilities(per_depth)
        assert got.node_count == alphas.size
        for have, want in [(got.mean_alpha, alphas.mean()), (got.std_alpha, alphas.std()),
                           (got.mean_entropy, entropies.mean()), (got.spearman_rho, rho),
                           (got.expected_len, sum(chain.values()))]:
            assert same_bits(have, want), (domain, have, want)
        assert list(got.per_depth_alpha) == list(per_depth)
        assert all(same_bits(got.per_depth_alpha[d], a) for d, a in per_depth.items())
        assert all(same_bits(got.chain_prob[d], p) for d, p in chain.items())
        assert all(same_bits(profile.cells[(domain, d)], a) for d, a in per_depth.items())
        assert same_bits(profile.delta[domain], per_depth[max(per_depth)] - per_depth[min(per_depth)])
    cells = {}
    for depth in np.unique(table.depth).tolist():
        for position_bin in (0, 1):
            mask = (table.depth == depth) & (table.position_bin == position_bin)
            if mask.any():
                cells[(depth, position_bin)] = float(table.alpha[mask].mean())
    effects = position_effects(table)
    assert list(effects.cells) == list(cells)
    assert all(same_bits(effects.cells[key], value) for key, value in cells.items())


@st.composite
def shared_tree_specs(draw):
    """Up to three domains over one to four trees, each used by many steps."""
    row = st.tuples(st.sampled_from(TIED + [0.75]), st.sampled_from(TIED + [2.5]))
    trees = draw(st.lists(st.lists(row, min_size=1, max_size=4), min_size=1, max_size=4))
    if draw(st.booleans()):  # one NaN, in alpha or entropy
        t = draw(st.integers(0, len(trees) - 1))
        r = draw(st.integers(0, len(trees[t]) - 1))
        alpha, entropy = trees[t][r]
        trees[t][r] = (math.nan, entropy) if draw(st.booleans()) else (alpha, math.nan)
    domains = draw(st.integers(1, 3))
    step = st.tuples(st.integers(0, domains - 1), st.integers(0, len(trees) - 1), st.integers(0, 1))
    steps = draw(st.lists(step, min_size=1, max_size=60))
    return domains, trees, steps


class TestAnalyticsAgainstPerRecordOracle:
    # Each domain's ranks come from its distinct tree rows; the oracle ranks
    # every record, as summarize did before.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(shared_tree_specs())
    @example((2, [[(0.0, -0.0), (-0.0, 0.0), (0.5, 0.0)], [(-0.0, 0.25)]],
              [(0, 0, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 0)]))  # -0.0 ties 0.0
    @example((1, [[(0.5, 0.25), (math.nan, 1.0)], [(1.0, 0.0)]], [(0, 0, 0), (0, 1, 1), (0, 0, 1)]))
    @example((2, [[(0.5, 0.25)], [(1.0, 0.0), (0.25, 0.5)]], [(0, 1, 0), (1, 0, 1), (0, 1, 1)]))  # d1: one record
    @example((1, [[(0.5, 0.25), (0.5, 1.0)], [(0.5, 0.0)]], [(0, 0, 0), (0, 1, 0), (0, 0, 1)]))  # alpha all tied
    def test_summaries_and_profiles(self, spec):
        assert_matches_per_record_oracle(spec_table(spec))
