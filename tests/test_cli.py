import hashlib
import json
import math

import numpy as np
import pytest

from treespec import (
    GenerationConfig,
    InputError,
    NodeRecord,
    acceptance_prob,
    average_ranks,
    cli,
    entropy_nats,
    read_records_csv,
    selftest,
    tree_attention_mask,
    write_records_csv,
)
from treespec.cli import main
from treespec.metrics import FLOAT_FIELDS, RECORD_FIELDS
from treespec.runner import CONFIG_KEYS

# sha256 of the default reference run (`run --synthetic`), produced on numpy
# 2.4.6, Python 3.11, x86-64 Linux. Another numpy or platform may round float
# bits differently. To regenerate after an intended output change, run
# `treespec run --synthetic --out DIR` and take `sha256sum DIR/*`.
REFERENCE_SHA256 = {
    "records.csv": "96dab7e8b6adc33c4bb741f905d6c0d74a0f1d319cdf6ba6216f1fba85696c03",
    "summary.json": "5dfcd4f92e18a0e6b22a0126e4565d6da824916c2f24e2546926a4539def92ec",
    "tables.txt": "9641a75d5cba823794fe18d40fb9217479b6cfd22f6b871fe081b009031b81c7",
}

# A value other than the default for every config key; each is valid with the
# other keys at their defaults.
NON_DEFAULT_VALUES = {
    "max_depth": "4", "max_branch": "3", "root_top_k": "2", "max_nodes": "12",
    "max_new_tokens": "5", "prompt_truncation": "40", "seed": "7",
    "prompts_per_domain": "2", "draft_order": "1", "target_order": "4",
    "smoothing": "0.25", "eos_token": "<end>",
}


def run_cli(*argv):
    return main(list(argv))


def sibling_mask(tree):
    """tree_attention_mask with a defect: nodes that share a parent see each other."""
    mask = tree_attention_mask(tree)
    ctx = tree.context_len
    for i, a in enumerate(tree.nodes):
        for j, b in enumerate(tree.nodes):
            if a.parent == b.parent:
                mask[ctx + i, ctx + j] = True
    return mask


class TestRun:
    def test_reference_run_matches_pinned_hashes(self, tmp_path):
        assert run_cli("run", "--synthetic", "--out", str(tmp_path)) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in REFERENCE_SHA256
        }
        assert digests == REFERENCE_SHA256

    def test_eos_token_in_no_vocabulary_exits_one(self, tmp_path, capsys):
        code = run_cli(
            "run", "--synthetic", "--synthetic-docs", "4", "--out", str(tmp_path / "o"),
            "--eos-token", "NOPE",
        )
        assert code == 1
        assert "'NOPE'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_document_exits_one(self, tmp_path, capsys):
        domain = tmp_path / "data" / "alpha"
        domain.mkdir(parents=True)
        (domain / "good.txt").write_text("a b a b")
        (domain / "latin1.txt").write_bytes("caf\xe9 au lait".encode("latin-1"))
        code = run_cli("run", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "latin1.txt" in capsys.readouterr().err

    def test_synthetic_run_writes_reports(self, tmp_path):
        out = tmp_path / "results"
        code = run_cli(
            "run", "--synthetic", "--synthetic-docs", "12", "--out", str(out),
            "--prompts-per-domain", "2", "--max-new-tokens", "3",
        )
        assert code == 0
        records = read_records_csv(out / "records.csv")
        assert len(records) == 4 * 2 * 3 * 8
        assert (out / "summary.json").exists()
        assert (out / "tables.txt").exists()
        assert (out / "meta.json").exists()

    def test_one_record_per_domain_exits_zero(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--synthetic", "--out", str(out), "--prompts-per-domain", "1",
            "--max-new-tokens", "1", "--root-top-k", "1", "--max-nodes", "1",
        )
        assert code == 0
        assert len(read_records_csv(out / "records.csv")) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert {s["node_count"] for s in summary.values()} == {1}
        assert {s["spearman_rho"] for s in summary.values()} == {None}
        assert "n/a" in (out / "tables.txt").read_text()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nmax_new_tokens = 2\nprompts_per_domain = 1\n")
        out = tmp_path / "out"
        code = run_cli(
            "run", "--synthetic", "--synthetic-docs", "10",
            "--config", str(cfg), "--out", str(out), "--seed", "11",
        )
        assert code == 0
        meta = (out / "meta.json").read_text()
        assert '"seed": "11"' in meta
        assert '"max_new_tokens": "2"' in meta

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_flag_value_parses_like_file_value(self, key, tmp_path, monkeypatch):
        configs = []

        def capture(config, corpora):
            configs.append(config)
            raise InputError("stop before the run")

        monkeypatch.setattr(cli, "run_experiment", capture)
        value = NON_DEFAULT_VALUES[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        base = ("run", "--synthetic", "--synthetic-docs", "2", "--out", str(tmp_path / "o"))
        assert run_cli(*base, "--" + key.replace("_", "-"), value) == 1
        assert run_cli(*base, "--config", str(cfg)) == 1
        assert len(configs) == 2
        assert configs[0] == configs[1] != GenerationConfig()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "abc", "error: config key seed expects an integer, got 'abc'"),
            ("--seed", "-1", "error: seed must be >= 0"),
            ("--smoothing", "nan", "error: smoothing must be finite and >= 0, got nan"),
            ("--smoothing", "inf", "error: smoothing must be finite and >= 0, got inf"),
        ],
    )
    def test_bad_flag_value_exits_one(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        assert run_cli("run", "--synthetic", "--out", str(out), flag, value) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_unknown_format_exits_one_before_reading_data(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--data", str(tmp_path / "missing"), "--out", str(out), "--formats", "csv,cvs"
        )
        assert code == 1
        assert "unknown report formats: ['cvs']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("formats", [",", ""])
    def test_empty_formats_exits_one_before_reading_data(self, tmp_path, capsys, formats):
        # A missing --data directory would exit 2, so exit 1 shows the corpus was never read.
        out = tmp_path / "o"
        code = run_cli(
            "run", "--data", str(tmp_path / "missing"), "--out", str(out), "--formats", formats
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: no report formats given; choose from csv,json,tables\n"
        )
        assert not out.exists()

    def test_data_domain_without_tokens_exits_one(self, tmp_path, capsys):
        for domain, text in (("a", "x y x y"), ("b", "  \n")):
            folder = tmp_path / "data" / domain
            folder.mkdir(parents=True)
            (folder / "doc1.txt").write_text(text)
            (folder / "doc2.txt").write_text("" if domain == "b" else text)
        out = tmp_path / "o"
        assert run_cli("run", "--data", str(tmp_path / "data"), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: domain 'b' has no tokens: every document is empty\n"
        )
        assert not out.exists()

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 7\n# caf\xe9\n")
        assert run_cli("run", "--synthetic", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert "run.cfg is not UTF-8" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n")
        out = tmp_path / "out"
        assert run_cli("run", "--synthetic", "--config", str(cfg), "--out", str(out)) == 1

    def test_unwritable_out_exits_two(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = run_cli(
            "run", "--synthetic", "--synthetic-docs", "10", "--out", str(blocker),
            "--prompts-per-domain", "1", "--max-new-tokens", "1",
        )
        assert code == 2

    def test_missing_data_dir_exits_two(self, tmp_path):
        assert run_cli("run", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 2

    def test_data_dir_run(self, tmp_path):
        for domain, text in (("alpha", "a b c a b c a b"), ("beta", "x y x y x y")):
            d = tmp_path / "data" / domain
            d.mkdir(parents=True)
            (d / "doc.txt").write_text(text)
        out = tmp_path / "out"
        code = run_cli(
            "run", "--data", str(tmp_path / "data"), "--out", str(out),
            "--prompts-per-domain", "1", "--max-new-tokens", "2", "--prompt-truncation", "4",
        )
        assert code == 0
        records = read_records_csv(out / "records.csv")
        assert {r.domain for r in records} == {"alpha", "beta"}

    def test_synthetic_docs_with_data_exits_one(self, tmp_path, capsys):
        # The data directory does not exist: a read would exit 2, not 1.
        out = tmp_path / "o"
        code = run_cli(
            "run", "--data", str(tmp_path / "missing"), "--synthetic-docs", "5", "--out", str(out)
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --synthetic-docs needs --synthetic, not --data\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, n_docs", [((), 160), (("--synthetic-docs", "3"), 3)])
    def test_synthetic_docs_sets_documents_per_domain(self, tmp_path, monkeypatch, flags, n_docs):
        seen = []

        def spy(n_docs, seed):
            seen.append(n_docs)
            raise InputError("stop before the run")

        monkeypatch.setattr(cli, "synthetic_corpora", spy)
        assert run_cli("run", "--synthetic", *flags, "--out", str(tmp_path / "o")) == 1
        assert seen == [n_docs]


class TestAnalyzeAndTables:
    @pytest.fixture()
    def record_file(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "run", "--synthetic", "--synthetic-docs", "10", "--out", str(out),
            "--prompts-per-domain", "1", "--max-new-tokens", "2",
        ) == 0
        return out / "records.csv"

    def test_analyze_matches_run_summary(self, record_file, tmp_path):
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--records", str(record_file), "--out", str(out)) == 0
        original = record_file.parent / "summary.json"
        assert (out / "summary.json").read_bytes() == original.read_bytes()
        assert (out / "tables.txt").exists()

    def test_tables_to_stdout(self, record_file, capsys):
        assert run_cli("tables", "--records", str(record_file)) == 0
        captured = capsys.readouterr()
        assert "Per-domain node statistics" in captured.out
        assert "rank correlation" in captured.out

    def test_tables_to_file(self, record_file, tmp_path):
        out = tmp_path / "tables.txt"
        assert run_cli("tables", "--records", str(record_file), "--out", str(out)) == 0
        assert "Expected accepted length" in out.read_text()

    def test_analyze_one_data_row_exits_zero(self, record_file, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text("".join(record_file.read_text().splitlines(keepends=True)[:2]))
        out = tmp_path / "o"
        assert run_cli("analyze", "--records", str(one), "--out", str(out)) == 0
        (summary,) = json.loads((out / "summary.json").read_text()).values()
        assert summary["node_count"] == 1 and summary["spearman_rho"] is None
        assert "n/a" in (out / "tables.txt").read_text()

    def test_analyze_missing_file_exits_two(self, tmp_path):
        assert run_cli("analyze", "--records", str(tmp_path / "no.csv"), "--out", str(tmp_path)) == 2

    def test_analyze_non_numeric_field_exits_one(self, record_file, tmp_path, capsys):
        lines = record_file.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[1] = "abc"
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        assert run_cli("analyze", "--records", str(bad), "--out", str(tmp_path / "o")) == 1
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_analyze_non_utf8_file_exits_one(self, record_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(record_file.read_bytes() + b"chat,0,0,1,0,\xff\n")
        assert run_cli("analyze", "--records", str(bad), "--out", str(tmp_path / "o")) == 1
        assert "bad.csv is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_analyze_non_finite_float_exits_one(self, record_file, tmp_path, capsys, field, value):
        lines = record_file.read_text().splitlines(keepends=True)
        cells = lines[2].rstrip("\n").split(",")
        cells[RECORD_FIELDS.index(field)] = value
        lines[2] = ",".join(cells) + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "o"
        assert run_cli("analyze", "--records", str(bad), "--out", str(out)) == 1
        assert f"{bad}:3: {field} must be finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_analyze_inconsistent_alpha_names_line(self, record_file, tmp_path, capsys):
        lines = record_file.read_text().splitlines(keepends=True)
        cells = lines[5].rstrip("\n").split(",")
        cells[RECORD_FIELDS.index("p_draft")] = "1e-300"
        cells[RECORD_FIELDS.index("alpha")] = "0.5"
        lines[5] = ",".join(cells) + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        assert run_cli("tables", "--records", str(bad)) == 1
        assert f"{bad}:6: alpha inconsistent" in capsys.readouterr().err

    def test_analyze_corrupt_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        assert run_cli("analyze", "--records", str(bad), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("command", ["analyze", "tables"])
    def test_depth_gap_names_the_domain(self, tmp_path, capsys, command):
        path = tmp_path / "records.csv"
        rows = [
            NodeRecord("code", 0, 0, 1, 0, 4, 0.5, 0.25, 0.5, 0.1),
            NodeRecord("chat", 0, 0, 1, 0, 5, 0.5, 0.25, 0.5, 0.1),
            NodeRecord("chat", 0, 0, 3, 0, 6, 0.5, 0.5, 1.0, 0.2),
        ]
        write_records_csv(rows, path)
        out = ["--out", str(tmp_path / "o")] if command == "analyze" else []
        assert run_cli(command, "--records", str(path), *out) == 1
        assert capsys.readouterr().err == (
            "error: domain 'chat': depths must form a contiguous range 1..D, got [1, 3]\n"
        )


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli("selftest", "--seed", "42") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_negative_seed_exits_one(self, capsys):
        # It died with numpy's traceback from default_rng.
        assert run_cli("selftest", "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    @pytest.mark.parametrize("name, defect, check", [
        ("acceptance_prob", lambda t, d: t / d, "rejection-sampling exactness"),
        ("average_ranks", lambda values: average_ranks(values) + 1.0,
         "rank correlation vs naive oracle"),
        ("tree_attention_mask", sibling_mask, "tree invariants and mask oracle"),
        ("simulate_chain_acceptance", lambda path, rng: len(path), "chain-length law"),
        ("entropy_nats", lambda dist: entropy_nats(dist) + 1e-3, "entropy bounds"),
        # NaN defects: each check must keep a NaN measure, not fold it away.
        ("acceptance_prob", lambda t, d: math.nan if t == 0.0 else acceptance_prob(t, d),
         "rejection-sampling exactness"),
        ("average_ranks", lambda values: np.full(len(values), np.nan),
         "rank correlation vs naive oracle"),
        ("entropy_nats", lambda dist: math.nan if len(dist) == 33 else entropy_nats(dist),
         "entropy bounds"),
    ], ids=[
        "unclipped-alpha", "ranks-off-by-one", "siblings-see-each-other", "never-rejects",
        "entropy-offset", "nan-alpha", "nan-ranks", "nan-entropy",
    ])
    def test_each_check_fails_on_its_defect(self, monkeypatch, capsys, name, defect, check):
        # Only the selftest module's binding is patched; the defects wrap the real functions.
        monkeypatch.setattr(selftest, name, defect)
        assert run_cli("selftest") == 1
        out = capsys.readouterr().out
        assert f"FAIL  {check}:" in out
        assert out.count("FAIL") == 1


class TestUsageErrors:
    """argparse usage errors are bad input: exit 1 with one error line, like any other."""

    def test_non_integer_synthetic_docs_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "--synthetic", "--synthetic-docs", "abc", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: treespec run: argument --synthetic-docs: invalid int value: 'abc'\n"
        )
        assert not out.exists()

    def test_missing_out_exits_one(self, capsys):
        assert run_cli("run", "--synthetic") == 1
        assert capsys.readouterr().err == (
            "error: treespec run: the following arguments are required: --out\n"
        )

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "--synthetic", "--out", str(out), "--temperature-mode", "greedy") == 1
        assert capsys.readouterr().err == (
            "error: treespec: unrecognized arguments: --temperature-mode greedy\n"
        )
        assert not out.exists()

    def test_non_integer_selftest_seed_exits_one(self, capsys):
        assert run_cli("selftest", "--seed", "x") == 1
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        assert "usage: treespec" in capsys.readouterr().out
