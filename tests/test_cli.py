import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import record_table
from treespec import (
    GenerationConfig,
    InputError,
    average_ranks,
    chain_probabilities,
    cli,
    grow_trees,
    read_records_csv,
    selftest,
    write_records_csv,
)
import treespec
from treespec.cli import main
from treespec.metrics import FLOAT_FIELDS, RECORD_FIELDS
from treespec.model import RowBatch
from treespec.runner import CONFIG_KEYS

SRC = Path(treespec.__file__).resolve().parent.parent

# sha256 of the default reference run (`run --synthetic`), produced on numpy
# 2.4.6, Python 3.11, x86-64 Linux. Another numpy or platform may round float
# bits differently. To regenerate after an intended output change, run
# `treespec run --synthetic --out DIR` and take `sha256sum DIR/*`.
REFERENCE_SHA256 = {
    "records.csv": "96dab7e8b6adc33c4bb741f905d6c0d74a0f1d319cdf6ba6216f1fba85696c03",
    "summary.json": "5dfcd4f92e18a0e6b22a0126e4565d6da824916c2f24e2546926a4539def92ec",
    "tables.txt": "9641a75d5cba823794fe18d40fb9217479b6cfd22f6b871fe081b009031b81c7",
}

# sha256 of three more configurations, made as REFERENCE_SHA256 was. The
# first is the reference run with prompts that halt on the end token, at
# different steps; the second has a draft that reads no context and 26
# prompts that halt on the end token; the third has unsmoothed models and
# 16-node depth-4 trees.
PINNED_RUNS = {
    "eos_reference": (
        ["--eos-token", "<end>"],
        {
            "records.csv": "c9736bf6f8d11470920e3797b98b1fb6beee30406f00c97263540dafd15afe32",
            "summary.json": "fe40b1a35bb13cfc320ae23e3aa87dd50c84a9299d211c178d7006268e214618",
            "tables.txt": "5916ce278abb311f754a29acc00a00f7b1e7fd265ef7b62cdc44b4465dc32e1b",
        },
    ),
    "eos_unigram_draft": (
        ["--eos-token", "<end>", "--draft-order", "1", "--target-order", "4",
         "--prompts-per-domain", "12", "--max-new-tokens", "40"],
        {
            "records.csv": "f6ef2d79161010c3ee6f1fc15d3f75a57bb9c91280b8ca9a84c2eb806be2dce1",
            "summary.json": "0e3aec0bf871ef442a12f59b9fa73c611ee3966456845e7f7429e768b7206df0",
            "tables.txt": "1619021f9507be685ebfcbc18b400c28fe8325ebd26b6e12f0107a5e62da6a71",
        },
    ),
    "unsmoothed_wide_trees": (
        ["--smoothing", "0", "--max-nodes", "16", "--max-depth", "4", "--root-top-k", "4",
         "--prompts-per-domain", "10", "--max-new-tokens", "24"],
        {
            "records.csv": "1cca98fa553da55ea0244ba5d64004f08e814af7752c93bf441b82005ff8147e",
            "summary.json": "b04969b9d6b7f7b35007ce06c90c1f6b785d63fdbf5b1b6e678935e94feb6112",
            "tables.txt": "fee6c13f006aa12621404acdf34e286120530605a281fa55a5ebd4ee25cf4304",
        },
    ),
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


def write_data_tree(root):
    """A --data tree of two domains, each of two short documents."""
    for domain, docs in (("alpha", ["a b c a b c a", "b c a b"]), ("beta", ["x y z x y", "z y x"])):
        folder = root / domain
        folder.mkdir(parents=True)
        for i, text in enumerate(docs):
            (folder / f"doc{i}.txt").write_text(text, encoding="utf-8")


def write_markov_data(root, seed=11, types=3000, docs=40, doc_len=200):
    """A --data tree of two domains drawn from one seeded Markov chain of
    ``types`` word types, each with 1 to 6 successors (a tenth of the steps
    jump to any type), so a context often has fewer successors than a
    4-token root."""
    rng = random.Random(seed)
    words = [f"w{i:04d}" for i in range(types)]
    successors = [rng.sample(range(types), rng.randint(1, 6)) for _ in range(types)]
    for domain in ("left", "right"):
        folder = root / domain
        folder.mkdir(parents=True)
        for doc in range(docs):
            token, tokens = rng.randrange(types), []
            for _ in range(doc_len):
                tokens.append(words[token])
                token = rng.choice(successors[token]) if rng.random() < 0.9 else rng.randrange(types)
            (folder / f"doc{doc:02d}.txt").write_text(" ".join(tokens) + "\n", encoding="utf-8")


# sha256 of a --data run over write_markov_data's corpus, made as
# REFERENCE_SHA256 was. Each domain's vocabulary holds over 2,400 types, so
# the target's rows fill several entropy blocks of 2**16 terms.
LARGE_VOCABULARY_SHA256 = {
    "records.csv": "f889a9d274eec78982c4fad7718b755750f0a763270fc529dfb587bb9a81385d",
    "summary.json": "ad2e037d36d68a2ed1896e3485a30f73badbaaa27a34902c745c5af0938ddf2c",
    "tables.txt": "a7850e69438fff922aa36773610110557e2da6312da0151a11b866558a2eb082",
}

# sha256 of the same run with one-token prompts, made as REFERENCE_SHA256 was.
SHORT_PROMPT_SHA256 = {
    "records.csv": "183208c9f91576b7f7b823302fb9c67b707b12c911c8056ef3cd249fcc6f6eb0",
    "summary.json": "3bddaad4af56022748644fd8c191cc2073534bb8c6898337b0bb49ed3115d87e",
    "tables.txt": "7b04df3e4267ae68cc6652af23a3f233b5779ad62789c76c156439d6bef77ab8",
}


def branch_cap_ignored(model, contexts, params):
    """grow_trees with a defect: a node may have up to max_nodes children."""
    return grow_trees(model, contexts, dataclasses.replace(params, max_branch=params.max_nodes))


class OffsetEntropies(RowBatch):
    """RowBatch with a defect: every entropy is 1e-3 too high."""

    def entropies(self):
        return super().entropies() + 1e-3


class NanEntropies(RowBatch):
    """RowBatch with a defect: every entropy over 33 tokens is NaN."""

    def entropies(self):
        return np.full(self.index.size, math.nan) if self.size == 33 else super().entropies()


class TestRun:
    def test_reference_run_matches_pinned_hashes(self, tmp_path):
        assert run_cli("run", "--synthetic", "--out", str(tmp_path)) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in REFERENCE_SHA256
        }
        assert digests == REFERENCE_SHA256

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_run_matches_pinned_hashes(self, name, tmp_path):
        flags, pinned = PINNED_RUNS[name]
        assert run_cli("run", "--synthetic", *flags, "--out", str(tmp_path)) == 0
        digests = {
            file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in pinned
        }
        assert digests == pinned

    def test_large_vocabulary_data_run_matches_pinned_hashes(self, tmp_path):
        write_markov_data(tmp_path / "data")
        config = tmp_path / "config.txt"
        config.write_text("max_depth = 4\nroot_top_k = 4\nmax_nodes = 16\ntarget_order = 4\n"
                          "prompts_per_domain = 40\nmax_new_tokens = 8\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--data", str(tmp_path / "data"), "--config", str(config),
                       "--out", str(out)) == 0
        domains = json.loads((out / "meta.json").read_text(encoding="utf-8"))["domains"]
        assert {d: meta["vocab_size"] for d, meta in domains.items()} == {"left": 2444, "right": 2434}
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in LARGE_VOCABULARY_SHA256
        }
        assert digests == LARGE_VOCABULARY_SHA256

    def test_short_prompt_data_run_matches_pinned_hashes(self, tmp_path):
        # One-token prompts: the first steps' windows are shorter than both
        # models' spans, so the trajectory, growth and scoring all read
        # windows padded past the document start.
        write_markov_data(tmp_path / "data")
        config = tmp_path / "config.txt"
        config.write_text("max_depth = 4\nroot_top_k = 4\nmax_nodes = 16\ntarget_order = 4\n"
                          "prompts_per_domain = 40\nmax_new_tokens = 8\nprompt_truncation = 1\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--data", str(tmp_path / "data"), "--config", str(config),
                       "--out", str(out)) == 0
        domains = json.loads((out / "meta.json").read_text(encoding="utf-8"))["domains"]
        assert {d: (meta["speculated_windows"], meta["trees"]) for d, meta in domains.items()} == {
            "left": (317, 320), "right": (318, 320)}
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SHORT_PROMPT_SHA256
        }
        assert digests == SHORT_PROMPT_SHA256

    def test_early_stopped_run_speculates_only_the_windows_steps_record(self, tmp_path):
        # A window whose committed token is the end token halts its prompt,
        # so no step records it and it is neither grown nor scored.
        assert run_cli("run", "--synthetic", "--eos-token", "<end>", "--out", str(tmp_path)) == 0
        domains = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))["domains"]
        counts = {domain: (meta["speculated_windows"], meta["distinct_trees"], meta["grown_trees"])
                  for domain, meta in domains.items()}
        assert counts == {"chat": (22, 22, 18), "code": (41, 41, 23), "math": (62, 62, 23),
                          "reasoning": (25, 25, 17)}

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
        (domain / "good.txt").write_text("a b a b", encoding="utf-8")
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
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert {s["node_count"] for s in summary.values()} == {1}
        assert {s["spearman_rho"] for s in summary.values()} == {None}
        assert "n/a" in (out / "tables.txt").read_text(encoding="utf-8")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nmax_new_tokens = 2\nprompts_per_domain = 1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            "run", "--synthetic", "--synthetic-docs", "10",
            "--config", str(cfg), "--out", str(out), "--seed", "11",
        )
        assert code == 0
        meta = (out / "meta.json").read_text(encoding="utf-8")
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
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        base = ("run", "--synthetic", "--synthetic-docs", "2", "--out", str(tmp_path / "o"))
        assert run_cli(*base, "--" + key.replace("_", "-"), value) == 1
        assert run_cli(*base, "--config", str(cfg)) == 1
        assert len(configs) == 2
        assert configs[0] == configs[1] != GenerationConfig()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "abc", "error: config key seed expects an integer, got 'abc'"),
            ("--seed", "-1", "error: seed must be an integer >= 0, got -1"),
            ("--smoothing", "nan", "error: smoothing must be finite and >= 0, got nan"),
            ("--smoothing", "inf", "error: smoothing must be finite and >= 0, got inf"),
        ],
    )
    def test_bad_flag_value_exits_one(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        assert run_cli("run", "--synthetic", "--out", str(out), flag, value) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_smoothing_that_overflows_with_the_vocabulary_exits_one(self, tmp_path, capsys):
        # 1e308 * |V| is not finite, so every row read 0 and the run failed later, at
        # "a step's tree has no rows"; fitting names the smoothing and chat's 49 tokens.
        code = run_cli("run", "--synthetic", "--synthetic-docs", "5", "--prompts-per-domain", "2",
                       "--max-new-tokens", "3", "--smoothing", "1e308", "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: smoothing 1e+308 times the vocabulary size 49 is not finite\n")

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
            (folder / "doc1.txt").write_text(text, encoding="utf-8")
            (folder / "doc2.txt").write_text("" if domain == "b" else text, encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("run", "--data", str(tmp_path / "data"), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: domain 'b' has no tokens: every document is empty\n"
        )
        assert not out.exists()

    def test_data_domain_of_unknown_tokens_exits_one(self, tmp_path, capsys):
        for domain, text in (("alpha", "a b c a b"), ("beta", "<unk> <unk>")):
            folder = tmp_path / "data" / domain
            folder.mkdir(parents=True)
            (folder / "doc.txt").write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("run", "--data", str(tmp_path / "data"), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: domain 'beta' has no tokens besides <unk>\n"
        assert not out.exists()

    def test_data_domain_with_a_line_break_exits_one(self, tmp_path, capsys):
        for domain in ("alpha", "a\nb"):
            folder = tmp_path / "data" / domain
            folder.mkdir(parents=True)
            (folder / "doc.txt").write_text("a b c a b c", encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("run", "--data", str(tmp_path / "data"), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: domain name 'a\\nb' holds a line break\n"
        assert not out.exists()

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 7\n# caf\xe9\n")
        assert run_cli("run", "--synthetic", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert "run.cfg is not UTF-8" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--synthetic", "--config", str(cfg), "--out", str(out)) == 1

    def test_unwritable_out_exits_two(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
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
            (d / "doc.txt").write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            "run", "--data", str(tmp_path / "data"), "--out", str(out),
            "--prompts-per-domain", "1", "--max-new-tokens", "2", "--prompt-truncation", "4",
        )
        assert code == 0
        records = read_records_csv(out / "records.csv")
        assert {records.domains[code] for code in records.domain_code.tolist()} == {"alpha", "beta"}

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

    @pytest.mark.parametrize("n", [2**63, 2**63 - 1], ids=["2**63", "2**63-1"])
    def test_prompt_count_too_large_for_an_array_exits_one(self, tmp_path, capsys, n):
        # numpy refuses an array of n indices before it allocates one.
        out = tmp_path / "o"
        assert run_cli("run", "--synthetic", "--synthetic-docs", "2", "--out", str(out),
                       "--prompts-per-domain", str(n)) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot draw {n} prompts from domain 'chat': ")
        write_data_tree(tmp_path / "data")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"prompts_per_domain = {n}\n", encoding="utf-8")
        assert run_cli("run", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot draw {n} prompts from domain 'alpha': ")
        assert not out.exists()


class TestAnalyzeAndTables:
    @pytest.fixture()
    def record_file(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "run", "--synthetic", "--synthetic-docs", "10", "--out", str(out),
            "--prompts-per-domain", "1", "--max-new-tokens", "2",
        ) == 0
        return out / "records.csv"

    def test_analyze_matches_run_summary(self, record_file, tmp_path, capsys):
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--records", str(record_file), "--out", str(out)) == 0
        for name in ("summary.json", "tables.txt"):
            assert (out / name).read_bytes() == (record_file.parent / name).read_bytes()
        run_meta = json.loads((record_file.parent / "meta.json").read_text(encoding="utf-8"))
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        assert meta == {
            "source": str(record_file),
            "total_records": run_meta["total_records"],
            "domains": {d: {"records": info["records"]} for d, info in run_meta["domains"].items()},
        }
        assert capsys.readouterr().out.splitlines() == [
            f"analyzed {run_meta['total_records']} records",
            f"wrote json: {out / 'summary.json'}",
            f"wrote meta: {out / 'meta.json'}",
            f"wrote tables: {out / 'tables.txt'}",
        ]

    def test_tables_to_stdout(self, record_file, capsys):
        assert run_cli("tables", "--records", str(record_file)) == 0
        captured = capsys.readouterr()
        assert "Per-domain node statistics" in captured.out
        assert "rank correlation" in captured.out

    def test_tables_to_file(self, record_file, tmp_path):
        out = tmp_path / "tables.txt"
        assert run_cli("tables", "--records", str(record_file), "--out", str(out)) == 0
        assert "Expected accepted length" in out.read_text(encoding="utf-8")

    def test_analyze_one_data_row_exits_zero(self, record_file, tmp_path):
        one = tmp_path / "one.csv"
        head = record_file.read_text(encoding="utf-8").splitlines(keepends=True)[:2]
        one.write_text("".join(head), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("analyze", "--records", str(one), "--out", str(out)) == 0
        (summary,) = json.loads((out / "summary.json").read_text(encoding="utf-8")).values()
        assert summary["node_count"] == 1 and summary["spearman_rho"] is None
        assert "n/a" in (out / "tables.txt").read_text(encoding="utf-8")

    def test_analyze_missing_file_exits_two(self, tmp_path):
        assert run_cli("analyze", "--records", str(tmp_path / "no.csv"), "--out", str(tmp_path)) == 2

    def test_analyze_non_numeric_field_exits_one(self, record_file, tmp_path, capsys):
        lines = record_file.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[1] = "abc"
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        assert run_cli("analyze", "--records", str(bad), "--out", str(tmp_path / "o")) == 1
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_analyze_non_utf8_file_exits_one(self, record_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        data = record_file.read_bytes()
        bad.write_bytes(data + b"chat,0,0,1,0,\xff\n")
        assert run_cli("analyze", "--records", str(bad), "--out", str(tmp_path / "o")) == 1
        line = data.count(b"\n") + 1
        assert f"bad.csv:{line}: not UTF-8 text: invalid start byte" in capsys.readouterr().err

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_analyze_non_finite_float_exits_one(self, record_file, tmp_path, capsys, field, value):
        lines = record_file.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[2].rstrip("\n").split(",")
        cells[RECORD_FIELDS.index(field)] = value
        lines[2] = ",".join(cells) + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("analyze", "--records", str(bad), "--out", str(out)) == 1
        assert f"{bad}:3: {field} must be finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_analyze_inconsistent_alpha_names_line(self, record_file, tmp_path, capsys):
        lines = record_file.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[5].rstrip("\n").split(",")
        cells[RECORD_FIELDS.index("p_draft")] = "1e-300"
        cells[RECORD_FIELDS.index("alpha")] = "0.5"
        lines[5] = ",".join(cells) + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        assert run_cli("tables", "--records", str(bad)) == 1
        assert f"{bad}:6: alpha inconsistent" in capsys.readouterr().err

    def test_analyze_corrupt_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n", encoding="utf-8")
        assert run_cli("analyze", "--records", str(bad), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("row, code, err", [
        # A 200,000-character domain is a name the writer writes; csv.reader
        # stopped at 131,072 characters with a traceback.
        ("x" * 200_000 + ",0,0,1,0,5,0.5,0.25,0.5,0.1", 0, ""),
        ("chat," + "1" * 200_000 + ",0,1,0,5,0.5,0.25,0.5,0.1", 1, "{path}:2: Exceeds the limit"),
    ], ids=["domain", "prompt_id"])
    def test_field_longer_than_csv_field_limit(self, tmp_path, row, code, err):
        path = tmp_path / "long.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\n" + row + "\n", encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "treespec", "tables", "--records", str(path)],
            capture_output=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == code
        assert done.stderr.startswith(err and "error: " + err.format(path=path))
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", ["analyze", "tables"])
    def test_depth_gap_names_the_domain(self, tmp_path, capsys, command):
        path = tmp_path / "records.csv"
        rows = [
            ("code", 0, 0, 1, 0, 4, 0.5, 0.25, 0.5, 0.1),
            ("chat", 0, 0, 1, 0, 5, 0.5, 0.25, 0.5, 0.1),
            ("chat", 0, 0, 3, 0, 6, 0.5, 0.5, 1.0, 0.2),
        ]
        write_records_csv(record_table(rows), path)
        out = ["--out", str(tmp_path / "o")] if command == "analyze" else []
        assert run_cli(command, "--records", str(path), *out) == 1
        assert capsys.readouterr().err == (
            "error: domain 'chat': depths must form a contiguous range 1..D, got [1, 3]\n"
        )


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli("selftest", "--seed", "42") == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "PASS  chain-length law", "PASS  rank correlation vs naive oracle",
            "PASS  tree invariants", "PASS  entropy bounds"]

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_negative_seed_exits_one(self, capsys, seed):
        # The command died with numpy's traceback from default_rng; run_selftest
        # raised a bare ValueError for -1, a bare TypeError for 1.5 and ran seed 1 for True.
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            selftest.run_selftest(seed=seed)
        if seed == -1:
            assert run_cli("selftest", "--seed", str(seed)) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("name, defect, check", [
        ("average_ranks", lambda values: average_ranks(values) + 1.0,
         "rank correlation vs naive oracle"),
        ("grow_trees", branch_cap_ignored, "tree invariants"),
        ("chain_probabilities", dict, "chain-length law"),
        ("RowBatch", OffsetEntropies, "entropy bounds"),
        # NaN defects: each check must keep a NaN measure, not fold it away.
        ("average_ranks", lambda values: np.full(len(values), np.nan),
         "rank correlation vs naive oracle"),
        ("chain_probabilities", lambda alphas: {**chain_probabilities(alphas), 1: math.nan},
         "chain-length law"),
        ("RowBatch", NanEntropies, "entropy bounds"),
    ], ids=[
        "ranks-off-by-one", "branch-cap-ignored", "chain-without-products",
        "entropy-offset", "nan-ranks", "nan-chain", "nan-entropy",
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


# Config values that parse in surprising ways: int() takes '٣', '1_0', '+3'
# and '-0', float() takes 'nan', 'inf' and '1e-320', and '' is no eos_token.
ODD_VALUES = ("", "nan", "inf", "1e-320", "٣", "1_0", "+3", "-0")
# Every generated value is one of these or an integer from 0 to 8, so no
# count, order or tree limit exceeds 10 ('1_0') and every run stays small.
CONFIG_VALUES = st.one_of(st.sampled_from(ODD_VALUES + ("0.25", "a", "x")), st.integers(0, 8).map(str))
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(list(CONFIG_KEYS)), CONFIG_VALUES),
    st.sampled_from(["", "# a comment", "no equals sign", "unknown_key = 1"]),
)


def tree_paths(root):
    return {path.relative_to(root) for path in root.rglob("*")}


# Byte edits of a record file: CSV syntax, bytes that are not UTF-8 or that
# split a UTF-8 letter, and numbers that overflow a float or an int64.
RECORD_EDITS = (",", '"', "\r", "\n", "\xff", "\x00", "\xc3", "\x85", "nan", "1e309",
                "12345678901234567890")
# Domain names and document text that a --data tree may hold.
DOMAIN_NAMES = st.text(st.sampled_from("ab ,\"'éλ"), min_size=1, max_size=5)
DOCUMENTS = st.text(st.sampled_from(["a", "b", "é", " ", "\t", "\n", "\u200b"]), max_size=12)


def edit_bytes(data, edits):
    """``data`` with each (at, replace, text) edit: ``text`` put over or before byte at."""
    for at, replace, text in edits:
        at %= len(data) + 1
        data = data[:at] + text.encode("latin-1") + data[at + replace:]
    return data


class TestGeneratedInputs:
    """Each command keeps the error contract for generated inputs.

    ``run`` gets generated config files and flag values over a two-domain
    --data tree of four short documents (at most four config lines and four
    flags), and generated --data trees of at most three domains of at most
    three 12-character documents, run at two prompts of four tokens.
    ``analyze`` and ``tables`` get up to four byte edits of a four-line
    records.csv. Exit 0, 1 or 2, never an exception, and nothing written
    outside --out; a record file whose first line is not the header is
    rejected for that line, whatever the later lines hold.
    """

    @staticmethod
    def exits_by_the_contract(root, argv):
        before = tree_paths(root)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert {path for path in tree_paths(root) - before if path.parts[0] != "out"} == set()
        return err.getvalue()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.none() | st.lists(CONFIG_LINES, max_size=4).map("\n".join),
           st.dictionaries(st.sampled_from(list(CONFIG_KEYS)), CONFIG_VALUES, max_size=4),
           st.sampled_from(["csv,json,tables", "json", "csv,cvs", ""]))
    @example("smoothing = 1e-320\nseed = ٣\nmax_new_tokens = 1_0",
             {"prompts_per_domain": "+3", "eos_token": ""}, "csv,json,tables")
    @example(None, {"smoothing": "nan", "max_depth": "-0"}, "csv")
    @example("max_nodes = inf", {"seed": "-0"}, "tables")
    def test_run_exits_by_the_contract(self, config, flags, formats):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_data_tree(root / "data")
            argv = ["run", "--data", str(root / "data"), "--out", str(root / "out"), "--formats", formats]
            if config is not None:
                (root / "run.cfg").write_text(config, encoding="utf-8")
                argv += ["--config", str(root / "run.cfg")]
            for key, value in flags.items():
                argv += ["--" + key.replace("_", "-"), value]
            self.exits_by_the_contract(root, argv)

    def test_limits_past_int64_grow_the_largest_tree_they_allow(self, tmp_path):
        # Generated limits stay at 10 or below. At 10**21 the tree limits
        # still run, and grow what the same run grows at the largest tree
        # that max_depth 2 allows over 4 tokens: 4 roots of 4 children each.
        write_data_tree(tmp_path / "data")
        written = []
        for root_top_k, max_branch, max_nodes in ((str(10**21),) * 3, ("4", "4", "20")):
            out = tmp_path / f"out{len(written)}"
            assert run_cli("run", "--data", str(tmp_path / "data"), "--out", str(out),
                           "--prompts-per-domain", "2", "--max-new-tokens", "4", "--max-depth", "2",
                           "--root-top-k", root_top_k, "--max-branch", max_branch,
                           "--max-nodes", max_nodes) == 0
            meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
            assert [domain["vocab_size"] for domain in meta["domains"].values()] == [4, 4]
            written.append({name: (out / name).read_bytes()
                            for name in ("records.csv", "summary.json", "tables.txt")})
        assert written[0] == written[1]

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(DOMAIN_NAMES, st.lists(DOCUMENTS, max_size=3), min_size=1, max_size=3),
           st.booleans())
    @example({"a b": ["a\tb a", ""], 'c,"é\'': ["\u200ba b\u200b a"]}, False)
    @example({"λ": ["a b a b"]}, True)
    def test_run_on_generated_data_trees(self, domains, txt_directory):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, documents in domains.items():
                (root / "data" / name).mkdir(parents=True)
                for i, text in enumerate(documents):
                    (root / "data" / name / f"doc{i}.txt").write_text(text, encoding="utf-8")
            if txt_directory:
                (root / "data" / next(iter(domains)) / "folder.txt").mkdir()
            self.exits_by_the_contract(root, [
                "run", "--data", str(root / "data"), "--out", str(root / "out"),
                "--prompts-per-domain", "2", "--max-new-tokens", "4",
            ])

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["analyze", "tables"]),
           st.lists(st.tuples(st.integers(0, 1 << 10), st.booleans(), st.sampled_from(RECORD_EDITS)),
                    max_size=4))
    @example("analyze", [(30, True, "\xc3"), (31, True, "\x85")])
    @example("tables", [(200, True, "1e309"), (40, False, "\r")])
    @example("analyze", [(0, True, ","), (150, False, "\xff")])
    def test_record_files_exit_by_the_contract(self, command, edits):
        rows = [
            ("chat", 0, 0, 1, 0, 4, 0.5, 0.25, 0.5, 0.1),
            ("chat", 0, 0, 2, 0, 5, 0.5, 0.5, 1.0, 0.2),
            ("code", 1, 3, 1, 1, 6, 0.25, 0.125, 0.5, 0.3),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / "records.csv"
            write_records_csv(record_table(rows), path)
            data = edit_bytes(path.read_bytes(), edits)
            path.write_bytes(data)
            err = self.exits_by_the_contract(root, [command, "--records", str(path), "--out",
                                                    str(root / "out")])
            # The reader's first line ends at the first \r or \n.
            if data.replace(b"\r", b"\n").split(b"\n", 1)[0] != ",".join(RECORD_FIELDS).encode():
                assert (err == f"error: {path} is not a record file (unexpected header)\n"
                        or err.startswith(f"error: {path}:1: not UTF-8 text: ")), err


class TestCollector:
    """A command runs with the cyclic collector paused, and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("outcome, code", [
        (None, 0), (InputError("bad input"), 1), (OSError("disk gone"), 2),
        (RuntimeError("a bug"), None),
    ], ids=["success", "input-error", "io-error", "propagated"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "caller-disabled"])
    def test_state_restored_on_every_exit(self, monkeypatch, capsys, outcome, code, enabled):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if outcome is not None:
                raise outcome
            return 0

        monkeypatch.setattr(cli, "_cmd_tables", command)
        (gc.enable if enabled else gc.disable)()
        if code is None:
            with pytest.raises(RuntimeError, match="a bug"):
                run_cli("tables", "--records", "r.csv")
        else:
            assert run_cli("tables", "--records", "r.csv") == code
        assert seen == [False]
        assert gc.isenabled() is enabled
