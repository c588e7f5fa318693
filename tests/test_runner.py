import json
import math
from pathlib import Path

import numpy as np
import pytest

from treespec import (
    DomainCorpus,
    DomainSummary,
    GenerationConfig,
    InputError,
    NGramModel,
    NodeRecord,
    RecordTable,
    TreeParams,
    Vocabulary,
    build_draft_tree,
    config_from_mapping,
    emit_report,
    generate_step,
    parse_config_file,
    read_records_csv,
    render_tables,
    run_experiment,
    sample_prompts,
    score_tree,
    summarize,
    synthetic_corpus,
    train_models,
    write_records_csv,
    write_summary_json,
)
from treespec import runner
from treespec.metrics import FLOAT_FIELDS, RECORD_FIELDS
from treespec.runner import ExperimentReport


SUMMARY_KEYS = (
    "node_count", "mean_alpha", "std_alpha", "mean_entropy",
    "per_depth_alpha", "chain_prob", "expected_len", "spearman_rho",
)


def summaries_equal(a, b):
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if (x.node_count, x.per_depth_alpha, x.chain_prob) != (
            y.node_count,
            y.per_depth_alpha,
            y.chain_prob,
        ):
            return False
        if (x.mean_alpha, x.std_alpha, x.mean_entropy, x.expected_len) != (
            y.mean_alpha,
            y.std_alpha,
            y.mean_entropy,
            y.expected_len,
        ):
            return False
        if math.isnan(x.spearman_rho) != math.isnan(y.spearman_rho):
            return False
        if not math.isnan(x.spearman_rho) and x.spearman_rho != y.spearman_rho:
            return False
    return True


class TestConfig:
    def test_defaults_are_reference_configuration(self):
        config = GenerationConfig()
        assert config.tree.max_depth == 3
        assert config.tree.max_branch == 2
        assert config.tree.root_top_k == 3
        assert config.tree.max_nodes == 8
        assert config.max_new_tokens == 64
        assert config.prompt_truncation == 512
        assert config.seed == 42
        assert config.prompts_per_domain == 50

    def test_flat_round_trip(self):
        config = GenerationConfig(
            tree=TreeParams(4, 3, 2, 9),
            max_new_tokens=32,
            seed=7,
            smoothing=0.25,
            eos_token="<end>",
        )
        assert config_from_mapping(config.flat_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            config_from_mapping({"banana": "1"})

    def test_bad_int_rejected(self):
        with pytest.raises(InputError):
            config_from_mapping({"seed": "forty-two"})

    def test_empty_eos_means_none(self):
        assert config_from_mapping({"eos_token": ""}).eos_token is None
        assert config_from_mapping({"eos_token": "none"}).eos_token is None

    def test_non_greedy_rejected(self):
        # Decoding is always greedy, so temperature_mode is no longer a key at all.
        for mode in ("sampled", "greedy"):
            with pytest.raises(InputError, match=r"unknown config keys: \['temperature_mode'\]"):
                config_from_mapping({"temperature_mode": mode})

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        with pytest.raises(InputError, match="smoothing must be finite"):
            GenerationConfig(smoothing=smoothing)
        with pytest.raises(InputError, match="smoothing must be finite"):
            config_from_mapping({"smoothing": str(smoothing)})

    def test_readme_key_table_matches_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
        rows = {}
        for line in table.splitlines():
            if not line.startswith("|"):
                break
            key, default = (cell.strip() for cell in line.split("|")[1:3])
            rows[key.strip("`")] = default
        defaults = {k: v or "(none)" for k, v in GenerationConfig().flat_dict().items()}
        assert list(rows) == list(runner.CONFIG_KEYS)
        assert rows == defaults

    def test_hash_changes_with_config(self):
        assert GenerationConfig().config_hash() != GenerationConfig(seed=43).config_hash()

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 9\n\nmax_new_tokens=16\neos_token = <end>\n")
        values = parse_config_file(path)
        config = config_from_mapping(values)
        assert config.seed == 9
        assert config.max_new_tokens == 16
        assert config.eos_token == "<end>"

    def test_parse_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n# again\nseed = 2\n")
        with pytest.raises(InputError, match=r"run\.cfg:3: config key seed is set twice"):
            parse_config_file(path)

    def test_parse_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 9\n")
        with pytest.raises(InputError):
            parse_config_file(path)


class TestGenerateStep:
    def test_identical_models_accept_everything(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        doc = [0, 1, 2, 3, 0, 1, 2, 3, 0]
        model = NGramModel.fit(vocab, [doc], order=2, smoothing=0.3)
        rows, committed = generate_step(model, model, [0, 1], TreeParams())
        assert all(alpha == 1.0 for _, _, _, _, alpha, _ in rows)
        assert committed == int(np.argmax(model.next_token_dist([0, 1])))

    def test_full_tree_yields_max_nodes_records(self):
        corpus = synthetic_corpus("chat", n_docs=10, seed=3, doc_len=120)
        draft = NGramModel.fit(corpus.vocabulary, corpus.documents, 2, 0.1)
        target = NGramModel.fit(corpus.vocabulary, corpus.documents, 3, 0.1)
        rows, _ = generate_step(draft, target, list(corpus.documents[0][:40]), TreeParams())
        assert len(rows) == 8

    def test_records_match_tree_and_scores(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        doc = [0, 1, 2, 0, 1, 3]
        draft = NGramModel.fit(vocab, [doc], order=2, smoothing=0.3)
        target = NGramModel.fit(vocab, [doc], order=3, smoothing=0.3)
        context = [0, 1]
        rows, _ = generate_step(draft, target, context, TreeParams())
        tree = build_draft_tree(draft, context, TreeParams())
        scores, _ = score_tree(target, context, tree)
        assert len(rows) == len(scores)
        for row, score in zip(rows, scores):
            node = tree.nodes[score.node_index]
            depth, token, p_draft, p_target, alpha, target_entropy = row
            assert token == node.token
            assert depth == node.depth
            assert p_draft == node.p_draft
            assert p_target == score.p_target
            assert alpha == score.alpha
            assert target_entropy == score.target_entropy
            NodeRecord("x", 4, 9, depth, 1, *row[1:]).validate()


def plain_loop(config, corpora):
    """Reference loop: calls generate_step on the full context at every step, with no memo."""
    records = []
    for domain in sorted(corpora):
        corpus = corpora[domain]
        draft, target = train_models(
            corpus, config.draft_order, config.target_order, config.smoothing
        )
        prompts = sample_prompts(
            corpus, config.prompts_per_domain, config.seed, config.prompt_truncation
        )
        eos = corpus.vocabulary.get(config.eos_token) if config.eos_token else None
        for prompt_id, prompt in enumerate(prompts.prompts):
            context = list(prompt)
            for step_index in range(config.max_new_tokens):
                position_bin = 0 if 2 * step_index < config.max_new_tokens else 1
                step_rows, committed = generate_step(draft, target, context, config.tree)
                if committed == eos:
                    break
                records.extend(
                    NodeRecord(domain, prompt_id, step_index, depth, position_bin, *rest)
                    for depth, *rest in step_rows
                )
                context.append(committed)
    return records


class TestRunExperiment:
    @pytest.mark.parametrize(
        "orders, eos_token",
        [((1, 2), None), ((2, 3), None), ((2, 4), None), ((2, 3), "<end>")],
    )
    def test_memo_matches_plain_loop(self, orders, eos_token, monkeypatch):
        corpora = {d: synthetic_corpus(d, n_docs=12, seed=9, doc_len=150) for d in ("chat", "math")}
        config = GenerationConfig(
            prompts_per_domain=6, max_new_tokens=48, prompt_truncation=40,
            draft_order=orders[0], target_order=orders[1], eos_token=eos_token,
        )
        expected = plain_loop(config, corpora)
        calls = []

        def counting_step(*args, **kwargs):
            calls.append(args[2])
            return generate_step(*args, **kwargs)

        monkeypatch.setattr("treespec.runner.generate_step", counting_step)
        report = run_experiment(config, corpora)
        assert list(report.records) == expected
        assert len(calls) < sum(m["trees"] for m in report.metadata["domains"].values())
        # Each step gets its window, the last target_order - 1 tokens, not the 40+ token context.
        assert {len(context) for context in calls} == {orders[1] - 1}
        if eos_token:
            assert all(m["stopped_prompts"] > 0 for m in report.metadata["domains"].values())

    def test_out_of_range_prompt_token_before_window_rejected(self):
        # Both prompts open on the same window, so the second one is a memo
        # hit; its token 99 must still be rejected.
        vocab = Vocabulary(("a", "b", "c", "d"))
        corpus = DomainCorpus("d", [(0, 1, 2, 3, 0, 1, 2), (99, 1, 2)], vocab)
        config = GenerationConfig(prompts_per_domain=2, max_new_tokens=2, prompt_truncation=3)
        with pytest.raises(InputError):
            run_experiment(config, {"d": corpus})

    def test_count_arithmetic_small(self):
        corpus = synthetic_corpus("chat", n_docs=10, seed=3, doc_len=120)
        config = GenerationConfig(prompts_per_domain=1, max_new_tokens=4, prompt_truncation=60)
        report = run_experiment(config, {"chat": corpus})
        assert len(report.records) == 32  # 1 prompt x 4 steps x 8 nodes

    def test_count_ceiling(self):
        corpora = {
            d: synthetic_corpus(d, n_docs=8, seed=5, doc_len=100) for d in ("chat", "math")
        }
        config = GenerationConfig(prompts_per_domain=2, max_new_tokens=3, prompt_truncation=50)
        report = run_experiment(config, corpora)
        assert len(report.records) <= 2 * 2 * 3 * 8

    def test_position_bin_boundary(self):
        corpus = synthetic_corpus("code", n_docs=6, seed=8, doc_len=100)
        config = GenerationConfig(prompts_per_domain=1, max_new_tokens=64, prompt_truncation=40)
        report = run_experiment(config, {"code": corpus})
        bins = {r.step_index: r.position_bin for r in report.records}
        assert bins[31] == 0
        assert bins[32] == 1
        assert bins[0] == 0
        assert bins[63] == 1

    def test_early_stop_reduces_counts(self):
        corpus = synthetic_corpus("chat", n_docs=20, seed=4)
        base = GenerationConfig(prompts_per_domain=3, max_new_tokens=32)
        stopping = GenerationConfig(prompts_per_domain=3, max_new_tokens=32, eos_token="<end>")
        full = run_experiment(base, {"chat": corpus})
        stopped = run_experiment(stopping, {"chat": corpus})
        assert len(full.records) == 3 * 32 * 8
        assert len(stopped.records) < len(full.records)
        assert stopped.metadata["domains"]["chat"]["stopped_prompts"] > 0

    def test_unknown_eos_token_rejected(self):
        corpora = {d: synthetic_corpus(d, n_docs=6, seed=2, doc_len=100) for d in ("chat", "math")}
        config = GenerationConfig(
            prompts_per_domain=1, max_new_tokens=3, prompt_truncation=30, eos_token="<absent>"
        )
        with pytest.raises(InputError, match="chat, math"):
            run_experiment(config, corpora)

    def test_empty_corpora_rejected(self):
        with pytest.raises(InputError):
            run_experiment(GenerationConfig(), {})

    def test_rerun_is_identical(self, tmp_path):
        corpus = synthetic_corpus("reasoning", n_docs=10, seed=6, doc_len=120)
        config = GenerationConfig(prompts_per_domain=2, max_new_tokens=6, prompt_truncation=50)
        first = run_experiment(config, {"reasoning": corpus})
        second = run_experiment(config, {"reasoning": corpus})
        assert first.records == second.records
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(first.records, a)
        write_records_csv(second.records, b)
        assert a.read_bytes() == b.read_bytes()


class TestPersistence:
    @pytest.fixture()
    def small_report(self, corpora):
        config = GenerationConfig(prompts_per_domain=2, max_new_tokens=4)
        return run_experiment(config, {"chat": corpora["chat"], "math": corpora["math"]})

    def test_csv_round_trip_preserves_summaries(self, small_report, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_report.records, path)
        back = read_records_csv(path)
        assert back == small_report.records
        assert summaries_equal(summarize(back), small_report.summaries)

    def test_persisted_alpha_self_consistency(self, small_report, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_report.records, path)
        for rec in read_records_csv(path):
            assert abs(rec.alpha - min(1.0, rec.p_target / rec.p_draft)) <= 1e-9

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,columns\n1,2\n")
        with pytest.raises(InputError):
            read_records_csv(path)

    def test_inconsistent_alpha_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(RECORD_FIELDS)
        path.write_text(f"{header}\nchat,0,0,1,0,5,0.5,0.25,0.9,0.1\n")
        with pytest.raises(InputError):
            read_records_csv(path)

    def test_summary_json_round_trip(self, small_report, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(small_report.summaries, path)
        expected = {
            domain: {
                "node_count": s.node_count,
                "mean_alpha": s.mean_alpha,
                "std_alpha": s.std_alpha,
                "mean_entropy": s.mean_entropy,
                "per_depth_alpha": {str(d): v for d, v in s.per_depth_alpha.items()},
                "chain_prob": {str(d): v for d, v in s.chain_prob.items()},
                "expected_len": s.expected_len,
                "spearman_rho": None if math.isnan(s.spearman_rho) else s.spearman_rho,
            }
            for domain, s in small_report.summaries.items()
        }
        assert json.loads(path.read_text()) == expected

    def test_reference_summary_fixture_round_trip(self, reference_stats, tmp_path):
        summaries = {}
        for name, payload in reference_stats["domains"].items():
            summaries[name] = DomainSummary(
                node_count=payload["node_count"],
                mean_alpha=payload["mean_alpha"],
                std_alpha=payload["std_alpha"],
                mean_entropy=payload["mean_entropy"],
                per_depth_alpha={int(d): v for d, v in payload["per_depth_alpha"].items()},
                chain_prob={int(d): v for d, v in payload["chain_prob"].items()},
                expected_len=payload["expected_len"],
                spearman_rho=payload["spearman_rho"],
            )
        path = tmp_path / "summary.json"
        write_summary_json(summaries, path)
        loaded = json.loads(path.read_text())
        assert loaded == {
            name: {key: payload[key] for key in SUMMARY_KEYS}
            for name, payload in reference_stats["domains"].items()
        }
        chat = loaded["chat"]
        assert tuple(chat[key] for key in SUMMARY_KEYS[:4]) == (
            24592,
            0.5650,
            0.4415,
            1.2517,
        )

    def test_emit_report_files(self, small_report, tmp_path):
        written = emit_report(small_report, tmp_path / "out")
        assert sorted(written) == ["csv", "json", "meta", "tables"]
        for path in written.values():
            assert path.exists() and path.stat().st_size > 0

    def test_emit_empty_report(self, tmp_path):
        report = ExperimentReport(records=[], summaries={}, metadata={})
        written = emit_report(report, tmp_path / "out")
        assert written["csv"].read_text().strip() == ",".join(RECORD_FIELDS)
        assert "Per-domain node statistics" in written["tables"].read_text()

    def test_emit_unknown_format(self, small_report, tmp_path):
        with pytest.raises(InputError):
            emit_report(small_report, tmp_path, formats=["pdf"])

    def test_render_tables_content(self, small_report):
        text = render_tables(small_report.records, small_report.summaries)
        assert "Expected accepted length" in text
        assert "chat" in text and "math" in text
        assert "regime" in text

    def test_render_depth_table_with_delta_column(self, reference_stats):
        records = []
        for domain, payload in reference_stats["domains"].items():
            for depth_str, alpha in payload["per_depth_alpha"].items():
                records += [
                    NodeRecord(domain, 0, 0, int(depth_str), 0, 0, 1.0, alpha, alpha, 0.1)
                    for _ in range(4)
                ]
        text = render_tables(records, summarize(records))
        depth_section = text.split("== Mean acceptance by tree depth ==")[1].splitlines()
        assert "delta" in depth_section[1]
        chat_row = next(line for line in depth_section if line.startswith("chat"))
        assert "0.567" in chat_row and "0.553" in chat_row and "0.588" in chat_row
        assert "+0.021" in chat_row


# Awkward doubles: shortest repr differs from 17 digits, subnormal, tiny,
# exact, negative zero; each appears more than once.
AWKWARD = [0.1 + 0.2, 5e-324, 1e-300, 1.0, -0.0, 0.1 + 0.2, 1e-300, -0.0]


def awkward_table():
    n = len(AWKWARD)
    p_draft = [v if v > 0 else 0.5 for v in AWKWARD]
    p_target = AWKWARD[3:] + AWKWARD[:3]
    return RecordTable(
        ("chat", "a,b", 'q"t'),
        [i % 3 for i in range(n)],
        prompt_id=range(n),
        step_index=[0, 1, 2, 3, 0, 1, 2, 3],
        depth=[1, 2, 1, 2, 3, 1, 2, 1],
        position_bin=[0, 1] * 4,
        token=[7, 0, 7, 123456, 7, 0, 1, 2],
        p_draft=p_draft,
        p_target=p_target,
        alpha=[min(1.0, t / d) for t, d in zip(p_target, p_draft)],
        target_entropy=AWKWARD,
    )


class TestRecordCsv:
    def test_cells_are_17_digit_text(self, tmp_path):
        table = awkward_table()
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        expected = [",".join(RECORD_FIELDS)]
        for rec in table:
            ints = [rec.prompt_id, rec.step_index, rec.depth, rec.position_bin, rec.token]
            floats = [format(getattr(rec, name), ".17g") for name in FLOAT_FIELDS]
            domain = {"a,b": '"a,b"', 'q"t': '"q""t"'}.get(rec.domain, rec.domain)
            expected.append(",".join([domain, *map(str, ints), *floats]))
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
        assert "0.30000000000000004" in expected[1] and "-0" in expected[5].split(",")

    def test_same_bytes_as_a_list_of_records(self, tmp_path):
        table = awkward_table()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(table, a)
        write_records_csv(list(table), b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_read_round_trip(self, tmp_path):
        table = awkward_table()
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        back = read_records_csv(path)
        assert back == table
        for name in FLOAT_FIELDS:  # -0.0 keeps its sign
            assert getattr(back, name).tobytes() == getattr(table, name).tobytes()

    def test_large_file_read_in_chunks(self, tmp_path, monkeypatch):
        base = awkward_table()
        reps = 100_000 // len(base)
        columns = {name: np.tile(getattr(base, name), reps) for name in RECORD_FIELDS[1:]}
        table = RecordTable(base.domains, np.tile(base.domain_code, reps), **columns)
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        seen = []
        parse_rows = runner._parse_rows

        def spy(rows, domains):
            seen.append(len(rows))
            return parse_rows(rows, domains)

        monkeypatch.setattr(runner, "_parse_rows", spy)
        assert read_records_csv(path) == table
        assert sum(seen) == len(table) == 100_000
        assert max(seen) == runner._CSV_CHUNK_ROWS
        assert len(seen) == -(-len(table) // runner._CSV_CHUNK_ROWS)

    @pytest.mark.parametrize("chunk_rows", [4, 8192])
    def test_first_bad_row_is_reported(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
        good = "chat,0,0,1,0,5,0.5,0.25,0.5,0.1"
        bad_rows = {
            11: ("chat,0,0,1,0,5,0.5,0.25,0.75,0.1", "alpha inconsistent"),
            12: ("chat,0,x,1,0,5,0.5,0.25,0.5,0.1", "invalid literal"),
            13: ("chat,0,0,1", "malformed row"),
        }
        # The file for line L also holds every bad row after L; L must be reported.
        for line, (_, message) in bad_rows.items():
            rows = [good] * 12
            for later, (row, _) in bad_rows.items():
                if later >= line:
                    rows[later - 2] = row
            path = tmp_path / f"bad{line}.csv"
            path.write_text(",".join(RECORD_FIELDS) + "\n" + "\n".join(rows) + "\n")
            with pytest.raises(InputError, match=f"{path}:{line}: {message}"):
                read_records_csv(path)

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv([], path)
        assert read_records_csv(path) == RecordTable.from_records([])

    def test_integer_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\nchat,0,0,1,0,99999999999999999999,0.5,0.25,0.5,0.1\n")
        with pytest.raises(InputError, match=f"{path}:2: integer field outside the int64 range"):
            read_records_csv(path)
