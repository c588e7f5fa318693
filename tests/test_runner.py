import gc
import json
import math
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (Row, TableModel, column_table, corpus_of, documents, record_table,
                      score_lists, table_rows, window_tuples)
from treespec import (
    DomainSummary,
    GenerationConfig,
    InputError,
    NGramModel,
    RecordTable,
    TreeParams,
    Vocabulary,
    build_draft_tree,
    config_from_mapping,
    emit_report,
    generate_step,
    grow_trees,
    parse_config_file,
    read_records_csv,
    render_tables,
    run_experiment,
    sample_prompts,
    score_tree,
    score_trees,
    summarize,
    synthetic_corpus,
    train_models,
    write_records_csv,
    write_summary_json,
)
from treespec import runner
from treespec.metrics import FLOAT_FIELDS, RECORD_FIELDS, STEP_FIELDS, TREE_FIELDS
from treespec.runner import ExperimentReport


SUMMARY_KEYS = (
    "node_count", "mean_alpha", "std_alpha", "mean_entropy",
    "per_depth_alpha", "chain_prob", "expected_len", "spearman_rho",
)
RECORD_HEADER = ",".join(RECORD_FIELDS)


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
        # 2.5 ran 3 steps per prompt and wrote "2.5" into the config and its hash.
        # target_order is bounded by the default draft_order of 2.
        for key, value, low in (("max_new_tokens", 2.5, 1), ("seed", 7.0, 0), ("target_order", "3", 3),
                                ("prompts_per_domain", True, 1), ("seed", -1, 0),
                                ("max_new_tokens", 0, 1), ("draft_order", 0, 1), ("target_order", 2, 3)):
            with pytest.raises(InputError, match=f"^{key} must be an integer >= {low}, got {value!r}$"):
                GenerationConfig(**{key: value})

    def test_empty_eos_means_none(self):
        assert config_from_mapping({"eos_token": ""}).eos_token is None
        assert config_from_mapping({"eos_token": "none"}).eos_token is None

    def test_non_greedy_rejected(self):
        # Decoding is always greedy, so temperature_mode is no longer a key at all.
        for mode in ("sampled", "greedy"):
            with pytest.raises(InputError, match=r"unknown config keys: \['temperature_mode'\]"):
                config_from_mapping({"temperature_mode": mode})

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf, "0.1", None, True])
    def test_non_finite_smoothing_rejected(self, smoothing):
        # "0.1" and None raised a bare TypeError, and True was taken as 1.
        with pytest.raises(InputError, match="smoothing must be finite"):
            GenerationConfig(smoothing=smoothing)
        if isinstance(smoothing, float):
            with pytest.raises(InputError, match="smoothing must be finite"):
                config_from_mapping({"smoothing": str(smoothing)})

    @pytest.mark.parametrize("tree", [{"max_depth": 2}, None, (4, 8)])
    def test_a_tree_that_is_not_tree_params_rejected(self, tree):
        # A dict was accepted, and config_hash then raised a bare AttributeError.
        with pytest.raises(InputError, match=f"^tree must be a TreeParams, got {type(tree).__name__}$"):
            GenerationConfig(tree=tree)

    @pytest.mark.parametrize("eos_token", [5, b"<end>", ["<end>"]])
    def test_an_eos_token_that_is_not_a_str_rejected(self, eos_token):
        # 5 was accepted and hashed as the text "5".
        with pytest.raises(InputError, match=f"^eos_token must be a str or None, got {type(eos_token).__name__}$"):
            GenerationConfig(eos_token=eos_token)

    def test_integer_smoothing_is_held_as_a_float(self):
        # Its config_hash read "smoothing=1", the same config parsed from text "smoothing=1.0".
        config = GenerationConfig(smoothing=1)
        assert config.smoothing == 1.0 and type(config.smoothing) is float
        assert config.config_hash() == config_from_mapping({"smoothing": "1"}).config_hash()

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

    def test_readme_library_example_runs(self):
        # The first python block under "## Library use", run as written with
        # every warning an error; each context reads its own row's top tokens.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        names = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(example, "README.md", "exec"), names)
        rows, which, tokens, probs = (names[name] for name in ("rows", "which", "tokens", "probs"))
        assert which.tolist() == rows.index.tolist()
        assert tokens.shape == probs.shape == (rows.floors.size, 3)
        assert np.array_equal(rows.prob([0, 1], tokens[which, 0]), probs[which, 0])

    def test_hash_changes_with_config(self):
        assert GenerationConfig().config_hash() != GenerationConfig(seed=43).config_hash()

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 9\n\nmax_new_tokens=16\neos_token = <end>\n",
                        encoding="utf-8")
        values = parse_config_file(path)
        config = config_from_mapping(values)
        assert config.seed == 9
        assert config.max_new_tokens == 16
        assert config.eos_token == "<end>"

    def test_parse_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n# again\nseed = 2\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"run\.cfg:3: config key seed is set twice"):
            parse_config_file(path)

    def test_parse_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 9\n", encoding="utf-8")
        with pytest.raises(InputError):
            parse_config_file(path)


def context_tuples(contexts):
    """The contexts ``grow_trees`` or ``score_trees`` was given, as tuples: an array's rows
    without the -1 that pads a short window."""
    return window_tuples(contexts) if isinstance(contexts, np.ndarray) else list(map(tuple, contexts))


def oracle_step(draft, target, context, params):
    """One step on ``context`` with no memo: its tree's rows, as ``(depth, token, p_draft,
    p_target, alpha, target_entropy)`` tuples from ``grow_trees`` and ``score_trees``, and
    the target's argmax, the token it commits."""
    tree = grow_trees(draft, [context], params)
    scores = score_lists(score_trees(target, [context], tree))
    rows = list(zip(tree.depths.tolist(), tree.tokens.tolist(), tree.p_draft.tolist(),
                    *scores.values()))
    return rows, int(np.argmax(target.next_token_dist(context)))


def committed_token(draft, target, context, params):
    """The token ``generate_step`` commits at ``context``, read as the one end token that halts it."""
    [token] = [t for t in range(target.vocab.size)
               if generate_step(draft, target, [tuple(context)], params, 1, t)[3]["stopped_prompts"]]
    return token


def step_rows(columns, lo, hi):
    """Rows ``lo:hi`` of ``generate_step``'s row columns as tuples, depth and token as ints."""
    depth, token, *floats = (columns[name][lo:hi].tolist() for name in TREE_FIELDS)
    return list(zip(map(int, depth), map(int, token), *floats))


class TestGenerateStep:
    def test_identical_models_accept_everything(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        doc = [0, 1, 2, 3, 0, 1, 2, 3, 0]
        model = NGramModel.fit(vocab, [doc], order=2, smoothing=0.3)
        _, _, rows, _ = generate_step(model, model, [(0, 1)], TreeParams(), 1)
        assert rows["alpha"].size and np.all(rows["alpha"] == 1.0)

    def test_full_tree_yields_max_nodes_records(self):
        corpus = synthetic_corpus("chat", n_docs=10, seed=3, doc_len=120)
        docs = documents(corpus)
        draft = NGramModel.fit(corpus.vocabulary, docs, 2, 0.1)
        target = NGramModel.fit(corpus.vocabulary, docs, 3, 0.1)
        _, sizes, _, _ = generate_step(draft, target, [docs[0][:40]], TreeParams(), 1)
        assert sizes == [8]

    def test_records_match_tree_and_scores(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        doc = [0, 1, 2, 0, 1, 3]
        draft = NGramModel.fit(vocab, [doc], order=2, smoothing=0.3)
        target = NGramModel.fit(vocab, [doc], order=3, smoothing=0.3)
        context = [0, 1]
        steps, sizes, columns, _ = generate_step(draft, target, [tuple(context)], TreeParams(), 1)
        assert steps["tree"].tolist() == [0]
        rows = step_rows(columns, 0, sizes[0])
        table = record_table([Row("x", 4, 9, depth, 1, *rest) for depth, *rest in rows])
        assert not runner._rule_codes({name: getattr(table, name) for name in RECORD_FIELDS[1:]}).any()
        tree = build_draft_tree(draft, context, TreeParams())
        scores = score_lists(score_tree(target, context, tree))
        assert rows == list(zip(tree.depths, tree.tokens, tree.p_draft, scores["p_target"],
                                scores["alpha"], scores["target_entropy"]))

    def test_commits_the_targets_argmax(self):
        doc = [0, 1, 2, 0, 1, 3]
        vocab = Vocabulary(("a", "b", "c", "d"))
        draft = NGramModel.fit(vocab, [doc], order=2, smoothing=0.3)
        target = NGramModel.fit(vocab, [doc], order=3, smoothing=0.3)
        for context in ([0, 1], [1, 2], [3], [2, 2, 0]):
            assert committed_token(draft, target, context, TreeParams(3, 2, 3, 8)) == int(
                np.argmax(target.next_token_dist(context)))

    def test_one_hot_target_commits_its_token_whatever_the_tree(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        draft = TableModel(vocab, [0.5, 0.5, 0.0, 0.0], context_window=3)
        target = TableModel(vocab, [1.0, 0.0, 0.0, 0.0], context_window=3)
        assert committed_token(draft, target, [2], TreeParams(1, 2, 2, 8)) == 0
        steps, _, rows, counts = generate_step(draft, target, [(2,)], TreeParams(1, 2, 2, 8), 3)
        assert steps["step_index"].tolist() == [0, 1, 2] and counts["stopped_prompts"] == 0
        assert rows["token"].tolist() == [0, 1] * 3 and rows["alpha"].tolist() == [1.0, 0.0] * 3

    @pytest.mark.parametrize("batch", [1, 3])
    def test_a_speculation_batch_holds_at_most_the_batch_windows(self, batch, monkeypatch):
        corpora = {d: synthetic_corpus(d, n_docs=12, seed=9, doc_len=150) for d in ("chat", "math")}
        config = GenerationConfig(prompts_per_domain=4, max_new_tokens=8, prompt_truncation=40)
        whole = run_experiment(config, corpora)
        grown, scored = [], []

        def spy(calls, function):
            def recording(model, contexts, *args):
                calls.append(len(contexts))
                return function(model, contexts, *args)
            return recording

        monkeypatch.setattr(runner, "_SPECULATION_BATCH", batch)
        monkeypatch.setattr(runner, "grow_trees", spy(grown, grow_trees))
        monkeypatch.setattr(runner, "score_trees", spy(scored, score_trees))
        report = run_experiment(config, corpora)
        assert report.records == whole.records
        windows = [m["speculated_windows"] for m in report.metadata["domains"].values()]
        assert windows == [m["speculated_windows"] for m in whole.metadata["domains"].values()]
        assert max(grown) <= batch and max(scored) == batch
        assert sum(scored) == sum(windows) and len(scored) == sum(-(-n // batch) for n in windows)


def plain_loop(config, corpora, models=train_models):
    """Reference loop: ``oracle_step`` on the full context at every step, with no memo."""
    records = []
    for domain in sorted(corpora):
        corpus = corpora[domain]
        draft, target = models(
            corpus, config.draft_order, config.target_order, config.smoothing
        )
        prompts = sample_prompts(
            corpus, config.prompts_per_domain, config.seed, config.prompt_truncation
        )
        eos = corpus.vocabulary.get(config.eos_token) if config.eos_token else None
        for prompt_id, prompt in enumerate(prompts):
            context = list(prompt)
            for step_index in range(config.max_new_tokens):
                position_bin = 0 if 2 * step_index < config.max_new_tokens else 1
                step_rows, committed = oracle_step(draft, target, context, config.tree)
                if committed == eos:
                    break
                records.extend(
                    Row(domain, prompt_id, step_index, depth, position_bin, *rest)
                    for depth, *rest in step_rows
                )
                context.append(committed)
    return record_table(records)


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
        grown, scored = [], []

        def recording_grow(draft, contexts, params):
            grown.extend(context_tuples(contexts))
            return grow_trees(draft, contexts, params)

        def recording_score(target, contexts, trees):
            scored.extend(context_tuples(contexts))
            return score_trees(target, contexts, trees)

        monkeypatch.setattr(runner, "grow_trees", recording_grow)
        monkeypatch.setattr(runner, "score_trees", recording_score)
        report = run_experiment(config, corpora)
        assert report.records == expected
        assert len(scored) < sum(m["trees"] for m in report.metadata["domains"].values())
        # Each step is scored on its window, the last target_order - 1 tokens,
        # not on the 40+ token context, and each tree grows on its draft
        # window, or on the first full window when the draft reads no token.
        assert {len(context) for context in scored} == {orders[1] - 1}
        assert {len(context) for context in grown} == {orders[0] - 1 or orders[1] - 1}
        if eos_token:
            assert all(m["stopped_prompts"] > 0 for m in report.metadata["domains"].values())

    def test_unseen_windows_with_equal_rows_share_a_tree(self, monkeypatch):
        # Neither model has a row for the windows (1, 2) and (2, 1), so both
        # give the default distributions and equal rows: two memo entries,
        # one tree. The target's row for (3, 3) makes a second tree.
        vocab = Vocabulary(("a", "b", "c", "d"))
        draft = TableModel(vocab, [0.1, 0.2, 0.3, 0.4], context_window=2)
        target = TableModel(vocab, [0.4, 0.3, 0.2, 0.1], {(3, 3): [0.1, 0.1, 0.1, 0.7]},
                            context_window=2)
        monkeypatch.setattr(runner, "train_models", lambda *args: (draft, target))
        windows = []

        def recording_score(target, contexts, trees):
            windows.extend(contexts)
            return score_trees(target, contexts, trees)

        monkeypatch.setattr(runner, "score_trees", recording_score)
        corpus = corpus_of("d", [(1, 2), (2, 1), (3, 3)], vocab)
        config = GenerationConfig(prompts_per_domain=3, max_new_tokens=1, prompt_truncation=2)
        records = run_experiment(config, {"d": corpus}).records
        prompts = sample_prompts(corpus, 3, config.seed, 2)
        assert sorted(windows) == sorted(prompts) == [(1, 2), (2, 1), (3, 3)]
        tree_of = dict(zip(prompts, records.steps["tree"].tolist()))
        assert tree_of[1, 2] == tree_of[2, 1] != tree_of[3, 3]
        assert len(records.tree_offsets) - 1 == 2 and len(records) == 3 * 8

    def test_models_that_read_every_token_key_the_whole_context(self, monkeypatch):
        # These TableModels read 3 tokens, as much as the longest prompt holds.
        # The target's row for (0, 1, 2) makes that prompt's steps differ from
        # those of the prompt (1, 2), which ends in the same tokens.
        vocab = Vocabulary(("a", "b", "c", "d"))
        draft = TableModel(vocab, [0.1, 0.2, 0.3, 0.4], context_window=3)
        target = TableModel(vocab, [0.4, 0.3, 0.2, 0.1], {(0, 1, 2): [0.1, 0.1, 0.1, 0.7]},
                            context_window=3)

        def models(*args):
            return draft, target

        monkeypatch.setattr(runner, "train_models", models)
        corpus = corpus_of("d", [(0, 1, 2), (1, 2)], vocab)
        config = GenerationConfig(prompts_per_domain=2, max_new_tokens=3, prompt_truncation=3)
        report = run_experiment(config, {"d": corpus})
        assert report.records == plain_loop(config, {"d": corpus}, models)
        assert len(report.records) == 2 * 3 * 8

    def test_out_of_range_prompt_token_before_window_rejected(self):
        # Both prompts would open on the same window, so the second one would
        # be a memo hit; its token 99 must still be rejected. A prompt is a
        # prefix of a corpus document, and the corpus rejects it first.
        vocab = Vocabulary(("a", "b", "c", "d"))
        config = GenerationConfig(prompts_per_domain=2, max_new_tokens=2, prompt_truncation=3)
        with pytest.raises(InputError, match=r"tokens must be 1-D of integers in \[0, 4\)"):
            corpus = corpus_of("d", [(0, 1, 2, 3, 0, 1, 2), (99, 1, 2)], vocab)
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
        bins = dict(zip(report.records.step_index.tolist(), report.records.position_bin.tolist()))
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

    def test_halted_run_ignores_the_token_cap(self):
        # Every prompt halts by step 18, so a cap of 10**12 takes the same
        # steps as one of 64; it allocated a cap-sized array and failed.
        corpus = synthetic_corpus("chat", n_docs=20, seed=4)
        short, long = (
            run_experiment(GenerationConfig(prompts_per_domain=3, max_new_tokens=cap,
                                            eos_token="<end>"), {"chat": corpus})
            for cap in (64, 10**12)
        )
        assert long.metadata["domains"]["chat"]["stopped_prompts"] == 3
        for name in STEP_FIELDS:
            assert np.array_equal(long.records.steps[name], short.records.steps[name])
        for name in TREE_FIELDS:
            assert np.array_equal(long.records.trees[name], short.records.trees[name])
        assert not long.records.position_bin.any()

    def test_unknown_eos_token_rejected(self):
        corpora = {d: synthetic_corpus(d, n_docs=6, seed=2, doc_len=100) for d in ("chat", "math")}
        config = GenerationConfig(
            prompts_per_domain=1, max_new_tokens=3, prompt_truncation=30, eos_token="<absent>"
        )
        with pytest.raises(InputError, match="chat, math"):
            run_experiment(config, corpora)

    def test_line_break_in_a_domain_rejected_before_any_step(self, monkeypatch):
        corpus = synthetic_corpus("chat", n_docs=2, seed=0)
        monkeypatch.setattr(runner, "train_models", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(InputError, match=r"domain name 'a\\nb' holds a line break"):
            run_experiment(GenerationConfig(prompts_per_domain=1), {"chat": corpus, "a\nb": corpus})

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


def prompt_major_loop(config, corpora):
    """Reference loop: one prompt at a time, ``oracle_step`` on each new window alone.

    Returns the table, each recorded step's window, keyed (domain,
    prompt_id, step_index), and each domain's recorded windows in the order
    first met.
    """
    records, windows, recorded = [], {}, {}
    for domain in sorted(corpora):
        corpus = corpora[domain]
        draft, target = train_models(
            corpus, config.draft_order, config.target_order, config.smoothing
        )
        prompts = sample_prompts(
            corpus, config.prompts_per_domain, config.seed, config.prompt_truncation
        )
        eos = corpus.vocabulary.get(config.eos_token) if config.eos_token else None
        width = max(draft.context_window, target.context_window)
        memo = {}
        for prompt_id, prompt in enumerate(prompts):
            context = list(prompt)
            for step_index in range(config.max_new_tokens):
                key = tuple(context[-width:])
                if key not in memo:
                    memo[key] = oracle_step(draft, target, key, config.tree)
                step_rows, committed = memo[key]
                if committed == eos:
                    break
                windows[domain, prompt_id, step_index] = key
                position_bin = 0 if 2 * step_index < config.max_new_tokens else 1
                records.extend(
                    Row(domain, prompt_id, step_index, depth, position_bin, *rest)
                    for depth, *rest in step_rows
                )
                context.append(committed)
        recorded[domain] = [key for key, (_, committed) in memo.items() if committed != eos]
    return record_table(records), windows, recorded


class TestLockstep:
    """run_experiment takes every step of a domain in one generate_step call,
    the trajectory first; its table must equal that of one prompt at a time,
    and each distinct window must be grown and scored once."""

    def lockstep_case(self):
        corpora = {d: synthetic_corpus(d, n_docs=12, seed=9, doc_len=150) for d in ("chat", "math")}
        config = GenerationConfig(prompts_per_domain=8, max_new_tokens=40, prompt_truncation=40,
                                  eos_token="<end>")
        return corpora, config

    def test_equals_prompt_major(self):
        corpora, config = self.lockstep_case()
        plain = plain_loop(config, corpora)
        expected, windows, _ = prompt_major_loop(config, corpora)
        report = run_experiment(config, corpora)
        assert report.records == expected == plain

        # The case covers prompts halted mid-run, at different waves, and a
        # window that two prompts reach in the same wave.
        lengths = Counter((domain, prompt_id) for domain, prompt_id, _ in windows)
        assert all(m["stopped_prompts"] > 0 for m in report.metadata["domains"].values())
        assert len(set(lengths.values())) > 2
        shared = Counter((domain, step, key) for (domain, _, step), key in windows.items())
        assert max(shared.values()) > 1

    def test_one_step_call_per_domain_and_each_window_once(self, monkeypatch):
        corpora, config = self.lockstep_case()
        _, _, recorded = prompt_major_loop(config, corpora)
        steps, grown, scored = [], [], []
        step = runner.generate_step

        def recording_step(*args, **kwargs):
            steps.append(args[2])
            grown.append([])
            scored.append([])
            return step(*args, **kwargs)

        def recording_grow(draft, contexts, params):
            grown[-1].extend(context_tuples(contexts))
            return grow_trees(draft, contexts, params)

        def recording_score(target, contexts, trees):
            scored[-1].extend(context_tuples(contexts))
            return score_trees(target, contexts, trees)

        monkeypatch.setattr(runner, "generate_step", recording_step)
        monkeypatch.setattr(runner, "grow_trees", recording_grow)
        monkeypatch.setattr(runner, "score_trees", recording_score)
        report = run_experiment(config, corpora)
        domains = sorted(corpora)
        assert steps == [sample_prompts(corpora[d], 8, config.seed, 40) for d in domains]
        # Every window a step records is scored once, and each of their
        # distinct draft windows (the last token) grows once; a window that
        # halts a prompt is recorded by no step and neither grown nor scored.
        assert [sorted(windows) for windows in scored] == [sorted(recorded[d]) for d in domains]
        assert [sorted(windows) for windows in grown] == [
            sorted({key[-1:] for key in recorded[d]}) for d in domains]
        for d, meta in report.metadata["domains"].items():
            assert (meta["speculated_windows"], meta["grown_trees"]) == (
                len(recorded[d]), len({key[-1:] for key in recorded[d]}))

    def test_steps_are_recorded_prompt_by_prompt(self):
        # Two prompts share their window (2, 3) from the first wave on.
        vocab = Vocabulary(("a", "b", "c", "d"))
        corpus = corpus_of("d", [(1, 2, 3), (0, 2, 3)], vocab)
        config = GenerationConfig(prompts_per_domain=2, max_new_tokens=3, prompt_truncation=3)
        report = run_experiment(config, {"d": corpus})
        assert report.records == plain_loop(config, {"d": corpus})
        assert report.metadata["domains"]["d"]["speculated_windows"] <= 3
        steps = report.records.steps
        assert steps["prompt_id"].tolist() == [0, 0, 0, 1, 1, 1]
        assert steps["step_index"].tolist() == [0, 1, 2, 0, 1, 2]


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
        back = read_records_csv(path)
        assert np.all(np.abs(back.alpha - np.minimum(1.0, back.p_target / back.p_draft)) <= 1e-9)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,columns\n1,2\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_records_csv(path)

    def test_inconsistent_alpha_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(RECORD_FIELDS)
        path.write_text(f"{header}\nchat,0,0,1,0,5,0.5,0.25,0.9,0.1\n", encoding="utf-8")
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
        assert json.loads(path.read_text(encoding="utf-8")) == expected

    def test_summary_json_depth_keys_past_nine_sort_as_text(self, tmp_path):
        # Depth keys are written as text and sorted as text, so 10-12 come between 1 and 2.
        depths = {d: d / 100 for d in range(1, 13)}
        path = tmp_path / "summary.json"
        write_summary_json({"d": DomainSummary(5, 0.5, 0.1, 1.0, depths, depths, 2.0, math.nan)}, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))["d"]
        order = ["1", "10", "11", "12", *map(str, range(2, 10))]
        assert list(loaded["per_depth_alpha"]) == list(loaded["chain_prob"]) == order
        assert loaded["per_depth_alpha"]["10"] == 0.1 and loaded["spearman_rho"] is None

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
        loaded = json.loads(path.read_text(encoding="utf-8"))
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
        report = ExperimentReport(records=record_table([]), summaries={}, metadata={})
        written = emit_report(report, tmp_path / "out")
        assert written["csv"].read_text(encoding="utf-8").strip() == ",".join(RECORD_FIELDS)
        assert "Per-domain node statistics" in written["tables"].read_text(encoding="utf-8")

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
                    Row(domain, 0, 0, int(depth_str), 0, 0, 1.0, alpha, alpha, 0.1)
                    for _ in range(4)
                ]
        table = record_table(records)
        text = render_tables(table, summarize(table))
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
    return column_table(("chat", "a,b", 'q"t'), dict(
        domain_code=[i % 3 for i in range(n)],
        prompt_id=range(n),
        step_index=[0, 1, 2, 3, 0, 1, 2, 3],
        depth=[1, 2, 1, 2, 3, 1, 2, 1],
        position_bin=[0, 1] * 4,
        token=[7, 0, 7, 123456, 7, 0, 1, 2],
        p_draft=p_draft,
        p_target=p_target,
        alpha=[min(1.0, t / d) for t, d in zip(p_target, p_draft)],
        target_entropy=AWKWARD,
    ))


def same_structure(a, b):
    """Whether two tables hold the same steps, tree ids and tree rows, floats by bit pattern."""
    return (a.domains == b.domains
            and all(np.array_equal(a.steps[name], b.steps[name]) for name in STEP_FIELDS)
            and np.array_equal(a.tree_offsets, b.tree_offsets)
            and all(a.trees[name].tobytes() == b.trees[name].tobytes() for name in TREE_FIELDS))


class TestRecordCsv:
    def test_cells_are_17_digit_text(self, tmp_path):
        table = awkward_table()
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        expected = [",".join(RECORD_FIELDS)]
        for rec in table_rows(table):
            ints = [rec.prompt_id, rec.step_index, rec.depth, rec.position_bin, rec.token]
            floats = [format(getattr(rec, name), ".17g") for name in FLOAT_FIELDS]
            domain = {"a,b": '"a,b"', 'q"t': '"q""t"'}.get(rec.domain, rec.domain)
            expected.append(",".join([domain, *map(str, ints), *floats]))
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
        assert "0.30000000000000004" in expected[1] and "-0" in expected[5].split(",")

    def test_same_bytes_as_a_list_of_records(self, tmp_path):
        # The table built from its listed records, and built as a run builds
        # it (each record its own step here), write the same bytes.
        table = awkward_table()
        steps = {name: getattr(table, name) for name in STEP_FIELDS[:-1]}
        steps["tree"] = np.arange(len(table))
        trees = {name: getattr(table, name) for name in TREE_FIELDS}
        built = [record_table(table_rows(table)),
                 RecordTable.from_steps(table.domains, steps, np.arange(len(table) + 1), trees)]
        write_records_csv(table, tmp_path / "a.csv")
        for other in built:
            write_records_csv(other, tmp_path / "b.csv")
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_write_read_round_trip(self, tmp_path):
        table = awkward_table()
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        back = read_records_csv(path)
        assert back == table
        for name in FLOAT_FIELDS:  # -0.0 keeps its sign
            assert getattr(back, name).tobytes() == getattr(table, name).tobytes()

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    def test_steps_and_repeated_tails_across_chunks(self, tmp_path, monkeypatch, chunk_rows):
        # Steps of one to three rows over three trees, in both bins and three
        # domains: steps, and tails met again, straddle every chunk boundary.
        monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
        rows = table_rows(awkward_table())
        trees = [rows[0:3], rows[3:5], rows[5:6]]
        names = ("chat", "a,b", 'q"t')
        table = record_table([
            Row(names[step % 3], step // 5, step, row.depth, step // 2 % 2, *row[5:])
            for step in range(40) for row in trees[(0, 1, 0, 2, 2, 1, 0)[step % 7]]
        ])
        assert len(table.tree_offsets) == 4 and len(table.steps["tree"]) == 40
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        back = read_records_csv(path)
        assert back == table
        assert same_structure(back, table)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 8192])
    def test_tails_are_one_tree_when_they_parse_to_equal_bits(self, tmp_path, monkeypatch, chunk_rows):
        # Lines 2-3 and 4-5 are one tree written in other text (+1, 5e-1,
        # 1.0); -0.0 is not 0, so lines 6-7 are another. Prefixes 01 and 1
        # make lines 8-9 one step, whose tails are those of lines 2-3 with
        # the other bin: with chunks of three lines, line 2's tail returns in
        # the third chunk, once with each bin.
        monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
        lines = [
            "chat,0,0,1,0,5,0.5,0.25,0.5,0", "chat,0,0,2,0,6,0.5,0.5,1,0.1",
            "chat,0,1,+1,0,5,5e-1,0.25,0.5,0", "chat,0,1,2,0,6,0.5,0.5,1.0,0.1",
            "chat,0,2,1,0,5,0.5,0.25,0.5,-0.0", "chat,0,2,2,0,6,0.5,0.5,1,0.1",
            "chat,01,3,1,1,5,0.5,0.25,0.5,0", "chat,1,3,2,1,6,0.5,0.5,1,0.1",
            "chat,1,4,1,0,5,0.5,0.25,0.5,0", "chat,1,4,2,0,6,0.5,0.5,1,0.1",
        ]
        path = tmp_path / "edited.csv"
        path.write_text("\n".join([",".join(RECORD_FIELDS), *lines]) + "\n", encoding="utf-8")
        table = read_records_csv(path)
        assert table.steps["prompt_id"].tolist() == [0, 0, 0, 1, 1]
        assert table.steps["position_bin"].tolist() == [0, 0, 0, 1, 0]
        assert table.steps["tree"].tolist() == [0, 0, 1, 0, 0]
        assert table.tree_offsets.tolist() == [0, 2, 4]
        assert np.signbit(table.trees["target_entropy"]).tolist() == [False, False, True, False]
        assert table == record_table([
            Row("chat", prompt_id, step_index, depth, position_bin, 4 + depth, 0.5, 0.25 * depth,
                0.5 * depth, entropy if depth == 1 else 0.1)
            for prompt_id, step_index, position_bin, entropy in [
                (0, 0, 0, 0.0), (0, 1, 0, 0.0), (0, 2, 0, -0.0), (1, 3, 1, 0.0), (1, 4, 0, 0.0)]
            for depth in (1, 2)
        ])

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
            path.write_text(",".join(RECORD_FIELDS) + "\n" + "\n".join(rows) + "\n",
                            encoding="utf-8")
            with pytest.raises(InputError, match=f"{path}:{line}: {message}"):
                read_records_csv(path)

    @pytest.mark.parametrize("rule_line, parse_line", [(3, 9), (9, 3)])
    def test_a_fault_in_an_earlier_chunk_wins(self, tmp_path, monkeypatch, rule_line, parse_line):
        # Lines 2-5 are the first chunk and lines 6-9 the second; a line that
        # breaks a rule and a line that does not parse are each reported
        # first when they come first.
        monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", 4)
        rows = ["chat,0,0,1,0,5,0.5,0.25,0.5,0.1"] * 10
        rows[rule_line - 2] = "chat,0,0,1,0,5,0.5,0.25,0.75,0.1"
        rows[parse_line - 2] = "chat,0,x,1,0,5,0.5,0.25,0.5,0.1"
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        line, message = min((rule_line, "alpha inconsistent"), (parse_line, "invalid literal"))
        with pytest.raises(InputError, match=f"{path}:{line}: {message}"):
            read_records_csv(path)

    @pytest.mark.parametrize("row, message", [
        ('"x,0,x,1,0,5,0.5,y,0.75,0.1', "invalid literal for int() with base 10: 'x'"),
        ('"x,0,0,1,0,5,0.5,y,0.75,0.1', "could not convert string to float: 'y'"),
        ('"x,0,0,1,0,99999999999999999999,0.5,0.25,0.75,0.1', "domain field '\"x' is not quoted"),
        ("chat,0,0,1,0,99999999999999999999,0.5,0.25,0.75,0.1", "integer field outside the int64"),
        ("chat,0,-1,0,7,5,nan,0.25,inf,-1", "p_draft must be finite, got nan"),
        ("chat,0,-1,0,7,5,0.5,0.25,0.75,-1", "step_index must be >= 0 and depth >= 1"),
        ("chat,0,0,1,7,5,0.5,0.25,1.5,0.1", "position_bin must be 0 or 1, got 7"),
        ("chat,0,0,1,0,5,0.5,0.25,1.5,0.1", "alpha outside [0, 1] or negative entropy"),
        ("chat,0,0,1,0,5,-0.5,0.25,0.75,0.1", "p_draft must be positive for a proposed token"),
        # Each was read: alpha is min(1, p_target / p_draft) in both.
        ("chat,0,0,1,0,5,4.0,2.0,0.5,0.1", "p_draft must be at most 1, got 4.0"),
        ("chat,0,0,1,0,5,0.5,2.0,1,0.1", "p_target must be at most 1, got 2.0"),
        # A lone surrogate is written as the byte it stands for, which is not UTF-8.
        ("chat,0,0,1,0,\udcff5", "not UTF-8 text: invalid start byte"),
        ("chat,0,\udcff,1,0,5,0.5,0.25,0.5,0.1", "not UTF-8 text: invalid start byte"),
        ("chat,0,0,1,0,x", "malformed row of 6 fields, not 10"),
        ('"x,0,0,1,0,5', "malformed row of 6 fields, not 10"),
        ("chat,0,-1,1,0,5,0.5,0.25,0.5,nan", "target_entropy must be finite, got nan"),
        ("chat,0,-1,1,7,5,0.5,0.25,1.5,0.1", "step_index must be >= 0 and depth >= 1"),
        ("chat,0,0,1,0,5,0.5,0.25,0.75,-1", "alpha outside [0, 1] or negative entropy"),
    ])
    def test_a_line_reports_its_first_fault(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\n" + row + "\n", encoding="utf-8",
                        errors="surrogateescape")
        with pytest.raises(InputError, match=re.escape(f"{path}:2: {message}")):
            read_records_csv(path)

    @pytest.mark.parametrize("chunk_rows", [4, 8192])
    @pytest.mark.parametrize("row, message", [
        ('chat,"0",0,1,0,5,0.5,0.25,0.5,0.1', "invalid literal for int"),
        ('chat,0,0,1,0,5,0.5,0.25,0.5,"0.1"', "could not convert string to float"),
        ('"a\nb",0,0,1,0,5,0.5,0.25,0.5,0.1', "malformed row of 1 fields, not 10"),
        ('"chat",0,0,1,0,5,0.5,0.25,0.5,0.1', "domain field '\"chat\"' is not quoted"),
        ('ch"at,0,0,1,0,5,0.5,0.25,0.5,0.1', "domain field 'ch\"at' is not quoted"),
        ('a,b,0,0,1,0,5,0.5,0.25,0.5,0.1', "domain field 'a,b' is not quoted"),
    ])
    def test_text_the_writer_never_writes_is_rejected(self, tmp_path, monkeypatch, chunk_rows,
                                                      row, message):
        # The writer writes none of these lines; csv.reader reads all but the
        # last, so the first five are rejected on purpose.
        monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
        good = "chat,0,0,1,0,5,0.5,0.25,0.5,0.1"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(RECORD_FIELDS), good, row, *[good] * 8]) + "\n",
                        encoding="utf-8")
        with pytest.raises(InputError, match=f"{path}:3: {message}"):
            read_records_csv(path)

    def test_a_chunk_no_line_check_faults_raises_the_readers_error(self, tmp_path, monkeypatch):
        # Were the line check to pass a line the chunk check rejects, the
        # chunk's own error surfaces: the file is never read as a table.
        monkeypatch.setattr(runner, "_line_fault", lambda line: "")
        path = tmp_path / "bad.csv"
        path.write_text(f"{RECORD_HEADER}\nchat,0,0,1,0,5,0.5,0.25,0.75,0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="a record breaks a rule"):
            read_records_csv(path)

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(record_table([]), path)
        assert read_records_csv(path) == record_table([])

    def test_integer_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\nchat,0,0,1,0,99999999999999999999,0.5,0.25,0.5,0.1\n",
                        encoding="utf-8")
        with pytest.raises(InputError, match=f"{path}:2: integer field outside the int64 range"):
            read_records_csv(path)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 8192])
    @pytest.mark.parametrize("lines, expected", [
        # A fault on an earlier line of the same chunk wins over the byte.
        ([RECORD_HEADER, "chat,0,0,1,0,5,0.5,0.25,0.5,0.1", "chat,0,1,1,0,5,0.5,0.25,0.9,0.1",
          b"chat,0,2,1,0,\xff\n"], ":3: alpha inconsistent with stored p_target / p_draft"),
        ([RECORD_HEADER, "chat,0,0,1,0,5,0.5,0.25,0.5,0.1", "chat,0,1,1,0,5,0.5,0.25,0.5,0.1",
          b"chat,0,2,1,0,\xff\n", "chat,0,1,1,0,5,0.5,0.25,0.9,0.1"], ":4: not UTF-8 text: invalid start byte"),
        ([RECORD_HEADER, b"ch\xc3at,0,0,1,0,5,0.5,0.25,0.5,0.1\n"], ":2: not UTF-8 text: invalid continuation byte"),
        # A first line that is not the header wins over every later fault.
        (["not,a,record,header", "chat,0,0,1,0,5,0.5,0.25,0.9,0.1", b"\xff\n"],
         " is not a record file (unexpected header)"),
        # The byte in a continuation line's new tail, in the domain of a new
        # run whose tail is known, and on a line of eight fields.
        ([RECORD_HEADER, "chat,0,0,1,0,5,0.5,0.25,0.5,0.1", b"chat,0,0,2,0,\xff5,0.5,0.25,0.5,0.1\n"],
         ":3: not UTF-8 text: invalid start byte"),
        ([RECORD_HEADER, "chat,0,0,1,0,5,0.5,0.25,0.5,0.1", b"ch\xffat,0,1,1,0,5,0.5,0.25,0.5,0.1\n"],
         ":3: not UTF-8 text: invalid start byte"),
        ([RECORD_HEADER, "chat,0,0,1,0,5,0.5,0.25,0.5,0.1", b"chat,0,1,1,0,5,0.5,\xff0.25\n"],
         ":3: not UTF-8 text: invalid start byte"),
        ([RECORD_HEADER, "chat,0,0,1,0,5,0.5,0.25,0.5,0.1", b"chat,0,1,1,0,5,0.5,0.25,0.5,0.1\xe2\x82"],
         ":3: not UTF-8 text: unexpected end of data"),
        ([RECORD_HEADER, "é,0,0,1,0,5,0.5,0.25,0.5,0.1", "é,0,1,1,0,5,0.5,0.25,0.5,0.1"], ("é",)),
    ])
    def test_a_byte_that_is_not_utf8_is_named_at_its_line(self, tmp_path, monkeypatch, chunk_rows,
                                                           lines, expected):
        # Each text line ends with a line break; bytes are written as given.
        monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "bad.csv"
        path.write_bytes(b"".join(line if isinstance(line, bytes) else (line + "\n").encode() for line in lines))
        try:
            got = read_records_csv(path).domains
        except InputError as exc:
            got = str(exc).removeprefix(str(path))
        assert got == expected

    def test_a_file_with_a_bad_byte_is_opened_once(self, tmp_path, monkeypatch):
        opened = []

        def spy(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(runner, "open", spy, raising=False)
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{RECORD_HEADER}\nchat,0,0,1,0,5,0.5,0.25,0.5,0.1\n".encode() + b"ch\xffat,0,1\n")
        with pytest.raises(InputError, match=f"{path}:3: not UTF-8 text"):
            read_records_csv(path)
        assert opened == [path]

    def test_a_header_that_is_not_utf8_is_named_at_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"dom\xffain\n")
        with pytest.raises(InputError, match=f"{path}:1: not UTF-8 text"):
            read_records_csv(path)


def test_pipeline_leaves_no_cycles_that_grow_with_the_run(tmp_path):
    """The CLI pauses the cyclic collector for a whole command, which holds
    memory bounded only while a run leaves the same cyclic garbage at any size."""
    corpora = {d: synthetic_corpus(d, n_docs=12, seed=9, doc_len=150) for d in ("chat", "math")}

    def cyclic_garbage(prompts):
        config = GenerationConfig(prompts_per_domain=prompts, max_new_tokens=32,
                                  prompt_truncation=40)
        out = tmp_path / str(prompts)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            emit_report(run_experiment(config, corpora), out)
            read_records_csv(out / "records.csv")
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    cyclic_garbage(2)  # first calls build caches that live on
    assert cyclic_garbage(2) == cyclic_garbage(16)
