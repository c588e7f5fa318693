"""What the benchmark's tracer (``perfbench/tracing.py``) needs from the program.

The benchmark lives outside ``tests/``, so these checks keep a change here
from breaking it unseen:

- it counts model batches and their contexts by patching
  ``LanguageModel.next_token_dists``, so ``NGramModel`` must not override it,
  and by iterating each batch, so a batch given as an array of windows must
  count one context per row;
- it counts single-context calls by patching ``NGramModel.next_token_dist``,
  which ``NGramModel`` inherits as a batch of one: ``_batch_dists`` is the
  one method a model implements, and a run makes no single-context call;
- its step time must equal the model, tree, verify and step self times, so
  every model call of a run must happen inside ``generate_step``, which
  takes all of one domain's steps, the trajectory's target calls too;
- it keys each step call by ``tuple(prompts[-w:])`` over the call's third
  positional argument, the domain's prompts, so ``prompts`` must be a list
  of tuples;
- it patches each of its boundaries by name, so every one must exist;
- its observer of ``build_draft_tree`` reads ``result.nodes``, which the
  ``DraftTrees`` it returns does not have, so a run must not build its
  trees through ``build_draft_tree`` (nor score them through ``score_tree``).
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from treespec import GenerationConfig, LanguageModel, NGramModel, run_experiment, synthetic_corpus
from treespec import model, runner, tree, verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def small_run():
    corpora = {d: synthetic_corpus(d, n_docs=10, seed=3, doc_len=120) for d in ("chat", "math")}
    config = GenerationConfig(prompts_per_domain=4, max_new_tokens=12, prompt_truncation=40,
                              eos_token="<end>")
    return run_experiment(config, corpora)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_boundary_resolves():
    tracing = load_tracing()
    for owner, attr, span in tracing._BOUNDARIES:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_a_run_builds_and_scores_no_tree_one_at_a_time(monkeypatch):
    calls = []
    modules = [module for name, module in sys.modules.items()
               if module is not None and (name == "treespec" or name.startswith("treespec."))]
    for original in (tree.build_draft_tree, verify.score_tree):
        def record(*args, name=original.__name__, **kwargs):
            calls.append(name)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, record)
    small_run()
    assert calls == []


def test_ngram_model_serves_batches_through_the_base_method():
    assert "next_token_dists" not in vars(NGramModel)
    assert "_batch_dists" in vars(NGramModel)
    assert "next_token_dist" not in vars(NGramModel)
    assert NGramModel.next_token_dist is LanguageModel.next_token_dist


def traced_small_run():
    """``small_run`` under the tracer; its op metrics."""
    tracer = load_tracing().Tracer(keep_spans=False)
    own = set(vars(NGramModel))
    tracer.install()
    try:
        small_run()
    finally:
        tracer.uninstall()
        # uninstall sets each patched method back on its class, so the
        # inherited next_token_dist would stay on NGramModel as its own.
        for attr in set(vars(NGramModel)) - own:
            delattr(NGramModel, attr)
    return tracer.op_metrics()


def test_tracer_counts_batches_and_no_single_context_call():
    metrics = traced_small_run()
    assert metrics["model.dist.calls"] == 0
    assert metrics["model.batch.calls"] > 0 and metrics["model.contexts_scored"] > 0
    assert metrics["runner.step.calls"] == 2


def test_tracer_counts_each_row_of_an_array_batch_as_a_context(monkeypatch):
    rows, arrays = [], []
    batch = LanguageModel.next_token_dists

    def recording(self, contexts):
        rows.append(len(contexts))
        arrays.append(isinstance(contexts, np.ndarray))
        return batch(self, contexts)

    monkeypatch.setattr(LanguageModel, "next_token_dists", recording)
    metrics = traced_small_run()
    assert any(arrays) and not all(arrays)  # growth and scoring ask arrays, the trajectory tuples
    assert metrics["model.batch.calls"] == len(rows)
    assert metrics["model.contexts_scored"] == sum(rows)
    assert 0 < metrics["model.window_unique_ratio"] <= 1


def test_every_model_call_is_inside_a_step_and_windows_are_tuples(monkeypatch):
    depth = [0]
    step_calls = []
    model_calls = []
    step = runner.generate_step

    def traced_step(*args, **kwargs):
        prompts = args[2]
        assert type(prompts) is list and prompts
        assert all(type(prompt) is tuple for prompt in prompts)
        hash(tuple(prompts[-3:]))
        step_calls.append(len(prompts))
        depth[0] += 1
        try:
            return step(*args, **kwargs)
        finally:
            depth[0] -= 1

    def traced(method):
        def wrapper(self, *args, **kwargs):
            model_calls.append(depth[0])
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(runner, "generate_step", traced_step)
    monkeypatch.setattr(model.LanguageModel, "next_token_dists",
                        traced(model.LanguageModel.next_token_dists))
    monkeypatch.setattr(NGramModel, "next_token_dist", traced(NGramModel.next_token_dist))
    small_run()
    assert step_calls == [4, 4], "one generate_step call per domain"
    assert model_calls
    assert all(model_calls), "a model call ran outside generate_step"
