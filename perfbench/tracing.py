"""Span and count wrappers around treespec's layer boundaries.

``Tracer.install()`` replaces each boundary function with a wrapper, in every
``treespec`` module whose namespace binds it, so the wrapper sits where the
calling code looks the name up (``treespec.runner.build_draft_tree``,
``treespec.cli.run_experiment``, ...). Model methods are wrapped on their
class. ``uninstall()`` restores the originals; nothing under ``src/`` changes.

A span has an id, a parent span, an op id, a name, a start and an end. Spans
stay in memory and are written out with ``write_spans`` when the run ends.
Self time is a span's duration minus the time its child spans cover; it is
accumulated as spans close, which is exact because every call is
synchronous and single-threaded.

The tracer's own work (each wrapper's bookkeeping and the observers, which
run after the span has closed) is billed to no span: a running total of it
is kept, and the part that falls inside a span is taken off that span's
duration, so inclusive and self times cover treespec code only. Each span
line also carries that part, so ``end - start - tracer_s`` is its duration.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from treespec import cli, corpus, metrics, model, runner, tree, verify

MODEL_SPANS = ("model.batch", "model.dist")
# The span that calls a model names the model's role.
_ROLES = {"tree.build": "draft", "verify.score": "target"}

# (owner, attribute, span name). Functions are patched wherever a treespec
# module binds them; methods are patched on their class.
_BOUNDARIES = (
    (corpus, "load_corpora", "corpus.load"),
    (corpus, "synthetic_corpora", "corpus.synthetic"),
    (corpus, "train_models", "corpus.train_models"),
    (model.LanguageModel, "next_token_dists", "model.batch"),
    (model.NGramModel, "next_token_dist", "model.dist"),
    (tree, "build_draft_tree", "tree.build"),
    (verify, "score_tree", "verify.score"),
    (runner, "generate_step", "runner.step"),
    (runner, "run_experiment", "runner.loop"),
    (runner, "emit_report", "runner.emit_report"),
    (runner, "write_records_csv", "runner.write_records_csv"),
    (runner, "write_summary_json", "runner.write_summary_json"),
    (runner, "render_tables", "runner.render_tables"),
    (runner, "read_records_csv", "runner.read_records_csv"),
    (metrics, "summarize", "metrics.summarize"),
    (metrics, "depth_profile", "metrics.depth_profile"),
    (metrics, "position_effects", "metrics.position_effects"),
    (cli, "main", "cli.main"),
)

# name -> unit for every per-layer metric ``op_metrics`` returns.
LAYER_UNITS = {
    "corpus.load_s": "s",
    "corpus.synthetic_s": "s",
    "corpus.train_models_s": "s",
    "corpus.train_models.calls": "count",
    "corpus.fit_contexts": "count",
    "model.dist.calls": "count",
    "model.batch.calls": "count",
    "model.contexts_scored": "count",
    "model.draft.contexts": "count",
    "model.target.contexts": "count",
    "model.self_s": "s",
    "model.us_per_context": "us",
    "model.window_unique_ratio": "ratio",
    "tree.build.calls": "count",
    "tree.build_s": "s",
    "tree.self_s": "s",
    "tree.nodes_per_tree": "count",
    "tree.budget_fill": "ratio",
    "tree.draft_contexts_per_tree": "count",
    "verify.score.calls": "count",
    "verify.score_s": "s",
    "verify.self_s": "s",
    "verify.prefixes_per_tree": "count",
    "runner.step.calls": "count",
    "runner.step_s": "s",
    "runner.step.self_s": "s",
    "runner.loop.self_s": "s",
    "runner.step_window_new_ratio": "ratio",
    "runner.emit_report_s": "s",
    "runner.write_records_csv_s": "s",
    "runner.write_summary_json_s": "s",
    "runner.render_tables_s": "s",
    "runner.csv_bytes_written": "bytes",
    "runner.read_records_csv_s": "s",
    "runner.csv_bytes_read": "bytes",
    "metrics.summarize.calls": "count",
    "metrics.summarize_s": "s",
    "metrics.depth_profile_s": "s",
    "metrics.position_effects_s": "s",
    "cli.self_s": "s",
}


def _window(lm: model.LanguageModel) -> int | None:
    """How many trailing context tokens the model reads; None when unbounded."""
    order = getattr(lm, "order", None)
    return None if order is None else order - 1


def _suffix(context, width: int | None) -> tuple[int, ...]:
    if width is None:
        return tuple(context)
    return tuple(context[-width:]) if width else ()


class Tracer:
    """Spans, and counters for the op begun by the last ``begin_op`` call.

    With ``keep_spans`` off only the per-op accumulators are kept, which is
    what the descriptor op uses to describe a workload without holding spans.
    """

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.spans: list[tuple[int, int, int, str, float, float, float]] = []
        # open spans: [id, name, child seconds, tracer seconds when it opened]
        self._stack: list[list] = []
        self._next_id = 0
        self.overhead_s = 0.0  # tracer time so far, billed to no span
        self._model_serials = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self.begin_op(-1)

    # --- per-op accumulators ---------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        # span name -> [calls, inclusive seconds, self seconds]
        self._acc: dict[str, list] = {span: [0, 0.0, 0.0] for _, _, span in _BOUNDARIES}
        self.counts: dict[str, int] = defaultdict(int)
        self.model_windows: set[tuple[int, tuple[int, ...]]] = set()
        self.step_windows: set[tuple[str, tuple[int, ...]]] = set()
        self.successors: dict[str, dict[str, float]] = {}
        # id(model) -> serial, for live models only, so that a model fitted
        # later at a freed model's address is not mistaken for it.
        self._models: dict[int, int] = {}

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "treespec" or name.startswith("treespec."))]
        for owner, attr, span in _BOUNDARIES:
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, _OBSERVERS.get(span))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            entry = perf_counter()
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, name, 0.0, tracer.overhead_s]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                inner = tracer.overhead_s - frame[3]
                duration = end - start - inner
                acc = tracer._acc[name]
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, tracer.op_id, name, start, end, inner))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            tracer.overhead_s += (start - entry) + (perf_counter() - end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- observers' helpers ----------------------------------------------

    def caller_name(self) -> str:
        """Name of the span that called the one now being observed.

        Observers run once their own span has closed, so that is the
        innermost span still open.
        """
        return self._stack[-1][1] if self._stack else ""

    def model_serial(self, lm: model.LanguageModel) -> int:
        """A number unique to ``lm`` for as long as it lives, without keeping it alive."""
        models = self._models
        serial = models.get(id(lm))
        if serial is None:
            serial = models[id(lm)] = next(self._model_serials)
            weakref.finalize(lm, models.pop, id(lm), None)
        return serial

    def count_contexts(self, lm: model.LanguageModel, contexts) -> None:
        """Count contexts scored by ``lm``, by the role its caller gives it."""
        serial = self.model_serial(lm)
        width = _window(lm)
        role = _ROLES.get(self.caller_name(), "other")
        n = 0
        for context in contexts:
            self.model_windows.add((serial, _suffix(context, width)))
            n += 1
        self.counts["contexts"] += n
        self.counts[role + "_contexts"] += n

    # --- results ---------------------------------------------------------

    def op_metrics(self) -> dict[str, float]:
        acc, counts = self._acc, self.counts
        calls = {name: a[0] for name, a in acc.items()}
        incl = {name: a[1] for name, a in acc.items()}
        selft = {name: a[2] for name, a in acc.items()}
        contexts = counts["contexts"]
        model_self = sum(selft[name] for name in MODEL_SPANS)
        trees = calls["tree.build"]
        scores = calls["verify.score"]
        steps = calls["runner.step"]
        return {
            "corpus.load_s": incl["corpus.load"],
            "corpus.synthetic_s": incl["corpus.synthetic"],
            "corpus.train_models_s": incl["corpus.train_models"],
            "corpus.train_models.calls": calls["corpus.train_models"],
            "corpus.fit_contexts": counts["fit_contexts"],
            "model.dist.calls": calls["model.dist"],
            "model.batch.calls": calls["model.batch"],
            "model.contexts_scored": contexts,
            "model.draft.contexts": counts["draft_contexts"],
            "model.target.contexts": counts["target_contexts"],
            "model.self_s": model_self,
            "model.us_per_context": model_self / contexts * 1e6 if contexts else 0.0,
            "model.window_unique_ratio": len(self.model_windows) / contexts if contexts else 0.0,
            "tree.build.calls": trees,
            "tree.build_s": incl["tree.build"],
            "tree.self_s": selft["tree.build"],
            "tree.nodes_per_tree": counts["tree_nodes"] / trees if trees else 0.0,
            "tree.budget_fill": counts["tree_nodes"] / counts["tree_budget"] if trees else 0.0,
            "tree.draft_contexts_per_tree": counts["draft_contexts"] / trees if trees else 0.0,
            "verify.score.calls": scores,
            "verify.score_s": incl["verify.score"],
            "verify.self_s": selft["verify.score"],
            "verify.prefixes_per_tree": counts["target_contexts"] / scores if scores else 0.0,
            "runner.step.calls": steps,
            "runner.step_s": incl["runner.step"],
            "runner.step.self_s": selft["runner.step"],
            "runner.loop.self_s": selft["runner.loop"],
            "runner.step_window_new_ratio": counts["new_step_windows"] / steps if steps else 0.0,
            "runner.emit_report_s": incl["runner.emit_report"],
            "runner.write_records_csv_s": incl["runner.write_records_csv"],
            "runner.write_summary_json_s": incl["runner.write_summary_json"],
            "runner.render_tables_s": incl["runner.render_tables"],
            "runner.csv_bytes_written": counts["csv_bytes_written"],
            "runner.read_records_csv_s": incl["runner.read_records_csv"],
            "runner.csv_bytes_read": counts["csv_bytes_read"],
            "metrics.summarize.calls": calls["metrics.summarize"],
            "metrics.summarize_s": incl["metrics.summarize"],
            "metrics.depth_profile_s": incl["metrics.depth_profile"],
            "metrics.position_effects_s": incl["metrics.position_effects"],
            "cli.self_s": selft["cli.main"],
        }

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, op, name, start, end, tracer_s."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\top\tname\tstart\tend\ttracer_s\n")
            for span in sorted(self.spans):
                handle.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.9f\n" % span)


def mean_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric mean over ops; a mean keeps self times summing to their parent's."""
    return {name: statistics.fmean(op[name] for op in per_op) for name in per_op[0]}


# --- observers: run after the wrapped call returns and its span closes -----


def _observe_train_models(tracer: Tracer, args, kwargs, result) -> None:
    domain_corpus = args[0] if args else kwargs["corpus"]
    per_model = {}
    for role, lm in zip(("draft", "target"), result):
        rows = lm.counts
        tracer.counts["fit_contexts"] += len(rows)
        per_model[role] = sum(len(row) for row in rows.values()) / len(rows) if rows else 0.0
    tracer.successors[domain_corpus.domain] = per_model


def _observe_batch(tracer: Tracer, args, kwargs, result) -> None:
    lm = args[0]
    contexts = args[1] if len(args) > 1 else kwargs["contexts"]
    tracer.count_contexts(lm, contexts)


def _observe_dist(tracer: Tracer, args, kwargs, result) -> None:
    # Contexts scored inside a batch were already counted by the batch span.
    if tracer.caller_name() == "model.batch":
        return
    lm = args[0]
    context = args[1] if len(args) > 1 else kwargs["context"]
    tracer.count_contexts(lm, (context,))


def _observe_tree(tracer: Tracer, args, kwargs, result) -> None:
    params = args[2] if len(args) > 2 else kwargs["params"]
    tracer.counts["tree_nodes"] += len(result.nodes)
    tracer.counts["tree_budget"] += params.max_nodes


def _observe_step(tracer: Tracer, args, kwargs, result) -> None:
    draft, target, context = args[:3]
    widths = [_window(draft), _window(target)]
    width = None if None in widths else max(widths)
    key = (kwargs.get("domain", ""), _suffix(context, width))
    if key not in tracer.step_windows:
        tracer.step_windows.add(key)
        tracer.counts["new_step_windows"] += 1


def _observe_csv_write(tracer: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["csv_bytes_written"] += os.path.getsize(path)


def _observe_csv_read(tracer: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counts["csv_bytes_read"] += os.path.getsize(path)


_OBSERVERS = {
    "corpus.train_models": _observe_train_models,
    "model.batch": _observe_batch,
    "model.dist": _observe_dist,
    "tree.build": _observe_tree,
    "runner.step": _observe_step,
    "runner.write_records_csv": _observe_csv_write,
    "runner.read_records_csv": _observe_csv_read,
}
