"""Measure one workload: set-up, a warm-up op, then timed ops in a closed loop.

One client, one thread: each op starts when the previous one has finished,
and timed ops run until ``seconds`` have passed and at least MIN_TIMED_OPS
have run. Every op is ``treespec.cli.main(argv)`` with stdout captured,
writing into a fresh output directory that is removed afterwards, with
``gc.collect()`` before it. Each op's output bytes are hashed and compared
with the workload's expected hashes; an op that raises, exits non-zero or
mismatches counts as failed and the run goes on.

On a shared virtual machine the CPU speed drifts, for the program and any
other code alike (by 20% and more within minutes on the 2-CPU x86-64 VM the
benchmark was defined on), so end-to-end times are reported at a fixed
machine speed. While an op or a set-up runs, ``SpeedSampler`` times a fixed
integer loop that uses no treespec code every 50 ms (SIGALRM; about 0.2% of
the op's time), and the op's wall time is scaled by
TICK_NOMINAL_S / median(loop time). A change to treespec does not change
the loop, so it shows in full. Unscaled wall times and the scale factors
are printed and kept in the result file.

A warm-up op, excluded from the metrics, runs untraced first. With tracing
off the timed ops run unwrapped and give the end-to-end metrics. With
tracing on, untraced and traced ops alternate: the traced ones give the
per-layer metrics (in unscaled wall seconds) and the pair gives
``trace.overhead``. ``peak_rss_mb`` is read after the timed ops (so in a
traced run it includes the tracer's memory). Only then does one more op run
under a span-less tracer whose counters describe the workload; its memory
is the benchmark's, so it is kept out of ``peak_rss_mb``.

Throughput is each workload's count of work (steps for the generation
workloads, records for reanalyze; see ``Workload.throughput``) divided by
``op_s``. It is printed and kept in the result file, but it is not one of
the one-line metrics: every workload must print the same metrics there,
and a fixed count divided by ``op_s`` would only repeat ``op_s``.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import treespec
from treespec import cli
from tracing import LAYER_UNITS, Tracer, mean_metrics
from workloads import WORKLOADS, Workload, sha256_file

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Set-up runs up to SETUP_REPEATS times, and at least twice; once it has taken
# SETUP_BUDGET_S in total it stops repeating (reanalyze's set-up is a full
# reference run, which is long enough to be steady).
SETUP_REPEATS = 3
SETUP_BUDGET_S = 10.0

MIN_TIMED_OPS = 2

SAMPLE_INTERVAL_S = 0.05
# The sampled loop's typical time on the 2-CPU x86-64 VM the benchmark was
# defined on (Python 3.11.7); end-to-end times read as seconds on that
# machine at that speed.
TICK_NOMINAL_S = 100e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {**LAYER_UNITS, "trace.overhead": "ratio"}


def _tick_task() -> int:
    """A fixed, cache-resident integer loop whose time tracks the CPU's speed."""
    x = 0
    for i in range(1_000):
        x += i * i % 7
    return x


class SpeedSampler:
    """While active, times ``_tick_task`` every SAMPLE_INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum: int, frame: object) -> None:
        start = perf_counter()
        _tick_task()
        self.samples.append(perf_counter() - start)

    def factor(self) -> float:
        """Scale from wall time to nominal-speed time (below 1 on a slow machine)."""
        return TICK_NOMINAL_S / statistics.median(self.samples) if self.samples else 1.0


class Op(NamedTuple):
    """The outcome of one op: wall seconds and the sampler's scale factor."""

    seconds: float
    factor: float
    ok: bool
    hashes: dict[str, str]
    meta: dict | None


def run_op(workload: Workload, inputs: Path, work: Path, seed: int, size: str,
           expected: dict[str, str] | None) -> Op:
    """One timed ``cli.main`` call plus its output check (outside the timing)."""
    gc.collect()
    out = Path(tempfile.mkdtemp(dir=work, prefix="op-"))
    argv = workload.argv(inputs, out, seed, size)
    try:
        try:
            with redirect_stdout(io.StringIO()), SpeedSampler() as sampler:
                start = perf_counter()
                code = cli.main(argv)
                seconds = perf_counter() - start
        except Exception:
            traceback.print_exc()
            return Op(perf_counter() - start, 1.0, False, {}, None)
        hashes = {name: sha256_file(out / name) for name in workload.outputs if (out / name).is_file()}
        ok = code == 0 and (expected is None or hashes == expected)
        if not ok:
            print(f"op failed: exit {code}, hashes {hashes}", file=sys.stderr)
        meta_path = workload.meta_path(inputs, out)
        meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.is_file() else None
        return Op(seconds, sampler.factor(), ok, hashes, meta)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def set_up(workload: Workload, work: Path, seed: int,
           size: str) -> tuple[Path, list[float], list[float], bool]:
    """Generate the inputs several times, each in a fresh process.

    Returns the first copy, the wall time of each repeat (interpreter start,
    imports and input generation), the sampler's factor for each, and
    whether all copies are byte-identical.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]))
    copies, times, factors = [], [], []
    while len(times) < SETUP_REPEATS and (len(times) < 2 or sum(times) < SETUP_BUDGET_S):
        dest = work / f"inputs{len(times)}"
        dest.mkdir()
        with SpeedSampler() as sampler:
            start = perf_counter()
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "workloads.py"), workload.name, str(seed), size,
                 str(dest)],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
            times.append(perf_counter() - start)
        factors.append(sampler.factor())
        copies.append(_tree_hashes(dest))
        if len(copies) > 1:
            shutil.rmtree(dest)
    return work / "inputs0", times, factors, all(c == copies[0] for c in copies)


def _tree_hashes(root: Path) -> dict[str, str]:
    # meta.json carries wall-clock timestamps, so it is not compared.
    return {str(p.relative_to(root)): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "meta.json"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def describe(meta: dict | None, tracer: Tracer) -> dict:
    """Workload descriptors, from the described op's meta.json and counters."""
    domains = {}
    for name, info in sorted((meta or {}).get("domains", {}).items()):
        domains[name] = {
            "steps": info["trees"],
            "records": info["records"],
            "vocab_size": info["vocab_size"],
            "mean_successors_per_context": tracer.successors.get(name),
        }
    op = tracer.op_metrics()
    return {
        "domains": domains,
        "steps": sum(d["steps"] for d in domains.values()),
        "records": sum(d["records"] for d in domains.values()),
        "runner.step_window_new_ratio": op["runner.step_window_new_ratio"],
        "model.window_unique_ratio": op["model.window_unique_ratio"],
    }


def environment() -> dict:
    """Versions, CPU count, commit (None outside a git checkout) and source size."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = sorted((ROOT / "src" / "treespec").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "treespec": treespec.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_treespec_lines": sum(len(p.read_bytes().splitlines()) for p in src),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return its full result (see ``result_line``)."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=out_dir, prefix=f"work-{name}-"))
    try:
        inputs, setup_times, setup_factors, setup_consistent = set_up(workload, work, seed, size)
        expected = workload.expected(inputs, seed, size)

        warm = run_op(workload, inputs, work, seed, size, expected)
        if expected is None:
            expected = warm.hashes
        ops = [warm]

        untraced: list[Op] = []
        traced: list[Op] = []
        layer_ops: list[dict[str, float]] = []
        tracer = Tracer() if trace else None
        start = perf_counter()
        while True:
            if tracer is not None and len(traced) < len(untraced):
                tracer.begin_op(len(ops))
                tracer.install()
                try:
                    op = run_op(workload, inputs, work, seed, size, expected)
                finally:
                    tracer.uninstall()
                traced.append(op)
                layer_ops.append(tracer.op_metrics())
            else:
                op = run_op(workload, inputs, work, seed, size, expected)
                untraced.append(op)
            ops.append(op)
            if tracer is None:
                enough = len(untraced) >= MIN_TIMED_OPS
            else:
                enough = len(traced) == len(untraced)
            if enough and perf_counter() - start >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.write_spans(out_dir / f"{name}-{size}.spans.tsv")

        # The descriptor op runs after the peak is read: its counters are the
        # benchmark's memory, not the program's.
        counter = Tracer(keep_spans=False)
        counter.install()
        try:
            described = run_op(workload, inputs, work, seed, size, expected)
        finally:
            counter.uninstall()
        ops.append(described)
        descriptors = describe(described.meta, counter)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    q1, op_s, q3 = quartiles([op.seconds * op.factor for op in untraced])
    throughput, counted = workload.throughput
    setup_s = statistics.median(t * f for t, f in zip(setup_times, setup_factors))
    failed = sum(not op.ok for op in ops)
    result = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "correct": failed == 0 and setup_consistent,
        "attempted": len(ops),
        "failed": failed,
        "failed_ops": failed / len(ops),
        "setup_consistent": setup_consistent,
        "setup_wall_s_samples": setup_times,
        "setup_factors": setup_factors,
        "op_wall_s_samples": [op.seconds for op in untraced],
        "op_factors": [op.factor for op in untraced],
        "op_s_quartiles": [q1, op_s, q3],
        "output_sha256": expected,
        "end_to_end": {
            "setup_s": setup_s,
            "op_s": op_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "throughput": {throughput: descriptors[counted] / op_s},
        "descriptors": descriptors,
        "environment": environment(),
    }
    if trace:
        layers = mean_metrics(layer_ops)
        layers["trace.overhead"] = (statistics.median(op.seconds * op.factor for op in traced)
                                    / op_s)
        result["per_layer"] = layers
        result["traced_op_wall_s_samples"] = [op.seconds for op in traced]
        result["traced_op_factors"] = [op.factor for op in traced]
    (out_dir / f"{name}-{size}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result


def result_line(result: dict) -> dict:
    """The one-line result: the end-to-end metrics untraced, the per-layer ones traced."""
    if result["trace"]:
        values, units = result["per_layer"], PER_LAYER_UNITS
    else:
        values, units = result["end_to_end"], END_TO_END_UNITS
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def report(result: dict) -> str:
    """Human-readable lines for one workload's result."""
    e2e = result["end_to_end"]
    q1, med, q3 = result["op_s_quartiles"]
    lines = [
        f"== {result['workload']} (seed {result['seed']}, size {result['size']}, "
        f"trace {int(result['trace'])}) ==",
        f"setup_s        {e2e['setup_s']:.4f} s   median of {len(result['setup_wall_s_samples'])} "
        f"set-ups; unscaled {statistics.median(result['setup_wall_s_samples']):.4f} s",
        f"op_s           {med:.4f} s   q1 {q1:.4f}  q3 {q3:.4f}  n {len(result['op_wall_s_samples'])}",
        f"op_wall_s      {statistics.median(result['op_wall_s_samples']):.4f} s   unscaled median; "
        f"speed factors {' '.join(f'{f:.3f}' for f in result['op_factors'])}",
        *(f"{metric:<14} {value:.1f} 1/s" for metric, value in result["throughput"].items()),
        f"peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB" + ("   includes the tracer" if result["trace"] else ""),
        f"failed_ops     {result['failed_ops']:.4f} share   {result['failed']} of {result['attempted']} ops",
    ]
    for name, digest in sorted(result["output_sha256"].items()):
        lines.append(f"sha256 {name} {digest}")
    if result["trace"]:
        for name, unit in PER_LAYER_UNITS.items():
            lines.append(f"{name:<32} {result['per_layer'][name]:.6g} {unit}")
    lines.append("descriptors " + json.dumps(result["descriptors"], sort_keys=True))
    lines.append("environment " + json.dumps(result["environment"], sort_keys=True))
    return "\n".join(lines)
