"""Command-line interface.

Subcommands: ``run`` executes the full experiment and writes reports,
``analyze`` re-aggregates an existing record file into the run's report
files (summary, tables and its own meta), ``tables`` renders the
plain-text report tables, and ``selftest`` runs the built-in oracle suites.
Exit codes: 0 success, 1 input error, 2 I/O error.

A command runs with Python's cyclic garbage collector paused: the pipeline
builds no reference cycles, so a collection during a run costs time and
frees nothing, and a test checks that a run leaves the same few cyclic
objects at any size. The library functions leave the collector alone; a
caller of them may pause it the same way.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from pathlib import Path
from typing import Iterator

from .corpus import SYNTHETIC_DOCS, load_corpora, synthetic_corpora
from .errors import InputError
from .metrics import summarize
from .runner import (
    CONFIG_KEYS,
    REPORT_FORMATS,
    ExperimentReport,
    check_formats,
    config_from_mapping,
    emit_report,
    parse_config_file,
    read_records_csv,
    render_tables,
    run_experiment,
)
from .selftest import run_selftest


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treespec",
        description="Tree-based speculative decoding harness with acceptance analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full experiment and write reports")
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="directory with one subdirectory of *.txt files per domain")
    source.add_argument("--synthetic", action="store_true", help="use the bundled synthetic domains")
    run_p.add_argument("--synthetic-docs", type=int,
                       help=f"documents per synthetic domain (default {SYNTHETIC_DOCS}; needs --synthetic)")
    run_p.add_argument("--config", help="flat key = value config file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--formats", default=",".join(REPORT_FORMATS),
                       help="comma-separated subset of csv,json,tables")
    # Flag values stay text so that they parse and fail like config file values.
    for key in CONFIG_KEYS:
        run_p.add_argument("--" + key.replace("_", "-"), help=f"config key {key}")
    run_p.set_defaults(func=_cmd_run)

    an_p = sub.add_parser("analyze", help="re-aggregate an existing record file")
    an_p.add_argument("--records", required=True, help="records.csv produced by run")
    an_p.add_argument("--out", required=True, help="output directory")
    an_p.set_defaults(func=_cmd_analyze)

    tab_p = sub.add_parser("tables", help="render report tables from a record file")
    tab_p.add_argument("--records", required=True)
    tab_p.add_argument("--out", help="write tables here instead of stdout")
    tab_p.set_defaults(func=_cmd_tables)

    st_p = sub.add_parser("selftest", help="run the built-in oracle suites")
    st_p.add_argument("--seed", type=int, default=42)
    st_p.set_defaults(func=_cmd_selftest)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.synthetic_docs is not None and not args.synthetic:
        raise InputError("--synthetic-docs needs --synthetic, not --data")
    values = parse_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in CONFIG_KEYS}
    values.update((key, text) for key, text in flags.items() if text is not None)
    config = config_from_mapping(values)
    formats = [f for f in args.formats.split(",") if f]
    check_formats(formats)

    if args.synthetic:
        n_docs = SYNTHETIC_DOCS if args.synthetic_docs is None else args.synthetic_docs
        corpora = synthetic_corpora(n_docs=n_docs, seed=config.seed)
    else:
        corpora = load_corpora(args.data)

    report = run_experiment(config, corpora)
    written = emit_report(report, args.out, formats)
    print(f"{len(report.records)} records over {len(report.summaries)} domains")
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    records = read_records_csv(args.records)
    summaries = summarize(records)
    metadata = {
        "source": str(args.records),
        "total_records": len(records),
        "domains": {d: {"records": s.node_count} for d, s in sorted(summaries.items())},
    }
    written = emit_report(ExperimentReport(records, summaries, metadata), args.out, ("json", "tables"))
    print(f"analyzed {len(records)} records")
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    records = read_records_csv(args.records)
    text = render_tables(records, summarize(records))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    return 0 if run_selftest(seed=args.seed) else 1


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Disable the cyclic collector, then enable it again only if it was enabled.

    No collection runs on the way out either: the run leaves only the few
    hundred cyclic objects that ``argparse`` and the ``json`` encoder make,
    and a full pass over the heap costs more than freeing them saves.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def main(argv: list[str] | None = None) -> int:
    with _collector_paused():
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
