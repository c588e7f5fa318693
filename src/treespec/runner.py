"""Experiment orchestration and persistence.

The measurement loop per prompt: build one draft tree over the current
context, score it against the target, record one row per node, then commit
the target's greedy bonus token and repeat. Acceptance is recorded
analytically; committed text always follows the target, so the harness
measures speculation quality without changing what gets generated.

A run's records flow as columns: each domain's step memo keeps a distinct
step's rows once, the loop notes which memo entry every step used, and the
columns are gathered in one pass at the end into a RecordTable that is
summarized once and written as CSV and tables.

Record files are CSV with a frozen column order (NodeRecord fields) and all
floats at 17 significant digits, so a run is reproducible byte-for-byte and
re-ingestion is lossless.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, NoReturn, Sequence, get_type_hints

import numpy as np

from .corpus import DomainCorpus, sample_prompts, train_models
from .errors import InputError
from .metrics import (
    FLOAT_FIELDS,
    INT_FIELDS,
    RECORD_FIELDS,
    DomainSummary,
    NodeRecord,
    RecordTable,
    as_table,
    depth_profile,
    position_effects,
    summarize,
)
from .model import LanguageModel, context_suffix
from .tree import TreeParams, build_draft_tree
from .verify import score_tree

REPORT_FORMATS = ("csv", "json", "tables")

# Rows held as text at once while a record file is written or read.
_CSV_CHUNK_ROWS = 8192

# Rendering thresholds for the speedup-regime column: at least one accepted
# token per call is a net win; just under is labelled marginal.
_REGIME_POSITIVE = 1.0
_REGIME_MARGINAL = 0.95


@dataclass(frozen=True)
class GenerationConfig:
    """Run-level settings; the defaults are the reference configuration."""

    tree: TreeParams = field(default_factory=TreeParams)
    max_new_tokens: int = 64
    prompt_truncation: int = 512
    seed: int = 42
    prompts_per_domain: int = 50
    draft_order: int = 2
    target_order: int = 3
    smoothing: float = 0.1
    eos_token: str | None = None

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1 or self.prompt_truncation < 1 or self.prompts_per_domain < 1:
            raise InputError("token caps and prompt counts must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.draft_order < 1 or self.draft_order >= self.target_order:
            raise InputError("need 1 <= draft_order < target_order")
        if not 0 <= self.smoothing < math.inf:
            raise InputError(f"smoothing must be finite and >= 0, got {self.smoothing!r}")

    def flat_dict(self) -> dict[str, str]:
        """Flat key/value view; tree limits are inlined and no eos_token is ''."""
        flat = {}
        for key in CONFIG_KEYS:
            value = getattr(self.tree if key in TREE_KEYS else self, key)
            flat[key] = "" if value is None else str(value)
        return flat

    def config_hash(self) -> str:
        flat = "\n".join(f"{k}={v}" for k, v in sorted(self.flat_dict().items()))
        return hashlib.sha256(flat.encode("utf-8")).hexdigest()


def _field_types(cls: type) -> dict[str, type]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# Every config key and the type its text parses to, in field order: the
# TreeParams limits, then the other GenerationConfig fields. ``str`` is the
# optional eos_token, where '' and 'none' mean no token.
TREE_KEYS = tuple(_field_types(TreeParams))
CONFIG_KEYS: dict[str, type] = {
    key: kind if kind in (int, float) else str
    for key, kind in {**_field_types(TreeParams), **_field_types(GenerationConfig)}.items()
    if kind is not TreeParams
}
_KIND_NAMES = {int: "an integer", float: "a number"}


def config_from_mapping(values: Mapping[str, str]) -> GenerationConfig:
    """Build a config from flat string key/values (config file or CLI merge)."""
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    tree_kwargs: dict[str, object] = {}
    kwargs: dict[str, object] = {}
    for key, raw in values.items():
        kind = CONFIG_KEYS[key]
        if kind is str:
            parsed: object = raw if raw not in ("", "none") else None
        else:
            try:
                parsed = kind(raw)
            except ValueError as exc:
                raise InputError(f"config key {key} expects {_KIND_NAMES[kind]}, got {raw!r}") from exc
        (tree_kwargs if key in TREE_KEYS else kwargs)[key] = parsed
    return GenerationConfig(tree=TreeParams(**tree_kwargs), **kwargs)  # type: ignore[arg-type]


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines, each key at most once; blank lines and # comments are ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise InputError(f"{path}:{lineno}: config key {key} is set twice")
        values[key] = value.strip()
    return values


@dataclass
class ExperimentReport:
    """Records plus their aggregation and run metadata."""

    records: RecordTable
    summaries: dict[str, DomainSummary]
    metadata: dict[str, object]


# One node's memo row: (depth, token, p_draft, p_target, alpha, target_entropy).
Row = tuple[int, int, float, float, float, float]


def generate_step(
    draft: LanguageModel, target: LanguageModel, context: Sequence[int], params: TreeParams
) -> tuple[list[Row], int]:
    """One generation step: build a tree, score it, return its rows + committed token.

    Each tree node gives one ``Row``, in node order. The committed token is
    the target's greedy bonus token; the caller appends it to the context.
    Both depend only on the last max(draft, target) ``context_window``
    tokens of ``context``, so the caller may pass just those.
    """
    tree = build_draft_tree(draft, context, params)
    scores, bonus = score_tree(target, context, tree)
    rows = [
        (node.depth, node.token, node.p_draft, p_target, alpha, entropy)
        for node, (_, p_target, alpha, entropy) in zip(tree.nodes, scores)
    ]
    return rows, bonus


def run_experiment(
    config: GenerationConfig, corpora: Mapping[str, DomainCorpus]
) -> ExperimentReport:
    """Run the full measurement loop over every domain and sampled prompt.

    Per domain: train the (draft, target) pair, sample prompts, then generate
    up to ``max_new_tokens`` steps per prompt. When an end-of-sequence token
    is configured and committed, the prompt halts and the halting step
    contributes no records. Fully deterministic for a fixed config.

    A step's rows and committed token depend only on the last
    max(draft, target) ``context_window`` tokens, so each domain keeps them
    per window and calls ``generate_step`` on that window, and only for a
    window it has not seen. A prompt's tokens are range-checked once, whole;
    each window is checked again inside the step.
    """
    if not corpora:
        raise InputError("need at least one domain corpus")
    if config.eos_token:
        missing = sorted(
            d for d, c in corpora.items() if c.vocabulary.get(config.eos_token) is None
        )
        if missing:
            raise InputError(
                f"eos_token {config.eos_token!r} is not in the vocabulary of domain(s): "
                + ", ".join(missing)
            )
    started = datetime.now(timezone.utc).isoformat()
    domains = sorted(corpora)
    # Every distinct step's rows, once; a memo entry is (first row, row
    # count, committed token).
    rows: list[Row] = []
    # One entry per recorded step: (domain code, prompt_id, step_index,
    # position_bin, first row, row count).
    steps: list[tuple[int, int, int, int, int, int]] = []
    domain_meta: dict[str, dict[str, object]] = {}

    for code, domain in enumerate(domains):
        corpus = corpora[domain]
        draft, target = train_models(
            corpus, config.draft_order, config.target_order, config.smoothing
        )
        prompt_set = sample_prompts(
            corpus, config.prompts_per_domain, config.seed, config.prompt_truncation
        )
        eos_index = corpus.vocabulary.index_of(config.eos_token) if config.eos_token else None
        window = max(draft.context_window, target.context_window)
        memo: dict[tuple[int, ...], tuple[int, int, int]] = {}
        domain_records = 0
        trees = 0
        stopped_prompts = 0
        for prompt_id, prompt in enumerate(prompt_set.prompts):
            draft.check_context(prompt)  # both models share the corpus vocabulary
            context = list(prompt)
            for step_index in range(config.max_new_tokens):
                position_bin = 0 if 2 * step_index < config.max_new_tokens else 1
                key = tuple(context_suffix(context, window))
                entry = memo.get(key)
                if entry is None:
                    step_rows, committed = generate_step(draft, target, key, config.tree)
                    entry = memo[key] = (len(rows), len(step_rows), committed)
                    rows.extend(step_rows)
                first, count, committed = entry
                if eos_index is not None and committed == eos_index:
                    stopped_prompts += 1
                    break
                steps.append((code, prompt_id, step_index, position_bin, first, count))
                domain_records += count
                trees += 1
                context.append(committed)
        domain_meta[domain] = {
            "records": domain_records,
            "trees": trees,
            "prompts": len(prompt_set.prompts),
            "stopped_prompts": stopped_prompts,
            "vocab_size": corpus.vocabulary.size,
        }

    records = _gather(domains, rows, steps)
    metadata: dict[str, object] = {
        "config": config.flat_dict(),
        "config_hash": config.config_hash(),
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "total_records": len(records),
        "domains": domain_meta,
    }
    return ExperimentReport(records=records, summaries=summarize(records), metadata=metadata)


def _gather(
    domains: Sequence[str],
    rows: Sequence[Row],
    steps: Sequence[tuple[int, int, int, int, int, int]],
) -> RecordTable:
    """Record columns: each step's memo rows, in step order, beside its own fields."""
    step_cols = np.array(steps, dtype=np.int64).reshape(-1, 6).T
    codes, prompt_ids, step_indices, bins, firsts, counts = step_cols
    # Row i of the table is row (first + offset) of its step's memo entry.
    step_starts = np.cumsum(counts) - counts
    index = np.arange(int(counts.sum())) + np.repeat(firsts - step_starts, counts)
    depths, tokens = np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2).T
    floats = np.array([r[2:] for r in rows], dtype=np.float64).reshape(-1, 4).T
    return RecordTable(
        domains,
        np.repeat(codes, counts),
        prompt_id=np.repeat(prompt_ids, counts),
        step_index=np.repeat(step_indices, counts),
        depth=depths[index],
        position_bin=np.repeat(bins, counts),
        token=tokens[index],
        **{name: column[index] for name, column in zip(FLOAT_FIELDS, floats)},
    )


# --- persistence -------------------------------------------------------------


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it inside a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def _cell_text(values: np.ndarray) -> list[str]:
    """CSV text of a slice of an int or float column, each distinct value formatted once.

    Floats are told apart by bit pattern, so -0.0 and each NaN keep their
    own text; each is written as ``format(x, ".17g")``.
    """
    if values.dtype == np.float64:
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        text = [format(x, ".17g") for x in bits.view(np.float64).tolist()]
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        text = [str(v) for v in distinct.tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def write_records_csv(records: RecordTable | Sequence[NodeRecord], path: str | Path) -> None:
    """Frozen column order, floats at 17 significant digits, \\n line ends.

    Rows are formatted and written ``_CSV_CHUNK_ROWS`` at a time.
    """
    table = as_table(records)
    names = np.array([_csv_field(d) for d in table.domains], dtype=object)
    columns = [getattr(table, name) for name in RECORD_FIELDS[1:]]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(RECORD_FIELDS) + "\n")
        for lo in range(0, len(table), _CSV_CHUNK_ROWS):
            rows = slice(lo, lo + _CSV_CHUNK_ROWS)
            cells = [names[table.domain_code[rows]].tolist()]
            cells += [_cell_text(column[rows]) for column in columns]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_records_csv(path: str | Path) -> RecordTable:
    """Re-ingest a record file, re-checking each row's self-consistency.

    Rows are parsed ``_CSV_CHUNK_ROWS`` at a time into columns, each distinct
    field text once. The first bad row is reported as ``path:line`` with the
    message ``int``, ``float`` or ``NodeRecord.validate`` gives.
    """
    domains: dict[str, int] = {}
    chunks: list[RecordTable] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != RECORD_FIELDS:
                raise InputError(f"{path} is not a record file (unexpected header)")
            while rows := list(itertools.islice(reader, _CSV_CHUNK_ROWS)):
                table = _parse_rows(rows, domains)
                if table is None:
                    _raise_first_bad_row(path)
                chunks.append(table)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    if not chunks:
        return RecordTable.from_records(())
    return RecordTable(
        domains,
        np.concatenate([c.domain_code for c in chunks]),
        **{name: np.concatenate([getattr(c, name) for c in chunks]) for name in RECORD_FIELDS[1:]},
    )


def _parse_rows(rows: list[list[str]], domains: dict[str, int]) -> RecordTable | None:
    """Columns of raw CSV rows, or None if any row is bad.

    Domains are numbered into ``domains`` as they are met.
    """
    if set(map(len, rows)) != {len(RECORD_FIELDS)}:
        return None
    domain, *raw = zip(*rows)
    try:
        columns = {
            name: _parse_column(texts, int if name in INT_FIELDS else float)
            for name, texts in zip(RECORD_FIELDS[1:], raw)
        }
    except (ValueError, OverflowError):
        return None
    codes = _parse_column(domain, lambda name: domains.setdefault(name, len(domains)))
    table = RecordTable(domains, codes, **columns)
    if table.invalid_rows().any():
        return None
    return table


def _parse_column(texts: Sequence[str], parse) -> np.ndarray:
    """``parse`` applied to each distinct text once, in order of first appearance."""
    values = {text: parse(text) for text in dict.fromkeys(texts)}
    dtype = np.float64 if parse is float else np.int64
    return np.fromiter(map(values.__getitem__, texts), dtype, len(texts))


def _raise_first_bad_row(path: str | Path) -> NoReturn:
    """Re-read ``path`` row by row and raise InputError at the first bad row."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(RECORD_FIELDS):
                raise InputError(f"{where}: malformed row {row!r}")
            try:
                ints = [int(v) for v in row[1:1 + len(INT_FIELDS)]]
                rec = NodeRecord(row[0], *ints, *(float(v) for v in row[1 + len(INT_FIELDS):]))
                if any(not -(2**63) <= v < 2**63 for v in ints):
                    raise InputError("integer field outside the int64 range")
                rec.validate()
            except ValueError as exc:  # InputError is one too
                raise InputError(f"{where}: {exc}") from exc
    raise InputError(f"{path}: unreadable record rows")


def _summary_to_jsonable(summary: DomainSummary) -> dict[str, object]:
    rho = summary.spearman_rho
    return {
        "node_count": summary.node_count,
        "mean_alpha": summary.mean_alpha,
        "std_alpha": summary.std_alpha,
        "mean_entropy": summary.mean_entropy,
        "per_depth_alpha": {str(d): v for d, v in summary.per_depth_alpha.items()},
        "chain_prob": {str(d): v for d, v in summary.chain_prob.items()},
        "expected_len": summary.expected_len,
        "spearman_rho": None if math.isnan(rho) else rho,
    }


def write_summary_json(summaries: Mapping[str, DomainSummary], path: str | Path) -> None:
    """JSON object keyed by domain; an undefined correlation serializes as null."""
    payload = {domain: _summary_to_jsonable(s) for domain, s in sorted(summaries.items())}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --- plain-text tables -------------------------------------------------------


def _regime(expected_len: float) -> str:
    if expected_len >= _REGIME_POSITIVE:
        return "positive"
    if expected_len >= _REGIME_MARGINAL:
        return "marginal"
    return "negative"


def _rho_str(rho: float) -> str:
    return "n/a" if math.isnan(rho) else f"{rho:+.3f}"


def render_tables(
    records: RecordTable | Sequence[NodeRecord], summaries: Mapping[str, DomainSummary]
) -> str:
    """Six plain-text report tables over a record set and its summaries.

    ``summaries`` must be ``summarize(records)``; only headers are written
    when there are no records.
    """
    records = as_table(records)
    domains = sorted(summaries)
    all_depths = sorted({d for s in summaries.values() for d in s.per_depth_alpha})
    out: list[str] = []

    out.append("== Per-domain node statistics ==")
    out.append(f"{'domain':<12}{'nodes':>8}  {'mean_alpha':>10}  {'std_alpha':>9}  {'mean_entropy':>12}")
    for domain in domains:
        s = summaries[domain]
        out.append(
            f"{domain:<12}{s.node_count:>8}  {s.mean_alpha:>10.4f}  {s.std_alpha:>9.4f}  {s.mean_entropy:>12.4f}"
        )
    if records:
        alphas, entropies = records.alpha, records.target_entropy
        out.append(
            f"{'all':<12}{len(records):>8}  {alphas.mean():>10.4f}  {alphas.std():>9.4f}  {entropies.mean():>12.4f}"
        )
    out.append("")

    out.append("== Expected accepted length ==")
    out.append(f"{'domain':<12}{'E[L]':>7}  regime")
    for domain in domains:
        s = summaries[domain]
        out.append(f"{domain:<12}{s.expected_len:>7.3f}  {_regime(s.expected_len)}")
    out.append("")

    out.append("== Fully accepted chain probability by depth ==")
    out.append(f"{'domain':<12}" + "".join(f"{'d=' + str(d):>8}" for d in all_depths))
    for domain in domains:
        s = summaries[domain]
        cells = "".join(
            f"{s.chain_prob[d]:>8.3f}" if d in s.chain_prob else f"{'-':>8}" for d in all_depths
        )
        out.append(f"{domain:<12}{cells}")
    out.append("")

    out.append("== Mean acceptance by tree depth ==")
    profile = depth_profile(records) if records else None
    out.append(f"{'domain':<12}" + "".join(f"{'d=' + str(d):>8}" for d in all_depths) + f"{'delta':>8}")
    if profile is not None:
        for domain in domains:
            cells = "".join(
                f"{profile.cells[(domain, d)]:>8.3f}" if (domain, d) in profile.cells else f"{'-':>8}"
                for d in all_depths
            )
            out.append(f"{domain:<12}{cells}{profile.delta[domain]:>+8.3f}")
    out.append("")

    out.append("== Mean acceptance by depth and position bin ==")
    out.append(f"{'depth':<8}{'early':>8}{'late':>8}{'delta':>8}")
    if records:
        effects = position_effects(records)
        for depth in sorted({d for d, _ in effects.cells}):
            early = effects.cells.get((depth, 0))
            late = effects.cells.get((depth, 1))
            early_s = f"{early:>8.3f}" if early is not None else f"{'-':>8}"
            late_s = f"{late:>8.3f}" if late is not None else f"{'-':>8}"
            delta_s = f"{effects.delta[depth]:>+8.3f}" if depth in effects.delta else f"{'-':>8}"
            out.append(f"{depth:<8}{early_s}{late_s}{delta_s}")
    out.append("")

    out.append("== Entropy-acceptance rank correlation ==")
    out.append(f"{'domain':<12}{'rho':>8}")
    for domain in domains:
        out.append(f"{domain:<12}{_rho_str(summaries[domain].spearman_rho):>8}")
    out.append("")

    return "\n".join(out)


def check_formats(formats: Sequence[str]) -> None:
    """Reject an empty ``formats`` or any name in it that is not one of ``REPORT_FORMATS``."""
    if not formats:
        raise InputError(f"no report formats given; choose from {','.join(REPORT_FORMATS)}")
    unknown = set(formats) - set(REPORT_FORMATS)
    if unknown:
        raise InputError(f"unknown report formats: {sorted(unknown)}")


def emit_report(
    report: ExperimentReport,
    out_dir: str | Path,
    formats: Sequence[str] = REPORT_FORMATS,
) -> dict[str, Path]:
    """Write the requested artifacts into ``out_dir``; returns written paths."""
    check_formats(formats)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    if "csv" in formats:
        path = out / "records.csv"
        write_records_csv(report.records, path)
        written["csv"] = path
    if "json" in formats:
        path = out / "summary.json"
        write_summary_json(report.summaries, path)
        written["json"] = path
        meta_path = out / "meta.json"
        meta_path.write_text(
            json.dumps(report.metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        written["meta"] = meta_path
    if "tables" in formats:
        path = out / "tables.txt"
        path.write_text(render_tables(report.records, report.summaries), encoding="utf-8")
        written["tables"] = path
    return written
