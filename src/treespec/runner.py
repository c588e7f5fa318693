"""Experiment orchestration and persistence.

The measurement loop per prompt: build one draft tree over the current
context, score it against the target, record one row per node, then commit
the target's greedy token and repeat. Acceptance is recorded analytically;
committed text always follows the target, so the harness measures
speculation quality without changing what gets generated, and no tree
changes a prompt's windows. So each domain's steps run in two phases: the
greedy trajectory first, wave by wave over the prompts in lockstep, then
one batch that grows and scores the trees of every distinct window the
trajectory met.

A run's records are kept as steps over distinct trees: each domain's step
memo keeps a distinct window's rows once, the loop notes which memo entry
every step used, and at the end the steps and memo rows become a
RecordTable, in which memo entries with equal rows are one tree. It is
summarized once and written as CSV and tables, and the CSV is written from
the steps and trees, each tree's text built once.

Record files are CSV with a frozen column order (``RECORD_FIELDS``), one
record per line and all floats at 17 significant digits, so a run is
reproducible byte-for-byte and re-ingestion is lossless. Reading one finds
the same steps and trees from the lines alone: a step's lines share their
``domain,prompt_id,step_index,`` prefix, so the reader splits each prefix
once and parses each distinct line tail once per file, chunk by chunk. After
the last chunk it finds and numbers the steps, each a sequence of tails, in
one pass, and builds the table with ``RecordTable.from_steps``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import reprlib
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .corpus import DomainCorpus, sample_prompts, train_models
from .errors import InputError
from .metrics import (
    FLOAT_FIELDS,
    INT_FIELDS,
    RECORD_FIELDS,
    RECORD_TYPES,
    STEP_FIELDS,
    TREE_FIELDS,
    DomainSummary,
    RecordTable,
    _array,
    _number_blocks,
    _step_starts,
    check_domain_names,
    depth_profile,
    position_effects,
    summarize,
)
from .model import LanguageModel, _check_ints, _check_smoothing, _ranges
from .tree import TreeParams, grow_trees
from .verify import score_trees

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
        if not isinstance(self.tree, TreeParams):
            raise InputError(f"tree must be a TreeParams, got {type(self.tree).__name__}")
        if not isinstance(self.eos_token, (str, type(None))):
            raise InputError(f"eos_token must be a str or None, got {type(self.eos_token).__name__}")
        _check_ints(1, max_new_tokens=self.max_new_tokens, prompt_truncation=self.prompt_truncation,
                    prompts_per_domain=self.prompts_per_domain, draft_order=self.draft_order)
        _check_ints(0, seed=self.seed)
        _check_ints(self.draft_order + 1, target_order=self.target_order)
        object.__setattr__(self, "smoothing", _check_smoothing(self.smoothing))

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


# The most windows one speculation batch grows and scores together, which
# bounds the trees and scores held at once.
_SPECULATION_BATCH = 4096


def generate_step(
    draft: LanguageModel, target: LanguageModel, prompts: Sequence[tuple[int, ...]],
    params: TreeParams, max_new_tokens: int, eos_index: int | None = None,
) -> tuple[dict[str, np.ndarray], list[int], dict[str, np.ndarray], dict[str, int]]:
    """Every step of one domain's prompts: the greedy trajectory, then each window's tree.

    A step's tree and committed token depend only on its window, the last
    max(draft, target, 1) ``context_window`` tokens of its context, and the
    committed token, the top candidate of the target's row at the window,
    not on the tree. So the trajectory runs first, in lockstep: wave w is
    step w of every prompt still live, and one bare-window
    ``target.next_token_dists`` call per wave gives the windows not seen
    before their tokens. A prompt leaves when it commits ``eos_index`` (that
    step is not recorded) or after ``max_new_tokens`` steps; every other new
    window becomes the next memo entry. Then the entries' windows are
    speculated, up to ``_SPECULATION_BATCH`` at a time: ``grow_trees`` grows
    one tree on each distinct row of ``draft.windows`` (a draft that reads
    no token grows one, on the first window), ``DraftTrees.take`` gathers
    each window's tree and ``score_trees`` scores them. Each node gives one
    row: its ``depth``, ``token`` and ``p_draft`` columns and its scores.

    Returns the steps (``prompt_id``, ``step_index`` and ``tree``, the memo
    entry) prompt by prompt, the rows per entry, the row columns and the
    counts ``stopped_prompts``, ``speculated_windows`` and ``grown_trees``.
    """
    suffix = slice(-max(draft.context_window, target.context_window, 1), None)
    memo: dict[tuple[int, ...], tuple[int, int] | None] = {}  # window -> (entry, token) or None
    seen: list[tuple[int, ...]] = []  # every entry's window, in entry order
    contexts = [list(prompt) for prompt in prompts]
    prompt_ids: list[int] = []
    entries: list[int] = []
    per_wave: list[int] = []
    live = list(range(len(contexts)))
    while live and len(per_wave) < max_new_tokens:
        keys = [tuple(contexts[p][suffix]) for p in live]
        new = [key for key in dict.fromkeys(keys) if key not in memo]
        if new:
            which, tops, _ = target.next_token_dists(new).top(1)
            for key, committed in zip(new, tops[which, 0].tolist()):
                memo[key] = None if committed == eos_index else (len(seen), committed)
                if memo[key] is not None:
                    seen.append(key)
        still = []
        for p, key in zip(live, keys):
            if memo[key] is not None:
                entry, committed = memo[key]
                contexts[p].append(committed)
                entries.append(entry)
                still.append(p)
        prompt_ids.extend(still)
        per_wave.append(len(still))
        live = still

    sizes: list[int] = []
    batches: dict[str, list[np.ndarray]] = {name: [] for name in TREE_FIELDS}
    grown = 0
    for start in range(0, len(seen), _SPECULATION_BATCH):
        batch = seen[start:start + _SPECULATION_BATCH]
        cuts, tree_of = np.unique(draft.windows(batch), axis=0, return_inverse=True)
        # A draft that reads no token grows its one tree on the first window.
        trees = grow_trees(draft, cuts if cuts.size else batch[:1], params).take(tree_of)
        grown += len(cuts)
        sizes += np.diff(trees.offsets).tolist()
        for name, column in {"depth": trees.depths, "token": trees.tokens, "p_draft": trees.p_draft,
                             **score_trees(target, batch, trees)}.items():
            batches[name].append(column)
    # Prompt by prompt: a stable sort keeps each prompt's steps in wave order.
    order = np.argsort(np.array(prompt_ids, dtype=np.int64), kind="stable")
    steps = {"prompt_id": np.array(prompt_ids, dtype=np.int64)[order],
             "step_index": np.repeat(np.arange(len(per_wave)), per_wave)[order],
             "tree": np.array(entries, dtype=np.int64)[order]}
    counts = {"stopped_prompts": len(contexts) - len(live), "speculated_windows": len(seen),
              "grown_trees": grown}
    return steps, sizes, {name: np.concatenate([_array(name, ()), *arrays])
                          for name, arrays in batches.items()}, counts


def run_experiment(
    config: GenerationConfig, corpora: Mapping[str, DomainCorpus]
) -> ExperimentReport:
    """Run the full measurement loop over every domain and sampled prompt.

    Per domain: train the (draft, target) pair, sample prompts, then take
    up to ``max_new_tokens`` steps per prompt in one ``generate_step`` call,
    which keys a step memo by window, so the cost follows the distinct
    windows and the steps taken, not ``max_new_tokens``. When an
    end-of-sequence token is configured and committed, the prompt halts and
    the halting step contributes no records. A step's position bin is 1
    when ``2 * step_index >= max_new_tokens``, else 0. Steps are recorded
    prompt by prompt, as a loop over one prompt at a time would record them.
    Prompts are prefixes of the corpus documents, which ``train_models``
    range-checks over the same vocabulary; each window is checked again
    inside the step. Fully deterministic for a fixed config.
    """
    if not corpora:
        raise InputError("need at least one domain corpus")
    check_domain_names(corpora)
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
    sizes: list[int] = []  # rows per memo entry, every domain's entries in turn
    rows: list[dict[str, np.ndarray]] = []  # per domain: its memo rows' columns
    steps: list[dict[str, np.ndarray]] = []  # per domain: its step columns
    domain_meta: dict[str, dict[str, object]] = {}

    for code, domain in enumerate(domains):
        corpus = corpora[domain]
        eos_index = corpus.vocabulary.index_of(config.eos_token) if config.eos_token else None
        # The models and their count columns are let go once the domain's steps
        # are taken, before the next domain's models are fitted.
        domain_steps, domain_sizes, domain_rows, counts = generate_step(
            *train_models(corpus, config.draft_order, config.target_order, config.smoothing),
            sample_prompts(corpus, config.prompts_per_domain, config.seed,
                           config.prompt_truncation),
            config.tree, config.max_new_tokens, eos_index,
        )
        tree = domain_steps["tree"] + len(sizes)
        sizes += domain_sizes
        rows.append(domain_rows)
        steps.append({**domain_steps, "domain_code": np.full(tree.size, code), "tree": tree,
                      "position_bin": (2 * domain_steps["step_index"] >= config.max_new_tokens)
                      .astype(np.int64)})
        domain_meta[domain] = {
            "records": int(np.array(domain_sizes, dtype=np.int64)[domain_steps["tree"]].sum()),
            "trees": tree.size,
            "prompts": config.prompts_per_domain,
            "vocab_size": corpus.vocabulary.size,
            **counts,
        }

    records = RecordTable.from_steps(
        domains, {name: np.concatenate([s[name] for s in steps]) for name in STEP_FIELDS},
        np.cumsum([0, *sizes]), {name: np.concatenate([r[name] for r in rows]) for name in TREE_FIELDS})
    for code, domain in enumerate(domains):
        used = records.steps["tree"][records.steps["domain_code"] == code]
        domain_meta[domain]["distinct_trees"] = int(np.count_nonzero(np.bincount(used)))
    metadata: dict[str, object] = {
        "config": config.flat_dict(),
        "config_hash": config.config_hash(),
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "total_records": len(records),
        "domains": domain_meta,
    }
    return ExperimentReport(records=records, summaries=summarize(records), metadata=metadata)


# --- persistence -------------------------------------------------------------


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it inside a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def _cell_text(values: np.ndarray) -> list[str]:
    """CSV text of each value of an int or float column, each distinct value formatted once.

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


def write_records_csv(table: RecordTable, path: str | Path) -> None:
    """Frozen column order, floats at 17 significant digits, \\n line ends.

    Written from the table's steps and trees: each distinct value of a tree
    column is formatted once, the tails ``depth,position_bin,token,...`` of
    a tree's rows once per position bin it is written with, and each step's
    ``domain,prompt_id,step_index,`` prefix once; a step's lines are its
    prefix before each tail. Steps are written about ``_CSV_CHUNK_ROWS``
    rows at a time.
    """
    names = [_csv_field(d) for d in table.domains]
    trees = table.trees
    depths = _cell_text(trees["depth"])
    rests = list(map(",".join, zip(*(_cell_text(trees[name]) for name in TREE_FIELDS[1:]))))
    bounds = table.tree_offsets.tolist()
    tails: dict[tuple[int, int], list[str]] = {}
    lines: list[str] = []
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(RECORD_FIELDS) + "\n")
        for code, prompt_id, step_index, position_bin, tree in zip(
            *(table.steps[name].tolist() for name in STEP_FIELDS)
        ):
            block = tails.get((tree, position_bin))
            if block is None:
                lo, hi = bounds[tree], bounds[tree + 1]
                block = tails[tree, position_bin] = [
                    f"{depth},{position_bin},{rest}"
                    for depth, rest in zip(depths[lo:hi], rests[lo:hi])
                ]
            prefix = f"{names[code]},{prompt_id},{step_index},"
            lines.append(prefix + ("\n" + prefix).join(block))
            rows += len(block)
            if rows >= _CSV_CHUNK_ROWS:
                handle.write("\n".join(lines) + "\n")
                lines, rows = [], 0
        if lines:
            handle.write("\n".join(lines) + "\n")


def read_records_csv(path: str | Path) -> RecordTable:
    """Re-ingest a record file, re-checking each record against ``_RULES``.

    The file is read once, with ``errors="surrogateescape"``, so a byte that
    is not UTF-8 reaches the reader as a lone surrogate. A first line that is
    not the header makes the file ``not a record file`` (or line 1 not UTF-8
    text) whatever the later lines hold. The writer puts one record on each
    line, and its numeric fields never hold a comma or a quote, so a line's
    fields are what splitting it at its last ``len(RECORD_FIELDS) - 1``
    commas gives; only the domain field may be quoted. It writes a step as
    lines that share the prefix ``domain,prompt_id,step_index,`` before the
    tails of its tree's rows, so lines are read as prefixes over distinct
    tails, ``_CSV_CHUNK_ROWS`` at a time (see ``_RecordReader``): each run of
    lines with one prefix has its prefix parsed once, and each distinct tail
    is parsed and checked once. After the last chunk the steps are found and
    numbered in one pass, each kept as the sequence of its lines' tails, and
    the table is built from them with ``RecordTable.from_steps``, which makes
    tails that parse to equal rows one tree. A chunk the reader finds a fault
    in has its lines checked one at a time by ``_line_fault``, and the first
    bad line is reported as ``path:line`` with its first fault; if none has
    one, the reader's own error is raised again.
    """
    reader = _RecordReader()
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        header = handle.readline()
        if header.rstrip("\r\n") != ",".join(RECORD_FIELDS):
            fault = _not_utf8(header)
            raise InputError(f"{path}:1: {fault}" if fault
                             else f"{path} is not a record file (unexpected header)")
        first_line = 2  # of the chunk being read
        while lines := list(itertools.islice(handle, _CSV_CHUNK_ROWS)):
            try:
                reader.read(lines, first_line)
            except (ValueError, OverflowError):
                for number, line in enumerate(lines, first_line):
                    if fault := _line_fault(line):
                        raise InputError(f"{path}:{number}: {fault}") from None
                raise
            first_line += len(lines)
    return reader.table()


def _not_utf8(line: str) -> str:
    """Why ``line``, read with surrogateescape, is not UTF-8 (``not UTF-8 text: <reason>``), or ''."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"not UTF-8 text: {exc.reason}"
    return ""


def _line_fault(line: str) -> str:
    """The first fault of the record line ``line``, read with surrogateescape, or '' if it has none.

    The line is checked for, in this order: a byte that is not UTF-8; a
    field count other than ``len(RECORD_FIELDS)`` once it is split at its
    last commas; an int or float field whose text does not parse, in column
    order; a domain not quoted as the writer quotes it; an int outside
    int64; and the first of ``_RULES`` it breaks: a float not finite,
    step_index < 0 or depth < 1, position_bin not 0 or 1, alpha outside
    [0, 1] or a negative entropy, p_draft <= 0, p_draft > 1, p_target > 1,
    then alpha != min(1, p_target / p_draft).
    """
    if fault := _not_utf8(line):
        return fault
    fields = line.rsplit(",", len(RECORD_FIELDS) - 1)
    if len(fields) != len(RECORD_FIELDS):
        return f"malformed row of {len(fields)} fields, not {len(RECORD_FIELDS)}"
    try:
        values = {name: RECORD_TYPES[name](text) for name, text in zip(RECORD_FIELDS[1:], fields[1:])}
        _domain_name(fields[0])
    except ValueError as exc:
        return str(exc)
    if not all(-(2**63) <= values[name] < 2**63 for name in INT_FIELDS):
        return "integer field outside the int64 range"
    code = _rule_codes({name: _array(name, [value]) for name, value in values.items()})[0]
    if not code:
        return ""
    name, message = _RULES[code - 1]
    return message.format(values[name])


# A record line's fields: its prefix ``domain,prompt_id,step_index,`` and
# its tail, the rest. The domain is everything before the line's last
# ``len(RECORD_FIELDS) - 1`` commas, so the tail holds
# ``len(_TAIL_FIELDS) - 1``; its last field keeps the line end, which int
# and float ignore.
_PREFIX_FIELDS, _TAIL_FIELDS = RECORD_FIELDS[:3], RECORD_FIELDS[3:]

# The rules every record keeps, in check order; a record's rule code is the
# 1-based index of the first it breaks. Each gives the column whose value
# its message shows as ``{}``. Only the step rule reads a prefix field.
_RULES = (
    *((name, f"{name} must be finite, got {{!r}}") for name in FLOAT_FIELDS),
    ("step_index", "step_index must be >= 0 and depth >= 1"),
    ("position_bin", "position_bin must be 0 or 1, got {}"),
    ("alpha", "alpha outside [0, 1] or negative entropy"),
    ("p_draft", "p_draft must be positive for a proposed token"),
    ("p_draft", "p_draft must be at most 1, got {}"),
    ("p_target", "p_target must be at most 1, got {}"),
    ("alpha", "alpha inconsistent with stored p_target / p_draft"),
)


def _rule_codes(rows: Mapping[str, np.ndarray]) -> np.ndarray:
    """Each row's rule code: the first of ``_RULES`` it breaks, or 0 if it keeps them all.

    ``rows`` maps every tail field and may map ``step_index``: a row breaks
    the step rule when its depth is below 1 or its step_index is negative.
    """
    p_draft, p_target, alpha = rows["p_draft"], rows["p_target"], rows["alpha"]
    bins = rows["position_bin"]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        masks = [
            *(~np.isfinite(rows[name]) for name in FLOAT_FIELDS),
            (rows["depth"] < 1) | (rows.get("step_index", 0) < 0),
            (bins != 0) & (bins != 1),
            ~((alpha >= 0.0) & (alpha <= 1.0)) | (rows["target_entropy"] < 0.0),
            ~(p_draft > 0.0),
            p_draft > 1.0,
            p_target > 1.0,
            # A row that reaches this rule has finite values and p_draft > 0,
            # where np.minimum agrees with the scalar min(1.0, ratio).
            np.abs(alpha - np.minimum(p_target / p_draft, 1.0)) > 1e-9,
        ]
    # Only the rows that break a rule are ranked: a reduction across the
    # stacked masks costs more than the masks themselves.
    bad = np.flatnonzero(functools.reduce(np.logical_or, masks))
    codes = np.zeros(len(p_draft), dtype=np.int64)
    codes[bad] = np.argmax([mask[bad] for mask in masks], axis=0) + 1
    return codes


def _domain_name(text: str) -> str:
    """The domain a record line's first field names, if ``_csv_field`` writes it so."""
    name = text[1:-1].replace('""', '"') if text.startswith('"') else text
    if _csv_field(name) != text:
        raise ValueError(f"domain field {reprlib.repr(text)} is not quoted as the writer quotes it")
    return name


class _RecordReader:
    """The steps and trees of a record file, read one chunk of lines at a time.

    Each line is split at its last ``len(RECORD_FIELDS) - 1`` commas into a
    prefix and a tail. A run of lines with one prefix text has its prefix
    fields parsed once, and each distinct tail text is parsed and checked
    once while the reader knows it. Its dict of tail texts is emptied after
    a chunk once it holds more than half a chunk of them: a file whose steps
    repeat a few trees has each tail parsed once, and one of mostly distinct
    tails keeps few texts. Across chunks it keeps only the domain numbering,
    that dict, and what each chunk appends: its parsed new tails, each one's
    first line number, each line's tail (the first line number of its text),
    and each run's first line number and prefix fields. ``table`` then finds
    and numbers every step at once.
    """

    def __init__(self) -> None:
        self.domains: dict[str, int] = {}  # numbered as met
        self.known: dict[str, int] = {}  # tail text -> the number of the first line that held it
        empty = np.zeros(0, dtype=np.int64)
        self.tails = [{name: _array(name, ()) for name in _TAIL_FIELDS}]  # per chunk: its new tails, parsed
        self.firsts = [empty]  # per chunk: the first line number of each new tail
        self.line_tails = [empty]  # per chunk: the first line number of each line's text
        self.runs = [empty]  # per chunk: the line number of each run's first line
        self.heads = [empty.reshape(len(_PREFIX_FIELDS), 0)]  # per chunk: each run's prefix fields

    def read(self, lines: list[str], first_line: int) -> None:
        """Take the record lines ``lines``, the first of them line ``first_line`` of the file.

        A line that does not start with the previous line's prefix is split
        at its last ``len(RECORD_FIELDS) - 1`` commas, which gives it a
        prefix; any other line keeps the previous one. Either way the rest of
        the line is its tail. Every new tail is checked to hold
        ``len(_TAIL_FIELDS) - 1`` commas, so the prefix's fields and the
        tail's are the fields ``rsplit`` would give: a prefix's
        ``prompt_id`` and ``step_index`` hold no comma.

        Raises ValueError or OverflowError, leaving the reader unusable, if
        any line has a fault that ``_line_fault`` names.
        """
        heads: list[str] = []  # each run's prefix fields, in turn
        runs: list[int] = []  # the index of each run's first line
        line_tails: list[str] = []
        prefix, cut = "\n\n", 0  # no line starts with two line breaks, so the first line is split
        for line in lines:
            if not line.startswith(prefix):
                fields = line.rsplit(",", len(RECORD_FIELDS) - 1)
                if len(fields) != len(RECORD_FIELDS):
                    raise ValueError("a line of another field count")
                runs.append(len(line_tails))
                heads += fields[:len(_PREFIX_FIELDS)]
                prefix = ",".join(fields[:len(_PREFIX_FIELDS)]) + ","
                cut = len(prefix)
            line_tails.append(line[cut:])
        n = len(line_tails)

        # A line's tail id is the number of the first line that held its text.
        line_ids = np.fromiter(map(self.known.setdefault, line_tails, itertools.count(first_line)),
                               np.int64, n)
        new = np.flatnonzero(line_ids == np.arange(first_line, first_line + n))  # first lines of new tails
        texts = list(map(line_tails.__getitem__, new.tolist()))
        cells = ",".join(texts).split(",") if texts else []
        # Only a tail's last field ends with a line end (the file's last line
        # may have none), so each tail holds ``len(_TAIL_FIELDS) - 1`` commas
        # when every cell that falls where a tail's last field should, the
        # file's last aside, ends with one.
        if len(cells) != len(_TAIL_FIELDS) * len(texts) or not all(
                map(str.endswith, cells[len(_TAIL_FIELDS) - 1:-1:len(_TAIL_FIELDS)], itertools.repeat(("\n", "\r")))):
            raise ValueError("a new tail of another field count")
        # Every byte of a line lies in its run's prefix or in its tail, so
        # encoding the new prefixes and tails checks every byte not checked
        # before; a lone surrogate fails it.
        "".join(itertools.chain(heads, texts)).encode("utf-8")
        tails = {name: _parse_column(cells[i::len(_TAIL_FIELDS)], RECORD_TYPES[name])
                 for i, name in enumerate(_TAIL_FIELDS)}
        domain, prompt_id, step_index = (_parse_column(heads[i::len(_PREFIX_FIELDS)], parse)
                                         for i, parse in enumerate([self._domain_code, int, int]))
        if _rule_codes(tails).any() or (step_index < 0).any():
            raise ValueError("a record breaks a rule")

        if len(self.known) > _CSV_CHUNK_ROWS // 2:
            self.known.clear()  # so a file of mostly distinct tails keeps few texts
        self.tails.append(tails)
        self.firsts.append(new + first_line)
        self.line_tails.append(line_ids)
        self.runs.append(np.array(runs, dtype=np.int64) + first_line)
        self.heads.append(np.stack([domain, prompt_id, step_index]))

    def _domain_code(self, text: str) -> int:
        return self.domains.setdefault(_domain_name(text), len(self.domains))

    def table(self) -> RecordTable:
        """The table of the lines read, once the last chunk is read; called once.

        A step starts at a run whose prefix fields differ from the run
        before's, or at a line whose position bin differs from the line
        before's. It is kept as the sequence of its lines' tails, and steps
        with equal sequences share one candidate tree.
        """
        firsts = np.concatenate(self.firsts)
        # Each line's tail as an index into the parsed tails; the per-chunk
        # ids are let go at once, which lowers the read's peak memory.
        ids = np.searchsorted(firsts, np.concatenate(self.line_tails))
        self.line_tails.clear()
        tails = {name: np.concatenate([chunk[name] for chunk in self.tails]) for name in _TAIL_FIELDS}
        bins = tails["position_bin"]
        # A run's index among the lines; the file's first line holds a new tail.
        runs = np.concatenate(self.runs) - firsts[:1]
        heads = np.concatenate(self.heads, axis=1)
        starts = np.zeros(ids.size, dtype=bool)
        starts[runs] = _step_starts(heads)
        starts[1:] |= bins[ids[1:]] != bins[ids[:-1]]
        cuts = np.flatnonzero(starts)
        steps = dict(zip(STEP_FIELDS, heads[:, np.searchsorted(runs, cuts, side="right") - 1]))
        steps["position_bin"] = bins[ids[cuts]]
        bounds = np.append(cuts, ids.size)
        steps["tree"], first = _number_blocks(ids.tobytes(), ids.itemsize, bounds)
        lo, hi = bounds[first], bounds[first + 1]
        rows = ids[_ranges(lo, hi)]
        trees = {name: tails[name][rows] for name in TREE_FIELDS}
        return RecordTable.from_steps(tuple(self.domains), steps, np.append(0, np.cumsum(hi - lo)), trees)


def _parse_column(texts: list[str], parse) -> np.ndarray:
    """``parse`` applied to each distinct text once, as int64, or float64 when ``parse`` is float."""
    distinct = dict.fromkeys(texts)
    values = dict(zip(distinct, map(parse, distinct)))
    return np.fromiter(map(values.__getitem__, texts), np.float64 if parse is float else np.int64, len(texts))


def _summary_to_jsonable(summary: DomainSummary) -> dict[str, object]:
    """``summary``'s fields (``asdict``), each per-depth key as text and a NaN rho as None."""
    jsonable = {name: {str(d): v for d, v in value.items()} if isinstance(value, dict) else value
                for name, value in asdict(summary).items()}
    if math.isnan(summary.spearman_rho):
        jsonable["spearman_rho"] = None
    return jsonable


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


def _cell(value: float | None, sign: str = "") -> str:
    """An 8-wide table cell: ``value`` to 3 places, signed when ``sign`` is "+", or '-' for None."""
    return f"{'-':>8}" if value is None else f"{value:>{sign}8.3f}"


def render_tables(records: RecordTable, summaries: Mapping[str, DomainSummary]) -> str:
    """Six plain-text report tables over a record set and its summaries.

    ``summaries`` must be ``summarize(records)``; only headers are written
    when there are no records.
    """
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
        cells = "".join(_cell(summaries[domain].chain_prob.get(d)) for d in all_depths)
        out.append(f"{domain:<12}{cells}")
    out.append("")

    out.append("== Mean acceptance by tree depth ==")
    profile = depth_profile(summaries)
    out.append(f"{'domain':<12}" + "".join(f"{'d=' + str(d):>8}" for d in all_depths) + f"{'delta':>8}")
    for domain in domains:
        cells = "".join(_cell(profile.cells.get((domain, d))) for d in all_depths)
        out.append(f"{domain:<12}{cells}{_cell(profile.delta[domain], '+')}")
    out.append("")

    out.append("== Mean acceptance by depth and position bin ==")
    out.append(f"{'depth':<8}{'early':>8}{'late':>8}{'delta':>8}")
    if records:
        effects = position_effects(records)
        for depth in sorted({d for d, _ in effects.cells}):
            early, late = _cell(effects.cells.get((depth, 0))), _cell(effects.cells.get((depth, 1)))
            out.append(f"{depth:<8}{early}{late}{_cell(effects.delta.get(depth), '+')}")
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
