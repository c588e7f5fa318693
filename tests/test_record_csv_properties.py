"""Seeded property tests: ``read_records_csv`` against a row-by-row csv.reader oracle.

The oracle reads a record file with ``csv.reader`` and checks each row
against ``first_broken_rule``, its own scalar copy of the record rules, one
row at a time. Random tables, with -0.0, subnormals, 1e-300 and domain
names holding commas, quotes, spaces and non-ASCII text, must survive
``write_records_csv`` -> ``read_records_csv`` bit for bit, come back with
the same steps and trees, and be written again to the same bytes. Each
corrupted file (one line of a valid file changed) must give the oracle's
table or be rejected at the oracle's line, where a multi-line row counts
from its first line.

The reader reads each line's fields as splitting it at its last nine
commas gives them, so it rejects two kinds of text the writer never writes
and csv.reader reads: ``QUOTED_NUMBER`` (a numeric field in quotes) and
``LINE_BREAK_DOMAIN`` (a quoted domain holding a line break, which the
reader sees as a cut-short line). On those it must name the corrupted line.
Named files (``PREFIX_CASES``) check the reader's split of a line into the
previous line's prefix and a tail, at several chunk sizes.
"""

import csv
import math
import re

import numpy as np
import pytest

from conftest import Row, column_table, record_table, table_rows
from treespec import (
    GenerationConfig,
    InputError,
    read_records_csv,
    run_experiment,
    synthetic_corpora,
    write_records_csv,
)
from treespec import runner
from treespec.metrics import (
    FLOAT_FIELDS, INT_FIELDS, RECORD_FIELDS, STEP_FIELDS, TREE_FIELDS,
)

CASES = 150
QUOTED_NUMBER = "quoted number"
LINE_BREAK_DOMAIN = "line break in a quoted domain"
KINDS = (
    "field dropped", "field added", "unbalanced quote in the domain",
    "unquoted comma in the domain", "non-finite float", "alpha mismatch",
    "int beyond int64", "blank line", "CRLF line ends", "no final newline",
    QUOTED_NUMBER, LINE_BREAK_DOMAIN,
)
NAME_PARTS = ["chat", "a", ",", '"', " ", "é", "数学", "x y", ""]
# -0.0, the smallest subnormal, a larger subnormal, tiny, a 17-digit value, exact values.
FLOATS = [-0.0, 0.0, 5e-324, 1.5e-310, 1e-300, 0.1 + 0.2, 0.25, 0.5, 1.0, 3.0, 1e300]
WIDTH = len(RECORD_FIELDS)


def first_broken_rule(r):
    """The message of the first record rule the Row ``r`` breaks, or None if it keeps them all."""
    for name in FLOAT_FIELDS:
        if not math.isfinite(getattr(r, name)):
            return f"{name} must be finite, got {getattr(r, name)!r}"
    if r.step_index < 0 or r.depth < 1:
        return "step_index must be >= 0 and depth >= 1"
    if r.position_bin not in (0, 1):
        return f"position_bin must be 0 or 1, got {r.position_bin}"
    if not 0.0 <= r.alpha <= 1.0 or r.target_entropy < 0.0:
        return "alpha outside [0, 1] or negative entropy"
    if r.p_draft <= 0.0:
        return "p_draft must be positive for a proposed token"
    if abs(r.alpha - min(1.0, r.p_target / r.p_draft)) > 1e-9:
        return "alpha inconsistent with stored p_target / p_draft"
    return None


def oracle_read(path):
    """The file as csv.reader and first_broken_rule read it: its rows, or the bad row's line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        assert next(reader) == list(RECORD_FIELDS)
        records = []
        while True:
            first_line = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                return rows_of(records)
            try:
                if len(row) != WIDTH:
                    raise ValueError("malformed row")
                ints = [int(v) for v in row[1:1 + len(INT_FIELDS)]]
                if any(not -(2**63) <= v < 2**63 for v in ints):
                    raise ValueError("integer field outside the int64 range")
                record = Row(row[0], *ints, *(float(v) for v in row[1 + len(INT_FIELDS):]))
            except ValueError:
                return first_line
            if first_broken_rule(record):
                return first_line
            records.append(record)


def rows_of(records):
    """Each Row as a tuple, floats as hex text so that -0.0 and 0.0 differ."""
    return [
        (r.domain, *(getattr(r, name) for name in INT_FIELDS),
         *(getattr(r, name).hex() for name in FLOAT_FIELDS))
        for r in records
    ]


def reader_outcome(path):
    """The rows ``read_records_csv(path)`` gives, or the line its InputError names."""
    try:
        return rows_of(table_rows(read_records_csv(path)))
    except InputError as exc:
        found = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
        assert found, f"no path:line in {exc}"
        return int(found.group(1))


def random_names(rng):
    names = set()
    while len(names) < int(rng.integers(1, 4)):
        names.add("".join(rng.choice(NAME_PARTS, size=int(rng.integers(1, 4)))))
    return sorted(names)


def random_table(rng):
    names = random_names(rng)
    n = int(rng.integers(1, 30))
    p_draft = [float(v) for v in rng.choice([v for v in FLOATS if v > 0], n)]
    p_target = [float(v) for v in rng.choice(FLOATS, n)]
    big = np.array([0, 1, 7, 2**31, 2**63 - 1, -(2**63)], dtype=np.int64)
    return column_table(names, dict(
        domain_code=rng.integers(0, len(names), n),
        prompt_id=rng.choice(big, n),
        step_index=rng.choice(big[big >= 0], n),
        depth=rng.choice(big[big >= 1], n),
        position_bin=rng.integers(0, 2, n),
        token=rng.choice(big, n),
        p_draft=p_draft,
        p_target=p_target,
        alpha=[min(1.0, t / d) for t, d in zip(p_target, p_draft)],
        target_entropy=rng.choice(FLOATS, n),
    ))


def random_tree(rng):
    """1-3 valid tree rows: (depth, token, p_draft, p_target, alpha, target_entropy)."""
    rows = []
    for _ in range(int(rng.integers(1, 4))):
        p_draft = float(rng.choice([v for v in FLOATS if v > 0]))
        p_target = float(rng.choice(FLOATS))
        rows.append((int(rng.integers(1, 3)), int(rng.integers(0, 3)), p_draft, p_target,
                     min(1.0, p_target / p_draft), float(rng.choice(FLOATS))))
    return rows


def random_step_table(rng):
    """Steps drawn from a few keys and a few trees, one of them twice under two ids.

    One (domain, prompt_id, step_index) comes with both position bins, keys
    repeat adjacently (their steps merge) and apart, and trees repeat.
    """
    names = random_names(rng)
    trees = [random_tree(rng) for _ in range(int(rng.integers(1, 4)))]
    trees.append(list(trees[0]))
    keys = [(int(rng.integers(0, len(names))), int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            for _ in range(int(rng.integers(1, 4)))]
    records = []
    for _ in range(int(rng.integers(1, 12))):
        code, prompt_id, step_index = keys[int(rng.integers(0, len(keys)))]
        position_bin = int(rng.integers(0, 2))
        for depth, *rest in trees[int(rng.integers(0, len(trees)))]:
            records.append(Row(names[code], prompt_id, step_index, depth, position_bin, *rest))
    return record_table(records)


def structure(table):
    """A table's steps, domains by name, and its trees, floats as bit patterns."""
    steps = table.steps
    return (
        np.array(table.domains, dtype=object)[steps["domain_code"]].tolist(),
        *(steps[name].tolist() for name in STEP_FIELDS[1:]),
        table.tree_offsets.tolist(),
        *(table.trees[name].tobytes() for name in TREE_FIELDS),
    )


def oracle_structure(rows):
    """What ``structure`` gives for the records ``rows`` (as ``rows_of`` gives them), found
    one row at a time: a step is a run of rows with equal step fields, a tree a step's rows."""
    steps = []
    for domain, prompt_id, step_index, depth, position_bin, token, *floats in rows:
        key = (domain, prompt_id, step_index, position_bin)
        if not steps or steps[-1][0] != key:
            steps.append((key, []))
        steps[-1][1].append((depth, token, *floats))
    ids = {}
    for _, tree in steps:
        ids.setdefault(tuple(tree), len(ids))
    columns = list(zip(*(row for tree in ids for row in tree)))
    return (
        *(list(column) for column in zip(*(key for key, _ in steps))),
        [ids[tuple(tree)] for _, tree in steps],
        np.cumsum([0, *map(len, ids)]).tolist(),
        *(np.array(column, dtype=np.int64).tobytes() for column in columns[:2]),
        *(np.array([float.fromhex(v) for v in column]).tobytes() for column in columns[2:]),
    )


def random_distinct_steps(rng, n_steps):
    """Steps of 1-20 rows, nearly every row and tree new, a few trees met again."""
    records = []
    trees = []
    for step in range(n_steps):
        if trees and rng.random() < 0.1:
            tree = trees[int(rng.integers(0, len(trees)))]
        else:
            size = int(rng.integers(1, 21))
            p_draft = rng.uniform(0.01, 1.0, size)
            p_target = p_draft * rng.uniform(0.0, 1.2, size)
            tree = list(zip(rng.integers(1, 10**6, size).tolist(), rng.integers(0, 10**6, size).tolist(),
                            p_draft.tolist(), p_target.tolist(),
                            np.minimum(1.0, p_target / p_draft).tolist(),
                            rng.uniform(0.0, 9.0, size).tolist()))
            trees.append(tree)
        for row in tree:
            records.append(Row("d", step // 8, step % 8, row[0], int(step % 3 == 0), *row[1:]))
    return record_table(records)


def corrupt(rng, lines, kind):
    """``lines`` (header first, no line ends) with one line changed by ``kind``.

    Returns the file text and the 1-based number of the changed line.
    """
    index = int(rng.integers(1, len(lines)))
    fields = lines[index].rsplit(",", WIDTH - 1)
    domain = fields[0]
    if kind == "field dropped":
        del fields[int(rng.integers(0, WIDTH))]
    elif kind == "field added":
        fields.insert(int(rng.integers(0, WIDTH + 1)), str(rng.choice(["0", "1", "0.5"])))
    elif kind == "unbalanced quote in the domain":
        fields[0] = domain[:-1] if domain.startswith('"') else '"' + domain
    elif kind == "unquoted comma in the domain":
        if domain.startswith('"'):  # a comma inside the quotes would still be quoted
            at = int(rng.integers(0, 2)) * len(domain)
        else:
            at = int(rng.integers(0, len(domain) + 1))
        fields[0] = domain[:at] + "," + domain[at:]
    elif kind == "non-finite float":
        at = int(rng.integers(1 + len(INT_FIELDS), WIDTH))
        fields[at] = str(rng.choice(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif kind == "alpha mismatch":
        alpha = float(fields[RECORD_FIELDS.index("alpha")])
        fields[RECORD_FIELDS.index("alpha")] = format((alpha + rng.uniform(0.01, 0.99)) % 1.0, ".17g")
    elif kind == "int beyond int64":
        beyond = 2**63 + int(rng.integers(0, 1000))
        fields[int(rng.integers(1, 1 + len(INT_FIELDS)))] = str(rng.choice([beyond, -beyond - 1]))
    elif kind == "blank line":
        fields = [""]
        lines = lines[:index] + [""] + lines[index:]
    elif kind == QUOTED_NUMBER:
        at = int(rng.integers(1, WIDTH))
        fields[at] = f'"{fields[at]}"'
    elif kind == LINE_BREAK_DOMAIN:
        name = str(rng.choice(["a\nb", "\n", "a,\r\nb", 'q""\rt']))
        fields[0] = f'"{name}"'
    lines = list(lines)
    lines[index] = ",".join(fields)
    ending = "\r\n" if kind == "CRLF line ends" else "\n"
    text = ending.join(lines) + ending
    return (text[:-1] if kind == "no final newline" else text), index + 1


@pytest.mark.parametrize("chunk_rows", [4, 8192])
def test_random_tables_round_trip_bit_for_bit(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5101)
    step_rng = np.random.default_rng(5103)
    path, again = tmp_path / "records.csv", tmp_path / "again.csv"
    names_seen = set()
    # Step tables that show what they are for: a key with both bins, a key
    # in two steps apart, a tree in two steps.
    shown = {"both bins": 0, "key apart": 0, "shared tree": 0}
    for _ in range(CASES):
        for table in (random_table(rng), random_step_table(step_rng)):
            names_seen.update(table.domains)
            write_records_csv(table, path)
            assert reader_outcome(path) == oracle_read(path) == rows_of(table_rows(table))
            back = read_records_csv(path)
            assert structure(back) == structure(table) == oracle_structure(oracle_read(path))
            write_records_csv(back, again)
            assert again.read_bytes() == path.read_bytes()
        names, prompts, indices, bins, trees = structure(table)[:5]
        keys = list(zip(names, prompts, indices))
        shown["both bins"] += any(len({b for k, b in zip(keys, bins) if k == key}) == 2 for key in keys)
        steps = list(zip(keys, bins))
        shown["key apart"] += any(steps.index(step) < i - 1 for i, step in enumerate(steps))
        shown["shared tree"] += len(set(trees)) < len(trees)
    text = "".join(names_seen)
    assert all(c in text for c in ',"é数 ') and "" in names_seen
    assert min(shown.values()) >= 10, shown


@pytest.mark.parametrize("chunk_rows", [4, 7, 8192])
def test_distinct_trees_round_trip(tmp_path, monkeypatch, chunk_rows):
    # A file like a run on a large corpus: over 2,000 distinct values in each
    # tree column, steps that span several chunks, and trees met again later.
    monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
    table = random_distinct_steps(np.random.default_rng(5104), 400)
    assert min(len(np.unique(table.trees[name])) for name in TREE_FIELDS[1:]) > 2_000
    assert np.diff(table.tree_offsets).max() > 2 * 7
    assert len(set(table.steps["tree"].tolist())) < len(table.steps["tree"])
    path, again = tmp_path / "records.csv", tmp_path / "again.csv"
    write_records_csv(table, path)
    back = read_records_csv(path)
    assert structure(back) == structure(table) == oracle_structure(oracle_read(path))
    write_records_csv(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_any_chunking_gives_the_same_steps_and_trees(tmp_path, monkeypatch):
    rng = np.random.default_rng(5105)
    path = tmp_path / "records.csv"
    for case in range(40):
        table = random_step_table(rng) if case % 2 else random_distinct_steps(rng, 12)
        write_records_csv(table, path)
        monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", int(rng.integers(1, len(table) + 2)))
        assert structure(read_records_csv(path)) == oracle_structure(rows_of(table_rows(table)))


def test_equal_values_written_apart_share_a_tree(tmp_path):
    # A hand-edited file. 01 is 1, so lines 2 and 3 are one step; lines 5
    # and 6 hold the same tree in other text (0.50, 0.0, 1.0, 0.10); -0.0
    # is not 0, so lines 7 and 8 are another tree; and a change of bin
    # starts a step (lines 9 and 10).
    header = ",".join(RECORD_FIELDS)
    lines = [
        "chat,1,0,1,0,5,0.5,0.25,0.5,0",
        "chat,01,0,2,0,6,0.5,0.5,1,0.1",
        "chat,1,1,1,0,5,0.25,0.25,1,0",
        "chat,1,2,1,1,5,0.50,0.25,0.5,0.0",
        "chat,1,2,2,1,6,0.5,0.5,1.0,0.10",
        "chat,1,3,1,1,5,0.5,0.25,0.5,-0.0",
        "chat,1,3,2,1,6,0.5,0.5,1,0.1",
        "chat,1,4,1,0,5,0.5,0.25,0.5,0",
        "chat,1,4,2,1,6,0.5,0.5,1,0.1",
    ]
    path = tmp_path / "edited.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    table = read_records_csv(path)
    assert table.steps["step_index"].tolist() == [0, 1, 2, 3, 4, 4]
    assert table.steps["position_bin"].tolist() == [0, 0, 1, 1, 0, 1]
    assert table.steps["tree"].tolist() == [0, 1, 0, 2, 3, 4]
    assert np.diff(table.tree_offsets).tolist() == [2, 1, 2, 1, 1]
    assert table.trees["depth"].tolist() == [1, 2, 1, 1, 2, 1, 2]
    assert np.signbit(table.trees["target_entropy"]).tolist() == [0, 0, 0, 1, 0, 0, 0]
    written = tmp_path / "written.csv"
    write_records_csv(table, written)
    r1, r2 = "5,0.5,0.25,0.5,0", "6,0.5,0.5,1,0.10000000000000001"
    assert written.read_text(encoding="utf-8").splitlines()[1:] == [
        f"chat,1,0,1,0,{r1}", f"chat,1,0,2,0,{r2}",
        "chat,1,1,1,0,5,0.25,0.25,1,0",
        f"chat,1,2,1,1,{r1}", f"chat,1,2,2,1,{r2}",
        f"chat,1,3,1,1,{r1[:-1]}-0", f"chat,1,3,2,1,{r2}",
        f"chat,1,4,1,0,{r1}", f"chat,1,4,2,1,{r2}",
    ]


@pytest.mark.parametrize("size", ["smoke", "full"])
def test_run_and_its_record_file_agree_on_steps_and_trees(tmp_path, size):
    # The reference run, at the benchmark's smoke size and at full size.
    if size == "smoke":
        corpora = synthetic_corpora(n_docs=20)
        config = GenerationConfig(prompts_per_domain=3, max_new_tokens=6)
    else:
        corpora, config = synthetic_corpora(), GenerationConfig()
    records = run_experiment(config, corpora).records
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert structure(read_records_csv(path)) == structure(records)
    if size == "full":
        assert (len(records.steps["tree"]), len(records.tree_offsets) - 1) == (12_800, 169)


@pytest.mark.parametrize("chunk_rows", [4, 8192])
def test_corrupted_files_match_the_oracle(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5102)
    path = tmp_path / "records.csv"
    # Cases whose oracle outcome is what the kind is for: rows for the
    # last four kinds, a rejected line for the others.
    shown = dict.fromkeys(KINDS, 0)
    for case in range(CASES * 2):
        kind = KINDS[case % len(KINDS)]
        write_records_csv(random_table(rng), path)
        text, line = corrupt(rng, path.read_text(encoding="utf-8").split("\n")[:-1], kind)
        path.write_text(text, encoding="utf-8", newline="")
        want, got = oracle_read(path), reader_outcome(path)
        if kind in (QUOTED_NUMBER, LINE_BREAK_DOMAIN):
            assert isinstance(want, list) and got == line, (kind, text)
        elif isinstance(want, list) and any("\n" in r[0] or "\r" in r[0] for r in want):
            # An unbalanced quote can swallow the lines up to a later quote
            # into one domain, which csv.reader reads and this reader rejects.
            assert kind == "unbalanced quote in the domain" and got == line, (kind, text)
        else:
            assert got == want, (kind, text)
        reads = kind in ("CRLF line ends", "no final newline", QUOTED_NUMBER, LINE_BREAK_DOMAIN)
        shown[kind] += isinstance(want, list) == reads
    assert min(shown.values()) >= 1, shown


def test_special_values_match_the_scalar_rules(tmp_path):
    # Each record of special values, written alone as the writer writes it,
    # is read back or rejected with the message of the first rule that
    # first_broken_rule finds broken.
    rng = np.random.default_rng(89)
    specials = [0.0, -0.0, 1.0, 0.5, 2.0, -1e-9, 5e-324, 1e300, math.nan, math.inf, -math.inf]
    path = tmp_path / "records.csv"
    rejected = 0
    for _ in range(3000):
        p_draft, p_target = (float(v) for v in rng.choice(specials, 2))
        alpha = min(1.0, p_target / p_draft) if p_draft > 0 and rng.random() < 0.6 \
            else float(rng.choice(specials))
        record = Row("d", 0, int(rng.integers(-1, 3)), int(rng.integers(0, 3)),
                     int(rng.integers(-1, 3)), 0, p_draft, p_target, alpha, float(rng.choice(specials)))
        cells = [*map(str, record[:6]), *(format(v, ".17g") for v in record[6:])]
        path.write_text(",".join(RECORD_FIELDS) + "\n" + ",".join(cells) + "\n", encoding="utf-8")
        message = first_broken_rule(record)
        if message is None:
            assert reader_outcome(path) == rows_of([record])
        else:
            with pytest.raises(InputError, match=re.escape(f"{path}:2: {message}")):
                read_records_csv(path)
            rejected += 1
    assert 0 < rejected < 3000


# Named files for the reader's prefix/tail split: a line that starts with the
# previous line's ``domain,prompt_id,step_index,`` prefix is read as that
# prefix and its tail, the rest of the line. Each case is a file's lines after
# the header and, for a file the reader rejects, the line and message it gives.
R1, R2 = "1,0,5,0.5,0.25,0.5,0.1", "2,0,6,0.5,0.5,1,0.2"
BAD_TAIL = "1,0,5,0.5x,0.25,0.5,0.1"
PREFIX_CASES = {
    "quoted domain over several steps": (
        [f'"a,""b",0,0,{R1}', f'"a,""b",0,0,{R2}', f'"a,""b",0,1,{R1}', f'"a,""b",0,1,{R2}',
         f'"a,""b",1,0,{R1}', f"chat,1,0,{R1}", f'"a,""b",1,1,{R1}'],
        None,
    ),
    # Lines 4-9 are one step; chunks of 4 and 7 lines cut it.
    "step across a chunk boundary": (
        [f"chat,0,0,{R1}", f"chat,0,0,{R2}",
         *(f"chat,0,1,{depth},0,{depth},0.5,0.25,0.5,0.1" for depth in range(1, 7)),
         f"chat,0,2,{R1}", f"chat,0,2,{R2}"],
        None,
    ),
    "tail with a comma too many": (
        [f"chat,0,0,{R1}", f"chat,0,0,{R2},7"],
        (3, "invalid literal for int() with base 10: '0.5'"),
    ),
    "tail with a comma too many, only the domain bad": (
        [f"chat,0,0,{R1}", "chat,0,0,1,0,5,7,0.5,0.25,0.5,0.1"],
        (3, "domain field 'chat,0' is not quoted as the writer quotes it"),
    ),
    "tail with a comma too few": (
        [f"chat,0,0,{R1}", "chat,0,0,2,0,6,0.5,0.5,1"],
        (3, "malformed row of 9 fields, not 10"),
    ),
    "tail with a comma too few under a quoted domain": (
        [f'"a,b",0,0,{R1}', '"a,b",0,0,2,0,6,0.5,0.5,1'],
        (3, "invalid literal for int() with base 10: 'b\"'"),
    ),
    "bad float in a tail on lines 4 and 9": (
        [f"chat,0,0,{R1}", f"chat,0,0,{R2}", f"chat,0,1,{BAD_TAIL}", f"chat,0,1,{R2}",
         f"chat,0,2,{R1}", f"chat,0,2,{R2}", f"chat,0,3,{R2}", f"chat,0,4,{BAD_TAIL}"],
        (4, "could not convert string to float: '0.5x'"),
    ),
    "line 4 of the above mended": (
        [f"chat,0,0,{R1}", f"chat,0,0,{R2}", f"chat,0,1,{R1}", f"chat,0,1,{R2}",
         f"chat,0,2,{R1}", f"chat,0,2,{R2}", f"chat,0,3,{R2}", f"chat,0,4,{BAD_TAIL}"],
        (9, "could not convert string to float: '0.5x'"),
    ),
}


@pytest.mark.parametrize("chunk_rows", [4, 7, 8192])
@pytest.mark.parametrize("case", PREFIX_CASES)
def test_prefix_and_tail_cases_match_the_oracle(tmp_path, monkeypatch, chunk_rows, case):
    monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
    lines, rejected = PREFIX_CASES[case]
    path = tmp_path / "records.csv"
    path.write_text("\n".join([",".join(RECORD_FIELDS), *lines]) + "\n", encoding="utf-8")
    assert reader_outcome(path) == oracle_read(path)
    if rejected is None:
        assert structure(read_records_csv(path)) == oracle_structure(oracle_read(path))
    else:
        line, message = rejected
        with pytest.raises(InputError) as caught:
            read_records_csv(path)
        assert str(caught.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("chunk_rows", [4, 7, 8192])
def test_crlf_lines_with_a_repeated_tail(tmp_path, monkeypatch, chunk_rows):
    # Each tail keeps its line end, so a tail written with CRLF and with LF is
    # two texts that parse to one tree.
    monkeypatch.setattr(runner, "_CSV_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "records.csv"
    lines = [",".join(RECORD_FIELDS), *(f"chat,0,{step},{tail}" for step in range(4) for tail in (R1, R2))]
    text = "\r\n".join(lines) + "\r\n" + f"chat,1,0,{R1}\nchat,1,0,{R2}\n"
    path.write_text(text, encoding="utf-8", newline="")
    assert reader_outcome(path) == oracle_read(path)
    table = read_records_csv(path)
    assert structure(table) == oracle_structure(oracle_read(path))
    assert table.steps["tree"].tolist() == [0] * 5
