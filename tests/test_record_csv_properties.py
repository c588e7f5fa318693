"""Seeded property tests: ``read_records_csv`` against a row-by-row csv.reader oracle.

The oracle reads a record file with ``csv.reader`` and checks each row with
``NodeRecord.validate``, one row at a time. Random tables, with -0.0,
subnormals, 1e-300 and domain names holding commas, quotes, spaces and
non-ASCII text, must survive ``write_records_csv`` -> ``read_records_csv``
bit for bit. Each corrupted file (one line of a valid file changed) must
give the oracle's table or be rejected at the oracle's line, where a
multi-line row counts from its first line.

The reader splits each line at its last nine commas, so it rejects two
kinds of text the writer never writes and csv.reader reads:
``QUOTED_NUMBER`` (a numeric field in quotes) and ``LINE_BREAK_DOMAIN`` (a
quoted domain holding a line break, which the reader sees as a cut-short
line). On those it must name the corrupted line.
"""

import csv
import re

import numpy as np
import pytest

from treespec import InputError, NodeRecord, RecordTable, read_records_csv, write_records_csv
from treespec import runner
from treespec.metrics import FLOAT_FIELDS, INT_FIELDS, RECORD_FIELDS

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


def oracle_read(path):
    """The file as csv.reader and NodeRecord.validate read it: its rows, or the bad row's line."""
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
                record = NodeRecord(row[0], *ints, *(float(v) for v in row[1 + len(INT_FIELDS):]))
                record.validate()
            except ValueError:
                return first_line
            records.append(record)


def rows_of(records):
    """Each record as a tuple, floats as hex text so that -0.0 and 0.0 differ."""
    return [
        (r.domain, *(getattr(r, name) for name in INT_FIELDS),
         *(getattr(r, name).hex() for name in FLOAT_FIELDS))
        for r in records
    ]


def reader_outcome(path):
    """The rows ``read_records_csv(path)`` gives, or the line its InputError names."""
    try:
        return rows_of(read_records_csv(path))
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
    return RecordTable(
        names,
        rng.integers(0, len(names), n),
        prompt_id=rng.choice(big, n),
        step_index=rng.choice(big[big >= 0], n),
        depth=rng.choice(big[big >= 1], n),
        position_bin=rng.integers(0, 2, n),
        token=rng.choice(big, n),
        p_draft=p_draft,
        p_target=p_target,
        alpha=[min(1.0, t / d) for t, d in zip(p_target, p_draft)],
        target_entropy=rng.choice(FLOATS, n),
    )


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
    path = tmp_path / "records.csv"
    names_seen = set()
    for _ in range(CASES):
        table = random_table(rng)
        names_seen.update(table.domains)
        write_records_csv(table, path)
        assert reader_outcome(path) == oracle_read(path) == rows_of(table)
    text = "".join(names_seen)
    assert all(c in text for c in ',"é数 ') and "" in names_seen


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
