import json
from collections import namedtuple
from pathlib import Path

import pytest

from treespec import RecordTable, synthetic_corpora
from treespec.metrics import RECORD_FIELDS

FIXTURES = Path(__file__).parent / "fixtures"

# One record as a row of its RECORD_FIELDS values.
Row = namedtuple("Row", RECORD_FIELDS)


def record_table(rows):
    """A RecordTable of rows of RECORD_FIELDS values, domains numbered by first appearance."""
    codes = {}
    columns = list(zip(*rows)) or [()] * len(RECORD_FIELDS)
    domain_code = [codes.setdefault(name, len(codes)) for name in columns[0]]
    return RecordTable.from_chunks(
        codes, [dict(zip(RECORD_FIELDS[1:], columns[1:]), domain_code=domain_code)])


def table_rows(table):
    """Each record of ``table`` as a Row."""
    columns = [getattr(table, name).tolist() for name in RECORD_FIELDS[1:]]
    return [Row(table.domains[code], *values) for code, *values in zip(table.domain_code.tolist(), *columns)]


@pytest.fixture(scope="session")
def reference_stats():
    return json.loads((FIXTURES / "reference_statistics.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpora():
    """Shared synthetic corpora; read-only after construction."""
    return synthetic_corpora(n_docs=160, seed=42)
