import json
from pathlib import Path

import pytest

from treespec import synthetic_corpora

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def reference_stats():
    return json.loads((FIXTURES / "reference_statistics.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpora():
    """Shared synthetic corpora; read-only after construction."""
    return synthetic_corpora(n_docs=160, seed=42)
