"""Tree-based speculative decoding harness with per-node acceptance analytics.

Builds draft trees over pluggable language models, verifies them against a
target model, records one observation per speculative node, and aggregates
the records into per-domain acceptance statistics.
"""

from .corpus import (
    DomainCorpus,
    load_corpora,
    load_domain_dir,
    sample_prompts,
    synthetic_corpora,
    synthetic_corpus,
    train_models,
)
from .errors import InputError, UndefinedCorrelationError
from .metrics import (
    DepthProfile,
    DomainSummary,
    PositionEffects,
    RecordTable,
    average_ranks,
    chain_probabilities,
    depth_profile,
    position_effects,
    spearman_rho,
    summarize,
)
from .model import (
    LanguageModel,
    NGramModel,
    RowBatch,
    Vocabulary,
    entropy_nats,
)
from .runner import (
    ExperimentReport,
    GenerationConfig,
    config_from_mapping,
    emit_report,
    generate_step,
    parse_config_file,
    read_records_csv,
    render_tables,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from .tree import (
    DraftTrees,
    TreeParams,
    build_draft_tree,
    grow_trees,
)
from .verify import (
    score_tree,
    score_trees,
)

__version__ = "0.1.0"
