"""Tree-based speculative decoding harness with per-node acceptance analytics.

Builds draft trees over pluggable language models, verifies them against a
target model, records one observation per speculative node, and aggregates
the records into per-domain acceptance statistics.
"""

from .corpus import (
    DomainCorpus,
    PromptSet,
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
    NodeRecord,
    PositionEffects,
    RecordTable,
    average_ranks,
    chain_probabilities,
    depth_profile,
    expected_accepted_length,
    position_effects,
    spearman_rho,
    summarize,
)
from .model import (
    LanguageModel,
    NGramModel,
    SparseRow,
    TableModel,
    Vocabulary,
    entropy_nats,
    top_candidates,
    validate_dist,
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
    DraftTree,
    TreeNode,
    TreeParams,
    build_draft_tree,
    tree_attention_mask,
)
from .verify import (
    NodeScore,
    acceptance_prob,
    residual_dist,
    score_tree,
    simulate_chain_acceptance,
)

__version__ = "0.1.0"
