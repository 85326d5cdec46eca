"""Personality-facet recognition from author text.

Scores 44-item inventories into five domains and ten facets, labels authors
above or below the corpus mean per facet, featurizes their writing (bag of
words or averaged embeddings), rebalances training folds by synthetic
minority oversampling, and compares majority / naive Bayes / logistic
regression classifiers under stratified cross-validation.
"""

from __future__ import annotations

from .corpus import (
    AuthorRecord,
    LabeledCorpus,
    LabeledDocument,
    NormalizationTable,
    NormRule,
    assign_labels,
    build_documents,
    default_normalization_table,
    load_corpus,
    load_normalization_table,
    normalize,
    tokenize,
)
from .errors import ConfigError, FacetrecError, TrainingError, ValidationError
from .eval import (
    EvaluationReport,
    FoldPlan,
    SystemResult,
    f1_binary,
    f1_macro,
    make_folds,
    parse_report_csv,
    render_report,
    run_experiment,
)
from .features import (
    BowSpec,
    EmbeddingSpec,
    EmbeddingStore,
    Vocabulary,
    avg_vectorize,
    bow_matrix,
    build_vocabulary,
    embedding_matrix,
    load_embeddings,
    realize_features,
    write_embeddings,
)
from .inventory import (
    FACET_NAMES,
    FACET_SIBLINGS,
    FacetScores,
    InventoryResponse,
    ScoringKey,
    default_scoring_key,
    load_scoring_key,
    reverse_item,
    score_inventory,
)
from .models import (
    LRHyperparams,
    ModelSpec,
    TrainedModel,
    load_model,
    predict,
    save_model,
    train,
    train_logistic_regression,
    train_majority,
    train_naive_bayes,
)
from .resample import ResampleConfig, smote
from .synth import SynthSpec, write_bundle

__version__ = "0.1.0"

__all__ = [
    "AuthorRecord",
    "BowSpec",
    "ConfigError",
    "EmbeddingSpec",
    "EmbeddingStore",
    "EvaluationReport",
    "FACET_NAMES",
    "FACET_SIBLINGS",
    "FacetScores",
    "FacetrecError",
    "FoldPlan",
    "InventoryResponse",
    "LRHyperparams",
    "LabeledCorpus",
    "LabeledDocument",
    "ModelSpec",
    "NormRule",
    "NormalizationTable",
    "ResampleConfig",
    "ScoringKey",
    "SynthSpec",
    "SystemResult",
    "TrainedModel",
    "TrainingError",
    "ValidationError",
    "Vocabulary",
    "__version__",
    "assign_labels",
    "avg_vectorize",
    "bow_matrix",
    "build_documents",
    "build_vocabulary",
    "default_normalization_table",
    "default_scoring_key",
    "embedding_matrix",
    "f1_binary",
    "f1_macro",
    "load_corpus",
    "load_embeddings",
    "load_model",
    "load_normalization_table",
    "load_scoring_key",
    "make_folds",
    "normalize",
    "parse_report_csv",
    "predict",
    "realize_features",
    "render_report",
    "reverse_item",
    "run_experiment",
    "save_model",
    "score_inventory",
    "smote",
    "tokenize",
    "train",
    "train_logistic_regression",
    "train_majority",
    "train_naive_bayes",
    "write_bundle",
    "write_embeddings",
]
