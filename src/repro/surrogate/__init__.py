"""Learned latency surrogate (``repro.surrogate``).

A fast approximate path next to the analytical model: deterministic
architecture-independent feature extraction per (kernel, design point)
(:mod:`~repro.surrogate.features`), a dependency-free numpy trainer
with persistent versioned artifacts (:mod:`~repro.surrogate.train`),
and training-data plumbing from suite runs / NDJSON exports
(:mod:`~repro.surrogate.data`).

The surrogate never replaces the analytical model for final answers:
the serve daemon's ``"tier": "instant"`` (CLI ``predict --tier
instant``) answers /predict with an approximate latency plus confidence
bounds, while ``explore`` always evaluates every feasible design with
the exact model.  docs/SURROGATE.md records why the surrogate no
longer pre-ranks design spaces.
"""

from repro.surrogate.data import (
    FeatureSchemaError,
    export_features,
    load_feature_file,
    read_feature_rows,
    schema_header,
    training_rows,
    write_feature_rows,
)
from repro.surrogate.features import (
    DESIGN_FEATURE_NAMES,
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    KERNEL_FEATURE_NAMES,
    design_features,
    feature_schema_hash,
    feature_vector,
    kernel_features,
)
from repro.surrogate.train import (
    DEFAULT_TAG,
    SurrogateModel,
    TrainReport,
    load_model,
    model_key,
    save_model,
    spearman,
    train_surrogate,
    train_with_holdout,
)

__all__ = [
    "DEFAULT_TAG",
    "DESIGN_FEATURE_NAMES",
    "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION",
    "FeatureSchemaError",
    "KERNEL_FEATURE_NAMES",
    "SurrogateModel",
    "TrainReport",
    "design_features",
    "export_features",
    "feature_schema_hash",
    "feature_vector",
    "kernel_features",
    "load_feature_file",
    "load_model",
    "model_key",
    "read_feature_rows",
    "save_model",
    "schema_header",
    "spearman",
    "train_surrogate",
    "train_with_holdout",
    "training_rows",
    "write_feature_rows",
]
