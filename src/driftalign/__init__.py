"""Streaming subspace-based domain adaptation for drifting data streams.

The package aligns an unlabelled, drifting target stream to a fixed labelled
source domain: each mini-batch contributes a subspace, subspaces are averaged
online on the Grassmann manifold, and a closed-form flow kernel maps features
into a representation where the frozen source classifier keeps working.
"""

from .classifiers import KnnParams, LabeledSet, SvmParams, predict, train
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    DimensionViolation,
    DomainError,
    DriftAlignError,
    InsufficientData,
    NonFiniteData,
    NumericalError,
    NumericalHealthError,
    ParseError,
    RankDeficient,
    SchemaMismatch,
    SharedFactorFailure,
)
from .flow_kernel import TransformKernel, apply_transform, flow_kernel
from .pipeline import (
    VARIANT_FLAGS,
    AccuracyTrace,
    BatchDiagnostics,
    MiniBatch,
    PipelineConfig,
    PipelineState,
    init_pipeline,
    process_batch,
    run_stream,
    variant_config,
)
from .streams import CsvSchema, DatasetBundle, StreamSpec, gen_rotating_drift, gen_waveform, load_csv
from .subspaces import (
    MeanSubspaceState,
    PrincipalSystem,
    Subspace,
    evaluate,
    pca_subspace,
    principal_system,
    update_mean,
)

__all__ = [
    "AccuracyTrace",
    "BatchDiagnostics",
    "ConfigError",
    "CsvSchema",
    "DataError",
    "DatasetBundle",
    "DimensionMismatch",
    "DimensionViolation",
    "DomainError",
    "DriftAlignError",
    "InsufficientData",
    "KnnParams",
    "LabeledSet",
    "MeanSubspaceState",
    "MiniBatch",
    "NonFiniteData",
    "NumericalError",
    "NumericalHealthError",
    "ParseError",
    "PipelineConfig",
    "PipelineState",
    "PrincipalSystem",
    "RankDeficient",
    "SchemaMismatch",
    "SharedFactorFailure",
    "StreamSpec",
    "Subspace",
    "SvmParams",
    "TransformKernel",
    "VARIANT_FLAGS",
    "apply_transform",
    "evaluate",
    "flow_kernel",
    "gen_rotating_drift",
    "gen_waveform",
    "init_pipeline",
    "load_csv",
    "pca_subspace",
    "predict",
    "principal_system",
    "process_batch",
    "run_stream",
    "train",
    "update_mean",
    "variant_config",
]

__version__ = "0.1.0"
