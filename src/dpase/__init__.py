"""Differentially private adjacency spectral embedding for blockmodels."""

from ._shared import ParameterRangeError
from .classify import ErrorReport, chance_error, knn_predict, loocv_error
from .embedding import (
    AlignmentResult,
    EigenPairs,
    PackedSymmetric,
    ase,
    frobenius_distance,
    procrustes_align,
    top_d_eigen,
)
from .graphs import (
    EdgeListError,
    LabeledGraph,
    SbmParams,
    load_edge_list,
    load_labels,
    sample_block_labels,
    sample_sbm,
    validate_adjacency,
    write_edge_list,
)
from .privacy import (
    CalibrationError,
    NoiseScale,
    PrivacyBudget,
    calibrate_noise,
    dp_ase,
    sample_symmetric_noise,
)
from .sweeps import (
    CSV_COLUMNS,
    DatasetSource,
    SimulationSource,
    SweepRecord,
    emit_results,
    run_alpha_tradeoff,
    run_dim_sweep,
    run_n_sweep,
    run_privacy_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "CalibrationError",
    "CSV_COLUMNS",
    "DatasetSource",
    "EdgeListError",
    "EigenPairs",
    "ErrorReport",
    "LabeledGraph",
    "NoiseScale",
    "PackedSymmetric",
    "ParameterRangeError",
    "PrivacyBudget",
    "SbmParams",
    "SimulationSource",
    "SweepRecord",
    "ase",
    "calibrate_noise",
    "chance_error",
    "dp_ase",
    "emit_results",
    "frobenius_distance",
    "knn_predict",
    "load_edge_list",
    "load_labels",
    "loocv_error",
    "procrustes_align",
    "run_alpha_tradeoff",
    "run_dim_sweep",
    "run_n_sweep",
    "run_privacy_grid",
    "sample_block_labels",
    "sample_sbm",
    "sample_symmetric_noise",
    "top_d_eigen",
    "validate_adjacency",
    "write_edge_list",
]
