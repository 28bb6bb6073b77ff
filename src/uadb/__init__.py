"""Model-agnostic booster for unsupervised anomaly detectors on tabular data.

Typical use: fit any detector and hand its scores, a 1-d array, to
run_booster as the teacher. The booster trains a small network on the
evolving pseudo labels and corrects them with per-instance prediction
variance, which concentrates on the teacher's mistakes.
"""

from .booster import (
    BoosterConfig,
    BoosterResult,
    InputConditioner,
    Strategy,
    ablation_scores,
    classify_cases,
    correction_trace,
    iteration_metrics,
    per_instance_variance,
    run_booster,
    score_points,
    update_pseudo_labels,
)
from .data import (
    DataError,
    Dataset,
    SyntheticKind,
    generate_synthetic,
    import_scores,
    load_csv,
    minmax_values,
    save_csv,
    save_scores,
    scale_features,
)
from .detectors import DegenerateDataWarning, DetectorKind, DetectorParams, fit_score
from .metrics import (
    VacuousCorrectionWarning,
    aucroc,
    average_precision,
    correction_rate,
    threshold_predictions,
    variance_gap,
)
from .nn import (
    Loss,
    MlpModel,
    TrainSpec,
    forward,
    gradient_check,
    init_mlp,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BoosterConfig",
    "BoosterResult",
    "DataError",
    "Dataset",
    "DegenerateDataWarning",
    "DetectorKind",
    "DetectorParams",
    "InputConditioner",
    "Loss",
    "MlpModel",
    "Strategy",
    "SyntheticKind",
    "TrainSpec",
    "VacuousCorrectionWarning",
    "ablation_scores",
    "aucroc",
    "average_precision",
    "classify_cases",
    "correction_rate",
    "correction_trace",
    "fit_score",
    "forward",
    "generate_synthetic",
    "gradient_check",
    "import_scores",
    "init_mlp",
    "iteration_metrics",
    "load_csv",
    "minmax_values",
    "per_instance_variance",
    "run_booster",
    "save_csv",
    "save_scores",
    "scale_features",
    "score_points",
    "threshold_predictions",
    "train",
    "update_pseudo_labels",
    "variance_gap",
]
