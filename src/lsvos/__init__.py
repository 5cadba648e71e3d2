"""Latent-space virtual outlier synthesis for false-positive detection.

The package trains an auto-encoder over inlier detector features, perturbs
the latent codes with positive uniform noise to synthesize virtual outliers,
and uses those outliers (together with real false positives) to train an
uncertainty head that separates true detections from hallucinated ones.
"""

from .errors import (
    InputError,
    LsvosError,
    NotReadyError,
    NumericalFailure,
    UndefinedMetricError,
)
from .pipeline import (
    ExperimentConfig,
    ablate,
    apply_overrides,
    config_hash,
    desk_preset,
    evaluate_bundle,
    format_config,
    gather_val,
    parse_config,
    run_experiment,
    sweep_from_specs,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "InputError",
    "LsvosError",
    "NotReadyError",
    "NumericalFailure",
    "UndefinedMetricError",
    "__version__",
    "ablate",
    "apply_overrides",
    "config_hash",
    "desk_preset",
    "evaluate_bundle",
    "format_config",
    "gather_val",
    "parse_config",
    "run_experiment",
    "sweep_from_specs",
]
