"""Estimation of mixtures of stable linear dynamical systems from unlabeled trajectories.

The pipeline reduces an unlabeled input-output trajectory collection to a
mixture of linear regressions over stacked input windows, estimates second and
third moments of that regression mixture, and extracts the components with an
orthogonal tensor decomposition. Recovered Markov parameter vectors can then
be realized as state-space models.

The package exports what the ldsmix command runs; stage functions (moments,
whitening, power method, stacking) are imported from their modules.
"""

from .errors import DecompositionError, DegenerateMixtureError, InsufficientLengthError
from .evaluate import (MatchResult, SweepConfig, SweepRecord, load_records_csv, match_components,
                       run_sweep, write_levels, write_records_csv, write_series)
from .lds import (MixtureModel, NoiseConfig, StateSpace, TrajectoryDataset, generate_dataset,
                  load_dataset, load_mixture, mixture_sigma_k, random_mixture, rollout,
                  save_dataset, save_mixture)
from .mlr import MixtureEstimate
from .pipeline import estimate_text, ho_kalman, load_estimate, mlds_fit

__version__ = "0.1.0"

__all__ = [
    "DecompositionError", "DegenerateMixtureError", "InsufficientLengthError",
    "MatchResult", "SweepConfig", "SweepRecord", "load_records_csv", "match_components", "run_sweep",
    "write_levels", "write_records_csv", "write_series",
    "MixtureModel", "NoiseConfig", "StateSpace", "TrajectoryDataset", "generate_dataset", "load_dataset",
    "load_mixture", "mixture_sigma_k", "random_mixture", "rollout", "save_dataset", "save_mixture",
    "MixtureEstimate", "estimate_text", "ho_kalman", "load_estimate", "mlds_fit", "__version__",
]
