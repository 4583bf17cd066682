"""Estimation of mixtures of stable linear dynamical systems from unlabeled trajectories.

The pipeline reduces an unlabeled input-output trajectory collection to a
mixture of linear regressions over stacked input windows, estimates second and
third moments of that regression mixture, and extracts the components with an
orthogonal tensor decomposition. Recovered Markov parameter vectors can then
be realized as state-space models.
"""

from .errors import DecompositionError, DegenerateMixtureError, InsufficientLengthError
from .evaluate import (MatchResult, SweepConfig, SweepRecord, aggregate,
                       baseline_error, load_records_csv, match_components,
                       run_sweep, write_levels, write_records_csv, write_series)
from .lds import (MixtureModel, NoiseConfig, StateSpace, TrajectoryDataset,
                  generate_dataset, impulse_response, load_dataset, load_mixture,
                  mixture_sigma_k, random_mixture, random_stable_system, rollout,
                  save_dataset, save_mixture, simulate)
from .mlr import (MixtureEstimate, estimate_m2, estimate_whitened_m3, mlr_fit,
                  refine_first_moment, whitening_from_m2)
from .pipeline import (build_stacked, estimate_text, ho_kalman, load_estimate,
                       mlds_fit, ols_markov, save_estimate, stack_times)
from .tensor3 import robust_tpm, symmetrize
from .util import derive_seed

__version__ = "0.1.0"

__all__ = [
    "DecompositionError", "DegenerateMixtureError", "InsufficientLengthError",
    "MatchResult", "SweepConfig", "SweepRecord", "aggregate", "baseline_error",
    "load_records_csv", "match_components", "run_sweep", "write_levels",
    "write_records_csv", "write_series",
    "MixtureModel", "NoiseConfig", "StateSpace", "TrajectoryDataset",
    "generate_dataset", "impulse_response", "load_dataset", "load_mixture",
    "mixture_sigma_k", "random_mixture", "random_stable_system", "rollout",
    "save_dataset", "save_mixture", "simulate",
    "MixtureEstimate", "estimate_m2", "estimate_whitened_m3", "mlr_fit",
    "refine_first_moment", "whitening_from_m2",
    "build_stacked", "estimate_text", "ho_kalman", "load_estimate", "mlds_fit",
    "ols_markov", "save_estimate", "stack_times",
    "robust_tpm", "symmetrize",
    "derive_seed",
    "__version__",
]
