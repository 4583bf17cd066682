"""The package's public surface: growing or shrinking it is a deliberate edit here."""

import ldsmix

PUBLIC = [
    "DecompositionError", "DegenerateMixtureError", "InsufficientLengthError",
    "MarkovVector", "MatchResult", "MixtureEstimate", "MixtureModel", "NoiseConfig",
    "RegressionDataset", "StateSpace", "SweepConfig", "SweepRecord", "TrajectoryDataset",
    "WhiteningMatrix", "__version__", "aggregate", "apply_matrix3", "baseline_error",
    "build_stacked", "derive_seed", "estimate_m2", "estimate_text", "estimate_whitened_m3",
    "fit_from_moments", "generate_dataset", "ho_kalman", "impulse_response", "load_dataset",
    "load_estimate", "load_mixture", "load_records_csv", "match_components", "mixture_m2",
    "mixture_sigma_k", "mlds_fit", "mlr_fit", "ols_markov", "random_mixture",
    "random_stable_system", "refine_first_moment", "robust_tpm", "rollout", "run_sweep",
    "sample_mixture", "save_dataset", "save_estimate", "save_mixture", "simulate",
    "stack_inputs", "stack_times", "symmetrize", "whitening_from_m2", "write_levels",
    "write_records_csv", "write_series",
]


def test_all_is_pinned():
    assert sorted(ldsmix.__all__) == PUBLIC
    assert len(set(ldsmix.__all__)) == len(ldsmix.__all__)


def test_every_public_name_resolves():
    for name in ldsmix.__all__:
        assert getattr(ldsmix, name) is not None, name
