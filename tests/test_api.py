"""The package's public surface: growing or shrinking it is a deliberate edit here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ldsmix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PUBLIC = [
    "DecompositionError", "DegenerateMixtureError", "InsufficientLengthError",
    "MatchResult", "MixtureEstimate", "MixtureModel", "NoiseConfig",
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
    assert len(PUBLIC) == 54
    assert len(set(ldsmix.__all__)) == len(ldsmix.__all__)


def test_every_public_name_resolves():
    for name in ldsmix.__all__:
        assert getattr(ldsmix, name) is not None, name


def test_traced_functions_resolve():
    # the benchmark's per-layer tracer binds these functions by module and name;
    # a rename would silently turn a layer into a missing span
    spec = importlib.util.spec_from_file_location("ldsmix_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for targets in tracing.LAYERS.values():
        for module, name, _ in targets:
            fn = getattr(importlib.import_module(module), name, None)
            if not inspect.isfunction(fn):
                missing.append(f"{module}.{name}")
    # mlds_fit_refined was folded into mlds_fit(..., refine=True); its entry is
    # dropped on the next change to the benchmark
    assert set(missing) <= {"ldsmix.pipeline.mlds_fit_refined"}, missing
