"""The package's public surface: growing or shrinking it is a deliberate edit here."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import ldsmix
from ldsmix import pipeline
from ldsmix.lds import generate_dataset, random_mixture

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = Path(ldsmix.__file__).resolve().parent

PUBLIC = [
    "DecompositionError", "DegenerateMixtureError", "InsufficientLengthError",
    "MatchResult", "MixtureEstimate", "MixtureModel", "NoiseConfig",
    "StateSpace", "SweepConfig", "SweepRecord", "TrajectoryDataset",
    "__version__", "aggregate", "baseline_error",
    "build_stacked", "derive_seed", "estimate_m2", "estimate_text", "estimate_whitened_m3",
    "generate_dataset", "ho_kalman", "impulse_response", "load_dataset",
    "load_estimate", "load_mixture", "load_records_csv", "match_components",
    "mixture_sigma_k", "mlds_fit", "mlr_fit", "ols_markov", "random_mixture",
    "random_stable_system", "refine_first_moment", "robust_tpm", "rollout", "run_sweep",
    "save_dataset", "save_estimate", "save_mixture", "simulate",
    "stack_times", "symmetrize", "whitening_from_m2", "write_levels",
    "write_records_csv", "write_series",
]


def test_all_is_pinned():
    assert sorted(ldsmix.__all__) == PUBLIC
    assert len(PUBLIC) == 47
    assert len(set(ldsmix.__all__)) == len(ldsmix.__all__)


def test_every_public_name_resolves():
    for name in ldsmix.__all__:
        assert getattr(ldsmix, name) is not None, name


def load_tracing():
    spec = importlib.util.spec_from_file_location("ldsmix_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    # the benchmark's per-layer tracer binds these functions by module and name;
    # a rename would silently turn a layer into a missing span
    tracing = load_tracing()
    missing = []
    for targets in tracing.LAYERS.values():
        for module, name, _ in targets:
            fn = getattr(importlib.import_module(module), name, None)
            if not inspect.isfunction(fn):
                missing.append(f"{module}.{name}")
    # mlds_fit_refined was folded into mlds_fit(..., refine=True); its entry is
    # dropped on the next change to the benchmark
    assert set(missing) <= {"ldsmix.pipeline.mlds_fit_refined"}, missing


def test_fit_layers_are_traced():
    # mlds_fit must reach each fit layer through the module-level names the
    # tracer replaces; a stage called some other way reads 0 calls and is
    # flagged. The call goes through the module so the traced binding is used.
    model = random_mixture(2, 2, 1, 5, (0.5, 0.8), seed=1)
    data = generate_dataset(model, 40, 20, seed=2)
    plain = pipeline.mlds_fit(data, 5, 2, seed=3, refine=True)
    with load_tracing().Tracer() as tracer:
        traced = pipeline.mlds_fit(data, 5, 2, seed=3, refine=True)
    for layer in ("pipeline.stack", "mlr.m2", "mlr.whiten", "mlr.m3", "mlr.fit",
                  "mlr.refine", "tensor3.tpm", "pipeline.fit"):
        assert tracer.stats[layer]["calls"] >= 1, layer
    assert np.array_equal(traced.weights, plain.weights)
    assert np.array_equal(traced.coeffs, plain.coeffs)


def test_no_dead_names():
    # every module-level def, class and constant is read or re-exported
    # somewhere in the package (tests and the benchmark do not count), and
    # every module but __init__ uses each name it imports
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    used = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead, unused = [], []
    for module, tree in trees.items():
        for node in tree.body:
            # def and class names, plain assignment targets; None for anything else
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            names = [getattr(t, "id", getattr(t, "name", None)) for t in targets]
            dead += [f"{module}.{name}" for name in names
                     if name and name not in used and not name[:2] == name[-2:] == "__"]
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = [alias.asname or alias.name.split(".")[0] for node in imports
                 if getattr(node, "module", None) != "__future__" for alias in node.names]
        unused += [f"{module}: {name}" for name in bound if module != "__init__" and name not in loaded]
    assert not dead, dead
    assert not unused, unused
