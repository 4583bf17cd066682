"""The package's public surface: growing or shrinking it is a deliberate edit here."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np

import ldsmix
from ldsmix import pipeline
from ldsmix.lds import generate_dataset, random_mixture

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = Path(ldsmix.__file__).resolve().parent

PUBLIC = [
    "DecompositionError", "DegenerateMixtureError", "InsufficientLengthError",
    "MatchResult", "MixtureEstimate", "MixtureModel", "NoiseConfig",
    "StateSpace", "SweepConfig", "SweepRecord", "TrajectoryDataset",
    "__version__", "estimate_text", "generate_dataset", "ho_kalman",
    "load_dataset", "load_estimate", "load_mixture", "load_records_csv",
    "match_components", "mixture_sigma_k", "mlds_fit", "random_mixture",
    "rollout", "run_sweep", "save_dataset", "save_mixture", "write_levels",
    "write_records_csv", "write_series",
]


def test_all_is_pinned():
    assert sorted(ldsmix.__all__) == PUBLIC
    assert len(PUBLIC) == 30
    assert len(set(ldsmix.__all__)) == len(ldsmix.__all__)


def test_every_public_name_resolves():
    for name in ldsmix.__all__:
        assert getattr(ldsmix, name) is not None, name


# stage functions are not exported; each is imported from its own module
STAGES = {
    "ldsmix.evaluate": ("aggregate", "baseline_error"),
    "ldsmix.lds": ("impulse_response", "random_stable_system", "simulate"),
    "ldsmix.mlr": ("estimate_m2", "estimate_whitened_m3", "mlr_fit", "refine_first_moment",
                   "whitening_from_m2"),
    "ldsmix.pipeline": ("build_stacked", "ols_markov", "stack_times"),
    "ldsmix.tensor3": ("robust_tpm", "symmetrize"),
    "ldsmix.util": ("derive_seed",),
}


def test_stage_functions_resolve_from_their_modules():
    for module, names in STAGES.items():
        for name in names:
            assert inspect.isfunction(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
            assert name not in ldsmix.__all__, name


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0


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
    # every module-level def, class and constant, and every method and
    # property of a class, is read or re-exported somewhere in the package
    # (tests and the benchmark do not count), and every module but __init__
    # uses each name it imports
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
            if isinstance(node, ast.ClassDef):  # its methods and properties, read as attributes
                dead += [f"{module}.{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name not in used
                         and not item.name[:2] == item.name[-2:] == "__"]
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = [alias.asname or alias.name.split(".")[0] for node in imports
                 if getattr(node, "module", None) != "__future__" for alias in node.names]
        unused += [f"{module}: {name}" for name in bound if module != "__init__" and name not in loaded]
    assert not dead, dead
    assert not unused, unused
