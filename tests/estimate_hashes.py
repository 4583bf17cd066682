"""Print sha256 digests that pin the estimator's bits, one line per case.

    PYTHONPATH=src python tests/estimate_hashes.py > hashes.txt

Run it in two checkouts and diff the outputs: a change that keeps every bit
of the estimates prints the same lines. The cases are

- grid: the estimate_text of mlds_fit on random_mixture(3, 3, 1, 7,
  (0.6, 0.9), s) for seeds s 0-4 x N {100, 1000} x T {24, 96} x refine off
  and on, plus N = 10 000, T = 96, seed 0 with refine off and on (42 fits),
  data seed derive_seed(s, 1) and fit seed derive_seed(s, 2);
- blocked: the fits of test_pipeline.py::test_estimate_text_golden with
  pipeline._ROW_BUDGET cut to 96 rows, so that every moment pass sums blocks
  of 7 trajectories, for sigma_u 1.0 and 1.02 x refine off and on;
- sweep: the CSV of run_sweep over N 100, 1000, T 24, 96, seeds 0-9 and the
  methods tensor, tensor_refine and baseline (120 records), timed by a clock
  that always reads 0, so that wall_ms holds no measurement.

The digests depend on the BLAS build, so compare runs on one machine.
"""

import hashlib
import os
import sys
import tempfile

from ldsmix import pipeline
from ldsmix.errors import DecompositionError, DegenerateMixtureError
from ldsmix.evaluate import SweepConfig, run_sweep, write_records_csv
from ldsmix.lds import NoiseConfig, generate_dataset, random_mixture
from ldsmix.pipeline import estimate_text, mlds_fit
from ldsmix.util import derive_seed

BLOCK_ROWS = 7 * (96 // 7) + 5  # 7 trajectories of T = 96 per block at L = 7


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fit_digest(data, **kw) -> str:
    """The digest of the fit's estimate_text, or of its error's type and message."""
    try:
        return sha(estimate_text(mlds_fit(data, 7, 3, **kw), 7, 1))
    except (DegenerateMixtureError, DecompositionError) as exc:
        return sha(f"{type(exc).__name__}: {exc}")


def grid_cases():
    cells = [(s, N, T) for s in range(5) for N in (100, 1000) for T in (24, 96)] + [(0, 10_000, 96)]
    for s, N, T in cells:
        model = random_mixture(3, 3, 1, 7, (0.6, 0.9), seed=s)
        data = generate_dataset(model, N, T, NoiseConfig(), derive_seed(s, 1))
        for refine in (False, True):
            yield f"grid seed={s} N={N} T={T} refine={int(refine)}", fit_digest(data, seed=derive_seed(s, 2),
                                                                                refine=refine)


def blocked_cases():
    model = random_mixture(3, 3, 1, 7, seed=0)
    data = generate_dataset(model, 200, 96, NoiseConfig(), seed=1)
    budget = pipeline._ROW_BUDGET
    pipeline._ROW_BUDGET = BLOCK_ROWS
    try:
        for sigma_u in (1.0, 1.02):
            for refine in (False, True):
                yield f"blocked sigma_u={sigma_u} refine={int(refine)}", fit_digest(data, sigma_u=sigma_u, seed=2,
                                                                                    refine=refine)
    finally:
        pipeline._ROW_BUDGET = budget


def sweep_case():
    cfg = SweepConfig(K=3, n=3, m=1, L=7, N_values=(100, 1000), T_values=(24, 96), seeds=tuple(range(10)),
                      methods=("tensor", "tensor_refine", "baseline"))
    records = run_sweep(cfg, timer=lambda: 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        write_records_csv(path, records)
        with open(path) as fh:
            yield f"sweep records={len(records)}", sha(fh.read())


def main() -> int:
    for cases in (grid_cases(), blocked_cases(), sweep_case()):
        for label, digest in cases:
            print(label, digest)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
