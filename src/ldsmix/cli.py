"""Command line interface: simulate, fit, eval, sweep."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DecompositionError, DegenerateMixtureError
from .evaluate import (DEFAULT_METHODS, METHODS, SweepConfig, match_components, run_sweep, write_levels,
                       write_records_csv, write_series)
from .lds import (NoiseConfig, generate_dataset, load_dataset, load_mixture, mixture_sigma_k,
                  random_mixture, save_dataset, save_mixture)
from .pipeline import estimate_text, ho_kalman, load_estimate, mlds_fit
from .util import atomic_write_text, format_rows

EXIT_OK = 0
EXIT_VALIDATION = 2
# an error exits with the code of the first type here that it is an instance of;
# ValueError covers InsufficientLengthError and file parse errors
_EXIT_CODES = {DegenerateMixtureError: 3, DecompositionError: 4, ValueError: EXIT_VALIDATION, OSError: 5}

_EVAL_CSV_HEADER = "K,L,mean_error,mean_weight_error"


def _int_list(text):
    vals = tuple(int(tok) for tok in str(text).split(",") if tok.strip() != "")
    if not vals:
        raise ValueError("expected a comma-separated list of integers")
    return vals


def _str_list(text):
    vals = tuple(tok.strip() for tok in str(text).split(",") if tok.strip() != "")
    if not vals:
        raise ValueError("expected a comma-separated list")
    return vals


def _check(cond, message):
    if not cond:
        raise ValueError(message)


def _add_common(sub, flags):
    if "K" in flags:
        sub.add_argument("--K", type=int, default=3, help="number of mixture components")
    if "n" in flags:
        sub.add_argument("--n", type=int, default=3, help="state dimension of each component")
    if "m" in flags:
        sub.add_argument("--m", type=int, default=1, help="input dimension")
    if "L" in flags:
        sub.add_argument("--L", type=int, default=7, help="Markov horizon")
    if "radius" in flags:
        sub.add_argument("--radius-min", type=float, default=0.6)
        sub.add_argument("--radius-max", type=float, default=0.9)
    if "sigma_u" in flags:
        sub.add_argument("--sigma-u", type=float, default=1.0, help="input standard deviation")
    if "noise" in flags:
        sub.add_argument("--sigma-w1", type=float, default=0.01, help="process noise standard deviation")
        sub.add_argument("--sigma-w2", type=float, default=0.01, help="measurement noise standard deviation")
    if "seed" in flags:
        sub.add_argument("--seed", type=int, default=0)
    if "tpm" in flags:
        sub.add_argument("--restarts", type=int, default=None, help="power method restarts per round (default 20K)")
        sub.add_argument("--iters", type=int, default=100, help="power method iterations")
    sub.add_argument("--config", default=None, help="flat key=value file; explicit flags win")


def _build_parser():
    parser = argparse.ArgumentParser(prog="ldsmix", allow_abbrev=False,
                                     description="Mixtures of linear dynamical systems: "
                                                 "simulate, fit, eval, sweep.")
    subs = parser.add_subparsers(dest="command")

    sim = subs.add_parser("simulate", allow_abbrev=False,
                          help="draw a random mixture and a trajectory dataset from it")
    sim.add_argument("--N", type=int, default=1000, help="number of trajectories")
    sim.add_argument("--T", type=int, default=96, help="trajectory length")
    sim.add_argument("--out", default=None, help="output prefix; writes <out>.mixture.txt and <out>.dataset.txt")
    _add_common(sim, ("K", "n", "m", "L", "radius", "sigma_u", "noise", "seed"))
    sim.set_defaults(func=cmd_simulate)

    fit = subs.add_parser("fit", allow_abbrev=False, help="fit a mixture estimate to a dataset file")
    fit.add_argument("--data", default=None, help="input dataset file")
    fit.add_argument("--out", default=None, help="output estimate file")
    fit.add_argument("--refine", action="store_true", help="refine weights against the first moment")
    fit.add_argument("--ho-kalman", type=int, default=None, metavar="ORDER",
                     help="append order-ORDER state-space realizations per component")
    _add_common(fit, ("K", "L", "sigma_u", "seed", "tpm"))
    fit.set_defaults(func=cmd_fit)

    ev = subs.add_parser("eval", allow_abbrev=False, help="score an estimate file against a true mixture file")
    ev.add_argument("--estimate", default=None, help="estimate file from fit")
    ev.add_argument("--mixture", default=None, help="true mixture file")
    ev.add_argument("--L", type=int, default=None, help="optional check against the estimate's horizon")
    ev.add_argument("--csv", default=None, help="append a summary row to this CSV")
    ev.add_argument("--config", default=None, help="flat key=value file; explicit flags win")
    ev.set_defaults(func=cmd_eval)

    sw = subs.add_parser("sweep", allow_abbrev=False, help="run an N x T grid of trials and write CSV + summaries")
    sw.add_argument("--N", type=_int_list, default=(100, 1000), help="comma-separated trajectory counts")
    sw.add_argument("--T", type=_int_list, default=(24, 96), help="comma-separated trajectory lengths")
    sw.add_argument("--num-seeds", type=int, default=5, help="number of trial seeds")
    sw.add_argument("--methods", type=_str_list, default=DEFAULT_METHODS,
                    help=f"comma-separated subset of {','.join(METHODS)}")
    sw.add_argument("--out", default=None, help="output prefix; writes <out>.csv, <out>_series.txt, <out>_levels.txt")
    _add_common(sw, ("K", "n", "m", "L", "radius", "sigma_u", "noise", "seed", "tpm"))
    sw.set_defaults(func=cmd_sweep)

    return parser, subs.choices


def _load_config(path):
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            cfg[key] = val
    return cfg


def _config_bool(text):
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off in any case, got {text!r}")
    return word in ("1", "true", "yes", "on")


def _apply_config(sub, cfg):
    """Make a config dict the subcommand's defaults, so flags given on the command line win."""
    actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
    values = {}
    for key, raw in cfg.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        action = actions[key]
        convert = _config_bool if isinstance(action, argparse._StoreTrueAction) else action.type
        try:
            values[key] = raw if convert is None else convert(raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    sub.set_defaults(**values)


def _validate_common(args):
    for name in ("K", "n", "m", "L", "N", "T"):
        if hasattr(args, name) and isinstance(getattr(args, name), int):
            _check(getattr(args, name) >= 1, f"--{name} must be >= 1")
    if getattr(args, "seed", 0) is not None and hasattr(args, "seed"):
        _check(args.seed >= 0, "--seed must be >= 0")
    if hasattr(args, "radius_min"):
        _check(0.0 < args.radius_min <= args.radius_max < 1.0,
               "need 0 < --radius-min <= --radius-max < 1")
    if hasattr(args, "restarts") and args.restarts is not None:
        _check(args.restarts >= 1, "--restarts must be >= 1")
    if hasattr(args, "iters"):
        _check(args.iters >= 1, "--iters must be >= 1")


def _noise(args):
    return NoiseConfig(args.sigma_u, args.sigma_w1, args.sigma_w2)


def cmd_simulate(args) -> int:
    _validate_common(args)
    _check(args.out, "--out is required")
    noise = _noise(args)
    model = random_mixture(args.K, args.n, args.m, args.L,
                           (args.radius_min, args.radius_max), seed=args.seed)
    data = generate_dataset(model, args.N, args.T, noise, seed=args.seed)
    mix_path = f"{args.out}.mixture.txt"
    data_path = f"{args.out}.dataset.txt"
    save_mixture(mix_path, model)
    save_dataset(data_path, data)
    print(f"sigma_K(M2) at L={args.L}: {mixture_sigma_k(model, args.L):.6g}")
    print(f"wrote {mix_path}")
    print(f"wrote {data_path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    _validate_common(args)
    _check(args.data, "--data is required")
    _check(args.out, "--out is required")
    _check(args.sigma_u > 0.0, "--sigma-u must be positive")
    if args.ho_kalman is not None:
        _check(args.ho_kalman >= 1, "--ho-kalman order must be >= 1")
        _check(args.L >= 2 * args.ho_kalman + 1,
               f"--ho-kalman order {args.ho_kalman} needs L >= {2 * args.ho_kalman + 1}")
    data = load_dataset(args.data)
    est = mlds_fit(data, args.L, args.K, sigma_u=args.sigma_u, n_restarts=args.restarts,
                   n_iters=args.iters, seed=args.seed, refine=args.refine)
    text = estimate_text(est, args.L, data.m)
    if args.ho_kalman is not None:
        extra = []
        for k in range(est.K):
            try:
                ss = ho_kalman(est.coeffs[k].reshape(args.L, data.m), args.ho_kalman)
            except ValueError as exc:
                extra.append(f"realization {k} failed: {exc}")
                continue
            extra += [f"realization {k} order {args.ho_kalman}",
                      format_rows(ss.A), format_rows(ss.B), format_rows(ss.C)]
        text += "\n".join(extra) + "\n"
    atomic_write_text(args.out, text)
    for note in est.warnings:
        print(f"warning: {note}")
    print("weights: " + " ".join(f"{w:.6g}" for w in est.weights))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check(args.estimate, "--estimate is required")
    _check(args.mixture, "--mixture is required")
    fresh = not args.csv or not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
    lead = _EVAL_CSV_HEADER + "\n" if fresh else ""
    if not fresh:
        with open(args.csv, "rb") as fh:
            _check(fh.readline().rstrip(b"\r\n") == _EVAL_CSV_HEADER.encode(),
                   f"{args.csv}: line 1 is not the header {_EVAL_CSV_HEADER!r}; not appending")
            fh.seek(-1, os.SEEK_END)
            if fh.read() != b"\n":  # the row starts a line of its own
                lead = "\n"
    est, L, m = load_estimate(args.estimate)
    if args.L is not None:
        _check(args.L == L, f"--L {args.L} does not match the estimate horizon L={L}")
    model = load_mixture(args.mixture)
    _check(model.input_dim == m, "mixture input dimension does not match the estimate")
    mr = match_components(est, model, L)
    for k in range(model.K):
        print(f"component {k}: estimate {mr.permutation[k]} "
              f"error {mr.component_errors[k]:.9g} weight_error {mr.weight_errors[k]:.9g}")
    print(f"mean_error {mr.mean_error:.9g}")
    print(f"mean_weight_error {mr.mean_weight_error:.9g}")
    if args.csv:
        row = f"{model.K},{L},{mr.mean_error:.9g},{mr.mean_weight_error:.9g}"
        with open(args.csv, "a") as fh:
            fh.write(lead + row + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _validate_common(args)
    _check(args.out, "--out is required")
    cfg = SweepConfig(K=args.K, n=args.n, m=args.m, L=args.L,
                      N_values=tuple(args.N), T_values=tuple(args.T),
                      seeds=tuple(range(args.seed, args.seed + args.num_seeds)),
                      methods=tuple(args.methods), noise=_noise(args),
                      radius_range=(args.radius_min, args.radius_max),
                      n_restarts=args.restarts, n_iters=args.iters)
    records = run_sweep(cfg)
    csv_path = f"{args.out}.csv"
    series_path = f"{args.out}_series.txt"
    levels_path = f"{args.out}_levels.txt"
    write_records_csv(csv_path, records)
    write_series(series_path, records)
    write_levels(levels_path, records, method=METHODS[0] if METHODS[0] in cfg.methods else cfg.methods[0])
    n_ok = sum(r.status == "ok" for r in records)
    print(f"{len(records)} records ({n_ok} ok, {len(records) - n_ok} failed)")
    for p in (csv_path, series_path, levels_path):
        print(f"wrote {p}")
    return EXIT_OK


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    try:
        if getattr(args, "config", None):
            _apply_config(subparsers[args.command], _load_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
