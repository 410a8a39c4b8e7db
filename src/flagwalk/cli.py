"""Command-line experiment harness.

Each subcommand runs one experiment kind and writes three artifacts into the
output directory: report.json (results; deterministic given seed + config),
series.csv (the data series behind the report), and manifest.json (resolved
config + versions + wall clock).  Exit code 0 = pass, 2 = tolerance failure,
1 = configuration error.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
# detect_cone is unused here but stays importable: perfbench/spans.py traces it
from .boundary import detect_cone, invariant_arc  # noqa: F401
from .bundle_walk import BundlePoint, cesaro_distribution, \
    decomposability_experiment, equidist_experiment, ldp_tail, lyapunov, \
    renewal_sum
from .classifier import classify
from .cocycles import AlphaCocycle, arc_section, cross_ratio
from .config import KINDS, ExperimentConfig
from .errors import ConfigurationError, FlagwalkError, PreconditionError
from .examples import closed_geodesic_point, list_examples
from .fiber import capped_shortest


def _bump(U, s):
    """Canned renewal observable: cos^2(pi s / 2) on |s| <= 1, independent of
    the boundary point; integrates to 1 in s."""
    out = np.zeros(len(s))
    sel = np.abs(s) <= 1.0
    out[sel] = np.cos(0.5 * math.pi * s[sel]) ** 2
    return out


# --------------------------------------------------------------------------
# experiment runners: each returns (report dict, series rows, header, passed)


def _run_classify(cfg):
    fc, emb, expected = cfg.build_geometry()
    label = classify(fc, emb)
    passed = expected is None or label.label == expected
    report = {"label": label.label, "diagnostics": label.diagnostics,
              "expected": expected, "deterministic": True}
    rows = [(k, v) for k, v in sorted(label.diagnostics.items())]
    return report, rows, "key,value", passed

def _run_walk(cfg):
    mu = cfg.build_measure()
    sec = arc_section(invariant_arc(mu))
    f = capped_shortest(cfg.cap)
    theta0 = cfg.theta0 if cfg.theta0 is not None else sec.ref
    x = BundlePoint(np.asarray(theta0, dtype=float),
                    closed_geodesic_point()[0])
    res = cesaro_distribution(mu, x, cfg.n, cfg.trials, f,
                              AlphaCocycle(sec), seed=cfg.seed)
    report = {"cesaro_mean": res.mean, "std_error": res.report.std_error,
              "trials": cfg.trials, "steps": cfg.n,
              "record_stride": res.record_stride, "observable": f.name}
    vals = res.measure.values
    base = res.base_angles
    stride = max(1, len(vals) // 5000)
    rows = [(i, float(base[i]), float(vals[i]))
            for i in range(0, len(vals), stride)]
    return report, rows, "index,base_angle,value", True

def _run_lyapunov(cfg):
    mu = cfg.build_measure()
    res = lyapunov(mu, n=cfg.n, trials=cfg.trials, seed=cfg.seed)
    report = {"estimate": res.estimate, "std_error": res.std_error,
              "trials": res.trials, "steps": res.steps,
              "deterministic": bool(res.extra.get("deterministic", False))}
    return report, [("estimate", res.estimate)], "key,value", True

def _run_ldp(cfg):
    mu = cfg.build_measure()
    res = ldp_tail(mu, eps1=cfg.eps1,
                   n_grid=tuple(cfg.n_grid) if cfg.n_grid else None,
                   trials=cfg.trials, seed=cfg.seed)
    passed = np.isfinite(res.r2) and res.slope < 0 and res.r2 >= 0.9
    report = {"slope": res.slope, "intercept": res.intercept, "r2": res.r2,
              "eps1": res.eps1, "lyapunov": res.lam, "trials": res.trials,
              "std_error": None}
    rows = [(n, p, int(ub)) for n, p, ub in res.rows]
    return report, rows, "n,tail,upper_bound", passed

def _run_renewal(cfg):
    mu = cfg.build_measure()
    lam = lyapunov(mu, n=2000, trials=200, seed=cfg.seed + 101).estimate
    ldp = ldp_tail(mu, trials=min(cfg.trials, 20000), seed=cfg.seed + 202,
                   lam=lam)
    res = renewal_sum(mu, _bump, (1.0, 0.0), cfg.t, k_max=cfg.k_max,
                      trials=cfg.trials, seed=cfg.seed, lam=lam, ldp=ldp,
                      f_max=1.0)
    expected = 1.0 / lam   # the bump integrates to 1 and ignores the base
    rel = abs(res.estimate - expected) / expected
    passed = rel <= 0.05
    report = {"estimate": res.estimate, "std_error": res.std_error,
              "expected": expected, "relative_error": rel,
              "truncation_bound": res.truncation_bound,
              "truncation_warning": res.truncation_warning,
              "k_max": res.k_max, "lyapunov": lam, "t": cfg.t,
              "trials": cfg.trials}
    rows = [(k, v) for k, v in sorted(report.items())]
    return report, rows, "key,value", passed

def _run_drift(cfg):
    mu = cfg.build_measure()
    if cfg.words is not None:
        unknown = set(cfg.words) - {"a", "a_prime", "b", "b_prime"}
        if unknown:
            raise ConfigurationError(
                f"unknown words key(s): {', '.join(sorted(unknown))}")
        words = {k: [np.array(m, dtype=float) for m in v]
                 for k, v in cfg.words.items()}
    else:
        mats = mu.matrices
        if len(mats) < 2:
            raise ConfigurationError("drift needs two distinct atoms or "
                                     "explicit words")
        words = {"a": [mats[0]], "a_prime": [mats[1]],
                 "b": [mats[0]], "b_prime": [mats[1]]}
    value = cross_ratio(words["a"], words["a_prime"], words["b"],
                        words["b_prime"], n=cfg.n, m=cfg.n,
                        past_len=cfg.past_len,
                        match_threshold=cfg.match_threshold)
    report = {"cross_ratio": value, "n": cfg.n, "past_len": cfg.past_len,
              "match_threshold": cfg.match_threshold, "deterministic": True}
    return report, [("cross_ratio", value)], "key,value", True

def _run_equidist(cfg):
    mu = cfg.build_measure()
    z0 = closed_geodesic_point()[0]
    res = equidist_experiment(mu, z0, theta0=cfg.theta0, n=cfg.n,
                              trials=cfg.trials, dt=cfg.dt, cap=cfg.cap,
                              seed=cfg.seed, ks_tol=cfg.ks_tol,
                              corr_tol=cfg.corr_tol)
    report = {"ks": res.ks, "ks_tol": cfg.ks_tol,
              "correlation": res.correlation, "corr_tol": cfg.corr_tol,
              "lyapunov": res.lam, "t": res.t, "cone": res.cone,
              "cesaro_mean": res.cesaro_mean, "orbit_mean": res.orbit_mean,
              "std_error": None, "steps": cfg.n, "trials": cfg.trials}
    rows = [(k, v) for k, v in sorted(report.items())]
    return report, rows, "key,value", res.passed

def _run_decompose(cfg):
    mu = cfg.build_measure()
    z0 = closed_geodesic_point()[0]
    theta0 = cfg.theta0 if cfg.theta0 is not None else (1.0, 0.0)
    res = decomposability_experiment(mu, lambda g: g, z0, theta0=theta0,
                                     n=cfg.n, trials=cfg.trials,
                                     seed=cfg.seed, cap=cfg.cap,
                                     ks_tol=cfg.ks_tol)
    report = {"ks": res.ks, "ks_tol": cfg.ks_tol, "steps": cfg.n,
              "trials": cfg.trials, "std_error": None}
    rows = [(k, v) for k, v in sorted(report.items())]
    return report, rows, "key,value", res.passed


_RUNNERS = {
    "classify": _run_classify,
    "walk": _run_walk,
    "lyapunov": _run_lyapunov,
    "ldp": _run_ldp,
    "renewal": _run_renewal,
    "drift": _run_drift,
    "equidist": _run_equidist,
    "decompose": _run_decompose,
}


# --------------------------------------------------------------------------
# artifact writing


def _write_artifacts(out_dir, cfg, report, rows, header, passed, wall):
    os.makedirs(out_dir, exist_ok=True)
    report = dict(report)
    report["kind"] = cfg.kind
    report["seed"] = cfg.seed
    report["passed"] = bool(passed)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "series.csv"), "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    manifest = {
        "config": cfg.resolved(),
        "versions": {"flagwalk": __version__,
                     "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "seed": cfg.seed,
        "wall_clock": wall,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def run(cfg, out_dir="."):
    """Run one experiment config; returns (exit code, report dict)."""
    cfg.apply_example_defaults()
    cfg.apply_kind_defaults()
    t0 = time.perf_counter()
    report, rows, header, passed = _RUNNERS[cfg.kind](cfg)
    wall = time.perf_counter() - t0
    report = _write_artifacts(out_dir, cfg, report, rows, header, passed, wall)
    return (0 if passed else 2), report


# --------------------------------------------------------------------------
# argument parsing


_OVERRIDES = [
    # (flag, config field, type)
    ("--steps", "n", int),
    ("--trials", "trials", int),
    ("--eps1", "eps1", float),
    ("--t", "t", float),
    ("--dt", "dt", float),
    ("--cap", "cap", float),
    ("--k-max", "k_max", int),
    ("--ks-tol", "ks_tol", float),
    ("--corr-tol", "corr_tol", float),
    ("--past-len", "past_len", int),
    ("--match-threshold", "match_threshold", float),
]


def _build_parser():
    p = argparse.ArgumentParser(
        prog="flagwalk",
        description="Random-walk and classification experiments on flag "
                    "bundles with lattice fibres.")
    sub = p.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", help="JSON config file (or a manifest)")
        sp.add_argument("--example", help="canned example name")
        sp.add_argument("--seed", type=int, help="RNG seed (u64)")
        sp.add_argument("--out", default=".", help="output directory")
        for flag, dest, typ in _OVERRIDES:
            sp.add_argument(flag, dest="ov_" + dest, type=typ, default=None,
                            help=argparse.SUPPRESS)
    sub.add_parser("list-examples", help="print the canned example catalog")
    return p


def _config_from_args(args):
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.kind != args.command:
            raise ConfigurationError(
                f"config kind {cfg.kind!r} does not match subcommand "
                f"{args.command!r}")
    else:
        cfg = ExperimentConfig(kind=args.command)
    if args.example is not None:
        cfg.example = args.example
    if args.seed is not None:
        cfg.seed = int(args.seed)
    for _, dest, _typ in _OVERRIDES:
        val = getattr(args, "ov_" + dest, None)
        if val is not None:
            setattr(cfg, dest, val)
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "list-examples":
        for ex in list_examples():
            print(f"{ex.name:<20} {ex.expected_case:<9} {ex.description}")
            if ex.defaults:
                print(f"{'':<20} defaults: "
                      + ", ".join(f"{k}={v}" for k, v in sorted(ex.defaults.items())))
        return 0
    try:
        cfg = _config_from_args(args)
        code, report = run(cfg, out_dir=args.out)
    except (ConfigurationError, PreconditionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FlagwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {k: report[k] for k in ("kind", "passed")}
    for key in ("label", "estimate", "ks", "slope", "cross_ratio",
                "cesaro_mean"):
        if key in report:
            summary[key] = report[key]
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
