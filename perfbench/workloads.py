"""The three benchmark workloads: their inputs, their ops and their oracles.

A workload is a fixed list of ops.  Each op is timed on its own; its output
gets a digest (compared across repeats and between traced and untraced runs)
and, once per run and outside every timed region, an independent oracle.

All inputs, including every op seed, come from the workload seed, so the same
seed gives the same inputs.  The program receives only those inputs.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from flagwalk import boundary, classifier, cli, cocycles, group_core
from flagwalk.config import ExperimentConfig
from flagwalk.examples import default_measure, list_examples, volatile_measure

# Op sizes.  Each workload's op list runs in a few seconds, so one run of the
# benchmark repeats it several times and reports medians.
SIZES = {
    "cone-fibre": {
        "equidist": {"example": "ex-reducible", "n": 2500, "trials": 200},
        "decompose": {"example": "ex-principal-sl3", "n": 2000, "trials": 50},
        "p1p2": {"angles": 3, "trials": 1000, "horizon": 200},
    },
    "volatile-tails": {
        "lyapunov": {"n": 2000, "trials": 1000},
        "ldp": {"trials": 5000},
        "renewal": {"t": 25.0, "trials": 6000, "k_max": 2600},
    },
    "algebra-exact": {
        "kan": {"per_dim": 2500, "dims": [2, 3]},
        "cocycle": {"triples": 1000, "handles": 6},
        "highest_weight": {"pairs": 2000},
        "classify": {"examples": len(list_examples())},
        "drift": {"quads": 50, "n": 60, "past_len": 60},
    },
}

# Which end-to-end slot metric each op's time counts toward.
SLOTS = {
    "cone-fibre": {"equidist": "op1_s", "decompose": "op2_s", "p1p2": "op3_s"},
    "volatile-tails": {"lyapunov": "op1_s", "ldp": "op2_s",
                       "renewal": "op3_s"},
    "algebra-exact": {"kan": "op1_s", "cocycle": "op2_s",
                      "highest_weight": "op3_s", "classify": "op3_s",
                      "drift": "op3_s"},
}


@dataclass
class Op:
    """One timed operation of a workload.

    run() is the timed call.  digest(out) and check(out) run outside the
    timed region; check returns (ok, details) from an independent oracle.
    """

    name: str
    slot: str
    sizes: dict
    run: callable
    digest: callable
    check: callable
    notes: dict = field(default_factory=dict)


def _sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _array_digest(*arrays):
    return _sha(*(np.ascontiguousarray(a, dtype=float).tobytes()
                  for a in arrays))


def all_finite(obj):
    """True if every number inside a nested report is finite (None allowed)."""
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return bool(np.all(np.isfinite(obj)))
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    return True


# --------------------------------------------------------------------------
# CLI-driven ops


def _measure_spec(mu):
    return [{"weight": w, "matrix": g.tolist()} for w, g in mu.atoms]


def _cli_op(name, slot, config, out_dir, check):
    """An op that runs one CLI experiment kind through cli.run.

    The config goes through ExperimentConfig.from_dict on every call, so
    config resolution and artifact writing are part of the op, as they are
    for a user of the command line.
    """
    op_dir = os.path.join(out_dir, name)

    def run():
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(config)))
        return cli.run(cfg, out_dir=op_dir)

    def digest(out):
        with open(os.path.join(op_dir, "report.json"), "rb") as fh:
            rep = fh.read()
        with open(os.path.join(op_dir, "series.csv"), "rb") as fh:
            series = fh.read()
        return _sha(rep, series)

    sizes = {k: v for k, v in config.items() if k != "mu"}
    return Op(name, slot, sizes, run, digest, lambda out: check(*out))


def furstenberg_lambda(mu, seed, samples=200000, batches=50):
    """Lyapunov exponent by Furstenberg's formula lambda = sum_w w int log||g u||
    dnu(u), with nu sampled by sample_furstenberg; returns (lambda, std error).

    The standard error comes from batch means, which accounts for the
    correlation along the sampled trajectory.
    """
    nu = boundary.sample_furstenberg(mu, burn_in=2000, samples=samples,
                                     seed=seed)
    u = np.stack([np.cos(nu.values), np.sin(nu.values)], axis=1)
    per = np.zeros(samples)
    for w, g in mu.atoms:
        per += w * np.log(np.linalg.norm(u @ g.T, axis=1))
    means = per[: samples - samples % batches].reshape(batches, -1).mean(axis=1)
    return float(per.mean()), float(means.std(ddof=1) / math.sqrt(batches))


def _volatile_ops(seed, out_dir):
    sizes = SIZES["volatile-tails"]
    slots = SLOTS["volatile-tails"]
    mu = volatile_measure()
    spec = _measure_spec(mu)
    s_lyap, s_ldp, s_ren, s_oracle = (int(s) for s in np.random.default_rng(
        seed).integers(0, 2 ** 31, size=4))
    oracle = {}

    def lam_f():
        if not oracle:
            oracle["lambda"], oracle["std_error"] = furstenberg_lambda(
                mu, s_oracle)
        return oracle["lambda"], oracle["std_error"]

    def check_lyap(code, rep):
        lam, se = lam_f()
        z = abs(rep["estimate"] - lam) / math.hypot(rep["std_error"], se)
        return z <= 5.0, {"estimate": rep["estimate"], "furstenberg": lam,
                          "sigmas": z}

    def check_ldp(code, rep):
        ok = rep["slope"] < 0.0 and rep["r2"] >= 0.9
        return ok, {"slope": rep["slope"], "r2": rep["r2"]}

    def check_renewal(code, rep):
        lam, _ = lam_f()
        rel = abs(rep["estimate"] * lam - 1.0)
        certified = (not rep["truncation_warning"]
                     and rep["truncation_bound"] <= 0.01 * rep["estimate"])
        return rel <= 0.05 and certified, {
            "estimate": rep["estimate"], "expected": 1.0 / lam, "rel": rel,
            "truncation_bound": rep["truncation_bound"]}

    return [
        _cli_op("lyapunov", slots["lyapunov"],
                dict(kind="lyapunov", mu=spec, seed=s_lyap,
                     **sizes["lyapunov"]), out_dir, check_lyap),
        _cli_op("ldp", slots["ldp"],
                dict(kind="ldp", mu=spec, seed=s_ldp, **sizes["ldp"]),
                out_dir, check_ldp),
        _cli_op("renewal", slots["renewal"],
                dict(kind="renewal", mu=spec, seed=s_ren,
                     **sizes["renewal"]), out_dir, check_renewal),
    ]


# --------------------------------------------------------------------------
# cone-fibre


EQUIDIST_NOTE = (
    "ks, cesaro_mean and orbit_mean are recorded, not gated: both means sit "
    "near the Haar mean 1 - 1/pi = 0.6817 instead of the periodic-orbit mean "
    "0.9639, a float64 artifact of the incremental fibre walk (ROADMAP item "
    "1), whose fix is expected to move them")


def _p1p2_se(p, trials):
    """Binomial standard error, floored at one trial so exact 0/1 estimates
    still allow a one-trial discrepancy."""
    return math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)


def _cone_ops(seed, out_dir):
    sizes = SIZES["cone-fibre"]
    slots = SLOTS["cone-fibre"]
    rng = np.random.default_rng(seed)
    s_eq, s_dec, s_p = (int(s) for s in rng.integers(0, 2 ** 31, size=3))
    mu = default_measure()
    ps = sizes["p1p2"]
    # Start angles near the repeller, where p1 lies strictly between 0 and 1
    # and the harmonicity check has something to test: the arc between the
    # directions the atoms contract most, or its antipode.
    weak = []
    for g in mu.matrices:
        w, v = np.linalg.eig(g)
        u = np.real(v[:, np.argmin(np.abs(w))])
        weak.append(math.atan2(u[1], u[0]) % math.pi)
    lo, hi = min(weak), max(weak)
    if hi - lo >= math.pi / 2:
        raise ValueError("contracting directions do not bound a short arc")
    angles = (rng.uniform(lo, hi, size=ps["angles"])
              + math.pi * rng.integers(0, 2, size=ps["angles"]))
    # Every atom is a positive matrix, so the open positive quadrant is an
    # invariant cone: (1, 1) starts inside it and (-1, -1) in its antipode.
    inside = np.array([1.0, 1.0]) / math.sqrt(2.0)
    starts = [inside, -inside]
    for a in angles:
        x = np.array([math.cos(a), math.sin(a)])
        starts.append(x)
        for _, g in mu.atoms:
            gx = g @ x
            starts.append(gx / np.linalg.norm(gx))
    p_seeds = [s_p + i for i in range(len(starts))]

    def run_p1p2():
        return [boundary.estimate_p1p2(mu, x, trials=ps["trials"],
                                       horizon=ps["horizon"], seed=s)
                for x, s in zip(starts, p_seeds)]

    def check_p1p2(out):
        trials = ps["trials"]
        sums_ok = all(abs(p1 + p2 - 1.0) <= 1e-12 for p1, p2 in out)
        ends_ok = out[0] == (1.0, 0.0) and out[1] == (0.0, 1.0)
        worst = 0.0
        weights = [w for w, _ in mu.atoms]
        per = 1 + len(weights)
        for i in range(ps["angles"]):
            block = out[2 + per * i: 2 + per * (i + 1)]
            p = block[0][0]
            images = [q for q, _ in block[1:]]
            resid = p - sum(w * q for w, q in zip(weights, images))
            se = math.sqrt(_p1p2_se(p, trials) ** 2 + sum(
                (w * _p1p2_se(q, trials)) ** 2
                for w, q in zip(weights, images)))
            worst = max(worst, abs(resid) / se)
        return sums_ok and ends_ok and worst <= 5.0, {
            "sums_to_one": sums_ok, "inside_antipode": ends_ok,
            "worst_residual_sigmas": worst,
            "strictly_between": sum(0.0 < p1 < 1.0 for p1, _ in out)}

    def check_equidist(code, rep):
        return True, {k: rep[k] for k in ("ks", "cesaro_mean", "orbit_mean",
                                          "correlation", "lyapunov")}

    def check_decompose(code, rep):
        return rep["ks"] <= rep["ks_tol"] and code == 0, {
            "ks": rep["ks"], "ks_tol": rep["ks_tol"]}

    equidist = _cli_op("equidist", slots["equidist"],
                       dict(kind="equidist", seed=s_eq,
                            **sizes["equidist"]), out_dir, check_equidist)
    equidist.notes["ungated"] = EQUIDIST_NOTE
    p1p2 = Op("p1p2", slots["p1p2"],
              dict(ps, calls=len(starts)), run_p1p2,
              lambda out: _sha(repr(out).encode()), check_p1p2)
    return [
        equidist,
        _cli_op("decompose", slots["decompose"],
                dict(kind="decompose", seed=s_dec, **sizes["decompose"]),
                out_dir, check_decompose),
        p1p2,
    ]


# --------------------------------------------------------------------------
# algebra-exact


def random_det_one(rng, n, count):
    """count random determinant-one n x n matrices."""
    out = []
    while len(out) < count:
        ms = rng.normal(size=(count, n, n))
        ds = np.linalg.det(ms)
        keep = np.abs(ds) > 1e-3
        ms, ds = ms[keep], ds[keep]
        ms[ds < 0, 0] *= -1.0
        ms /= np.abs(ds)[:, None, None] ** (1.0 / n)
        out.extend(ms)
    return out[:count]


def _unit_points(rng, count):
    us = rng.normal(size=(count, 2))
    us[np.linalg.norm(us, axis=1) < 1e-3] = (1.0, 0.0)
    return us


def _form_limit(a, ap, b, bp, n=300):
    """The limit-form expression the drift cross-ratio converges to."""
    vb, vbp = boundary.limit_vector(b, n), boundary.limit_vector(bp, n)
    pa, pap = boundary.limit_form(a, n), boundary.limit_form(ap, n)
    return math.log(abs(pap @ vbp) * abs(pa @ vb)
                    / (abs(pap @ vb) * abs(pa @ vbp)))


def _drift_quads(rng, mats, count):
    quads = []
    while len(quads) < count:
        words = [[mats[i] for i in rng.integers(0, len(mats), size=size)]
                 for size in rng.integers(2, 7, size=4)]
        b, bp = words[2], words[3]
        if len(b) == len(bp) and all(np.array_equal(x, y)
                                     for x, y in zip(b, bp)):
            continue
        quads.append(words)
    return quads


def _algebra_ops(seed):
    sizes = SIZES["algebra-exact"]
    slots = SLOTS["algebra-exact"]
    rng = np.random.default_rng(seed)
    kan_mats = [g for n in sizes["kan"]["dims"]
                for g in random_det_one(rng, n, sizes["kan"]["per_dim"])]
    nt = sizes["cocycle"]["triples"]
    g1s, g2s = random_det_one(rng, 2, nt), random_det_one(rng, 2, nt)
    etas = _unit_points(rng, nt)
    handles = [
        ("alpha-plain", cocycles.AlphaCocycle(cocycles.plain_section())),
        ("alpha-cone", cocycles.AlphaCocycle(cocycles.cone_section((1.0, 1.0)))),
        ("morphism-sym3", cocycles.morphism_cocycle(
            lambda g: group_core.sym_power(g, 3))),
        ("morphism-section", cocycles.morphism_cocycle(
            lambda g: g, sec=cocycles.plain_section())),
        ("conjugated", cocycles.conjugate_cocycle(
            cocycles.morphism_cocycle(lambda g: g),
            lambda u: np.eye(2) + 0.2 * np.outer(u, u))),
        ("trivial", cocycles.morphism_cocycle(None, dim=2, trivial=True)),
    ]
    nh = sizes["highest_weight"]["pairs"]
    hw_g, hw_u = random_det_one(rng, 2, nh), _unit_points(rng, nh)
    rep = group_core.standard_rep()
    catalog = list_examples()
    ds = sizes["drift"]
    quads = _drift_quads(rng, default_measure().matrices, ds["quads"])

    def run_kan():
        return [group_core.iwasawa_decompose(g) for g in kan_mats]

    def check_kan(out):
        worst = max(float(np.max(np.abs(f.reconstruct() - g)))
                    for f, g in zip(out, kan_mats))
        return worst <= 1e-12, {"max_reconstruction_error": worst}

    def run_cocycle():
        return np.array([[cocycles.cocycle_identity_residual(h, g1s[i], g2s[i],
                                                             etas[i])
                          for i in range(nt)] for _, h in handles])

    def check_cocycle(out):
        worst = float(np.max(out))
        return worst <= 1e-9, {"max_residual": worst,
                               "handles": [n for n, _ in handles]}

    def run_hw():
        return np.array([[cocycles.sigma_chi(g, u, rep),
                          cocycles.iwasawa_cocycle(g, u)]
                         for g, u in zip(hw_g, hw_u)])

    def check_hw(out):
        worst = float(np.max(np.abs(out[:, 0] - out[:, 1])))
        return worst <= 1e-10, {"max_difference": worst}

    def run_classify():
        return [classifier.classify(ex.flag, ex.embedding).label
                for ex in catalog]

    def check_classify(out):
        wrong = [ex.name for ex, lab in zip(catalog, out)
                 if lab != ex.expected_case]
        return not wrong, {"mismatched": wrong}

    def run_drift():
        return np.array([cocycles.cross_ratio(a, ap, b, bp, n=ds["n"],
                                              m=ds["n"],
                                              past_len=ds["past_len"])
                         for a, ap, b, bp in quads])

    def check_drift(out):
        worst = max(abs(v - _form_limit(*q)) for v, q in zip(out, quads))
        return worst <= 1e-2, {"max_difference": worst}

    def kan_digest(out):
        return _array_digest(*(m for f in out for m in (f.k, f.a, f.nu)))

    return [
        Op("kan", slots["kan"], sizes["kan"], run_kan, kan_digest, check_kan),
        Op("cocycle", slots["cocycle"], sizes["cocycle"], run_cocycle,
           _array_digest, check_cocycle),
        Op("highest_weight", slots["highest_weight"],
           sizes["highest_weight"], run_hw, _array_digest, check_hw),
        Op("classify", slots["classify"], sizes["classify"], run_classify,
           lambda out: _sha(repr(out).encode()), check_classify),
        Op("drift", slots["drift"], ds, run_drift, _array_digest,
           check_drift),
    ]


def build(workload, seed, out_dir):
    """The op list of a workload, with every input built from the seed."""
    if workload == "cone-fibre":
        return _cone_ops(seed, out_dir)
    if workload == "volatile-tails":
        return _volatile_ops(seed, out_dir)
    if workload == "algebra-exact":
        return _algebra_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
