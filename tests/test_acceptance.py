"""End-to-end acceptance suite.

Fifteen criteria covering the whole package, each printing a single
PASS/FAIL line with its key statistic and runtime.  Scales and tolerances
are fixed here; the faster unit suites cover the same code at small scale.
"""

import math
import time

import numpy as np
import pytest

from flagwalk.boundary import (StepMeasure, convolve_step, estimate_p1p2,
                               invariant_arc, limit_form, limit_vector,
                               sample_furstenberg)
from flagwalk.bundle_walk import (BundlePoint, cesaro_distribution,
                                  decomposability_experiment,
                                  equidist_experiment, ldp_tail, lyapunov,
                                  renewal_sum)
from flagwalk.classifier import classify, induced_morphism
from flagwalk.cocycles import (AlphaCocycle, cocycle_identity_residual,
                               cone_section, conjugate_cocycle, cross_ratio,
                               iwasawa_cocycle, morphism_cocycle,
                               plain_section, sigma_chi)
from flagwalk.examples import (closed_geodesic_point, default_measure,
                               get_example, volatile_measure)
from flagwalk.fiber import capped_shortest
from flagwalk.group_core import (bracket, extend_sl2_triple,
                                 iwasawa_decompose, principal_triple,
                                 standard_rep, sym_power)

# minutes of Monte Carlo: `python -m pytest -m "not slow"` skips this module
pytestmark = pytest.mark.slow


def _line(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")


def _random_det_one(rng, n, count):
    """count random determinant-one n x n matrices, batch-generated."""
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


# ------------------------------------------------------------ shared runs


@pytest.fixture(scope="module")
def volatile_lam():
    return lyapunov(volatile_measure(), n=10000, trials=1000, seed=11).estimate


@pytest.fixture(scope="module")
def volatile_ldp(volatile_lam):
    t0 = time.perf_counter()
    res = ldp_tail(volatile_measure(), trials=100000, seed=12,
                   lam=volatile_lam)
    return res, time.perf_counter() - t0


# ------------------------------------------------------------ 1: iwasawa


def test_criterion_01_iwasawa_reconstruction():
    rng = np.random.default_rng(101)
    mats = _random_det_one(rng, 2, 5000) + _random_det_one(rng, 3, 5000)
    t0 = time.perf_counter()
    facs = [iwasawa_decompose(g) for g in mats]
    dt = time.perf_counter() - t0
    worst = max(float(np.max(np.abs(fac.reconstruct() - g)))
                for fac, g in zip(facs, mats))
    ok = worst <= 1e-12 and dt < 1.0
    _line(1, "iwasawa reconstruction", ok, f"max err {worst:.2e}, {dt:.2f}s")
    assert worst <= 1e-12
    assert dt < 1.0


# ------------------------------------------------------------ 2: identity


def test_criterion_02_cocycle_identity_all_kinds():
    rng = np.random.default_rng(102)
    n_triples = 10000
    g1s = _random_det_one(rng, 2, n_triples)
    g2s = _random_det_one(rng, 2, n_triples)
    etas = rng.normal(size=(n_triples, 2))
    etas[np.linalg.norm(etas, axis=1) < 1e-3] = (1.0, 0.0)
    handles = [
        ("alpha-plain", AlphaCocycle(plain_section())),
        ("alpha-cone", AlphaCocycle(cone_section((1.0, 1.0)))),
        ("morphism-sym3", morphism_cocycle(lambda g: sym_power(g, 3))),
        ("morphism-section", morphism_cocycle(lambda g: g,
                                              sec=plain_section())),
        ("conjugated", conjugate_cocycle(
            morphism_cocycle(lambda g: g),
            lambda u: np.eye(2) + 0.2 * np.outer(u, u))),
        ("trivial", morphism_cocycle(None, dim=2, trivial=True)),
    ]
    worst = 0.0
    slowest = 0.0
    for _, handle in handles:
        t0 = time.perf_counter()
        for i in range(n_triples):
            worst = max(worst, cocycle_identity_residual(
                handle, g1s[i], g2s[i], etas[i]))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst <= 1e-9 and slowest < 5.0
    _line(2, "cocycle identity", ok,
          f"max residual {worst:.2e}, slowest kind {slowest:.2f}s")
    assert worst <= 1e-9
    assert slowest < 5.0


# ------------------------------------------------------------ 3: weights


def test_criterion_03_highest_weight_identity():
    rng = np.random.default_rng(103)
    gs = _random_det_one(rng, 2, 10000)
    us = rng.normal(size=(10000, 2))
    us[np.linalg.norm(us, axis=1) < 1e-3] = (1.0, 0.0)
    rep = standard_rep()
    t0 = time.perf_counter()
    worst = max(abs(sigma_chi(g, u, rep) - iwasawa_cocycle(g, u))
                for g, u in zip(gs, us))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _line(3, "highest-weight identity", ok, f"max diff {worst:.2e}, {dt:.2f}s")
    assert worst <= 1e-10
    assert dt < 5.0


# ------------------------------------------------------------ 4: principal


def test_criterion_04_principal_triple():
    worst_res = 0.0
    for m in range(2, 9):
        t = principal_triple(m)
        assert t.e.dtype == np.int64 and t.x.dtype == np.int64
        assert np.array_equal(bracket(t.x, t.e), 2 * t.e)
        assert np.array_equal(bracket(t.x, t.f), -2 * t.f)
        assert np.array_equal(bracket(t.e, t.f), t.x)
        fbar, res = extend_sl2_triple(np.asarray(t.x, float),
                                      np.asarray(t.e, float))
        assert fbar is not None
        assert np.max(np.abs(fbar - t.f)) <= 1e-8
        worst_res = max(worst_res, res)
    ok = worst_res <= 1e-10
    _line(4, "principal triple", ok,
          f"exact brackets m<=8, extension residual {worst_res:.2e}")
    assert worst_res <= 1e-10


# ------------------------------------------------------------ 5: obstruction


def _extension_residual_oracle(xb, eb):
    """Least-squares oracle: minimal joint residual of [x,f]+2f = 0 and
    [e,f] = x over all f, via stacked Kronecker operators (row-major vec)."""
    n = xb.shape[0]
    eye = np.eye(n)
    ad_x = np.kron(xb, eye) - np.kron(eye, xb.T)
    ad_e = np.kron(eb, eye) - np.kron(eye, eb.T)
    A = np.vstack([ad_x + 2.0 * np.eye(n * n), ad_e])
    b = np.concatenate([np.zeros(n * n), xb.ravel()])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ sol - b))


# regression value frozen from the oracle's first run: sqrt(2/3)
FROZEN_OBSTRUCTED_RESIDUAL = 0.8164965809277260


def test_criterion_05_non_extendability():
    ex = get_example("ex-to-be-treated")
    blocks = induced_morphism(ex.flag, ex.embedding)
    # the obstructed 3x3 block of the canned non-decomposable example
    xb, eb = next((x, e) for x, e in blocks if x.shape[0] == 3)
    oracle = _extension_residual_oracle(xb, eb)
    fbar, res = extend_sl2_triple(xb, eb)
    ok = fbar is None and abs(res - oracle) <= 1e-9 \
        and abs(res - FROZEN_OBSTRUCTED_RESIDUAL) <= 1e-9
    _line(5, "non-extendability", ok,
          f"residual {res:.10f}, oracle {oracle:.10f}")
    assert fbar is None
    assert abs(res - oracle) <= 1e-9
    assert abs(res - FROZEN_OBSTRUCTED_RESIDUAL) <= 1e-9


# ------------------------------------------------------------ 6: classifier


def test_criterion_06_classifier_corpus():
    expected = {
        "ex-reducible": "Case2_2",
        "ex-case-2.1-1": "Case2_1",
        "ex-to-be-treated": "Case2_3b",
        "ex-principal-sl3": "Case2_3a",
    }
    t0 = time.perf_counter()
    got = {}
    for name in expected:
        ex = get_example(name)
        got[name] = classify(ex.flag, ex.embedding).label
    dt = time.perf_counter() - t0
    ok = got == expected and dt < 1.0
    _line(6, "classifier corpus", ok, f"{got}, {dt:.2f}s")
    assert got == expected
    assert dt < 1.0


# ------------------------------------------------------------ 7: stationarity


def test_criterion_07_furstenberg_stationarity():
    t0 = time.perf_counter()
    worst = 0.0
    for mu in (default_measure(), volatile_measure()):
        nu = sample_furstenberg(mu, burn_in=2000, samples=100000, seed=7)
        worst = max(worst, nu.wasserstein1(convolve_step(mu, nu)))
    dt = time.perf_counter() - t0
    ok = worst <= 0.02 and dt < 30.0
    _line(7, "furstenberg stationarity", ok, f"max W1 {worst:.4f}, {dt:.1f}s")
    assert worst <= 0.02
    assert dt < 30.0


# ------------------------------------------------------------ 8: limit form


def test_criterion_08_limit_form_identity():
    rng = np.random.default_rng(108)
    mats = default_measure().matrices
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        word = [mats[i] for i in rng.integers(0, len(mats), size=60)]
        phi = limit_form(word, 600)
        v0 = rng.normal(size=2)
        w0 = rng.normal(size=2)
        # ||A v|| / ||A w|| with running renormalization to avoid overflow;
        # letters apply on the left in word order, matching limit_form
        v, w = v0.copy(), w0.copy()
        log_ratio = 0.0
        for g in word:
            v, w = g @ v, g @ w
            nv, nw = np.linalg.norm(v), np.linalg.norm(w)
            log_ratio += math.log(nv / nw)
            v, w = v / nv, w / nw
        ratio = math.exp(log_ratio)
        target = abs(float(phi @ v0)) / abs(float(phi @ w0))
        worst = max(worst, abs(ratio - target))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-2 and dt < 10.0
    _line(8, "limit-form identity", ok, f"max diff {worst:.2e}, {dt:.1f}s")
    assert worst <= 1e-2
    assert dt < 10.0


# ------------------------------------------------------------ 9: cross-ratio


def _form_limit(a, ap, b, bp, n=300):
    vb, vbp = limit_vector(b, n), limit_vector(bp, n)
    pa, pap = limit_form(a, n), limit_form(ap, n)
    return math.log(abs(pap @ vbp) * abs(pa @ vb)
                    / (abs(pap @ vb) * abs(pa @ vbp)))


def test_criterion_09_cross_ratio_convergence():
    rng = np.random.default_rng(109)
    mats = default_measure().matrices
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 50:
        words = []
        for size in rng.integers(2, 7, size=4):
            words.append([mats[i] for i in rng.integers(0, 2, size=size)])
        a, ap, b, bp = words
        if len(b) == len(bp) and all(np.array_equal(x, y)
                                     for x, y in zip(b, bp)):
            continue
        cr = cross_ratio(a, ap, b, bp, n=60, m=60, past_len=60)
        worst = max(worst, abs(cr - _form_limit(a, ap, b, bp)))
        done += 1
    deg1 = cross_ratio([mats[0]], [mats[1]], words[2], words[2])
    deg2 = cross_ratio([mats[0]], [mats[0]], words[2], words[3], n=50, m=50)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-2 and deg1 == 0.0 and deg2 == 0.0 and dt < 30.0
    _line(9, "cross-ratio convergence", ok,
          f"max diff {worst:.2e}, degenerates ({deg1}, {deg2}), {dt:.1f}s")
    assert worst <= 1e-2
    assert deg1 == 0.0 and deg2 == 0.0
    assert dt < 30.0


# ------------------------------------------------------------ 10: lyapunov


def test_criterion_10_lyapunov():
    t0 = time.perf_counter()
    det = lyapunov(StepMeasure(((1.0, np.diag([2.0, 0.5])),)))
    assert det.estimate == math.log(2.0) and det.std_error == 0.0
    par = lyapunov(StepMeasure(((1.0, np.array([[1.0, 5.0], [0.0, 1.0]])),)))
    assert abs(par.estimate) <= 1e-12
    mu = default_measure()
    a = lyapunov(mu, n=10000, trials=1000, seed=1)
    b = lyapunov(mu, n=10000, trials=1000, seed=2 ** 32)
    gap = abs(a.estimate - b.estimate)
    bound = 3.0 * math.hypot(a.std_error, b.std_error)
    dt = time.perf_counter() - t0
    ok = gap <= bound and dt < 60.0
    _line(10, "lyapunov", ok,
          f"delta cases exact, seed gap {gap:.2e} <= {bound:.2e}, {dt:.1f}s")
    assert gap <= bound
    assert dt < 60.0


# ------------------------------------------------------------ 11: tails


def test_criterion_11_large_deviation_tails(volatile_ldp):
    res, dt = volatile_ldp
    grid = tuple(n for n, _, _ in res.rows)
    ok = grid == tuple(range(200, 2001, 200)) and res.trials == 100000 \
        and res.slope < 0.0 and res.r2 >= 0.9 and dt < 300.0
    _line(11, "large-deviation tails", ok,
          f"slope {res.slope:.5f}, r2 {res.r2:.3f}, {dt:.1f}s")
    assert grid == tuple(range(200, 2001, 200))
    assert res.slope < 0.0
    assert res.r2 >= 0.9
    assert dt < 300.0


# ------------------------------------------------------------ 12: renewal


def test_criterion_12_renewal(volatile_lam, volatile_ldp):
    def bump(U, s):
        out = np.zeros(len(s))
        sel = np.abs(s) <= 1.0
        out[sel] = np.cos(0.5 * math.pi * s[sel]) ** 2
        return out

    t0 = time.perf_counter()
    res = renewal_sum(volatile_measure(), bump, (1.0, 0.0), 25.0, k_max=2600,
                      trials=20000, seed=112, lam=volatile_lam,
                      ldp=volatile_ldp[0], f_max=1.0)
    dt = time.perf_counter() - t0
    expected = 1.0 / volatile_lam   # the bump integrates to 1 in s
    rel = abs(res.estimate - expected) / expected
    certified = (not res.truncation_warning) \
        and res.truncation_bound <= 0.01 * res.estimate
    ok = rel <= 0.05 and certified and dt < 300.0
    _line(12, "renewal sum", ok,
          f"estimate {res.estimate:.3f} vs {expected:.3f} (rel {rel:.3f}), "
          f"truncation {res.truncation_bound:.2e}, {dt:.1f}s")
    assert rel <= 0.05
    assert certified
    assert dt < 300.0


# ------------------------------------------------------------ 13: equidist


def test_criterion_13_equidistribution():
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    t0 = time.perf_counter()
    res = equidist_experiment(mu, z0, n=100000, trials=200, dt=0.05,
                              cap=1.0, seed=13, ks_tol=0.05, corr_tol=0.05)
    res4 = equidist_experiment(mu, z0, n=400000, trials=200, dt=0.05,
                               cap=1.0, seed=13, ks_tol=0.05, corr_tol=0.05)
    dt = time.perf_counter() - t0
    ok = res.ks <= 0.05 and res.correlation <= 0.05 \
        and res4.ks <= res.ks and dt < 900.0
    _line(13, "equidistribution", ok,
          f"ks {res.ks:.4f} -> {res4.ks:.4f} (n x4), "
          f"corr {res.correlation:.4f}, {dt:.1f}s")
    assert res.ks <= 0.05
    assert res.correlation <= 0.05
    assert res4.ks <= res.ks
    assert dt < 900.0


# ------------------------------------------------------------ 14: decompose


def test_criterion_14_decomposability():
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    t0 = time.perf_counter()
    res = decomposability_experiment(mu, lambda g: g, z0, n=100000,
                                     trials=50, seed=14, cap=1.0,
                                     ks_tol=0.05)
    f = capped_shortest(1.0)
    dirac = cesaro_distribution(mu, BundlePoint((1.0, 0.0), z0), 100000, 5,
                                f, morphism_cocycle(None, dim=2, trivial=True),
                                seed=14)
    exact = bool(np.all(dirac.measure.values == f(z0)))
    dt = time.perf_counter() - t0
    ok = res.ks <= 0.05 and exact and dt < 600.0
    _line(14, "decomposability", ok,
          f"ks {res.ks:.4f}, trivial-cocycle fibre Dirac: {exact}, {dt:.1f}s")
    assert res.ks <= 0.05
    assert res.passed
    assert exact
    assert dt < 600.0


# ------------------------------------------------------------ 15: harmonicity


def test_criterion_15_p1p2_harmonicity():
    mu = default_measure()
    t0 = time.perf_counter()
    worst = 0.0
    angles = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False) + 0.03
    for i, ang in enumerate(angles):
        x = np.array([math.cos(ang), math.sin(ang)])
        p1, _ = estimate_p1p2(mu, x, trials=10000, seed=1500 + i)
        one_step = 0.0
        for j, (wgt, g) in enumerate(mu.atoms):
            gx = g @ x
            gx = gx / np.linalg.norm(gx)
            q1, _ = estimate_p1p2(mu, gx, trials=10000,
                                  seed=1600 + 10 * i + j)
            one_step += wgt * q1
        worst = max(worst, abs(p1 - one_step))
    arc = invariant_arc(mu)
    mid = arc[0] + arc[1] / 2.0
    inside = (math.cos(mid), math.sin(mid))
    top = estimate_p1p2(mu, inside, trials=10000, seed=1700)
    bot = estimate_p1p2(mu, (-inside[0], -inside[1]), trials=10000, seed=1701)
    dt = time.perf_counter() - t0
    ok = worst <= 0.03 and top == (1.0, 0.0) and bot == (0.0, 1.0) \
        and dt < 300.0
    _line(15, "p1/p2 harmonicity", ok,
          f"sup residual {worst:.4f}, boundary {top}/{bot}, {dt:.1f}s")
    assert worst <= 0.03
    assert top == (1.0, 0.0) and bot == (0.0, 1.0)
    assert dt < 300.0
