import json
import math
import re

import mpmath
import numpy as np
import pytest

import flagwalk.bundle_walk
from flagwalk.boundary import StepMeasure, _atom_entries, _block_products, \
    _block_steps, _step_blocks, estimate_p1p2, invariant_arc, limit_form, \
    limit_vector, transfer_spectrum, walk_boundary
from flagwalk.bundle_walk import (BundlePoint, _binned_correlation,
                                  _lattice_walk, cesaro_distribution,
                                  decomposability_experiment,
                                  equidist_experiment, ldp_tail, lyapunov,
                                  renewal_sum, step)
from flagwalk.cocycles import AlphaCocycle, cone_section, cross_ratio, \
    morphism_cocycle, plain_section, unit_vector
from flagwalk.config import ExperimentConfig
from flagwalk.errors import PreconditionError
from flagwalk.examples import closed_geodesic_point, default_measure, \
    mixed_sign_measure, volatile_measure
from flagwalk.fiber import LatticePoint, act, capped_shortest, reduce, \
    reduce_batch, shortest_vector
from flagwalk.group_core import _unit_xy, principal_triple, sym_power


def _cross_ratio(mu, **counts):
    a, b = mu.matrices[:2]
    return cross_ratio([a], [b], [a, b], [b], **counts)


def delta_measure(m):
    return StepMeasure(((1.0, np.asarray(m, dtype=float)),))


# ---------------------------------------------------------------- lyapunov


def test_lyapunov_delta_diagonal_exact():
    rep = lyapunov(delta_measure(np.diag([2.0, 0.5])))
    assert rep.estimate == math.log(2.0)
    assert rep.std_error == 0.0
    assert rep.deterministic


def test_lyapunov_delta_parabolic_zero():
    rep = lyapunov(delta_measure(np.array([[1.0, 5.0], [0.0, 1.0]])))
    assert rep.estimate == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_reproducible_and_seed_consistent():
    mu = default_measure()
    a = lyapunov(mu, n=2000, trials=200, seed=1)
    b = lyapunov(mu, n=2000, trials=200, seed=1)
    c = lyapunov(mu, n=2000, trials=200, seed=2)
    assert a.estimate == b.estimate
    assert abs(a.estimate - c.estimate) <= 3.0 * math.hypot(a.std_error,
                                                            c.std_error)


def test_lyapunov_burn_in_takes_the_fixed_start_bias_away():
    """At the shortest n, 32000 trials and this seed, log ||g_n ... g_1|| / n
    with no burn-in read +5.3 standard errors off the exact lambda, its
    start biasing it by O(1 / n); the estimate must lie within criterion
    10's bound of lambda."""
    mu = default_measure()
    rep = lyapunov(mu, n=1000, trials=32000, seed=2)
    lam = transfer_spectrum(mu).lam
    margin = abs(lam - transfer_spectrum(mu, m=1000).lam)
    assert abs(rep.estimate - lam) <= 4.0 * rep.std_error + margin


_HALF_TWO = np.diag([0.5, 2.0])
_THIRD_THREE = np.diag([1.0 / 3.0, 3.0])


@pytest.mark.parametrize("mats", [
    [_HALF_TWO, _HALF_TWO],
    [_HALF_TWO, _THIRD_THREE],
    [[[0.5, 1.0], [0.0, 2.0]], [[1.0 / 3.0, -1.0], [0.0, 3.0]]],
    [[[2.0, 1.0], [0.0, 0.5]], [[3.0, -1.0], [0.0, 1.0 / 3.0]]],
    [np.eye(2), 2.0 * np.eye(2)],
], ids=["equal_diagonal", "diagonal", "upper_e1_lower", "upper_e1_top",
        "scalars"])
def test_lyapunov_of_a_reducible_measure_is_the_top_exponent(mats):
    """Every atom fixes e1, so the walk from e1 grows at mean log|a|, which
    is the lower exponent in the first three cases; the estimate must be
    the top exponent max(mean log|a|, mean log|d|) of the norm."""
    mu = StepMeasure.uniform([np.asarray(m, dtype=float) for m in mats])
    a = np.mean([math.log(abs(g[0, 0])) for g in mu.matrices])
    d = np.mean([math.log(abs(g[1, 1])) for g in mu.matrices])
    rep = lyapunov(mu, n=2000, trials=200, seed=3)
    assert abs(rep.estimate - max(a, d)) <= 4.0 * rep.std_error + 1e-9


def test_lyapunov_rejects_short_runs():
    with pytest.raises(PreconditionError):
        lyapunov(default_measure(), n=10)


# ---------------------------------------------------------------- ldp


def test_ldp_rows_and_upper_bounds():
    mu = default_measure()
    res = ldp_tail(mu, trials=2000, seed=4, n_grid=(200, 400))
    assert [r[0] for r in res.rows] == [200, 400]
    for n, p, ub in res.rows:
        assert 0.0 < p <= 1.0
        if ub:
            assert p == pytest.approx(3.0 / 2000)


def test_ldp_repeated_grid_point_counts_once():
    # a repeated n gives one row, and the same rows as the distinct grid
    mu = default_measure()
    a = ldp_tail(mu, trials=2000, seed=4, n_grid=(200, 200, 400))
    b = ldp_tail(mu, trials=2000, seed=4, n_grid=(200, 400))
    assert a.rows == b.rows
    assert [r[0] for r in a.rows] == [200, 400]


@pytest.mark.parametrize("n_grid", [(0, 200), (-5, 200, 400)])
def test_ldp_refuses_grid_points_below_one(n_grid):
    # no step is walked at n <= 0, so such a row would report an upper
    # bound of 3 / trials for an event of probability 1
    with pytest.raises(PreconditionError, match="n_grid"):
        ldp_tail(default_measure(), n_grid=n_grid, trials=100, seed=1)


def test_ldp_refuses_eps1_not_above_zero():
    # lambda = 0 makes the default eps1 = lambda / 4 zero, and every trial
    # a tail event
    with pytest.raises(PreconditionError, match="eps1"):
        ldp_tail(delta_measure([[0.0, 1.0], [-1.0, 1.0]]), trials=10, seed=1)
    with pytest.raises(PreconditionError, match="eps1"):
        ldp_tail(default_measure(), eps1=-0.1, trials=10, seed=1)


def test_ldp_strides_by_the_grid_gcd(monkeypatch):
    """ldp_tail walks at stride gcd(n_grid), here 50, below the smallest grid
    point, and counts as a stride-1 replay of the same seed and chunk."""
    mu, grid, trials = volatile_measure(), (150, 400, 1000), 2000
    lam = transfer_spectrum(mu).lam
    strides = []

    def spy(*args):
        strides.append(args[4])
        return walk_boundary(*args)

    monkeypatch.setattr(flagwalk.bundle_walk, "walk_boundary", spy)
    res = ldp_tail(mu, n_grid=grid, trials=trials, seed=6)
    assert strides == [50]
    counts = [0] * len(grid)
    U = np.tile([1.0, 0.0], (trials, 1))   # one chunk of trials
    for k, _, r in walk_boundary(mu, U, grid[-1], np.random.default_rng(6)):
        if k in grid:
            counts[grid.index(k)] += int(np.count_nonzero(
                np.abs(r - lam * k) >= res.eps1 * k))
    assert all(counts)
    assert [round(p * trials) for _, p, _ in res.rows] == counts


def test_ldp_volatile_fit_is_linear():
    res = ldp_tail(volatile_measure(), trials=8000, seed=5,
                   n_grid=tuple(range(200, 1001, 200)))
    assert res.slope < 0.0
    assert res.r2 >= 0.9


# ---------------------------------------------------------------- renewal


def _bump(U, s):
    out = np.zeros(len(s))
    sel = np.abs(s) <= 1.0
    out[sel] = np.cos(0.5 * math.pi * s[sel]) ** 2
    return out


def test_renewal_deterministic_closed_form():
    # single diagonal atom: sigma_k = a k exactly, so the renewal sum is
    # sum_k bump(a k - t), and everything past k_max is identically zero
    a = 0.5
    t = 10.0
    mu = delta_measure(np.diag([math.exp(a), math.exp(-a)]))
    res = renewal_sum(mu, _bump, (1.0, 0.0), t, trials=4, seed=0, radius=1.0)
    closed = sum(math.cos(0.5 * math.pi * (a * k - t)) ** 2
                 for k in range(1, res.k_max + 1) if abs(a * k - t) <= 1.0)
    omitted = sum(math.cos(0.5 * math.pi * (a * k - t)) ** 2
                  for k in range(res.k_max + 1, 10 ** 4)
                  if abs(a * k - t) <= 1.0)
    assert res.estimate == pytest.approx(closed, abs=1e-9)
    assert res.truncation_bound >= omitted
    assert omitted == 0.0
    # the start is the fixed point: Lambda(-1) = -a with ratio 1, so the
    # Chernoff bound is the geometric sum of e^(t + 1 - k a), k > k_max
    assert res.truncation_bound == pytest.approx(
        math.exp(t + 1.0 - (res.k_max + 1) * a) / -math.expm1(-a))
    assert res.lam == a and not res.truncation_warning


@pytest.mark.parametrize("mu, w, radius", [
    (default_measure(), (1.0, -1.0), 1.0),   # in no invariant arc
    (mixed_sign_measure(), (1.0, 0.0), 1.0),  # no invariant arc
    (default_measure(), (1.0, 0.0), None),   # no support radius
])
def test_renewal_without_a_chernoff_bound_warns(mu, w, radius):
    res = renewal_sum(mu, _bump, w, 5.0, trials=50, seed=0, radius=radius,
                      f_max=1.0)
    assert res.truncation_bound == math.inf and res.truncation_warning


@pytest.mark.parametrize("g", [
    [[0.0, 1.0], [-1.0, 1.0]],   # elliptic: lambda = 0
    [[0.5, 0.0], [0.0, 0.6]],    # contracting: lambda = log 0.6
])
def test_renewal_refuses_a_lyapunov_exponent_not_above_zero(g):
    with pytest.raises(PreconditionError, match="positive Lyapunov"):
        renewal_sum(delta_measure(g), _bump, (1.0, 0.0), 5.0, trials=2)


def test_renewal_requires_deep_enough_truncation():
    mu = delta_measure(np.diag([math.e, 1.0 / math.e]))
    with pytest.raises(PreconditionError):
        renewal_sum(mu, _bump, (1.0, 0.0), 10.0, k_max=5, trials=2)


def test_renewal_matches_density_oracle():
    # volatile measure, t large enough for the renewal limit 1/lambda, with
    # lambda exact from the transfer operator
    mu = volatile_measure()
    lam = transfer_spectrum(mu).lam
    res = renewal_sum(mu, _bump, (1.0, 0.0), 25.0, trials=4000, seed=2)
    assert res.lam == lam
    assert res.estimate == pytest.approx(1.0 / lam, rel=0.1)


def _full_horizon_renewal(mu, f, w, t, k_max, trials, seed):
    """renewal_sum's estimate and std_error with all k_max steps walked, and
    the last step at which any term is nonzero."""
    U = np.tile(unit_vector(w), (trials, 1))
    totals = np.zeros(trials)
    last = 0
    for k, _, r in walk_boundary(mu, U, k_max, np.random.default_rng(seed)):
        contrib = f(U, r - t)
        totals += contrib
        if contrib.any():
            last = k
    se = float(np.std(totals, ddof=1) / math.sqrt(trials))
    return float(np.mean(totals)), se, last


@pytest.mark.parametrize("mu, t, k_max, monotone", [
    (volatile_measure(), 25.0, 2600, True),
    (default_measure(), 10.0, None, True),
    (mixed_sign_measure(), 5.0, None, False),   # no arc: m < 0
], ids=["volatile", "default", "mixed_sign"])
def test_renewal_stop_matches_a_full_horizon_replay(mu, t, k_max, monotone):
    res = renewal_sum(mu, _bump, (1.0, 0.0), t, k_max=k_max, trials=500,
                      seed=5, radius=1.0, f_max=1.0)
    est, se, last = _full_horizon_renewal(mu, _bump, (1.0, 0.0), t,
                                          res.k_max, 500, 5)
    assert (res.estimate, res.std_error) == (est, se)   # bit for bit
    assert last <= res.steps <= res.k_max
    if monotone:
        assert res.steps < res.k_max


# ---------------------------------------------------------------- cesaro


def test_step_single():
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    x = BundlePoint((1.0, 0.1), z0)
    handle = AlphaCocycle(plain_section())
    y = step(mu.matrices[0], x, handle)
    assert np.linalg.norm(y.theta) == pytest.approx(1.0)
    assert abs(abs(np.linalg.det(y.z.basis)) - 1.0) <= 1e-9


def test_cesaro_fast_path_matches_scalar_steps():
    # replay the vectorized walk's atom choices through the scalar step().
    # only the first recorded step (k = 20) is compared: the fibre flow
    # stretches round-off at rate e^{lambda k}, so pathwise agreement (for
    # any implementation, including a direct oracle on the summed cocycle)
    # only holds until the accumulated cocycle reaches ~30; long-horizon
    # agreement is distributional and covered by the equidistribution tests
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    sec = cone_section((1.0, 1.0))
    handle = AlphaCocycle(sec)
    n, trials, seed, k_cmp = 1200, 3, 42, 20
    theta0 = sec.lift((1.0, 0.5))
    x = BundlePoint(theta0, z0)
    res = cesaro_distribution(mu, x, n, trials, 10.0, handle,
                              seed=seed, record_stride=k_cmp)
    rng = np.random.default_rng(seed)
    cum = mu.cumulative()
    idx = np.stack([np.searchsorted(cum, rng.random(trials))
                    for _ in range(k_cmp)])
    vals = res.measure.values.reshape(-1, trials)
    for tr in range(trials):
        pt = BundlePoint(theta0, z0)
        for k in range(k_cmp):
            pt = step(mu.matrices[idx[k, tr]], pt, handle)
        assert min(shortest_vector(pt.z), 10.0) == pytest.approx(
            vals[0, tr], abs=1e-8)


def test_case_2_2_values_stay_in_the_periodic_orbit_range():
    # z_k = G(r_k, s_k) z0 stays on the closed orbit of z0, where
    # min(shortest vector, 1) takes values in [0.9457, 1]
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    sec = cone_section((1.0, 1.0))
    x = BundlePoint(sec.lift((1.0, 0.5)), z0)
    res = cesaro_distribution(mu, x, 20000, 20, 1.0,
                              AlphaCocycle(sec), seed=21)
    assert np.min(res.measure.values) >= 0.9457
    assert np.max(res.measure.values) <= 1.0


def test_case_2_2_without_period_refuses_the_horizon():
    # an aperiodic start point cannot be followed past the float64 horizon
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    sec = cone_section((1.0, 1.0))
    z = LatticePoint(z0.basis)
    assert z.period is None and z == z0   # equality ignores the period
    x = BundlePoint(sec.lift((1.0, 0.5)), z)
    with pytest.raises(PreconditionError, match="horizon"):
        cesaro_distribution(mu, x, 1000, 2, 1.0,
                            AlphaCocycle(sec), seed=22)


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf, True, "1.0",
                                 shortest_vector],
                         ids=["zero", "negative", "nan", "inf", "bool",
                              "string", "function"])
@pytest.mark.parametrize("walk", [
    lambda mu, z0, cap: cesaro_distribution(
        mu, BundlePoint((1.0, 0.0), z0), 1000, 2, cap,
        morphism_cocycle(lambda g: g, dim=2), seed=3),
    lambda mu, z0, cap: cesaro_distribution(
        mu, BundlePoint((1.0, 0.0), z0), 1000, 2, cap,
        AlphaCocycle(plain_section()), seed=3),
    lambda mu, z0, cap: equidist_experiment(mu, z0, n=1000, trials=2,
                                            cap=cap),
    lambda mu, z0, cap: decomposability_experiment(mu, lambda g: g, z0,
                                                   n=1000, trials=2, cap=cap),
], ids=["cesaro-morphism", "cesaro-alpha", "equidist", "decompose"])
def test_fibre_walks_refuse_a_cap_that_is_not_a_positive_number(walk, cap):
    # a cap of 0 or -1 made every value the cap: a KS and a correlation of
    # 0.0, passes that could not fail
    with pytest.raises(PreconditionError, match="^cap must be a finite "):
        walk(default_measure(), closed_geodesic_point()[0], cap)


@pytest.mark.parametrize("handle", [
    morphism_cocycle(lambda g: g, dim=2), AlphaCocycle(plain_section())],
    ids=["morphism", "alpha"])
def test_cesaro_refuses_the_observable_before_walking(monkeypatch, handle):
    # Case 2.2 read the cap only after the whole boundary walk; an
    # observable in place of the cap is refused before any step
    def no_walk(*args):
        raise AssertionError("walked before refusing the observable")

    monkeypatch.setattr(flagwalk.bundle_walk, "walk_boundary", no_walk)
    z0, _ = closed_geodesic_point()
    with pytest.raises(PreconditionError, match="^cap must be a finite "):
        cesaro_distribution(default_measure(), BundlePoint((1.0, 0.0), z0),
                            1000, 2, shortest_vector, handle, seed=3)


def test_direct_walk_follows_siegel_law():
    # Siegel's mean-value law for a Haar-random unimodular lattice:
    # P(shortest < s) = 3 s^2 / pi for s <= 1, so min(shortest, 1) has mass
    # 1 - 3/pi at the cap and mean 1 - 1/pi
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    v = np.empty((5000, 50))   # 1e4 steps recorded at stride 2
    _lattice_walk(mu, _atom_entries(mu.matrices), z0,
                  np.random.default_rng(31), 2, 1.0, v)
    v = np.sort(v.ravel())
    below = v < 1.0
    law = 3.0 * v[below] ** 2 / math.pi
    rank = np.arange(1, len(v) + 1)[below]
    ks = max(np.max(np.abs(rank / len(v) - law)),
             np.max(np.abs((rank - 1) / len(v) - law)))
    assert ks <= 0.01
    assert np.mean(v) == pytest.approx(1.0 - 1.0 / math.pi, abs=0.005)
    assert np.mean(~below) == pytest.approx(1.0 - 3.0 / math.pi, abs=0.005)


def _mp_shortest(b1, b2):
    """Shortest-vector length of the lattice spanned by the mpmath vectors
    b1, b2, by Gauss reduction in the working precision."""
    while True:
        if b2[0] ** 2 + b2[1] ** 2 < b1[0] ** 2 + b1[1] ** 2:
            b1, b2 = b2, b1
        n1 = b1[0] ** 2 + b1[1] ** 2
        q = mpmath.nint((b1[0] * b2[0] + b1[1] * b2[1]) / n1)
        if q == 0:
            return mpmath.sqrt(n1)
        b2 = [b2[0] - q * b1[0], b2[1] - q * b1[1]]


@pytest.mark.parametrize("branch", ["direct", "merged", "morphism"])
def test_blocked_lattice_walk_matches_60_digit_replay(branch):
    # the same atom stream replayed with 60-digit arithmetic from the same
    # float start basis; rounding grows like e^{2 lambda k}, so steps 1-10
    # agree to far better than 1e-7 (about 1e-9 at step 10).  The merged
    # branch is decomposability_experiment's layout: one table and 2 trials
    # columns, each column replayed from its own atom indices
    mu = default_measure()
    mats = mu.matrices
    z0, _ = closed_geodesic_point()
    trials, seed, k_cmp = 8, 12, 10
    cap = 10.0   # above every unimodular minimum
    tables = [mats] * (2 * trials if branch == "merged" else trials)
    idx = mu.sample_indices(np.random.default_rng(seed), (k_cmp, len(tables)))
    if branch != "morphism":
        vals = np.empty((k_cmp, len(tables)))
        _lattice_walk(mu, _atom_entries(mats), z0,
                      np.random.default_rng(seed), 1, cap, vals)
    else:
        res = cesaro_distribution(
            mu, BundlePoint((1.0, 0.0), z0), 1000, trials, cap,
            morphism_cocycle(lambda g: g, dim=2), seed=seed, record_stride=1)
        vals = res.measure.values.reshape(-1, trials)[:k_cmp]
        # the base coordinate: the angle of g_k ... g_1 (1, 0) mod pi
        u = np.tile([1.0, 0.0], (trials, 1))
        for k, row in enumerate(idx):
            u = np.einsum("tij,tj->ti", np.stack([mats[i] for i in row]), u)
            ang = np.mod(np.arctan2(u[:, 1], u[:, 0]), math.pi)
            base = res.base_angles.reshape(-1, trials)[k]
            assert np.max(np.abs(base - ang)) <= 1e-12
    with mpmath.workdps(60):
        for t, table in enumerate(tables):
            B = mpmath.matrix(z0.basis.tolist())
            for k in range(k_cmp):
                B = mpmath.matrix(table[idx[k, t]].tolist()) * B
                ref = _mp_shortest([B[0, 0], B[1, 0]], [B[0, 1], B[1, 1]])
                assert abs(vals[k, t] - float(ref)) <= 1e-7


def test_cesaro_trivial_cocycle_is_dirac():
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    x = BundlePoint((1.0, 0.0), z0)
    res = cesaro_distribution(mu, x, 2000, 5, 1.0,
                              morphism_cocycle(None, dim=2, trivial=True),
                              seed=3)
    assert np.all(res.measure.values == res.measure.values[0])
    assert res.measure.values[0] == pytest.approx(capped_shortest(1.0)(z0))


def test_cesaro_rejects_other_handles():
    # the section-sandwich handle has no vectorized walk; step() covers it
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    handle = morphism_cocycle(lambda g: g, sec=plain_section())
    with pytest.raises(PreconditionError, match="AlphaCocycle and Morphism"):
        cesaro_distribution(mu, BundlePoint((1.0, 0.0), z0), 1000, 2,
                            1.0, handle)


@pytest.mark.parametrize("walk", [
    lambda mu, z0, rho: decomposability_experiment(mu, rho, z0, n=1000,
                                                   trials=4),
    lambda mu, z0, rho: cesaro_distribution(
        mu, BundlePoint((1.0, 0.0), z0), 1000, 4, 1.0,
        morphism_cocycle(rho, dim=3)),
], ids=["decompose", "cesaro"])
def test_lattice_walks_refuse_images_that_are_not_2x2(walk):
    # four atoms' 3x3 images hold 36 entries, which were read as nine 2x2
    # matrices: the walk ran on them until a Gauss reduction gave up
    A, B = default_measure().matrices
    mu = StepMeasure.uniform([A, B, np.linalg.inv(A), np.linalg.inv(B)])
    z0, _ = closed_geodesic_point()
    with pytest.raises(PreconditionError, match="2x2"):
        walk(mu, z0, lambda g: sym_power(g, 3))


def _readers():
    """(role, call) of every reader of a caller's 2x2 matrix: call(bad)
    passes bad where that reader takes one."""
    A, B = default_measure().matrices
    z0, _ = closed_geodesic_point()
    x = BundlePoint((1.0, 0.0), z0)

    def words(bad):
        return ExperimentConfig.from_dict({"kind": "drift", "words": {
            "a": [A.tolist(), bad], "a_prime": [B.tolist()],
            "b": [A.tolist()], "b_prime": [B.tolist()]}}).build_words()

    word = "a letter of the word"
    return {
        "StepMeasure": ("atom 1", lambda bad: StepMeasure(
            ((0.5, A), (0.5, bad)))),
        "limit_vector": (word, lambda bad: limit_vector([A, bad], 5)),
        "limit_form": (word, lambda bad: limit_form([A, bad], 5)),
        "cross_ratio_future": (word, lambda bad: cross_ratio(
            [A, bad], [B], [A], [B])),
        "cross_ratio_past": (word, lambda bad: cross_ratio(
            [A], [B], [A, bad], [B])),
        "reduce": ("a lattice basis", lambda bad: reduce(bad)),
        "LatticePoint": ("a lattice basis", lambda bad: LatticePoint(bad)),
        "act": ("act's s", lambda bad: act(bad, z0)),
        "from_json": ("a lattice basis", lambda bad: LatticePoint.from_json(
            json.dumps({"basis": bad, "period": None}))),
        "decompose_rho": ("rho(g)", lambda bad: decomposability_experiment(
            default_measure(), lambda g: bad, z0, n=1000, trials=2)),
        "cesaro_rho": ("rho(g)", lambda bad: cesaro_distribution(
            default_measure(), x, 1000, 2, 1.0,
            morphism_cocycle(lambda g: bad))),
        "config_words": ("words['a']", words),
    }


@pytest.mark.parametrize("bad", [
    [[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [math.inf, 1.0]],
    np.eye(3).tolist(), [[1.0, 0.0], [0.0]]],
    ids=["nan", "inf", "3x3", "ragged"])
@pytest.mark.parametrize("reader", sorted(_readers()))
def test_every_matrix_reader_refuses_by_role(reader, bad):
    # each reads its 2x2 matrices by group_core's one rule: a NaN rho ended
    # in an SVD that did not converge, an inf one in a Gauss reduction that
    # did not terminate, and a 3x3 or NaN lattice basis was accepted
    role, call = _readers()[reader]
    with pytest.raises(PreconditionError, match=re.escape(role)):
        call(bad)


def test_step_with_a_matrix_valued_handle_is_fiber_act():
    A = default_measure().matrices[0]
    z0, _ = closed_geodesic_point()
    x = BundlePoint((0.6, 0.8), z0)
    y = step(A, x, morphism_cocycle(lambda g: g))
    assert y.z == act(A, z0)
    assert np.array_equal(y.theta, unit_vector(A @ x.theta))


@pytest.mark.parametrize("record_stride", [0, -1, 2001])
def test_cesaro_rejects_record_stride_outside_one_to_n(record_stride):
    z0, _ = closed_geodesic_point()
    with pytest.raises(PreconditionError, match="record_stride"):
        cesaro_distribution(default_measure(), BundlePoint((1.0, 0.0), z0),
                            2000, 2, 1.0,
                            AlphaCocycle(plain_section()),
                            record_stride=record_stride)


def _cesaro(mu, trials):
    z0, _ = closed_geodesic_point()
    return cesaro_distribution(mu, BundlePoint((1.0, 0.0), z0), 1000, trials,
                               1.0,
                               AlphaCocycle(plain_section()))


@pytest.mark.parametrize("driver", [
    lambda mu, trials: lyapunov(mu, n=1000, trials=trials),
    lambda mu, trials: ldp_tail(mu, n_grid=(10,), trials=trials),
    lambda mu, trials: renewal_sum(mu, lambda U, s: 0.0 * s, (1.0, 0.0), 1.0,
                                   trials=trials),
    _cesaro,
], ids=["lyapunov", "ldp", "renewal", "cesaro"])
def test_drivers_reject_zero_trials(driver):
    with pytest.raises(PreconditionError, match="trials"):
        driver(default_measure(), 0)


@pytest.mark.parametrize("name, driver", [
    ("trials", lambda mu, z0: lyapunov(mu, n=1000, trials=2.5)),
    ("n", lambda mu, z0: lyapunov(mu, n=1000.5, trials=2)),
    ("trials", lambda mu, z0: ldp_tail(mu, n_grid=(10,), trials=2.5)),
    ("n_grid point", lambda mu, z0: ldp_tail(mu, n_grid=(10.5,), trials=2)),
    ("trials", lambda mu, z0: renewal_sum(mu, lambda U, s: 0.0 * s,
                                          (1.0, 0.0), 1.0, trials=2.5)),
    ("k_max", lambda mu, z0: renewal_sum(mu, lambda U, s: 0.0 * s,
                                         (1.0, 0.0), 1.0, k_max=100.5,
                                         trials=2)),
    ("trials", lambda mu, z0: _cesaro(mu, 2.5)),
    ("record_stride", lambda mu, z0: cesaro_distribution(
        mu, BundlePoint((1.0, 0.0), z0), 1000, 2, 1.0,
        AlphaCocycle(plain_section()), record_stride=2.5)),
    ("trials", lambda mu, z0: estimate_p1p2(mu, (1.0, 0.0), trials=2.5)),
    ("horizon", lambda mu, z0: estimate_p1p2(mu, (1.0, 0.0), horizon=2.5)),
    ("trials", lambda mu, z0: equidist_experiment(mu, z0, n=1000,
                                                  trials=2.5)),
    ("trials", lambda mu, z0: decomposability_experiment(
        mu, lambda g: g, z0, n=1000, trials=2.5)),
    ("n", lambda mu, z0: _cross_ratio(mu, n=0)),
    ("n", lambda mu, z0: _cross_ratio(mu, n=2.5)),
    ("past_len", lambda mu, z0: _cross_ratio(mu, past_len=0)),
    ("n", lambda mu, z0: limit_vector(mu.matrices, 2.5)),
    ("n", lambda mu, z0: limit_form(mu.matrices, 2.5)),
    ("m", lambda mu, z0: principal_triple(2.5)),
    ("trials", lambda mu, z0: estimate_p1p2(mu, (1.0, 0.0), trials=True)),
    ("trials", lambda mu, z0: lyapunov(mu, n=1000, trials=True)),
    ("n", lambda mu, z0: sym_power(mu.matrices[0], True)),
], ids=["lyapunov-trials", "lyapunov-n", "ldp-trials", "ldp-n_grid",
        "renewal-trials", "renewal-k_max", "cesaro-trials",
        "cesaro-record_stride", "p1p2-trials", "p1p2-horizon", "equidist",
        "decompose", "cross_ratio-n-zero", "cross_ratio-n",
        "cross_ratio-past_len", "limit_vector", "limit_form",
        "principal_triple", "p1p2-trials-bool", "lyapunov-trials-bool",
        "sym_power-bool"])
def test_drivers_refuse_a_count_that_is_not_an_integer(name, driver):
    # a fractional count is refused by name, not left to numpy's "'float'
    # object cannot be interpreted as an integer"; so are a count below its
    # least value and a bool
    with pytest.raises(PreconditionError,
                       match=f"^{name} must be an integer >= "):
        driver(default_measure(), closed_geodesic_point()[0])


@pytest.mark.parametrize("start", [
    lambda z0, v: BundlePoint(v, z0),
    lambda z0, v: renewal_sum(default_measure(), lambda U, s: 0.0 * s, v,
                              1.0, trials=2),
    lambda z0, v: equidist_experiment(default_measure(), z0, theta0=v,
                                      n=1000, trials=2),
], ids=["bundle_point", "renewal", "equidist"])
def test_boundary_starts_that_are_not_2_vectors_are_refused(start):
    # these raised numpy's bare reshape ValueError
    z0, _ = closed_geodesic_point()
    for v in ((1.0, 2.0, 3.0), (1.0,)):
        with pytest.raises(PreconditionError, match="not a 2-vector"):
            start(z0, v)


@pytest.mark.parametrize("n", [2.5, 0, -3, 999])
@pytest.mark.parametrize("mu", [delta_measure(np.diag([2.0, 0.5])),
                                default_measure()], ids=["single", "two"])
def test_lyapunov_refuses_a_bad_n_on_every_measure(mu, n):
    # the single-atom closed form reads no n, but reports it as steps
    with pytest.raises(PreconditionError, match="^n must be an integer >= "):
        lyapunov(mu, n=n, trials=2)


@pytest.mark.parametrize("n_grid", [(), []])
def test_ldp_refuses_an_empty_grid(n_grid):
    # an empty grid is not None: it does not fall back to the default grid
    with pytest.raises(PreconditionError, match="^n_grid must be non-empty"):
        ldp_tail(default_measure(), n_grid=n_grid, trials=2)


def test_cesaro_reports_are_deterministic():
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    x = BundlePoint((1.0, 0.2), z0)
    handle = AlphaCocycle(plain_section())
    a = cesaro_distribution(mu, x, 2000, 4, 1.0, handle,
                            seed=9)
    b = cesaro_distribution(mu, x, 2000, 4, 1.0, handle,
                            seed=9)
    assert a.mean == b.mean
    assert np.array_equal(a.measure.values, b.measure.values)


def test_cesaro_base_angles_are_the_per_record_formula():
    # one arctan2 over the recorded coordinates after the walk reads the
    # same bits as one arctan2 over u_k's rows at each record
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    x = BundlePoint((1.0, 0.2), z0)
    handle = AlphaCocycle(plain_section())
    res = cesaro_distribution(mu, x, 2000, 7, 1.0, handle,
                              seed=3, record_stride=3)
    U = np.tile(handle.section.lift(x.theta), (7, 1))
    ref = [np.mod(np.arctan2(U[:, 1], U[:, 0]), math.pi)
           for k, _, _ in walk_boundary(mu, U, 2000, np.random.default_rng(3),
                                        3) if k % 3 == 0]
    assert len(ref) == 666
    assert np.array_equal(res.base_angles, np.ravel(ref))


@pytest.mark.parametrize("handle", [
    AlphaCocycle(cone_section((6.860170259645172e-4, 9.247965351503759e-4))),
    morphism_cocycle(lambda g: g, dim=2)], ids=["alpha", "morphism"])
def test_cesaro_walks_from_the_start_bundle_point_normalised(handle):
    # r is one of the refs of test_section_ref_is_one_unit_xy_normalisation
    # whose bits a second normalisation changes: BundlePoint normalises it
    # once, to the section's ref, and both cases walk from there as is
    r = (6.860170259645172e-4, 9.247965351503759e-4)
    ref = cone_section(r).ref
    assert _unit_xy(ref, "ref") != ref
    x = BundlePoint(r, closed_geodesic_point()[0])
    assert tuple(x.theta.tolist()) == ref
    mu = default_measure()
    res = cesaro_distribution(mu, x, 1000, 3, 1.0, handle, seed=5,
                              record_stride=10)
    U = np.tile(ref, (3, 1))
    angles = [np.mod(np.arctan2(U[:, 1], U[:, 0]), math.pi) for _ in
              walk_boundary(mu, U, 1000, np.random.default_rng(5), 10)]
    assert np.array_equal(res.base_angles, np.ravel(angles))


# ---------------------------------------------------------------- experiments


def test_equidist_small_scale_passes():
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    res = equidist_experiment(mu, z0, n=20000, trials=40, seed=6)
    assert res.cone == "true"
    assert res.ks <= 0.1
    assert res.correlation <= 0.1


def test_equidist_orbit_side_is_the_one_period_law():
    # the orbit side no longer depends on n: it is the law of one period
    # of the closed orbit, whose mean is 0.96389
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    a = equidist_experiment(mu, z0, n=1000, trials=2, seed=6)
    b = equidist_experiment(mu, z0, n=2000, trials=2, seed=6)
    assert a.orbit_mean == b.orbit_mean
    assert a.orbit_mean == pytest.approx(0.96389, abs=1e-5)


def _searchsorted_correlation(base, vals, bins=10):
    """The binned correlation by np.quantile edges and np.searchsorted."""
    qs = np.linspace(0, 1, bins + 1)[1:-1]
    ib = np.searchsorted(np.quantile(base, qs), base).astype(float)
    iv = np.searchsorted(np.quantile(vals, qs), vals).astype(float)
    if ib.std() == 0.0 or iv.std() == 0.0:
        return 0.0
    return float(abs(np.corrcoef(ib, iv)[0, 1]))


def test_binned_correlation_is_the_searchsorted_formula_on_ties():
    # values capped at 1.0 fill the top bins with one repeated edge, and a
    # coarse base grid repeats values at the edges themselves
    rng = np.random.default_rng(13)
    base = np.floor(rng.random(20001) * 7) * (math.pi / 7)
    vals = np.minimum(rng.uniform(0.9, 1.2, 20001) + 0.01 * base, 1.0)
    for b, v in ((base, vals), (vals, base), (base, base)):
        ref = _searchsorted_correlation(b, v)
        assert _binned_correlation(b, v) == ref
        assert ref > 0.0
    assert _binned_correlation(base, np.round(vals, 1)) == \
        _searchsorted_correlation(base, np.round(vals, 1))
    # a constant axis has one bin and no correlation
    assert _binned_correlation(np.full(500, 0.3), vals[:500]) == 0.0
    assert _binned_correlation(base[:500], np.ones(500)) == 0.0


def test_equidist_requires_a_period():
    z0, _ = closed_geodesic_point()
    with pytest.raises(PreconditionError, match="period"):
        equidist_experiment(default_measure(), LatticePoint(z0.basis),
                            n=1000, trials=2, seed=6)


def test_equidist_computes_the_invariant_arc_once(monkeypatch):
    """The arc and the cone verdict come from one boundary search
    (boundary._cone_search, behind invariant_arc and detect_cone too), with
    a cone and without one."""
    import flagwalk.boundary
    calls = []
    orig = flagwalk.boundary._cone_search

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(flagwalk.boundary, "_cone_search", counted)
    monkeypatch.setattr(flagwalk.bundle_walk, "_cone_search", counted)
    z0, _ = closed_geodesic_point()
    for mu, cone in ((mixed_sign_measure(), "false"),
                     (default_measure(), "true")):
        calls.clear()
        res = equidist_experiment(mu, z0, n=1000, trials=2, seed=6)
        assert res.cone == cone
        assert len(calls) == 1


def _arc_ends(mu):
    start, length = invariant_arc(mu)
    return start, start + length


def test_equidist_rejects_theta_outside_support():
    # 3 pi / 4 is far from both arcs; the others lie 0.01 rad past an end of
    # Lambda_1, and so in neither Lambda_1 nor Lambda_2 = -Lambda_1
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    start, end = _arc_ends(mu)
    from flagwalk.errors import ConfigurationError
    for a in (3 * math.pi / 4, start - 0.01, end + 0.01):
        theta0 = (math.cos(a), math.sin(a))
        with pytest.raises(ConfigurationError, match="neither invariant arc"):
            equidist_experiment(mu, z0, theta0=theta0, n=2000, trials=2,
                                seed=0)


@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_equidist_accepts_the_arc_ends_and_their_antipodes(end, sign):
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    a = _arc_ends(mu)[end]
    res = equidist_experiment(mu, z0, n=1000, trials=2, seed=0,
                              theta0=(sign * math.cos(a), sign * math.sin(a)))
    assert res.cone == "true"


def test_equidist_lyapunov_is_the_walks_exact_rate():
    # both atoms fix e1 with eigenvalue 2, so the invariant arc is the point
    # e1, the default start, and every step from there adds exactly log 2
    mu = StepMeasure(((0.5, np.diag([2.0, 0.5])),
                      (0.5, np.array([[2.0, 1.0], [0.0, 0.5]]))))
    assert invariant_arc(mu) == (0.0, 0.0)
    z0, _ = closed_geodesic_point()
    res = equidist_experiment(mu, z0, n=2000, trials=20, seed=0)
    assert abs(res.lam - math.log(2.0)) <= 1e-12
    assert res.t == pytest.approx(2000 * res.lam, rel=1e-15)


def test_decomposability_walks_both_sides_as_one_stream(monkeypatch):
    # one _step_blocks stream of 2 trials columns, cut into blocks of
    # _block_steps = 7 steps, and one Gauss reduction per block; two walks
    # of trials columns each made 574
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    widths = []

    def counted(B):
        widths.append(len(B))
        return reduce_batch(B)

    monkeypatch.setattr(flagwalk.bundle_walk, "reduce_batch", counted)
    decomposability_experiment(mu, lambda g: g, z0, n=2000, trials=50)
    m = _block_steps(_atom_entries(mu.matrices * 2))
    blocks = sum(-(-len(tile) // m) for _, tile in
                 _step_blocks(mu, np.random.default_rng(0), 2000, 100))
    assert m == 7
    assert len(widths) == blocks == 288
    assert all(w % 100 == 0 for w in widths)


def _per_block_walk(mu, acts, z, rng, stride, cap, vals):
    """_lattice_walk as one _block_products scan and one (M, 2, 2) stack
    per block, reduced by reduce_batch on a contiguous copy."""
    n_rec, N = vals.shape
    m = _block_steps(acts)
    S = np.tile(z.basis.ravel(), (N, 1)).T
    for k, tile in _step_blocks(mu, rng, n_rec * stride, N):
        for j in range(0, len(tile), m):
            idx = tile[j:j + m]
            j0 = k - len(tile) + j
            rec = np.arange(j0 // stride + 1, (j0 + len(idx)) // stride + 1)
            rows = np.append(rec * stride - j0 - 1, len(idx) - 1)
            a, b, c, d = (p[rows] for p in _block_products(acts, idx))
            Z = reduce_batch(np.stack((a * S[0] + b * S[2],
                                       a * S[1] + b * S[3],
                                       c * S[0] + d * S[2],
                                       c * S[1] + d * S[3]),
                                      -1).reshape(-1, 2, 2)).reshape(-1, N, 4)
            vals[rec - 1] = np.minimum(np.sqrt(Z[:-1, :, 0] ** 2 +
                                               Z[:-1, :, 2] ** 2), cap)
            S = Z[-1].T / np.sqrt(np.abs(Z[-1, :, 0] * Z[-1, :, 3] -
                                         Z[-1, :, 1] * Z[-1, :, 2]))


@pytest.mark.parametrize("measure", [default_measure, volatile_measure])
@pytest.mark.parametrize("n_rec, N, stride", [(2000, 100, 1), (330, 100, 3),
                                              (50, 6, 20), (10, 32770, 1)])
def test_lattice_walk_is_the_per_block_walk_bit_for_bit(measure, n_rec, N,
                                                        stride):
    # tiles of 327 steps at N = 100, cut into blocks of 7 (default) or 3
    # (volatile) steps: the walk scans each tile once and reduces each
    # block in place through component views.  n ends mid-tile but at
    # N = 32770, where a tile is one step
    mu = measure()
    z0, _ = closed_geodesic_point()
    acts = _atom_entries(mu.matrices)
    got, ref = np.empty((n_rec, N)), np.empty((n_rec, N))
    _lattice_walk(mu, acts, z0, np.random.default_rng(9), stride,
                  10.0, got)
    _per_block_walk(mu, acts, z0, np.random.default_rng(9), stride, 10.0,
                    ref)
    assert np.array_equal(got, ref)


def test_decomposability_small_scale():
    mu = default_measure()
    z0, _ = closed_geodesic_point()
    res = decomposability_experiment(mu, lambda g: g, z0, n=20000, trials=20,
                                     seed=8)
    assert res.ks <= 0.1
