"""Random walks on the trivialized bundle (boundary x lattice fibre).

Single-step bundle dynamics, the Lyapunov estimator, empirical large
deviations, renewal sums, Cesàro fibre distributions and the equidistribution
/ decomposability experiments.

All Monte Carlo drivers are vectorized across trials and draw atoms only
through StepMeasure.sample_indices.  The boundary walks (large deviations,
renewal sums, Cesàro distributions, and p1/p2 in boundary.py) step through the
one kernel boundary.walk_boundary, and matrix stacks use its gathered 2x2
arithmetic.  The stream contract is tiles of m steps, the same stream as one
rng.random(trials) per step, in step order, from one seeded generator; it is
what keeps reports for identical (seed, config) pairs byte-identical.

The Case 2.2 fibre is z_k = G(r_k, s_k) z0 by the cocycle identity, so it is
not walked: fiber.diag_orbit evaluates it in closed form, wrapping r_k modulo
the start point's period or raising past fiber.HORIZON when it has none.
Lattice walks (MorphismCocycle, the direct rho-walk) are stepped.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

# detect_cone is unused here but stays importable: perfbench/spans.py traces it
from .boundary import _TILE, EmpiricalMeasure, _antipodal_verdict, \
    _apply_stack, _atom_entries, _step_indices, detect_cone, invariant_arc, \
    sample_furstenberg, walk_boundary  # noqa: F401
from .cocycles import AlphaCocycle, DiagSignValue, MorphismCocycle, \
    arc_section, unit_vector
from .errors import ConfigurationError, PreconditionError
from .fiber import LatticePoint, act, capped_shortest, diag_action, \
    diag_orbit, orbit_shortest_values, reduce_batch, shortest_vector
from .group_core import as_matrix


@dataclass(frozen=True)
class BundlePoint:
    """A walk state (theta, z): boundary point (unit 2-vector) + fibre point."""

    theta: np.ndarray
    z: LatticePoint

    def __post_init__(self):
        object.__setattr__(self, "theta", unit_vector(self.theta))


@dataclass
class WalkReport:
    estimator: str
    estimate: float
    std_error: float
    trials: int
    steps: int
    seed: int
    wall_clock: float = 0.0
    extra: dict = field(default_factory=dict)


def step(g, x, cocycle):
    """One bundle step (theta, z) -> (g theta, alpha(g, theta) . z)."""
    m = as_matrix(g)
    val = cocycle(m, x.theta)
    if isinstance(val, DiagSignValue):
        z = diag_action(val, x.z)
    else:
        z = act(val, x.z)
    return BundlePoint(m @ x.theta, z)


# --------------------------------------------------------------------------
# shared vectorized pieces


def _section_signs(U, sec):
    """Vectorized section sign s(u) = +1 iff u is the chosen lift."""
    if sec.mode in ("plain", "connected-component"):
        s = np.where(U[:, 1] > 0.0, 1.0, -1.0)
        zero = U[:, 1] == 0.0
        if np.any(zero):
            s[zero] = np.where(U[zero, 0] > 0.0, 1.0, -1.0)
        return s
    r0, r1 = sec.ref
    d = U[:, 0] * r0 + U[:, 1] * r1
    s = np.sign(d)
    zero = s == 0.0
    if np.any(zero):
        c = U[zero, 0] * (-r1) + U[zero, 1] * r0
        s[zero] = np.where(c > 0.0, 1.0, -1.0)
    return s


def _reduce_unimodular(Z, k):
    """Reduce a (N, 2, 2) stack of bases after step k; every 100 steps also
    restore |det| = 1 against drift."""
    reduce_batch(Z)
    if k % 100 == 0:
        det = np.abs(Z[:, 0, 0] * Z[:, 1, 1] - Z[:, 0, 1] * Z[:, 1, 0])
        Z /= np.sqrt(det)[:, None, None]


# --------------------------------------------------------------------------
# Lyapunov exponent


def lyapunov(mu, n=10000, trials=1000, seed=0):
    """Estimate lambda_mu = lim (1/n) log ||g_1 ... g_n||.

    Deterministic (single-atom) measures are answered exactly as the log of
    the spectral radius; stochastic measures by per-step sup-norm
    renormalized matrix products, batched over trials.
    """
    t0 = time.perf_counter()
    mats = mu.matrices
    if len(mats) == 1:
        rho = float(np.max(np.abs(np.linalg.eigvals(mats[0]))))
        return WalkReport("lyapunov", math.log(rho), 0.0, 1, n, seed,
                          time.perf_counter() - t0,
                          {"deterministic": True})
    if n < 1000:
        raise PreconditionError("n >= 1000 required for the stochastic estimator")
    rng = np.random.default_rng(seed)
    entries = _atom_entries(mats)
    M = np.broadcast_to(np.eye(2), (trials, 2, 2)).copy()
    acc = np.zeros(trials)
    for _, idx in _step_indices(mu, rng, n, trials):
        _apply_stack(entries, idx, M)
        e = np.abs(M.reshape(trials, 4).T)
        nrm = np.maximum(np.maximum(e[0], e[1]), np.maximum(e[2], e[3]))
        acc += np.log(nrm)
        M /= nrm[:, None, None]
    top = np.linalg.svd(M, compute_uv=False)[:, 0]
    per = (acc + np.log(top)) / n
    est = float(np.mean(per))
    se = float(np.std(per, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return WalkReport("lyapunov", est, se, trials, n, seed,
                      time.perf_counter() - t0)


# --------------------------------------------------------------------------
# large deviations


@dataclass
class LdpResult:
    rows: list            # (n, tail probability, is_upper_bound)
    slope: float
    intercept: float
    r2: float
    eps1: float
    lam: float
    trials: int
    seed: int


_LDP_CHUNK = 20000   # trials walked at once; part of the RNG stream contract


def ldp_tail(mu, eps1=None, n_grid=None, trials=100000, seed=0, w=(1.0, 0.0),
             lam=None):
    """Empirical tails of |sigma_chi(g_1..g_n, w) - lambda n| >= eps1 n.

    Returns the per-n table plus a log-linear fit (slope, intercept, R^2) over
    the rows with at least one observed event; zero-event rows are reported
    as the upper confidence bound 3/trials and excluded from the fit.  Trials
    are walked in chunks of _LDP_CHUNK, which fixes the RNG stream.
    """
    if lam is None:
        lam = lyapunov(mu, n=2000, trials=200, seed=seed + 101).estimate
    if eps1 is None:
        eps1 = lam / 4.0
    if n_grid is None:
        n_grid = tuple(range(200, 2001, 200))
    n_grid = tuple(sorted(n_grid))
    grid_set = {n: j for j, n in enumerate(n_grid)}
    counts = np.zeros(len(n_grid), dtype=np.int64)
    rng = np.random.default_rng(seed)
    w = unit_vector(w)
    done = 0
    while done < trials:
        c = min(_LDP_CHUNK, trials - done)
        U = np.tile(w, (c, 1))
        r = np.zeros(c)
        for k, _, dr in walk_boundary(mu, U, n_grid[-1], rng):
            r += dr
            if k in grid_set:
                counts[grid_set[k]] += int(
                    np.count_nonzero(np.abs(r - lam * k) >= eps1 * k))
        done += c
    rows = []
    for j, n in enumerate(n_grid):
        if counts[j] == 0:
            rows.append((n, 3.0 / trials, True))
        else:
            rows.append((n, counts[j] / trials, False))
    fit_rows = [(n, p) for n, p, ub in rows if not ub]
    if len(fit_rows) >= 2:
        xs = np.array([n for n, _ in fit_rows], dtype=float)
        ys = np.log(np.array([p for _, p in fit_rows]))
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        slope, intercept, r2 = float("nan"), float("nan"), float("nan")
    return LdpResult(rows, float(slope), float(intercept), r2, eps1, lam,
                     trials, seed)


# --------------------------------------------------------------------------
# renewal sums


@dataclass
class RenewalResult:
    estimate: float
    std_error: float
    truncation_bound: float
    truncation_warning: bool
    k_max: int
    lam: float
    trials: int
    seed: int


def renewal_sum(mu, f, w, t, k_max=None, trials=20000, seed=0, lam=None,
                ldp=None, f_max=None):
    """Monte Carlo renewal sum R f(w, t) = sum_k E[f(g w, sigma(g, w) - t)].

    f must be vectorized: f(U, s) with U an (N, 2) stack of circle points and
    s an (N,) array of shifted cocycle values, returning (N,) values; it must
    be compactly supported in s.  Each trajectory contributes at every step
    k <= k_max.  The truncation bound for the omitted k > k_max tail uses the
    fitted large-deviation parameters when an LdpResult is supplied, else a
    crude late-step extrapolation.
    """
    if lam is None:
        lam = (ldp.lam if ldp is not None
               else lyapunov(mu, n=2000, trials=200, seed=seed + 101).estimate)
    if k_max is None:
        k_max = int(math.ceil(3.0 * t / lam)) + 20
    if k_max < 3.0 * t / lam:
        raise PreconditionError("k_max below 3 t / lambda")
    rng = np.random.default_rng(seed)
    U = np.tile(unit_vector(w), (trials, 1))
    r = np.zeros(trials)
    totals = np.zeros(trials)
    observed_max = 0.0
    late = []
    for k, _, dr in walk_boundary(mu, U, k_max, rng):
        r += dr
        contrib = np.asarray(f(U, r - t), dtype=float)
        totals += contrib
        observed_max = max(observed_max, float(np.max(np.abs(contrib))))
        if k > k_max - 3:
            late.append(float(np.mean(np.abs(contrib))))
    est = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    fmax = f_max if f_max is not None else observed_max
    if ldp is not None and np.isfinite(ldp.slope) and ldp.slope < 0:
        c = -ldp.slope
        bound = fmax * math.exp(ldp.intercept - c * (k_max + 1)) / (1 - math.exp(-c))
    else:
        bound = float(np.mean(late)) * 2.0 * k_max if late else 0.0
    warn = abs(est) > 0 and bound > 0.01 * abs(est)
    return RenewalResult(est, se, bound, warn, k_max, lam, trials, seed)


# --------------------------------------------------------------------------
# Cesàro fibre distributions


@dataclass
class CesaroResult:
    mean: float
    measure: EmpiricalMeasure     # fibre observable values
    base_angles: np.ndarray       # aligned base coordinates (projective)
    report: WalkReport
    record_stride: int


def _record_values(Z, f):
    """Observable values on a (N, 2, 2) stack of reduced bases."""
    short = np.sqrt(Z[:, 0, 0] ** 2 + Z[:, 1, 0] ** 2)
    cap = getattr(f, "cap", None)
    if cap is not None:
        return np.minimum(short, cap)
    if f is shortest_vector:
        return short
    return np.array([f(LatticePoint(Z[i].copy())) for i in range(Z.shape[0])])


def cesaro_distribution(mu, x, n, trials, f, cocycle, seed=0,
                        record_stride=None):
    """Cesàro mean and empirical distribution of f(z_k) along the walk.

    Each of `trials` trajectories contributes (a strided subsample of) its n
    prefix points.  The base coordinate is recorded alongside for the
    product-structure diagnostic.  The handle must be an AlphaCocycle (Case
    2.2) or a MorphismCocycle; step() is the scalar reference for both.
    """
    if n < 1000:
        raise PreconditionError("n >= 1000 required")
    t0 = time.perf_counter()
    if record_stride is None:
        record_stride = max(1, n // 5000)
    mats = mu.matrices
    rng = np.random.default_rng(seed)
    n_rec = n // record_stride
    vals = np.empty((n_rec, trials))
    base = np.empty((n_rec, trials))

    if isinstance(cocycle, AlphaCocycle):
        # Case 2.2: the cocycle identity gives z_k = G(r_k, s_k) z0 exactly,
        # with r_k the summed log-norm increments and s_k the section sign
        # of u_k (the sign increments telescope), so only the boundary is
        # walked; the fibre is evaluated by diag_orbit, m records at a time
        sec = cocycle.section
        U = np.tile(sec.lift(x.theta), (trials, 1))
        r = np.zeros(trials)
        m = max(1, _TILE // trials)
        block = np.empty((2, m, trials))   # r and s of up to m records
        rec = 0
        for k, _, dr in walk_boundary(mu, U, n, rng):
            r += dr
            if k % record_stride == 0 and rec < n_rec:
                block[:, rec % m] = r, _section_signs(U, sec)
                base[rec] = np.mod(np.arctan2(U[:, 1], U[:, 0]), math.pi)
                rec += 1
                if rec % m == 0 or rec == n_rec:
                    lo = (rec - 1) // m * m
                    rs, ss = block[:, :rec - lo].reshape(2, -1)
                    vals[lo:rec] = _record_values(
                        diag_orbit(x.z, rs, ss), f).reshape(-1, trials)
    elif isinstance(cocycle, MorphismCocycle):
        Z = np.broadcast_to(x.z.basis, (trials, 2, 2)).copy()
        U = np.tile(unit_vector(x.theta), (trials, 1))
        acts = _atom_entries([cocycle(g, None) for g in mats])
        rec = 0
        for k, idx, _ in walk_boundary(mu, U, n, rng):
            if not cocycle.trivial:
                _apply_stack(acts, idx, Z)
                _reduce_unimodular(Z, k)
            if k % record_stride == 0 and rec < n_rec:
                vals[rec] = _record_values(Z, f)
                base[rec] = np.mod(np.arctan2(U[:, 1], U[:, 0]), math.pi)
                rec += 1
    else:
        raise PreconditionError(
            "cesaro_distribution supports AlphaCocycle and MorphismCocycle "
            f"handles, got {type(cocycle).__name__}")
    mean = float(np.mean(vals))
    se = float(np.std(np.mean(vals, axis=0), ddof=1) / math.sqrt(trials)) \
        if trials > 1 else 0.0
    report = WalkReport("cesaro_mean", mean, se, trials, n, seed,
                        time.perf_counter() - t0)
    return CesaroResult(mean, EmpiricalMeasure(vals.ravel(), "line"),
                        base.ravel(), report, record_stride)


# --------------------------------------------------------------------------
# experiments


def _binned_correlation(base, vals, bins=10):
    """|Pearson correlation| between base-coordinate bins and observable bins
    (quantile bins on each axis); should vanish for product measures."""
    qb = np.quantile(base, np.linspace(0, 1, bins + 1)[1:-1])
    qv = np.quantile(vals, np.linspace(0, 1, bins + 1)[1:-1])
    ib = np.searchsorted(qb, base).astype(float)
    iv = np.searchsorted(qv, vals).astype(float)
    sb, sv = ib.std(), iv.std()
    if sb == 0.0 or sv == 0.0:
        return 0.0
    return float(abs(np.corrcoef(ib, iv)[0, 1]))


@dataclass
class EquidistResult:
    ks: float
    correlation: float
    lam: float
    t: float
    cone: str
    cesaro_mean: float
    orbit_mean: float
    passed: bool
    n: int
    trials: int
    seed: int


def equidist_experiment(mu, z0, theta0=None, n=100000, trials=200, dt=0.05,
                        cap=1.0, seed=0, ks_tol=0.05, corr_tol=0.05):
    """Compare the Cesàro fibre distribution against the diagonal-orbit
    average over [0, t], t = lambda n.

    The walk follows the Case 2.2 (D±-valued) cocycle over the section
    cocycles.arc_section(invariant_arc(mu)): the cone half-circle when an
    invariant cone exists, plain otherwise (then the orbit side is the signed
    D± average).  theta0 must lie in the sampled support of the stationary
    measure in the cone case; when omitted it is sampled.
    """
    # detect_cone's answer, with the arc computed once
    arc = invariant_arc(mu)
    cone = "true" if arc is not None else _antipodal_verdict(mu, seed=seed)
    sec = arc_section(arc)
    if arc is not None or theta0 is None:
        nu = sample_furstenberg(mu, burn_in=2000,
                                samples=2000 if arc is not None else 10,
                                seed=seed + 3, start=sec.ref)
    if theta0 is None:
        a = float(nu.values[-1])
        theta0 = (math.cos(a), math.sin(a))
    elif arc is not None:
        u = unit_vector(theta0)
        ang = math.atan2(u[1], u[0])
        d = min(np.min(np.abs(np.angle(np.exp(1j * (nu.values - ang))))),
                np.min(np.abs(np.angle(np.exp(1j * (nu.values - ang - math.pi))))))
        if d > 0.05:
            raise ConfigurationError(
                "theta0 is not in the sampled support of the stationary "
                f"measure (distance {d:.3f})")
    lam = lyapunov(mu, n=4000, trials=300, seed=seed + 7).estimate
    f = capped_shortest(cap)
    x = BundlePoint(np.asarray(theta0, dtype=float), z0)
    ces = cesaro_distribution(mu, x, n, trials, f, AlphaCocycle(sec),
                              seed=seed + 11)
    t = lam * n
    orbit_vals = np.minimum(orbit_shortest_values(z0, t, dt), cap)
    orbit = EmpiricalMeasure(orbit_vals, "line")
    ks = ces.measure.ks_distance(orbit)
    corr = _binned_correlation(ces.base_angles, ces.measure.values)
    passed = ks <= ks_tol and corr <= corr_tol
    return EquidistResult(ks, corr, lam, t, cone, ces.mean,
                          float(np.mean(orbit_vals)), passed, n, trials, seed)


@dataclass
class DecompResult:
    ks: float
    passed: bool
    n: int
    trials: int
    seed: int


def _direct_matrix_walk_values(mu, acts, z0, n, trials, seed, f):
    """Fibre values of the plain rho(g)-walk z <- rho(g) z (no cocycle),
    where acts = _atom_entries of the rho(g_i) for the atoms g_i of mu,
    recorded at the stride cesaro_distribution uses by default."""
    record_stride = max(1, n // 5000)
    rng = np.random.default_rng(seed)
    Z = np.broadcast_to(z0.basis, (trials, 2, 2)).copy()
    n_rec = n // record_stride
    vals = np.empty((n_rec, trials))
    rec = 0
    for k, idx in _step_indices(mu, rng, n, trials):
        _apply_stack(acts, idx, Z)
        _reduce_unimodular(Z, k)
        if k % record_stride == 0 and rec < n_rec:
            vals[rec] = _record_values(Z, f)
            rec += 1
    return vals.ravel()


def decomposability_experiment(mu, rho, z0, theta0=(1.0, 0.0), n=100000,
                               trials=50, seed=0, cap=1.0, ks_tol=0.05):
    """Case 2.3.a check: the bundle walk driven by the morphism-type handle
    must produce the same fibre distribution as the direct rho(g)-walk."""
    f = capped_shortest(cap)
    handle = MorphismCocycle(lambda g: rho(g), 2)
    x = BundlePoint(np.asarray(theta0, dtype=float), z0)
    ces = cesaro_distribution(mu, x, n, trials, f, handle, seed=seed)
    acts = _atom_entries([rho(g) for g in mu.matrices])
    direct = _direct_matrix_walk_values(mu, acts, z0, n, trials,
                                        seed + 9001, f)
    ks = ces.measure.ks_distance(EmpiricalMeasure(direct, "line"))
    return DecompResult(ks, ks <= ks_tol, n, trials, seed)
