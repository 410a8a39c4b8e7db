"""Random walks on the trivialized bundle (boundary x lattice fibre).

Single-step bundle dynamics, the Lyapunov estimator, empirical large
deviations, renewal sums, Cesàro fibre distributions and the equidistribution
/ decomposability experiments.  A renewal walk stops once no trajectory can
return to the observable's support, certified by the closed-form least
step increment on the start's invariant arc (boundary._min_log_norm); the
terms it skips are exact zeros, so its report does not change.

All Monte Carlo drivers are vectorized across trials and draw atoms through
boundary._step_blocks, in tiles: the same stream as one rng.random(trials)
per step, in step order, from one seeded generator, which keeps reports for
identical (seed, config) pairs byte-identical.  The boundary walks (large
deviations, renewal sums, Cesàro distributions, and p1/p2 in boundary.py)
all go through boundary.walk_boundary, which normalises and takes a log only
where its caller reads: at every LDP grid stride and Cesàro record, and at
every step for renewal sums and p1/p2.  Matrix stacks (lyapunov
and the lattice walks: MorphismCocycle and the direct rho-walk) go one block
of steps at a time: one block product (boundary._block_products) and, for
lattice walks, one Gauss reduction per block.  The decomposability experiment
walks both of its sides as one lattice walk of 2 trials columns on one
stream, so each block costs one reduction of twice the width.

The Case 2.2 fibre is z_k = G(r_k, s_k) z0 by the cocycle identity, so it is
not walked: fiber.diag_orbit evaluates it in closed form, wrapping r_k modulo
the start point's period or raising past fiber.HORIZON when it has none, and
the capped shortest length it is read through does not see the sign s_k.  The
equidistribution experiment is one such boundary walk: its target is the law
of one period of the orbit, its start is checked against the closed-form
invariant arc, and its Lyapunov exponent is the walk's own flow time over n.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

# detect_cone, invariant_arc and sample_furstenberg are unused here but stay
# importable: perfbench/spans.py traces them at these names
from .boundary import _TILE, EmpiricalMeasure, _arc_sides, _atom_entries, \
    _block_products, _cone_search, _min_log_norm, _step_blocks, \
    detect_cone, invariant_arc, sample_furstenberg, transfer_spectrum, \
    walk_boundary  # noqa: F401
from .cocycles import AlphaCocycle, DiagSignValue, MorphismCocycle, \
    arc_section, unit_vector
from .errors import ConfigurationError, PreconditionError
from .fiber import LatticePoint, act, capped_shortest, diag_action, \
    diag_orbit, orbit_shortest_values, reduce_batch
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


def _check_trials(trials):
    if trials < 1:
        raise PreconditionError(f"trials >= 1 required, got {trials}")


# --------------------------------------------------------------------------
# Lyapunov exponent


def lyapunov(mu, n=10000, trials=1000, seed=0):
    """Estimate lambda_mu = lim (1/n) log ||g_1 ... g_n||.

    Deterministic (single-atom) measures are answered exactly as the log of
    the spectral radius; stochastic measures by matrix products batched
    over trials, one block product (boundary._block_products) applied and
    one sup-norm renormalization per block of steps.
    """
    _check_trials(trials)
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
    M = np.tile([[1.0], [0.0], [0.0], [1.0]], trials)   # entries of M_i
    acc = np.zeros(trials)
    for _, idx in _step_blocks(mu, rng, n, trials, entries):
        a, b, c, d = (p[-1] for p in _block_products(entries, idx))
        M = np.array([a * M[0] + b * M[2], a * M[1] + b * M[3],
                      c * M[0] + d * M[2], c * M[1] + d * M[3]])
        nrm = np.abs(M).max(0)
        acc += np.log(nrm)
        M /= nrm
    top = np.linalg.svd(M.T.reshape(trials, 2, 2), compute_uv=False)[:, 0]
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
    are walked in chunks of _LDP_CHUNK, which fixes the RNG stream, at stride
    gcd(n_grid) (200 for the default grid), so r is read, and the walk
    normalised, only at multiples of the gcd, where every grid point lies.  lam
    defaults to the exact Lyapunov exponent of boundary.transfer_spectrum,
    and eps1, which must be > 0, to lam / 4.
    """
    _check_trials(trials)
    n_grid = tuple(sorted(set(n_grid or range(200, 2001, 200))))
    if n_grid[0] < 1:
        raise PreconditionError(f"n_grid needs points >= 1, got {n_grid}")
    if lam is None:
        lam = transfer_spectrum(mu).lam
    if eps1 is None:
        eps1 = lam / 4.0
    if not eps1 > 0:
        raise PreconditionError(f"eps1 > 0 required (default lam / 4), got "
                                f"{eps1}")
    grid_set = {n: j for j, n in enumerate(n_grid)}
    stride = math.gcd(*n_grid)   # every grid point is a yield
    counts = np.zeros(len(n_grid), dtype=np.int64)
    rng = np.random.default_rng(seed)
    w = unit_vector(w)
    done = 0
    while done < trials:
        c = min(_LDP_CHUNK, trials - done)
        U = np.tile(w, (c, 1))
        r = np.zeros(c)
        for k, _, dr in walk_boundary(mu, U, n_grid[-1], rng, stride):
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
    steps: int            # the last step walked (see renewal_sum)
    lam: float
    trials: int
    seed: int


_ROUNDING = 1e-12   # slack per step of renewal_sum's early stop


def renewal_sum(mu, f, w, t, k_max=None, trials=20000, seed=0, lam=None,
                radius=None, f_max=None):
    """Monte Carlo renewal sum R f(w, t) = sum_k E[f(g w, sigma(g, w) - t)].

    f must be vectorized: f(U, s) with U an (N, 2) stack of circle points and
    s an (N,) array of shifted cocycle values, returning (N,) values; it must
    vanish for |s| > radius.  Each trajectory contributes at steps
    k <= k_max.  lam, which must be > 0, defaults to the exact Lyapunov
    exponent and k_max to ceil(3 t / lam) + 20.

    The walk stops early, with the result unchanged to the bit, once no
    trajectory can return to f's support: every step adds at least
    m = min log ||g u|| over the atoms g and the unit vectors u of the
    smallest invariant arc holding w (boundary._min_log_norm; the whole
    circle without one) to r, so after step k every later term is exactly 0
    when min r - t - radius > (k_max - k) max(0, delta - m), delta = 1e-12
    being rounding slack.  steps is the last step walked; without a radius
    it is k_max.

    The omitted k > k_max tail is bounded by Chernoff's inequality with the
    transfer operator P_{-1} on the smallest invariant arc holding w
    (boundary.transfer_spectrum): sum_{k > k_max} f_max P(sigma_k <= t + R)
    <= f_max ratio e^(t + R) e^((k_max + 1) L) / (1 - e^L), R the radius and
    L = Lambda(-1) plus its discretisation margin.  The bound is inf, with
    truncation_warning set, when radius is None, L >= 0 or w lies in no
    invariant arc; f_max defaults to the largest |f| the walk observed.
    """
    _check_trials(trials)
    w = unit_vector(w)
    spec = transfer_spectrum(mu, w)
    if lam is None:
        lam = spec.lam
    if not lam > 0:
        raise PreconditionError("renewal_sum needs a positive Lyapunov "
                                f"exponent, got {lam}")
    if k_max is None:
        k_max = int(math.ceil(3.0 * t / lam)) + 20
    if k_max < 3.0 * t / lam:
        raise PreconditionError("k_max below 3 t / lambda")
    rng = np.random.default_rng(seed)
    U = np.tile(w, (trials, 1))
    r = np.zeros(trials)
    totals = np.zeros(trials)
    observed_max = 0.0
    loss = max(0.0, _ROUNDING - _min_log_norm(mu.matrices, spec.arc))
    steps = k_max
    for k, _, dr in walk_boundary(mu, U, k_max, rng):
        r += dr
        contrib = np.asarray(f(U, r - t), dtype=float)
        totals += contrib
        if f_max is None:
            observed_max = max(observed_max, float(np.max(np.abs(contrib))))
        if radius is not None and r.min() - t - radius > (k_max - k) * loss:
            steps = k
            break
    est = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    fmax = f_max if f_max is not None else observed_max
    rate = spec.rate + spec.margin   # NaN without an arc
    bound = (fmax * spec.lower_tail(k_max + 1, t + radius) / -math.expm1(rate)
             if radius is not None and rate < 0 else math.inf)
    warn = bound > 0.01 * abs(est)
    return RenewalResult(est, se, bound, warn, k_max, steps, lam, trials,
                         seed)


# --------------------------------------------------------------------------
# Cesàro fibre distributions


@dataclass
class CesaroResult:
    mean: float
    measure: EmpiricalMeasure     # fibre observable values
    base_angles: np.ndarray       # aligned base coordinates (projective)
    report: WalkReport
    record_stride: int


def _lattice_walk(mu, acts, z, rng, stride, f, vals, base=None):
    """Fill vals (n_rec, N) with f at every stride-th step of N walks
    z <- rho(g) z from z, g drawn from mu.  acts = _atom_entries of h tables
    of the atoms' images rho(g_i), concatenated: the j-th run of N / h
    columns steps by table j, its atom indices offset by j len(mu.atoms).
    With base = (u, out), fill out (n_rec, N) with the angles of u walked
    by each column's g_i.  Per block (_step_blocks of all tables), prefix
    products times the start bases are reduced at record rows and the last,
    carried on at |det| 1."""
    n_rec, N = vals.shape
    n_atoms = len(mu.atoms)
    h = len(acts[0]) // n_atoms
    off = np.repeat(np.arange(h) * n_atoms, N // h)
    S = np.tile(z.basis.ravel(), (N, 1)).T   # entries of the Z_i
    if base is not None:   # the atoms' products act on [u, 0] in columns N..
        acts = tuple(map(np.concatenate, zip(acts, _atom_entries(mu.matrices))))
        S = np.hstack((S, np.tile(np.outer(base[0], (1, 0)).reshape(4, 1), N)))
        off = np.append(off, np.full(N, h * n_atoms))
    for k, idx in _step_blocks(mu, rng, n_rec * stride, N, acts):
        j0 = k - len(idx)
        rec = np.arange(j0 // stride + 1, k // stride + 1)   # record numbers
        rows = np.append(rec * stride - j0 - 1, len(idx) - 1)
        idx = (idx if base is None else np.tile(idx, 2)) + off
        a, b, c, d = (p[rows] for p in _block_products(acts, idx))
        W = np.stack((a * S[0] + b * S[2], a * S[1] + b * S[3],
                      c * S[0] + d * S[2], c * S[1] + d * S[3]), -1)
        Z = reduce_batch(W[:, :N].reshape(-1, 2, 2)).reshape(-1, N, 4)
        vals[rec - 1] = _record_values(Z[:-1], f)
        S[:, :N] = Z[-1].T / np.sqrt(np.abs(Z[-1, :, 0] * Z[-1, :, 3] -
                                            Z[-1, :, 1] * Z[-1, :, 2]))
        if base is not None:
            x, y = W[:, N:, 0], W[:, N:, 2]
            base[1][rec - 1] = np.mod(np.arctan2(y[:-1], x[:-1]), math.pi)
            S[:, N:] = W[-1, N:].T / np.hypot(x[-1], y[-1])


def _record_values(Z, f):
    """min(shortest vector, f.cap) of reduced bases as (..., 4) entries."""
    cap = getattr(f, "cap", None)
    if cap is None:
        raise PreconditionError("the fibre observable must come from "
                                f"capped_shortest, got {f!r}")
    return np.minimum(np.sqrt(Z[..., 0] ** 2 + Z[..., 2] ** 2), cap)


_RECORDS = 5000   # records per trajectory at the default stride


def cesaro_distribution(mu, x, n, trials, f, cocycle, seed=0,
                        record_stride=None):
    """Cesàro mean and empirical distribution of f(z_k) along the walk, for
    f = capped_shortest(cap).

    Each of `trials` trajectories contributes (a strided subsample of) its n
    prefix points.  The base coordinate is recorded alongside for the
    product-structure diagnostic.  The handle must be an AlphaCocycle (Case
    2.2) or a MorphismCocycle; step() is the scalar reference for both.

    In Case 2.2, z_k = G(r_k, s_k) z0 and the section signs s_k are not
    tracked: s_k = -1 negates the second row of the basis, which Gauss
    reduction carries exactly (its projections and norms see only products
    of that row with itself) and the shortest length does not see, so the
    values equal those of G(r_k, 1) z0 bit for bit.  The boundary walk runs
    at record_stride, so r_k is one log per record (walk_boundary).  The mean
    flow time r_n over the trials is reported as report.extra["flow_time"].
    """
    if n < 1000:
        raise PreconditionError("n >= 1000 required")
    _check_trials(trials)
    t0 = time.perf_counter()
    if record_stride is None:
        record_stride = max(1, n // _RECORDS)
    if not 1 <= record_stride <= n:
        raise PreconditionError(f"record_stride must lie in [1, n = {n}], "
                                f"got {record_stride}")
    rng = np.random.default_rng(seed)
    n_rec = n // record_stride
    vals = np.empty((n_rec, trials))
    base = np.empty((n_rec, trials))

    extra = {}
    if isinstance(cocycle, AlphaCocycle):
        # Case 2.2: the cocycle identity gives z_k = G(r_k, s_k) z0 exactly,
        # with r_k the summed log-norm increments, so only the boundary is
        # walked and vals holds r_k until the fibre is evaluated by
        # diag_orbit, m records at a time
        U = np.tile(cocycle.section.lift(x.theta), (trials, 1))
        r = np.zeros(trials)
        for k, _, dr in walk_boundary(mu, U, n, rng, record_stride):
            r += dr
            if k % record_stride == 0:
                j = k // record_stride - 1
                vals[j] = r
                base[j] = np.mod(np.arctan2(U[:, 1], U[:, 0]), math.pi)
        m = max(1, _TILE // trials)
        for lo in range(0, n_rec, m):
            vals[lo:lo + m] = _record_values(diag_orbit(
                x.z, vals[lo:lo + m].ravel()).reshape(-1, trials, 4), f)
        extra["flow_time"] = float(np.mean(r))
    elif isinstance(cocycle, MorphismCocycle):
        acts = _atom_entries([cocycle(g, None) for g in mu.matrices])
        _lattice_walk(mu, acts, x.z, rng, record_stride, f, vals,
                      (unit_vector(x.theta), base))
    else:
        raise PreconditionError(
            "cesaro_distribution supports AlphaCocycle and MorphismCocycle "
            f"handles, got {type(cocycle).__name__}")
    mean = float(np.mean(vals))
    se = float(np.std(np.mean(vals, axis=0), ddof=1) / math.sqrt(trials)) \
        if trials > 1 else 0.0
    report = WalkReport("cesaro_mean", mean, se, trials, n, seed,
                        time.perf_counter() - t0, extra)
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


_PERIOD_POINTS = 1 << 15   # midpoints of the one-period orbit law


def equidist_experiment(mu, z0, theta0=None, n=100000, trials=200, cap=1.0,
                        seed=0, ks_tol=0.05, corr_tol=0.05):
    """Compare the Cesàro fibre distribution against the law of one period
    of the closed diagonal orbit of z0.

    The walk follows the Case 2.2 (D±-valued) cocycle over the section
    cocycles.arc_section(invariant_arc(mu)): the cone half-circle when an
    invariant cone exists, plain otherwise.  At z_k = G(r_k, s_k) z0 the
    observable depends only on r_k mod r0, the period z0 must carry, and
    r_k mod r0 equidistributes by the renewal theorem (Kesten, 1974); the
    orbit side is read at _PERIOD_POINTS midpoints.

    theta0 defaults to the section's ref, the midpoint of the arc when there
    is one.  In the cone case theta0 must lie in the invariant arc Lambda_1
    or its antipode Lambda_2 (boundary._arc_sides), which hold the supports
    of the two stationary measures.  The reported t is the walk's mean flow
    time r_n and lam = t / n; no separate Lyapunov run is made.  cone is
    detect_cone(mu), read with the arc from one search (boundary._cone_search).
    """
    if z0.period is None:
        raise PreconditionError("equidist_experiment needs z0 with a period "
                                "(a closed diagonal orbit)")
    arc, cone = _cone_search(mu.matrices)
    sec = arc_section(arc)
    theta0 = np.asarray(sec.ref if theta0 is None else theta0, dtype=float)
    if arc is not None and not any(
            side[0] for side in _arc_sides(theta0.reshape(1, 2), arc)):
        raise ConfigurationError(
            f"theta0 {theta0.tolist()} is in neither invariant arc of the "
            "stationary measures")
    f = capped_shortest(cap)
    x = BundlePoint(theta0, z0)
    ces = cesaro_distribution(mu, x, n, trials, f, AlphaCocycle(sec),
                              seed=seed + 11)
    t = ces.report.extra["flow_time"]
    orbit_vals = np.minimum(orbit_shortest_values(
        z0, z0.period, z0.period / _PERIOD_POINTS), cap)
    orbit = EmpiricalMeasure(orbit_vals, "line")
    ks = ces.measure.ks_distance(orbit)
    corr = _binned_correlation(ces.base_angles, ces.measure.values)
    passed = ks <= ks_tol and corr <= corr_tol
    return EquidistResult(ks, corr, t / n, t, cone, ces.mean,
                          float(np.mean(orbit_vals)), passed, n, trials, seed)


@dataclass
class DecompResult:
    ks: float
    passed: bool
    n: int
    trials: int
    seed: int


def decomposability_experiment(mu, rho, z0, theta0=(1.0, 0.0), n=100000,
                               trials=50, seed=0, cap=1.0, ks_tol=0.05):
    """Case 2.3.a check: the bundle walk driven by the morphism-type handle
    must produce the same fibre distribution as the direct rho(g)-walk.

    Both sides are one _lattice_walk of 2 trials columns from one generator,
    default_rng(seed), each column drawing its own atoms: the first trials
    columns step by the handle's values alpha(g_i, theta0), the rest by
    rho(g_i).  Both record at cesaro_distribution's default stride, and the
    KS distance compares the two halves."""
    if n < 1000:
        raise PreconditionError("n >= 1000 required")
    _check_trials(trials)
    theta0 = unit_vector(theta0)
    handle = MorphismCocycle(rho, 2)
    acts = _atom_entries([handle(g, theta0) for g in mu.matrices] +
                         [rho(g) for g in mu.matrices])
    stride = max(1, n // _RECORDS)
    vals = np.empty((n // stride, 2 * trials))
    _lattice_walk(mu, acts, z0, np.random.default_rng(seed), stride,
                  capped_shortest(cap), vals)
    ks = EmpiricalMeasure(vals[:, :trials], "line").ks_distance(
        EmpiricalMeasure(vals[:, trials:], "line"))
    return DecompResult(ks, ks <= ks_tol, n, trials, seed)
