"""Random walks on the trivialized bundle (boundary x lattice fibre).

Single-step bundle dynamics, the Lyapunov estimator, empirical large
deviations, renewal sums, Cesàro fibre distributions and the equidistribution
/ decomposability experiments.  Drivers take only what they read and cannot
work out from mu: large deviations and renewal sums centre on the exact
lambda of boundary.transfer_spectrum, its one source; the fibre walks read
one statistic, the capped shortest length min(lambda_1(z), cap), and take
its cap, a number; the experiments return their statistics, which cli.py
judges against the run's tolerances.  A renewal walk stops once no
trajectory can return to the observable's support, certified by the
closed-form least step increment on the start's invariant arc
(boundary._min_log_norm); the terms it skips are exact zeros.

All Monte Carlo drivers are vectorized across trials and draw atoms through
boundary._step_blocks, in tiles: the same stream as one rng.random(trials)
per step, in step order, from one seeded generator, which keeps reports for
identical (seed, config) pairs byte-identical.  Every boundary walk is
boundary.walk_boundary, which yields the running cocycle sigma_k and
normalises only at the steps its caller reads; lattice walks carry lattice
columns only (_lattice_walk).

The Case 2.2 fibre is z_k = G(r_k, s_k) z0 by the cocycle identity, so it is
not walked: fiber.orbit_shortest reads its shortest lengths in closed form,
at r_k modulo the start point's period from its table of minimal vectors,
or by Gauss reduction, raising past fiber.HORIZON, when it has none; the
capped shortest length does not see the sign s_k.
The equidistribution experiment is one such boundary walk: its target is the
law of one period of the orbit, its start is checked against the closed-form
invariant arc, and its Lyapunov exponent is the walk's own flow time over n.
"""

import math
from dataclasses import dataclass

import numpy as np

# detect_cone, invariant_arc and sample_furstenberg are unused here but stay
# importable: perfbench/spans.py traces them at these names
from .boundary import _TILE, EmpiricalMeasure, _arc_sides, _atom_entries, \
    _block_products, _block_steps, _cone_search, _min_log_norm, \
    _step_blocks, detect_cone, invariant_arc, sample_furstenberg, \
    transfer_spectrum, walk_boundary  # noqa: F401
from .cocycles import AlphaCocycle, DiagSignValue, MorphismCocycle, \
    arc_midpoint, arc_section, unit_vector
from .errors import ConfigurationError, PreconditionError
from .fiber import LatticePoint, act, diag_action, orbit_shortest, \
    orbit_shortest_values, reduce_batch
from .group_core import _check_count, _check_positive, as_matrix, \
    finite_entries


@dataclass(frozen=True)
class BundlePoint:
    """A walk state (theta, z): boundary point (unit 2-vector) + fibre point."""

    theta: np.ndarray
    z: LatticePoint

    def __post_init__(self):
        object.__setattr__(self, "theta", unit_vector(self.theta))


@dataclass
class WalkReport:
    estimate: float
    std_error: float
    trials: int
    steps: int
    deterministic: bool = False   # the exact value of a single-atom measure


def step(g, x, cocycle):
    """One bundle step (theta, z) -> (g theta, alpha(g, theta) . z)."""
    m = as_matrix(g, "g")
    val = cocycle(m, x.theta)
    z = diag_action(val, x.z) if isinstance(val, DiagSignValue) else \
        act(val, x.z)
    return BundlePoint(m @ x.theta, z)


# --------------------------------------------------------------------------
# Lyapunov exponent


# lyapunov skips the first n // _BURN_IN steps, which takes away the
# c(u) / n bias that sigma_n / n carries from its fixed start u
_BURN_IN = 10


def lyapunov(mu, n=10000, trials=1000, seed=0):
    """Estimate lambda_mu = lim (1/n) log ||g_n ... g_1||.

    Deterministic (single-atom) measures read transfer_spectrum's exact
    lam, the log of the spectral radius.  Stochastic measures run one
    walk_boundary of `trials` walks from u off every line all atoms fix, so
    that u grows at the top exponent (Furstenberg-Kifer, 1983), and read,
    per trial, (sigma_n - sigma_b) / (n - b) with b = n // _BURN_IN.  By
    Furstenberg's formula E sigma_m(u) = m lambda exactly when u is drawn
    from the stationary law nu (Bougerol-Lacroix, 1985, ch. III); sigma_n -
    sigma_b is sigma_{n-b} from u_b, whose law is within e^(-(lambda_1 -
    lambda_2) b) of nu (e^(-2 lambda b) if |det g_i| = 1); the bias is that
    factor over n - b, where sigma_n / n carries c(u) / n from a fixed u.
    """
    _check_count("trials", trials)
    _check_count("n", n, 1000)
    mats = mu.matrices
    if len(mats) == 1:
        return WalkReport(transfer_spectrum(mu).lam, 0.0, 1, n, True)
    b = n // _BURN_IN
    u = ((1.0, 0.0) if any(g[1, 0] for g in mats) else   # some move e1
         (0.0, 1.0) if any(g[0, 1] for g in mats) else   # some move e2
         (math.sqrt(0.5),) * 2)   # diagonal: all fix (1, 1) only if scalar
    sig = [s.copy() for _, _, s in walk_boundary(
        mu, np.tile(u, (trials, 1)), n, np.random.default_rng(seed), b)]
    per = (sig[-1] - sig[0]) / (n - b)   # the first yield is at k = b
    est = float(np.mean(per))
    se = float(np.std(per, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return WalkReport(est, se, trials, n)


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


_LDP_CHUNK = 20000   # trials walked at once; part of the RNG stream contract


def ldp_tail(mu, eps1=None, n_grid=None, *, trials, seed=0):
    """Empirical tails of |sigma(g_n ... g_1, e1) - lambda n| >= eps1 n, every
    trial walked from e1 = (1, 0).

    Returns the per-n table plus a log-linear fit (slope, intercept, R^2) over
    the rows with at least one observed event; zero-event rows are reported
    as the upper confidence bound 3/trials and excluded from the fit.  Trials
    are walked in chunks of _LDP_CHUNK, which fixes the RNG stream, at stride
    gcd(n_grid) (200 for the default grid), so r is read, and the walk
    normalised, only at multiples of the gcd, where every grid point lies.
    lambda is a property of mu, the exact Lyapunov exponent of
    boundary.transfer_spectrum, reported as lam; eps1, which must be > 0,
    defaults to lam / 4.
    """
    _check_count("trials", trials)
    n_grid = range(200, 2001, 200) if n_grid is None else tuple(n_grid)
    if not n_grid:
        raise PreconditionError("n_grid must be non-empty (None walks the "
                                "default 200, 400, ..., 2000)")
    for n in n_grid:
        _check_count("n_grid point", n)
    n_grid = tuple(sorted(set(n_grid)))
    lam = transfer_spectrum(mu).lam
    eps1 = lam / 4.0 if eps1 is None else eps1
    _check_positive("eps1 (default lam / 4)", eps1)
    grid_set = {n: j for j, n in enumerate(n_grid)}
    stride = math.gcd(*n_grid)   # every grid point is a yield
    counts = np.zeros(len(n_grid), dtype=np.int64)
    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        c = min(_LDP_CHUNK, trials - done)
        U = np.tile((1.0, 0.0), (c, 1))
        for k, _, r in walk_boundary(mu, U, n_grid[-1], rng, stride):
            if k in grid_set:
                counts[grid_set[k]] += int(
                    np.count_nonzero(np.abs(r - lam * k) >= eps1 * k))
        done += c
    rows = [(n, 3.0 / trials, True) if c == 0 else (n, c / trials, False)
            for n, c in zip(n_grid, counts)]
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
                     trials)


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


_ROUNDING = 1e-12   # slack per step of renewal_sum's early stop


def renewal_sum(mu, f, w, t, k_max=None, *, trials, seed=0, radius=None,
                f_max=None):
    """Monte Carlo renewal sum R f(w, t) = sum_k E[f(g w, sigma(g, w) - t)].

    f must be vectorized: f(U, s) with U an (N, 2) stack of circle points and
    s an (N,) array of shifted cocycle values, returning (N,) values; it must
    vanish for |s| > radius.  Each trajectory contributes at steps
    k <= k_max.  lam is the exact Lyapunov exponent of mu, from
    boundary.transfer_spectrum, and must be > 0; k_max, which must be at
    least 3 t / lam, defaults to ceil(3 t / lam) + 20.  Given k_max, the
    estimate does not depend on lam.

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
    _check_count("trials", trials)
    w = unit_vector(w)
    spec = transfer_spectrum(mu, w)
    lam = spec.lam
    if not lam > 0:
        raise PreconditionError("renewal_sum needs a positive Lyapunov "
                                f"exponent, got {lam}")
    if k_max is None:
        k_max = int(math.ceil(3.0 * t / lam)) + 20
    _check_count("k_max", k_max)
    if k_max < 3.0 * t / lam:
        raise PreconditionError("k_max below 3 t / lambda")
    rng = np.random.default_rng(seed)
    U = np.tile(w, (trials, 1))
    totals = np.zeros(trials)
    observed_max = 0.0
    loss = max(0.0, _ROUNDING - _min_log_norm(mu.matrices, spec.arc))
    steps = k_max
    for k, _, r in walk_boundary(mu, U, k_max, rng):
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
    return RenewalResult(est, se, bound, warn, k_max, steps, lam)


# --------------------------------------------------------------------------
# Cesàro fibre distributions


@dataclass
class CesaroResult:
    mean: float
    std_error: float              # of the mean, across trials
    measure: EmpiricalMeasure     # fibre observable values
    base_angles: np.ndarray       # aligned base coordinates (projective)
    flow_time: float              # mean running cocycle r_n
    record_stride: int


def _lattice_walk(mu, acts, z, rng, stride, cap, vals):
    """Fill vals (n_rec, N) with min(lambda_1(z_k), cap) at every stride-th
    step of N walks z <- rho(g) z from z, g drawn from mu: acts =
    _atom_entries of the atoms' images rho(g_i), one table for every column.
    One _block_products scan per tile, cut into blocks of _block_steps(acts)
    steps (the last padded).  Per block, the record rows and the last times
    the start bases fill C (2, 2, rows, N), C[j] the bases' column j, and
    reduce_batch reduces C in place through its component views; the last
    row goes on at |det| 1."""
    n_rec, N = vals.shape
    m = _block_steps(acts)
    S = np.repeat(z.basis.T[:, :, None, None], N, 3)   # as C, of one row
    for k, tile in _step_blocks(mu, rng, n_rec * stride, N):
        t, k0 = min(m, len(tile)), k - len(tile)
        P = _block_products(acts, np.concatenate(   # padded by its head
            (tile, tile[:-len(tile) % t])).reshape(-1, t, N))
        j = list(range(k0, k, t)) + [k]   # block bounds, in steps
        r = [i // stride for i in j]   # records before each bound
        rows = np.sort(np.concatenate((np.arange(r[0] + 1, r[-1] + 1) *
                                       stride, j[1:]))) - k0 - 1
        G = [p.reshape(-1, N)[rows] for p in P]   # block i: records, last
        for i in range(len(j) - 1):
            lo, hi = r[i] - r[0] + i, r[i + 1] - r[0] + i + 1
            a, b, c, d = (g[lo:hi] for g in G)
            C = np.empty((2, 2, hi - lo, N))
            np.add(a * S[:, 0], b * S[:, 1], out=C[:, 0])
            np.add(c * S[:, 0], d * S[:, 1], out=C[:, 1])
            reduce_batch(C.reshape(2, 2, -1).transpose(2, 1, 0))
            vals[r[i]:r[i + 1]] = np.minimum(np.sqrt(C[0, 0, :-1] ** 2 +
                                                     C[0, 1, :-1] ** 2), cap)
            Z = C[:, :, -1:]
            S = Z / np.sqrt(np.abs(Z[0, 0] * Z[1, 1] - Z[1, 0] * Z[0, 1]))


_RECORDS = 5000   # records per trajectory at the default stride


def _fold_angles(y, x):
    """np.mod(np.arctan2(y, x), pi) bit for bit, written over y: arctan2
    lies in [-pi, pi], an exact pi folds to 0, a negative angle gains pi
    and adding 0.0 turns -0.0 into +0.0."""
    a = np.arctan2(y, x, out=y)
    a[a == math.pi] = 0.0
    np.add(a, math.pi, out=a, where=a < 0.0)
    a += 0.0
    return a


def cesaro_distribution(mu, x, n, trials, cap, cocycle, seed=0,
                        record_stride=None):
    """Cesàro mean and empirical distribution of the capped shortest length
    min(lambda_1(z_k), cap) along the walk, cap a finite number > 0.

    Each of `trials` trajectories starts at x.theta as BundlePoint
    normalised it (in Case 2.2, its section's side) and contributes (a
    strided subsample of) its n prefix points.  The handle must be an
    AlphaCocycle (Case 2.2) or a MorphismCocycle; step() is the scalar
    reference for both.  For both, one walk_boundary run at record_stride
    from default_rng(seed) records the base coordinate, u_k's angle mod pi
    (folded in place), for the product-structure diagnostic.  A
    MorphismCocycle's fibre is a _lattice_walk on a second default_rng(seed):
    both walks are trials wide, so they draw the same atoms.

    In Case 2.2, z_k = G(r_k, s_k) z0 with r_k the walk's running cocycle,
    and the section signs s_k are not tracked: s_k = -1 negates the second
    row of the basis, which the shortest length does not see (a closed
    orbit's table squares it; Gauss reduction carries it exactly, as its
    projections and norms see only products of that row with itself), so
    the values equal those of G(r_k, 1) z0 bit for bit.  flow_time is the
    mean of the walk's running cocycle r_n.
    """
    _check_count("n", n, 1000)
    _check_count("trials", trials)
    if record_stride is None:
        record_stride = max(1, n // _RECORDS)
    _check_count("record_stride", record_stride)
    if record_stride > n:
        raise PreconditionError(f"record_stride must lie in [1, n = {n}], "
                                f"got {record_stride}")
    _check_positive("cap", cap)
    if isinstance(cocycle, AlphaCocycle):
        start = cocycle.section.side(*x.theta.tolist()) * x.theta
    elif isinstance(cocycle, MorphismCocycle):
        acts = _atom_entries([finite_entries(cocycle(g, None), "rho(g)")
                              for g in mu.matrices])
        start = x.theta
    else:
        raise PreconditionError(
            "cesaro_distribution supports AlphaCocycle and MorphismCocycle "
            f"handles, got {type(cocycle).__name__}")
    n_rec = n // record_stride
    vals = np.empty((n_rec, trials))
    # u_k at the records, as two arrays: one 8 MB block raised peak RSS
    rec_x, rec_y = np.empty((n_rec, trials)), np.empty((n_rec, trials))
    U = np.tile(start, (trials, 1))
    for k, _, r in walk_boundary(mu, U, n, np.random.default_rng(seed),
                                 record_stride):
        if k % record_stride == 0:
            j = k // record_stride - 1
            vals[j] = r   # r_k, read by Case 2.2 below
            rec_x[j], rec_y[j] = U[:, 0], U[:, 1]
    base = _fold_angles(rec_y, rec_x)
    if isinstance(cocycle, AlphaCocycle):
        # the fibre's shortest lengths from r_k, m records at a time
        m = max(1, _TILE // trials)
        for lo in range(0, n_rec, m):
            vals[lo:lo + m] = np.minimum(
                orbit_shortest(x.z, vals[lo:lo + m]), cap)
    else:
        _lattice_walk(mu, acts, x.z, np.random.default_rng(seed),
                      record_stride, cap, vals)
    mean = float(np.mean(vals))
    se = float(np.std(np.mean(vals, axis=0), ddof=1) / math.sqrt(trials)) \
        if trials > 1 else 0.0
    return CesaroResult(mean, se, EmpiricalMeasure(vals.ravel(), "line"),
                        base.ravel(), float(np.mean(r)), record_stride)


# --------------------------------------------------------------------------
# experiments


_BINS = 10   # quantile bins per axis of _binned_correlation


def _binned_correlation(base, vals):
    """|Pearson correlation| between base-coordinate bins and observable bins
    (quantile bins on each axis); should vanish for product measures.  Edges
    are np.quantile's over one sorted copy per axis (overwritten); a value's
    bin, in the least integer type that holds a pair's index, is the count
    of edges below it.  The _BINS x _BINS count table of bin pairs gives
    exact integer moments: |n Sxy - Sx Sy| / sqrt(Vx Vy), at most 1, and
    0.0 when an axis has one bin (Vx Vy = 0)."""
    qs = np.linspace(0, 1, _BINS + 1)[1:-1]
    ib, iv = (sum((v > e for e in np.quantile(np.sort(v), qs,
                                             overwrite_input=True).tolist()),
                  np.zeros(len(v), np.min_scalar_type(_BINS * _BINS)))
              for v in (base, vals))
    t = np.bincount(ib * _BINS + iv, minlength=_BINS * _BINS).reshape(
        _BINS, _BINS)
    n, k = len(ib), np.arange(_BINS)
    (sx, sxx), (sy, syy) = ((int(k @ m), int(k * k @ m))
                            for m in (t.sum(axis=1), t.sum(axis=0)))
    vx, vy = n * sxx - sx * sx, n * syy - sy * sy
    if vx == 0 or vy == 0:
        return 0.0
    return min(1.0, abs(n * int(k @ t @ k) - sx * sy) / math.sqrt(vx * vy))


@dataclass
class EquidistResult:
    ks: float
    correlation: float
    lam: float
    t: float
    cone: str
    cesaro_mean: float
    orbit_mean: float


_PERIOD_POINTS = 1 << 15   # midpoints of the one-period orbit law


def equidist_experiment(mu, z0, theta0=None, *, n, trials, cap=1.0, seed=0):
    """Compare the Cesàro fibre distribution against the law of one period
    of the closed diagonal orbit of z0.

    The walk follows the Case 2.2 (D±-valued) cocycle over the section
    cocycles.arc_section(invariant_arc(mu)): the cone half-circle when an
    invariant cone exists, plain otherwise.  At z_k = G(r_k, s_k) z0 the
    observable depends only on r_k mod r0, the period z0 must carry, and
    r_k mod r0 equidistributes by the renewal theorem (Kesten, 1974); the
    orbit side is read at _PERIOD_POINTS midpoints.

    theta0 defaults to arc_midpoint(arc), which BundlePoint normalises to
    the section's ref.  In the cone case theta0 must lie in the invariant
    arc Lambda_1 or its antipode Lambda_2 (boundary._arc_sides), which hold
    the supports of the two stationary measures.  The reported t is the
    walk's mean flow time r_n and lam = t / n; no separate Lyapunov run is
    made.  cone is detect_cone(mu), read with the arc from one search
    (boundary._cone_search).  The result holds the KS distance and the
    binned correlation; the caller judges them.
    """
    if z0.period is None:
        raise PreconditionError("equidist_experiment needs z0 with a period "
                                "(a closed diagonal orbit)")
    arc, cone = _cone_search(mu.matrices)
    theta0 = np.asarray(arc_midpoint(arc) if theta0 is None else theta0,
                        dtype=float)
    x = BundlePoint(theta0, z0)   # refuses a theta0 that is no 2-vector
    if arc is not None and not any(
            side[0] for side in _arc_sides(theta0.reshape(1, 2), arc)):
        raise ConfigurationError(
            f"theta0 {theta0.tolist()} is in neither invariant arc of the "
            "stationary measures")
    ces = cesaro_distribution(mu, x, n, trials, cap,
                              AlphaCocycle(arc_section(arc)), seed=seed + 11)
    t = ces.flow_time
    orbit_vals = np.minimum(orbit_shortest_values(
        z0, z0.period, z0.period / _PERIOD_POINTS), cap)
    orbit = EmpiricalMeasure(orbit_vals, "line")
    ks = ces.measure.ks_distance(orbit)
    corr = _binned_correlation(ces.base_angles, ces.measure.values)
    return EquidistResult(ks, corr, t / n, t, cone, ces.mean,
                          float(np.mean(orbit_vals)))


@dataclass
class DecompResult:
    ks: float


def decomposability_experiment(mu, rho, z0, n, trials, seed=0, cap=1.0):
    """Case 2.3.a check: the bundle walk driven by the morphism-type handle
    must produce the same fibre distribution as the direct rho(g)-walk.

    The handle's value alpha(g, .) = rho(g) does not depend on the boundary
    point, so both sides step by one table of the rho(g_i): one _lattice_walk
    of 2 trials columns from one generator, default_rng(seed), each column
    drawing its own atoms, the first trials columns the handle's side and
    the rest the direct walk.  Both record at cesaro_distribution's default
    stride, and the result holds the KS distance between the two halves;
    the caller judges it."""
    _check_count("n", n, 1000)
    _check_count("trials", trials)
    _check_positive("cap", cap)
    handle = MorphismCocycle(rho)   # refuses a rho it cannot call
    acts = _atom_entries([finite_entries(handle(g, None), "rho(g)")
                          for g in mu.matrices])
    stride = max(1, n // _RECORDS)
    vals = np.empty((n // stride, 2 * trials))
    _lattice_walk(mu, acts, z0, np.random.default_rng(seed), stride, cap,
                  vals)
    ks = EmpiricalMeasure(vals[:, :trials], "line").ks_distance(
        EmpiricalMeasure(vals[:, trials:], "line"))
    return DecompResult(ks)
