"""Furstenberg-boundary numerics on the circle / projective line.

Stationary-measure sampling, rank-one limit vectors and limit forms of random
matrix products, invariant-cone detection by arc refinement, and the
attraction probabilities p1/p2 of the two-measure (cone) case.

Boundary points are represented by unit 2-vectors; empirical measures store
angles (radians) for circle/projective samples and raw reals for observable
values.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .group_core import as_matrix

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# step measures


@dataclass(frozen=True)
class StepMeasure:
    """A finitely supported step distribution: atoms of (weight, matrix)."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(w), np.array(as_matrix(g), dtype=float))
                      for w, g in self.atoms)
        if not atoms:
            raise PreconditionError("empty step measure")
        for w, g in atoms:
            if w <= 0.0:
                raise PreconditionError("atom weights must be positive")
            if g.shape != (2, 2):
                raise PreconditionError(f"atoms must be 2x2, got {g.shape}")
            g.setflags(write=False)
        total = sum(w for w, _ in atoms)
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "atoms", atoms)
        cum = np.cumsum([w for w, _ in atoms])
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def uniform(cls, mats):
        n = len(mats)
        return cls(tuple((1.0 / n, m) for m in mats))

    @property
    def matrices(self):
        return [g for _, g in self.atoms]

    def cumulative(self):
        return self._cum

    def sample_indices(self, rng, size):
        """Atom indices for `size` (int or shape) independent steps, the
        only atom sampler: u picks atom i if cum[i-1] < u <= cum[i], the last
        atom all u > cum[-2] (a compare per boundary beats binary search)."""
        u = rng.random(size)
        return sum((c < u for c in self._cum[:-1]), np.zeros(u.shape, int))

    def looks_zariski_dense(self):
        """Heuristic: some pair fails to commute and products grow."""
        mats = self.matrices
        noncomm = any(np.max(np.abs(a @ b - b @ a)) > 1e-9
                      for i, a in enumerate(mats) for b in mats[i + 1:])
        p = np.eye(2)
        for k in range(60):
            p = mats[k % len(mats)] @ p
        unbounded = np.max(np.abs(p)) > 10.0
        return noncomm and unbounded


# --------------------------------------------------------------------------
# the cocycle walk


_TILE = 1 << 15  # uniforms per tile of atom draws, orbit points per fibre block


def _atom_entries(mats):
    """Entry arrays (a, b, c, d) of 2x2 matrices g_i = [[a, b], [c, d]]_i."""
    return tuple(np.asarray(mats, dtype=float).reshape(-1, 4).T.copy())


def _step_indices(mu, rng, n, N):
    """Yield (k, atom indices) for steps k = 1..n of N parallel walks, drawn
    in tiles of m = max(1, _TILE // N) steps (the last cut to the steps
    left): the same stream as one rng.random(N) per step, in step order."""
    m = max(1, _TILE // N)
    for k in range(0, n, m):
        yield from enumerate(mu.sample_indices(rng, (min(m, n - k), N)), k + 1)


def _apply_stack(entries, idx, X):
    """X[i] <- g_{idx[i]} @ X[i] on an (N, 2, 2) stack; g by _atom_entries."""
    a, b, c, d = (e[idx] for e in entries)
    x00, x01, x10, x11 = X[:, 0, 0], X[:, 0, 1], X[:, 1, 0], X[:, 1, 1]
    y00, y01 = a * x00 + b * x10, a * x01 + b * x11
    X[:, 1, 0], X[:, 1, 1] = c * x00 + d * x10, c * x01 + d * x11
    X[:, 0, 0], X[:, 0, 1] = y00, y01


def walk_boundary(mu, U, n, rng):
    """Advance the (N, 2) unit vectors U in place through n steps of the
    mu-walk, yielding (k, atom indices, log ||g_k u||) after step k.

    The stream contract keeps the reports of its consumers (ldp_tail,
    renewal_sum, cesaro_distribution, estimate_p1p2) byte-stable: tiles of m
    steps, the same stream as one rng.random(trials) per step (N = trials).
    """
    a, b, c, d = _atom_entries(mu.matrices)
    u0, u1 = U[:, 0], U[:, 1]
    for k, idx in _step_indices(mu, rng, n, len(U)):
        x = a[idx] * u0 + b[idx] * u1
        y = c[idx] * u0 + d[idx] * u1
        nrm = np.sqrt(x * x + y * y)
        np.divide(x, nrm, out=u0)
        np.divide(y, nrm, out=u1)
        yield k, idx, np.log(nrm)


# --------------------------------------------------------------------------
# empirical measures


def _weighted_cdf_grid(values, weights, grid):
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    idx = np.searchsorted(v, grid, side="right")
    return np.where(idx > 0, cw[np.minimum(idx, len(cw)) - 1], 0.0)


def _weighted_median(vals, weights):
    order = np.argsort(vals)
    v, w = vals[order], weights[order]
    cw = np.cumsum(w)
    return v[np.searchsorted(cw, 0.5 * cw[-1])]


@dataclass
class EmpiricalMeasure:
    """Weighted samples on a metric space ("circle", "projective" or "line").

    Circle/projective samples are angles in radians; supports Wasserstein-1
    and Kolmogorov-Smirnov distances against another EmpiricalMeasure.
    """

    values: np.ndarray
    space: str = "line"
    weights: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.weights is None:
            self.weights = np.full(len(self.values), 1.0 / len(self.values))
        else:
            self.weights = np.asarray(self.weights, dtype=float).ravel()
            self.weights = self.weights / self.weights.sum()

    def __len__(self):
        return len(self.values)

    def _angles(self):
        period = math.pi if self.space == "projective" else TWO_PI
        return np.mod(self.values, period), period

    def ks_distance(self, other):
        """Two-sample Kolmogorov-Smirnov distance (on the natural line
        coordinate; for circle spaces this is cut-point dependent)."""
        grid = np.concatenate([self.values, other.values])
        grid.sort()
        f1 = _weighted_cdf_grid(self.values, self.weights, grid)
        f2 = _weighted_cdf_grid(other.values, other.weights, grid)
        return float(np.max(np.abs(f1 - f2)))

    def wasserstein1(self, other):
        """W1 distance; on circle/projective spaces uses the rotation-invariant
        formula min_c int |F1 - F2 - c|."""
        if self.space != other.space:
            raise PreconditionError("comparing measures on different spaces")
        if self.space == "line":
            grid = np.concatenate([self.values, other.values])
            grid.sort()
            f1 = _weighted_cdf_grid(self.values, self.weights, grid[:-1])
            f2 = _weighted_cdf_grid(other.values, other.weights, grid[:-1])
            return float(np.sum(np.abs(f1 - f2) * np.diff(grid)))
        a1, period = self._angles()
        a2, _ = other._angles()
        grid = np.concatenate([a1, a2, [period]])
        grid.sort()
        f1 = _weighted_cdf_grid(a1, self.weights, grid[:-1])
        f2 = _weighted_cdf_grid(a2, other.weights, grid[:-1])
        seg = np.diff(grid)
        diff = f1 - f2
        c = _weighted_median(diff, seg) if seg.sum() > 0 else 0.0
        return float(np.sum(np.abs(diff - c) * seg))

    def antipode(self):
        if self.space != "circle":
            raise PreconditionError("antipode only defined on the circle")
        return EmpiricalMeasure(np.mod(self.values + math.pi, TWO_PI),
                                "circle", self.weights.copy())


def convolve_step(mu, nu):
    """The one-step convolution mu * nu of a circle empirical measure,
    computed exactly as the weighted mixture of atom pushforwards."""
    if nu.space not in ("circle", "projective"):
        raise PreconditionError("convolve_step expects a boundary measure")
    ang, period = nu._angles()
    u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    vals, wts = [], []
    for w, g in mu.atoms:
        img = u @ g.T
        vals.append(np.mod(np.arctan2(img[:, 1], img[:, 0]), period))
        wts.append(w * nu.weights)
    return EmpiricalMeasure(np.concatenate(vals), nu.space, np.concatenate(wts))


# --------------------------------------------------------------------------
# limit vectors and forms


def _canonical_sign_vec(v):
    for x in v:
        if x != 0.0:
            return v if x > 0 else -v
    return v


def _renormalized_product(word, n, transpose_side=False):
    """Product over n steps (cycling through the word) with sup-norm
    renormalization; returns the normalized product matrix."""
    p = np.eye(as_matrix(word[0]).shape[0])
    for i in range(n):
        m = as_matrix(word[i % len(word)])
        p = (p @ m) if transpose_side else (m @ p)
        p = p / np.max(np.abs(p))
    return p


def limit_vector(b, n):
    """Top singular direction of the renormalized product b_{-1} ... b_{-n}.

    Sign-canonicalized so the first nonzero coordinate is positive; warns when
    the singular gap is too small for the rank-one collapse to be trusted.
    """
    if n < 1:
        raise PreconditionError("n >= 1 required")
    # past word: right-multiply successive letters, b[0] @ b[1] @ ...
    p = _renormalized_product(b, n, transpose_side=True)
    u, s, _ = np.linalg.svd(p)
    if s[1] > 0 and s[0] / s[1] < 1.0 + 1e-6:
        warnings.warn(f"limit_vector: singular gap only {s[0]/s[1]-1.0:.2e}, "
                      "product not yet proximal")
    return _canonical_sign_vec(u[:, 0])


def limit_form(a, n):
    """The unit limit linear form phi_a (coefficient vector) of the future
    word a: the top right-singular vector of the product a_{n-1} ... a_0."""
    if n < 1:
        raise PreconditionError("n >= 1 required")
    p = _renormalized_product(a, n, transpose_side=False)
    _, s, vt = np.linalg.svd(p)
    if s[1] > 0 and s[0] / s[1] < 1.0 + 1e-6:
        warnings.warn(f"limit_form: singular gap only {s[0]/s[1]-1.0:.2e}, "
                      "product not yet proximal")
    return _canonical_sign_vec(vt[0])


# --------------------------------------------------------------------------
# stationary-measure sampling


def sample_furstenberg(mu, burn_in=1000, samples=10000, space="circle",
                       seed=0, start=(1.0, 0.0)):
    """Empirical mu-stationary measure from one long trajectory with burn-in.

    On the circle in the cone case, the walk started inside the invariant
    cone approximates nu_1 and its antipode gives nu_2; on projective space
    the measure is unique.  A lag-1 autocorrelation diagnostic of cos(2 theta)
    is recorded in meta["autocorr"].
    """
    if space not in ("circle", "projective"):
        raise PreconditionError("space must be 'circle' or 'projective'")
    rng = np.random.default_rng(seed)
    mats = [(float(g[0, 0]), float(g[0, 1]), float(g[1, 0]), float(g[1, 1]))
            for g in mu.matrices]
    total = burn_in + samples
    pick = mu.sample_indices(rng, total)
    u0, u1 = float(start[0]), float(start[1])
    nrm = math.hypot(u0, u1)
    u0, u1 = u0 / nrm, u1 / nrm
    out = np.empty(samples)
    for k in range(total):
        a, b, c, d = mats[pick[k]]
        x = a * u0 + b * u1
        y = c * u0 + d * u1
        nrm = math.hypot(x, y)
        u0, u1 = x / nrm, y / nrm
        if k >= burn_in:
            out[k - burn_in] = math.atan2(u1, u0)
    if space == "projective":
        out = np.mod(out, math.pi)
    else:
        out = np.mod(out, TWO_PI)
    m = EmpiricalMeasure(out, space)
    if samples > 2:
        c = np.cos(2.0 * out)
        c = c - c.mean()
        denom = float(c @ c)
        m.meta["autocorr"] = float(c[:-1] @ c[1:] / denom) if denom > 0 else 0.0
    return m


# --------------------------------------------------------------------------
# invariant-cone detection (arcs on the circle)


def _angle_image(g, theta):
    x = g[0, 0] * math.cos(theta) + g[0, 1] * math.sin(theta)
    y = g[1, 0] * math.cos(theta) + g[1, 1] * math.sin(theta)
    return math.atan2(y, x)


def _image_arc(g, arc):
    """Image of an arc (start, length) under the circle map of g (det > 0,
    so the map is an orientation-preserving homeomorphism)."""
    start, length = arc
    s = _angle_image(g, start)
    e = _angle_image(g, start + length)
    return s, (e - s) % TWO_PI


def _hull_offsets(length, o, l):
    """Minimal arc (as (new_start_offset, new_length)) containing [0, length]
    and the arc starting at offset o (mod 2pi) with length l."""
    # placement extending the far end vs. wrapping around to extend the start
    end1 = max(length, o + l)
    start2 = o - TWO_PI
    end2 = max(length, start2 + l)
    if end1 <= end2 - start2:
        return 0.0, end1
    return start2, end2 - start2


def _refine_arc(mats, arc, max_iter=500, slack=1e-12):
    start, length = arc
    for _ in range(max_iter):
        if length >= math.pi:
            return None
        changed = False
        for g in mats:
            s, l = _image_arc(g, (start, length))
            o = (s - start) % TWO_PI
            if o <= length + slack and o + l <= length + slack:
                continue  # image contained
            off, new_len = _hull_offsets(length, o, l)
            start, length = start + off, new_len
            changed = True
        if not changed:
            return (start % TWO_PI, length)
    return None


def _data_arc(angles, margin=0.0):
    """Minimal arc containing the sample angles (complement of the largest
    gap), optionally expanded by a margin on each side."""
    a = np.sort(np.mod(angles, TWO_PI))
    gaps = np.diff(np.concatenate([a, [a[0] + TWO_PI]]))
    i = int(np.argmax(gaps))
    start = a[(i + 1) % len(a)]
    length = TWO_PI - gaps[i]
    return ((start - margin) % TWO_PI, min(length + 2 * margin, TWO_PI))


def invariant_arc(mu, seed=0, samples=4000):
    """A closed arc of length < pi mapped into itself by every atom, or None.

    Tries the positive quadrant and a data-driven candidate from the sampled
    stationary measure, refining each by iterated hulls of atom images.
    """
    mats = mu.matrices
    if any(np.linalg.det(g) <= 0 for g in mats):
        return None
    candidates = [(0.0, math.pi / 2.0)]
    nu = sample_furstenberg(mu, burn_in=500, samples=samples, seed=seed)
    arc = _data_arc(nu.values, margin=1e-6)
    if arc[1] < math.pi:
        candidates.insert(0, arc)
    for cand in candidates:
        refined = _refine_arc(mats, cand)
        if refined is not None:
            return refined
    return None


def detect_cone(mu, seed=0):
    """Decide whether the atoms preserve a closed proper convex cone.

    Returns "true" when an invariant arc of length < pi is found, "false"
    when the search fails and the sampled circle measure is antipodally
    symmetric, "unknown" otherwise.
    """
    arc = invariant_arc(mu, seed=seed)
    return "true" if arc is not None else _antipodal_verdict(mu, seed=seed)


def _antipodal_verdict(mu, seed=0):
    """detect_cone's answer when invariant_arc(mu, seed) finds no arc."""
    nu = sample_furstenberg(mu, burn_in=2000, samples=80000, seed=seed + 1)
    if nu.wasserstein1(nu.antipode()) <= 0.02:
        return "false"
    return "unknown"


# --------------------------------------------------------------------------
# attraction probabilities p1 / p2


def _arc_distance(angles, arc):
    start, length = arc
    off = np.mod(angles - start, TWO_PI)
    inside = off <= length
    d = np.minimum(np.mod(start - angles, TWO_PI),
                   np.mod(angles - start - length, TWO_PI))
    return np.where(inside, 0.0, d)


def estimate_p1p2(mu, x, trials=2000, horizon=400, seed=0, eps=0.05, window=50):
    """Monte Carlo attraction probabilities (p1, p2) of the walk from x.

    p1 is the fraction of independent walks whose iterates enter and remain
    eps-close (arc distance, for `window` consecutive steps) to the limit set
    arc Lambda_1 inside the invariant cone; p2 the antipodal fraction.
    p1 + p2 = 1 by construction (undecided trials are assigned to the nearer
    side at the horizon).
    """
    arc1 = invariant_arc(mu, seed=seed)
    if arc1 is None:
        raise ConfigurationError(
            "estimate_p1p2 requires an invariant cone; this measure has a "
            "unique stationary boundary measure")
    arc2 = ((arc1[0] + math.pi) % TWO_PI, arc1[1])
    rng = np.random.default_rng(seed)
    u = np.tile(np.asarray(x, dtype=float) / np.linalg.norm(x), (trials, 1))
    streak1 = np.zeros(trials, dtype=np.int64)
    streak2 = np.zeros(trials, dtype=np.int64)
    for _ in walk_boundary(mu, u, horizon, rng):
        ang = np.arctan2(u[:, 1], u[:, 0])
        in1 = _arc_distance(ang, arc1) <= eps
        in2 = _arc_distance(ang, arc2) <= eps
        streak1 = np.where(in1, streak1 + 1, 0)
        streak2 = np.where(in2, streak2 + 1, 0)
    label1 = streak1 >= window
    label2 = (streak2 >= window) & ~label1
    rest = ~(label1 | label2)
    if np.any(rest):
        ang = np.arctan2(u[rest, 1], u[rest, 0])
        nearer1 = _arc_distance(ang, arc1) <= _arc_distance(ang, arc2)
        label1 = label1.copy()
        label1[np.flatnonzero(rest)[nearer1]] = True
    p1 = float(np.mean(label1))
    return p1, 1.0 - p1
