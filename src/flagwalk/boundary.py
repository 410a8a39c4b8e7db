"""Furstenberg-boundary numerics on the circle / projective line.

Stationary-measure sampling, rank-one limit vectors and limit forms of random
matrix products, the invariant cone arc, the transfer operator, and the
hitting probabilities p1/p2 of the two-measure (cone) case.

The invariant arc and the cone verdict come from one search over the atoms,
with no seed and no sampling (_cone_search).  The arc is the hull of their
attracting eigendirections (the limit set is the closure of attracting fixed
points), certified by iterated hulls of atom images and lifted so that its
midpoint lies in the upper half circle.  The verdict (detect_cone) is "true"
with an arc, "false" when an atom is elliptic or every hull grows to length
pi, and "unknown" otherwise: an atom with det < 0, only scalar atoms, or a
refinement stopped at its pass cap.  p1 is the probability that the
walk enters that closed arc, p2 that it enters the antipode; each trial is
labelled at its first entry, the batch stops once all are labelled, and
trials outside both arcs at the horizon count for neither.

The transfer operator P_s, discretised on a midpoint grid of the arc
(transfer_spectrum), gives the Lyapunov exponent by Furstenberg's formula
and, on the smallest invariant arc holding a start, Lambda(s) with its
discretisation margin and the eigenfunction ratio of a Chernoff bound on the
lower tail of sigma(g_k ... g_1, w).

Boundary points are represented by unit 2-vectors; empirical measures store
angles (radians) for circle/projective samples and raw reals for observable
values.
"""

import itertools
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
            if not 0.0 < w < math.inf:
                raise PreconditionError("atom weights must be positive and "
                                        f"finite, got {w}")
            if g.shape != (2, 2):
                raise PreconditionError(f"atoms must be 2x2, got {g.shape}")
            if not np.isfinite(g).all():
                raise PreconditionError("atom entries must be finite")
            if g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] == 0.0:
                raise PreconditionError(f"atoms must be invertible, got "
                                        f"det 0 for {g.tolist()}")
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
        return noncomm and _word_product(mats, 60)[1] > math.log(10.0)


# --------------------------------------------------------------------------
# the cocycle walk


_TILE = 1 << 15  # uniforms per tile of atom draws, orbit points per fibre block
_BLOCK_NORM = 1e3  # norm cap of a block product, bounding cancellation


def _atom_entries(mats):
    """Entry arrays (a, b, c, d) of 2x2 matrices g_i = [[a, b], [c, d]]_i."""
    mats = np.asarray(mats, dtype=float)
    if mats.shape[1:] != (2, 2):
        raise PreconditionError(f"2x2 matrices required, got {mats.shape[1:]}")
    return tuple(mats.reshape(-1, 4).T.copy())


def _step_blocks(mu, rng, n, N, entries=None):
    """Yield (last step k, (length, N) atom indices) per block of steps of N
    parallel walks: whole tiles of max(1, _TILE // N) steps (the last cut to
    the steps left), cut, given entries (_atom_entries of g_i), into blocks
    of the largest m >= 1 with max ||g_i||_2^m <= _BLOCK_NORM.  The stream
    is that of one rng.random(N) per step, in step order."""
    t = m = max(1, _TILE // N)
    if entries is not None:
        top = np.linalg.norm(np.stack(entries, 1).reshape(-1, 2, 2), 2,
                             axis=(1, 2)).max()
        m = max(1, int(math.log(_BLOCK_NORM, top))) if top > 1.0 else t
    for k in range(0, n, t):
        tile = mu.sample_indices(rng, (min(t, n - k), N))
        for j in range(0, len(tile), m):
            yield k + min(j + m, len(tile)), tile[j:j + m]


def _block_products(entries, idx):
    """Prefix products P_j = g_j ... g_1, j = 1..m, of an (m, N) index block
    as (m, N) entry arrays (a, b, c, d), g by _atom_entries: pass s of the
    ceil(log2 m) passes multiplies P_j by P_{j-s} (Blelloch, 1990)."""
    a, b, c, d = (e[idx] for e in entries)
    s = 1
    while s < len(idx):
        a0, b0, c0, d0 = a[:-s], b[:-s], c[:-s], d[:-s]
        a1, b1, c1, d1 = a[s:], b[s:], c[s:], d[s:]
        a[s:], b[s:], c[s:], d[s:] = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                                      c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
        s *= 2
    return a, b, c, d


_GUARD_LOG2 = 500   # unnormalised vectors stay within 2^+-500 of unit length


def _guard_steps(mats):
    """The largest m >= 1 with max_i max(||g_i||_F, ||g_i||_F / |det g_i|)^m
    <= 2^500, on Python floats.  ||g||_F bounds ||g v|| / ||v|| above and
    |det g| / ||g||_F below, so m steps from a unit vector keep x^2 + y^2
    inside the normal range.  That max is >= sqrt 2 for nonsingular g."""
    top = 0.0
    for g in mats:
        (a, b), (c, d) = g.tolist()
        f = math.hypot(a, b, c, d)
        top = max(top, f, f / abs(a * d - b * c))
    return max(1, int(_GUARD_LOG2 / math.log2(top)))


def walk_boundary(mu, U, n, rng, stride=1):
    """Advance the (N, 2) unit vectors U in place through n steps of the
    mu-walk, in the stream of _step_blocks that keeps the reports of
    ldp_tail, renewal_sum, cesaro_distribution and estimate_p1p2
    byte-stable.  Yields (k, step k's atom indices, log-norm gained since
    the last yield) after every stride-th step k (stride >= 1) and after
    step n.

    Each step applies g_k; the vector is normalised, and U written, only at
    the yields and every _guard_steps(atoms) steps between them, whose logs
    go into the next yield's.  So U is a unit vector only at yields.  At
    stride 1 every step yields log ||g_k u||, as a per-step walk does."""
    a, b, c, d = _atom_entries(mu.matrices)
    guard = _guard_steps(mu.matrices)
    v0, v1 = U[:, 0], U[:, 1]
    u0, u1, due, acc = v0, v1, guard, None
    for k0, tile in _step_blocks(mu, rng, n, len(U)):   # whole tiles
        for k, idx in enumerate(tile, k0 - len(tile) + 1):
            x = a[idx] * u0 + b[idx] * u1
            y = c[idx] * u0 + d[idx] * u1
            between = k % stride and k < n
            if between and k < due:   # carried unnormalised
                u0, u1 = x, y
                continue
            nrm = np.sqrt(x * x + y * y)
            u0 = np.divide(x, nrm, out=v0)
            u1 = np.divide(y, nrm, out=v1)
            due = k + guard
            lg = np.log(nrm) if acc is None else acc + np.log(nrm)
            if between:   # a guard: no yield
                acc = lg
                continue
            acc = None
            yield k, idx, lg


# --------------------------------------------------------------------------
# empirical measures


def _cdf_gap(x1, w1, x2, w2):
    """Distinct values x of samples x1, x2 (weights w1, w2), increasing, and
    F1(x) - F2(x) there: one sort of the merged samples, the cumulative sum
    of the signed weights +w1, -w2, read at the end of each run of ties."""
    x = np.concatenate([x1, x2])
    order = np.argsort(x)
    x = x[order]
    gap = np.cumsum(np.concatenate([w1, -w2])[order])
    last = np.append(x[1:] != x[:-1], True)
    return x[last], gap[last]


def _weighted_median(vals, weights):
    order = np.argsort(vals)
    v, w = vals[order], weights[order]
    cw = np.cumsum(w)
    return v[np.searchsorted(cw, 0.5 * cw[-1])]


_SPACES = ("line", "circle", "projective")


@dataclass
class EmpiricalMeasure:
    """Weighted samples on a metric space ("circle", "projective" or "line").

    Circle/projective samples are angles in radians.  Every distance to
    another EmpiricalMeasure reads the CDF gap F1 - F2 of one merged sort
    (_cdf_gap); the circular W1 integrates it over the whole period.
    """

    values: np.ndarray
    space: str = "line"
    weights: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.space not in _SPACES:
            raise PreconditionError(f"space must be one of {_SPACES}, got "
                                    f"{self.space!r}")
        self.values = np.asarray(self.values, dtype=float).ravel()
        if not len(self.values):
            raise PreconditionError("empty empirical measure")
        if self.weights is None:
            self.weights = np.full(len(self.values), 1.0 / len(self.values))
        else:
            self.weights = np.asarray(self.weights, dtype=float).ravel()
            total = self.weights.sum()
            if self.weights.shape != self.values.shape or \
                    not (self.weights >= 0).all() or not 0 < total < math.inf:
                raise PreconditionError(
                    "weights must be one finite non-negative value per "
                    "sample, with a positive sum")
            self.weights = self.weights / total

    def __len__(self):
        return len(self.values)

    def _angles(self):
        period = math.pi if self.space == "projective" else TWO_PI
        return np.mod(self.values, period), period

    def ks_distance(self, other):
        """Two-sample Kolmogorov-Smirnov distance max |F1 - F2| (on the natural
        line coordinate; for circle spaces this is cut-point dependent)."""
        if self.space != other.space:
            raise PreconditionError("comparing measures on different spaces")
        _, gap = _cdf_gap(self.values, self.weights, other.values,
                          other.weights)
        return float(np.max(np.abs(gap)))

    def wasserstein1(self, other):
        """W1 distance int |F1 - F2|; on circle/projective spaces min_c
        int_0^period |F1 - F2 - c|, c the length-weighted median of the gap
        (Rabin, Delon and Gousseau, 2011)."""
        if self.space != other.space:
            raise PreconditionError("comparing measures on different spaces")
        if self.space == "line":
            x, gap = _cdf_gap(self.values, self.weights, other.values,
                              other.weights)
            return float(np.sum(np.abs(gap[:-1]) * np.diff(x)))
        (a1, period), (a2, _) = self._angles(), other._angles()
        x, gap = _cdf_gap(a1, self.weights, a2, other.weights)
        seg = np.diff(x, prepend=0.0, append=period)
        gap = np.append(0.0, gap)   # F1 - F2 = 0 on [0, x[0])
        return float(np.sum(np.abs(gap - _weighted_median(gap, seg)) * seg))

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


def _word_product(word, steps, threshold=math.inf):
    """The product w_k ... w_1 of a deterministic word, w_i =
    word[(i - 1) mod len(word)], left-multiplied letter by letter and
    renormalised to sup norm 1 after each: (P, s, k) with e^s P the product
    and k the first step with s >= threshold, else steps.  The one loop over
    the letters of a word."""
    if not len(word):
        raise PreconditionError("a word needs at least one letter")
    letters = [as_matrix(g) for g in word]
    p, s = np.eye(len(letters[0])), 0.0
    for k in range(1, steps + 1):
        p = letters[(k - 1) % len(letters)] @ p
        nrm = float(np.max(np.abs(p)))
        s += math.log(nrm)
        p /= nrm
        if s >= threshold:
            return p, s, k
    return p, s, steps


def limit_vector(b, n):
    """Top singular direction of the renormalized product b_{-1} ... b_{-n}.

    That is the top right singular vector of b_{-n}^T ... b_{-1}^T
    (_word_product), sign-canonicalized so the first nonzero coordinate is
    positive; warns when the singular gap is too small for the rank-one
    collapse to be trusted.
    """
    if n < 1:
        raise PreconditionError("n >= 1 required")
    _, s, vh = np.linalg.svd(_word_product([as_matrix(g).T for g in b], n)[0])
    if s[1] > 0 and s[0] / s[1] < 1.0 + 1e-6:
        warnings.warn(f"limit_vector: singular gap only {s[0]/s[1]-1.0:.2e}, "
                      "product not yet proximal")
    return _canonical_sign_vec(vh[0])


def limit_form(a, n):
    """The unit limit linear form phi_a (coefficient vector) of the future
    word a: the top right-singular vector of the product a_{n-1} ... a_0,
    which is the limit vector of the transposed word."""
    return limit_vector([as_matrix(g).T for g in a], n)


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
    u0, u1 = float(start[0]), float(start[1])
    nrm = math.hypot(u0, u1)
    if burn_in < 0 or not 0.0 < nrm < math.inf:
        raise PreconditionError("burn_in >= 0 and a nonzero finite start "
                                f"required, got {burn_in} and {start}")
    u0, u1 = u0 / nrm, u1 / nrm
    rng = np.random.default_rng(seed)
    mats = [(float(g[0, 0]), float(g[0, 1]), float(g[1, 0]), float(g[1, 1]))
            for g in mu.matrices]
    total = burn_in + samples
    pick = mu.sample_indices(rng, total)
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


def _image_arc(g, arc):
    """Image of an arc (start, length) under the circle map of g (det > 0,
    so the map is an orientation-preserving homeomorphism)."""
    s, e = (math.atan2(g[1, 0] * math.cos(t) + g[1, 1] * math.sin(t),
                       g[0, 0] * math.cos(t) + g[0, 1] * math.sin(t))
            for t in (arc[0], arc[0] + arc[1]))
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
    """The smallest invariant arc holding arc, by iterated hulls of atom
    images; None once the hull reaches length pi, False at the pass cap."""
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
    return None if length >= math.pi else False


def _cone_search(mats):
    """(invariant_arc, detect_cone) of the atoms, from one search.  An
    elliptic atom fixes no circle point, so (Brouwer) maps no closed arc into
    itself.  Any invariant arc holds the hull of the non-scalar atoms'
    attracting eigendirections on the far side of one of the gaps they cut
    the projective line into: the hulls are refined, largest gap first
    (_refine_arc), and there is no arc when all reach length pi."""
    dirs, flips = [], False
    for g in mats:
        (a, b), (c, d) = g.tolist()
        h = (a - d) / 2
        disc = h * h + b * c   # (tr^2 - 4 det) / 4: < 0 for complex roots
        if disc < 0:
            return None, "false"
        flips = flips or a * d - b * c <= 0   # reverses orientation
        if flips or b == c == 0.0 and h == 0.0:
            continue
        # lam = (a + d) / 2 + r, the root of larger modulus, has eigenvectors
        # (lam - d, c) = (h + r, c) and (b, lam - a) = (b, r - h): take the
        # one whose sum has no cancellation (the other if it is zero)
        r = math.copysign(math.sqrt(disc), a + d)
        x, y = (h + r, c) if h * r >= 0 and (h + r or c) else (b, r - h)
        dirs.append(math.atan2(y, x) % math.pi)
    if flips or not dirs:
        return None, "unknown"
    a = np.sort(dirs)
    gaps = np.diff(np.append(a, a[0] + math.pi))
    verdict = "false"
    for i in np.argsort(-gaps, kind="stable"):
        arc = _refine_arc(mats, (a[(i + 1) % len(a)], math.pi - gaps[i]))
        if arc:
            start, length = arc
            if (start + length / 2.0) % TWO_PI >= math.pi:
                start = (start + math.pi) % TWO_PI
            return (float(start), float(length)), "true"
        verdict = "unknown" if arc is False else verdict
    return None, verdict


def invariant_arc(mu):
    """The invariant cone arc, (start, length) of a closed arc of length
    < pi that every atom maps into itself, or None (_cone_search).  A hull
    already invariant is the smallest such arc; the arc is lifted so that
    its midpoint lies in the upper half circle (its own plain_section lift)."""
    return _cone_search(mu.matrices)[0]


def detect_cone(mu):
    """Whether the atoms preserve a closed proper convex cone (two
    stationary circle measures, nu_1 and -nu_1): "true" when invariant_arc
    finds an arc; "false" when an atom is elliptic, or all have det > 0 and
    every gap's hull grows to length pi; "unknown" when an atom has det < 0,
    all are scalar, or a refinement stops at its pass cap.  Deterministic,
    from the atoms (_cone_search): no seed, no sampling."""
    return _cone_search(mu.matrices)[1]


# --------------------------------------------------------------------------
# the transfer operator


_GRID = 2000     # midpoints of the transfer-operator grid
_SWEEPS = 20000  # power-iteration cap


def _start_arc(mats, arc, w):
    """The smallest invariant arc refined from the hull of arc and the
    projective point w (the lift w or -w giving the shorter hull), or None
    when the refinement reaches length pi (w lies in no invariant arc) or
    its pass cap."""
    th = math.atan2(w[1], w[0])
    hulls = (_hull_offsets(arc[1], (t - arc[0]) % TWO_PI, 0.0)
             for t in (th, th + math.pi))
    off, length = min(hulls, key=lambda h: h[1])
    return _refine_arc(mats, (arc[0] + off, length)) or None


def _grid_images(mats, arc, m, theta):
    """(k, k1, t, log ||g_i x||), each (atoms, points), of the points x at
    angles theta: g_i . x sits at t between the nodes k and k1 of the
    m-point midpoint grid on the arc (start, length), extrapolated linearly
    past the end nodes, or on the whole projective line (arc None), where
    the grid is periodic.  A zero-length arc is one node."""
    start, length = (0.0, math.pi) if arc is None else arc
    h = length / m
    x = np.stack([np.cos(theta), np.sin(theta)])
    y = np.asarray(mats) @ x
    ang = np.arctan2(y[:, 1], y[:, 0]) - start
    if arc is None:
        p = ang % math.pi / h - 0.5
        k = np.floor(p)
        t, k = p - k, k.astype(int) % m
        return k, (k + 1) % m, t, np.log(np.hypot(y[:, 0], y[:, 1]))
    # offsets from the start, mod pi around the midpoint; images that round
    # off the arc are clamped to its ends
    off = (ang - length / 2 + math.pi / 2) % math.pi - math.pi / 2 + length / 2
    p = np.clip(off / h - 0.5, -0.5, m - 0.5) if h > 0 else 0.0 * off
    k = np.clip(np.floor(p), 0, max(m - 2, 0)).astype(int)
    return k, np.minimum(k + 1, m - 1), p - k, \
        np.log(np.hypot(y[:, 0], y[:, 1]))


def _grid_nodes(arc, m):
    start, length = (0.0, math.pi) if arc is None else arc
    return start + (np.arange(m) + 0.5) * (length / m)


def _grid_operator(mats, weights, arc, m, theta, s):
    """v -> (P_s v)(theta), v the values at the nodes of _grid_images'
    grid, linearly interpolated; weights is the (atoms, 1) column of w_i."""
    k, k1, t, logn = _grid_images(mats, arc, m, theta)
    c = weights * np.exp(s * logn)
    return lambda v: (c * ((1 - t) * v[k] + t * v[k1])).sum(0)


@dataclass(frozen=True)
class TransferSpectrum:
    """Spectral data of the transfer operator
    P_s f(x) = sum_i w_i ||g_i x||^s f(g_i . x).

    lam is the Lyapunov exponent.  rate = Lambda(s) and ratio = max f / min f
    belong to the positive eigenfunction f of P_s on `arc`, the smallest
    invariant arc holding the walk's start; margin >= 0 is their
    discretisation margin (see transfer_spectrum).  arc is None, rate NaN
    and ratio inf when no start was given or the start lies in no invariant
    arc (or f is not positive there).
    """

    lam: float
    s: float
    arc: tuple = None
    rate: float = math.nan
    ratio: float = math.inf
    margin: float = 0.0

    def lower_tail(self, k, x):
        """Chernoff bound on P(sigma(g_k ... g_1, w) <= x) for s < 0:
        ratio * exp(-s x + k (rate + margin)); inf without an arc."""
        if self.arc is None:
            return math.inf
        return self.ratio * math.exp(-self.s * x
                                     + k * (self.rate + self.margin))


def _min_log_norm(mats, arc=None):
    """min log ||g u|| over the 2x2 matrices g and the unit vectors u at
    angles in the arc (start, length), or on the whole circle when arc is
    None, in closed form.  For u = (cos t, sin t), ||g u||^2 =
    p + h cos 2t + q sin 2t with p, h, q read from g^T g; its minimum
    p - sqrt(h^2 + q^2) = det(g)^2 / (p + sqrt(h^2 + q^2)) (the form without
    cancellation) is taken at t* = (atan2(q, h) + pi) / 2 (mod pi), and off
    the arc at one of its ends."""
    a, b, c, d = _atom_entries(mats)
    p = (a * a + b * b + c * c + d * d) / 2
    h = (a * a + c * c - b * b - d * d) / 2
    q = a * b + c * d
    low = (a * d - b * c) ** 2 / (p + np.hypot(h, q))
    if arc is not None:
        t_min = (np.arctan2(q, h) + math.pi) / 2
        inside = (t_min - arc[0]) % math.pi <= arc[1]
        ends = [(a * math.cos(t) + b * math.sin(t)) ** 2
                + (c * math.cos(t) + d * math.sin(t)) ** 2
                for t in (arc[0], arc[0] + arc[1])]
        low = np.where(inside, low, np.minimum(*ends))
    return 0.5 * math.log(float(low.min()))


def _power(sweep, v, tol):
    """Iterate v <- sweep(v) until the sup change is <= tol, at most
    _SWEEPS times; returns (v, converged)."""
    for _ in range(_SWEEPS):
        new = sweep(v)
        if np.max(np.abs(new - v)) <= tol:
            return new, True
        v = new
    return v, False


def transfer_spectrum(mu, start=None, s=-1.0, m=_GRID):
    """The transfer operator P_s f(x) = sum_i w_i ||g_i x||^s f(g_i . x)
    discretised on an m-point midpoint grid with linear interpolation (Le
    Page, 1982; Bougerol-Lacroix, 1985, ch. V).

    lam is Furstenberg's formula lam = sum_i w_i int log ||g_i u|| dnu, nu
    the Perron vector of the adjoint of P_0 on invariant_arc(mu) (on the
    projective line when there is none), found by power iteration; a
    single-atom measure gets the closed form log rho.  Against cylinder
    sums, m = 2000 reads lam within 1e-8 for default_measure and
    volatile_measure; on the projective line the grid converges only as
    1/m (mixed_sign_measure moves by 4e-5 from m = 1000 to 2000).

    With a start w, P_s acts on the smallest invariant arc holding w
    (_start_arc), and power iteration gives its eigenvalue e^rate and
    positive eigenfunction f, linearly interpolated.  margin is the
    discretisation margin: rate + margin is the largest log of
    (P_s f)(x) / f(x) over the nodes, the cell midpoints and the arc's ends.
    Where P_s f <= e^(rate + margin) f holds on the whole arc,
    E ||G_k w||^s <= ratio e^(k (rate + margin)) for w in the arc, which is
    TransferSpectrum.lower_tail's Chernoff bound; between the checked
    points it holds up to the grid's interpolation error.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise PreconditionError(f"m must be an integer >= 1, got {m!r}")
    mats = mu.matrices
    weights = np.array([w for w, _ in mu.atoms])[:, None]
    arc = invariant_arc(mu)
    if len(mats) == 1:
        lam = math.log(float(np.max(np.abs(np.linalg.eigvals(mats[0])))))
    else:
        n = m if arc is None or arc[1] > 0 else 1
        k, k1, t, logn = _grid_images(mats, arc, n, _grid_nodes(arc, n))
        rows = np.tile(np.arange(n), 2 * len(mats))
        cols = np.concatenate([k.ravel(), k1.ravel()])
        wts = np.concatenate([(weights * (1 - t)).ravel(),
                              (weights * t).ravel()])
        nu, done = _power(
            lambda v: np.bincount(cols, wts * v[rows], minlength=n),
            np.full(n, 1.0 / n), 1e-15)
        if not done:
            warnings.warn("transfer_spectrum: stationary vector not "
                          f"converged in {_SWEEPS} sweeps")
        lam = float(nu @ (weights * logn).sum(0))
    if start is None or arc is None:
        return TransferSpectrum(lam, s)
    arc = _start_arc(mats, arc, start)
    if arc is None:
        return TransferSpectrum(lam, s)
    n = m if arc[1] > 0 else 1
    nodes = _grid_nodes(arc, n)
    op = _grid_operator(mats, weights, arc, n, nodes, s)

    def sweep(v):
        u = op(v)
        return u / u.max()

    f, _ = _power(sweep, np.ones(n), 1e-13)
    rate = math.log(float(op(f).max()))
    checks = np.concatenate([nodes, nodes[:-1] + arc[1] / (2 * n),
                             [arc[0], arc[0] + arc[1]]])
    # f itself at the check points: the identity's images read it off
    fx = _grid_operator([np.eye(2)], np.ones((1, 1)), arc, n, checks, 0.0)(f)
    if not np.all(fx > 0):
        return TransferSpectrum(lam, s)
    pfx = _grid_operator(mats, weights, arc, n, checks, s)(f)
    margin = max(0.0, math.log(float(np.max(pfx / fx))) - rate)
    return TransferSpectrum(lam, s, arc, rate, float(fx.max() / fx.min()),
                            margin)


# --------------------------------------------------------------------------
# hitting probabilities p1 / p2


def _arc_sides(u, arc):
    """Masks of the rows of the (N, 2) array u in the closed arc (start,
    length) and in its antipode: the signs of the cross products with the
    arc's two ends, which decide membership because the length is < pi."""
    start, end = arc[0], arc[0] + arc[1]
    lo = math.cos(start) * u[:, 1] - math.sin(start) * u[:, 0]
    hi = math.sin(end) * u[:, 0] - math.cos(end) * u[:, 1]
    return (lo >= 0) & (hi >= 0), (lo <= 0) & (hi <= 0)


def estimate_p1p2(mu, x, trials=2000, horizon=400, seed=0):
    """Monte Carlo probabilities (p1, p2) that the walk from x enters
    Lambda_1 or Lambda_2.

    Lambda_1 is invariant_arc(mu), the lift of the invariant cone arc whose
    midpoint lies in the upper half circle, and Lambda_2 = -Lambda_1.  Both
    are closed and mapped into themselves by every atom, and the walk's limit
    point has no atoms, so almost every walk enters exactly one of them after
    finitely many steps and stays there: p1 is the fraction of independent
    walks whose first entry (step 0, x itself, included) is into Lambda_1, p2
    the fraction entering Lambda_2.  The batch stops once every trial has
    entered; horizon only caps the steps, and 1 - p1 - p2 is the share of
    trials still outside both arcs after horizon steps.
    """
    arc = invariant_arc(mu)
    if arc is None:
        raise ConfigurationError(
            "estimate_p1p2 requires an invariant cone; this measure has a "
            "unique stationary boundary measure")
    if trials < 1 or horizon < 0:
        raise PreconditionError(f"trials >= 1 and horizon >= 0 required, got "
                                f"{trials} and {horizon}")
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(x)
    if x.shape != (2,) or not 0.0 < nrm < math.inf:
        raise PreconditionError("estimate_p1p2's start must be a nonzero "
                                f"finite 2-vector, got {x.tolist()}")
    rng = np.random.default_rng(seed)
    u = np.tile(x / nrm, (trials, 1))
    side = np.zeros(trials, dtype=np.int8)  # 0 outside both, 1 or 2 entered
    # step 0 is x itself, then steps 1..horizon
    for _ in itertools.chain([None], walk_boundary(mu, u, horizon, rng)):
        in1, in2 = _arc_sides(u, arc)
        free = side == 0
        side[free & in2] = 2
        side[free & in1] = 1
        if side.all():
            break
    return float(np.mean(side == 1)), float(np.mean(side == 2))
