"""The fibre S/Lambda as reduced unimodular lattice bases.

Gauss reduction (every fibre here is a space of rank-2 lattices) by one
kernel on component arrays, the left action of group elements, the
shortest-vector observable, and the diagonal flow G(r, sg) by one closed-form
orbit evaluator, which diag_orbit stacks.  orbit_shortest reads shortest
lengths along the flow: on a closed orbit from the point's table of minimal
vectors over one period, with no reduction, and elsewhere from the orbit
evaluator (on a midpoint grid over one period, the law of a closed orbit).
Basis vectors are the *columns* of a basis.  group_core.finite_entries, the
one rule for a 2x2 matrix, reads a basis (reduce, LatticePoint) and act's s.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .group_core import finite_entries


def _canonicalize(B):
    """Fix signs: b1 gets a positive first nonzero coordinate and the basis
    is made positively oriented (a right GL(Z) operation either way)."""
    B = B.copy()
    col = B[:, 0]
    for v in col:
        if v != 0.0:
            if v < 0:
                B[:, 0] = -B[:, 0] + 0.0
            break
    if np.linalg.det(B) < 0:
        B[:, -1] = -B[:, -1] + 0.0
    return B


HORIZON = 36.0  # flow time past which float64 rounding, grown by e^r, is O(1)
MAX_PERIOD = HORIZON / 2   # longest period: a reduction's rounding grows like
                           # e^{r0}, the box of _orbit_minima like e^{r0/2}


@dataclass(frozen=True, eq=False)
class LatticePoint:
    """A point of S/Lambda: a reduced basis matrix (columns) with |det| = 1,
    and optionally a period r0 in (0, MAX_PERIOD] with G(r0, 1) . z = z (a
    closed diagonal orbit).  A point with a period builds once its table
    `minima` of the vectors that are shortest somewhere on one period
    (_orbit_minima), which orbit_shortest reads; the table is derived, so
    JSON, equality and hashing do not see it.  Equality and hashing use the
    basis alone."""

    basis: np.ndarray
    period: float = None
    minima: tuple = field(init=False, repr=False)

    def __post_init__(self):
        r0 = self.period   # a real number, not a bool or a string
        if r0 is not None and (isinstance(r0, bool) or not isinstance(
                r0, numbers.Real) or not 0.0 < r0 <= MAX_PERIOD):
            raise PreconditionError(
                f"a closed orbit's period must be a real number in "
                f"(0, {MAX_PERIOD:g}], got {r0!r}")
        object.__setattr__(self, "period", None if r0 is None else float(r0))
        b = np.reshape(finite_entries(self.basis, "a lattice basis"), (2, 2))
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "minima", None if self.period is None
                           else _orbit_minima(reduce(b).basis, self.period))

    def __eq__(self, other):
        return isinstance(other, LatticePoint) and \
            bool(np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash(self.basis.tobytes())

    def close_to(self, other, tol):
        return np.max(np.abs(self.basis - other.basis)) <= tol

    def to_json(self):
        return json.dumps({"basis": [list(row) for row in self.basis],
                           "period": self.period})

    @classmethod
    def from_json(cls, s):
        d = json.loads(s)
        return cls(d["basis"], d.get("period"))


def reduce(B):
    """Reduce a unimodular 2x2 basis to the canonical LatticePoint
    representative by Gauss reduction; the generated lattice is unchanged
    since all operations are right-unimodular.
    """
    B = np.reshape(finite_entries(B, "a lattice basis"), (2, 2))
    det = np.linalg.det(B)
    if not abs(abs(det) - 1.0) <= 1e-6:
        raise PreconditionError(f"|det| = {abs(det):.6f}, basis not unimodular")
    if np.abs(B).max() >= 2.0 ** 510:   # so that squared norms stay finite
        raise PreconditionError("basis entries too large for float64 Gauss "
                                "reduction (squared norms overflow)")
    x = _gauss_sweeps(*B.reshape(4, 1))   # one-element components
    return LatticePoint(_canonicalize(np.reshape(x, (2, 2))))


def act(s, z):
    """Left multiplication then reduction: the lattice of s . B."""
    return reduce(np.reshape(finite_entries(s, "act's s"), (2, 2)) @ z.basis)


def diag_matrix(r, sign=1):
    """The matrix of G(r, sg): diag(e^{r/2}, e^{-r/2}) times the sign class
    diag(1, -1).  e^{r/2} is numpy's exp, the one diag_orbit uses."""
    h = float(np.exp(r / 2.0))
    return np.array([[h, 0.0], [0.0, sign / h]])


def diag_action(d, z):
    """Action of a DiagSignValue on a lattice point, by diag_orbit."""
    return LatticePoint(_canonicalize(diag_orbit(z, d.r, d.sign)[0]))


def shortest_vector(z):
    """||b1|| of the reduced basis = the lattice minimum for k = 2."""
    return float(np.linalg.norm(z.basis[:, 0]))


def capped_shortest(cap):
    """The standard bounded observable min(shortest_vector, cap)."""
    def f(z):
        return min(shortest_vector(z), cap)
    f.name = f"capped_shortest({cap})"
    return f


def _orbit_minima(B, r0):
    """The vectors v of the lattice of the reduced basis B that are shortest
    in G(rho, 1) . B for some rho in [0, r0), as (v0, v1) pairs in order of
    rho.

    By Hermite, lambda_1^2 <= (2/sqrt 3) |det B| = h^2 all along the orbit,
    so every such v lies in the box |v0| <= h, |v1| <= h e^{r0/2}; the box's
    vectors are enumerated up to sign, one row of coefficients per c1 (as B
    is reduced, at most (2/sqrt 3)(1 + e^{r0/2}) + 1 rows).  The
    squared length A e^rho + C e^{-rho}, (A, C) = (v0^2, v1^2), is linear in
    (e^rho, e^{-rho}), so its minimisers are the vertices of the lower-left
    convex hull of the points (A, C); consecutive vertices v, w swap at
    rho = log((C_w - C_v) / (A_v - A_w)) / 2, and the vertices whose
    interval meets [0, r0) are kept."""
    det = abs(float(np.linalg.det(B)))
    (b0, d0), (b1, d1) = B.tolist()
    # a hair wider than the box, so no vector on its edge is lost to rounding
    h = math.sqrt(2.0 / math.sqrt(3.0) * det) * (1.0 + 1e-9)
    w0, w1 = h, h * math.exp(r0 / 2.0)
    c1 = np.arange(math.floor((abs(b1) * w0 + abs(b0) * w1) / det) + 1.0)
    lo, hi = np.full(len(c1), -np.inf), np.full(len(c1), np.inf)
    for b, d, w in ((b0, d0, w0), (b1, d1, w1)):
        # |c0 b + c1 d| <= w
        if b != 0.0:
            ends = (-w - c1 * d) / b, (w - c1 * d) / b
            lo, hi = np.maximum(lo, np.minimum(*ends)), \
                np.minimum(hi, np.maximum(*ends))
        else:
            lo[np.abs(c1 * d) > w] = np.inf
    lo = np.ceil(lo)
    lo[0] = max(lo[0], 1.0)   # c1 = 0: v and -v are one point (A, C)
    n = np.maximum(np.floor(hi) - lo + 1.0, 0.0).astype(int)
    c0 = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
    c1 = np.repeat(c1, n)
    v0, v1 = c0 * b0 + c1 * d0, c0 * b1 + c1 * d1
    A, C = v0 * v0, v1 * v1
    hull = []   # A ascending, C strictly descending, turning left
    for i in np.lexsort((C, A)).tolist():
        if hull and C[i] >= C[hull[-1]]:
            continue
        while len(hull) > 1 and (
                (A[hull[-1]] - A[hull[-2]]) * (C[i] - C[hull[-2]]) -
                (C[hull[-1]] - C[hull[-2]]) * (A[i] - A[hull[-2]])) <= 0.0:
            hull.pop()
        hull.append(i)
    # hull[j] is shortest for rho in [swap[j + 1], swap[j]].  A piece of
    # [0, r0] shorter than 1e-12 is a tie at an end of the period that
    # rounding kept; a length read without it is off by at most 1e-12,
    # relatively, as |d/drho (A e^rho + C e^-rho)| <= A e^rho + C e^-rho.
    swap = [math.inf] + [0.5 * math.log((C[i] - C[j]) / (A[j] - A[i]))
                         for i, j in zip(hull, hull[1:])] + [-math.inf]
    keep = [i for j, i in enumerate(hull)
            if min(swap[j], r0) - max(swap[j + 1], 0.0) > 1e-12]
    return tuple((float(v0[i]), float(v1[i])) for i in reversed(keep))


def _flow_times(z, r):
    """r as a float array, wrapped modulo z.period when set; otherwise
    |r| > HORIZON raises, as the rounding error of a reduced basis grows
    like e^|r|.  Non-finite times raise either way."""
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise PreconditionError("flow times must be finite")
    if z.period is not None:
        return np.mod(r, z.period)
    if r.size and np.max(np.abs(r)) > HORIZON:
        raise PreconditionError(f"flow time {np.max(np.abs(r)):.1f} is past "
                                f"the float64 horizon {HORIZON:g}")
    return r


def _orbit_components(z, r, sign=1):
    """Reduced bases of G(r_i, s_i) . z in closed form, as _gauss_sweeps'
    components shaped like r: the rows of z's basis scaled by e^{r/2} and
    s e^{-r/2} (sign is +-1 or an array of them), reduced, not sign-fixed,
    at the flow times of _flow_times."""
    h = np.exp(0.5 * _flow_times(z, r))
    k = sign / h
    (a, b), (c, d) = z.basis.tolist()
    return _gauss_sweeps(h * a, h * b, k * c, k * d)


def diag_orbit(z, r, sign=1):
    """_orbit_components stacked: the (N, 2, 2) bases of G(r_i, s_i) . z."""
    return np.stack(_orbit_components(z, r, sign), -1).reshape(-1, 2, 2)


def orbit_shortest(z, r):
    """Shortest-vector lengths of G(r_i, 1) . z.  On a closed orbit, the
    least of (h v0)^2 + (v1 / h)^2, h = e^{r/2} at r mod z.period, over the
    table z.minima, with no reduction; otherwise from _orbit_components.
    Flow times are checked by _flow_times either way."""
    if z.minima is None:
        x0, _, y0, _ = _orbit_components(z, r)
        return np.sqrt(x0 * x0 + y0 * y0)
    h = np.exp(0.5 * _flow_times(z, r))
    k = 1.0 / h
    best = None
    for v0, v1 in z.minima:
        n = np.square(h * v0)
        n += np.square(k * v1)
        best = n if best is None else np.minimum(best, n, out=best)
    return np.sqrt(best, out=best)


def orbit_shortest_values(z, T, dt):
    """Shortest-vector lengths of G(r, 1) z at the midpoint times
    r = (j + 1/2) dt, j < T/dt (G(r, -1) differs by the orthogonal
    diag(1, -1), which keeps lengths); with T the period of z, the
    flow-invariant law of the closed orbit on a midpoint grid."""
    return orbit_shortest(z, (np.arange(int(round(T / dt))) + 0.5) * dt)


def _gauss_sweeps(x0, x1, y0, y1):
    """Gauss reduction of the bases of columns (x0, y0), (x1, y1), returned
    as new arrays: sweeps of column swaps and rounded projections until no
    projection rounds to non-zero.  Any input works; a basis skewed by a
    factor K takes about log K sweeps."""
    n1 = x0 * x0 + y0 * y0
    for _ in range(256):
        n2 = x1 * x1 + y1 * y1
        swap = n2 < n1
        x0, x1 = np.where(swap, x1, x0), np.where(swap, x0, x1)
        y0, y1 = np.where(swap, y1, y0), np.where(swap, y0, y1)
        n1 = np.minimum(n1, n2)
        mu = np.rint((x0 * x1 + y0 * y1) / n1)
        if not np.count_nonzero(mu):
            return x0, x1, y0, y1
        x1 -= mu * x0
        y1 -= mu * y0
    raise PreconditionError("Gauss reduction failed to terminate")


def reduce_batch(B):
    """_gauss_sweeps in place on a (N, 2, 2) stack of bases (columns), read
    from and written to its views B[:, i, j], which are contiguous, so not
    copied, on the lattice walk's component-major layout."""
    B[:, 0, 0], B[:, 0, 1], B[:, 1, 0], B[:, 1, 1] = _gauss_sweeps(
        B[:, 0, 0], B[:, 0, 1], B[:, 1, 0], B[:, 1, 1])
    return B
