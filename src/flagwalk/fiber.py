"""The fibre S/Lambda as reduced unimodular lattice bases.

Gauss reduction (every fibre here is a space of rank-2 lattices) by one
kernel on component arrays, the left action of group elements, the
shortest-vector observable, and the diagonal flow G(r, sg) by one closed-form
orbit evaluator, which diag_orbit stacks and orbit_shortest reads (on a
midpoint grid over one period, the law of a closed orbit).  Basis vectors
are the *columns* of the stored matrix.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .group_core import as_matrix


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


@dataclass(frozen=True, eq=False)
class LatticePoint:
    """A point of S/Lambda: a reduced basis matrix (columns) with |det| = 1,
    and optionally a period r0 > 0 with G(r0, 1) . z = z (a closed diagonal
    orbit).  Equality and hashing use the basis alone."""

    basis: np.ndarray
    period: float = None

    def __post_init__(self):
        if self.period is not None and not 0.0 < self.period < math.inf:
            raise PreconditionError("a closed orbit's period must be positive "
                                    f"and finite, got {self.period}")
        b = np.asarray(self.basis, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    def __eq__(self, other):
        return isinstance(other, LatticePoint) and \
            bool(np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash(self.basis.tobytes())

    def close_to(self, other, tol=1e-9):
        return np.max(np.abs(self.basis - other.basis)) <= tol

    def to_json(self):
        return json.dumps({"basis": [list(row) for row in self.basis],
                           "period": self.period})

    @classmethod
    def from_json(cls, s):
        d = json.loads(s)
        return cls(np.array(d["basis"], dtype=float), d.get("period"))


def reduce(B):
    """Reduce a unimodular 2x2 basis to the canonical LatticePoint
    representative by Gauss reduction; the generated lattice is unchanged
    since all operations are right-unimodular.
    """
    B = as_matrix(B)
    if B.shape != (2, 2):
        raise PreconditionError(f"2x2 basis matrix required, got {B.shape}")
    if not np.isfinite(B).all():
        raise PreconditionError("basis entries must be finite")
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
    return reduce(as_matrix(s) @ z.basis)


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


def capped_shortest(cap=1.0):
    """The standard bounded observable min(shortest_vector, cap)."""
    def f(z):
        return min(shortest_vector(z), cap)
    f.cap = cap
    f.name = f"capped_shortest({cap})"
    return f


HORIZON = 36.0  # flow time past which float64 rounding, grown by e^r, is O(1)


def _orbit_components(z, r, sign=1):
    """Reduced bases of G(r_i, s_i) . z in closed form, as _gauss_sweeps'
    components shaped like r: the rows of z's basis scaled by e^{r/2} and
    s e^{-r/2} (sign is +-1 or an array of them), reduced, not sign-fixed.
    r is wrapped modulo z.period when set; otherwise |r| > HORIZON raises,
    as the rounding error of the reduced basis grows like e^|r|."""
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise PreconditionError("flow times must be finite")
    if z.period is not None:
        r = np.mod(r, z.period)
    elif r.size and np.max(np.abs(r)) > HORIZON:
        raise PreconditionError(f"flow time {np.max(np.abs(r)):.1f} is past "
                                f"the float64 horizon {HORIZON:g}")
    h = np.exp(0.5 * r)
    k = sign / h
    (a, b), (c, d) = z.basis.tolist()
    return _gauss_sweeps(h * a, h * b, k * c, k * d)


def diag_orbit(z, r, sign=1):
    """_orbit_components stacked: the (N, 2, 2) bases of G(r_i, s_i) . z."""
    return np.stack(_orbit_components(z, r, sign), -1).reshape(-1, 2, 2)


def orbit_shortest(z, r):
    """Shortest-vector lengths of G(r_i, 1) . z from _orbit_components."""
    x0, _, y0, _ = _orbit_components(z, r)
    return np.sqrt(x0 * x0 + y0 * y0)


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
