"""Matrix-group arithmetic, and the rules that read a caller's inputs.

KAN (Iwasawa) factorization with positive diagonal, symmetric-power
representations of SL(2), sl2-triples and the principal embedding, plus the
least-squares triple-extension test used by the case classifier.

Inputs from a caller pass one rule per kind, each naming what it refuses:
an array through as_matrix, a 2x2 matrix through finite_entries (a sequence
of them, finite_stack) or unimodular_entries, a boundary point of the
circle G/Q through _unit_xy, a step, trial or dimension count through
_check_count, and a cap or other positive bound through _check_positive.
The algebra, boundary and cocycle layers and the drivers read through these.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionError, PreconditionError

_BRACKET_TOL = 1e-9    # largest bracket residual of a valid sl2-triple
EXTENSION_TOL = 1e-6   # largest residual of a triple extension that holds


def as_matrix(g, what):
    """Return g as a float ndarray; input numpy cannot read so, such as a
    ragged list or a string, raises PreconditionError naming `what`."""
    try:
        return np.asarray(g, dtype=float)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what} is not an array of numbers") from None


def bracket(a, b):
    """Lie bracket ab - ba."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError("bracket needs two square matrices of equal size")
    return a @ b - b @ a


@dataclass(frozen=True)
class IwasawaFactors:
    """g = k a nu with k orthogonal, a positive diagonal, nu unipotent upper."""

    k: np.ndarray
    a: np.ndarray
    nu: np.ndarray

    def reconstruct(self):
        return self.k @ self.a @ self.nu


def unimodular_entries(g):
    """The entries (a, b, c, d) of a 2x2 matrix g as Python floats, after
    the two checks every KAN factorization makes.

    |det g| = |ad - bc| must be 1 to 1e-6 (PreconditionError; NaN or inf
    entries fail this too), and the condition number sigma1/sigma2 must not
    exceed 1e12 (DecompositionError).  For 2x2 matrices the second check
    needs no SVD: sigma1 sigma2 = |det| and
    sigma1^2 = (F^2 + sqrt(F^4 - 4 det^2)) / 2 with F the Frobenius norm, so
    sigma1/sigma2 > 1e12 exactly when sigma1^2 > 1e12 |det|.
    """
    m = as_matrix(g, "g")
    if m.shape != (2, 2):
        raise PreconditionError("2x2 matrix required")
    a, b, c, d = m.ravel().tolist()
    det = abs(a * d - b * c)
    if not abs(det - 1.0) <= 1e-6:
        raise PreconditionError("|det g| must be 1")
    f2 = a * a + b * b + c * c + d * d
    s1sq = 0.5 * (f2 + math.sqrt(max(0.0, (f2 - 2.0 * det) * (f2 + 2.0 * det))))
    if s1sq > 1e12 * det:
        raise DecompositionError("condition number exceeds 1e12")
    return a, b, c, d


def iwasawa_decompose(g):
    """KAN decomposition g = k a nu with a positive diagonal.

    For 2x2 g (|det g| = 1, either sign) the factors are closed forms in the
    first column c1 = (a, c): k has columns c1/|c1| and sgn(det) c1'/|c1|
    with c1' = (-c, a), so k is a rotation for det > 0 and a reflection for
    det < 0; a = diag(|c1|, |det|/|c1|) and nu12 = <c1, c2>/|c1|^2.  Using
    |det| rather than 1 keeps the reconstruction at the 1e-12 level for
    determinants anywhere inside the 1e-6 tolerance.

    For n >= 3, numpy's Householder QR, with each column of q and row of r
    whose pivot is negative flipped, so that a > 0; a pivot below 1e-14
    raises DecompositionError.  Both paths reject the same inputs: |det g| off
    1 by more than 1e-6 or a non-finite entry (PreconditionError), and a
    condition number above 1e12 (DecompositionError).
    """
    m = as_matrix(g, "g")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError("square matrix required")
    if m.shape == (2, 2):
        a, b, c, d = unimodular_entries(m)
        det = a * d - b * c
        n1 = math.hypot(a, c)
        s = math.copysign(1.0, det)
        # the three factors are views of one array: one construction, not three
        k, diag, nu = np.array((
            a / n1, -s * c / n1, c / n1, s * a / n1,
            n1, 0.0, 0.0, abs(det) / n1,
            1.0, (a * b + c * d) / (n1 * n1), 0.0, 1.0)).reshape(3, 2, 2)
        return IwasawaFactors(k, diag, nu)

    if not np.isfinite(m).all():
        raise PreconditionError("matrix entries must be finite")
    # one SVD gives both checks: |det g| is the product of the singular values
    s = np.linalg.svd(m, compute_uv=False)
    if not abs(math.prod(s.tolist()) - 1.0) <= 1e-6:
        raise PreconditionError("|det g| must be 1")
    if s[0] > 1e12 * s[-1]:
        raise DecompositionError("condition number exceeds 1e12")

    q, r = np.linalg.qr(m)
    d = r.diagonal()
    if not np.abs(d).min() >= 1e-14:
        raise DecompositionError("column collapse in the QR factorization")
    # g = (q S)(S r) with S = diag(sgn d): flipping column i of q and row i
    # of r where d_i < 0 makes every pivot positive
    nu = r / d[:, None]
    np.fill_diagonal(nu, 1.0)
    return IwasawaFactors(q * np.sign(d), np.diag(np.abs(d)), nu)


def _finite_array(g, what):
    """(g as a float array, its entries as Python floats), refused, naming
    `what`, unless as_matrix reads g and its entries are finite."""
    m = as_matrix(g, what)
    e = m.ravel().tolist()
    if not all(map(math.isfinite, e)):
        raise PreconditionError(f"{what} has a non-finite entry")
    return m, e


def finite_entries(g, what):
    """The entries [a, b, c, d] of a 2x2 matrix g as Python floats, the one
    rule for a 2x2 matrix a caller passes in: what _finite_array refuses,
    then another shape, raises PreconditionError naming `what`, g's role."""
    m, e = _finite_array(g, what)
    if m.shape != (2, 2):
        raise PreconditionError(f"{what} must be 2x2, got shape {m.shape}")
    return e


def finite_stack(mats, what):
    """The nested lists [[a, b], [c, d]] of a sequence of 2x2 matrices,
    read as one array by the rule of finite_entries: a non-finite entry
    anywhere is refused before a matrix of another shape."""
    m, _ = _finite_array(mats, what)
    if m.shape[1:] != (2, 2):
        raise PreconditionError(f"{what} must be 2x2, got shape {m.shape[1:]}")
    return m.tolist()


def _check_count(name, value, least=1):
    """Refuse `value` unless it is an integer >= least, naming it.  A bool
    is not a count.  The one rule for every count a caller passes in."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise PreconditionError(f"{name} must be an integer >= {least}, got "
                                f"{value!r}")


def _check_positive(name, value):
    """Refuse `value` unless it is a finite real > 0 (a bool is not), naming
    it: the one rule for every positive bound a caller passes in."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0 < value < math.inf:
        raise PreconditionError(f"{name} must be a finite number > 0, got "
                                f"{value!r}")


def _unit_xy(xi, what):
    """The unit vector of a boundary point xi as two Python floats.  The one
    rule for every boundary point a caller passes in.

    Anything but two numbers, and a zero, non-finite or overflowing vector,
    raises PreconditionError naming `what`, the role of xi in the caller.
    The norm is numpy's hypot, not math.hypot, which rounds differently
    about once in 170 vectors: walk starts are normalized here, and reports
    stay byte-identical only if their bits do.
    """
    try:
        x, y = np.asarray(xi, dtype=float).reshape(2).tolist()
    except ValueError:
        raise PreconditionError(f"{what} is not a 2-vector: {xi!r}") from None
    if abs(x) <= 1e308 and abs(y) <= 1e308:   # hypot(x, y) <= 1.5e308
        nrm = float(np.hypot(x, y))
    else:   # errstate costs 2 us a call, so only where hypot can overflow
        with np.errstate(over="ignore"):   # an overflow is refused below
            nrm = float(np.hypot(x, y))
    if not 0.0 < nrm < math.inf:
        raise PreconditionError(f"{what} must be a nonzero finite vector, "
                                f"got {xi!r}")
    return x / nrm, y / nrm


def _times_linear(c, p, q):
    """The coefficient list of (pX + qY) P for the list c of a homogeneous
    P in the basis X^k, X^{k-1}Y, ..., Y^k."""
    return [p * c[0], *[p * u + q * v for u, v in zip(c[1:], c)], q * c[-1]]


def sym_power(g, n):
    """Matrix of the unique n-dimensional irreducible SL2-representation.

    Realized on degree-(n-1) homogeneous polynomials in X, Y with the monomial
    basis ordered by descending weight: X^{n-1}, X^{n-2}Y, ..., Y^{n-1}, so
    diag(t, 1/t) maps to diag(t^{n-1}, ..., t^{-(n-1)}).  For n even the SL2
    action is faithful; for n odd it factors through PGL2.  The columns are
    coefficient lists built by _times_linear on Python floats.  An n that
    _check_count refuses, or a g that is not a finite 2x2 matrix, raises
    PreconditionError.
    """
    _check_count("n", n)
    a, b, c, dd = finite_entries(g, "sym_power's g")
    cols = []
    y = [1.0]
    for j in range(n):
        if j:
            y = _times_linear(y, b, dd)
        # basis vector X^{n-1-j} Y^j maps to (aX + cY)^{n-1-j} (bX + dY)^j
        col = y
        for _ in range(n - 1 - j):
            col = _times_linear(col, a, c)
        cols.append(col)
    return np.array(cols).T


def highest_weight_lift(u, n):
    """Lift of the direction u into the highest-weight line of sym_power(., n).

    The equivariant map sends the line through the unit vector u = (u0, u1) to
    the span of (u0 X + u1 Y)^{n-1}; this returns that coefficient vector.
    A u that _unit_xy refuses, or an n as sym_power refuses it, raises
    PreconditionError.
    """
    _check_count("n", n)
    u0, u1 = _unit_xy(u, "u")
    col = [1.0]
    for _ in range(n - 1):
        col = _times_linear(col, u0, u1)
    return np.array(col)


@dataclass(frozen=True)
class Representation:
    """An irreducible representation of the 2x2 group, given by evaluation
    and highest-weight-line lifting rules."""

    dim: int
    apply: callable = field(repr=False)
    lift: callable = field(repr=False)
    name: str = ""


def standard_rep():
    return Representation(2, lambda g: as_matrix(g, "g"),
                          lambda u: np.asarray(u, float), name="standard")


def sym_rep(n):
    if n == 2:
        return standard_rep()
    return Representation(n, lambda g, n=n: sym_power(g, n),
                          lambda u, n=n: highest_weight_lift(u, n),
                          name=f"sym{n}")


@dataclass(frozen=True)
class Sl2Triple:
    """Raising/semisimple/lowering matrices with [x,e]=2e, [x,f]=-2f, [e,f]=x."""

    e: np.ndarray
    x: np.ndarray
    f: np.ndarray

    def bracket_residual(self):
        r1 = bracket(self.x, self.e) - 2.0 * np.asarray(self.e, dtype=float)
        r2 = bracket(self.x, self.f) + 2.0 * np.asarray(self.f, dtype=float)
        r3 = bracket(self.e, self.f) - np.asarray(self.x, dtype=float)
        return max(np.max(np.abs(r)) for r in (r1, r2, r3))

    def validate(self):
        res = self.bracket_residual()
        if not res <= _BRACKET_TOL:   # a NaN residual is refused too
            raise PreconditionError(f"sl2-triple bracket residual {res:.3e}")
        return self


def principal_triple(m):
    """The principal sl2-triple in m x m integer matrices.

    x = diag(m-1, m-3, ..., -m+1), e = superdiagonal of ones,
    f = subdiagonal (m-1), 2(m-2), ..., (m-1).  Brackets hold exactly in
    integer arithmetic.  An m that _check_count refuses, or m < 2, raises
    PreconditionError.
    """
    _check_count("m", m, 2)
    x = np.diag(np.arange(m - 1, -m, -2, dtype=np.int64))
    e = np.diag(np.ones(m - 1, dtype=np.int64), k=1)
    f = np.diag(np.array([(i + 1) * (m - 1 - i) for i in range(m - 1)],
                         dtype=np.int64), k=-1)
    return Sl2Triple(e, x, f)


def extend_sl2_triple(xbar, ebar):
    """Try to complete (xbar, ebar) to an sl2-triple by solving for fbar.

    Solves [xbar, f] = -2 f and [ebar, f] = xbar jointly by least squares.
    Returns (fbar, residual) on success (residual <= EXTENSION_TOL) and
    (None, residual) when no completion exists; the residual is the
    certified minimum of the stacked linear system.
    """
    xb = np.asarray(xbar, dtype=float)
    eb = np.asarray(ebar, dtype=float)
    if xb.shape != eb.shape or xb.ndim != 2 or xb.shape[0] != xb.shape[1]:
        raise PreconditionError("xbar, ebar must be square of equal dimension")
    pre = np.max(np.abs(bracket(xb, eb) - 2.0 * eb))
    if pre > EXTENSION_TOL:
        raise PreconditionError(f"[xbar, ebar] != 2 ebar (residual {pre:.3e})")
    n = xb.shape[0]
    eye = np.eye(n)
    # vec is column-stacking: vec(X F) = (I (x) X) vec(F), vec(F X) = (X^T (x) I) vec(F)
    ad_x = np.kron(eye, xb) - np.kron(xb.T, eye)
    ad_e = np.kron(eye, eb) - np.kron(eb.T, eye)
    big = np.vstack([ad_x + 2.0 * np.eye(n * n), ad_e])
    rhs = np.concatenate([np.zeros(n * n), xb.reshape(-1, order="F")])
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    residual = float(np.linalg.norm(big @ sol - rhs))
    fbar = sol.reshape((n, n), order="F")
    if residual <= EXTENSION_TOL:
        return fbar, residual
    return None, residual
