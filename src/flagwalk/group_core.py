"""Matrix-group arithmetic.

KAN (Iwasawa) factorization with positive diagonal, symmetric-power
representations of SL(2), sl2-triples and the principal embedding, plus the
least-squares triple-extension test used by the case classifier.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionError, PreconditionError


def as_matrix(g):
    """Return g as a float ndarray."""
    return np.asarray(g, dtype=float)


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
    m = as_matrix(g)
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

    For n >= 3, Gram-Schmidt with positive pivots (rather than Householder)
    enforces the a > 0 sign convention directly; one reorthogonalization
    pass keeps the reconstruction error at the 1e-12 level for
    well-conditioned inputs.  Both paths reject the same inputs: |det g| off
    1 by more than 1e-6 or a non-finite entry (PreconditionError), and a
    condition number above 1e12 (DecompositionError).
    """
    m = as_matrix(g)
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

    n = m.shape[0]
    if not np.isfinite(m).all():
        raise PreconditionError("matrix entries must be finite")
    # one SVD gives both checks: |det g| is the product of the singular values
    s = np.linalg.svd(m, compute_uv=False)
    if not abs(math.prod(s.tolist()) - 1.0) <= 1e-6:
        raise PreconditionError("|det g| must be 1")
    if s[0] > 1e12 * s[-1]:
        raise DecompositionError("condition number exceeds 1e12")

    q = np.zeros((n, n))
    r = np.zeros((n, n))
    v = np.array(m, dtype=float)
    for i in range(n):
        vi = v[:, i]
        # two orthogonalization sweeps against the finished columns
        # ("twice is enough")
        if i:
            qi = q[:, :i]
            for _ in range(2):
                c = vi @ qi
                r[:i, i] += c
                vi -= qi @ c
        piv = math.sqrt(vi @ vi)
        if piv < 1e-14:
            raise DecompositionError("column collapse during Gram-Schmidt")
        r[i, i] = piv
        q[:, i] = vi / piv

    d = r.diagonal().copy()
    a = np.diag(d)
    nu = r / d[:, None]
    np.fill_diagonal(nu, 1.0)
    return IwasawaFactors(q, a, nu)


def _binom_pow(u0, u1, p):
    """Coefficients of (u0*X + u1*Y)**p in the basis X^p, X^{p-1}Y, ..., Y^p."""
    return np.array([math.comb(p, i) * u0 ** (p - i) * u1 ** i
                     for i in range(p + 1)], dtype=float)


def sym_power(g, n):
    """Matrix of the unique n-dimensional irreducible SL2-representation.

    Realized on degree-(n-1) homogeneous polynomials in X, Y with the monomial
    basis ordered by descending weight: X^{n-1}, X^{n-2}Y, ..., Y^{n-1}, so
    diag(t, 1/t) maps to diag(t^{n-1}, ..., t^{-(n-1)}).  For n even the SL2
    action is faithful; for n odd it factors through PGL2.
    """
    if n < 1:
        raise PreconditionError("n >= 1 required")
    m = as_matrix(g)
    if m.shape != (2, 2):
        raise PreconditionError("sym_power expects a 2x2 matrix")
    d = n - 1
    a, b = m[0, 0], m[0, 1]
    c, dd = m[1, 0], m[1, 1]
    out = np.zeros((n, n))
    for j in range(n):
        # basis vector X^{d-j} Y^j maps to (aX + cY)^{d-j} (bX + dY)^j
        col = np.convolve(_binom_pow(a, c, d - j), _binom_pow(b, dd, j))
        out[:, j] = col
    return out


def highest_weight_lift(u, n):
    """Lift of the direction u into the highest-weight line of sym_power(., n).

    The equivariant map sends the line through the unit vector u = (u0, u1) to
    the span of (u0 X + u1 Y)^{n-1}; this returns that coefficient vector.
    """
    u = np.asarray(u, dtype=float)
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        raise PreconditionError("zero vector has no direction")
    return _binom_pow(u[0] / nrm, u[1] / nrm, n - 1)


@dataclass(frozen=True)
class Representation:
    """An irreducible representation of the 2x2 group, given by evaluation
    and highest-weight-line lifting rules."""

    dim: int
    apply: callable = field(repr=False)
    lift: callable = field(repr=False)
    name: str = ""


def standard_rep():
    return Representation(2, lambda g: as_matrix(g), lambda u: np.asarray(u, float),
                          name="standard")


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

    def validate(self, tol=1e-9):
        res = self.bracket_residual()
        if res > tol:
            raise PreconditionError(f"sl2-triple bracket residual {res:.3e}")
        return self


def principal_triple(m):
    """The principal sl2-triple in m x m integer matrices.

    x = diag(m-1, m-3, ..., -m+1), e = superdiagonal of ones,
    f = subdiagonal (m-1), 2(m-2), ..., (m-1).  Brackets hold exactly in
    integer arithmetic.
    """
    if m < 2:
        raise PreconditionError("m >= 2 required")
    x = np.diag(np.arange(m - 1, -m, -2, dtype=np.int64))
    e = np.diag(np.ones(m - 1, dtype=np.int64), k=1)
    f = np.diag(np.array([(i + 1) * (m - 1 - i) for i in range(m - 1)],
                         dtype=np.int64), k=-1)
    return Sl2Triple(e, x, f)


def extend_sl2_triple(xbar, ebar, tol=1e-6):
    """Try to complete (xbar, ebar) to an sl2-triple by solving for fbar.

    Solves [xbar, f] = -2 f and [ebar, f] = xbar jointly by least squares.
    Returns (fbar, residual) on success (residual <= tol) and (None, residual)
    when no completion exists; the residual is the certified minimum of the
    stacked linear system.
    """
    xb = np.asarray(xbar, dtype=float)
    eb = np.asarray(ebar, dtype=float)
    if xb.shape != eb.shape or xb.ndim != 2 or xb.shape[0] != xb.shape[1]:
        raise PreconditionError("xbar, ebar must be square of equal dimension")
    pre = np.max(np.abs(bracket(xb, eb) - 2.0 * eb))
    if pre > max(tol, 1e-9):
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
    if residual <= tol:
        return fbar, residual
    return None, residual
