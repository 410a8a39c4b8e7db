"""Cocycles over the circle / projective line.

The additive Iwasawa cocycle, its highest-weight evaluation, the sign cocycle
built from a circle section, the combined D±-valued cocycle, morphism-type and
conjugated cocycle handles, and the drift cross-ratio.

Evaluation.  The Iwasawa, sign and alpha cocycles and every handle evaluate
on Python floats: the four entries of a 2x2 g and the two coordinates of a
boundary point, with closed forms in place of matrix products, inverses and
rotation matrices.  numpy arrays are built only for the matrix values a
handle returns and the unit vectors it hands to a conjugating phi.  Every
boundary point is normalized by group_core._unit_xy, and the cross-ratio's
counts are checked by group_core._check_count.

Normalization.  The diagonal group D is parametrized so that the additive
cocycle equals log ||g u|| for a unit lift u of the boundary point; the fibre
action of the value r is the matrix diag(e^{r/2}, e^{-r/2}) (see the fiber
module).  This is the one scaling under which the cocycle drift equals the
Lyapunov exponent lambda = lim (1/n) log ||g_1 ... g_n||, so walk time n and
flow time t = lambda * n line up without spurious factors of two.
"""

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .boundary import _letters, _word_product, limit_vector
from .errors import PreconditionError
from .fiber import diag_matrix
from .group_core import _check_count, _unit_xy, as_matrix, finite_entries, \
    unimodular_entries
# iwasawa_decompose is unused here but stays importable: perfbench/spans.py
# traces it at this name
from .group_core import iwasawa_decompose  # noqa: F401

# --------------------------------------------------------------------------
# circle points and sections


def unit_vector(xi):
    """Normalize a 2-vector representing a circle/projective point."""
    return np.array(_unit_xy(xi, "boundary point"))


@dataclass(frozen=True)
class CircleSection:
    """A Borel section of the double cover: a rule picking one of ±u.

    mode "plain" lifts into the closed upper half circle.  mode
    "cone-half-circle" lifts into the closed half circle around the reference
    direction `ref`, which should point into the invariant cone / limit set
    when one exists; no other mode is accepted.  ref is normalized once, at
    construction, by _unit_xy, which refuses a ref that is not a nonzero
    finite 2-vector.  Both modes are one scale-invariant rule on a nonzero
    vector (side), which lift, sign_of and sign_cocycle use.
    """

    mode: str = "plain"
    ref: tuple = (1.0, 0.0)

    def __post_init__(self):
        if self.mode not in ("plain", "cone-half-circle"):
            raise PreconditionError(f"unknown section mode {self.mode!r}")
        object.__setattr__(self, "ref", _unit_xy(self.ref, "section ref"))

    def side(self, x, y):
        """+1 if the section picks the nonzero vector (x, y) over -(x, y),
        else -1; positive rescalings of (x, y) get the same answer."""
        if self.mode == "plain":
            # the closed upper half circle, cut below the negative x-axis
            return -1 if y < 0.0 or (y == 0.0 and x < 0.0) else 1
        r0, r1 = self.ref
        d = x * r0 + y * r1
        if d == 0.0:
            # antisymmetric tie-break on the boundary of the half circle
            d = y * r0 - x * r1
        return 1 if d > 0.0 else -1

    def lift(self, xi):
        """The section's unit lift of the boundary point xi."""
        x, y = _unit_xy(xi, "boundary point")
        s = self.side(x, y)
        return np.array((s * x, s * y))

    def sign_of(self, u):
        """+1 if the section lifts u to u/||u||, -1 if to -u/||u||."""
        return self.side(*_unit_xy(u, "boundary point"))


def plain_section():
    return CircleSection("plain")


def cone_section(ref):
    return CircleSection("cone-half-circle", ref)


def arc_midpoint(arc):
    """(cos, sin) of the invariant arc's midpoint, (1, 0) without one: the
    default start of walk and equidist, which one _unit_xy takes to
    arc_section(arc).ref bit for bit."""
    if arc is None:
        return 1.0, 0.0
    mid = arc[0] + arc[1] / 2.0
    return math.cos(mid), math.sin(mid)


def arc_section(arc):
    """The section of a boundary analysis: the cone half-circle around
    arc_midpoint(arc), or the plain section when there is no arc (None)."""
    return plain_section() if arc is None else cone_section(arc_midpoint(arc))


# --------------------------------------------------------------------------
# the D± value space


@dataclass(frozen=True)
class DiagSignValue:
    """An element of D± recorded as (log-parameter r, sign ±1)."""

    r: float
    sign: int = 1

    def __mul__(self, other):
        return DiagSignValue(self.r + other.r, self.sign * other.sign)

    def inverse(self):
        return DiagSignValue(-self.r, self.sign)

    def matrix(self):
        return diag_matrix(self.r, self.sign)


# --------------------------------------------------------------------------
# scalar cocycles


def _image(g, xi):
    """(x, y, gx, gy): the unit lift (x, y) of xi and its image under g, as
    Python floats, after the checks of _unit_xy and unimodular_entries."""
    x, y = _unit_xy(xi, "boundary point")
    a, b, c, d = unimodular_entries(g)
    return x, y, a * x + b * y, c * x + d * y


def iwasawa_cocycle(h, xi):
    """The additive Iwasawa cocycle sigma(h, xi) = log ||h u||.

    u is a unit lift of xi; the value does not depend on its sign, and it is
    the log of the first a-entry of the KAN decomposition of h k for k a
    rotation lifting xi.  Computed on Python floats after the checks of
    unimodular_entries, so h is rejected exactly as iwasawa_decompose
    rejects it.
    """
    _, _, hx, hy = _image(h, xi)
    return math.log(math.hypot(hx, hy))


def sigma_chi(h, xi, rep):
    """Highest-weight evaluation log(||rho(h) v|| / ||v||).

    v spans the image of the boundary point xi in the highest-weight line of
    rep; for the standard representation this coincides with iwasawa_cocycle,
    and h is rejected as iwasawa_cocycle rejects it (unimodular_entries).
    """
    unimodular_entries(h)
    v = rep.lift(unit_vector(xi))
    nv = math.hypot(*v.tolist())
    if nv == 0.0:
        raise PreconditionError("zero highest-weight lift")
    w = rep.apply(h) @ v
    return math.log(math.hypot(*w.tolist()) / nv)


def sign_cocycle(g, eta, sec):
    """The ±1 cocycle sg(g, eta) = sg(k) sg(k_g) for the section sec.

    k is any circle lift of eta and k_g the K-part of g k; the product of the
    two section signs is independent of the choice of lift.  The first
    column of k_g is g u / ||g u|| for a unit lift u, and the section's side
    rule is scale-invariant, so g u is never normalized.  g must pass the
    checks of unimodular_entries.
    """
    x, y, gx, gy = _image(g, eta)
    return sec.side(x, y) * sec.side(gx, gy)


def alpha_cocycle(g, eta, sec):
    """The D±-valued fibre cocycle alpha(g, eta) = (sigma, sg).

    Both parts come from one evaluation of g on the unit lift of eta, with
    the formulas of iwasawa_cocycle and sign_cocycle.
    """
    x, y, gx, gy = _image(g, eta)
    return DiagSignValue(math.log(math.hypot(gx, gy)),
                         sec.side(x, y) * sec.side(gx, gy))


# --------------------------------------------------------------------------
# cocycle handles


class CocycleHandle:
    """Evaluation rule (g, eta) -> fibre action.

    Values are DiagSignValue for AlphaCocycle and plain matrices for the
    morphism-type and conjugated handles; value_matrix() gives a uniform
    matrix view for the bundle walk.
    """

    def __call__(self, g, eta):  # pragma: no cover - interface
        raise NotImplementedError

    def value_matrix(self, g, eta):
        v = self(g, eta)
        return v.matrix() if isinstance(v, DiagSignValue) else v


class AlphaCocycle(CocycleHandle):
    def __init__(self, section):
        self.section = section

    def __call__(self, g, eta):
        return alpha_cocycle(g, eta, self.section)


def _callable(rho):
    """rho, refused at construction unless it can be called."""
    if not callable(rho):
        raise PreconditionError(f"rho must be callable, got {rho!r}")
    return rho


class MorphismCocycle(CocycleHandle):
    """alpha(g, .) = rho(g), independent of the boundary point."""

    def __init__(self, rho):
        self.rho = _callable(rho)

    def __call__(self, g, eta):
        return self.rho(g)


class SectionMorphismCocycle(CocycleHandle):
    """The P-valued cocycle rho(s(g eta)^{-1} g s(eta)) from a section.

    With u = s(eta), u' its quarter turn and v = s(g eta) the section's
    unit lift of g u, the rotations s(.) have columns (u, u') and (v, v'),
    so the sandwich is the upper-triangular p with p00 = v.(g u) = ±||g u||,
    p01 = v.(g u'), p10 = 0 and p11 = v'.(g u').  g must pass the checks of
    unimodular_entries.
    """

    def __init__(self, rho, section):
        self.rho = _callable(rho)
        self.section = section

    def __call__(self, g, eta):
        x, y = _unit_xy(eta, "boundary point")
        a, b, c, d = unimodular_entries(g)
        s = self.section.side(x, y)
        x, y = s * x, s * y
        gx, gy = a * x + b * y, c * x + d * y
        hx, hy = b * x - a * y, d * x - c * y    # g u'
        nrm = math.hypot(gx, gy)
        t = self.section.side(gx, gy)
        vx, vy = t * gx / nrm, t * gy / nrm
        return self.rho(np.array(((t * nrm, vx * hx + vy * hy),
                                  (0.0, vx * hy - vy * hx))))


class ConjugatedCocycle(CocycleHandle):
    """alpha'(g, x) = phi(g x)^{-1} alpha(g, x) phi(x).

    phi takes a unit vector and returns an invertible 2x2 matrix; the base
    value and both phi values must be finite 2x2 matrices, and phi(g x) is
    inverted by its adjugate over its determinant, which must not vanish to
    within the rounding of its two products.  g must pass the checks
    of unimodular_entries.
    """

    def __init__(self, base, phi):
        self.base = base
        self.phi = phi

    def __call__(self, g, eta):
        x, y, gx, gy = _image(g, eta)
        nrm = math.hypot(gx, gy)
        p, q, r, s = finite_entries(self.phi(np.array((gx / nrm, gy / nrm))),
                                    "phi(g x)")
        det = p * s - q * r
        # zero, or zero up to the rounding of its own two products
        if not abs(det) > 1e-15 * (abs(p * s) + abs(q * r)):
            raise PreconditionError("phi(g x) is singular")
        m0, m1, m2, m3 = finite_entries(self.base.value_matrix(g, eta),
                                        "the base cocycle's value")
        f0, f1, f2, f3 = finite_entries(self.phi(np.array((x, y))), "phi(x)")
        t0, t1 = m0 * f0 + m1 * f2, m0 * f1 + m1 * f3
        t2, t3 = m2 * f0 + m3 * f2, m2 * f1 + m3 * f3
        return np.array((((s * t0 - q * t2) / det, (s * t1 - q * t3) / det),
                         ((p * t2 - r * t0) / det, (p * t3 - r * t1) / det)))


def morphism_cocycle(rho, sec=None, dim=None, trivial=False):
    """Build a morphism-type handle.

    With sec=None the handle is the genuine morphism cocycle alpha(g,.) =
    rho(g) (the decomposable case); with a section it is the P-valued
    sandwich rho(s(g eta)^{-1} g s(eta)).  trivial=True gives the constant
    identity cocycle of the trivial-fibre-action case: one read-only dim x
    dim identity (dim 2 by default, read by no other handle) on every call.
    """
    if trivial:
        identity = np.eye(2 if dim is None else dim)
        identity.flags.writeable = False
        return MorphismCocycle(lambda g: identity)
    if sec is not None:
        return SectionMorphismCocycle(rho, sec)
    return MorphismCocycle(rho)


def conjugate_cocycle(alpha, phi):
    return ConjugatedCocycle(alpha, phi)


def cocycle_identity_residual(handle, g1, g2, eta):
    """Group-law residual alpha(g1 g2, eta) vs alpha(g1, g2 eta) alpha(g2, eta).

    eta is normalized once and g2 u is handed on unnormalized, since every
    handle normalizes its boundary point.  Matrix values are compared up to
    sign, entry by entry on Python floats, relative to max(1, max |entry|)
    of the product.  A value on either side that is not finite gives
    math.inf, so a NaN can never pass as a small residual.  A g1 that is
    not 2x2 is refused before the product g1 g2 is formed.
    """
    x, y, gx, gy = _image(g2, eta)
    m1 = as_matrix(g1, "g1")
    if m1.shape != (2, 2):
        raise PreconditionError(f"g1 must be 2x2, got shape {m1.shape}")
    m2 = as_matrix(g2, "g2")
    u = np.array((x, y))
    lhs = handle(m1 @ m2, u)
    v2 = handle(m2, u)
    v1 = handle(g1, np.array((gx, gy)))
    if isinstance(lhs, DiagSignValue):
        if not all(map(math.isfinite, (lhs.r, v1.r, v2.r))):
            return math.inf
        return abs(lhs.r - (v1.r + v2.r)) \
            + (0.0 if lhs.sign == v1.sign * v2.sign else 1.0)
    e1, e2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    left = np.asarray(lhs, dtype=float).ravel().tolist()
    if not all(map(math.isfinite,
                   left + e1.ravel().tolist() + e2.ravel().tolist())):
        return math.inf
    right = (e1 @ e2).ravel().tolist()
    scale = max(1.0, max(map(abs, right)))
    return min(max(map(abs, map(operator.sub, left, right))),
               max(map(abs, map(operator.add, left, right)))) / scale


# --------------------------------------------------------------------------
# the drift cross-ratio


def cross_ratio(a, a_prime, b, b_prime, n=60, m=60, past_len=60,
                match_threshold=None):
    """The drift cross-ratio of two futures (a, a') against two pasts (b, b').

    Evaluates log( ||A' v_{b'}|| ||A v_b|| / (||A' v_b|| ||A v_{b'}||) ) with
    A the n-step product over the word a and A' the m-step product over a',
    each formed once and renormalised (boundary._word_product), so that the
    scales, each once above and once below the line, cancel exactly; v_b,
    v_{b'} are the limit vectors of the past words.  Converges to the
    limit-form expression
    log( |phi_{a'}(v_{b'})| |phi_a(v_b)| / (|phi_{a'}(v_b)| |phi_a(v_{b'})|) ).

    With match_threshold set, n and m are instead chosen as the first step at
    which each product's accumulated log-norm exceeds the threshold (at most
    10000 steps), so the two products have comparable top singular values.
    n, m and past_len are refused unless _check_count takes them, and a
    word unless boundary._letters reads it, in either mode.
    """
    _check_count("n", n)
    _check_count("m", m)
    _check_count("past_len", past_len)
    a, a_prime, b, b_prime = map(_letters, (a, a_prime, b, b_prime))
    # w1, w2 repeat alike iff w1 w2 = w2 w1 (Lyndon and Schützenberger, 1962)
    if b + b_prime == b_prime + b:
        return 0.0
    if match_threshold is None:
        match_threshold = math.inf
    else:
        n = m = 10000   # the threshold mode's cap
    A, _, n = _word_product(a, n, match_threshold)
    Ap, _, m = _word_product(a_prime, m, match_threshold)
    if a + a_prime == a_prime + a and n == m:
        return 0.0
    vb = limit_vector(b, past_len)
    vbp = limit_vector(b_prime, past_len)
    if abs(float(vb @ vbp)) > 1.0 - 1e-12:
        warnings.warn("cross_ratio: limit vectors (near-)parallel, value is 0")
        return 0.0
    v = np.stack([vb, vbp], 1)
    (ab, abp), (apb, apbp) = (np.linalg.norm(P @ v, axis=0) for P in (A, Ap))
    return math.log(apbp * ab / (apb * abp))
