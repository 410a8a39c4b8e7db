"""Cocycles over the circle / projective line.

The additive Iwasawa cocycle, its highest-weight evaluation, the sign cocycle
built from a circle section, the combined D±-valued cocycle, morphism-type and
conjugated cocycle handles, and the drift cross-ratio.

Normalization.  The diagonal group D is parametrized so that the additive
cocycle equals log ||g u|| for a unit lift u of the boundary point; the fibre
action of the value r is the matrix diag(e^{r/2}, e^{-r/2}) (see the fiber
module).  This is the one scaling under which the cocycle drift equals the
Lyapunov exponent lambda = lim (1/n) log ||g_1 ... g_n||, so walk time n and
flow time t = lambda * n line up without spurious factors of two.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .fiber import diag_matrix
from .group_core import as_matrix, unimodular_entries
# iwasawa_decompose is unused here but stays importable: perfbench/spans.py
# traces it at this name
from .group_core import iwasawa_decompose  # noqa: F401

# --------------------------------------------------------------------------
# circle points and sections


def _unit_xy(xi):
    """The unit vector of a circle/projective point as two Python floats.

    A zero, non-finite or overflowing vector raises PreconditionError.  The
    norm is numpy's hypot, not math.hypot, which rounds differently about
    once in 170 vectors: walk starts are normalized here, and reports stay
    byte-identical only if their bits do.
    """
    x, y = np.asarray(xi, dtype=float).reshape(2).tolist()
    nrm = float(np.hypot(x, y))
    if not 0.0 < nrm < math.inf:
        raise PreconditionError("boundary point must be a nonzero finite vector")
    return x / nrm, y / nrm


def unit_vector(xi):
    """Normalize a 2-vector representing a circle/projective point."""
    return np.array(_unit_xy(xi))


def rotation_to(u):
    """The rotation matrix sending e1 to the unit vector u."""
    return np.array([[u[0], -u[1]], [u[1], u[0]]])


@dataclass(frozen=True)
class CircleSection:
    """A Borel section of the double cover: a rule picking one of ±u.

    mode "plain" lifts into the closed upper half circle.  mode
    "cone-half-circle" lifts into the closed half circle around the reference
    direction `ref`, which should point into the invariant cone / limit set
    when one exists.  Both are one scale-invariant rule on a nonzero vector
    (side), which lift, sign_of and sign_cocycle all use.
    """

    mode: str = "plain"
    ref: tuple = (1.0, 0.0)

    def side(self, x, y):
        """+1 if the section picks the nonzero vector (x, y) over -(x, y),
        else -1; positive rescalings of (x, y) get the same answer."""
        if self.mode == "plain":
            # the closed upper half circle, cut below the negative x-axis
            return -1 if y < 0.0 or (y == 0.0 and x < 0.0) else 1
        if self.mode == "cone-half-circle":
            r0, r1 = self.ref
            d = x * r0 + y * r1
            if d == 0.0:
                # antisymmetric tie-break on the boundary of the half circle
                d = y * r0 - x * r1
            return 1 if d > 0.0 else -1
        raise PreconditionError(f"unknown section mode {self.mode!r}")

    def lift(self, xi):
        """The section's unit lift of the boundary point xi."""
        x, y = _unit_xy(xi)
        s = self.side(x, y)
        return np.array((s * x, s * y))

    def sign_of(self, u):
        """+1 if the section lifts u to u/||u||, -1 if to -u/||u||."""
        return self.side(*_unit_xy(u))


def plain_section():
    return CircleSection("plain")


def cone_section(ref):
    return CircleSection("cone-half-circle", _unit_xy(ref))


def arc_section(arc):
    """The section of a boundary analysis: the cone half-circle around the
    midpoint of the invariant arc (start, length), or the plain section when
    there is no arc (None).  Its ref, the arc's midpoint when there is one,
    is the default start point of the walk and equidist experiments."""
    if arc is None:
        return plain_section()
    mid = arc[0] + arc[1] / 2.0
    return cone_section((math.cos(mid), math.sin(mid)))


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
    x, y = _unit_xy(xi)
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
    rep; for the standard representation this coincides with iwasawa_cocycle.
    """
    v = rep.lift(unit_vector(xi))
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise PreconditionError("zero highest-weight lift")
    w = rep.apply(h) @ v
    return float(np.log(np.linalg.norm(w) / nv))


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
    def __init__(self, section=None):
        self.section = section if section is not None else plain_section()

    def __call__(self, g, eta):
        return alpha_cocycle(g, eta, self.section)


class MorphismCocycle(CocycleHandle):
    """alpha(g, .) = rho(g), independent of the boundary point."""

    def __init__(self, rho, dim, trivial=False):
        self.rho = rho
        self.dim = dim
        self.trivial = trivial

    def __call__(self, g, eta):
        if self.trivial:
            return np.eye(self.dim)
        return self.rho(g)


class SectionMorphismCocycle(CocycleHandle):
    """The P-valued cocycle rho(s(g eta)^{-1} g s(eta)) from a section."""

    def __init__(self, rho, section):
        self.rho = rho
        self.section = section

    def __call__(self, g, eta):
        u = self.section.lift(eta)
        m = as_matrix(g)
        gu = self.section.lift(m @ u)
        p = rotation_to(gu).T @ m @ rotation_to(u)
        return self.rho(p)


class ConjugatedCocycle(CocycleHandle):
    """alpha'(g, x) = phi(g x)^{-1} alpha(g, x) phi(x)."""

    def __init__(self, base, phi):
        self.base = base
        self.phi = phi

    def __call__(self, g, eta):
        u = unit_vector(eta)
        gu = unit_vector(as_matrix(g) @ u)
        mid = self.base.value_matrix(g, eta)
        return np.linalg.inv(np.asarray(self.phi(gu), dtype=float)) @ mid \
            @ np.asarray(self.phi(u), dtype=float)


def morphism_cocycle(rho, sec=None, dim=None, trivial=False):
    """Build a morphism-type handle.

    With sec=None the handle is the genuine morphism cocycle alpha(g,.) =
    rho(g) (the decomposable case); with a section it is the P-valued
    sandwich rho(s(g eta)^{-1} g s(eta)).  trivial=True gives the constant
    identity cocycle of the trivial-fibre-action case.
    """
    if trivial:
        return MorphismCocycle(None, dim if dim is not None else 2, trivial=True)
    if sec is not None:
        return SectionMorphismCocycle(rho, sec)
    if dim is None:
        dim = np.asarray(rho(np.eye(2))).shape[0]
    return MorphismCocycle(rho, dim)


def conjugate_cocycle(alpha, phi):
    return ConjugatedCocycle(alpha, phi)


def cocycle_identity_residual(handle, g1, g2, eta):
    """Group-law residual alpha(g1 g2, eta) vs alpha(g1, g2 eta) alpha(g2, eta)."""
    m1, m2 = as_matrix(g1), as_matrix(g2)
    u = unit_vector(eta)
    lhs = handle(m1 @ m2, u)
    v2 = handle(m2, u)
    v1 = handle(m1, unit_vector(m2 @ u))
    if isinstance(lhs, DiagSignValue):
        prod = v1 * v2
        return abs(lhs.r - prod.r) + (0.0 if lhs.sign == prod.sign else 1.0)
    prod = np.asarray(v1) @ np.asarray(v2)
    lhs = np.asarray(lhs)
    scale = max(1.0, float(np.max(np.abs(prod))))
    return min(np.max(np.abs(lhs - prod)), np.max(np.abs(lhs + prod))) / scale


# --------------------------------------------------------------------------
# the drift cross-ratio


def _word_matrix(word, i):
    m = word[i % len(word)]
    return as_matrix(m)


def _log_norm_applied(word, steps, v):
    """log ||w_{steps} ... w_1 v|| for a unit vector v, renormalizing each step."""
    x = np.array(v, dtype=float)
    acc = 0.0
    for i in range(steps):
        x = _word_matrix(word, i) @ x
        nrm = float(np.linalg.norm(x))
        acc += math.log(nrm)
        x /= nrm
    return acc


def _steps_to_threshold(word, threshold, cap=10000):
    """Number of steps until the accumulated log sup-norm of the matrix
    product first exceeds the threshold."""
    p = np.eye(2)
    acc = 0.0
    for i in range(cap):
        p = _word_matrix(word, i) @ p
        nrm = float(np.max(np.abs(p)))
        acc += math.log(nrm)
        p /= nrm
        if acc >= threshold:
            return i + 1
    return cap


def _words_equal(w1, w2):
    return len(w1) == len(w2) and all(
        np.array_equal(as_matrix(a), as_matrix(b)) for a, b in zip(w1, w2))


def cross_ratio(a, a_prime, b, b_prime, n=60, m=60, past_len=60,
                match_threshold=None):
    """The drift cross-ratio of two futures (a, a') against two pasts (b, b').

    Evaluates log( ||A' v_{b'}|| ||A v_b|| / (||A' v_b|| ||A v_{b'}||) ) with
    A the n-step product over the word a and A' the m-step product over a',
    in log-renormalized arithmetic; v_b, v_{b'} are the limit vectors of the
    past words.  Converges to the limit-form expression
    log( |phi_{a'}(v_{b'})| |phi_a(v_b)| / (|phi_{a'}(v_b)| |phi_a(v_{b'})|) ).

    With match_threshold set, n and m are instead chosen as the first step at
    which each product's accumulated log-norm exceeds the threshold, so the
    two products have comparable top singular values.
    """
    from .boundary import limit_vector

    if _words_equal(b, b_prime):
        return 0.0
    if match_threshold is not None:
        n = _steps_to_threshold(a, match_threshold)
        m = _steps_to_threshold(a_prime, match_threshold)
    if _words_equal(a, a_prime) and n == m:
        return 0.0
    vb = limit_vector(b, past_len)
    vbp = limit_vector(b_prime, past_len)
    if abs(float(vb @ vbp)) > 1.0 - 1e-12:
        warnings.warn("cross_ratio: limit vectors (near-)parallel, value is 0")
        return 0.0
    return ((_log_norm_applied(a_prime, m, vbp) + _log_norm_applied(a, n, vb))
            - (_log_norm_applied(a_prime, m, vb) + _log_norm_applied(a, n, vbp)))
