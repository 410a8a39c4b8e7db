import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagwalk.errors import DecompositionError, PreconditionError
from flagwalk.group_core import (Sl2Triple, bracket,
                                 extend_sl2_triple, highest_weight_lift,
                                 iwasawa_decompose, principal_triple,
                                 standard_rep, sym_power, sym_rep)

rng = np.random.default_rng(20260823)


def random_det_one(n):
    while True:
        m = rng.normal(size=(n, n))
        d = np.linalg.det(m)
        if abs(d) > 1e-3:
            if d < 0:
                m[0] = -m[0]
                d = -d
            return m / d ** (1.0 / n)


# ---------------------------------------------------------------- Iwasawa


def test_iwasawa_identity():
    fac = iwasawa_decompose(np.eye(3))
    assert np.allclose(fac.k, np.eye(3))
    assert np.allclose(fac.a, np.eye(3))
    assert np.allclose(fac.nu, np.eye(3))


def test_iwasawa_reconstruction_random():
    for n in (2, 3):
        for _ in range(300):
            g = random_det_one(n)
            fac = iwasawa_decompose(g)
            assert np.max(np.abs(fac.reconstruct() - g)) <= 1e-12
            # factor shapes
            assert np.allclose(fac.k @ fac.k.T, np.eye(n), atol=1e-12)
            assert np.allclose(fac.a, np.diag(np.diag(fac.a)))
            assert np.all(np.diag(fac.a) > 0)
            assert np.allclose(np.tril(fac.nu, -1), 0.0)
            assert np.allclose(np.diag(fac.nu), 1.0)


def test_iwasawa_rejects_non_unimodular():
    with pytest.raises(PreconditionError):
        iwasawa_decompose(2.0 * np.eye(2))


def test_iwasawa_rejects_ill_conditioned():
    t = 1e7
    with pytest.raises(DecompositionError):
        iwasawa_decompose(np.array([[t, 0.0], [0.0, 1.0 / t]]))


def _gram_schmidt_kan(g):
    """Reference KAN factors of a 2x2 g by plain Gram-Schmidt on its columns."""
    c1, c2 = g[:, 0], g[:, 1]
    r11 = math.sqrt(c1 @ c1)
    q1 = c1 / r11
    r12 = q1 @ c2
    v = c2 - r12 * q1
    r22 = math.sqrt(v @ v)
    return (np.column_stack([q1, v / r22]), np.diag([r11, r22]),
            np.array([[1.0, r12 / r11], [0.0, 1.0]]))


def _random_det(n, det):
    g = random_det_one(n)
    if det < 0:
        g[0] = -g[0]
    return g * (abs(det) ** (1.0 / n))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_iwasawa_2x2_closed_form_matches_gram_schmidt(sign):
    for _ in range(2000):
        g = _random_det(2, sign)
        fac = iwasawa_decompose(g)
        for mine, ref in zip((fac.k, fac.a, fac.nu), _gram_schmidt_kan(g)):
            assert np.max(np.abs(mine - ref)) <= 1e-12
        assert np.max(np.abs(fac.reconstruct() - g)) <= 1e-12
        assert np.all(np.diag(fac.a) > 0)
        # a rotation for det +1, a reflection for det -1
        assert abs(np.linalg.det(fac.k) - sign) <= 1e-12
        assert np.max(np.abs(fac.k.T @ fac.k - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("det", [1 + 5e-7, 1 - 5e-7, -1 - 5e-7, -1 + 5e-7])
def test_iwasawa_2x2_accepts_det_inside_tolerance(det):
    for _ in range(50):
        g = _random_det(2, det)
        fac = iwasawa_decompose(g)
        assert np.max(np.abs(fac.reconstruct() - g)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("det", [1 + 2e-6, 1 - 2e-6, -1 - 2e-6])
def test_iwasawa_rejects_det_outside_tolerance(n, det):
    with pytest.raises(PreconditionError):
        iwasawa_decompose(_random_det(n, det))


def test_iwasawa_2x2_condition_edge():
    for ratio, ok in ((1e12 * (1 - 1e-3), True), (1e12 * (1 + 1e-3), False)):
        s1 = math.sqrt(ratio)
        for g in (np.diag([s1, 1.0 / s1]), np.diag([1.0 / s1, s1]),
                  np.array([[0.0, -1.0 / s1], [s1, 0.0]])):
            if ok:
                iwasawa_decompose(g)
            else:
                with pytest.raises(DecompositionError):
                    iwasawa_decompose(g)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_iwasawa_rejects_non_finite(bad):
    # [[inf, 0], [0, 0]] went through the checks once: |nan - 1| > 1e-6 is
    # False
    with pytest.raises(PreconditionError):
        iwasawa_decompose(np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        iwasawa_decompose(np.array([[bad, 0.0], [0.0, 1.0]]))
    g = np.eye(3)
    g[1, 2] = bad
    with pytest.raises(PreconditionError):
        iwasawa_decompose(g)


def test_iwasawa_rejects_non_square():
    for g in (np.ones(4), np.ones((2, 3)), np.ones((2, 2, 2))):
        with pytest.raises(PreconditionError):
            iwasawa_decompose(g)


# ---------------------------------------------------------------- sym_power


def test_sym_power_dimensions_and_weights():
    t = 2.0
    d = sym_power(np.diag([t, 1.0 / t]), 4)
    assert np.allclose(d, np.diag([t ** 3, t, 1.0 / t, t ** -3]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_sym_power_homomorphism(n, seed):
    r = np.random.default_rng(seed)
    g = r.normal(size=(2, 2))
    h = r.normal(size=(2, 2))
    if abs(np.linalg.det(g)) < 1e-2 or abs(np.linalg.det(h)) < 1e-2:
        return
    lhs = sym_power(g @ h, n)
    rhs = sym_power(g, n) @ sym_power(h, n)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(lhs)))


def test_sym_power_standard_is_identity_map():
    g = random_det_one(2)
    assert np.allclose(sym_power(g, 2), g)


def test_highest_weight_lift_equivariance():
    # rho(g) maps the lift of a unit u to ||g u||^{n-1} times the lift of g u
    for n in (3, 4, 5):
        g = random_det_one(2)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        lhs = sym_power(g, n) @ highest_weight_lift(u, n)
        gu = g @ u
        rhs = np.linalg.norm(gu) ** (n - 1) * highest_weight_lift(gu, n)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_sym_rep_names():
    assert standard_rep().name == "standard"
    assert sym_rep(2).name == "standard"
    assert sym_rep(3).dim == 3


# ---------------------------------------------------------------- triples


def test_principal_triple_exact_integer_brackets():
    for m in range(2, 9):
        t = principal_triple(m)
        assert t.e.dtype == np.int64
        assert np.array_equal(bracket(t.x, t.e), 2 * t.e)
        assert np.array_equal(bracket(t.x, t.f), -2 * t.f)
        assert np.array_equal(bracket(t.e, t.f), t.x)


def test_principal_triple_shape():
    t = principal_triple(4)
    assert list(np.diag(t.x)) == [3, 1, -1, -3]
    assert list(np.diag(t.e, k=1)) == [1, 1, 1]
    assert list(np.diag(t.f, k=-1)) == [3, 4, 3]


def test_triple_validate():
    t = principal_triple(3)
    t2 = Sl2Triple(e=t.e, x=t.x, f=np.asarray(t.f) + 1)
    with pytest.raises(PreconditionError):
        t2.validate()


def test_extend_recovers_principal_f():
    for m in (2, 3, 5, 8):
        t = principal_triple(m)
        fbar, res = extend_sl2_triple(np.asarray(t.x, float),
                                      np.asarray(t.e, float))
        assert fbar is not None
        assert res <= 1e-10
        assert np.max(np.abs(fbar - t.f)) <= 1e-8


def _extension_oracle(xb, eb):
    """Independent least-squares oracle for the minimal joint residual of
    [xb, f] = -2 f, [eb, f] = xb (row-stacked vec, dense normal equations)."""
    n = xb.shape[0]
    rows = []
    rhs = []
    for i in range(n):
        for j in range(n):
            r1 = np.zeros((n, n))
            r2 = np.zeros((n, n))
            for k in range(n):
                for l in range(n):
                    # coefficient of f[k, l] in ([xb, f] + 2 f)[i, j]
                    c = 0.0
                    if k == i:
                        c += xb[i, i] * 0.0  # handled below via full sums
                    r1[k, l] = (xb[i, k] if l == j else 0.0) \
                        - (xb[l, j] if k == i else 0.0) \
                        + (2.0 if (k, l) == (i, j) else 0.0)
                    r2[k, l] = (eb[i, k] if l == j else 0.0) \
                        - (eb[l, j] if k == i else 0.0)
            rows.append(r1.ravel())
            rhs.append(0.0)
            rows.append(r2.ravel())
            rhs.append(xb[i, j])
    A = np.array(rows)
    b = np.array(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ sol - b))


# the obstructed 3x3 block pair of the canned non-decomposable example
OBSTRUCTED_X = np.diag([4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0])
OBSTRUCTED_E = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
# frozen regression value, first measured by _extension_oracle: sqrt(2/3)
OBSTRUCTED_RESIDUAL = 0.8164965809277260


def test_extension_failure_matches_oracle_and_frozen_value():
    oracle = _extension_oracle(OBSTRUCTED_X, OBSTRUCTED_E)
    fbar, res = extend_sl2_triple(OBSTRUCTED_X, OBSTRUCTED_E)
    assert fbar is None
    assert abs(res - oracle) <= 1e-9
    assert abs(res - OBSTRUCTED_RESIDUAL) <= 1e-9
    assert abs(res - math.sqrt(2.0 / 3.0)) <= 1e-9


def test_extend_rejects_bad_precondition():
    with pytest.raises(PreconditionError):
        extend_sl2_triple(np.diag([1.0, -1.0]),
                          np.array([[0.0, 0.0], [1.0, 0.0]]))
