import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagwalk.boundary import limit_form, limit_vector
from flagwalk.cocycles import (AlphaCocycle, CircleSection, DiagSignValue,
                               alpha_cocycle, cocycle_identity_residual,
                               cone_section,
                               conjugate_cocycle, cross_ratio,
                               iwasawa_cocycle, morphism_cocycle,
                               plain_section, sigma_chi, sign_cocycle,
                               unit_vector)
from flagwalk.errors import DecompositionError, PreconditionError
from flagwalk.examples import default_measure
from flagwalk.group_core import standard_rep, sym_power, sym_rep

rng = np.random.default_rng(7)


def random_sl2():
    while True:
        m = rng.normal(size=(2, 2))
        d = np.linalg.det(m)
        if abs(d) > 1e-2:
            return m / math.sqrt(abs(d))


# ---------------------------------------------------------------- sections


def test_plain_section_lifts_upper_half():
    sec = plain_section()
    for _ in range(50):
        u = unit_vector(rng.normal(size=2))
        lift = sec.lift(u)
        assert lift[1] > 0 or (lift[1] == 0 and lift[0] > 0)
        assert sec.sign_of(lift) == 1
        assert sec.sign_of(-lift) == -1


def test_cone_section_points_at_reference():
    sec = cone_section((1.0, 1.0))
    for _ in range(50):
        u = unit_vector(rng.normal(size=2))
        lift = sec.lift(u)
        assert lift @ np.array(sec.ref) >= 0


def test_cone_section_tie_break_antisymmetric():
    sec = cone_section((1.0, 0.0))
    u = np.array([0.0, 1.0])
    assert np.allclose(sec.lift(u), sec.lift(-u))


# the section rule as it was first written: normalize, then pick the lift
# of the unit vector; sign_of and sign_cocycle go through the lift


def _ref_unit(xi):
    u = np.asarray(xi, dtype=float).reshape(2)
    return u / float(np.hypot(u[0], u[1]))


def _ref_lift(sec, xi):
    u = _ref_unit(xi)
    if sec.mode == "plain":
        return -u if u[1] < 0.0 or (u[1] == 0.0 and u[0] < 0.0) else u
    r0, r1 = sec.ref
    d = u[0] * r0 + u[1] * r1
    if d != 0.0:
        return u if d > 0.0 else -u
    c = u[0] * (-r1) + u[1] * r0
    return u if c > 0.0 else -u


def _ref_sign_of(sec, u):
    return 1 if float(np.dot(_ref_lift(sec, u), u)) > 0.0 else -1


def _ref_sign_cocycle(g, eta, sec):
    u = _ref_unit(eta)
    gu = g @ u
    return _ref_sign_of(sec, u) * _ref_sign_of(sec, gu / np.linalg.norm(gu))


SECTIONS = [plain_section(), cone_section((1.0, 1.0)),
            cone_section((1.0, 0.0)), cone_section((0.0, 1.0)),
            cone_section((-0.3, 2.0))]


def _tie_vectors():
    # y = 0 with x of either sign (and y = -0.0), a zero dot product with the
    # refs (1, 0), (0, 1) and (1, 1), and the tie-break's own ties
    out = []
    for t in (1.0, 2.0 ** -30, 3.7, 1e5):
        out += [(t, 0.0), (-t, 0.0), (t, -0.0), (-t, -0.0),
                (0.0, t), (0.0, -t), (t, -t), (-t, t), (t, t), (-t, -t)]
    return [np.array(v) for v in out]


@pytest.mark.parametrize("sec", SECTIONS)
def test_section_rule_matches_reference(sec):
    r = np.random.default_rng(11)
    vs = list(r.normal(size=(10000, 2)))
    scales = np.exp(r.uniform(-20.0, 20.0, size=len(vs)))
    vs += [v * s for v, s in zip(vs, scales)] + _tie_vectors()
    for v in vs:
        assert np.array_equal(sec.lift(v), _ref_lift(sec, v))
        assert sec.sign_of(v) == _ref_sign_of(sec, v)


@pytest.mark.parametrize("sec", SECTIONS)
def test_sign_cocycle_matches_reference(sec):
    r = np.random.default_rng(12)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    # exact matrices that map the tie vectors to tie vectors
    exact = [np.eye(2), -np.eye(2), quarter, quarter.T, np.diag([2.0, 0.5]),
             np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    cases = [(g, _tie_vectors()) for g in exact]
    for _ in range(2000):
        etas = [r.normal(size=2) for _ in range(5)]
        cases.append((random_sl2(),
                      etas + [e * s for e in etas for s in (1e-6, 3.0, 1e6)]))
    for g, etas in cases:
        for eta in etas:
            assert sign_cocycle(g, eta, sec) == _ref_sign_cocycle(g, eta, sec)


def test_section_rejects_zero_non_finite_and_unknown_mode():
    sec = plain_section()
    for v in ((0.0, 0.0), (math.nan, 0.0), (math.inf, 1.0), (1.5e308, 1.5e308)):
        with pytest.raises(PreconditionError):
            sec.lift(v)
        with pytest.raises(PreconditionError):
            sec.sign_of(v)
        with pytest.raises(PreconditionError):
            unit_vector(v)
        with pytest.raises(PreconditionError):
            sign_cocycle(np.eye(2), v, sec)
    with pytest.raises(PreconditionError):
        CircleSection("spiral").lift((1.0, 0.0))


# ---------------------------------------------------------------- values


def test_diag_sign_group_law():
    a = DiagSignValue(0.3, -1)
    b = DiagSignValue(-1.1, -1)
    c = a * b
    assert c.r == pytest.approx(-0.8) and c.sign == 1
    assert np.allclose(a.matrix() @ b.matrix(), c.matrix())
    assert np.allclose((a * a.inverse()).matrix(), np.eye(2))


def test_diag_matrix_normalization():
    # value r acts as diag(e^{r/2}, e^{-r/2})
    m = DiagSignValue(2.0, 1).matrix()
    assert m[0, 0] == pytest.approx(math.e)


# ---------------------------------------------------------------- scalars


def test_iwasawa_cocycle_is_log_norm():
    for _ in range(200):
        g = random_sl2()
        u = unit_vector(rng.normal(size=2))
        assert iwasawa_cocycle(g, u) == pytest.approx(
            math.log(np.linalg.norm(g @ u)), abs=1e-12)


def test_iwasawa_cocycle_equals_log_hypot():
    r = np.random.default_rng(13)
    for _ in range(10000):
        h = random_sl2()
        xi = r.normal(size=2)
        u = unit_vector(xi)
        assert abs(iwasawa_cocycle(h, xi)
                   - math.log(math.hypot(*(h @ u)))) <= 1e-15


def test_alpha_cocycle_is_sigma_and_sign():
    for sec in SECTIONS:
        for _ in range(200):
            g, eta = random_sl2(), rng.normal(size=2)
            assert alpha_cocycle(g, eta, sec) == DiagSignValue(
                iwasawa_cocycle(g, eta), sign_cocycle(g, eta, sec))


def test_iwasawa_cocycle_rejects_as_decomposition():
    with pytest.raises(PreconditionError):
        iwasawa_cocycle(2.0 * np.eye(2), (1.0, 0.0))
    with pytest.raises(DecompositionError):
        iwasawa_cocycle(np.diag([1e7, 1e-7]), (1.0, 0.0))
    with pytest.raises(PreconditionError):
        iwasawa_cocycle(np.eye(2), (0.0, 0.0))
    with pytest.raises(PreconditionError):
        iwasawa_cocycle(np.eye(3), (1.0, 0.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(PreconditionError):
            iwasawa_cocycle(np.array([[bad, 0.0], [0.0, 1.0]]), (1.0, 0.0))
        with pytest.raises(PreconditionError):
            iwasawa_cocycle(np.eye(2), (bad, 0.0))


def test_iwasawa_cocycle_diagonal():
    t = 1.7
    assert iwasawa_cocycle(np.diag([math.exp(t), math.exp(-t)]), (1.0, 0.0)) \
        == pytest.approx(t)


def test_sigma_chi_standard_matches_iwasawa():
    for _ in range(200):
        g = random_sl2()
        u = rng.normal(size=2)
        assert abs(sigma_chi(g, u, standard_rep()) - iwasawa_cocycle(g, u)) \
            <= 1e-10


def test_sigma_chi_sym_scales_weight():
    # on diagonal elements, sym_n multiplies the highest weight by n-1
    t = 0.9
    d = np.diag([math.exp(t / 2), math.exp(-t / 2)])
    for n in (3, 4, 5):
        assert sigma_chi(d, (1.0, 0.0), sym_rep(n)) \
            == pytest.approx((n - 1) * t / 2, abs=1e-12)


def test_sign_cocycle_values():
    sec = plain_section()
    rot = lambda a: np.array([[math.cos(a), -math.sin(a)],
                              [math.sin(a), math.cos(a)]])
    # small rotation keeps the lift in the upper half circle
    assert sign_cocycle(rot(0.3), (1.0, 0.2), sec) == 1
    # rotation pushing the lift across the cut flips the sign
    assert sign_cocycle(rot(1.6), (-0.2, 1.0), sec) == -1


def test_alpha_cocycle_identity_all_kinds():
    handles = [
        AlphaCocycle(plain_section()),
        AlphaCocycle(cone_section((1.0, 1.0))),
        morphism_cocycle(lambda g: sym_power(g, 3)),
        morphism_cocycle(lambda g: g, sec=plain_section()),
        conjugate_cocycle(morphism_cocycle(lambda g: g),
                          lambda u: np.eye(2) + 0.2 * np.outer(u, u)),
        morphism_cocycle(None, dim=2, trivial=True),
    ]
    for handle in handles:
        for _ in range(100):
            g1, g2 = random_sl2(), random_sl2()
            eta = rng.normal(size=2)
            assert cocycle_identity_residual(handle, g1, g2, eta) <= 1e-9


def test_alpha_value_matrix_consistency():
    h = AlphaCocycle(plain_section())
    g = random_sl2()
    eta = unit_vector(rng.normal(size=2))
    v = h(g, eta)
    assert np.allclose(h.value_matrix(g, eta), v.matrix())


def test_zero_boundary_point_rejected():
    with pytest.raises(PreconditionError):
        alpha_cocycle(np.eye(2), (0.0, 0.0), plain_section())


# ---------------------------------------------------------------- cross-ratio


def _form_limit(a, ap, b, bp, n=300):
    vb, vbp = limit_vector(b, n), limit_vector(bp, n)
    pa, pap = limit_form(a, n), limit_form(ap, n)
    return math.log(abs(pap @ vbp) * abs(pa @ vb)
                    / (abs(pap @ vb) * abs(pa @ vbp)))


def test_cross_ratio_degenerate_cases_exact_zero():
    mats = default_measure().matrices
    a, ap = [mats[0]], [mats[1]]
    b, bp = [mats[0], mats[1]], [mats[1], mats[0]]
    assert cross_ratio(a, ap, b, b) == 0.0
    assert cross_ratio(a, a, b, bp, n=50, m=50) == 0.0


def test_cross_ratio_converges_to_form_limit():
    mats = default_measure().matrices
    for _ in range(20):
        words = []
        for size in rng.integers(2, 7, size=4):
            words.append([mats[i] for i in rng.integers(0, 2, size=size)])
        a, ap, b, bp = words
        if all(np.array_equal(x, y) for x, y in zip(b, bp)) \
                and len(b) == len(bp):
            continue
        cr = cross_ratio(a, ap, b, bp, n=60, m=60, past_len=60)
        assert cr == pytest.approx(_form_limit(a, ap, b, bp), abs=1e-2)


def test_cross_ratio_match_threshold():
    mats = default_measure().matrices
    a, ap = [mats[0]], [mats[1]]
    b, bp = [mats[0], mats[0]], [mats[1], mats[1]]
    v1 = cross_ratio(a, ap, b, bp, match_threshold=50.0)
    v2 = _form_limit(a, ap, b, bp)
    # matched stopping times change n, m but not the limit value by much
    assert v1 == pytest.approx(v2, abs=2e-2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cocycle_identity_property(seed):
    r = np.random.default_rng(seed)
    m1, m2 = r.normal(size=(2, 2)), r.normal(size=(2, 2))
    if abs(np.linalg.det(m1)) < 1e-2 or abs(np.linalg.det(m2)) < 1e-2:
        return
    m1 /= math.sqrt(abs(np.linalg.det(m1)))
    m2 /= math.sqrt(abs(np.linalg.det(m2)))
    eta = r.normal(size=2)
    if np.linalg.norm(eta) < 1e-3:
        return
    h = AlphaCocycle(plain_section())
    assert cocycle_identity_residual(h, m1, m2, eta) <= 1e-9
