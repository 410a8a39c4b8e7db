import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagwalk.boundary import _word_product, limit_form, limit_vector
from flagwalk.cocycles import (AlphaCocycle, CircleSection, CocycleHandle,
                               DiagSignValue,
                               alpha_cocycle, arc_midpoint, arc_section,
                               cocycle_identity_residual, cone_section,
                               conjugate_cocycle, cross_ratio,
                               iwasawa_cocycle, morphism_cocycle,
                               plain_section, sigma_chi, sign_cocycle,
                               unit_vector)
from flagwalk.errors import DecompositionError, PreconditionError
from flagwalk.examples import default_measure
from flagwalk.group_core import _unit_xy, iwasawa_decompose, standard_rep, \
    sym_power, sym_rep, unimodular_entries

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
    for v in ((0.0, 0.0), (math.nan, 0.0), (math.nan, 1.0), (math.inf, 1.0),
              (1.5e308, 1.5e308), (1.0, 2.0, 3.0), (1.0,), ()):
        with pytest.raises(PreconditionError):
            sec.lift(v)
        with pytest.raises(PreconditionError):
            sec.sign_of(v)
        with pytest.raises(PreconditionError):
            unit_vector(v)
        with pytest.raises(PreconditionError):
            cone_section(v)
        # the section's ref is checked when it is built, not at first use
        with pytest.raises(PreconditionError, match="section ref"):
            CircleSection("cone-half-circle", v)
        for cocycle in (sign_cocycle, alpha_cocycle):
            with pytest.raises(PreconditionError):
                cocycle(np.eye(2), v, sec)
        with pytest.raises(PreconditionError):
            iwasawa_cocycle(np.eye(2), v)
    with pytest.raises(PreconditionError):
        CircleSection("spiral").lift((1.0, 0.0))
    # an unknown mode is refused when the section is built, not at first use
    with pytest.raises(PreconditionError, match="section mode 'bogus'"):
        CircleSection("bogus")


def test_section_ref_is_one_unit_xy_normalisation():
    # a normalised ref is not normalised again: the walk and equidist starts
    # read it, and keep their bits only if it is normalised exactly once
    r_rng = np.random.default_rng(29)
    for r in [r_rng.normal(size=2) * 10.0 ** k for k in range(-3, 4)
              for _ in range(30)]:
        assert cone_section(r).ref == _unit_xy(r, "r")
        assert CircleSection("cone-half-circle", r).ref == _unit_xy(r, "r")
        arc = (float(r[0]), abs(float(r[1])) % 3.0)
        mid = arc[0] + arc[1] / 2.0
        assert arc_section(arc).ref == _unit_xy((math.cos(mid), math.sin(mid)),
                                                "mid")


@pytest.mark.parametrize("arc", [
    None, (0.27112843531180403, 0.15130107948000315), (6.195, 1.2),
    (-2.5, 0.4)])
def test_arc_midpoint_is_normalised_once_to_the_section_ref(arc):
    # the default start of the walk and equidist experiments is the raw
    # midpoint; BundlePoint's one normalisation reads the section's ref
    assert tuple(unit_vector(arc_midpoint(arc)).tolist()) == \
        arc_section(arc).ref


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


def test_sigma_chi_rejects_as_iwasawa_cocycle():
    inf_h = np.array([[math.inf, 0.0], [0.0, 1.0]])
    nan_h = np.array([[math.nan, 0.0], [0.0, 1.0]])
    for h, rep in ((inf_h, standard_rep()), (nan_h, sym_rep(3)),
                   (np.diag([2.0, 1.0]), standard_rep()),
                   (np.diag([2.0, 1.0]), sym_rep(3)), (np.eye(3), sym_rep(3))):
        with pytest.raises(PreconditionError):
            sigma_chi(h, (1.0, 0.0), rep)
    with pytest.raises(DecompositionError):
        sigma_chi(np.diag([1e7, 1e-7]), (1.0, 0.0), sym_rep(3))


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


def _phi(u):
    return np.eye(2) + 0.2 * np.outer(u, u)


def _six_handles():
    """One handle of each kind criterion 02 checks."""
    return [
        AlphaCocycle(plain_section()),
        AlphaCocycle(cone_section((1.0, 1.0))),
        morphism_cocycle(lambda g: sym_power(g, 3)),
        morphism_cocycle(lambda g: g, sec=plain_section()),
        conjugate_cocycle(morphism_cocycle(lambda g: g), _phi),
        morphism_cocycle(None, dim=2, trivial=True),
    ]


def test_alpha_cocycle_identity_all_kinds():
    for handle in _six_handles():
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


# the handles as they were first written: a sandwich of rotation matrices,
# an np.linalg.inv conjugation and a fresh identity per call


def _ref_rotation_to(u):
    return np.array([[u[0], -u[1]], [u[1], u[0]]])


def _ref_section_value(rho, sec, g, eta):
    u = sec.lift(eta)
    gu = sec.lift(g @ u)
    return rho(_ref_rotation_to(gu).T @ g @ _ref_rotation_to(u))


def _ref_conjugated_value(base, phi, g, eta):
    u = unit_vector(eta)
    gu = unit_vector(g @ u)
    return np.linalg.inv(phi(gu)) @ base.value_matrix(g, eta) @ phi(u)


def test_handles_match_reference_definitions():
    r = np.random.default_rng(14)
    sym3 = lambda g: sym_power(g, 3)
    cases = []
    for sec in (plain_section(), cone_section((1.0, 1.0)),
                cone_section((-0.3, 2.0))):
        for rho in (lambda g: g, sym3):
            cases.append((morphism_cocycle(rho, sec=sec),
                          lambda g, eta, rho=rho, sec=sec:
                          _ref_section_value(rho, sec, g, eta)))
    for base in (morphism_cocycle(lambda g: g),
                 AlphaCocycle(cone_section((1.0, 1.0)))):
        cases.append((conjugate_cocycle(base, _phi),
                      lambda g, eta, base=base:
                      _ref_conjugated_value(base, _phi, g, eta)))
    cases.append((morphism_cocycle(sym3), lambda g, eta: sym3(g)))
    cases.append((morphism_cocycle(None, dim=3, trivial=True),
                  lambda g, eta: np.eye(3)))
    dets = set()
    for _ in range(10000):
        g = random_sl2()
        eta = r.normal(size=2)
        dets.add(round(np.linalg.det(g)))
        for handle, ref in cases:
            want = ref(g, eta)
            got = handle(g, eta)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert dets == {1, -1}


def test_section_morphism_value_is_upper_triangular():
    r = np.random.default_rng(15)
    for sec in (plain_section(), cone_section((1.0, 1.0))):
        handle = morphism_cocycle(lambda g: g, sec=sec)
        for _ in range(2000):
            g = random_sl2()
            p = handle(g, r.normal(size=2))
            assert p[1, 0] == 0.0
            assert abs(p[0, 0] * p[1, 1] - np.linalg.det(g)) <= 1e-12 \
                * max(1.0, abs(p[0, 0] * p[1, 1]))


def test_trivial_handle_returns_one_read_only_identity():
    handle = morphism_cocycle(None, dim=2, trivial=True)
    a = handle(random_sl2(), (1.0, 0.0))
    assert a is handle(random_sl2(), (0.0, 1.0))
    assert np.array_equal(a, np.eye(2))
    with pytest.raises(ValueError):
        a[0, 0] = 2.0


def test_handles_reject_bad_input_with_precondition_error():
    sec_handle = morphism_cocycle(lambda g: g, sec=plain_section())
    with pytest.raises(PreconditionError, match="2x2"):
        sec_handle(np.eye(3), (1.0, 0.0))
    for phi in (lambda u: np.outer(u, u), lambda u: np.ones((2, 2)),
                lambda u: np.zeros((2, 2))):
        with pytest.raises(PreconditionError, match="singular"):
            conjugate_cocycle(morphism_cocycle(lambda g: g), phi)(
                random_sl2(), (0.6, 0.8))
    for phi in (lambda u: np.eye(3), lambda u: np.full((2, 2), math.nan)):
        with pytest.raises(PreconditionError, match="phi"):
            conjugate_cocycle(morphism_cocycle(lambda g: g), phi)(
                random_sl2(), (1.0, 0.0))


@pytest.mark.parametrize("rho", [None, 3, np.eye(2)],
                         ids=["none", "int", "array"])
@pytest.mark.parametrize("sec", [None, plain_section()],
                         ids=["plain", "section"])
def test_morphism_cocycle_refuses_a_rho_it_cannot_call(rho, sec):
    with pytest.raises(PreconditionError, match="rho must be callable"):
        morphism_cocycle(rho, sec=sec)


class _Constant(CocycleHandle):
    """A handle with one value for every (g, eta)."""

    def __init__(self, value):
        self.value = value

    def __call__(self, g, eta):
        return self.value


def test_residual_of_non_finite_values_is_inf():
    g1, g2 = random_sl2(), random_sl2()
    values = [DiagSignValue(math.nan), DiagSignValue(math.inf),
              DiagSignValue(-math.inf, -1),
              np.full((2, 2), math.nan), np.full((3, 3), math.inf)]
    for k in range(4):
        m = np.eye(2)
        m.flat[k] = math.nan
        values.append(m)
    for value in values:
        assert cocycle_identity_residual(_Constant(value), g1, g2,
                                         (1.0, 0.5)) == math.inf


@pytest.mark.parametrize("g1, g2, match", [
    (np.eye(3), np.eye(2), r"^g1 must be 2x2, got shape \(3, 3\)"),
    ([[1.0, 0.0], [0.0]], np.eye(2), "^g1 is not an array of numbers"),
    (np.eye(2), [[1.0, 0.0], [0.0]], "not an array of numbers"),
    (np.eye(2), "ab", "not an array of numbers"),
], ids=["3x3-g1", "ragged-g1", "ragged-g2", "string-g2"])
@pytest.mark.parametrize("handle", [
    AlphaCocycle(plain_section()), morphism_cocycle(lambda g: g)],
    ids=["alpha", "morphism"])
def test_residual_refuses_matrices_it_cannot_multiply(handle, g1, g2, match):
    # a 3x3 g1 ended in numpy's matmul ValueError, a ragged g1 or g2 in
    # "setting an array element with a sequence"
    with pytest.raises(PreconditionError, match=match):
        cocycle_identity_residual(handle, g1, g2, (1.0, 0.5))


@pytest.mark.parametrize("g", [[[1.0, 0.0], [0.0]], "ab", [[1.0, "x"],
                                                          [0.0, 1.0]]],
                         ids=["ragged", "string", "string-entry"])
@pytest.mark.parametrize("call", [
    unimodular_entries, iwasawa_decompose,
    lambda g: iwasawa_cocycle(g, (1.0, 0.0))],
    ids=["unimodular_entries", "iwasawa_decompose", "iwasawa_cocycle"])
def test_kan_readers_refuse_input_numpy_cannot_read(call, g):
    with pytest.raises(PreconditionError, match="^g is not an array of "):
        call(g)


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


def test_cross_ratio_sees_one_periodic_word_written_twice():
    # [A, B] and [A, B, A, B] are one periodic word, so both pairs are the
    # exact-zero case, not the near-parallel warning
    A, B = default_measure().matrices
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cross_ratio([A], [B], [A, B], [A, B, A, B]) == 0.0
        assert cross_ratio([A, A], [A], [A], [B], n=50, m=50) == 0.0


@pytest.mark.parametrize("call", [
    lambda A, B: _word_product([], 5),
    lambda A, B: limit_vector([], 5),
    lambda A, B: limit_form([], 5),
    lambda A, B: cross_ratio([A], [B], [], [A]),
], ids=["word_product", "limit_vector", "limit_form", "cross_ratio"])
def test_empty_words_are_refused(call):
    with pytest.raises(PreconditionError, match="at least one letter"):
        call(*default_measure().matrices)


@pytest.mark.parametrize("letter", [
    lambda g: sym_power(g, 3), lambda g: np.hstack((g, g[:, :1]))],
    ids=["3x3", "2x3"])
@pytest.mark.parametrize("call", [
    lambda A, B: _word_product([A, B], 5),
    lambda A, B: limit_vector([A, B], 5),
    lambda A, B: limit_form([A, B], 5),
    lambda A, B: cross_ratio([A], [B], [A, B], [B]),
], ids=["word_product", "limit_vector", "limit_form", "cross_ratio"])
def test_words_of_letters_other_than_2x2_are_refused(call, letter):
    # H = SL_2(R) acts on R^2, so every word is 2x2: a letter of any other
    # shape is refused by name, not multiplied out by a second loop
    A, B = (letter(g) for g in default_measure().matrices)
    with pytest.raises(PreconditionError, match=r"must be 2x2, got shape \("):
        call(A, B)


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


def test_cross_ratio_matches_the_form_limit_to_rounding():
    # criterion 09's 50 quads: each product's scale cancels exactly, so the
    # value carries the rounding of one renormalised product (four log-sums
    # of size n lambda ~ 55 left about 2e-14)
    r = np.random.default_rng(109)
    mats = default_measure().matrices
    worst, done = 0.0, 0
    while done < 50:
        a, ap, b, bp = ([mats[i] for i in r.integers(0, 2, size=size)]
                        for size in r.integers(2, 7, size=4))
        if len(b) == len(bp) and all(np.array_equal(x, y)
                                     for x, y in zip(b, bp)):
            continue
        cr = cross_ratio(a, ap, b, bp, n=60, m=60, past_len=60)
        worst = max(worst, abs(cr - _form_limit(a, ap, b, bp)))
        done += 1
    assert worst <= 5e-15


def test_cross_ratio_match_threshold():
    mats = default_measure().matrices
    a, ap = [mats[0]], [mats[1]]
    b, bp = [mats[0], mats[0]], [mats[1], mats[1]]
    v1 = cross_ratio(a, ap, b, bp, match_threshold=50.0)
    v2 = _form_limit(a, ap, b, bp)
    # matched stopping times change n, m but not the limit value by much
    assert v1 == pytest.approx(v2, abs=2e-2)
    # nor, past the collapse to rank one, by more than rounding
    values = [cross_ratio(a, ap, b, bp, match_threshold=t)
              for t in (20.0, 30.0, 50.0, 100.0)]
    assert max(values) - min(values) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1.0, -1.0]),
       st.sampled_from([1.0, -1.0]))
def test_cocycle_identity_property(seed, det1, det2):
    # every handle kind accepts det +1 and det -1 matrices
    r = np.random.default_rng(seed)
    m1, m2 = r.normal(size=(2, 2)), r.normal(size=(2, 2))
    if abs(np.linalg.det(m1)) < 1e-2 or abs(np.linalg.det(m2)) < 1e-2:
        return
    for m, det in ((m1, det1), (m2, det2)):
        if np.sign(np.linalg.det(m)) != det:
            m[0] *= -1.0
        m /= math.sqrt(abs(np.linalg.det(m)))
    eta = r.normal(size=2)
    if np.linalg.norm(eta) < 1e-3:
        return
    for h in _six_handles():
        assert cocycle_identity_residual(h, m1, m2, eta) <= 1e-9
