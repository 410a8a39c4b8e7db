import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagwalk.errors import PreconditionError
from flagwalk.examples import closed_geodesic_point
from flagwalk.fiber import (HORIZON, MAX_PERIOD, LatticePoint, _canonicalize,
                            _gauss_sweeps, _orbit_components, act,
                            diag_action, diag_matrix, diag_orbit,
                            orbit_shortest, orbit_shortest_values, reduce,
                            reduce_batch, shortest_vector)
from flagwalk.cocycles import DiagSignValue

rng = np.random.default_rng(99)


def random_unimodular(k=2, steps=6, r=None):
    """Random element of GL_k(Z) as a product of elementary matrices."""
    r = r or rng
    m = np.eye(k)
    for _ in range(steps):
        i, j = r.integers(0, k, size=2)
        if i == j:
            continue
        e = np.eye(k)
        e[i, j] = r.integers(-3, 4)
        m = m @ e
    if r.random() < 0.5:
        m[:, 0] *= -1.0
    return m


def random_basis(k=2):
    while True:
        b = rng.normal(size=(k, k))
        d = abs(np.linalg.det(b))
        if d > 1e-2:
            return b / d ** (1.0 / k)


def shortest_by_enumeration(B, radius=25):
    best = np.inf
    for p in range(-radius, radius + 1):
        for q in range(-radius, radius + 1):
            if p == 0 and q == 0:
                continue
            best = min(best, float(np.linalg.norm(p * B[:, 0] + q * B[:, 1])))
    return best


# ---------------------------------------------------------------- reduction


def test_reduce_identity():
    z = reduce(np.eye(2))
    assert shortest_vector(z) == pytest.approx(1.0)


def test_reduce_diagonal():
    e = math.e
    z = reduce(np.diag([e, 1.0 / e]))
    assert shortest_vector(z) == pytest.approx(1.0 / e)


def test_reduce_rejects_non_unimodular():
    with pytest.raises(PreconditionError):
        reduce(np.diag([2.0, 1.0]))
    with pytest.raises(PreconditionError, match="2x2"):
        reduce(np.eye(3))


def test_reduce_rejects_non_finite_and_overflowing_bases():
    # NaN passed the unimodularity test, and both ended in a ValueError of
    # round(nan) inside the Gauss reduction
    with pytest.raises(PreconditionError, match="finite"):
        reduce([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError, match="overflow"):
        reduce(np.diag([1e300, 1e-300]))


@pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
def test_lattice_point_rejects_non_positive_periods(period):
    with pytest.raises(PreconditionError, match="period"):
        LatticePoint(np.eye(2), period=period)


@pytest.mark.parametrize("period", ['"1.5"', "true", "NaN", "Infinity", "0"])
def test_lattice_point_from_json_refuses_a_period_that_is_no_real(period):
    # a string ended in TypeError, and true was read as a period of 1.0
    s = '{"basis": [[1.0, 0.0], [0.0, 1.0]], "period": %s}' % period
    with pytest.raises(PreconditionError, match="period"):
        LatticePoint.from_json(s)


def test_lattice_point_stores_an_int_period_as_a_float():
    z = LatticePoint(np.eye(2), period=2)
    assert type(z.period) is float and z.period == 2.0
    assert type(LatticePoint.from_json(z.to_json()).period) is float


@pytest.mark.parametrize("r", [math.nan, math.inf, [0.5, -math.inf]])
def test_diag_orbit_rejects_non_finite_flow_times(r):
    z0, _ = closed_geodesic_point()
    for z in (z0, LatticePoint(z0.basis)):   # with and without a period
        with pytest.raises(PreconditionError, match="finite"):
            diag_orbit(z, r)


def test_shortest_vector_matches_enumeration():
    for _ in range(100):
        B = random_basis(2)
        z = reduce(B)
        assert shortest_vector(z) == pytest.approx(
            shortest_by_enumeration(B), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_reduce_invariant_under_lattice_change(seed):
    r = np.random.default_rng(seed)
    b = r.normal(size=(2, 2))
    d = abs(np.linalg.det(b))
    if d < 1e-2:
        return
    b = b / math.sqrt(d)
    u = random_unimodular(2, r=r)
    assert reduce(b).close_to(reduce(b @ u), tol=1e-9)


def test_lattice_point_json_roundtrip():
    z = reduce(random_basis(2))
    assert LatticePoint.from_json(z.to_json()) == z
    z0, period = closed_geodesic_point()
    assert LatticePoint.from_json(z0.to_json()).period == period


# ---------------------------------------------------------------- actions


def test_act_group_action():
    z = reduce(random_basis(2))
    g1, g2 = random_basis(2), random_basis(2)
    assert act(g1 @ g2, z).close_to(act(g1, act(g2, z)), tol=1e-9)


def test_diag_action_matches_matrix():
    z = reduce(random_basis(2))
    v = DiagSignValue(0.7, -1)
    assert diag_action(v, z) == act(diag_matrix(0.7, -1), z)


def test_shortest_vector_sign_invariant():
    # diag(1, -1) is orthogonal: shortest lengths agree on both sign branches
    z = reduce(random_basis(2))
    for r in (0.0, 0.4, 2.0):
        zp = act(diag_matrix(r, 1), z)
        zm = act(diag_matrix(r, -1), z)
        assert shortest_vector(zp) == pytest.approx(shortest_vector(zm))
    # and exactly along a closed orbit: the reduction carries the negated
    # second row, so the first columns' norms agree bit for bit
    z0, period = closed_geodesic_point()
    r = rng.random(10 ** 4) * period
    s = rng.choice((-1.0, 1.0), 10 ** 4)
    Bs, B1 = diag_orbit(z0, r, s), diag_orbit(z0, r)
    assert np.array_equal(np.hypot(Bs[:, 0, 0], Bs[:, 1, 0]),
                          np.hypot(B1[:, 0, 0], B1[:, 1, 0]))


# ---------------------------------------------------------------- orbits


def test_one_period_law_matches_enumeration():
    # brute force, independent of Gauss reduction: the shortest nonzero
    # p b1 + q b2 over |p|, |q| <= 25 of G(r, 1) z0 at 256 midpoints
    z0, period = closed_geodesic_point()
    dt = period / 256
    vals = orbit_shortest_values(z0, period, dt)
    r = (np.arange(256) + 0.5) * dt
    p, q = np.meshgrid(np.arange(-25, 26), np.arange(-25, 26))
    keep = (p != 0) | (q != 0)
    V = z0.basis @ np.stack([p[keep], q[keep]]).astype(float)
    norms = np.hypot(np.multiply.outer(np.exp(r / 2), V[0]),
                     np.multiply.outer(np.exp(-r / 2), V[1]))
    assert len(vals) == 256
    assert np.max(np.abs(vals - norms.min(axis=1))) <= 1e-9


def test_orbit_values_repeat_with_the_period():
    # dt divides the period, so three periods are three copies of one
    z0, period = closed_geodesic_point()
    dt = period / 2 ** 10
    one = orbit_shortest_values(z0, period, dt)
    three = orbit_shortest_values(z0, 3 * period, dt)
    assert len(three) == 3 * len(one)
    assert np.max(np.abs(three - np.tile(one, 3))) <= 1e-9


def test_orbit_shortest_values_matches_slow_path():
    z0, _ = closed_geodesic_point()
    dt = 0.02
    vals = orbit_shortest_values(z0, 4.0, dt)
    slow = [shortest_vector(act(diag_matrix((j + 0.5) * dt), z0))
            for j in range(len(vals))]
    assert np.max(np.abs(vals - np.array(slow))) <= 1e-9
    # inside the horizon the closed form is the matrix action, for any
    # point, flow time and sign
    r = np.random.default_rng(5)
    z = reduce(random_basis(2))
    times = r.uniform(0.0, HORIZON, size=50)
    signs = r.choice([-1, 1], size=50)
    for b, t, sg in zip(diag_orbit(z, times, signs), times, signs):
        assert reduce(b).close_to(act(diag_matrix(t, sg), z), tol=1e-9)


def test_orbit_values_stay_on_the_closed_orbit():
    # 30 periods is ~58 flow-time units, past the float64 horizon of a
    # step-by-step integration; the periodic-orbit law has mean 0.96389 and
    # support [0.9457, 1]
    z0, period = closed_geodesic_point()
    vals = np.minimum(orbit_shortest_values(z0, 30 * period, 0.01), 1.0)
    assert np.mean(vals) == pytest.approx(0.96389, abs=1e-3)
    assert np.min(vals) >= 0.9457


# ---------------------------------------------------------------- batching


def test_reduce_batch_matches_scalar():
    B = np.stack([random_basis(2) for _ in range(64)])
    expect = [reduce(B[i]) for i in range(64)]
    reduce_batch(B)
    for i in range(64):
        # batch output is reduced but not sign-canonicalized
        assert shortest_vector(LatticePoint(B[i])) == pytest.approx(
            shortest_vector(expect[i]), abs=1e-9)


def test_reduce_batch_reduces_skewed_bases():
    # bases P Z with Z reduced and ||P|| up to 1e3 (P in SL2(R)), as the
    # blocked lattice walk hands them over: every output is Gauss-reduced
    # and keeps |det|
    r = np.random.default_rng(7)
    N = 2000
    Z = np.stack([reduce(random_basis(2)).basis for _ in range(N)])
    a = r.uniform(0.0, 3.0, N)
    K1, K2 = (np.stack([np.cos(t), -np.sin(t), np.sin(t), np.cos(t)],
                       -1).reshape(-1, 2, 2)
              for t in r.uniform(0.0, math.pi, (2, N)))
    D = np.zeros((N, 2, 2))
    D[:, 0, 0], D[:, 1, 1] = 10.0 ** a, 10.0 ** -a
    B = K1 @ D @ K2 @ Z
    det = np.abs(np.linalg.det(B))
    reduce_batch(B)
    n1 = B[:, 0, 0] ** 2 + B[:, 1, 0] ** 2
    n2 = B[:, 0, 1] ** 2 + B[:, 1, 1] ** 2
    dot = B[:, 0, 0] * B[:, 0, 1] + B[:, 1, 0] * B[:, 1, 1]
    assert np.all(n1 <= n2)
    assert np.all(np.abs(dot) <= 0.5 * n1 * (1.0 + 1e-9))
    assert np.max(np.abs(np.abs(np.linalg.det(B)) - det)) <= 1e-9


# ---------------------------------------------------------------- bit identity
# These hold under any python/numpy pair, unlike the recorded report digests.


def _stacked_orbit(z, r, sign=1):
    """The orbit stack as np.multiply.outer rows, Gauss-reduced in place."""
    r = np.asarray(r, dtype=float)
    if z.period is not None:
        r = np.mod(r, z.period)
    h = np.exp(0.5 * r)
    return reduce_batch(np.stack([np.multiply.outer(h, z.basis[0]),
                                  np.multiply.outer(sign / h, z.basis[1])],
                                 1))


def test_orbit_evaluator_matches_the_stacked_orbit_bit_for_bit():
    # with and without a period, flow times past it and below 0, and signs
    # drawn per point.  A periodic point's shortest lengths come from its
    # table of minimal vectors, which shares no arithmetic with the stack
    # after e^{r/2}, so they agree within 4 ulps; the aperiodic point's
    # agree bit for bit
    rng = np.random.default_rng(11)
    z0, period = closed_geodesic_point()
    for z, r in ((z0, rng.uniform(-5 * period, 40 * period, 4096)),
                 (reduce(random_basis(2)), rng.uniform(-HORIZON, HORIZON,
                                                       4096))):
        for sign in (1, rng.choice((-1.0, 1.0), len(r))):
            B = _stacked_orbit(z, r, sign)
            assert np.array_equal(diag_orbit(z, r, sign), B)
            x0, _, y0, _ = _orbit_components(z, r, sign)
            assert np.array_equal(np.sqrt(x0 * x0 + y0 * y0),
                                  np.sqrt(B[:, 0, 0] ** 2 + B[:, 1, 0] ** 2))
        B = _stacked_orbit(z, r)
        short = np.sqrt(B[:, 0, 0] ** 2 + B[:, 1, 0] ** 2)
        if z.period is None:
            assert np.array_equal(orbit_shortest(z, r), short)
        else:
            assert np.all(np.abs(orbit_shortest(z, r) - short) <=
                          4 * np.spacing(short))
        # any shape of flow times reads the same lengths
        assert np.array_equal(orbit_shortest(z, r.reshape(64, 64)),
                              orbit_shortest(z, r).reshape(64, 64))
    dt = period / 1000
    B = _stacked_orbit(z0, (np.arange(3000) + 0.5) * dt)
    short = np.sqrt(B[:, 0, 0] ** 2 + B[:, 1, 0] ** 2)
    assert np.all(np.abs(orbit_shortest_values(z0, 3 * period, dt) - short)
                  <= 4 * np.spacing(short))


def _silver_point():
    """A second closed orbit: conjugating by the eigenbasis V of
    [[3, 2], [4, 3]], whose eigenvalue 3 + 2 sqrt 2 is a unit of Z[sqrt 2],
    turns the diagonal flow at r0 = 2 log(3 + 2 sqrt 2) into that matrix,
    so the lattice of V^{-1} (det-normalized) has period r0."""
    _, v = np.linalg.eig(np.array([[3.0, 2.0], [4.0, 3.0]]))
    b = np.linalg.inv(v)
    b = b / math.sqrt(abs(np.linalg.det(b)))
    period = 2.0 * math.log(3.0 + 2.0 * math.sqrt(2.0))
    return LatticePoint(reduce(b).basis, period), period


@pytest.mark.parametrize("point, size", [(closed_geodesic_point, 2),
                                         (_silver_point, 3)])
def test_orbit_table_matches_enumeration_on_closed_orbits(point, size):
    # brute force, independent of the table and of Gauss reduction: the
    # shortest nonzero p b1 + q b2 over |p|, |q| <= 25 of G(r mod r0, 1) z0
    # at 10^4 flow times past the period and below 0.  A vector that is
    # shortest only at an end of the period, in a tie, is left out
    z0, period = point()
    assert len(z0.minima) == size
    r = np.random.default_rng(17).uniform(-5 * period, 40 * period, 10 ** 4)
    p, q = np.meshgrid(np.arange(-25, 26), np.arange(0, 26))
    keep = (q > 0) | (p > 0)   # one of v and -v
    V = z0.basis @ np.stack([p[keep], q[keep]]).astype(float)
    vals = orbit_shortest(z0, r)
    for lo in range(0, len(r), 1000):
        h = np.exp(np.mod(r[lo:lo + 1000], period) / 2)
        norms = np.hypot(np.multiply.outer(h, V[0]),
                         np.multiply.outer(1 / h, V[1]))
        assert np.max(np.abs(vals[lo:lo + 1000] - norms.min(axis=1))) <= \
            1e-12
    # the period is one: the point without it reads, by Gauss reduction,
    # the same lengths one period later
    t = r[:100] / 45.0
    free = LatticePoint(z0.basis)
    assert np.max(np.abs(orbit_shortest(free, t + period) -
                         orbit_shortest(free, t))) <= 1e-12
    # the table is derived: JSON, equality and hashing do not see it
    z1 = LatticePoint.from_json(z0.to_json())
    assert z1.minima == z0.minima and "minima" not in z0.to_json()
    assert z1 == free and hash(z1) == hash(free)


@pytest.mark.parametrize("r", [math.nan, math.inf, [0.5, -math.inf]])
def test_orbit_shortest_rejects_non_finite_flow_times(r):
    z0, _ = closed_geodesic_point()
    for z in (z0, LatticePoint(z0.basis)):   # table and Gauss reduction
        with pytest.raises(PreconditionError, match="finite"):
            orbit_shortest(z, r)


def test_lattice_point_refuses_a_period_past_half_the_horizon():
    # the table's box grows like e^{r0/2}, and a period past HORIZON / 2
    # would be read with rounding grown by e^{r0}
    assert MAX_PERIOD == HORIZON / 2
    with pytest.raises(PreconditionError, match="18.5"):
        LatticePoint(np.eye(2), period=18.5)
    # accepted at the bound: on Z^2, (0, 1) is shortest for every rho > 0
    assert LatticePoint(np.eye(2), period=MAX_PERIOD).minima == ((0.0, 1.0),)


def test_lattice_point_with_a_period_checks_its_basis_by_reduce():
    # the table enumerates a box of the reduced basis, so a basis that
    # reduce refuses is refused, and a skewed one costs no more rows (this
    # one, unreduced, would take 10^6 rows of coefficients)
    with pytest.raises(PreconditionError, match="finite"):
        LatticePoint([[math.nan, 0.0], [0.0, 1.0]], period=1.0)
    with pytest.raises(PreconditionError, match="unimodular"):
        LatticePoint([[1.0, 2.0], [2.0, 4.0]], period=1.0)
    z = LatticePoint([[1.0, 0.0], [1e6, 1.0]], period=MAX_PERIOD)
    assert z.minima == ((0.0, 1.0),)


def test_orbit_evaluator_refuses_past_the_horizon_without_a_period():
    z = reduce(random_basis(2))
    with pytest.raises(PreconditionError, match="horizon"):
        orbit_shortest(z, [0.0, HORIZON + 1.0])
    with pytest.raises(PreconditionError, match="horizon"):
        diag_orbit(z, -HORIZON - 1.0)


def test_reduce_batch_is_the_component_kernel():
    rng = np.random.default_rng(12)
    B = rng.normal(size=(3000, 2, 2)) * np.exp(3 * rng.normal(size=(3000, 1,
                                                                     1)))
    comps = tuple(B.reshape(-1, 4).T.copy())
    kept = [c.copy() for c in comps]
    out = _gauss_sweeps(*comps)
    assert all(np.array_equal(c, k) for c, k in zip(comps, kept))  # unread
    assert reduce_batch(B) is B
    assert np.array_equal(B, np.stack(out, -1).reshape(-1, 2, 2))


def _gauss_reduce(B):
    """Lagrange/Gauss reduction of a 2x2 basis (columns), one basis at a
    time in Python scalars: the reference for reduce."""
    B = B.astype(float).copy()
    for _ in range(256):
        n1 = B[0, 0] ** 2 + B[1, 0] ** 2
        n2 = B[0, 1] ** 2 + B[1, 1] ** 2
        if n2 < n1:
            B = B[:, ::-1].copy()
            n1, n2 = n2, n1
        mu = round((B[0, 0] * B[0, 1] + B[1, 0] * B[1, 1]) / n1)
        if mu == 0:
            return B
        B[:, 1] -= mu * B[:, 0]
    raise PreconditionError("Gauss reduction failed to terminate")


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _skewed_basis(r, a, s):
    """A unimodular basis K D K' U diag(e^s, e^-s): D = diag(e^a, e^-a), K
    and K' rotations, U an integer change of basis."""
    return (_rotation(r.uniform(0.0, math.pi)) @
            np.diag([math.exp(a), math.exp(-a)]) @
            _rotation(r.uniform(0.0, math.pi)) @
            random_unimodular(steps=8, r=r) @ np.diag([math.exp(s),
                                                       math.exp(-s)]))


def test_reduce_is_the_scalar_reduction_bit_for_bit():
    # through reduce's checks (whose det test needs skews up to e^{+-4} and
    # column scales up to e^{+-3}), and as the kernel on one-element arrays
    # with no checks, at skews up to e^{+-8} and scales up to e^{+-6}
    r = np.random.default_rng(21)
    for _ in range(2500):
        B = _skewed_basis(r, r.uniform(-4.0, 4.0), r.uniform(-3.0, 3.0))
        assert np.array_equal(reduce(B).basis,
                              _canonicalize(_gauss_reduce(B)))
        B = _skewed_basis(r, r.uniform(-8.0, 8.0), r.uniform(-6.0, 6.0))
        assert np.array_equal(np.reshape(_gauss_sweeps(*B.reshape(4, 1)),
                                         (2, 2)), _gauss_reduce(B))


def test_reduce_batch_reads_and_writes_component_views():
    # the lattice walk's layout: C[j] holds column j of every basis, and
    # reduce_batch runs on C.reshape(2, 2, -1).transpose(2, 1, 0), whose
    # component views are contiguous; the bits are those of a contiguous
    # (M, 2, 2) copy, and the kernel writes none of its inputs
    r = np.random.default_rng(13)
    C = r.normal(size=(2, 2, 7, 300)) * np.exp(3 * r.normal(size=(7, 300)))
    B = C.reshape(2, 2, -1).transpose(2, 1, 0)
    assert all(B[:, i, j].flags.c_contiguous for i in (0, 1) for j in (0, 1))
    copy = np.ascontiguousarray(B)
    views = B[:, 0, 0], B[:, 0, 1], B[:, 1, 0], B[:, 1, 1]
    kept = [v.copy() for v in views]
    out = _gauss_sweeps(*views)
    assert all(np.array_equal(v, k) for v, k in zip(views, kept))
    assert all(not np.shares_memory(o, C) for o in out)
    assert reduce_batch(B).base is not None and np.shares_memory(B, C)
    assert np.array_equal(B, reduce_batch(copy))
    assert np.array_equal(B, np.stack(out, -1).reshape(-1, 2, 2))
    assert np.array_equal(C[0, 0].ravel(), out[0])
