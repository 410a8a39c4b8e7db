import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagwalk.errors import PreconditionError
from flagwalk.examples import closed_geodesic_point
from flagwalk.fiber import (HORIZON, LatticePoint, act, diag_action,
                            diag_matrix, diag_orbit, orbit_shortest_values,
                            reduce, reduce_batch, shortest_vector)
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
