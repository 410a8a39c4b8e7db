import math

import numpy as np
import pytest

from flagwalk.boundary import (EmpiricalMeasure, StepMeasure, _apply_stack,
                               _atom_entries, _step_indices, convolve_step,
                               detect_cone, estimate_p1p2, invariant_arc,
                               limit_form, limit_vector, sample_furstenberg,
                               walk_boundary)
from flagwalk.errors import ConfigurationError, PreconditionError
from flagwalk.examples import closed_geodesic_point, default_measure, \
    mixed_sign_measure, volatile_measure

rng = np.random.default_rng(31)


# ---------------------------------------------------------------- measures


def test_step_measure_validation():
    with pytest.raises(PreconditionError):
        StepMeasure(((0.5, np.eye(2)),))
    with pytest.raises(PreconditionError):
        StepMeasure(((1.5, np.eye(2)), (-0.5, np.eye(2))))
    with pytest.raises(PreconditionError, match="2x2"):
        StepMeasure(((1.0, np.eye(3)),))


class _TopUniforms:
    """A generator stand-in whose every uniform is the largest below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


def test_sample_indices_inverts_the_cumulative_weights():
    for weights in ((1.0,), (0.95, 0.05), (0.2, 0.3, 0.5), (0.1,) * 10):
        mu = StepMeasure(tuple((w, np.eye(2)) for w in weights))
        idx = mu.sample_indices(np.random.default_rng(3), (4, 500))
        u = np.random.default_rng(3).random((4, 500))
        assert np.array_equal(idx, np.searchsorted(mu.cumulative(), u))
    # weights summing to 1 - 1e-13 pass validation; the top uniforms still
    # pick the last atom instead of an index past the atoms
    mu = StepMeasure(tuple((0.3333333333333, np.eye(2)) for _ in range(3)))
    assert np.all(mu.sample_indices(_TopUniforms(), 5) == 2)


def test_walk_boundary_matches_scalar_replay():
    """The vectorized kernel against a scalar math.hypot loop replaying the
    same atom stream (non-integer atoms, so rounding is exercised)."""
    mu = volatile_measure()
    trials, n = 8, 500
    U = np.tile([1.0, 0.0], (trials, 1))
    r = np.zeros(trials)
    steps = 0
    for k, _, dr in walk_boundary(mu, U, n, np.random.default_rng(17)):
        r += dr
        steps = k
    assert steps == n
    replay = np.random.default_rng(17)
    idx = np.stack([mu.sample_indices(replay, trials) for _ in range(n)])
    mats = mu.matrices
    for t in range(trials):
        u0, u1, s = 1.0, 0.0, 0.0
        for k in range(n):
            g = mats[idx[k, t]]
            x = g[0, 0] * u0 + g[0, 1] * u1
            y = g[1, 0] * u0 + g[1, 1] * u1
            nrm = math.hypot(x, y)
            s += math.log(nrm)
            u0, u1 = x / nrm, y / nrm
        assert abs(U[t, 0] - u0) <= 1e-12 and abs(U[t, 1] - u1) <= 1e-12
        assert abs(r[t] - s) <= 1e-10 * abs(s)


@pytest.mark.parametrize("N, n", [(7, 5000), (40000, 3)])
def test_walk_boundary_keeps_the_per_step_stream(N, n):
    """Tiled draws give the stream of one sample_indices(rng, N) call per
    step: across a tile boundary (7 walks), and with one step per tile
    (N above the tile budget).  The generator is left in the same state."""
    mu = default_measure()
    rng = np.random.default_rng(41)
    replay = np.random.default_rng(41)
    U = np.tile([1.0, 0.0], (N, 1))
    steps = 0
    for k, idx, _ in walk_boundary(mu, U, n, rng):
        assert np.array_equal(idx, mu.sample_indices(replay, N))
        steps = k
    assert steps == n
    assert rng.random() == replay.random()


@pytest.mark.parametrize("start", ["identity", "lattice"])
def test_apply_stack_matches_matmul_replay(start):
    """The gathered 2x2 stack update (lyapunov's M from the identity, the
    fibre bases Z from a lattice basis) against a per-trial g @ X loop over
    the same index stream."""
    mu = volatile_measure()
    mats = mu.matrices
    trials, n = 8, 300
    X0 = np.eye(2) if start == "identity" else closed_geodesic_point()[0].basis
    X = np.tile(X0, (trials, 1, 1))
    steps = [idx for _, idx in
             _step_indices(mu, np.random.default_rng(23), n, trials)]
    entries = _atom_entries(mats)
    for idx in steps:
        _apply_stack(entries, idx, X)
    for t in range(trials):
        ref = X0.copy()
        for idx in steps:
            ref = mats[idx[t]] @ ref
        assert np.max(np.abs(X[t] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_step_measure_zariski_heuristic():
    assert default_measure().looks_zariski_dense()
    assert not StepMeasure(((1.0, np.diag([2.0, 0.5])),)).looks_zariski_dense()


def test_empirical_ks_self_zero():
    vals = rng.normal(size=500)
    m = EmpiricalMeasure(vals)
    assert m.ks_distance(EmpiricalMeasure(vals.copy())) == 0.0


def test_empirical_ks_known_value():
    a = EmpiricalMeasure(np.array([0.0, 1.0]))
    b = EmpiricalMeasure(np.array([0.5]))
    assert a.ks_distance(b) == pytest.approx(0.5)


def test_wasserstein_line_translation():
    vals = rng.normal(size=2000)
    a = EmpiricalMeasure(vals)
    b = EmpiricalMeasure(vals + 0.25)
    assert a.wasserstein1(b) == pytest.approx(0.25, abs=1e-12)


def test_wasserstein_circle_rotation_invariance():
    vals = rng.uniform(0, 2 * math.pi, size=3000)
    a = EmpiricalMeasure(vals, "circle")
    b = EmpiricalMeasure(np.mod(vals + 1.0, 2 * math.pi), "circle")
    # rotating every sample moves nothing relative to the rotated copy
    assert a.antipode().wasserstein1(
        EmpiricalMeasure(np.mod(vals + math.pi, 2 * math.pi), "circle")) \
        == pytest.approx(0.0, abs=1e-12)
    # a uniform-ish sample is close to its own rotation in circular W1
    assert a.wasserstein1(b) <= 0.05


# ---------------------------------------------------------------- limits


def test_limit_vector_is_attractor():
    mats = default_measure().matrices
    word = [mats[0], mats[1], mats[0]]
    v = limit_vector(word, 200)
    # applying the past word once more does not move the direction
    p = word[0] @ word[1] @ word[2]
    img = p @ v
    img /= np.linalg.norm(img)
    w = word[1] @ word[2] @ word[0]  # shifted word has a different attractor
    assert abs(abs(img @ v) - 1.0) <= 1e-9
    assert np.linalg.norm(p @ v) > 1.0


def test_limit_form_transpose_relation():
    mats = default_measure().matrices
    word = [mats[1], mats[0]]
    phi = limit_form(word, 200)
    # phi spans the limit vector of the transposed word
    vt = limit_vector([m.T for m in word], 200)
    assert abs(abs(phi @ vt) - 1.0) <= 1e-9


def test_limit_vector_warns_without_proximality():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.warns(UserWarning):
        limit_vector([rot], 8)


# ---------------------------------------------------------------- stationarity


@pytest.mark.parametrize("mu", [default_measure(), volatile_measure()],
                         ids=["default", "volatile"])
def test_furstenberg_stationarity(mu):
    nu = sample_furstenberg(mu, burn_in=2000, samples=100000, seed=5)
    assert nu.wasserstein1(convolve_step(mu, nu)) <= 0.02


def test_furstenberg_projective_mode():
    nu = sample_furstenberg(default_measure(), burn_in=500, samples=2000,
                            space="projective", seed=6)
    assert np.all(nu.values >= 0.0) and np.all(nu.values < math.pi)
    assert "autocorr" in nu.meta


# ---------------------------------------------------------------- cones


def test_detect_cone_positive_measures():
    assert detect_cone(default_measure(), seed=0) == "true"
    assert detect_cone(volatile_measure(), seed=0) == "true"


def test_detect_cone_mixed_sign():
    assert detect_cone(mixed_sign_measure(), seed=0) == "false"


def _attracting_angle(g):
    """Angle in [0, pi) of the top eigenvector of a symmetric atom."""
    w, v = np.linalg.eigh(g)
    u = v[:, np.argmax(w)]
    return math.atan2(u[1], u[0]) % math.pi


def _proj_diff(a, b):
    return abs((a - b + math.pi / 2) % math.pi - math.pi / 2)


def _maps_into(g, arc, tol=1e-12):
    start, length = arc
    for t in np.linspace(0.0, length, 25):
        img = g @ np.array([math.cos(start + t), math.sin(start + t)])
        if (math.atan2(img[1], img[0]) - start) % (2 * math.pi) > length + tol:
            return False
    return True


def _rotated(mu, phi):
    r = np.array([[math.cos(phi), -math.sin(phi)],
                  [math.sin(phi), math.cos(phi)]])
    return StepMeasure(tuple((w, r @ g @ r.T) for w, g in mu.atoms))


def test_invariant_arc_is_invariant():
    mu = default_measure()
    arc = invariant_arc(mu)
    assert arc is not None and arc[1] < math.pi
    assert all(_maps_into(g, arc, tol=1e-9) for g in mu.matrices)


@pytest.mark.parametrize("mu", [default_measure(), volatile_measure()],
                         ids=["default", "volatile"])
def test_invariant_arc_ends_at_attracting_eigendirections(mu):
    start, length = arc = invariant_arc(mu)
    ends = sorted([start % math.pi, (start + length) % math.pi])
    dirs = sorted(_attracting_angle(g) for g in mu.matrices)
    assert max(_proj_diff(e, d) for e, d in zip(ends, dirs)) <= 1e-12
    assert all(_maps_into(g, arc) for g in mu.matrices)


def test_invariant_arc_of_a_rotated_near_identity_pair():
    s = np.array([[1.0, 0.02], [0.02, 1.0]])
    t = np.array([[1.02, 0.02], [0.02, 1.0]])
    mu = _rotated(StepMeasure.uniform(
        [g / math.sqrt(np.linalg.det(g)) for g in (s, t)]), math.pi / 3)
    lo, hi = 0.5 * math.atan(2.0), math.pi / 4
    start, length = invariant_arc(mu)
    assert start == pytest.approx(lo + math.pi / 3, abs=1e-12)
    assert length == pytest.approx(hi - lo, abs=1e-12)
    assert detect_cone(mu) == "true"
    p1, p2 = estimate_p1p2(mu, (1.0, 0.0), trials=50, horizon=100, seed=3)
    assert p1 + p2 == pytest.approx(1.0)


def test_invariant_arc_ignores_an_identity_atom():
    mu = default_measure()
    with_id = StepMeasure(tuple((w / 2, g) for w, g in mu.atoms)
                          + ((0.5, np.eye(2)),))
    assert invariant_arc(with_id) == invariant_arc(mu)


def test_invariant_arc_is_lifted_to_the_upper_half_circle():
    # default_measure's cone, midpoint 45 degrees, rotated to -5 degrees,
    # comes back as its antipodal lift around 175 degrees
    mu = _rotated(default_measure(), math.radians(-50.0))
    start, length = invariant_arc(mu)
    a, b = (_attracting_angle(g) for g in default_measure().matrices)
    assert start + length / 2 == pytest.approx(math.radians(175.0), abs=1e-12)
    assert length == pytest.approx(abs(a - b), abs=1e-12)


def test_invariant_arc_none_without_cone():
    assert invariant_arc(mixed_sign_measure()) is None


# ---------------------------------------------------------------- p1 / p2


def test_p1p2_boundary_values():
    mu = default_measure()
    arc = invariant_arc(mu)
    mid = arc[0] + arc[1] / 2.0
    inside = (math.cos(mid), math.sin(mid))
    p1, p2 = estimate_p1p2(mu, inside, trials=400, seed=1)
    assert (p1, p2) == (1.0, 0.0)
    p1, p2 = estimate_p1p2(mu, (-inside[0], -inside[1]), trials=400, seed=1)
    assert (p1, p2) == (0.0, 1.0)


def test_p1p2_sum_to_one():
    p1, p2 = estimate_p1p2(default_measure(), (-1.0, 0.4), trials=500, seed=2)
    assert p1 + p2 == pytest.approx(1.0)


def test_p1p2_requires_cone():
    with pytest.raises(ConfigurationError):
        estimate_p1p2(mixed_sign_measure(), (1.0, 0.0), trials=10, seed=0)
