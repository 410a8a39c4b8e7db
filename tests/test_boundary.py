import functools
import itertools
import math

import numpy as np
import pytest

import flagwalk.boundary
from flagwalk.boundary import (_GRID, _TILE, EmpiricalMeasure, StepMeasure,
                               _atom_entries, _block_products, _block_steps,
                               _grid_images, _grid_nodes, _guard_steps,
                               _min_log_norm, _power, _refine_arc,
                               _start_arc, _step_blocks, _word_product,
                               convolve_step, detect_cone, estimate_p1p2,
                               invariant_arc, limit_form, limit_vector,
                               sample_furstenberg, transfer_spectrum,
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
    # NaN passes both w <= 0 and the sum-to-1 check; inf fails later in LAPACK
    with pytest.raises(PreconditionError, match="finite"):
        StepMeasure(((math.nan, np.eye(2)), (0.5, np.eye(2))))
    with pytest.raises(PreconditionError, match="finite"):
        StepMeasure(((1.0, np.array([[math.inf, 0.0], [0.0, 1.0]])),))
    # a det-0 atom sends boundary vectors to 0: log-norms of -inf, NaN
    # directions, and no bound on the walk's unnormalised shrinking
    for atom in ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
                 [[2.0, 4.0], [1.0, 2.0]]):
        with pytest.raises(PreconditionError, match="invertible"):
            StepMeasure(((0.5, np.eye(2)), (0.5, np.array(atom))))


class _FixedUniforms:
    """A generator stand-in returning the given uniforms, cycled to size."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return np.resize(self.u, size)


def test_sample_indices_inverts_the_cumulative_weights():
    for weights in ((1.0,), (0.95, 0.05), (0.2, 0.3, 0.5), (0.1,) * 10):
        mu = StepMeasure(tuple((w, np.eye(2)) for w in weights))
        idx = mu.sample_indices(np.random.default_rng(3), (4, 500))
        u = np.random.default_rng(3).random((4, 500))
        assert np.array_equal(idx, np.searchsorted(mu.cumulative(), u))
    # weights summing to 1 - 1e-13 pass validation; the top uniforms still
    # pick the last atom instead of an index past the atoms
    mu = StepMeasure(tuple((0.3333333333333, np.eye(2)) for _ in range(3)))
    top = _FixedUniforms([1.0 - 2.0 ** -53])   # the largest below 1
    assert np.all(mu.sample_indices(top, 5) == 2)


@pytest.mark.parametrize("weights", [(1.0,), (0.25, 0.75), (0.2, 0.3, 0.5)])
def test_sample_indices_is_the_summed_compare(weights):
    """The in-place count of boundaries below u gives the indices, and the
    dtype, of the sum of one compare per boundary, on uniforms that sit on
    a boundary, one ulp either side of it, at 0 and just below 1."""
    mu = StepMeasure(tuple((w, np.eye(2)) for w in weights))
    cum = mu.cumulative()
    u = [0.0, 1.0 - 2.0 ** -53, 0.5]
    for c in cum[:-1]:
        u += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
    for make in (lambda: _FixedUniforms(u), lambda: np.random.default_rng(8)):
        got = mu.sample_indices(make(), (3, 40))
        v = make().random((3, 40))
        want = sum((c < v for c in cum[:-1]), np.zeros(v.shape, int))
        assert got.dtype == np.intp and got.shape == (3, 40)
        assert np.array_equal(got, want)


def test_walk_boundary_matches_scalar_replay():
    """The vectorized kernel, U and the running cocycle sigma_n, against a
    scalar math.hypot loop replaying the same atom stream (non-integer
    atoms, so rounding is exercised)."""
    mu = volatile_measure()
    trials, n = 8, 500
    U = np.tile([1.0, 0.0], (trials, 1))
    steps = 0
    for k, _, sigma in walk_boundary(mu, U, n, np.random.default_rng(17)):
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
        assert abs(sigma[t] - s) <= 1e-10 * abs(s)


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


def _recorded_walk(mu, N, n, seed, stride):
    """[(k, indices, U, sigma_k)] at each yield of a walk from (1, 0), and
    the generator after the walk."""
    rng = np.random.default_rng(seed)
    U = np.tile([1.0, 0.0], (N, 1))
    return [(k, idx.copy(), U.copy(), sigma.copy())
            for k, idx, sigma in walk_boundary(mu, U, n, rng, stride)], rng


_STIFF = StepMeasure.uniform([np.array([[1e3, 1.0], [0.0, 1e-3]]),
                              np.array([[1e3, 0.0], [1.0, 1e-3]])])


@pytest.mark.parametrize("mu, stride", [
    (default_measure(), 1), (default_measure(), 7), (default_measure(), 200),
    (volatile_measure(), 1), (volatile_measure(), 7),
    (volatile_measure(), 200),
    # norms grow by up to 1e3 a step, so x^2 + y^2 of an unnormalised run
    # overflows at step 52; the guard normalises every 50 steps
    (_STIFF, 500),
], ids=["default-1", "default-7", "default-200", "volatile-1", "volatile-7",
        "volatile-200", "stiff-500"])
def test_strided_walk_matches_stride_one(mu, stride):
    """Yields at the multiples of the stride and at n, U and sigma_k there
    as at stride 1 (sigma within 1e-12 per step), and the same generator
    state after the walk."""
    n = 1234   # not a multiple of 7, 200 or 500
    ref, ref_rng = _recorded_walk(mu, 16, n, 5, 1)
    got, rng = _recorded_walk(mu, 16, n, 5, stride)
    ks = [k for k, *_ in got]
    assert ks == list(range(stride, n + 1, stride)) + [n] * (n % stride > 0)
    for k, idx, U, sigma in got:
        _, ref_idx, ref_U, ref_sigma = ref[k - 1]
        assert np.array_equal(idx, ref_idx)
        assert np.all(np.isfinite(U)) and np.all(np.isfinite(sigma))
        assert np.max(np.abs(U - ref_U)) <= 1e-12
        assert np.max(np.abs(sigma - ref_sigma)) <= 1e-12 * k
    assert rng.random() == ref_rng.random()


def _real_walk(mu, U, n, rng, stride):
    """walk_boundary with its step in real arithmetic, x = a u0 + b u1 and
    y = c u0 + d u1 from four entry gathers, and the same stride, guard,
    sqrt, divide and log."""
    a, b, c, d = _atom_entries(mu.matrices)
    guard = _guard_steps(mu.matrices)
    v0, v1 = U[:, 0], U[:, 1]
    u0, u1, due, acc, sigma = v0, v1, guard, None, np.zeros(len(U))
    for k0, tile in _step_blocks(mu, rng, n, len(U)):
        for k, idx in enumerate(tile, k0 - len(tile) + 1):
            x = a[idx] * u0 + b[idx] * u1
            y = c[idx] * u0 + d[idx] * u1
            between = k % stride and k < n
            if between and k < due:
                u0, u1 = x, y
                continue
            nrm = np.sqrt(x * x + y * y)
            u0 = np.divide(x, nrm, out=v0)
            u1 = np.divide(y, nrm, out=v1)
            due = k + guard
            lg = np.log(nrm) if acc is None else acc + np.log(nrm)
            if between:
                acc = lg
                continue
            acc = None
            sigma += lg
            yield k, idx, sigma


@pytest.mark.parametrize("stride", [1, 7, 200])
@pytest.mark.parametrize("start", [(1.0, 0.0), (0.0, 1.0)], ids=["e1", "e2"])
@pytest.mark.parametrize("mu", [
    mixed_sign_measure(),   # a = 0 in its second atom: exact zero products
    StepMeasure.uniform([np.array([[2.0, 1.0], [1.0, 1.0]]),
                         np.array([[0.6, 1.7], [1.1, -0.4]])]),   # det < 0
    volatile_measure(),
    _STIFF,   # the guard renormalises every 50 steps between yields
], ids=["mixed_sign", "det_negative", "volatile", "stiff"])
def test_walk_boundary_is_bit_identical_to_the_real_step(mu, start, stride):
    """The complex column step gives, at every yield, the same indices and
    the same bits of U and sigma as the real-arithmetic step on the same
    stream (array_equal: an exactly-zero coordinate may differ in sign)."""
    n, N = 1234, 32
    U, ref_U = np.tile(start, (N, 1)), np.tile(start, (N, 1))
    got = walk_boundary(mu, U, n, np.random.default_rng(13), stride)
    ref = _real_walk(mu, ref_U, n, np.random.default_rng(13), stride)
    yields = 0
    for (k, idx, sigma), (ref_k, ref_idx, ref_sigma) in itertools.zip_longest(
            got, ref, fillvalue=(None,) * 3):
        assert k == ref_k and np.array_equal(idx, ref_idx)
        assert np.array_equal(U, ref_U) and np.array_equal(sigma, ref_sigma)
        yields += 1
    assert yields == n // stride + (n % stride > 0)


def _blocks(mu, rng, n, N, entries=None):
    """(last step, indices) per block of a lattice walk: the tiles of
    _step_blocks cut into runs of _block_steps(entries) steps (whole tiles
    without entries)."""
    t = max(1, _TILE // N)
    m = t if entries is None else _block_steps(entries)
    for k, tile in _step_blocks(mu, rng, n, N):
        for j in range(0, len(tile), m):
            yield k - len(tile) + min(j + m, len(tile)), tile[j:j + m]


@pytest.mark.parametrize("measure", [volatile_measure, default_measure])
@pytest.mark.parametrize("start", ["identity", "lattice"])
def test_block_products_match_matmul_replay(measure, start):
    """Every prefix product of every block, applied to a stack (from the
    identity, or the fibre bases Z from a lattice basis), against a
    per-trial g @ X loop over the same index stream."""
    mu = measure()
    mats = mu.matrices
    entries = _atom_entries(mats)
    trials, n = 8, 300
    # the largest m with max ||g_i||^m <= 1e3: 7 (default), 3 (volatile)
    top = max(np.linalg.norm(g, 2) for g in mats)
    m = int(math.floor(math.log(1e3) / math.log(top)))
    assert top ** m <= 1e3 < top ** (m + 1)
    X0 = np.eye(2) if start == "identity" else closed_geodesic_point()[0].basis
    X = np.tile(X0, (trials, 1, 1))
    ref = X.copy()
    blocks = list(_blocks(mu, np.random.default_rng(23), n, trials, entries))
    assert max(len(idx) for _, idx in blocks) == m
    for k, idx in blocks:
        P = np.stack(_block_products(entries, idx), -1)
        for j, row in enumerate(idx):
            ref = np.stack([mats[i] for i in row]) @ ref
            W = P[j].reshape(trials, 2, 2) @ X
            err = np.max(np.abs(W - ref), axis=(1, 2))
            assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=(1, 2)))
        X = W
    assert blocks[-1][0] == n
    assert np.array_equal(np.concatenate([idx for _, idx in blocks]),
                          mu.sample_indices(np.random.default_rng(23),
                                            (n, trials)))


@pytest.mark.parametrize("measure, m", [(default_measure, 7),
                                        (volatile_measure, 3)])
@pytest.mark.parametrize("N, n", [(100, 2000), (100, 1000), (8, 90),
                                  (40000, 3)])
def test_tile_scan_is_the_per_block_scan(measure, m, N, n):
    """One _block_products call on a tile cut into (blocks, m, N), its last
    block padded, gives every block's prefix products bit for bit as one
    call per block.  Tiles of 327 steps at N = 100 are 46 m + 5 (m = 7) and
    109 m (m = 3); n = 2000 and 1000 end 38 and 19 steps into a tile, N = 8
    walks one short tile, and at N = 40000 a tile is one step."""
    mu = measure()
    entries = _atom_entries(mu.matrices)
    assert _block_steps(entries) == m
    for pad in (0, 1):   # the padding's indices are never read
        for k, tile in _step_blocks(mu, np.random.default_rng(4), n, N):
            b = min(m, len(tile))
            idx = np.full((-(-len(tile) // b) * b, N), pad, np.intp)
            idx[:len(tile)] = tile
            P = _block_products(entries, idx.reshape(-1, b, N))
            for i, j in enumerate(range(0, len(tile), b)):
                ref = _block_products(entries, tile[j:j + b])
                for p, r in zip(P, ref):
                    assert np.array_equal(p[i, :len(r)], r)


@pytest.mark.parametrize("blocked", [True, False])
@pytest.mark.parametrize("N, n", [(8, 300), (1000, 100), (40000, 3)])
def test_step_blocks_keep_the_tile_stream(N, n, blocked):
    """Tiles of max(1, _TILE // N) steps, cut into blocks of at most m steps
    (7 with the default atoms, whose norms are 2.618; whole tiles without
    entries), whose concatenation is the per-tile sample_indices stream."""
    mu = default_measure()
    t = max(1, _TILE // N)
    m = 7 if blocked else t
    replay = np.random.default_rng(5)
    tiles = [mu.sample_indices(replay, (min(t, n - k), N))
             for k in range(0, n, t)]
    rng = np.random.default_rng(5)
    blocks = list(_blocks(mu, rng, n, N, _atom_entries(mu.matrices)
                          if blocked else None))
    ends = [k for k, _ in blocks]
    assert [k - len(idx) for k, idx in blocks] == [0] + ends[:-1]
    assert ends[-1] == n
    for k, idx in blocks:
        assert len(idx) == min(m, n - (k - len(idx)), t - (k - len(idx)) % t)
        assert (k - len(idx)) // t == (k - 1) // t   # inside one tile
    assert [k for k, _ in _step_blocks(mu, np.random.default_rng(5), n, N)] \
        == [min(k + t, n) for k in range(0, n, t)]
    assert np.array_equal(np.concatenate([idx for _, idx in blocks]),
                          np.concatenate(tiles))
    assert rng.random() == replay.random()


def test_empirical_ks_self_zero():
    vals = rng.normal(size=500)
    m = EmpiricalMeasure(vals)
    assert m.ks_distance(EmpiricalMeasure(vals.copy())) == 0.0


def test_empirical_ks_known_value():
    a = EmpiricalMeasure(np.array([0.0, 1.0]))
    b = EmpiricalMeasure(np.array([0.5]))
    assert a.ks_distance(b) == pytest.approx(0.5)


def test_distances_refuse_measures_on_different_spaces():
    circle = EmpiricalMeasure([1.0, 2.0, 3.0], "circle")
    for distance in (circle.ks_distance, circle.wasserstein1):
        with pytest.raises(PreconditionError, match="different spaces"):
            distance(EmpiricalMeasure([1.0, 2.0]))


@pytest.mark.parametrize("values, weights", [
    ([], None), ([1.0, 2.0], [0.0, 0.0]), ([1.0, 2.0], [-1.0, 2.0]),
    ([1.0, 2.0], [math.nan, 1.0]), ([1.0, 2.0], [math.inf, 1.0]),
    ([1.0, 2.0], [1.0]),
], ids=["empty", "zero-sum", "negative", "nan", "inf", "length"])
def test_empirical_measure_rejects_empty_samples_and_bad_weights(values,
                                                                 weights):
    with pytest.raises(PreconditionError):
        EmpiricalMeasure(values, "line", weights)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("space", ["line", "circle"])
def test_empirical_measure_refuses_non_finite_values(space, bad):
    # KS read 0.5 and W1 nan for [nan, 1.0]: no distance reads such a sample
    with pytest.raises(PreconditionError, match="finite"):
        EmpiricalMeasure([bad, 1.0], space)
    finite = EmpiricalMeasure([0.5, 1.0], space)
    assert finite.ks_distance(EmpiricalMeasure([1.0, 0.5], space)) == 0.0
    assert finite.wasserstein1(EmpiricalMeasure([1.0, 0.5], space)) == 0.0


def test_empirical_measure_refuses_unknown_spaces():
    # a misspelt space was read as the circle: W1 0.5 for a shift by 0.5
    with pytest.raises(PreconditionError, match="space"):
        EmpiricalMeasure([1.0, 2.0], "circel")


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
    # point masses, where the arc [0, x0) before the first sample carries
    # part of the transport: the exact values 2 pi - 5 and pi - 0.2
    one, six = (EmpiricalMeasure([x], "circle") for x in (1.0, 6.0))
    assert one.wasserstein1(six) == pytest.approx(2 * math.pi - 5, abs=1e-12)
    pair = EmpiricalMeasure([0.2, 0.4], "circle")
    assert pair.wasserstein1(pair.antipode()) == pytest.approx(
        math.pi - 0.2, abs=1e-12)


def _counted_gap(a, b, grid):
    """F_a - F_b on grid, each CDF counted by searchsorted on the sorted
    samples: the weight of the samples <= t."""
    def cdf(m):
        order = np.argsort(m.values)
        cw = np.append(0.0, np.cumsum(m.weights[order]))
        return cw[np.searchsorted(m.values[order], grid, side="right")]
    return cdf(a) - cdf(b)


def _tied_samples():
    r = np.random.default_rng(8)
    return (np.round(r.normal(size=1000), 2), np.ones(1000),
            np.round(r.normal(0.1, 1.2, size=1700), 2), np.ones(1700))


def _convolved_samples():
    # non-uniform weights: the atom weights times the sample weights
    r = np.random.default_rng(9)
    nu = EmpiricalMeasure(r.uniform(0, 2 * math.pi, 700), "circle")
    a = convolve_step(default_measure(), nu)
    b = convolve_step(volatile_measure(), convolve_step(default_measure(), nu))
    return a.values, a.weights, np.round(b.values, 1), b.weights


@pytest.mark.parametrize("make", [_tied_samples, _convolved_samples],
                         ids=["ties-unequal-sizes", "convolved-weights"])
def test_distances_match_counting_oracle(make):
    x1, w1, x2, w2 = make()
    a, b = EmpiricalMeasure(x1, "line", w1), EmpiricalMeasure(x2, "line", w2)
    grid = np.unique(np.concatenate([x1, x2]))
    gap = _counted_gap(a, b, grid)
    assert a.ks_distance(b) == pytest.approx(np.max(np.abs(gap)), abs=1e-12)
    assert a.wasserstein1(b) == pytest.approx(
        np.sum(np.abs(gap[:-1]) * np.diff(grid)), abs=1e-12)
    # circle: the gap is 0 on [0, grid[0]) and the best shift c is one of
    # the gap's values, since the integral is convex and piecewise linear
    # in c
    x1, x2 = np.mod(x1, 2 * math.pi), np.mod(x2, 2 * math.pi)
    a, b = (EmpiricalMeasure(x, "circle", w) for x, w in ((x1, w1), (x2, w2)))
    grid = np.unique(np.concatenate([x1, x2]))
    gap = np.append(0.0, _counted_gap(a, b, grid))
    seg = np.diff(grid, prepend=0.0, append=2 * math.pi)
    best = min(np.sum(np.abs(gap - c) * seg) for c in np.unique(gap))
    assert a.wasserstein1(b) == pytest.approx(best, abs=1e-12)


def _brute_ks(a, b):
    """max |F_a - F_b| over the pooled distinct values, each F the mass of
    the samples <= t: i / n for equal weights, else the cumulative weight
    in a stable sort."""
    grid = np.unique(np.concatenate([a.values, b.values]))

    def cdf(m):
        order = np.argsort(m.values, kind="stable")
        i = np.searchsorted(m.values[order], grid, side="right")
        if (m.weights == m.weights[0]).all():
            return i / len(m)
        return np.append(0.0, np.cumsum(m.weights[order]))[i]
    return float(np.max(np.abs(cdf(a) - cdf(b))))


def _ks_pairs():
    r = np.random.default_rng(12)
    tied = np.round(r.normal(size=(2, 3000)), 1)
    weights = r.random(3000)
    return [
        (EmpiricalMeasure(r.normal(size=700)),
         EmpiricalMeasure(r.normal(0.1, 1.0, size=900))),
        (EmpiricalMeasure(tied[0]), EmpiricalMeasure(tied[1])),
        (EmpiricalMeasure(tied[0, :400]),
         EmpiricalMeasure(tied[1], "line", weights)),
        (EmpiricalMeasure(tied[0, :400], "line", weights[:400]),
         EmpiricalMeasure(tied[1], "line", weights)),
    ]


@pytest.mark.parametrize("k", range(4), ids=["untied", "tied-equal-sizes",
                                             "weighted-larger",
                                             "both-weighted"])
def test_ks_is_symmetric_and_the_pooled_max_bit_for_bit(k):
    # the larger side weighted against an equal-weight smaller side, with
    # ties inside and across the samples
    a, b = _ks_pairs()[k]
    assert a.ks_distance(b) == b.ks_distance(a) == _brute_ks(a, b)


def test_ks_reads_left_limits_at_cross_sample_ties():
    # F_b - F_a is 3/5 on [0, 1), where a has no value, and b jumps at a's
    # value 1 too: the sup is a left limit at 1; F_b(1) there would read
    # 4/5 and the right values alone 1/2 - 4/5
    a = EmpiricalMeasure([1.0, 2.0])
    b = EmpiricalMeasure([0.0, 0.0, 0.0, 1.0, 2.0])
    assert a.ks_distance(b) == b.ks_distance(a) == 3 / 5 == _brute_ks(a, b)


@pytest.mark.parametrize("x, y, weights, ks", [
    ([0.0], [0.0], None, 0.0), ([0.0], [1.0], None, 1.0),
    ([1.0], [0.0, 1.0, 2.0], None, 1 - 2 / 3),
    ([1.0], [0.0, 1.0, 2.0], [3.0, 1.0, 0.0], 0.75),
], ids=["same-point", "two-points", "inside", "weighted"])
def test_ks_of_one_point_samples(x, y, weights, ks):
    a, b = EmpiricalMeasure(x), EmpiricalMeasure(y, "line", weights)
    assert a.ks_distance(b) == b.ks_distance(a) == ks == _brute_ks(a, b)


def test_ks_at_the_equidist_sizes_is_the_pooled_max():
    # a Cesaro law of 500,000 records against 2^15 orbit points, capped at
    # 1 as the equidist fibre values are, so both samples tie at the cap
    r = np.random.default_rng(13)
    a = EmpiricalMeasure(np.minimum(r.gamma(5.0, 0.2, 500000), 1.0))
    b = EmpiricalMeasure(np.minimum(r.gamma(5.0, 0.19, 2 ** 15), 1.0))
    assert a.ks_distance(b) == b.ks_distance(a) == _brute_ks(a, b)


# ---------------------------------------------------------------- limits


def test_word_product_matches_the_plain_product():
    # e^s P against the unrenormalised product w_k ... w_1, and the threshold
    # mode's k against the first k with log sup|w_k ... w_1| >= threshold
    r = np.random.default_rng(5)
    for letters in (default_measure().matrices, volatile_measure().matrices):
        for size in range(1, 7):
            word = [letters[i] for i in r.integers(0, len(letters), size)]
            plain, logs = np.eye(len(word[0])), []
            for k in range(1, 31):
                plain = word[(k - 1) % size] @ plain
                logs.append(math.log(np.max(np.abs(plain))))
                p, s, steps = _word_product(word, k)
                assert steps == k
                assert np.max(np.abs(math.exp(s) * p - plain)) \
                    <= 1e-12 * np.max(np.abs(plain))
            for threshold in (0.5, 3.3, 7.7, 12.1, 1e3):
                first = next((k for k, x in enumerate(logs, 1)
                              if x >= threshold), 30)
                assert _word_product(word, 30, threshold)[2] == first


def _numpy_word_product(word, steps, threshold=math.inf):
    """The renormalised product on numpy arrays, one matmul per letter: the
    reference for _word_product."""
    letters = [np.asarray(g, dtype=float) for g in word]
    p, s = np.eye(len(letters[0])), 0.0
    for k in range(1, steps + 1):
        p = letters[(k - 1) % len(letters)] @ p
        nrm = float(np.max(np.abs(p)))
        s += math.log(nrm)
        p /= nrm
        if s >= threshold:
            return p, s, k
    return p, s, steps


def _random_words(mats, r, count=40):
    """count words of 1-6 letters, each followed by its transposed letters
    (as limit_vector and limit_form multiply them)."""
    for size in r.integers(1, 7, count):
        word = [mats[i] for i in r.integers(0, len(mats), size)]
        yield word
        yield [g.T for g in word]


def _same_bits(x, y):
    """Equal bit for bit, reading -0.0 as 0.0: the BLAS accumulates each
    entry of a matmul from +0.0, so where both products a*p and b*r are
    zero it returns +0.0 and the float sum a*p + b*r may return -0.0."""
    return x.shape == y.shape and (x + 0.0).tobytes() == (y + 0.0).tobytes()


@pytest.mark.parametrize("measure", [default_measure, mixed_sign_measure])
def test_word_product_on_floats_matches_numpy_bit_for_bit(measure):
    # integer letters with entries in {-1, 0, 1, 2}: every a*p is exact, so
    # the float loop rounds each entry as numpy's matmul does
    r = np.random.default_rng(41)
    for word in _random_words(measure().matrices, r):
        for steps in (1, 2, 7, 60):
            got, want = _word_product(word, steps), \
                _numpy_word_product(word, steps)
            assert _same_bits(got[0], want[0]) and got[1:] == want[1:]
        for threshold in (0.5, 3.3, 7.7, 12.1, 1e3):
            got = _word_product(word, 60, threshold)
            want = _numpy_word_product(word, 60, threshold)
            assert _same_bits(got[0], want[0]) and got[1:] == want[1:]


def test_word_product_on_floats_is_within_rounding_on_volatile_letters():
    # non-integer letters: numpy's BLAS may fuse b*r + a*p into one rounding,
    # the float loop rounds both products; over 60 steps the two stay within
    # a few ulps of the sup-normalised product and of s
    r = np.random.default_rng(43)
    for word in _random_words(volatile_measure().matrices, r):
        p, s, k = _word_product(word, 60)
        q, t, j = _numpy_word_product(word, 60)
        assert k == j == 60
        assert np.max(np.abs(p - q)) <= 4e-15
        assert abs(s - t) <= 4e-15 * abs(t)


@pytest.mark.parametrize("word,step", [
    ([[[0.0, 1.0], [0.0, 0.0]]], 2),
    ([[[1.0, 1.0], [1.0, 1.0]], [[1.0, -1.0], [1.0, -1.0]]], 2),
    # e1 -> e1 -> e2 -> 0: the first two products are not zero
    ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
      [[1.0, 0.0], [0.0, 0.0]]], 3),
], ids=["nilpotent", "null-pair", "three-letters"])
def test_word_product_refuses_a_product_that_vanishes(word, step):
    with pytest.raises(PreconditionError, match=f"vanishes at step {step}$"):
        _word_product(word, 60)
    with pytest.raises(PreconditionError, match="vanishes"):
        limit_vector(word, 60)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("size", [2, 3])
def test_word_product_refuses_non_finite_letters(bad, size):
    g = np.eye(size)
    g[0, -1] = bad
    with pytest.raises(PreconditionError, match="finite"):
        _word_product([np.eye(size), g], 5)


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


def test_furstenberg_refuses_a_negative_burn_in():
    # it would leave the first five angles unwritten
    with pytest.raises(PreconditionError, match="burn_in"):
        sample_furstenberg(default_measure(), burn_in=-5, samples=10)


@pytest.mark.parametrize("start", [(0.0, 0.0), (math.nan, 1.0),
                                   (math.inf, 0.0)])
def test_furstenberg_refuses_a_zero_or_non_finite_start(start):
    with pytest.raises(PreconditionError, match="start"):
        sample_furstenberg(default_measure(), burn_in=10, samples=10,
                           start=start)


@pytest.mark.parametrize("samples", [0, -3, 1e3, 10.0, "10"])
def test_furstenberg_refuses_fewer_than_one_sample(samples):
    # -3 ended in numpy's "negative dimensions are not allowed", 1e3 in its
    # "expected a sequence of integers"
    with pytest.raises(PreconditionError, match="samples"):
        sample_furstenberg(volatile_measure(), burn_in=10, samples=samples)


@pytest.mark.parametrize("burn_in", [10.0, 2.5, None])
def test_furstenberg_refuses_a_non_integer_burn_in(burn_in):
    with pytest.raises(PreconditionError, match="burn_in"):
        sample_furstenberg(volatile_measure(), burn_in=burn_in, samples=10)


@pytest.mark.parametrize("samples", [1, 2, 3, 17, 100])
def test_furstenberg_lays_chains_out_chain_major(samples):
    # ceil(sqrt(samples)) chains of ceil(samples / chains) recorded steps:
    # the first `steps` samples are chain 0's consecutive steps, which the
    # same walk_boundary run reproduces
    mu = default_measure()
    nu = sample_furstenberg(mu, burn_in=3, samples=samples, seed=4)
    assert len(nu) == samples and nu.values.shape == (samples,)
    chains = math.ceil(math.sqrt(samples))
    steps = math.ceil(samples / chains)
    u = np.tile([1.0, 0.0], (chains, 1))
    first = [np.arctan2(u[:, 1], u[:, 0])[0]
             for k, _, _ in walk_boundary(mu, u, 3 + steps,
                                          np.random.default_rng(4)) if k > 3]
    assert np.array_equal(nu.values[:steps], np.mod(first, 2 * math.pi))
    assert ("autocorr" in nu.meta) == (samples > 2)


@pytest.mark.parametrize("mu", [default_measure(), volatile_measure()],
                         ids=["default", "volatile"])
def test_furstenberg_sample_gives_the_exact_lyapunov_exponent(mu):
    # Furstenberg's formula lam = sum_i w_i int log ||g_i u|| dnu(u) over the
    # sample, against the transfer operator's lam, an independent oracle:
    # 5 batch-means sigmas (50 batches of consecutive in-chain samples) plus
    # the grid's own error, read as its move from m = 1000 to m = 2000
    nu = sample_furstenberg(mu, burn_in=2000, samples=100000, seed=5)
    u = np.stack([np.cos(nu.values), np.sin(nu.values)], axis=1)
    per = sum(w * np.log(np.linalg.norm(u @ g.T, axis=1))
              for w, g in mu.atoms)
    means = per.reshape(50, -1).mean(axis=1)
    se = means.std(ddof=1) / math.sqrt(50)
    lam = transfer_spectrum(mu).lam
    grid = abs(lam - transfer_spectrum(mu, m=1000).lam)
    assert abs(per.mean() - lam) <= 5.0 * se + grid


# ---------------------------------------------------------------- cones


def test_detect_cone_positive_measures():
    assert detect_cone(default_measure()) == "true"
    assert detect_cone(volatile_measure()) == "true"


def test_detect_cone_mixed_sign():
    assert detect_cone(mixed_sign_measure()) == "false"


# a uniform pair whose atom 1 maps the hull's start, its own attracting
# fixed point, 1e-16 behind itself: the hull is invariant only if the
# containment slack holds at both ends of the arc
_CAPPED = StepMeasure.uniform([np.array([[1.04, 0.05], [0.04, 0.91]]),
                               np.array([[1.05, 0.01], [0.02, 1.01]])])


@pytest.mark.parametrize("mu, verdict", [
    (default_measure(), "true"),
    (volatile_measure(), "true"),
    # an elliptic atom fixes no point of the circle
    (mixed_sign_measure(), "false"),
    # det > 0 and real eigenvalues, but -[[2, 1], [1, 1]]'s are negative:
    # it sends its eigen-rays to their antipodes and fixes no circle point
    (StepMeasure.uniform([-np.array([[2.0, 1.0], [1.0, 1.0]]),
                          np.array([[1.0, 1.0], [1.0, 2.0]])]), "false"),
    # det < 0: the swap reverses the circle's orientation
    (StepMeasure.uniform([np.array([[0.0, 1.0], [1.0, 0.0]]),
                          np.diag([2.0, 0.5])]), "unknown"),
    (_CAPPED, "true"),
    # -I maps every arc to its antipode
    (StepMeasure.uniform([np.eye(2), -np.eye(2)]), "false"),
    (StepMeasure.uniform([-np.eye(2)]), "false"),
    # positive scalars fix every arc: none is canonical
    (StepMeasure.uniform([np.eye(2), 2.0 * np.eye(2)]), "unknown"),
], ids=["default", "volatile", "mixed_sign", "negated_hyperbolic", "swap",
        "capped", "plus_minus_identity", "minus_identity",
        "positive_scalars"])
def test_detect_cone_is_a_deterministic_rule(monkeypatch, mu, verdict):
    def no_rng(*args, **kwargs):
        raise AssertionError("detect_cone drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert detect_cone(mu) == verdict
    assert (invariant_arc(mu) is not None) == (verdict == "true")


def test_capped_measure_has_its_hull_as_arc():
    # the image start that rounds 1e-16 behind the hull's start counts as
    # contained, so the hull of the attracting directions is the arc
    assert invariant_arc(_CAPPED) == (0.27112843531180403, 0.15130107948000315)


def test_turned_invariant_arc_is_lifted_and_mapped_into_itself():
    # default's atoms turned by 2.5 rad: the refined hull's midpoint lies in
    # the lower half circle, so the arc is lifted to its antipode, which
    # starts at 6.195 rad
    c, s = math.cos(2.5), math.sin(2.5)
    rot = np.array([[c, -s], [s, c]])
    mu = StepMeasure.uniform([rot @ g @ rot.T
                              for g in default_measure().matrices])
    start, length = invariant_arc(mu)
    assert start == pytest.approx(6.195, abs=1e-3)
    assert 0.0 <= (start + length / 2) % (2 * math.pi) < math.pi
    t = start + length * np.linspace(0.0, 1.0, 101)
    for g in mu.matrices:
        img = g @ np.stack((np.cos(t), np.sin(t)))
        off = (np.arctan2(img[1], img[0]) - start) % (2 * math.pi)
        assert off.max() <= length + 1e-12


def test_a_capped_refinement_is_no_arc(monkeypatch):
    # _refine_arc tells the pass cap (False) from length pi (None): half of
    # default's arc holds one attracting direction, and its hull regrows to
    # the whole arc in more than one pass
    mu = default_measure()
    mats, arc = mu.matrices, invariant_arc(mu)
    half = (arc[0], arc[1] / 2)
    assert _refine_arc(mats, half, max_iter=1) is False
    start, length = _refine_arc(mats, half)
    assert start == arc[0] and abs(length - arc[1]) <= 1e-11
    assert _refine_arc(mats, (arc[0], math.pi - 0.01)) is None
    # _start_arc reads the cap as no arc and detect_cone as "unknown"; every
    # hull they start from is invariant after one pass, so the cap is
    # lowered to no pass at all
    monkeypatch.setattr(flagwalk.boundary, "_refine_arc",
                        functools.partial(_refine_arc, max_iter=0))
    assert _start_arc(mats, arc, (1.0, 0.0)) is None
    assert detect_cone(mu) == "unknown" and invariant_arc(mu) is None


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
    # 22 of the 50 walks are still outside both arcs after 100 steps: they
    # count for neither side; all have entered Lambda_2 by step 200
    p1, p2 = estimate_p1p2(mu, (1.0, 0.0), trials=50, horizon=100, seed=3)
    assert p1 + p2 == 28 / 50
    assert estimate_p1p2(mu, (1.0, 0.0), trials=50, horizon=200,
                         seed=3) == (0.0, 1.0)


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


def _harmonic_p1(mu):
    """p1 by value iteration of p1(x) = sum_i w_i p1(g_i x), independent of
    the Monte Carlo walk: p1 is 1 on Lambda_1 and 0 on Lambda_2, and
    p1(-x) = 1 - p1(x) since the atoms act linearly, so it is fixed by its
    values on an m-point midpoint grid of the one gap from the end of
    Lambda_1 to the start of Lambda_2, linearly interpolated (with the end
    values 1 and 0), iterated to a sweep change of 1e-14.  Returns p1 as a
    function of the angle."""
    m = 4000
    start, length = invariant_arc(mu)
    a, w = start + length, math.pi - length
    mids = (np.arange(m) + 0.5) * w / m
    nodes = np.concatenate([[0.0], mids, [w]])
    grid = np.stack([np.cos(a + mids), np.sin(a + mids)])
    images = []
    for wt, g in mu.atoms:
        y = g @ grid
        off = np.mod(np.arctan2(y[1], y[0]) - a, 2.0 * math.pi)
        images.append((wt, np.mod(off, math.pi), off >= math.pi))

    def interp(p, off, flip):
        # offsets past the gap (mod pi) lie in Lambda_2, or Lambda_1 if flipped
        v = np.interp(off, nodes, np.concatenate([[1.0], p, [0.0]]))
        return np.where(flip, 1.0 - v, v)

    p = np.zeros(m)
    for _ in range(5000):
        new = sum(wt * interp(p, off, flip) for wt, off, flip in images)
        done = np.max(np.abs(new - p)) <= 1e-14
        p = new
        if done:
            break
    else:
        raise AssertionError("value iteration did not converge")

    def p1(theta):
        off = (theta - a) % (2.0 * math.pi)
        return float(interp(p, off % math.pi, off >= math.pi))
    return p1


@pytest.mark.parametrize("mu, fractions", [
    # default p1 is a staircase; these starts sit inside its plateaus at
    # 1, 3/4, 1/2, 1/4 and 0, away from the jumps
    (default_measure(), (0.2, 0.427, 0.5, 0.573, 0.8)),
    (volatile_measure(), (0.35, 0.45, 0.5, 0.55, 0.65)),
], ids=["default", "volatile"])
def test_p1_matches_harmonic_grid_oracle(mu, fractions):
    p1_at = _harmonic_p1(mu)
    start, length = invariant_arc(mu)
    trials = 10000
    for i, f in enumerate(fractions):
        theta = start + length + f * (math.pi - length)
        p1, _ = estimate_p1p2(mu, (math.cos(theta), math.sin(theta)),
                              trials=trials, horizon=400, seed=40 + i)
        p = p1_at(theta)
        sigma = math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
        assert abs(p1 - p) <= 4.0 * sigma, (f, p1, p)


@pytest.mark.parametrize("mu", [default_measure(), volatile_measure()],
                         ids=["default", "volatile"])
def test_p1p2_antipodal_identity(mu):
    """The walk from -x is the exact negation of the walk from x, so p1 and
    p2 swap bit for bit."""
    for s, ang in enumerate(np.linspace(0.0, 2.0 * math.pi, 7,
                                        endpoint=False) + 0.2):
        x = np.array([math.cos(ang), math.sin(ang)])
        p1, p2 = estimate_p1p2(mu, x, trials=2000, seed=s)
        assert estimate_p1p2(mu, -x, trials=2000, seed=s) == (p2, p1)


@pytest.mark.parametrize("x, kwargs", [
    ((0.0, 0.0), {}), ((math.nan, 1.0), {}), ((1.0, 0.0, 0.0), {}),
    ((1.5e308, 1.5e308), {}), ((1.0, 0.0), {"trials": 0}),
    ((1.0, 0.0), {"horizon": -1}),
], ids=["zero", "nan", "3-vector", "overflow", "no-trials", "horizon"])
def test_p1p2_rejects_bad_starts_and_sizes(x, kwargs):
    # the overflowing start's norm hypot(x, y) is inf
    with pytest.raises(PreconditionError), np.errstate(over="ignore"):
        estimate_p1p2(default_measure(), x, **kwargs)


def test_p1p2_reads_a_huge_start_as_its_direction():
    # hypot(1e308, 1e308) = 1.4e308 is finite: the start is (1, 1) / sqrt 2,
    # as for every other boundary point
    mu = default_measure()
    assert estimate_p1p2(mu, (1e308, 1e308), trials=200, seed=3) \
        == estimate_p1p2(mu, (1.0, 1.0), trials=200, seed=3)


def test_p1p2_requires_cone():
    with pytest.raises(ConfigurationError):
        estimate_p1p2(mixed_sign_measure(), (1.0, 0.0), trials=10, seed=0)


# ---------------------------------------------------------- transfer operator


@pytest.mark.parametrize("mu, lam, tol", [
    # Furstenberg's formula summed over cylinders g_w . Lambda_1, each split
    # until its mass times its length is <= 1e-10
    (default_measure(), 0.9154795416, 2e-6),
    (volatile_measure(), 0.1303674420, 2e-7),
], ids=["default", "volatile"])
def test_transfer_spectrum_lyapunov_matches_cylinder_sums(mu, lam, tol):
    assert abs(transfer_spectrum(mu).lam - lam) <= tol


@pytest.mark.parametrize("mu, tol", [
    (default_measure(), 1e-7), (volatile_measure(), 1e-7),
    # no arc: the periodic grid on the projective line converges as 1/m,
    # 4e-5 from m = 1000 to 2000 and 6e-6 from 4000 to 8000
    (mixed_sign_measure(), 1e-4),
], ids=["default", "volatile", "mixed_sign"])
def test_transfer_spectrum_is_stable_in_the_grid(mu, tol):
    fine = transfer_spectrum(mu, (1.0, 0.0), s=0.0)
    coarse = transfer_spectrum(mu, (1.0, 0.0), s=0.0, m=1000)
    assert abs(fine.lam - coarse.lam) <= tol
    if fine.arc is not None:
        # P_0 1 = 1: Lambda(0) = 0 with a constant eigenfunction
        assert abs(fine.rate) <= 1e-12 and fine.ratio == 1.0


@pytest.mark.parametrize("g, w", [
    (np.diag([2.0, 0.5]), (1.0, 0.0)),   # the fixed point: one node
    (np.diag([2.0, 0.5]), (1.0, 1.0)),
    (np.array([[2.0, 1.0], [1.0, 1.0]]), (0.0, 1.0)),
])
def test_transfer_spectrum_of_one_atom(g, w):
    # P_s |l.u|^s = rho^s |l.u|^s for the left eigenvector l of g
    mu = StepMeasure(((1.0, g),))
    log_rho = math.log(max(abs(np.linalg.eigvals(g))))
    for s in (-1.0, -0.5, 0.5, 1.0):
        spec = transfer_spectrum(mu, w, s=s)
        assert spec.lam == log_rho
        assert abs(spec.rate - s * log_rho) <= 1e-6
        assert 0.0 <= spec.margin <= 1e-6


@pytest.mark.parametrize("m", [0, -3, 2.5])
def test_transfer_spectrum_refuses_a_grid_that_is_not_a_positive_integer(m):
    with pytest.raises(PreconditionError, match="m must be an integer"):
        transfer_spectrum(default_measure(), m=m)


@pytest.mark.parametrize("start", [(0.0, 0.0), (math.nan, 1.0),
                                   (1.0, 0.0, 0.0)],
                         ids=["zero", "nan", "3-vector"])
def test_transfer_spectrum_refuses_a_bad_start(start):
    # (0, 0) was read as angle 0, and (nan, 1) gave arc None and rate NaN
    with pytest.raises(PreconditionError, match="start"):
        transfer_spectrum(volatile_measure(), start)


def _gathered_grid_operator(mats, weights, arc, m, theta, s):
    """P_s on the grid with 1 - t formed at every sweep."""
    k, k1, t, logn = _grid_images(mats, arc, m, theta)
    c = weights * np.exp(s * logn)
    return lambda v: (c * ((1 - t) * v[k] + t * v[k1])).sum(0)


@pytest.mark.parametrize("measure", [default_measure, volatile_measure,
                                     mixed_sign_measure])
def test_transfer_spectrum_sweeps_read_the_gathered_formulas(measure,
                                                              monkeypatch):
    """lam against the nu sweep over a tiled gather v[rows] of the flat
    weights, and rate, margin and ratio against P_s forming 1 - t at every
    sweep: bit for bit."""
    mu = measure()
    got = transfer_spectrum(mu, (1.0, 0.0))
    mats = mu.matrices
    weights = np.array([w for w, _ in mu.atoms])[:, None]
    arc = invariant_arc(mu)
    k, k1, t, logn = _grid_images(mats, arc, _GRID, _grid_nodes(arc, _GRID))
    rows = np.tile(np.arange(_GRID), 2 * len(mats))
    cols = np.concatenate([k.ravel(), k1.ravel()])
    wts = np.concatenate([(weights * (1 - t)).ravel(), (weights * t).ravel()])
    nu, _ = _power(lambda v: np.bincount(cols, wts * v[rows],
                                         minlength=_GRID),
                   np.full(_GRID, 1.0 / _GRID), 1e-15)
    assert got.lam == float(nu @ (weights * logn).sum(0))
    monkeypatch.setattr(flagwalk.boundary, "_grid_operator",
                        _gathered_grid_operator)
    ref = transfer_spectrum(mu, (1.0, 0.0))
    assert (got.arc is None) == (measure is mixed_sign_measure)
    assert got.arc == ref.arc
    assert np.array_equal([got.rate, got.margin, got.ratio],
                          [ref.rate, ref.margin, ref.ratio], equal_nan=True)


def test_transfer_spectrum_without_an_arc_bounds_nothing():
    # no invariant arc at all, and a start in none of default's
    for mu, w in ((mixed_sign_measure(), (1.0, 0.0)),
                  (default_measure(), (1.0, -1.0))):
        spec = transfer_spectrum(mu, w)
        assert spec.arc is None and spec.ratio == math.inf
        assert spec.lower_tail(10, 0.0) == math.inf


@pytest.mark.parametrize("mu, start_arc_min, tol", [
    (volatile_measure(), 0.0025000, 5e-8),
    (default_measure(), 0.3465736, 5e-8),
    (mixed_sign_measure(), -0.9624, 5e-5),   # no arc: the whole circle
], ids=["volatile", "default", "mixed_sign"])
def test_min_log_norm_matches_a_dense_angle_grid(mu, start_arc_min, tol):
    # the closed-form min log ||g u|| is a lower bound within the grid's
    # resolution, on the start's invariant arc and on the whole circle
    arc = transfer_spectrum(mu, (1.0, 0.0)).arc
    for a in (arc, None):
        start, length = (0.0, math.pi) if a is None else a
        th = start + np.linspace(0.0, length, 200001)
        u = np.stack([np.cos(th), np.sin(th)])
        grid = min(np.log(np.hypot(*(g @ u))).min() for g in mu.matrices)
        m = _min_log_norm(mu.matrices, a)
        assert m <= grid + 1e-12 and grid - m <= 1e-7, a
    assert abs(_min_log_norm(mu.matrices, arc) - start_arc_min) <= tol


@pytest.mark.parametrize("mu, k, xs", [
    # volatile's sigma_20 has an atom of mass 0.95^20 = 0.358 at 0.663,
    # twenty small steps, where the bound reads 0.43
    (volatile_measure(), 20, (0.7, 1.0, 2.0)),
    (default_measure(), 20, (17.3, 17.5, 17.7)),
], ids=["volatile", "default"])
def test_chernoff_bound_dominates_monte_carlo_tail(mu, k, xs):
    # P(sigma_k <= x) <= ratio e^(x + k Lambda(-1)) from the start (1, 0),
    # at xs where the frequency is observable with 1e5 trials and the bound
    # is below 1
    trials = 100000
    w = np.array([1.0, 0.0])
    spec = transfer_spectrum(mu, w)
    U = np.tile(w, (trials, 1))
    for _, _, sigma in walk_boundary(mu, U, k, np.random.default_rng(3)):
        pass   # sigma_k at the last yield
    assert spec.lower_tail(k, xs[0]) < 1.0
    for x in xs:
        freq = np.mean(sigma <= x)
        assert freq > 0.0, x
        assert spec.lower_tail(k, x) >= freq, x
