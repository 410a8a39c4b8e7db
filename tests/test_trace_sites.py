"""The benchmark's span tracer (perfbench/spans.py) wraps flagwalk functions
at named call sites and reads work counts from their arguments; a rename or
a signature change there breaks traced benchmark runs, so it fails here."""

import importlib
import os

import flagwalk.boundary
import flagwalk.bundle_walk
from flagwalk.cocycles import morphism_cocycle
from flagwalk.examples import closed_geodesic_point, default_measure, \
    mixed_sign_measure

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def test_trace_sites_install_and_count_orbit_points(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    orig = flagwalk.bundle_walk.orbit_shortest_values
    tracer = spans.Tracer()
    tracer.install()
    try:
        z0, _ = closed_geodesic_point()
        flagwalk.bundle_walk.orbit_shortest_values(z0, 1.0, 0.05)
    finally:
        tracer.uninstall()
    assert flagwalk.bundle_walk.orbit_shortest_values is orig
    spans_seen = tracer.arrays()
    ix = tracer.names.index("fiber.orbit_shortest_values")
    assert list(spans_seen["count"][spans_seen["name"] == ix]) == [20]


def test_trace_sites_count_one_period_per_equidist_call(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        z0, _ = closed_geodesic_point()
        flagwalk.bundle_walk.equidist_experiment(default_measure(), z0,
                                                 n=1000, trials=2, seed=0)
    finally:
        tracer.uninstall()
    spans_seen = tracer.arrays()
    ix = tracer.names.index("fiber.orbit_shortest_values")
    assert list(spans_seen["count"][spans_seen["name"] == ix]) == [32768]
    # in the cone case the walk is the only Monte Carlo run: no stationary
    # sample and no separate Lyapunov run
    for name in ("boundary.sample_furstenberg", "bundle_walk.lyapunov"):
        assert not (spans_seen["name"] == tracer.names.index(name)).any()


def test_trace_sites_see_no_stationary_sample_without_a_cone(monkeypatch):
    # the cone verdict comes from the atoms: no sampling, cone or not
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        z0, _ = closed_geodesic_point()
        res = flagwalk.bundle_walk.equidist_experiment(
            mixed_sign_measure(), z0, n=1000, trials=2, seed=0)
    finally:
        tracer.uninstall()
    assert res.cone == "false"
    spans_seen = tracer.arrays()
    ix = tracer.names.index("boundary.sample_furstenberg")
    assert not (spans_seen["name"] == ix).any()


def test_trace_sites_count_burn_in_plus_samples_per_furstenberg_call(
        monkeypatch):
    # spans.py reads the work from the argument names burn_in and samples
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    orig = flagwalk.boundary.sample_furstenberg
    tracer = spans.Tracer()
    tracer.install()
    try:
        flagwalk.boundary.sample_furstenberg(default_measure(), burn_in=10,
                                             samples=20, seed=0)
    finally:
        tracer.uninstall()
    assert flagwalk.boundary.sample_furstenberg is orig
    spans_seen = tracer.arrays()
    ix = tracer.names.index("boundary.sample_furstenberg")
    assert list(spans_seen["count"][spans_seen["name"] == ix]) == [30]


def test_trace_sites_install_and_count_p1p2_steps(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    orig = flagwalk.boundary.estimate_p1p2
    tracer = spans.Tracer()
    tracer.install()
    try:
        flagwalk.boundary.estimate_p1p2(default_measure(), (1.0, 0.0),
                                        trials=10, horizon=30, seed=0)
    finally:
        tracer.uninstall()
    assert flagwalk.boundary.estimate_p1p2 is orig
    spans_seen = tracer.arrays()
    ix = tracer.names.index("boundary.estimate_p1p2")
    assert list(spans_seen["count"][spans_seen["name"] == ix]) == [300]


def test_trace_sites_see_one_reduction_per_tile_of_a_trivial_fibre(
        monkeypatch):
    # the base is walked by walk_boundary, so the lattice walk's blocks are
    # sized by the identity's norm alone: one block, and one Gauss
    # reduction, per tile of max(1, 2^15 // 5) = 6553 steps
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        z0, _ = closed_geodesic_point()
        x = flagwalk.bundle_walk.BundlePoint((1.0, 0.0), z0)
        flagwalk.bundle_walk.cesaro_distribution(
            default_measure(), x, 20000, 5, 1.0,
            morphism_cocycle(None, dim=2, trivial=True), seed=3)
    finally:
        tracer.uninstall()
    spans_seen = tracer.arrays()
    ix = tracer.names.index("fiber.reduce_batch")
    assert (spans_seen["name"] == ix).sum() == 4
    ix = tracer.names.index("bundle_walk.cesaro_distribution")
    assert list(spans_seen["count"][spans_seen["name"] == ix]) == [100000]


def test_trace_sites_count_bases_per_reduction_of_a_decompose_run(
        monkeypatch):
    # reduce_batch runs on a view of the walk's component-major block, and
    # its span counts the view's bases: (records + 1) * 2 trials per block.
    # n = 12000 at the default stride 2 is 6000 records; 2 trials walk 4
    # columns in tiles of 2^15 // 4 = 8192 steps, 8192 + 3808, cut into
    # 1171 + 544 blocks of at most 7 steps
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        z0, _ = closed_geodesic_point()
        flagwalk.bundle_walk.decomposability_experiment(
            default_measure(), lambda g: g, z0, n=12000, trials=2, seed=0)
    finally:
        tracer.uninstall()
    spans_seen = tracer.arrays()
    ix = tracer.names.index("fiber.reduce_batch")
    counts = spans_seen["count"][spans_seen["name"] == ix]
    assert len(counts) == 1171 + 544
    # 3 or 4 records in 7 steps, 1 in the first tile's last block of 2
    assert set(counts.tolist()) == {2 * 4, 4 * 4, 5 * 4}
    assert counts.sum() == (6000 + 1171 + 544) * 2 * 2
