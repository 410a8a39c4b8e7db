"""The benchmark's span tracer (perfbench/spans.py) wraps flagwalk functions
at named call sites and reads work counts from their arguments; a rename or
a signature change there breaks traced benchmark runs, so it fails here."""

import importlib
import os

import flagwalk.boundary
import flagwalk.bundle_walk
from flagwalk.examples import closed_geodesic_point, default_measure

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
