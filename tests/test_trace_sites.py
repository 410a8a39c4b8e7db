"""The benchmark's span tracer (perfbench/spans.py) wraps flagwalk functions
at named call sites and reads work counts from their arguments; a rename or
a signature change there breaks traced benchmark runs, so it fails here."""

import importlib
import os

import flagwalk.bundle_walk
from flagwalk.examples import closed_geodesic_point

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
