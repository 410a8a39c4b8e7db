"""Span tracing of flagwalk's public functions, from outside the package.

Each traced function is replaced by a wrapper at every module attribute its
callers look it up through (for example `flagwalk.bundle_walk.reduce_batch`,
since bundle_walk imports it by name).  No file of the package is edited:
install() swaps the attributes and uninstall() puts the originals back.

A span records {id, name, parent, start, end}, the benchmark round it belongs
to, and a work count taken from the call's arguments (bases, steps x trials,
points).  Spans are kept in column arrays in memory and written out at exit.
A span's self time is its duration minus the time its child spans cover.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np


def _ldp_steps(a):
    # ldp_tail walks to the largest grid point; its default grid ends at 2000
    return (max(a["n_grid"]) if a["n_grid"] else 2000) * a["trials"]


# (span name, call sites "module:attribute.path", work count from arguments)
TARGETS = [
    ("cli.run", ["flagwalk.cli:run"], None),
    ("bundle_walk.equidist_experiment",
     ["flagwalk.cli:equidist_experiment"], None),
    ("bundle_walk.decomposability_experiment",
     ["flagwalk.cli:decomposability_experiment"], None),
    ("bundle_walk.cesaro_distribution",
     ["flagwalk.bundle_walk:cesaro_distribution"],
     lambda a: a["n"] * a["trials"]),
    ("bundle_walk.lyapunov",
     ["flagwalk.cli:lyapunov", "flagwalk.bundle_walk:lyapunov"],
     lambda a: a["n"] * a["trials"]),
    ("bundle_walk.ldp_tail", ["flagwalk.cli:ldp_tail"], _ldp_steps),
    ("bundle_walk.renewal_sum", ["flagwalk.cli:renewal_sum"],
     lambda a: a["k_max"] * a["trials"]),
    ("fiber.reduce_batch", ["flagwalk.bundle_walk:reduce_batch"],
     lambda a: a["B"].shape[0]),
    ("fiber.orbit_shortest_values",
     ["flagwalk.bundle_walk:orbit_shortest_values"],
     lambda a: int(round(a["T"] / a["dt"]))),
    ("boundary.detect_cone",
     ["flagwalk.bundle_walk:detect_cone", "flagwalk.cli:detect_cone"], None),
    ("boundary.invariant_arc",
     ["flagwalk.boundary:invariant_arc", "flagwalk.bundle_walk:invariant_arc",
      "flagwalk.cli:invariant_arc"], None),
    ("boundary.sample_furstenberg",
     ["flagwalk.boundary:sample_furstenberg",
      "flagwalk.bundle_walk:sample_furstenberg"],
     lambda a: a["burn_in"] + a["samples"]),
    ("boundary.estimate_p1p2", ["flagwalk.boundary:estimate_p1p2"],
     lambda a: a["horizon"] * a["trials"]),
    ("boundary.ks_distance", ["flagwalk.boundary:EmpiricalMeasure.ks_distance"],
     None),
    ("group_core.iwasawa_decompose",
     ["flagwalk.group_core:iwasawa_decompose",
      "flagwalk.cocycles:iwasawa_decompose"], None),
    ("cocycles.iwasawa_cocycle", ["flagwalk.cocycles:iwasawa_cocycle"], None),
    ("cocycles.alpha_cocycle", ["flagwalk.cocycles:alpha_cocycle"], None),
    ("cocycles.cross_ratio",
     ["flagwalk.cocycles:cross_ratio", "flagwalk.cli:cross_ratio"], None),
    ("classifier.classify",
     ["flagwalk.classifier:classify", "flagwalk.cli:classify"], None),
]

# (metric, span name, statistic, unit, better).  Statistics, per traced round:
# calls; count (summed work); self_s; rate (work / inclusive seconds);
# us_per_call / ms_per_call (inclusive seconds per call).
PER_LAYER = [
    ("bundle_walk.cesaro_distribution.self_s",
     "bundle_walk.cesaro_distribution", "self_s", "s", "lower"),
    ("bundle_walk.cesaro_distribution.step_trials_per_s",
     "bundle_walk.cesaro_distribution", "rate", "1/s", "higher"),
    ("bundle_walk.lyapunov.step_trials_per_s",
     "bundle_walk.lyapunov", "rate", "1/s", "higher"),
    ("bundle_walk.ldp_tail.step_trials_per_s",
     "bundle_walk.ldp_tail", "rate", "1/s", "higher"),
    ("bundle_walk.renewal_sum.step_trials_per_s",
     "bundle_walk.renewal_sum", "rate", "1/s", "higher"),
    ("bundle_walk.decomposability_experiment.self_s",
     "bundle_walk.decomposability_experiment", "self_s", "s", "lower"),
    ("fiber.reduce_batch.calls", "fiber.reduce_batch", "calls", "count",
     "lower"),
    ("fiber.reduce_batch.bases_per_s", "fiber.reduce_batch", "rate", "1/s",
     "higher"),
    ("fiber.reduce_batch.self_s", "fiber.reduce_batch", "self_s", "s",
     "lower"),
    ("fiber.orbit_shortest_values.points", "fiber.orbit_shortest_values",
     "count", "count", "lower"),
    ("fiber.orbit_shortest_values.points_per_s",
     "fiber.orbit_shortest_values", "rate", "1/s", "higher"),
    ("boundary.invariant_arc.calls", "boundary.invariant_arc", "calls",
     "count", "lower"),
    ("boundary.sample_furstenberg.calls", "boundary.sample_furstenberg",
     "calls", "count", "lower"),
    ("boundary.sample_furstenberg.steps", "boundary.sample_furstenberg",
     "count", "count", "lower"),
    ("boundary.sample_furstenberg.steps_per_s", "boundary.sample_furstenberg",
     "rate", "1/s", "higher"),
    ("boundary.detect_cone.self_s", "boundary.detect_cone", "self_s", "s",
     "lower"),
    ("boundary.estimate_p1p2.calls", "boundary.estimate_p1p2", "calls",
     "count", "lower"),
    ("boundary.estimate_p1p2.step_trials_per_s", "boundary.estimate_p1p2",
     "rate", "1/s", "higher"),
    ("boundary.ks_distance.self_s", "boundary.ks_distance", "self_s", "s",
     "lower"),
    ("group_core.iwasawa_decompose.calls", "group_core.iwasawa_decompose",
     "calls", "count", "lower"),
    ("group_core.iwasawa_decompose.us_per_call",
     "group_core.iwasawa_decompose", "us_per_call", "us", "lower"),
    ("cocycles.iwasawa_cocycle.us_per_call", "cocycles.iwasawa_cocycle",
     "us_per_call", "us", "lower"),
    ("cocycles.alpha_cocycle.us_per_call", "cocycles.alpha_cocycle",
     "us_per_call", "us", "lower"),
    ("cocycles.cross_ratio.ms_per_call", "cocycles.cross_ratio",
     "ms_per_call", "ms", "lower"),
    ("classifier.classify.ms_per_call", "classifier.classify", "ms_per_call",
     "ms", "lower"),
    ("cli.run.self_s", "cli.run", "self_s", "s", "lower"),
]
OVERHEAD = ("trace.overhead_s", "s", "lower")

# Layer metrics predicted to read 0 on a workload, because that workload
# never calls the layer.
ZERO_CALLS = {
    "volatile-tails": ["fiber.reduce_batch.calls",
                       "fiber.orbit_shortest_values.points",
                       "boundary.invariant_arc.calls",
                       "boundary.sample_furstenberg.calls",
                       "boundary.estimate_p1p2.calls",
                       "group_core.iwasawa_decompose.calls"],
    "cone-fibre": ["group_core.iwasawa_decompose.calls"],
    "algebra-exact": ["fiber.reduce_batch.calls",
                      "boundary.invariant_arc.calls",
                      "boundary.estimate_p1p2.calls"],
}


def _resolve(site):
    """(owner object, attribute name) of a "module:attr.path" site."""
    modname, path = site.split(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = []
        self.round = -1
        self._stack = [-1]
        self._saved = []
        self.cols = {"name": array("q"), "parent": array("q"),
                     "round": array("q"), "count": array("q"),
                     "start": array("d"), "end": array("d")}
        self._wrappers = [self._wrap(name, _resolve(sites[0]), count)
                          for name, sites, count in TARGETS]

    def _wrap(self, name, site, count):
        owner, attr = site
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if count is not None else None
        ix = len(self.names)
        self.names.append(name)
        cols, stack = self.cols, self._stack
        c_name, c_parent, c_round = cols["name"], cols["parent"], cols["round"]
        c_count, c_start, c_end = cols["count"], cols["start"], cols["end"]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is None:
                work = 0
            else:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work = int(count(bound.arguments))
            sid = len(c_name)
            c_name.append(ix)
            c_parent.append(stack[-1])
            c_round.append(self.round)
            c_count.append(work)
            c_end.append(0.0)
            stack.append(sid)
            c_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                c_end[sid] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Put every wrapper at each of its call sites."""
        for (_, sites, _), wrapper in zip(TARGETS, self._wrappers):
            for site in sites:
                owner, attr = _resolve(site)
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def arrays(self):
        out = {k: np.frombuffer(v, dtype=np.int64 if v.typecode == "q"
                                else np.float64).copy()
               for k, v in self.cols.items()}
        dur = out["end"] - out["start"]
        has = out["parent"] >= 0
        child = np.bincount(out["parent"][has], weights=dur[has],
                            minlength=len(dur))
        out["self"] = dur - child
        out["dur"] = dur
        return out

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            id=np.arange(len(a["name"])), name=a["name"],
                            parent=a["parent"], start=a["start"],
                            end=a["end"], count=a["count"], round=a["round"])

    def layer_metrics(self, rounds):
        """Per-layer metrics: each statistic per traced round, then the
        median over those rounds."""
        a = self.arrays()
        per_round = []
        for r in rounds:
            sel = a["round"] == r
            stats = {}
            for ix, name in enumerate(self.names):
                m = sel & (a["name"] == ix)
                calls = int(np.count_nonzero(m))
                dur = float(a["dur"][m].sum())
                stats[name] = {"calls": calls, "dur": dur,
                               "self_s": float(a["self"][m].sum()),
                               "count": int(a["count"][m].sum())}
            per_round.append(stats)
        out = {}
        for metric, span, stat, unit, _ in PER_LAYER:
            vals = []
            for stats in per_round:
                s = stats[span]
                if stat in ("calls", "self_s", "count"):
                    vals.append(s[stat])
                elif s["calls"] == 0:
                    vals.append(0.0)
                elif stat == "rate":
                    vals.append(s["count"] / s["dur"])
                elif stat == "us_per_call":
                    vals.append(1e6 * s["dur"] / s["calls"])
                else:
                    vals.append(1e3 * s["dur"] / s["calls"])
            out[metric] = {"value": float(np.median(vals)), "unit": unit}
        return out


def check_layer_metrics(workload, metrics, expected_names):
    """Problems with a traced run's per-layer metrics: missing names, and
    predicted-zero metrics that are not zero."""
    problems = [f"missing per-layer metric {m}" for m in expected_names
                if m not in metrics]
    for m in ZERO_CALLS.get(workload, []):
        if m in metrics and metrics[m]["value"] != 0:
            problems.append(f"{m} predicted 0 on {workload}, "
                            f"got {metrics[m]['value']}")
    return problems
