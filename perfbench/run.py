"""Run one workload of the flagwalk benchmark and print its result.

    python3 perfbench/run.py --workload cone-fibre --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The process is a closed loop with one
client: it builds the workload's inputs from --seed, then repeats the
workload's op list, one op at a time, until --seconds have passed, and
reports medians over the repeats.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced repeats and prints
the per-layer metrics.  End-to-end times are wall times scaled by the
host-speed reference of pace.py.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A fuller
result file, with an environment block, goes to .bench_out/results/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# BLAS and OpenMP read these when numpy loads, so they are set before any
# import that pulls numpy in.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cone-fibre", "volatile-tails", "algebra-exact")
SETUP_PROBES = 8
MIN_ROUNDS = 3


def os_threads():
    return len(os.listdir("/proc/self/task"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="only time import + input building, then exit")
    return p.parse_args(argv)


def _setup(workload, seed):
    """Import flagwalk and build every op input; returns (module, ops, s),
    the time scaled by the host-speed reference.  numpy is loaded before
    the clock starts, because the reference kernel needs it."""
    from pace import Pace
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pace = Pace()
    pace.start()
    try:
        t0 = time.perf_counter()
        import workloads
        ops = workloads.build(workload, seed,
                              os.path.join(OUT, "work", workload))
        t1 = time.perf_counter()
    finally:
        pace.stop()
    return workloads, ops, (t1 - t0) * pace.scale(t0, t1)


def _probe_setup(workload, seed):
    """Set-up time of a fresh process, measured inside that process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def _git_commit():
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, seed, ops):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS
                        + ("FLAGWALK_THREADS",)},
        "os_threads": os_threads(),
        "workload_seed": seed,
        "op_sizes": {op.name: op.sizes for op in ops},
    }


class Attempt:
    """One timed op: wall is its wall time from start, seconds that time
    scaled by the host-speed reference."""

    __slots__ = ("op", "round", "traced", "start", "wall", "seconds",
                 "digest", "error")

    def __init__(self, op, rnd, traced):
        self.op, self.round, self.traced = op, rnd, traced
        self.start = self.wall = self.seconds = None
        self.digest = self.error = None


def run_round(ops, rnd, traced, first, workloads):
    """Run the op list once; time each op alone, digest outside the timer."""
    out = []
    for op in ops:
        att = Attempt(op.name, rnd, traced)
        try:
            att.start = time.perf_counter()
            res = op.run()
            att.wall = time.perf_counter() - att.start
            if not workloads.all_finite(res):
                att.error = "non-finite output"
            att.digest = op.digest(res)
            first.setdefault(op.name, res)
        except Exception:
            att.error = traceback.format_exc(limit=3)
        out.append(att)
    return out


def measure(ops, seconds, trace, tracer, workloads, pace):
    """Repeat the op list until `seconds` have passed (at least MIN_ROUNDS
    times, and per traced/untraced side when tracing).  Stops before a
    round that would run past the budget.  The host-speed reference is
    sampled throughout and scales each op's wall time."""
    attempts, first = [], {}
    need = MIN_ROUNDS * (2 if trace else 1)
    pace.start()
    try:
        t_start = time.perf_counter()
        rnd = 0
        while True:
            traced = bool(trace) and rnd % 2 == 1
            if traced:
                tracer.round = rnd
                tracer.install()
            try:
                attempts.extend(run_round(ops, rnd, traced, first,
                                          workloads))
            finally:
                if traced:
                    tracer.uninstall()
            rnd += 1
            elapsed = time.perf_counter() - t_start
            if rnd >= need and elapsed * (rnd + 1) / rnd > seconds:
                break
    finally:
        pace.stop()
    for a in attempts:
        if a.wall is not None:
            a.seconds = a.wall * pace.scale(a.start, a.start + a.wall)
    return attempts, first


def quartiles(vals):
    if len(vals) < 2:
        return [vals[0]] * 3 if vals else []
    return [float(q) for q in statistics.quantiles(vals, n=4)]


def judge(ops, attempts, first):
    """Mark failed attempts: raised, non-finite, digest differs from the
    op's first digest, or the op's output fails its oracle."""
    oracle = {}
    for op in ops:
        if op.name not in first:
            oracle[op.name] = {"ok": False, "details": "no output"}
            continue
        try:
            ok, details = op.check(first[op.name])
        except Exception:
            ok, details = False, traceback.format_exc(limit=3)
        oracle[op.name] = {"ok": bool(ok), "details": details}
    ref = {}
    for a in attempts:
        if a.digest is not None:
            ref.setdefault(a.op, a.digest)
    for a in attempts:
        if a.error is None and a.digest != ref.get(a.op):
            a.error = "report digest differs between repeats"
        if a.error is None and not oracle[a.op]["ok"]:
            a.error = "oracle failed"
    return oracle, ref


def end_to_end(ops, attempts, setup_samples):
    """End-to-end metrics over the given attempts, and the samples behind
    them.  A slot's time in a round is the sum of its ops' times."""
    slot_of = {op.name: op.slot for op in ops}
    rounds = {}
    for a in attempts:
        if a.seconds is not None:
            rounds.setdefault(a.round, []).append(a)
    samples = {"setup_s": setup_samples, "run_s": []}
    for atts in rounds.values():
        samples["run_s"].append(sum(a.seconds for a in atts))
        per_slot = {}
        for a in atts:
            samples.setdefault(f"{a.op}_s", []).append(a.seconds)
            per_slot[slot_of[a.op]] = per_slot.get(slot_of[a.op], 0.0) \
                + a.seconds
        for slot, v in per_slot.items():
            samples.setdefault(slot, []).append(v)
    metrics = {"peak_rss_mb": {"value": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}}
    for key in ["setup_s", "run_s"] + sorted(set(slot_of.values())):
        metrics[key] = {"value": statistics.median(samples.get(key) or [0.0]),
                        "unit": "s"}
    return metrics, samples


def main(argv=None):
    args = _parse(argv)
    try:
        workloads, ops, setup_s = _setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import numpy as np
    from pace import Pace
    from spans import OVERHEAD, PER_LAYER, Tracer, check_layer_metrics

    setup_samples = [setup_s] + [_probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
    env = environment(np, args.seed, ops)
    tracer = Tracer() if args.trace else None
    pace = Pace()
    attempts, first = measure(ops, args.seconds, args.trace, tracer,
                              workloads, pace)
    oracle, digests = judge(ops, attempts, first)
    env["os_threads_at_end"] = os_threads()

    failed = sum(a.error is not None for a in attempts)
    untraced = [a for a in attempts if not a.traced]
    metrics, samples = end_to_end(ops, untraced, setup_samples)
    named = {k: dict(metrics[k], samples=len(samples.get(k, [1])))
             for k in ("setup_s", "run_s", "peak_rss_mb")}
    for op in ops:
        vals = samples.get(f"{op.name}_s", [])
        named[f"{op.name}_s"] = {"value": statistics.median(vals) if vals
                                 else None, "unit": "s",
                                 "samples": len(vals), "slot": op.slot}
    named["failed_op_share"] = {"value": failed / len(attempts),
                                "unit": "ratio", "samples": len(attempts)}
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "end_to_end": metrics, "named": named,
        "samples": samples,
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "wall_s": {op.name: [a.wall for a in untraced
                             if a.op == op.name and a.wall is not None]
                   for op in ops},
        "host_slowdown_quartiles": pace.slowdown(),
        "rounds": len({a.round for a in attempts}),
        "digests": digests, "oracles": oracle,
        "notes": {op.name: op.notes for op in ops if op.notes},
        "failures": [{"op": a.op, "round": a.round, "traced": a.traced,
                      "error": a.error} for a in attempts if a.error],
    }
    if args.trace:
        traced_rounds = sorted({a.round for a in attempts if a.traced})
        layer = tracer.layer_metrics(traced_rounds)
        traced_metrics, _ = end_to_end(
            ops, [a for a in attempts if a.traced], setup_samples)
        layer[OVERHEAD[0]] = {"value": traced_metrics["run_s"]["value"]
                              - metrics["run_s"]["value"], "unit": OVERHEAD[1]}
        result["per_layer"] = layer
        result["trace_check"] = check_layer_metrics(
            args.workload, layer, [m[0] for m in PER_LAYER] + [OVERHEAD[0]])
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.save(os.path.join(
            OUT, "traces", f"{args.workload}-seed{args.seed}.npz"))
        shown = layer
    else:
        shown = metrics
    contract = {"correct": failed == 0, "attempted": len(attempts),
                "failed": failed, "metrics": shown}
    result["result"] = contract
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} "
          f"rounds, {len(attempts)} ops, {failed} failed; result file {path}")
    print("  host slowdown (reference kernel time / REFERENCE_S), quartiles: "
          + ", ".join(f"{q:.3f}" for q in result["host_slowdown_quartiles"]))
    for name, m in (shown if args.trace else named).items():
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        if "slot" in m:
            extra += f"  reported as {m['slot']}"
        print(f"  {name:<50} {m['value']!s:>24} {m['unit']}{extra}")
    for f in result["failures"][:5]:
        print(f"  FAILED {f['op']} round {f['round']}: "
              f"{f['error'].strip().splitlines()[-1]}")
    print(json.dumps(contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
