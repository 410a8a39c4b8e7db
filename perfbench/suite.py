"""Run every workload, compare two result sets, and self-check traced runs.

    python3 perfbench/suite.py run --out DIR [--seeds 1 2 3] [--seconds 30] [--trace]
    python3 perfbench/suite.py compare BASE_DIR NEW_DIR
    python3 perfbench/suite.py check-trace DIR

`run` runs perfbench/run.py once per workload and seed (untraced, and also
traced with --trace), copies each result file into DIR, prints every
end-to-end metric by name with its unit, and with --trace checks the traces.
`compare` prints, for each end-to-end metric and workload, the median and
quartiles of both sides over their seeds and the verdict against the bound in
BENCHMARK.json.  `check-trace` checks that every traced result holds every
per-layer metric, that the "0 calls" predictions hold, and that its report
digests match the untraced run of the same workload and seed.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _workloads():
    return [w["name"] for w in _bench()["workloads"]]


def _load(directory, trace):
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            res = json.load(fh)
        if res.get("trace") == trace:
            out.append(res)
    return out


def _stats(vals):
    """(median, first quartile, third quartile) as statistics.quantiles
    gives them."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q2, q1, q3


def cmd_run(args):
    os.makedirs(args.out, exist_ok=True)
    traces = (0, 1) if args.trace else (0,)
    for w in _workloads():
        for seed in args.seeds:
            for trace in traces:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=600)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                src = os.path.join(ROOT, ".bench_out", "results",
                                   f"{w}-seed{seed}-trace{trace}.json")
                shutil.copy(src, args.out)
    ok = print_named(args.out)
    if args.trace:
        ok = cmd_check_trace(argparse.Namespace(dir=args.out)) == 0 and ok
    return 0 if ok else 1


def print_named(directory):
    """Every end-to-end metric of every workload, by name, with its unit."""
    ok = True
    for w in _workloads():
        results = [r for r in _load(directory, 0) if r["workload"] == w]
        if not results:
            continue
        print(f"{w}: {len(results)} run(s), seeds "
              f"{[r['seed'] for r in results]}")
        for name, m in results[0]["named"].items():
            vals = [r["named"][name]["value"] for r in results]
            med, q1, q3 = _stats(vals)
            slot = f"  (reported as {m['slot']})" if "slot" in m else ""
            print(f"  {name:<22} {med:>14.6g} {m['unit']:<6} "
                  f"quartiles [{q1:.6g}, {q3:.6g}]{slot}")
        ok = ok and all(r["result"]["correct"] for r in results)
    return ok


def cmd_compare(args):
    bench = _bench()
    base, new = _load(args.base, 0), _load(args.new, 0)
    regressed = False
    print(f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} verdict")
    for w in _workloads():
        b_runs = [r for r in base if r["workload"] == w]
        n_runs = [r for r in new if r["workload"] == w]
        if not b_runs or not n_runs:
            continue
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = _stats([r["result"]["metrics"][name]["value"] for r in b_runs])
            n = _stats([r["result"]["metrics"][name]["value"] for r in n_runs])
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (n[0] - b[0]) / b[0]
            base_spread = (b[2] - b[1]) / b[0]
            if change > bound:
                verdict, regressed = f"REGRESSED by {change:.1%} > {bound:.0%}", True
            elif -change > base_spread and -change > 0:
                verdict = f"improved by {-change:.1%} (base spread {base_spread:.1%})"
            else:
                verdict = f"within bound ({change:+.1%}, bound {bound:.0%})"
            print(f"{w:<15} {name:<12} "
                  f"{b[0]:>10.5g} [{b[1]:.5g}, {b[2]:.5g}]".ljust(62)
                  + f" {n[0]:>10.5g} [{n[1]:.5g}, {n[2]:.5g}]".ljust(35)
                  + f" {verdict}")
    return 1 if regressed else 0


def cmd_check_trace(args):
    from spans import check_layer_metrics
    bench = _bench()
    names = [m["name"] for m in bench["per_layer"]]
    untraced = {(r["workload"], r["seed"]): r for r in _load(args.dir, 0)}
    problems = []
    traced = _load(args.dir, 1)
    for r in traced:
        tag = f"{r['workload']} seed {r['seed']}"
        layer = r["result"]["metrics"]
        problems += [f"{tag}: {p}" for p in
                     check_layer_metrics(r["workload"], layer, names)]
        if not r["result"]["correct"]:
            problems.append(f"{tag}: traced run not correct")
        twin = untraced.get((r["workload"], r["seed"]))
        if twin is not None and twin["digests"] != r["digests"]:
            problems.append(f"{tag}: report digests differ from the "
                            "untraced run")
        print(f"{tag}: trace.overhead_s "
              f"{layer.get('trace.overhead_s', {}).get('value')}")
    for p in problems:
        print("PROBLEM", p)
    print(f"check-trace: {len(traced)} traced result(s), "
          f"{len(problems)} problem(s)")
    return 1 if problems or not traced else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run every workload")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", type=int, nargs="+", default=[1])
    r.add_argument("--seconds", type=int, default=_bench()["run_seconds"])
    r.add_argument("--trace", action="store_true")
    c = sub.add_parser("compare", help="compare two result directories")
    c.add_argument("base")
    c.add_argument("new")
    t = sub.add_parser("check-trace", help="self-check traced results")
    t.add_argument("dir")
    args = p.parse_args(argv)
    return {"run": cmd_run, "compare": cmd_compare,
            "check-trace": cmd_check_trace}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
