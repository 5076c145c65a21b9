"""Steadiness check for the benchmark: interleaved sets of runs, same code.

usage: python3 perfbench/steady.py [--workloads solve,sweep,cold-cli] [--traced]

Runs two sets of ten runs per workload, alternating between the sets run
by run, each run with its own seed and run_seconds from BENCHMARK.json.
For every end-to-end metric it prints each set's median and spread
(quartile distance over the median, as statistics.quantiles(values, n=4)
gives the quartiles) and the signed change of the second median from the
first.  Both spreads and the size of the change must be within the
metric's bound, in either direction.  It also requires the share of
failed operations to be the same in every run.  With --traced it instead makes two traced runs per workload and
requires every integer per-layer count to repeat exactly.  Run from the
root of the checkout; the summary goes to perfbench/runs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def worse_by(metric, first, second):
    """Signed share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def steadiness(spec, args):
    report = {}
    ok = True
    for w in args.workloads:
        sets = ([], [])
        for i in range(RUNS):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                r = one_run(w, 1000 * (k + 1) + i, spec["run_seconds"], 0)
                sets[k].append(r)
                print("%s set %d run %d: %.1fs %s" % (w, k, i, r["wall_s"], json.dumps(r)),
                      flush=True)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        rows = {}
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s] for s in sets]
            (sp0, med0), (sp1, med1) = spread(vals[0]), spread(vals[1])
            worse = worse_by(m, med0, med1)
            steady = abs(worse) <= m["bound"] and max(sp0, sp1) <= m["bound"]
            ok &= steady
            rows[m["name"]] = {"median": [med0, med1], "spread": [sp0, sp1],
                               "second_worse_by": worse, "bound": m["bound"],
                               "ok": steady, "values": vals}
            print("%-9s %-15s median %.5g / %.5g  spread %.3f / %.3f  worse by %+.3f"
                  "  bound %.2f  %s" % (w, m["name"], med0, med1, sp0, sp1, worse,
                                        m["bound"], "ok" if steady else "NOT STEADY"))
        ok &= len(shares) == 1 and correct
        print("%-9s failed share %s, all correct %s" % (w, sorted(shares), correct))
        report[w] = {"metrics": rows, "failed_shares": sorted(shares), "correct": correct}
    return ok, report


def traced_repeat(spec, args):
    report = {}
    ok = True
    for w in args.workloads:
        a = one_run(w, 1, spec["run_seconds"], 1)
        b = one_run(w, 2, spec["run_seconds"], 1)
        diff = {}
        for m in spec["per_layer"]:
            if m["unit"] in ("count", "bytes"):
                va, vb = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
                if va != vb:
                    diff[m["name"]] = [va, vb]
        ok &= not diff and a["correct"] and b["correct"]
        print("%-9s counts %s; trace overhead %.3f, %.3f" % (
            w, "repeat exactly" if not diff else "DIFFER %s" % diff,
            a["metrics"]["trace_overhead"]["value"], b["metrics"]["trace_overhead"]["value"]))
        report[w] = {"runs": [a, b], "differ": diff}
    return ok, report


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="solve,sweep,cold-cli")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args.workloads = args.workloads.split(",")
    ok, report = (traced_repeat if args.traced else steadiness)(spec, args)
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    name = "steady-%s-%d.json" % ("traced" if args.traced else "sets", time.time_ns())
    with open(os.path.join(HERE, "runs", name), "w") as fh:
        json.dump({"args": vars(args), "ok": ok, "report": report}, fh, indent=1)
    print("steady: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
