"""Benchmark for charbounds: certified extrema, end to end and per layer.

usage: python3 perfbench/run.py --workload {solve,sweep,cold-cli}
           --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src, never from an installed copy.  With --trace 0 the run times whole
passes of the workload's request list, in an order drawn from the seed,
until S seconds of passes have been timed.  Each pass's outputs are
checked after the pass, outside the timing.  Set-up is then timed in
fresh processes.  With --trace 1 it runs one untraced pass
and one pass with per-layer timing.  The last line of stdout is one
JSON object; details of the run go to perfbench/runs/.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "sweep", "cold-cli")
# fresh processes timed per run for setup_s: fewer where set-up is long,
# more where it is short and noisy
SETUP_PROBES = {"solve": 3, "sweep": 5, "cold-cli": 9}

# one BLAS/OpenMP thread, for this process and every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CHARBOUNDS_CACHE", None)

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the workload's set-up and exit (used to time set-up)")
    return p.parse_args(argv)


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "charbounds", "__init__.py")):
        raise SystemExit("perfbench: no charbounds sources under %s" % src)
    sys.path.insert(0, src)
    import charbounds

    if os.path.dirname(os.path.dirname(os.path.abspath(charbounds.__file__))) != src:
        raise SystemExit("perfbench: imported charbounds from %s" % charbounds.__file__)


def environment():
    import numpy
    import sympy
    from charbounds.polynomials import QQ

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "qq_backend": "%s.%s" % (QQ.__module__, QQ.__name__),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def cpu_seconds(who):
    u = resource.getrusage(who)
    return u.ru_utime + u.ru_stime


def run_pass(requests, order):
    """Time one pass; returns [(index, seconds, result, error)], wall and CPU seconds."""
    done = []
    cpu0 = cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN)
    t_start = time.perf_counter()
    for i in order:
        t0 = time.perf_counter()
        try:
            result, error = requests[i].call(), None
        except Exception as e:  # a failed request is counted, not fatal
            result, error = None, e
        done.append((i, time.perf_counter() - t0, result, error))
    wall = time.perf_counter() - t_start
    cpu = cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN) - cpu0
    return done, wall, cpu


def pass_order(workload, n, rng):
    if workload == "cold-cli":
        return workloads.cold_order(rng)
    order = list(range(n))
    rng.shuffle(order)
    return order


class Tally:
    """Checks each pass's outputs after the pass, then keeps only the timings."""

    def __init__(self, requests):
        self.requests = requests
        self.samples = []
        self.failed = 0
        self.problems = []

    def add(self, pass_index, done):
        for i, seconds, result, error in done:
            name = self.requests[i].name
            self.samples.append({"pass": pass_index, "name": name, "s": seconds,
                                 "error": None if error is None else type(error).__name__})
            if error is not None:
                self.failed += 1
                # only the known faults may fail, and only in their known way
                if workloads.KNOWN_FAULTS.get(name) != type(error).__name__:
                    self.problems.append("%s (pass %d) failed: %s: %s" % (
                        name, pass_index, type(error).__name__, error))
                continue
            for p in self.requests[i].check(result):
                self.problems.append("%s (pass %d): %s" % (name, pass_index, p))


def timed_run(args, requests, ctx, tally):
    rng = random.Random(args.seed)
    wall = cpu = 0.0
    passes = 0
    while True:
        ctx.pass_index = passes
        done, w, c = run_pass(requests, pass_order(args.workload, len(requests), rng))
        tally.add(passes, done)
        wall, cpu, passes = wall + w, cpu + c, passes + 1
        if wall >= args.seconds:
            break
    ok = [s for s in tally.samples if s["error"] is None]
    by_kind = {}
    for s in ok:
        by_kind.setdefault(s["name"], []).append(s["s"])
    if args.workload == "cold-cli":
        peak_kb = ctx.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_rps": len(ok) / wall,
        "latency_gmean_s": math.exp(statistics.mean(
            math.log(statistics.median(v)) for v in by_kind.values())),
        "cpu_per_req_s": cpu / len(ok),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return metrics, {"passes": passes, "timed_s": wall}


def setup_seconds(args):
    """Median wall time of fresh processes that only do the set-up."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES[args.workload]):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


# layers each workload must reach in a traced pass
EXERCISED = {
    "solve": ("algsolve.solve_zero_dim", "algsolve.groebner", "algsolve.fglm_lex",
              "algsolve.isolate_real_roots", "compactcert.extremum",
              "compactcert.critical_ideal", "compactcert.is_compact_point",
              "rootdata.corners", "invder.derivation_matrix", "charring.expand",
              "charring.decompose"),
    "sweep": ("algsolve.solve_zero_dim", "algsolve.groebner", "compactcert.extremum",
              "compactcert.is_compact_point", "rootdata.corners",
              "invder.derivation_matrix", "charring.irreducible_character",
              "branch.branch_minimize", "su2asym.su2_min"),
    "cold-cli": ("invder.derivation_matrix", "rootdata.corners", "compactcert.extremum",
                 "su2asym.su2_min", "algsolve.solve_zero_dim"),
}


def traced_run(args, requests, ctx, tally):
    import spans

    order = pass_order(args.workload, len(requests), random.Random(args.seed))
    done, untraced, _ = run_pass(requests, order)
    tally.add(0, done)

    ctx.pass_index = 1
    ctx.traced_children = args.workload == "cold-cli"
    tracer = spans.Tracer()
    tracer.install()
    try:
        done, traced, _ = run_pass(requests, order)
    finally:
        tracer.uninstall()
    tally.add(1, done)
    counters = tracer.counters()
    counters["cli.import_s"] = counters["cli.main.s"] = 0.0
    for child in ctx.child_counters:
        spans.merge(counters, child)
    cache_dir = ctx.pass_cache() if args.workload == "cold-cli" else ctx.cache
    counters["invder.cache_bytes"] = spans.directory_bytes(cache_dir)
    counters["algsolve.shear_attempts"] = (
        counters["algsolve.groebner.calls"] - counters["algsolve.solve_zero_dim.calls"]
    )
    counters["pass_s"] = untraced
    counters["traced_pass_s"] = traced
    counters["trace_overhead"] = traced / untraced
    tally.problems += ["layer %s recorded no calls" % layer
                       for layer in EXERCISED[args.workload]
                       if not counters[layer + ".calls"]]
    if args.workload == "cold-cli" and not counters["cli.import_s"]:
        tally.problems.append("layer cli recorded no time")
    return counters, {}


def main(argv=None):
    args = parse_args(argv)
    import_library()
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = os.path.join(work_root, "%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(work)
    try:
        ctx = workloads.Context(ROOT, work)
        os.environ["CHARBOUNDS_CACHE"] = ctx.cache
        requests = workloads.setup(args.workload, ctx)
        if args.setup_only:
            return 0

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        tally = Tally(requests)
        tally.problems += workloads.setup_checks(args.workload, ctx)
        if args.trace:
            values, extra = traced_run(args, requests, ctx, tally)
            wanted = spec["per_layer"]
        else:
            values, extra = timed_run(args, requests, ctx, tally)
            values["setup_s"], extra["setup_probes_s"] = setup_seconds(args)
            wanted = spec["end_to_end"]

        result = {
            "correct": not tally.problems,
            "attempted": len(tally.samples),
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }
        env = environment()
        record = {"args": vars(args), "environment": env, "result": result, "extra": extra,
                  "problems": tally.problems, "requests": tally.samples}
        runs_dir = os.path.join(HERE, "runs")
        os.makedirs(runs_dir, exist_ok=True)
        name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace,
                                              time.time_ns())
        with open(os.path.join(runs_dir, name), "w") as fh:
            json.dump(record, fh, indent=1)
        for p in tally.problems[:20]:
            print("perfbench: check failed: %s" % p, file=sys.stderr)
        print("perfbench: %s" % json.dumps(env, sort_keys=True), file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
