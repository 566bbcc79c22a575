"""Run one benchmark workload against ``src/vknots`` and print its metrics.

    python3 perfbench/run.py --workload {fuzz,report,jones,all} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports the program from the
checkout's ``src/`` and nothing else.  Each workload is a closed loop with
one client in one thread: the next op starts when the previous one ends.
``BENCHMARK.json`` gates on fuzz and jones only.  report runs by name: three
workloads at a run length that is steady on a shared two-core host do not
fit the time the whole set of gated runs may take, and fuzz already runs the
layers report stresses.

--trace 0  runs ops for S seconds and prints the end-to-end metrics:
           setup_s, wall_s, ops_per_s, op_p50_ms, op_tail_ms, peak_rss_mb,
           plus error_rate (failed / attempted) on its own line.
--trace 1  runs a fixed, seed-determined op list (whole cycles of the
           workload's class pattern), each op once untraced and once
           traced, prints the per-layer table and metrics, and writes the
           spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--workload
all`` each workload's object is printed first and the last line sums them,
naming metrics ``<workload>.<metric>`` (peak_rss_mb is then the process's
peak so far).  An op fails when it raises or its output differs from the
corpus's recorded answer; the run is correct when no op, the warm-up
included, failed.  The exit code is 0
whenever that line is printed, and 2 when the program cannot be imported.
"""

import os

# One thread for any BLAS/OpenMP pool numpy might start; set before numpy
# is imported, here and in the set-up processes this one starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("fuzz", "report", "jones")
# setup_s is the median of set-ups in this process and in fresh child
# processes: at least SETUP_RUNS, and more (up to SETUP_MAX_RUNS) until they
# add up to SETUP_SECONDS, so that short set-ups still give a steady median.
SETUP_RUNS = 3
SETUP_SECONDS = 3.0
SETUP_MAX_RUNS = 20
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TRACE_SHARE = 0.4  # rough share of --seconds the untraced op list takes


class ProgramMissing(Exception):
    pass


def set_up(name):
    """Import the program, build the workload and run one warm-up op.

    Returns (workload, warm-up ok, seconds taken).  The warm-up op is the
    corpus's fixed warm-up item, so set-up does the same work every seed;
    it fills the caches the op uses (the determinant engine's primes and
    Vandermonde inverses, on fuzz and report) before anything is timed.
    """
    t0 = time.perf_counter()
    if not (SRC / "vknots" / "__init__.py").is_file():
        raise ProgramMissing(f"no vknots package under {SRC}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import vknots

    if Path(vknots.__file__).resolve().parent != SRC / "vknots":
        raise ProgramMissing(f"vknots imported from {vknots.__file__}, not {SRC}")
    from perfbench import workloads

    wl = workloads.WORKLOADS[name]()
    _, ok = run_checked(wl, wl.warmup)
    return wl, ok, time.perf_counter() - t0


def run_checked(wl, item):
    """Run one op; return (seconds, ok).  Raising counts as failing."""
    t0 = time.perf_counter()
    try:
        result = wl.run(item)
    except Exception:
        elapsed = time.perf_counter() - t0
        print(f"op raised on {_describe(item)}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - t0
    ok = wl.check(item, result)
    if not ok:
        print(f"wrong result on {_describe(item)}", file=sys.stderr)
    return elapsed, ok


def _describe(item):
    return ", ".join(f"{k}={v}" for k, v in item.items() if k != "code")


def child_set_up(name):
    """Time a set-up in a fresh interpreter; None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"] if out["correct"] else None


def timed_phase(wl, seed, seconds):
    """Closed loop for ``seconds``; returns (op durations, failed, wall)."""
    ops = wl.schedule(seed)
    durations, failed = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        elapsed, ok = run_checked(wl, next(ops))
        durations.append(elapsed)
        failed += not ok
    return durations, failed, time.perf_counter() - start


def tail(durations):
    """(value, percentile) of the highest percentile that leaves at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(load_start):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "loadavg_start": load_start,
    }


def traced_pass(wl, items):
    """Run every op twice, untraced and traced, alternating which goes
    first, so both sides share the machine's slow and fast spells.

    Returns (tracer, untraced seconds, traced seconds, failed ops); the
    tracer's wrappers are installed only around the traced runs.
    """
    from perfbench import tracing

    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    failed = 0
    for op_id, item in enumerate(items):
        for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    with tracer.op(op_id):
                        elapsed, ok = run_checked(wl, item)
                finally:
                    tracer.uninstall()
                traced_s += elapsed
            else:
                elapsed, ok = run_checked(wl, item)
                untraced_s += elapsed
            failed += not ok
    return tracer, untraced_s, traced_s, failed


def measure(wl, args, setup_times):
    """--trace 0: (attempted, failed, metrics) of the timed closed loop."""
    durations, failed, wall = timed_phase(wl, args.seed, args.seconds)
    n = len(durations)
    tail_s, tail_pct = tail(durations)
    setup_s = statistics.median(setup_times)
    rows = [
        ("setup_s", setup_s, "s",
         "median of set-ups " + " ".join(f"{t:.4f}" for t in setup_times)),
        ("wall_s", wall, "s", "timed phase"),
        ("ops_per_s", (n - failed) / wall, "1/s", f"{n - failed} ops completed"),
        ("op_p50_ms", 1000 * statistics.median(durations), "ms", f"of {n} ops"),
        ("op_tail_ms", 1000 * tail_s, "ms", f"p{tail_pct:.1f} of {n} ops"),
        ("error_rate", failed / n, "ratio", f"{failed} failed of {n} attempted"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "this process"),
    ]
    for key, value, unit, note in rows:
        print(f"{key:12} {value:14.6f} {unit:5}  {note}")
    metrics = {key: (value, unit) for key, value, unit, _ in rows
               if key != "error_rate"}
    return n, failed, metrics


def measure_traced(wl, args):
    """--trace 1: (attempted, failed, metrics) of the traced op list."""
    from perfbench import tracing

    cycle_s = wl.mean_op_s * len(wl.pattern)
    cycles = max(1, round(TRACE_SHARE * args.seconds / cycle_s))
    items = wl.first_ops(args.seed, cycles * len(wl.pattern))
    tracer, untraced_wall, traced_wall, failed = traced_pass(wl, items)
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        print(f"trace wrappers left behind: {leftovers}", file=sys.stderr)
    if tracer.missing:
        print(f"layers not found (reported as 0): {tracer.missing}",
              file=sys.stderr)
    metrics = tracer.metrics(wl.entry, len(items), untraced_wall, traced_wall)
    print(f"{len(items)} ops; untraced {untraced_wall:.3f} s, traced "
          f"{traced_wall:.3f} s, overhead {traced_wall - untraced_wall:.3f} s; "
          f"layers below {wl.entry} cover "
          f"{100 * metrics['trace.coverage'][0]:.1f}% of traced wall time")
    print("no wait metrics: one thread, nothing waits on a queue or lock")
    print(tracer.layer_table(traced_wall, fuzz=wl.name == "fuzz"))
    path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.write(path, {"workload": wl.name, "seed": args.seed,
                        "ops": [_describe(i) for i in items]})
    print(f"spans written to {path.relative_to(ROOT)}")
    return 2 * len(items), failed + bool(leftovers), metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",),
                   help="one workload, or all of them in turn in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and exit (used for setup_s)")
    return p.parse_args(argv)


def run_workload(name, args):
    """Set up and measure one workload; returns its result object."""
    load_start = os.getloadavg()
    wl, warm_ok, setup_s = set_up(name)
    print(f"workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}; closed loop, 1 client, 1 thread")
    print("env " + json.dumps(environment(load_start)))
    if args.trace:
        attempted, failed, metrics = measure_traced(wl, args)
    else:
        setup_times = [setup_s]
        while len(setup_times) < SETUP_RUNS or (
                sum(setup_times) < SETUP_SECONDS
                and len(setup_times) < SETUP_MAX_RUNS):
            t = child_set_up(name)
            warm_ok = warm_ok and t is not None
            setup_times.append(t if t is not None else setup_s)
        attempted, failed, metrics = measure(wl, args, setup_times)
    print("env " + json.dumps({"loadavg_end": os.getloadavg()}))
    return {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_only:
            _, warm_ok, setup_s = set_up(args.workload)
            print(json.dumps({"setup_s": setup_s, "correct": warm_ok}))
            return 0
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args) for name in names}
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        for name, r in results.items():
            print(f"{name} {json.dumps(r)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
