"""szscatter benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): verify_sweep, optimize_bounds,
transfer_crosscheck.  BENCHMARK.json registers verify_sweep and
transfer_crosscheck; optimize_bounds, whose run-to-run spread on a 2-vCPU
shared host came close to its bound, is kept for runs by hand.

--trace 0 prints the end-to-end metrics:
    setup_s      median over SETUP_RUNS fresh processes of import + kernel
                 warm-up + config parsing + potential construction
    wall_s       median wall time of one pass, tracing off
    items_per_s  median over passes of correct items / pass time (an item
                 is a CSV row, an optimized energy or a cross-checked case)
    peak_rss_mb  peak resident memory of the process that ran the passes
    pass_ratio   correct items / attempted items (1 - fail ratio)
--trace 1 prints the per-layer metrics of one traced pass (tracing.py),
the per-call probe table and the two-thread verify_sweep speed-up, and
writes the spans to .perfbench_out/; it runs a fixed amount of work and
ignores --seconds.  Metric names and units come from BENCHMARK.json.

Every process runs one thread of Python with BLAS pinned to one thread and
SZ_SCATTER_THREADS unset (the trace role sets it for its thread probe
only).  The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2 when there is no source tree to
measure, 1 when a worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("verify_sweep", "optimize_bounds", "transfer_crosscheck")
DEFAULT_SEED = 1
SETUP_RUNS = 5      # fresh processes whose set-up times give setup_s
TIME_LIMIT = 170.0  # seconds for the whole run, workers included


def load_spec(root=ROOT):
    """BENCHMARK.json: the metric names and units this command must print."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(metrics, listed):
    """The listed metrics, by name, with their units; a listed metric the
    run did not produce is an error in the benchmark."""
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed}


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def timing_summary(values):
    """'median m, pP v, n=N' for a list of timings."""
    text = f"median {statistics.median(values):.4g}"
    tail = tail_percentile(values)
    if tail:
        text += f", p{tail[0]} {tail[1]:.4g}"
    return text + f", n={len(values)}"


def worker_env():
    env = dict(os.environ)
    env.pop("SZ_SCATTER_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(role, args, deadline, trace_out=None):
    """Run one worker process to completion; returns its JSON result."""
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{role}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {role} worker ran past the time limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {role} worker failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def end_to_end(args, deadline):
    # Set-up samples before and after the passes, so that their median
    # spans the whole run rather than one moment of the host's load.
    before = (SETUP_RUNS - 1) // 2
    setups = [run_worker("setup", args, deadline)["setup_s"]
              for _ in range(before)]
    res = run_worker("measure", args, deadline)
    setups.append(res["setup_s"])
    setups += [run_worker("setup", args, deadline)["setup_s"]
               for _ in range(SETUP_RUNS - 1 - before)]
    walls = [wall for wall, _, _ in res["passes"]]
    rates = [(a - f) / wall for wall, a, f in res["passes"]]
    print(f"setup_s: {timing_summary(setups)} (fresh processes)")
    print(f"wall_s per pass: {timing_summary(walls)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": 1.0 - res["failed"] / res["attempted"],
    }
    return res, metrics


def per_layer(args, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR,
                             f"trace-{args.workload}-seed{args.seed}.json")
    res = run_worker("trace", args, deadline, trace_out)
    metrics = res["metrics"]
    selfs = sorted(((v, k) for k, v in metrics.items()
                    if k.endswith(".self_s")), reverse=True)
    wall = metrics["trace.wall_s"]
    print(f"self time by layer (traced wall {wall:.3f} s, "
          f"{100 * metrics['trace.accounted_ratio']:.1f}% in layer spans):")
    for value, name in selfs:
        print(f"  {name[:-7]:<34} {value:9.4f} s  {100 * value / wall:5.1f}%")
    print("per-call probe, ms (constant gauge):")
    from worker import PROBE_CALLS, PROBE_CASES
    cases = [c[0] for c in PROBE_CASES]
    print("| call | " + " | ".join(cases) + " |")
    print("|---|" + "---|" * len(cases))
    for call in PROBE_CALLS:
        cells = [f"{metrics[f'probe.{c}.{call}_ms']:.1f}" for c in cases]
        print(f"| `{call}` | " + " | ".join(cells) + " |")
    print("bytes_computed and step counts are computed from array sizes "
          "and step counts, not measured bandwidth")
    print(f"spans: {trace_out}")
    return res, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "szscatter",
                                       "__init__.py")):
        print(f"perfbench: no szscatter sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    spec = load_spec()
    deadline = time.monotonic() + TIME_LIMIT
    measure = per_layer if args.trace else end_to_end
    res, metrics = measure(args, deadline)
    metrics = select(metrics, spec["per_layer" if args.trace
                                    else "end_to_end"])
    print("environment: " + json.dumps(res["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{res['failed']} of {res['attempted']} items failed "
          f"(fail_ratio {res['failed'] / res['attempted']:.4g})")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
