"""One benchmark process: set up, run a workload, print one JSON line.

    python3 perfbench/worker.py ROLE --workload NAME --seed N
                                --seconds S --workdir DIR [--trace-out F]

Roles:
    setup    time the set-up only (a fresh process is the unit of set-up).
    measure  set up, then run timed passes for S seconds with tracing off;
             gate every pass outside its timed region.
    trace    one untraced and one traced pass, the per-call probe table and
             a two-thread verify_sweep pass; per-layer metrics.

Set-up, timed from before ``import szscatter``: the import, the kernels'
warm-up, parsing the configs and building the potentials.  Only the standard
library is imported before the clock starts.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def set_up(workload):
    """Import, warm up and set up the workload; returns (package, seconds).

    Workloads reach every function through the package's modules
    (``sz.sz_core.transfer_matrix``), so the tracer's wrappers are seen.
    """
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import szscatter
    import szscatter.cli
    szscatter._kernels.warm_up()
    workload.setup(szscatter)
    return szscatter, time.perf_counter() - start


def environment(sz):
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "backend": "numba" if sz.numba_active() else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "SZ_SCATTER_THREADS": os.environ.get("SZ_SCATTER_THREADS"),
        "SZ_SCATTER_NO_NUMBA": os.environ.get("SZ_SCATTER_NO_NUMBA"),
    }


def timed_pass(workload):
    """(seconds, attempted, failed) of one pass, gated after the clock."""
    start = time.perf_counter()
    try:
        out = workload.run_pass()
    except Exception:  # a crash fails the whole pass; keep measuring
        import traceback
        traceback.print_exc()
        wall = time.perf_counter() - start
        return wall, workload.items_per_pass(), workload.items_per_pass()
    wall = time.perf_counter() - start
    attempted, failed = workload.check(out)
    return wall, attempted, failed


def measure(workload, seconds):
    """Passes for about `seconds`: another pass starts while it is expected
    to end less than half a pass late.  At least two, so outputs can be
    compared across passes."""
    passes = []  # (seconds, attempted, failed)
    start = time.perf_counter()
    while (len(passes) < 2 or time.perf_counter() - start
           + 0.5 * statistics.median(p[0] for p in passes) <= seconds):
        passes.append(timed_pass(workload))
    return passes


PROBE_CASES = (("barrier", "square_barrier", (1.0, 1.0), 2.0),
               ("gaussian", "gaussian", (1.0, 1.0), 2.0),
               ("pt2", "poschl_teller", (2,), 0.5))
PROBE_CALLS = ("bundle_build", "scattering_amplitudes", "transfer_matrix",
               "direct_integrate", "bound_report", "optimize_gauge")


def _median_ms(fn, budget=0.3, max_repeats=5):
    times = []
    while len(times) < max_repeats and sum(times) < budget:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def probe_table(sz):
    """Per-call times (ms) on fixed inputs, in the constant gauge.

    bundle_build is a bundle-cache miss (a fresh rho pair each time);
    transfer_matrix (tol 1e-9) then reuses that bundle, so it excludes the
    table build, while scattering_amplitudes builds its own.
    """
    from workloads import ODE_TOL, QUAD_TOL, TRANSFER_TOL
    pot, core, gauges, bounds = (sz.potentials, sz.sz_core, sz.gauges,
                                 sz.bounds)
    out = {}
    for case, kind, args, energy in PROBE_CASES:
        p = getattr(pot, kind)(*args)
        e = pot.EnergySpec(energy)
        grid = pot.truncate_domain(p, e)
        w = pot.wavenumber_field(p, e)
        g = gauges.gauge_constant(w.k_left)
        r = gauges.rho_pair(g, w)
        window = (grid.x_min, grid.x_max, grid.max_step)
        calls = {
            "bundle_build": lambda: core._bundle_for(
                g, gauges.rho_pair(g, w), *window),
            "scattering_amplitudes": lambda: core.scattering_amplitudes(
                p, e, g, ODE_TOL, grid),
            "transfer_matrix": lambda: core.transfer_matrix(
                g, r, grid.x_min, grid.x_max, tol=TRANSFER_TOL, grid=grid),
            "direct_integrate": lambda: sz.oracle.direct_integrate(
                p, e, grid, ODE_TOL),
            "bound_report": lambda: bounds.bound_report(
                p, e, g, QUAD_TOL, grid),
            "optimize_gauge": lambda: bounds.optimize_gauge(
                p, e, bounds.phi_prime_family(p, e, grid), QUAD_TOL, grid),
        }
        core._bundle_for(g, r, *window)
        for call in PROBE_CALLS:
            out[f"probe.{case}.{call}_ms"] = _median_ms(calls[call])
    return out


def threads_speedup(workload, wall_1, threads):
    """wall_1 / wall of one verify_sweep pass run with `threads` threads."""
    os.environ["SZ_SCATTER_THREADS"] = str(threads)
    try:
        wall, attempted, failed = timed_pass(workload)
    finally:
        del os.environ["SZ_SCATTER_THREADS"]
    return wall_1 / wall, attempted, failed


def trace(workload, sz, args):
    import tracing
    import workloads

    wall_0, attempted, failed = timed_pass(workload)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.begin(tracing.ROOT)
        try:
            out = workload.run_pass()
        finally:
            tracer.end()
    finally:
        restore()
    a, f = workload.check(out)
    attempted += a
    failed += f
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / wall_0

    if workload.NAME == workloads.VerifySweep.NAME:
        sweep, wall_1 = workload, wall_0
    else:
        sweep = workloads.VerifySweep(args.seed, args.workdir)
        sweep.setup(sz)
        wall_1, a, f = timed_pass(sweep)
        attempted += a
        failed += f
    threads = min(2, len(os.sched_getaffinity(0)))
    speedup, a, f = threads_speedup(sweep, wall_1, threads)
    metrics["cli.threads2_speedup"] = speedup
    attempted += a
    failed += f
    metrics.update(probe_table(sz))

    if args.trace_out:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.NAME, "seed": args.seed,
                       "metrics": metrics,
                       "spans": [[n, s - t0, e - t0, p]
                                 for n, s, e, p in tracer.spans]}, fh)
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    sz, setup_s = set_up(workload)
    result = {"setup_s": setup_s, "env": environment(sz)}
    if args.role == "measure":
        passes = measure(workload, args.seconds)
        result.update(passes=passes, attempted=sum(p[1] for p in passes),
                      failed=sum(p[2] for p in passes))
    elif args.role == "trace":
        metrics, attempted, failed = trace(workload, sz, args)
        result.update(metrics=metrics, attempted=attempted, failed=failed)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = peak_kb / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
