"""Time the kernel backends on representative workloads.

Usage:
    python -m szscatter.benchmark [--quick]

Reports best-of-three wall times, after a warm-up, for adaptive
coefficient evolution, the ordered-product transfer matrix and the direct
reference integration.  When numba is importable the comparison launches
one subprocess per backend (the backend is fixed per process by the
SZ_SCATTER_NO_NUMBA environment flag read at import); otherwise only the
active numpy path runs, in this process, under a column named for it.
"""

import argparse
import json
import os
import subprocess
import sys
import time


def _workloads(quick: bool):
    from . import _kernels
    from .gauges import gauge_constant, rho_pair
    from .oracle import direct_integrate
    from .potentials import EnergySpec, poschl_teller, truncate_domain, wavenumber_field
    from .sz_core import CoefficientState, evolve, transfer_matrix

    p = poschl_teller(ell=2)
    e = EnergySpec(0.5)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    r = rho_pair(g, w)
    ode_tol = 1e-10 if quick else 1e-12
    prod_tol = 1e-7 if quick else 1e-9
    s0 = CoefficientState(grid.x_min, 1.0 + 0.0j, 0.0 + 0.0j)

    def run_evolve():
        evolve(g, r, s0, grid.x_max, ode_tol, grid=grid)

    def run_product():
        transfer_matrix(g, r, grid.x_min, grid.x_max, n_min=64,
                        tol=prod_tol, grid=grid)

    def run_direct():
        direct_integrate(p, e, grid, ode_tol)

    _kernels.warm_up()
    return [
        ("evolve sech^2 well (adaptive RK)", run_evolve),
        ("transfer matrix (ordered product)", run_product),
        ("direct reference integration", run_direct),
    ]


def _time_inner(quick: bool) -> dict:
    from . import _kernels

    results = {"backend": "numba" if _kernels.numba_active() else "numpy"}
    timings = {}
    for name, fn in _workloads(quick):
        fn()  # warm caches (tables, JIT)
        best = min(_timed(fn) for _ in range(3))
        timings[name] = best
    results["timings"] = timings
    return results


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m szscatter.benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="looser tolerances, faster run")
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.inner:
        print(json.dumps(_time_inner(args.quick)))
        return 0

    from . import _kernels

    if _kernels._HAVE_NUMBA:
        reports = {}
        for backend, flag in (("numba", "0"), ("numpy", "1")):
            env = dict(os.environ)
            env["SZ_SCATTER_NO_NUMBA"] = flag
            cmd = [sys.executable, "-m", "szscatter.benchmark", "--inner"]
            if args.quick:
                cmd.append("--quick")
            out = subprocess.run(cmd, env=env, capture_output=True,
                                 text=True, check=True)
            reports[backend] = json.loads(out.stdout.strip().splitlines()[-1])
    else:  # one backend only: time it here, labelled by what is active
        report = _time_inner(args.quick)
        reports = {report["backend"]: report}

    columns = [r["timings"] for r in reports.values()]
    width = max(len(name) for name in columns[0])
    speedup = "  speedup" if len(columns) == 2 else ""
    print(f"{'workload':<{width}}"
          + "".join(f"  {b:>10}" for b in reports) + speedup)
    for name in columns[0]:
        times = [c[name] for c in columns]
        line = f"{name:<{width}}" + "".join(f"  {t:>9.4f}s" for t in times)
        if speedup:
            ratio = times[1] / times[0] if times[0] > 0 else float("inf")
            line += f"  {ratio:6.1f}x"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
