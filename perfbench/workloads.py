"""The benchmark's three workloads: seeded inputs, one timed pass each, and
the correctness gates that decide which items of a pass failed.

Each workload is a closed loop with one caller in one thread: a pass starts
only after the previous one has finished and been checked.  The program sees
only the generated inputs (a config file, or the arguments of library calls).

    verify_sweep         CLI verify mode, config to CSV (the headline sweep;
                         every layer of the per-energy pipeline runs).
    optimize_bounds      CLI optimize mode on two potentials (the gauge
                         optimizer and its theta quadrature dominate).
    transfer_crosscheck  transfer_matrix against evolve_diagnostics on three
                         cases (the only workload where the ordered-product
                         kernel runs and the bundle cache hits).

Functions are always looked up through their module (``sz_core.transfer_
matrix``), never imported by name, so the tracer's wrappers see every call.
"""

import csv
import io
import math
import os
import random

# Gates, with the acceptance suite's tolerances.
ORACLE_TOL = 1.0e-7       # |T - oracle_t| per verify row
MARGIN_TOL = 1.0e-12      # margin_t >= -MARGIN_TOL; also the optimizer slack
UNITARITY_TOL = 1.0e-10   # |T + R - 1| per verify row (criterion 1)
CROSSCHECK_TOL = 1.0e-8   # |E (1,0) - evolved state| per entry

ODE_TOL = 1.0e-12
TRANSFER_TOL = 1.0e-9
QUAD_TOL = 1.0e-10

# Energies move by at most this share of their grid spacing (in log space)
# from one seed to the next, so every seed runs the same amount of work.
JITTER = 0.05
# The cross-check's energies are single points; each moves by at most 1%.
CASE_JITTER = 0.01

GAUGE_NAMES = ("constant", "wkb", "special_delta", "antiphase")


def jittered_energies(seed, lo, hi, count):
    """`count` log-spaced energies in [lo, hi], each moved by a seeded
    factor of at most exp(JITTER * log spacing)."""
    rng = random.Random(seed)
    step = math.log(hi / lo) / (count - 1)
    out = []
    for i in range(count):
        e = lo * math.exp(step * (i + JITTER * rng.uniform(-1.0, 1.0)))
        out.append(min(max(e, lo), hi))
    return out


def config_text(mode, potential, energies, csv_path, gauges=GAUGE_NAMES):
    lines = ["[run]", f"mode = {mode}", "", "[potential]"]
    lines += [f"{k} = {v}" for k, v in potential.items()]
    lines += ["", "[energies]",
              "values = " + " ".join(f"{e:.17g}" for e in energies),
              "", "[gauges]", "names = " + " ".join(gauges),
              "", "[outputs]", f"csv_path = {csv_path}", ""]
    return "\n".join(lines)


def parse_csv(text):
    """CSV rows as dicts of strings (the header is the CLI's CSV_HEADER)."""
    return list(csv.DictReader(io.StringIO(text)))


def _cells(row):
    return tuple(v for k, v in row.items() if k != "runtime_ms")


def verify_failures(rows, expected_count, reference=None):
    """Failed items of one verify pass.

    Every item fails when the row count is not the expected one; otherwise
    a row fails on an oracle mismatch, a negative margin, |T + R - 1| beyond
    UNITARITY_TOL, or a cell (runtime_ms aside) that differs from the same
    row of the reference pass.
    """
    if len(rows) != expected_count:
        return expected_count
    if reference is not None and len(reference) != len(rows):
        return expected_count
    failed = 0
    for i, row in enumerate(rows):
        t = float(row["transmission"])
        r = float(row["reflection"])
        bad = (not abs(t - float(row["oracle_t"])) < ORACLE_TOL
               or not float(row["margin_t"]) >= -MARGIN_TOL
               or not abs(t + r - 1.0) <= UNITARITY_TOL
               or (reference is not None
                   and _cells(row) != _cells(reference[i])))
        failed += bad
    return failed


def optimize_failures(rows, expected_count, baseline_thetas):
    """Failed items (energies) of one optimize CSV: the optimized theta may
    not exceed the s=0 baseline, and t_lower may not exceed the oracle T."""
    if len(rows) != expected_count:
        return expected_count
    failed = 0
    for row, baseline in zip(rows, baseline_thetas):
        bad = (not float(row["theta_integral"]) <= baseline + MARGIN_TOL
               or not float(row["t_lower"]) <= float(row["oracle_t"])
               + MARGIN_TOL)
        failed += bad
    return failed


def crosscheck_failed(via_matrix, via_ode):
    """One case fails when an entry of E (1,0) differs from the evolved
    state by CROSSCHECK_TOL or more."""
    return not (abs(via_matrix.a - via_ode.a) < CROSSCHECK_TOL
                and abs(via_matrix.b - via_ode.b) < CROSSCHECK_TOL)


class _CliWorkload:
    """A workload made of CLI runs, one config file each."""

    # (name, mode, [potential] section, energy range, energy count)
    RUNS = ()

    def __init__(self, seed, workdir):
        self.sz = None
        self.runs = []
        for name, mode, potential, (lo, hi), count in self.RUNS:
            energies = jittered_energies(f"{seed}:{name}", lo, hi, count)
            cfg = os.path.join(workdir, f"{name}.cfg")
            out = os.path.join(workdir, f"{name}.csv")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(config_text(mode, potential, energies, out))
            self.runs.append((cfg, out, sorted(energies)))
        self.configs = []

    def setup(self, sz):
        """Parse and validate every config (this builds the potentials)."""
        self.sz = sz
        for cfg, _, _ in self.runs:
            with open(cfg, encoding="utf-8") as fh:
                self.configs.append(self.sz.cli.parse_config(fh.read()))

    def run_pass(self):
        return [self.sz.cli.main(["--config", cfg]) for cfg, _, _ in self.runs]

    def _outputs(self, codes):
        for (cfg, out, energies), code, config in zip(self.runs, codes,
                                                      self.configs):
            rows = []
            if code == 0:
                with open(out, encoding="utf-8") as fh:
                    rows = parse_csv(fh.read())
            yield config, energies, code, rows


class VerifySweep(_CliWorkload):
    NAME = "verify_sweep"
    RUNS = (("verify", "verify",
             {"kind": "gaussian", "v0": 1, "sigma": 1}, (0.1, 10.0), 16),)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = None

    def items_per_pass(self):
        # wkb needs k^2 > 0 everywhere, i.e. E above the barrier top V0 = 1;
        # the other three gauges are admissible at every energy.
        energies = self.runs[0][2]
        return 3 * len(energies) + sum(e > 1.0 for e in energies)

    def check(self, codes):
        (_, _, code, rows), = self._outputs(codes)
        expected = self.items_per_pass()
        if code != 0:
            return expected, expected
        failed = verify_failures(rows, expected, self.reference)
        if self.reference is None and failed == 0:
            self.reference = rows
        return expected, failed


class OptimizeBounds(_CliWorkload):
    NAME = "optimize_bounds"
    # The Gaussian energies sit above the barrier top, where family members
    # with s > 0 are admissible; below it the optimizer has nothing to do.
    RUNS = (("optimize_pt2", "optimize",
             {"kind": "poschl_teller", "ell": 2}, (0.5, 10.0), 4),
            ("optimize_gauss", "optimize",
             {"kind": "gaussian", "v0": 1, "sigma": 1}, (1.5, 10.0), 4))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.baselines = None

    def items_per_pass(self):
        return sum(len(energies) for _, _, energies in self.runs)

    def _baseline_thetas(self):
        """theta of the s=0 family member at every energy of every run."""
        sz = self.sz
        out = []
        for config, (_, _, energies) in zip(self.configs, self.runs):
            thetas = []
            for energy in energies:
                e = sz.potentials.EnergySpec(energy)
                grid = sz.potentials.truncate_domain(config.potential, e,
                                                     config.tail_tol)
                w = sz.potentials.wavenumber_field(config.potential, e)
                family = sz.bounds.phi_prime_family(config.potential, e, grid)
                thetas.append(sz.bounds.theta_integral(
                    sz.bounds.theta_field(family.builder(0.0), w), grid,
                    config.quad_tol))
            out.append(thetas)
        return out

    def check(self, codes):
        if self.baselines is None:
            self.baselines = self._baseline_thetas()
        attempted = failed = 0
        for (_, energies, code, rows), baselines in zip(self._outputs(codes),
                                                        self.baselines):
            attempted += len(energies)
            if code != 0:
                failed += len(energies)
            else:
                failed += optimize_failures(rows, len(energies), baselines)
        return attempted, failed


class TransferCrosscheck:
    NAME = "transfer_crosscheck"
    # (potential builder, args, energy, gauge).  The barrier with the wkb
    # gauge takes the junction-projection path between segments.
    CASES = (("poschl_teller", (2,), 0.5, "constant"),
             ("gaussian", (1.0, 1.0), 2.0, "constant"),
             ("square_barrier", (1.0, 1.0), 2.0, "wkb"))

    def __init__(self, seed, workdir):
        self.sz = None
        rng = random.Random(f"{seed}:{self.NAME}")
        self.energies = [e * math.exp(CASE_JITTER * rng.uniform(-1.0, 1.0))
                         for _, _, e, _ in self.CASES]
        self.potentials = []

    def setup(self, sz):
        self.sz = sz
        self.potentials = [getattr(self.sz.potentials, kind)(*args)
                           for kind, args, _, _ in self.CASES]

    def run_pass(self):
        sz = self.sz
        core = sz.sz_core
        results = []
        for p, energy, (_, _, _, gauge) in zip(self.potentials, self.energies,
                                               self.CASES):
            e = sz.potentials.EnergySpec(energy)
            grid = sz.potentials.truncate_domain(p, e)
            w = sz.potentials.wavenumber_field(p, e)
            if gauge == "wkb":
                g = sz.gauges.gauge_wkb(w, grid)
            else:
                g = sz.gauges.gauge_constant(w.k_left)
            r = sz.gauges.rho_pair(g, w)
            full = core.transfer_matrix(g, r, grid.x_min, grid.x_max,
                                        tol=TRANSFER_TOL, grid=grid)
            s0 = core.CoefficientState(grid.x_min, 1.0 + 0j, 0j)
            via_ode, _ = core.evolve_diagnostics(g, r, s0, grid.x_max,
                                                 ODE_TOL, grid=grid)
            results.append((full.apply(s0), via_ode))
        return results

    def items_per_pass(self):
        return len(self.CASES)

    def check(self, results):
        failed = sum(crosscheck_failed(m, o) for m, o in results)
        return len(self.CASES), failed


WORKLOADS = {cls.NAME: cls for cls in (VerifySweep, OptimizeBounds,
                                       TransferCrosscheck)}
