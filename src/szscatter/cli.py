"""Config-driven command line front end.

Runs energy sweeps over a potential and a set of gauges, in one of four
modes (scatter, bounds, optimize, verify), and writes a CSV table plus
optional plot-ready data blocks.  Every mode runs one loop over the
(gauge, bound report or None) pairs that _gauge_reports yields, and one
row builder fills T and R, the bound cells when a report exists and the
oracle cells when the oracle ran.  At each energy the Delta-variants
(special_delta, antiphase) are built on the one constant gauge and share
its theta integral.  ResultRow's fields are the CSV columns.  A sweep
solves its energies' products in one batch, and one long enough to pay
for it runs half of them in one forked helper process (_sweep).  Exit
codes: 0 ok, 2 configuration error, 3 numerical failure, 4 bound violation.
"""

import argparse
import math
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass, fields, replace
from itertools import zip_longest

import numpy as np

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from . import potentials as pot_mod
from .errors import (AsymptoticallyClosedChannel, ParseError,
                     SzScatterError, TurningPoint, GaugeDegenerate,
                     ValidationError)
from .gauges import (gauge_antiphase, gauge_constant, gauge_special_delta,
                     gauge_wkb)
from .potentials import EnergySpec, truncate_domain, wavenumber_field
from .sz_core import _amplitudes

MODES = ("scatter", "bounds", "optimize", "verify")

# Seconds that forking the sweep's helper and reaping it add to a sweep:
# a split sweep's wall time less its ideal (the first energy plus the
# larger share, each energy timed serially) was 5.0-5.9 ms on in-process
# scatter sweeps of 3 and 9 energies over square_barrier(1, 1), on a
# 2-vCPU Xeon host.
FORK_COST_S = 0.005

# Gauge name -> builder(w, grid, base), base being the energy's constant
# gauge.  The presets are looked up at call time, so a profiler that wraps
# this module's names sees every gauge build.
_GAUGES = {
    "constant": lambda w, grid, base: base,
    "wkb": lambda w, grid, base: gauge_wkb(w, grid),
    "special_delta": lambda w, grid, base: gauge_special_delta(base, w, grid),
    "antiphase": lambda w, grid, base: gauge_antiphase(base),
}
GAUGE_NAMES = tuple(_GAUGES)

# kind -> (constructor, required keys in argument order, optional keywords)
_POTENTIALS = {
    "square_barrier": (pot_mod.square_barrier, ("v0", "width"), ("center",)),
    "gaussian": (pot_mod.gaussian, ("v0", "sigma"), ("center",)),
    "poschl_teller": (pot_mod.poschl_teller, ("ell",), ("scale",)),
    "tabulated": (pot_mod.tabulated_from_file, ("file",),
                  ("v_left", "v_right")),
}

_SECTION_KEYS = {
    "run": {"mode", "hbar", "mass"},
    "potential": {"kind"}.union(*(req + opt for _, req, opt
                                  in _POTENTIALS.values())),
    "energies": {"values", "start", "stop", "count", "spacing"},
    "gauges": {"names"},
    "tolerances": {"ode_tol", "quad_tol", "tail_tol"},
    "outputs": {"csv_path", "plot_data_path"},
}


@dataclass(frozen=True)
class RunConfig:
    mode: str
    potential: object
    energies: tuple
    gauge_names: tuple
    ode_tol: float
    quad_tol: float
    tail_tol: float
    csv_path: str
    plot_data_path: str
    hbar: float
    mass: float


@dataclass
class ResultRow:
    """One CSV row; the fields, in order, are the columns."""

    energy: float
    gauge_id: str
    transmission: float = None
    reflection: float = None
    theta_integral: float = None
    t_lower: float = None
    r_upper: float = None
    margin_t: float = None
    oracle_t: float = None
    runtime_ms: float = None


_COLUMNS = tuple(f.name for f in fields(ResultRow))
CSV_HEADER = ",".join(_COLUMNS)


def _raw_sections(text: str) -> dict:
    data = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in data:
                raise ParseError(f"duplicate section [{name}]", lineno)
            data[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        if current is None:
            raise ParseError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[current]:
            raise ParseError(f"unknown key {key!r} in [{current}]", lineno)
        if key in data[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", lineno)
        if not value:
            raise ParseError(f"empty value for {key!r}", lineno)
        data[current][key] = value
    return data


def _get_float(section: dict, sec_name: str, key: str) -> float:
    if key not in section:
        raise ValidationError(f"{sec_name}.{key}", "missing")
    return _finite(section[key], f"{sec_name}.{key}")


def _finite(text: str, field: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(field, f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(field, f"not finite: {text!r}")
    return value


def _positive(section: dict, sec_name: str, key: str, default: float) -> float:
    value = _get_float(section, sec_name, key) if key in section else default
    if value <= 0:
        raise ValidationError(f"{sec_name}.{key}", "must be > 0")
    return value


def _potential_arg(section: dict, key: str):
    if key == "file":
        return section[key]
    value = _get_float(section, "potential", key)
    if key == "ell":
        if value != int(value) or value < 1:
            raise ValidationError("potential.ell",
                                  "must be a positive integer")
        return int(value)
    return value


def _build_potential(section: dict):
    if "kind" not in section:
        raise ValidationError("potential.kind", "missing")
    kind = section["kind"]
    if kind not in _POTENTIALS:
        raise ValidationError("potential.kind", f"unknown kind {kind!r}")
    build, required, optional = _POTENTIALS[kind]
    for key in section:
        if key != "kind" and key not in required + optional:
            raise ValidationError(f"potential.{key}",
                                  f"not accepted by kind {kind!r}")
    for key in required:
        if key not in section:
            raise ValidationError(f"potential.{key}", "missing")
    args = [_potential_arg(section, key) for key in required]
    kwargs = {key: _potential_arg(section, key)
              for key in optional if key in section}
    # The constructors reject out-of-range parameters with ValueError.
    try:
        return build(*args, **kwargs)
    except (OSError, ValueError) as exc:
        where = "potential.file" if kind == "tabulated" else "potential"
        raise ValidationError(where, str(exc)) from exc


def _build_energies(section: dict) -> tuple:
    has_values = "values" in section
    has_range = any(k in section for k in ("start", "stop", "count"))
    if has_values and has_range:
        raise ValidationError("energies",
                              "give either values or start/stop/count")
    if has_values:
        if "spacing" in section:
            raise ValidationError("energies.spacing",
                                  "only applies to start/stop/count")
        energies = tuple(_finite(v, "energies.values")
                         for v in section["values"].split())
    elif has_range:
        start = _get_float(section, "energies", "start")
        stop = _get_float(section, "energies", "stop")
        count = _get_float(section, "energies", "count")
        if count != int(count) or count < 1:
            raise ValidationError("energies.count",
                                  "must be a positive integer")
        spacing = section.get("spacing", "linear")
        if spacing == "linear":
            grid = np.linspace(start, stop, int(count))
        elif spacing == "log":
            if start <= 0 or stop <= 0:
                raise ValidationError("energies.spacing",
                                      "log spacing needs positive bounds")
            grid = np.geomspace(start, stop, int(count))
        else:
            raise ValidationError("energies.spacing",
                                  f"unknown spacing {spacing!r}")
        energies = tuple(float(v) for v in grid)
    else:
        raise ValidationError("energies", "missing")
    if not energies:
        raise ValidationError("energies", "need at least one energy")
    return energies


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate line-oriented key=value configuration."""
    data = _raw_sections(text)
    run_sec = data.get("run", {})
    if "mode" not in run_sec:
        raise ValidationError("run.mode", "missing")
    mode = run_sec["mode"]
    if mode not in MODES:
        raise ValidationError("run.mode", f"unknown mode {mode!r}")
    hbar = _positive(run_sec, "run", "hbar", 1.0)
    mass = _positive(run_sec, "run", "mass", 0.5)
    try:
        EnergySpec(0.0, hbar=hbar, mass=mass)  # checks 2m/hbar^2
    except ValueError as exc:
        raise ValidationError("run.hbar", str(exc)) from exc

    if "potential" not in data:
        raise ValidationError("potential", "missing section")
    potential = _build_potential(data["potential"])

    if "energies" not in data:
        raise ValidationError("energies", "missing section")
    energies = _build_energies(data["energies"])
    for en in energies:
        try:
            wavenumber_field(potential, EnergySpec(en, hbar=hbar, mass=mass))
        except AsymptoticallyClosedChannel as exc:
            raise ValidationError("energies", f"E = {en:g}: {exc}") from exc

    names = tuple(data.get("gauges", {}).get("names", "constant").split())
    for name in names:
        if name not in _GAUGES:
            raise ValidationError("gauges.names",
                                  f"unknown gauge {name!r}")
    if not names:
        raise ValidationError("gauges.names", "need at least one gauge")

    tol_sec = data.get("tolerances", {})
    out_sec = data.get("outputs", {})
    return RunConfig(
        mode=mode,
        potential=potential,
        energies=energies,
        gauge_names=names,
        ode_tol=_positive(tol_sec, "tolerances", "ode_tol", 1.0e-12),
        quad_tol=_positive(tol_sec, "tolerances", "quad_tol", 1.0e-10),
        tail_tol=_positive(tol_sec, "tolerances", "tail_tol", 1.0e-10),
        csv_path=out_sec.get("csv_path"),
        plot_data_path=out_sec.get("plot_data_path"),
        hbar=hbar,
        mass=mass,
    )


def _gauge_reports(config: RunConfig, e: EnergySpec, w, grid):
    """(start time, gauge, bound report or None) per row at one energy: the
    optimizer's gauge, or each named gauge without a turning point.

    theta depends on phi', phi'', chi and chi' but not on Delta, so J is
    integrated once per distinct set of those callables and the
    Delta-variants of the energy's constant gauge reuse it."""
    p, tol = config.potential, config.quad_tol
    if config.mode == "optimize":
        start = time.perf_counter()
        family = bounds_mod.phi_prime_family(p, e, grid)
        yield (start, *bounds_mod.optimize_gauge(p, e, family, tol, grid))
        return
    base = gauge_constant(w.k_left)
    thetas = {}
    for name in config.gauge_names:
        start = time.perf_counter()
        try:
            gauge = _GAUGES[name](w, grid, base)
        except TurningPoint:
            continue
        report = None
        if config.mode != "scatter":
            try:
                t = bounds_mod.theta_field(gauge, w)
            except GaugeDegenerate:
                continue  # distributional phi''; no bound for this gauge
            key = (gauge.phi_prime, gauge.phi_double_prime, gauge.chi,
                   gauge.chi_prime, t.breakpoints)
            if key not in thetas:
                thetas[key] = bounds_mod.theta_integral(t, grid, tol)
            report = bounds_mod._report(thetas[key], gauge.label)
        yield start, gauge, report


def _rows_for_energies(config: RunConfig, energies) -> list:
    """The rows of each energy, in order: each energy's grid, oracle,
    gauges and bound reports, then all rows' products in one batch
    (sz_core._amplitudes).  A row's runtime_ms is its gauge's and report's
    time plus an equal share of the batch's."""
    parts, cases = [], []
    for energy in energies:
        e = EnergySpec(energy, hbar=config.hbar, mass=config.mass)
        grid = truncate_domain(config.potential, e, config.tail_tol)
        w = wavenumber_field(config.potential, e)
        oracle_t = None
        if config.mode in ("verify", "optimize"):
            oracle_t = oracle_mod.direct_integrate(
                config.potential, e, grid, config.ode_tol).transmission
        parts.append([])
        for start, gauge, report in _gauge_reports(config, e, w, grid):
            row = ResultRow(energy, gauge.label)
            if report is not None:
                row.theta_integral = report.theta_integral
                row.t_lower = report.t_lower
                row.r_upper = report.r_upper
            if oracle_t is not None:
                row.oracle_t = oracle_t
                row.margin_t = oracle_t - report.t_lower
            row.runtime_ms = 1e3 * (time.perf_counter() - start)
            parts[-1].append(row)
            cases.append((config.potential, e, gauge, grid))
    start = time.perf_counter()
    amps = _amplitudes(cases, config.ode_tol) if cases else []
    share = 1e3 * (time.perf_counter() - start) / max(1, len(cases))
    for row, amp in zip([row for part in parts for row in part], amps):
        row.transmission, row.reflection = amp.transmission, amp.reflection
        row.runtime_ms += share
    return parts


def _outcomes(config: RunConfig, energies) -> list:
    """_rows_for_energies of energies as one batch or, when that raises,
    of each alone, in order, up to the first exception, which ends it."""
    try:
        return _rows_for_energies(config, energies)
    except Exception as exc:
        if len(energies) == 1:
            return [exc]
    out = []
    for energy in energies:
        out += _outcomes(config, [energy])
        if isinstance(out[-1], Exception):
            break
    return out


def _split(config: RunConfig, energies):
    """_outcomes of energies, with energies[0::2] computed in one forked
    helper, which pickles them back through a pipe and leaves with
    os._exit, and energies[1::2] here; the helper's energies run here too
    when its payload is missing or unreadable.  None when fork fails."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_outcomes(config, energies[0::2])))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            mine = _outcomes(config, energies[1::2])
            payload = pipe.read()
    finally:
        os.waitpid(pid, 0)
    try:
        theirs = pickle.loads(payload)
    except Exception:
        theirs = _outcomes(config, energies[0::2])
    # A side's list ends at its first exception, before any later energy.
    return [out for pair in zip_longest(theirs, mine) for out in pair
            if out is not None]


def _sweep(config: RunConfig, energies) -> list:
    """The rows of the sorted `energies`, in order, raising where a serial
    sweep would raise first.  The first energy runs here and is timed.  The
    rest run here as one batch (_outcomes), or are split across one forked
    helper and this process, one batch each (_split), when half of their
    estimated time exceeds FORK_COST_S, at least two CPUs are usable, no
    other thread is running (fork copies only the calling thread) and fork
    succeeds.  The helper takes the even-indexed rest, so that with the
    first energy the two sides' counts differ by at most one."""
    start = time.perf_counter()
    outcomes = _rows_for_energies(config, energies[:1])
    t_first = time.perf_counter() - start
    rest = energies[1:]
    split = None
    if (len(rest) > 1 and 0.5 * t_first * len(rest) > FORK_COST_S
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1):
        split = _split(config, rest)
    outcomes += _outcomes(config, rest) if split is None else split
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [row for rows in outcomes for row in rows]


def _format_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column == "gauge_id":
        return value
    return f"{value:.3f}" if column == "runtime_ms" else f"{value:.17g}"


def _rows_to_csv(rows) -> str:
    lines = [CSV_HEADER] + [",".join(_format_cell(c, getattr(r, c))
                                     for c in _COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"


def emit_plot_data(rows, path) -> None:
    """Write plot-ready numeric blocks, one per gauge, separated by blank
    lines; '#' lines label each block."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    by_gauge = {}
    for r in rows:
        by_gauge.setdefault(r.gauge_id, []).append(r)
    blocks = []
    for gauge_id, group in by_gauge.items():
        lines = [f"# {gauge_id}"]
        for r in sorted(group, key=lambda q: q.energy):
            cols = [f"{r.energy:.17g}", f"{r.transmission:.17g}"]
            if r.t_lower is not None:
                cols.append(f"{r.t_lower:.17g}")
            lines.append(" ".join(cols))
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")


def run(config: RunConfig) -> int:
    """Execute the configured sweep; returns the process exit status."""
    if config.csv_path is None:
        raise ValidationError("outputs.csv_path", "missing")
    for key in ("csv_path", "plot_data_path"):
        folder = os.path.dirname(getattr(config, key) or "")
        if folder and not os.path.isdir(folder):
            raise ValidationError(f"outputs.{key}",
                                  f"no directory {folder!r}")
    rows = _sweep(config, sorted(config.energies))
    with open(config.csv_path, "w", encoding="utf-8") as fh:
        fh.write(_rows_to_csv(rows))
    if config.plot_data_path is not None and rows:
        emit_plot_data(rows, config.plot_data_path)
    if config.mode == "verify" and any(
            r.margin_t < -bounds_mod.BOUND_SLACK for r in rows):
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sz-scatter",
        description="1D quantum scattering sweeps: transmission, "
                    "reflection, and rigorous bounds.")
    parser.add_argument("--config", required=True,
                        help="path to the run configuration file")
    parser.add_argument("--mode", choices=MODES,
                        help="override the configured mode")
    parser.add_argument("--out", help="override the configured CSV path")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if args.mode or args.out:
            config = replace(config, mode=args.mode or config.mode,
                             csv_path=args.out or config.csv_path)
        return run(config)
    except OSError as exc:  # reading the config or writing an output
        print(f"sz-scatter: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as exc:
        print(f"sz-scatter: configuration error: {exc}", file=sys.stderr)
        return 2
    except (SzScatterError, ValueError, FloatingPointError) as exc:
        print(f"sz-scatter: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
