"""Config-driven command line front end.

Runs energy sweeps over a potential and a set of gauges, in one of four
modes (scatter, bounds, optimize, verify), and writes a CSV table plus
optional plot-ready data blocks.  Exit codes: 0 ok, 2 configuration
error, 3 numerical failure, 4 bound violation.
"""

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from . import potentials as pot_mod
from .errors import (BoundViolation, ParseError, SzScatterError,
                     TurningPoint, GaugeDegenerate, ValidationError)
from .gauges import gauge_antiphase, gauge_constant, gauge_special_delta, gauge_wkb
from .potentials import EnergySpec, truncate_domain, wavenumber_field
from .sz_core import scattering_amplitudes

CSV_HEADER = ("energy,gauge_id,transmission,reflection,theta_integral,"
              "t_lower,r_upper,margin_t,oracle_t,runtime_ms")

MODES = ("scatter", "bounds", "optimize", "verify")
GAUGE_NAMES = ("constant", "wkb", "special_delta", "antiphase")

_SECTION_KEYS = {
    "run": {"mode", "hbar", "mass"},
    "potential": {"kind", "v0", "width", "center", "sigma", "ell", "scale",
                  "file", "v_left", "v_right"},
    "energies": {"values", "start", "stop", "count", "spacing"},
    "gauges": {"names"},
    "tolerances": {"ode_tol", "quad_tol", "tail_tol"},
    "outputs": {"csv_path", "plot_data_path"},
}

_POTENTIAL_PARAMS = {
    "square_barrier": {"required": {"v0", "width"}, "optional": {"center"}},
    "gaussian": {"required": {"v0", "sigma"}, "optional": {"center"}},
    "poschl_teller": {"required": {"ell"}, "optional": {"scale"}},
    "tabulated": {"required": {"file"}, "optional": {"v_left", "v_right"}},
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


def _get_float(section: dict, sec_name: str, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise ValidationError(f"{sec_name}.{key}", "missing")
        return default
    return _finite(section[key], f"{sec_name}.{key}")


def _finite(text: str, field: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(field, f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(field, f"not finite: {text!r}")
    return value


def _build_potential(section: dict):
    if "kind" not in section:
        raise ValidationError("potential.kind", "missing")
    kind = section["kind"]
    if kind not in _POTENTIAL_PARAMS:
        raise ValidationError("potential.kind", f"unknown kind {kind!r}")
    rules = _POTENTIAL_PARAMS[kind]
    allowed = rules["required"] | rules["optional"] | {"kind"}
    for key in section:
        if key not in allowed:
            raise ValidationError(f"potential.{key}",
                                  f"not accepted by kind {kind!r}")
    for key in rules["required"]:
        if key not in section:
            raise ValidationError(f"potential.{key}", "missing")
    # The constructors reject out-of-range parameters with ValueError.
    try:
        if kind == "square_barrier":
            return pot_mod.square_barrier(
                _get_float(section, "potential", "v0"),
                _get_float(section, "potential", "width"),
                _get_float(section, "potential", "center", 0.0))
        if kind == "gaussian":
            return pot_mod.gaussian(
                _get_float(section, "potential", "v0"),
                _get_float(section, "potential", "sigma"),
                _get_float(section, "potential", "center", 0.0))
        if kind == "poschl_teller":
            ell = _get_float(section, "potential", "ell")
            if ell != int(ell) or ell < 1:
                raise ValidationError("potential.ell",
                                      "must be a positive integer")
            return pot_mod.poschl_teller(
                int(ell), _get_float(section, "potential", "scale", 1.0))
        v_left = (_get_float(section, "potential", "v_left")
                  if "v_left" in section else None)
        v_right = (_get_float(section, "potential", "v_right")
                   if "v_right" in section else None)
        return pot_mod.tabulated_from_file(section["file"], v_left=v_left,
                                           v_right=v_right)
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
    hbar = _get_float(run_sec, "run", "hbar", 1.0)
    mass = _get_float(run_sec, "run", "mass", 0.5)
    if hbar <= 0:
        raise ValidationError("run.hbar", "must be > 0")
    if mass <= 0:
        raise ValidationError("run.mass", "must be > 0")

    if "potential" not in data:
        raise ValidationError("potential", "missing section")
    potential = _build_potential(data["potential"])

    if "energies" not in data:
        raise ValidationError("energies", "missing section")
    energies = _build_energies(data["energies"])

    gauges_sec = data.get("gauges", {})
    names = tuple(gauges_sec.get("names", "constant").split())
    for name in names:
        if name not in GAUGE_NAMES:
            raise ValidationError("gauges.names",
                                  f"unknown gauge {name!r}")
    if not names:
        raise ValidationError("gauges.names", "need at least one gauge")

    tol_sec = data.get("tolerances", {})
    ode_tol = _get_float(tol_sec, "tolerances", "ode_tol", 1.0e-12)
    quad_tol = _get_float(tol_sec, "tolerances", "quad_tol", 1.0e-10)
    tail_tol = _get_float(tol_sec, "tolerances", "tail_tol", 1.0e-10)
    for key, val in (("ode_tol", ode_tol), ("quad_tol", quad_tol),
                     ("tail_tol", tail_tol)):
        if val <= 0:
            raise ValidationError(f"tolerances.{key}", "must be > 0")

    out_sec = data.get("outputs", {})
    return RunConfig(
        mode=mode,
        potential=potential,
        energies=energies,
        gauge_names=names,
        ode_tol=ode_tol,
        quad_tol=quad_tol,
        tail_tol=tail_tol,
        csv_path=out_sec.get("csv_path"),
        plot_data_path=out_sec.get("plot_data_path"),
        hbar=hbar,
        mass=mass,
    )


def _build_gauge(name: str, w, grid):
    base = gauge_constant(w.k_left)
    if name == "constant":
        return base
    if name == "wkb":
        return gauge_wkb(w, grid)
    if name == "special_delta":
        return gauge_special_delta(base, w, grid)
    if name == "antiphase":
        return gauge_antiphase(base)
    raise ValueError(f"unknown gauge {name!r}")


def _rows_for_energy(config: RunConfig, energy: float) -> tuple:
    """All result rows for one energy.  Returns (rows, n_violations)."""
    e = EnergySpec(energy, hbar=config.hbar, mass=config.mass)
    grid = truncate_domain(config.potential, e, config.tail_tol)
    w = wavenumber_field(config.potential, e)
    rows = []
    violations = 0

    need_oracle = config.mode in ("verify", "optimize")
    oracle_t = None
    if need_oracle:
        oracle_t = oracle_mod.direct_integrate(
            config.potential, e, grid, config.ode_tol).transmission

    if config.mode == "optimize":
        start = time.perf_counter()
        family = bounds_mod.phi_prime_family(config.potential, e, grid)
        gauge, report = bounds_mod.optimize_gauge(
            config.potential, e, family, config.quad_tol, grid)
        amp = scattering_amplitudes(config.potential, e, gauge,
                                    config.ode_tol, grid)
        margin = oracle_t - report.t_lower
        if margin < -bounds_mod.BOUND_SLACK:
            violations += 1
        rows.append(ResultRow(
            energy=energy, gauge_id=gauge.label,
            transmission=amp.transmission, reflection=amp.reflection,
            theta_integral=report.theta_integral, t_lower=report.t_lower,
            r_upper=report.r_upper, margin_t=margin, oracle_t=oracle_t,
            runtime_ms=1e3 * (time.perf_counter() - start)))
        return rows, violations

    for name in config.gauge_names:
        start = time.perf_counter()
        try:
            gauge = _build_gauge(name, w, grid)
        except TurningPoint:
            continue  # inadmissible at this energy; skip the combination
        amp = scattering_amplitudes(config.potential, e, gauge,
                                    config.ode_tol, grid)
        row = ResultRow(energy=energy, gauge_id=gauge.label,
                        transmission=amp.transmission,
                        reflection=amp.reflection)
        if config.mode in ("bounds", "verify"):
            try:
                report = bounds_mod.bound_report(
                    config.potential, e, gauge, config.quad_tol, grid)
            except GaugeDegenerate:
                continue  # distributional phi''; no bound for this gauge
            row.theta_integral = report.theta_integral
            row.t_lower = report.t_lower
            row.r_upper = report.r_upper
            if config.mode == "verify":
                row.oracle_t = oracle_t
                row.margin_t = oracle_t - report.t_lower
                if row.margin_t < -bounds_mod.BOUND_SLACK:
                    violations += 1
        row.runtime_ms = 1e3 * (time.perf_counter() - start)
        rows.append(row)
    return rows, violations


def _format_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        runtime = "" if r.runtime_ms is None else f"{r.runtime_ms:.3f}"
        lines.append(",".join([
            _format_cell(r.energy),
            r.gauge_id,
            _format_cell(r.transmission),
            _format_cell(r.reflection),
            _format_cell(r.theta_integral),
            _format_cell(r.t_lower),
            _format_cell(r.r_upper),
            _format_cell(r.margin_t),
            _format_cell(r.oracle_t),
            runtime,
        ]))
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
    rows = []
    violations = 0
    for energy in sorted(config.energies):
        chunk, bad = _rows_for_energy(config, energy)
        rows.extend(chunk)
        violations += bad
    with open(config.csv_path, "w", encoding="utf-8") as fh:
        fh.write(_rows_to_csv(rows))
    if config.plot_data_path is not None and rows:
        emit_plot_data(rows, config.plot_data_path)
    if config.mode == "verify" and violations:
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
    except BoundViolation as exc:
        print(f"sz-scatter: bound violation: {exc}", file=sys.stderr)
        return 4
    except (SzScatterError, ValueError, FloatingPointError) as exc:
        print(f"sz-scatter: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
