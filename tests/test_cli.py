"""Config parsing, run modes, CSV determinism, and plot data."""

import math
import os
import pickle
import subprocess
import sys
import threading

import pytest

import szscatter.bounds as bounds_mod
import szscatter.cli as cli_mod
import szscatter.errors as errors_mod
from szscatter.cli import (CSV_HEADER, ResultRow, emit_plot_data, main,
                           parse_config, run)
from szscatter.errors import (NonConvergence, ParseError, SzScatterError,
                              ValidationError)
from szscatter.gauges import gauge_constant
from szscatter.oracle import direct_integrate
from szscatter.potentials import EnergySpec, truncate_domain, wavenumber_field

MINIMAL = """\
[run]
mode = scatter

[potential]
kind = square_barrier
v0 = 0.0
width = 1.0

[energies]
values = 1.0

[outputs]
csv_path = {csv}
"""

BARRIER_BOUNDS = """\
[run]
mode = bounds

[potential]
kind = square_barrier
v0 = 1.0
width = 1.0

[energies]
values = 2.0

[gauges]
names = constant

[tolerances]
ode_tol = 1e-12
quad_tol = 1e-10

[outputs]
csv_path = {csv}
"""


def _parse(text):
    return parse_config(text.format(csv="out.csv"))


def test_parse_minimal_defaults():
    config = _parse(MINIMAL)
    assert config.mode == "scatter"
    assert config.energies == (1.0,)
    assert config.gauge_names == ("constant",)
    assert config.ode_tol == 1e-12
    assert config.quad_tol == 1e-10
    assert config.tail_tol == 1e-10
    assert config.hbar == 1.0 and config.mass == 0.5


def test_parse_negative_tolerance():
    text = _insert(MINIMAL, "[tolerances]\node_tol = -1e-9\n")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == "tolerances.ode_tol"


def _insert(base, extra):
    return base.format(csv="out.csv") + "\n" + extra


def test_parse_unknown_key_reports_line():
    text = _insert(MINIMAL, "[gauges]\nfoo = bar\n")
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("foo = bar") + 1
    assert "foo" in str(err.value)


def test_parse_unknown_key_line_number_exact():
    text = "[run]\nmode = scatter\nbogus = 1\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == 3


def test_parse_malformed_lines():
    with pytest.raises(ParseError):
        parse_config("[run\nmode = scatter\n")
    with pytest.raises(ParseError):
        parse_config("mode = scatter\n")  # key outside any section
    with pytest.raises(ParseError):
        parse_config("[run]\nmode scatter\n")
    with pytest.raises(ParseError):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ParseError):
        parse_config("[run]\nmode = a\n[run]\nmode = b\n")
    for text, line in [("[run]\nmode = a\nmode = b\n", 3),  # duplicate key
                       ("[run]\nmode =\n", 2)]:  # empty value
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line == line


def test_parse_validation_failures():
    with pytest.raises(ValidationError) as err:
        parse_config("[potential]\nkind = gaussian\nv0 = 1\nsigma = 1\n"
                     "[energies]\nvalues = 1\n")
    assert err.value.field == "run.mode"
    with pytest.raises(ValidationError) as err:
        parse_config("[run]\nmode = scatter\n[potential]\nkind = gaussian\n"
                     "v0 = 1\n[energies]\nvalues = 1\n")
    assert err.value.field == "potential.sigma"
    with pytest.raises(ValidationError):
        parse_config("[run]\nmode = scatter\n[potential]\nkind = gaussian\n"
                     "v0 = 1\nsigma = 1\nwidth = 2\n[energies]\nvalues = 1\n")
    with pytest.raises(ValidationError) as err:
        parse_config("[run]\nmode = fly\n[potential]\nkind = gaussian\n"
                     "v0 = 1\nsigma = 1\n[energies]\nvalues = 1\n")
    assert err.value.field == "run.mode"
    with pytest.raises(ValidationError) as err:
        parse_config("[run]\nmode = scatter\n[potential]\nkind = gaussian\n"
                     "v0 = 1\nsigma = 1\n[energies]\nvalues = 1\n"
                     "[gauges]\nnames = constant spiral\n")
    assert err.value.field == "gauges.names"
    head = "[run]\nmode = scatter\n"
    gauss = head + "[potential]\nkind = gaussian\nv0 = 1\nsigma = 1\n"
    for text, field in [
        (head + "[potential]\nkind = gaussian\nv0 = one\nsigma = 1\n"
         "[energies]\nvalues = 1\n", "potential.v0"),
        (head + "[potential]\nkind = poschl_teller\nell = 1.5\n"
         "[energies]\nvalues = 1\n", "potential.ell"),
        (head + "[potential]\nv0 = 1\n[energies]\nvalues = 1\n",
         "potential.kind"),
        (head + "[potential]\nkind = cosine\n[energies]\nvalues = 1\n",
         "potential.kind"),
        (gauss + "[energies]\nstart = 1\nstop = 4\ncount = 2.5\n",
         "energies.count"),
        (gauss + "[energies]\nstart = 0\nstop = 4\ncount = 3\n"
         "spacing = log\n", "energies.spacing"),
        (gauss + "[energies]\nstart = 1\nstop = 4\ncount = 3\n"
         "spacing = cubic\n", "energies.spacing"),
        (gauss + "[energies]\nstart = 1\n", "energies.stop"),
        (gauss + "[energies]\nspacing = log\n", "energies"),
        (head + "[energies]\nvalues = 1\n", "potential"),
        (gauss, "energies"),
    ]:
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.field == field


def test_main_without_csv_path_is_a_configuration_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.format(csv="out.csv").replace(
        "csv_path = out.csv\n", ""))
    assert cfg.read_text().endswith("[outputs]\n")
    assert main(["--config", str(cfg)]) == 2


def test_parse_energy_range():
    config = parse_config(
        "[run]\nmode = scatter\n[potential]\nkind = gaussian\nv0 = 1\n"
        "sigma = 1\n[energies]\nstart = 1\nstop = 4\ncount = 4\n"
        "[outputs]\ncsv_path = x.csv\n")
    assert config.energies == (1.0, 2.0, 3.0, 4.0)
    config = parse_config(
        "[run]\nmode = scatter\n[potential]\nkind = gaussian\nv0 = 1\n"
        "sigma = 1\n[energies]\nstart = 1\nstop = 4\ncount = 3\n"
        "spacing = log\n[outputs]\ncsv_path = x.csv\n")
    assert config.energies == pytest.approx((1.0, 2.0, 4.0))
    with pytest.raises(ValidationError):
        parse_config("[run]\nmode = scatter\n[potential]\nkind = gaussian\n"
                     "v0 = 1\nsigma = 1\n[energies]\nvalues = 1\nstart = 1\n")
    with pytest.raises(ValidationError) as err:
        parse_config("[run]\nmode = scatter\n[potential]\nkind = gaussian\n"
                     "v0 = 1\nsigma = 1\n[energies]\nvalues = 1 2\n"
                     "spacing = log\n")
    assert err.value.field == "energies.spacing"


GAUSSIAN_VERIFY = {
    "run": {"mode": "verify", "hbar": "1.0", "mass": "0.5"},
    "potential": {"kind": "gaussian", "v0": "1.0", "sigma": "1.0"},
    "energies": {"values": "2.0"},
    "tolerances": {"ode_tol": "1e-12", "quad_tol": "1e-10",
                   "tail_tol": "1e-10"},
}


@pytest.mark.parametrize("section,key", [
    ("tolerances", "quad_tol"), ("tolerances", "ode_tol"),
    ("tolerances", "tail_tol"), ("potential", "v0"), ("potential", "sigma"),
    ("run", "hbar"), ("run", "mass"), ("energies", "values")])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_number_is_a_configuration_error(tmp_path, section, key,
                                                    bad):
    # NaN passes every "> 0" check and makes "err > tol" never fire, so a
    # non-finite number must stop the run at parse time (exit 2), not
    # silently switch a check off or fail later as a numerical error.
    csv = tmp_path / "out.csv"
    sections = {name: dict(keys) for name, keys in GAUSSIAN_VERIFY.items()}
    sections[section][key] = "2.0 " + bad if key == "values" else bad
    sections["outputs"] = {"csv_path": str(csv)}
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in keys.items())
                   for name, keys in sections.items())
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == f"{section}.{key}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg)]) == 2
    assert not csv.exists()


@pytest.mark.parametrize("hbar", ["1e-200", "1e200"])
def test_units_whose_c1_is_not_a_float_are_a_configuration_error(tmp_path,
                                                                 hbar):
    csv = tmp_path / "out.csv"
    text = MINIMAL.format(csv=csv).replace(
        "mode = scatter", f"mode = scatter\nhbar = {hbar}")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == "run.hbar"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg)]) == 2
    assert not csv.exists()


# (energy, gauge) rows and filled cells on barrier(1, 1) with gauges
# "constant wkb": wkb has a turning point at E = 0.5, and its phi' jumps at
# the barrier edges, so it never gets a bound and the optimizer keeps its
# s = 0 member, the constant gauge.
_MODE_ROWS = {
    "scatter": ([(0.5, "constant"), (2.0, "constant"), (2.0, "wkb")],
                {"transmission", "reflection"}),
    "bounds": ([(0.5, "constant"), (2.0, "constant")],
               {"transmission", "reflection", "theta_integral", "t_lower",
                "r_upper"}),
    "verify": ([(0.5, "constant"), (2.0, "constant")], None),
    "optimize": ([(0.5, "constant"), (2.0, "constant")], None),
}


@pytest.mark.parametrize("mode", sorted(_MODE_ROWS))
def test_rows_and_filled_cells_per_mode(tmp_path, mode):
    csv = tmp_path / "rows.csv"
    text = BARRIER_BOUNDS.replace("mode = bounds", f"mode = {mode}").replace(
        "values = 2.0", "values = 0.5 2.0").replace(
        "names = constant", "names = constant wkb")
    assert run(parse_config(text.format(csv=csv))) == 0
    header, *lines = csv.read_text().splitlines()
    columns = header.split(",")
    expected_rows, filled = _MODE_ROWS[mode]
    filled = set(columns[2:-1]) if filled is None else filled
    got = []
    for line in lines:
        cells = dict(zip(columns, line.split(",")))
        got.append((float(cells["energy"]),
                    cells["gauge_id"].split("(")[0]))
        assert {c for c in columns[2:-1] if cells[c]} == filled
        assert float(cells["runtime_ms"]) >= 0.0
    assert got == expected_rows


def test_run_scatter_free(tmp_path):
    csv = tmp_path / "free.csv"
    config = parse_config(MINIMAL.format(csv=csv))
    assert run(config) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[2]) == pytest.approx(1.0, abs=1e-10)  # transmission
    assert cells[4] == ""  # no theta column in scatter mode


def test_run_bounds_barrier(tmp_path):
    csv = tmp_path / "bounds.csv"
    config = parse_config(BARRIER_BOUNDS.format(csv=csv))
    assert run(config) == 0
    cells = csv.read_text().splitlines()[1].split(",")
    theta = float(cells[4])
    t_lower = float(cells[5])
    assert theta == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-10)
    assert t_lower == pytest.approx(1.0 / math.cosh(theta) ** 2, abs=1e-12)


def test_run_verify_suite_exit_zero(tmp_path):
    csv = tmp_path / "verify.csv"
    text = BARRIER_BOUNDS.replace("mode = bounds", "mode = verify").replace(
        "values = 2.0", "values = 0.5 2.0 5.0").replace(
        "names = constant", "names = constant wkb special_delta antiphase")
    config = parse_config(text.format(csv=csv))
    assert run(config) == 0
    lines = csv.read_text().splitlines()[1:]
    assert len(lines) > 0
    for line in lines:
        cells = line.split(",")
        margin = float(cells[7])
        assert margin >= -1e-12


def test_run_optimize_mode(tmp_path):
    csv = tmp_path / "opt.csv"
    text = BARRIER_BOUNDS.replace("mode = bounds", "mode = optimize").replace(
        "kind = square_barrier", "kind = gaussian").replace(
        "width = 1.0", "sigma = 1.0")
    config = parse_config(text.format(csv=csv))
    assert run(config) == 0
    cells = csv.read_text().splitlines()[1].split(",")
    assert cells[1].startswith("family(")
    assert float(cells[7]) >= -1e-12  # margin_t
    assert float(cells[8]) > 0.9  # oracle_t


GAUSSIAN_SWEEP = BARRIER_BOUNDS.replace(
    "kind = square_barrier", "kind = gaussian").replace(
    "width = 1.0", "sigma = 1.0").replace(
    "values = 2.0", "values = 0.5 0.8 1.5 2.0 5.0").replace(
    "names = constant", "names = constant wkb special_delta antiphase")


def _csv_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _energy_setup(config, energy):
    e = EnergySpec(energy, hbar=config.hbar, mass=config.mass)
    return e, truncate_domain(config.potential, e, config.tail_tol)


@pytest.mark.parametrize("mode", ["bounds", "optimize"])
def test_every_row_transmits_as_the_oracle(monkeypatch, tmp_path, mode):
    # Every gauge a sweep builds, the optimizer's blends included, gives
    # the oracle's T: a gauge that claims a zero diagonal it does not have
    # would be solved as if it had one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    csv = tmp_path / f"{mode}.csv"
    config = parse_config(GAUSSIAN_SWEEP.replace(
        "mode = bounds", f"mode = {mode}").format(csv=csv))
    assert run(config) == 0
    rows = _csv_rows(csv)
    assert len(rows) == (5 if mode == "optimize" else 3 * 5 + 3)
    for row in rows:
        e, grid = _energy_setup(config, float(row["energy"]))
        oracle = direct_integrate(config.potential, e, grid, config.ode_tol)
        assert abs(float(row["transmission"])
                   - oracle.transmission) <= 1e-9, row["gauge_id"]


def test_verify_integrates_theta_once_per_phi_prime(monkeypatch, tmp_path):
    # theta does not see Delta, so constant, special_delta and antiphase
    # share one J per energy, and wkb, admissible above the top V0 = 1,
    # has its own.  Each J is the one bound_report gives for its gauge.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    energies, integrated = [], []
    real_rows, real_theta = cli_mod._rows_for_energy, bounds_mod.theta_integral

    def rows(config, energy):
        energies.append(energy)
        return real_rows(config, energy)

    def theta(*args):
        integrated.append(energies[-1])
        return real_theta(*args)

    monkeypatch.setattr(cli_mod, "_rows_for_energy", rows)
    monkeypatch.setattr(bounds_mod, "theta_integral", theta)
    csv = tmp_path / "verify.csv"
    config = parse_config(GAUSSIAN_SWEEP.replace(
        "mode = bounds", "mode = verify").format(csv=csv))
    assert run(config) == 0
    assert integrated == [0.5, 0.8, 1.5, 1.5, 2.0, 2.0, 5.0, 5.0]
    rows = _csv_rows(csv)
    assert len(rows) == 3 * 5 + 3
    for row in rows:
        e, grid = _energy_setup(config, float(row["energy"]))
        w = wavenumber_field(config.potential, e)
        name = row["gauge_id"].split("[")[0].split("(")[0]
        gauge = cli_mod._GAUGES[name](w, grid, gauge_constant(w.k_left))
        report = bounds_mod.bound_report(config.potential, e, gauge,
                                         config.quad_tol, grid)
        assert float(row["theta_integral"]) == report.theta_integral
        assert float(row["t_lower"]) == report.t_lower


def test_run_writes_plot_data(tmp_path):
    csv = tmp_path / "rows.csv"
    plot = tmp_path / "rows.dat"
    text = BARRIER_BOUNDS.format(csv=csv) + f"plot_data_path = {plot}\n"
    assert run(parse_config(text)) == 0
    content = plot.read_text()
    assert content.startswith("# constant(k=1.41421)")
    assert len(content.strip().splitlines()) == 2


def test_csv_determinism(tmp_path):
    def strip_runtime(path):
        rows = []
        for line in path.read_text().splitlines():
            rows.append(",".join(line.split(",")[:-1]))
        return rows

    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    run(parse_config(BARRIER_BOUNDS.format(csv=csv1)))
    run(parse_config(BARRIER_BOUNDS.format(csv=csv2)))
    assert strip_runtime(csv1) == strip_runtime(csv2)


def test_threaded_rows_identical(tmp_path):
    """Energies given out of order come out as energy-sorted rows, the
    same on every run, whether or not the sweep splits its energies
    across a helper process."""
    text = BARRIER_BOUNDS.replace("values = 2.0", "values = 5.0 0.5 2.0")
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run(parse_config(text.format(csv=first)))
    run(parse_config(text.format(csv=second)))

    def strip_runtime(path):
        return [",".join(line.split(",")[:-1])
                for line in path.read_text().splitlines()]

    assert strip_runtime(first) == strip_runtime(second)
    energies = [float(line.split(",")[0])
                for line in first.read_text().splitlines()[1:]]
    assert energies == [0.5, 2.0, 5.0]


def test_seventeen_digit_roundtrip(tmp_path):
    csv = tmp_path / "digits.csv"
    run(parse_config(BARRIER_BOUNDS.format(csv=csv)))
    cells = csv.read_text().splitlines()[1].split(",")
    value = float(cells[2])
    assert f"{value:.17g}" == cells[2]


def test_emit_plot_data(tmp_path):
    rows = [ResultRow(energy=e, gauge_id=g, transmission=0.5 + 0.1 * e,
                      t_lower=0.4)
            for g in ("constant(k=1)", "wkb") for e in (1.0, 2.0, 3.0)]
    path = tmp_path / "plot.dat"
    emit_plot_data(rows, path)
    blocks = path.read_text().strip().split("\n\n")
    assert len(blocks) == 2
    first = blocks[0].splitlines()
    assert first[0] == "# constant(k=1)"
    assert len(first) == 4
    assert len(first[1].split()) == 3

    single = [r for r in rows if r.gauge_id == "wkb"]
    emit_plot_data(single, path)
    assert len(path.read_text().strip().split("\n\n")) == 1

    with pytest.raises(ValueError):
        emit_plot_data([], tmp_path / "nope.dat")
    assert not (tmp_path / "nope.dat").exists()


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nmode = scatter\nwat = 1\n")
    assert main(["--config", str(bad)]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2

    # NoDecay from a tabulated potential whose stated asymptote is wrong.
    table = tmp_path / "pot.dat"
    table.write_text("-1.0 0.2\n0.0 0.5\n1.0 0.2\n")
    cfg = tmp_path / "nodecay.cfg"
    cfg.write_text(
        "[run]\nmode = scatter\n[potential]\nkind = tabulated\n"
        f"file = {table}\nv_left = 0.0\nv_right = 0.0\n"
        "[energies]\nvalues = 1.0\n"
        f"[outputs]\ncsv_path = {tmp_path / 'x.csv'}\n")
    assert main(["--config", str(cfg)]) == 3

    good = tmp_path / "good.cfg"
    good.write_text(MINIMAL.format(csv=tmp_path / "good.csv"))
    assert main(["--config", str(good)]) == 0
    # --out and --mode overrides
    assert main(["--config", str(good), "--mode", "scatter",
                 "--out", str(tmp_path / "other.csv")]) == 0
    assert (tmp_path / "other.csv").exists()


@pytest.mark.parametrize("table", [
    "0.0 0.1\n-1.0 0.2\n1.0 0.0\n",        # positions not increasing
    "-1.0 0.0 1.0\n0.0 0.5 1.0\n1.0 0.0 1.0\n",  # three columns
    "-1.0 0.0\n0.0 abc\n1.0 0.0\n",        # a non-numeric cell
    "-1.0 0.0\n0.0 nan\n1.0 0.0\n",        # a NaN value
], ids=["unordered", "three-columns", "non-numeric", "nan"])
def test_malformed_potential_file_is_a_configuration_error(tmp_path, table):
    path = tmp_path / "pot.dat"
    path.write_text(table)
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\nmode = scatter\n[potential]\nkind = tabulated\n"
        f"file = {path}\n[energies]\nvalues = 1.0\n"
        f"[outputs]\ncsv_path = {csv}\n")
    assert main(["--config", str(cfg)]) == 2
    assert not csv.exists()


@pytest.mark.parametrize("potential", [
    "kind = gaussian\nv0 = 1.0\nsigma = -1\n",
    "kind = square_barrier\nv0 = 1.0\nwidth = -2\n",
    "kind = poschl_teller\nell = 1\nscale = 0\n",
], ids=["sigma", "width", "scale"])
def test_out_of_range_potential_parameter_is_a_configuration_error(
        tmp_path, potential):
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nmode = scatter\n[potential]\n" + potential
                   + "[energies]\nvalues = 1.0\n"
                   f"[outputs]\ncsv_path = {csv}\n")
    with pytest.raises(ValidationError) as err:
        parse_config(cfg.read_text())
    assert err.value.field == "potential"
    assert main(["--config", str(cfg)]) == 2
    assert not csv.exists()


@pytest.mark.parametrize("values", ["-0.5 1.0", "1.0 2.0 0.0"],
                         ids=["negative-first", "zero-last"])
def test_energy_at_or_below_an_asymptote_is_a_configuration_error(
        tmp_path, values):
    # A closed asymptotic channel is found while parsing, before any energy
    # runs, wherever the energy sits in the list.
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nmode = scatter\n[potential]\nkind = gaussian\n"
                   f"v0 = 1.0\nsigma = 1.0\n[energies]\nvalues = {values}\n"
                   f"[outputs]\ncsv_path = {csv}\n")
    with pytest.raises(ValidationError) as err:
        parse_config(cfg.read_text())
    assert err.value.field == "energies"
    assert main(["--config", str(cfg)]) == 2
    assert not csv.exists()


def test_csv_path_in_missing_directory_exits_before_the_sweep(
        monkeypatch, tmp_path):
    import szscatter.cli as cli_mod

    calls = []
    real = cli_mod._rows_for_energy
    monkeypatch.setattr(cli_mod, "_rows_for_energy",
                        lambda *args: calls.append(args) or real(*args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.format(csv=tmp_path / "missing" / "out.csv"))
    with pytest.raises(ValidationError) as err:
        run(parse_config(cfg.read_text()))
    assert err.value.field == "outputs.csv_path"
    assert main(["--config", str(cfg)]) == 2
    assert calls == []


def test_plot_data_path_in_missing_directory_exits_before_the_sweep(
        tmp_path):
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.format(csv=csv) + "plot_data_path = "
                   f"{tmp_path / 'missing' / 'out.dat'}\n")
    with pytest.raises(ValidationError) as err:
        run(parse_config(cfg.read_text()))
    assert err.value.field == "outputs.plot_data_path"
    assert main(["--config", str(cfg)]) == 2
    assert not csv.exists()


def test_unwritable_csv_path_exits_two(tmp_path, capsys):
    # The directory exists, but the path is itself a directory.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.format(csv=tmp_path))
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sz-scatter: [Errno")
    assert err.count("\n") == 1


def test_run_exit_four_on_violation(monkeypatch, tmp_path):
    import szscatter.cli as cli_mod

    def fake_rows(config, energy):
        return [ResultRow(energy=energy, gauge_id="fake", transmission=0.5,
                          margin_t=-1.0)], 1

    monkeypatch.setattr(cli_mod, "_rows_for_energy", fake_rows)
    csv = tmp_path / "viol.csv"
    text = BARRIER_BOUNDS.replace("mode = bounds", "mode = verify")
    assert run(parse_config(text.format(csv=csv))) == 4


def test_verify_exits_three_when_oracle_panels_run_out(monkeypatch, tmp_path):
    import szscatter._panels as panels_mod

    # The barrier window needs three panels, for the oracle and theta alike.
    monkeypatch.setattr(panels_mod, "MAX_PANELS", 2)
    csv = tmp_path / "verify.csv"
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(BARRIER_BOUNDS.replace("mode = bounds", "mode = verify")
                   .format(csv=csv))
    assert main(["--config", str(cfg)]) == 3
    assert not csv.exists()


def test_special_delta_stall_keeps_every_row(tmp_path):
    # sech^2 l=3, scale 0.657 at E = 0.32: the special_delta product's
    # refinement once stalled here, so the sweep exited 3 and wrote no CSV,
    # losing the constant-gauge row too.
    csv = tmp_path / "verify.csv"
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("[run]\nmode = verify\n[potential]\nkind = poschl_teller\n"
                   "ell = 3\nscale = 0.657\n[energies]\nvalues = 0.32\n"
                   "[gauges]\nnames = constant special_delta\n[outputs]\n"
                   f"csv_path = {csv}\n")
    assert main(["--config", str(cfg)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[1].split("[")[0] for line in lines[1:]] == [
        "constant(k=0.565685)", "special_delta"]


SCIPY_FREE_RUN = """\
import sys
import numpy as np
import szscatter, szscatter.cli
from szscatter.gauges import gauge_from_tables

codes = [szscatter.cli.main(["--config", path]) for path in sys.argv[1:]]
xs = np.linspace(-3.0, 3.0, 61)
gauge_from_tables((xs, 1.2 * xs), chi_table=(xs, 0.1 * np.exp(-xs**2)))
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_never_loads_scipy(tmp_path):
    # A fresh process (this one loaded scipy for the test references)
    # imports the package, runs verify sweeps on a Gaussian and on a
    # tabulated file and builds a tabulated gauge, without scipy.
    # The 41-knot tanh ramp from V = 0 to V = 0.25 on [-6, 6].
    ramp = [0.125 * (1.0 + math.tanh(0.3 * i - 6.0)) for i in range(41)]
    ramp[0], ramp[-1] = 0.0, 0.25
    table = tmp_path / "ramp.dat"
    table.write_text("".join(f"{0.3 * i - 6.0!r} {v!r}\n"
                             for i, v in enumerate(ramp)))
    potentials = {
        "gaussian": "kind = gaussian\nv0 = 1.0\nsigma = 1.0\n",
        "ramp": f"kind = tabulated\nfile = {table}\n"}
    configs = []
    for name, potential in potentials.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            "[run]\nmode = verify\n[potential]\n" + potential
            + "[energies]\nvalues = 2.0 5.0\n[gauges]\n"
            "names = constant special_delta antiphase\n[outputs]\n"
            f"csv_path = {tmp_path / name}.csv\n")
        configs.append(str(cfg))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, *configs],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] []"


def test_runtime_import_leaves_out_numpy_polynomial():
    # The panel operators are built without numpy.polynomial, which
    # numpy itself does not import.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import sys, szscatter.cli; "
                    "sys.exit('numpy.polynomial' in sys.modules)"],
                   env=env, check=True)


def test_every_error_survives_pickling():
    # A split sweep pickles whatever its helper raises back to the parent.
    made = [ParseError("expected 'key = value'", 3),
            ValidationError("potential.v0", "not a number: 'one'"),
            ValidationError("energies")]
    classes = [cls for cls in vars(errors_mod).values()
               if isinstance(cls, type) and issubclass(cls, SzScatterError)]
    made += [cls("no convergence") for cls in classes
             if cls not in (ParseError, ValidationError)]
    assert {type(exc) for exc in made} == set(classes)
    for exc in made:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
    assert str(made[0]) == "line 3: expected 'key = value'"
    assert (made[1].field, str(made[1])) == (
        "potential.v0", "potential.v0: not a number: 'one'")
    assert (made[2].field, str(made[2])) == ("energies", "energies")


# Barrier(1, 1) at five energies: the first runs alone, then the helper
# takes 0.8 and 3.0 and the parent 2.0 and 5.0.  wkb has a turning point
# below the barrier top, at 0.5 and 0.8.
SPLIT_SWEEP = BARRIER_BOUNDS.replace(
    "values = 2.0", "values = 5.0 0.5 3.0 0.8 2.0").replace(
    "names = constant", "names = constant wkb special_delta antiphase")
GAUSSIAN_SPLIT_SWEEP = SPLIT_SWEEP.replace(
    "kind = square_barrier", "kind = gaussian").replace(
    "width = 1.0", "sigma = 1.0").replace("mode = bounds", "mode = verify")


@pytest.fixture
def forks(monkeypatch):
    """The sweep forks whatever its first energy took; each os.fork call
    records the number of threads alive at the time."""
    calls = []
    real = os.fork

    def fork():
        calls.append(threading.active_count())
        return real()

    monkeypatch.setattr(cli_mod, "FORK_COST_S", 0.0)
    monkeypatch.setattr(os, "fork", fork)
    return calls


def _sweep(monkeypatch, capsys, tmp_path, text, cpus):
    """(exit code, stderr, CSV cells without runtime_ms or None) of main on
    `text` with `cpus` usable CPUs; checks that no child is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    csv = tmp_path / f"cpus{cpus}.csv"
    cfg = tmp_path / f"cpus{cpus}.cfg"
    cfg.write_text(text.format(csv=csv))
    code = main(["--config", str(cfg)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    cells = None
    if csv.exists():
        cells = [line.split(",")[:-1] for line in csv.read_text().splitlines()]
    return code, capsys.readouterr().err, cells


@pytest.mark.parametrize("text, mode", [
    (SPLIT_SWEEP, "scatter"), (SPLIT_SWEEP, "bounds"),
    (SPLIT_SWEEP, "optimize"), (SPLIT_SWEEP, "verify"),
    (GAUSSIAN_SPLIT_SWEEP, "verify")],
    ids=["scatter", "bounds", "optimize", "verify", "gaussian-verify"])
def test_split_sweep_matches_serial(monkeypatch, capsys, tmp_path, forks,
                                    text, mode):
    text = text.replace("mode = bounds", f"mode = {mode}")
    serial = _sweep(monkeypatch, capsys, tmp_path, text, 1)
    assert forks == []
    split = _sweep(monkeypatch, capsys, tmp_path, text, 2)
    assert forks == [1]
    assert split == serial
    code, err, cells = split
    assert (code, err) == (0, "")
    wkb = [float(row[0]) for row in cells if row[1].startswith("wkb")]
    if mode == "scatter" or text is GAUSSIAN_SPLIT_SWEEP:
        assert wkb == [2.0, 3.0, 5.0]  # none below the top, V0 = 1
    else:
        assert wkb == []  # phi' jumps at the barrier edges: no bound


@pytest.mark.parametrize("failures", [
    {3.0: lambda: ValidationError("potential", "fails at 3")},
    {2.0: lambda: NonConvergence("fails at 2")},
    {0.8: lambda: NonConvergence("fails at 0.8"),
     2.0: lambda: ValidationError("potential", "fails at 2")},
    {2.0: lambda: NonConvergence("fails at 2"),
     3.0: lambda: ValidationError("potential", "fails at 3")}],
    ids=["helper", "parent", "helper-first", "parent-first"])
def test_split_sweep_fails_as_a_serial_one(monkeypatch, capsys, tmp_path,
                                           forks, failures):
    # The helper computes 0.8 and 3.0, the parent 2.0 and 5.0; whichever
    # side fails, the first failure in energy order is reported.
    real = cli_mod._rows_for_energy

    def rows(config, energy):
        if energy in failures:
            raise failures[energy]()
        return real(config, energy)

    monkeypatch.setattr(cli_mod, "_rows_for_energy", rows)
    text = SPLIT_SWEEP.replace("mode = bounds", "mode = scatter")
    serial = _sweep(monkeypatch, capsys, tmp_path, text, 1)
    split = _sweep(monkeypatch, capsys, tmp_path, text, 2)
    assert forks == [1]
    assert split == serial
    code, err, cells = split
    first = failures[min(failures)]()
    assert code == (2 if isinstance(first, ValidationError) else 3)
    assert err.endswith(f"{first}\n") and cells is None


@pytest.mark.parametrize("count", [4, 16])
def test_split_sweep_gives_each_process_half(monkeypatch, capsys, tmp_path,
                                             forks, count):
    # With the first energy, which the parent runs alone, the parent and
    # the helper compute count / 2 energies each: the helper the
    # even-indexed rest, the parent the first and the odd-indexed rest.
    log = tmp_path / "pids.log"

    def rows(config, energy):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{energy!r} {os.getpid()}\n")
        return [ResultRow(energy, "stub")], 0

    monkeypatch.setattr(cli_mod, "_rows_for_energy", rows)
    energies = [float(i) for i in range(1, count + 1)]
    text = MINIMAL.replace("values = 1.0", "values = " + " ".join(
        map(repr, reversed(energies))))
    code, _, cells = _sweep(monkeypatch, capsys, tmp_path, text, 2)
    assert forks == [1] and code == 0
    assert [float(row[0]) for row in cells[1:]] == energies
    pid = {float(e): int(p) for e, p in
           (line.split() for line in log.read_text().splitlines())}
    parent = os.getpid()
    helper = {pid[e] for e in energies[1::2]}
    assert helper != {parent} and len(helper) == 1
    assert [e for e in energies if pid[e] == parent] == (
        energies[:1] + energies[2::2])
    assert len(pid) == count
    assert sum(p == parent for p in pid.values()) == count // 2


def test_split_sweep_survives_a_dead_helper(monkeypatch, capsys, tmp_path,
                                            forks):
    # A helper that dies without a payload leaves its energies to the
    # parent.
    real = cli_mod._rows_for_energy
    parent = os.getpid()

    def rows(config, energy):
        if os.getpid() != parent:
            os._exit(9)
        return real(config, energy)

    monkeypatch.setattr(cli_mod, "_rows_for_energy", rows)
    serial = _sweep(monkeypatch, capsys, tmp_path, SPLIT_SWEEP, 1)
    split = _sweep(monkeypatch, capsys, tmp_path, SPLIT_SWEEP, 2)
    assert forks == [1]
    assert split == serial and split[0] == 0


def test_sweep_with_a_second_thread_never_forks(monkeypatch, capsys,
                                                tmp_path, forks):
    # fork would copy only the calling thread.
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        code, _, cells = _sweep(monkeypatch, capsys, tmp_path,
                                SPLIT_SWEEP, 2)
    finally:
        release.set()
        other.join()
    assert forks == []
    assert code == 0 and len(cells) == 1 + 3 * 5  # wkb gets no bound
