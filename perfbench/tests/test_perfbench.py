"""Tests of the benchmark's own code: its correctness gates, its tracer and
the metrics its command prints.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from szscatter import cli  # noqa: E402
from szscatter.sz_core import CoefficientState  # noqa: E402

SPEC = run.load_spec(ROOT)


@pytest.fixture(scope="module")
def verify_rows(tmp_path_factory):
    """A real verify CSV: the Gaussian at one energy below and one above
    the barrier top (3 + 4 rows)."""
    tmp = tmp_path_factory.mktemp("verify")
    out = str(tmp / "out.csv")
    cfg = tmp / "run.cfg"
    cfg.write_text(workloads.config_text(
        "verify", {"kind": "gaussian", "v0": 1, "sigma": 1}, [0.5, 2.0], out))
    assert cli.main(["--config", str(cfg)]) == 0
    with open(out, encoding="utf-8") as fh:
        return workloads.parse_csv(fh.read())


def _fail_ratio(rows, reference=None, expected=7):
    return workloads.verify_failures(rows, expected, reference) / expected


def _with(rows, i, **cells):
    out = [dict(r) for r in rows]
    out[i].update({k: f"{v:.17g}" for k, v in cells.items()})
    return out


def test_clean_verify_output_passes(verify_rows):
    assert len(verify_rows) == 7
    assert _fail_ratio(verify_rows, reference=verify_rows) == 0


def test_perturbed_transmission_fails(verify_rows):
    t = float(verify_rows[2]["transmission"])
    assert _fail_ratio(_with(verify_rows, 2, transmission=t + 2e-7)) > 0


def test_negative_margin_fails(verify_rows):
    assert _fail_ratio(_with(verify_rows, 0, margin_t=-1e-9)) > 0


def test_unitarity_defect_fails(verify_rows):
    r = float(verify_rows[4]["reflection"])
    assert _fail_ratio(_with(verify_rows, 4, reflection=r + 1e-6)) > 0


def test_csv_differing_between_passes_fails(verify_rows):
    second = [dict(r) for r in verify_rows]
    second[5]["theta_integral"] += "1"
    assert _fail_ratio(second, reference=verify_rows) > 0


def test_runtime_column_may_differ_between_passes(verify_rows):
    second = [dict(r, runtime_ms="999.000") for r in verify_rows]
    assert _fail_ratio(second, reference=verify_rows) == 0


def test_unexpected_row_count_fails_every_item(verify_rows):
    assert _fail_ratio(verify_rows[:-1]) == 1.0
    assert _fail_ratio(verify_rows, expected=8) == 1.0


def test_optimize_gates():
    row = {"theta_integral": "0.5", "t_lower": "0.7", "oracle_t": "0.8"}
    assert workloads.optimize_failures([row], 1, [0.5]) == 0
    assert workloads.optimize_failures([row], 1, [0.5 - 1e-9]) == 1
    bad = dict(row, t_lower="0.81")
    assert workloads.optimize_failures([bad], 1, [0.5]) == 1
    assert workloads.optimize_failures([], 1, [0.5]) == 1


def test_crosscheck_gate():
    a = CoefficientState(0.0, 1.0 + 0.5j, 0.25j)
    near = CoefficientState(0.0, 1.0 + 0.5j + 5e-9, 0.25j)
    far = CoefficientState(0.0, 1.0 + 0.5j, 0.25j + 2e-8)
    assert not workloads.crosscheck_failed(a, near)
    assert workloads.crosscheck_failed(a, far)


def test_jittered_energies_stay_in_range_and_follow_the_seed():
    first = workloads.jittered_energies("1:verify", 0.1, 10.0, 16)
    assert first == workloads.jittered_energies("1:verify", 0.1, 10.0, 16)
    assert first != workloads.jittered_energies("2:verify", 0.1, 10.0, 16)
    assert all(0.1 <= e <= 10.0 for e in first)
    assert first == sorted(first)


def test_self_time_subtracts_children():
    spans = [["pass", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
             ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"pass": 6.0, "a": 3.0, "b": 1.0})


def test_metric_names_and_units_are_well_formed():
    listed = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in listed]
    assert len(names) == len(set(names))
    for m in listed:
        assert tracing.NAME_RE.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert "setup_s" in names


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_listed_metric_is_printed(trace, section):
    code, lines = _run("--workload", "transfer_crosscheck", "--seed", "3",
                       "--seconds", "1", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("--workload", "verify_sweep", "--seconds", "1",
                       cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
