"""Spans and counters recorded around calls into szscatter's modules.

The tracer wraps each function at every name a caller looks it up by: it
scans the loaded ``szscatter`` modules for attributes that are the function
object and replaces each one (``sz_core`` imports ``rk45_coeffs`` and
``ordered_product`` by name, ``cli`` imports ``scattering_amplitudes``, and
so on).  Nothing under ``src/`` changes.  Spans (name, start, end, parent)
stay in memory until the traced pass ends; a span's self time is its
duration minus the part of it that its child spans cover.

Byte and step counts are computed from array sizes and step counts that
the wrapped calls return; they are not measured bandwidth.
"""

import dataclasses
import re
import sys
import time
from collections import Counter

# Span name -> (module, attribute) of every function recorded under it.
SPANS = {
    "potentials.truncate_domain": [("potentials", "truncate_domain")],
    "gauges.build": [("gauges", "rho_pair")],  # plus every gauges.gauge_*
    "tables.build_segment_table": [("_tables", "build_segment_table")],
    "sz_core.bundle": [("sz_core", "_build_bundle")],
    "kernels.rk45_coeffs": [("_kernels", "rk45_coeffs")],
    "kernels.ordered_product": [("_kernels", "ordered_product")],
    "kernels.rk45_wave": [("_kernels", "rk45_wave")],
    "sz_core.transfer_matrix": [("sz_core", "transfer_matrix")],
    "sz_core.scattering_amplitudes": [("sz_core", "scattering_amplitudes")],
    "sz_core.evolve": [("sz_core", "evolve_path")],
    "oracle.direct_integrate": [("oracle", "direct_integrate")],
    "bounds.theta_integral": [("bounds", "theta_integral")],
    "bounds.optimize_gauge": [("bounds", "optimize_gauge")],
    "bounds.bound_report": [("bounds", "bound_report")],
    "cli.parse_config": [("cli", "parse_config")],
    "cli.csv": [("cli", "_rows_to_csv")],
    "cli.main": [("cli", "main")],
}

# Spans whose call count is a per-layer metric.
CALL_COUNTED = ("potentials.truncate_domain", "gauges.build",
                "tables.build_segment_table", "kernels.rk45_coeffs",
                "kernels.ordered_product", "oracle.direct_integrate",
                "bounds.theta_integral")

# Bytes of one step exponential: four complex128 entries.
STEP_MATRIX_BYTES = 4 * 16

ROOT = "pass"

# What a metric name may look like.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Tracer:
    """In-memory spans and counters for one traced pass (single thread)."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.open = Counter()  # names of the spans currently open
        self.counts = Counter()
        self.drift_max = 0.0
        self.last_product_steps = 0

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        self.open[name] += 1

    def end(self):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        self.open[span[0]] -= 1


def _spanned(tracer, name, fn, after):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        return after(args, result) if after else result
    return wrapper


def _counted(fn, after):
    def wrapper(*args, **kwargs):
        return after(args, fn(*args, **kwargs))
    return wrapper


def _hooks(tracer):
    """Counters taken from arguments and return values, by span name.
    Each hook returns the value the caller receives."""
    c = tracer.counts

    def table(args, t):
        c["tables.build_segment_table.intervals"] += t.n
        c["tables.build_segment_table.bytes_computed"] += t.coeffs.nbytes
        return t

    def coeffs(args, out):  # (a, b, drift, accepted, rejected, status)
        c["kernels.rk45_coeffs.steps_accepted"] += out[3]
        c["kernels.rk45_coeffs.steps_rejected"] += out[4]
        return out

    def wave(args, out):  # (psi, psi', accepted, rejected, status)
        c["kernels.rk45_wave.steps"] += out[2] + out[3]
        return out

    def product(args, out):  # args[5] is the step count
        tracer.last_product_steps = args[5]
        c["kernels.ordered_product.steps"] += args[5]
        return out

    def evolve(args, out):  # (states, EvolveStats)
        tracer.drift_max = max(tracer.drift_max, out[1].conservation_drift)
        return out

    def theta_integral(args, out):
        if tracer.open["bounds.optimize_gauge"]:
            c["bounds.optimize_gauge.theta_calls"] += 1
        return out

    def bundle(args, out):
        c["sz_core.bundle.builds"] += 1
        return out

    return {"tables.build_segment_table": table,
            "kernels.rk45_coeffs": coeffs, "kernels.rk45_wave": wave,
            "kernels.ordered_product": product, "sz_core.evolve": evolve,
            "bounds.theta_integral": theta_integral,
            "sz_core.bundle": bundle}


def _counting_theta(counts, theta):
    def fn(x):
        counts["bounds.theta.evals"] += 1
        counts["bounds.theta.points"] += getattr(x, "size", 1)
        return theta(x)
    return fn


def install(tracer):
    """Wrap every traced function in every loaded szscatter module.
    Returns a function that puts the originals back."""
    mods = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name == "szscatter" or name.startswith("szscatter.")}
    c = tracer.counts
    hooks = _hooks(tracer)

    def theta_field(args, t):
        return dataclasses.replace(t, theta=_counting_theta(c, t.theta))

    def lookup(args, bundle):
        c["sz_core.bundle.lookups"] += 1
        return bundle

    def chunk(args, block):
        c["sz_core.transfer_matrix.chunks"] += 1
        c["kernels.ordered_product.useful_steps"] += tracer.last_product_steps
        return block

    targets = []  # (original, wrapper)
    for name, places in SPANS.items():
        if name == "gauges.build":
            places = places + [("gauges", a) for a in vars(mods["gauges"])
                               if a.startswith("gauge_")]
        for mod, attr in places:
            fn = getattr(mods[mod], attr)
            targets.append((fn, _spanned(tracer, name, fn, hooks.get(name))))
    for mod, attr, after in (("bounds", "theta_field", theta_field),
                             ("sz_core", "_bundle_for", lookup),
                             ("sz_core", "_refined_product", chunk)):
        fn = getattr(mods[mod], attr)
        targets.append((fn, _counted(fn, after)))

    replaced = []
    by_id = {id(fn): wrapper for fn, wrapper in targets}
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                replaced.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def restore():
        for mod, attr, value in replaced:
            setattr(mod, attr, value)
    return restore


def self_times(spans):
    """Total self time per span name."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for k in children[i]:  # in start order, since spans append on entry
            lo = max(spans[k][1], reach)
            hi = min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, by metric name.

    A ratio whose base is zero (the layer did not run) is reported as 0.
    """
    selfs = self_times(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans)
    c = tracer.counts
    m = {f"{name}.self_s": selfs[name] for name in SPANS}
    m.update({f"{name}.calls": calls[name] for name in CALL_COUNTED})
    for key in ("tables.build_segment_table.intervals",
                "tables.build_segment_table.bytes_computed",
                "sz_core.bundle.builds", "sz_core.bundle.lookups",
                "kernels.rk45_coeffs.steps_accepted",
                "kernels.rk45_coeffs.steps_rejected",
                "kernels.ordered_product.steps",
                "sz_core.transfer_matrix.chunks", "kernels.rk45_wave.steps",
                "bounds.theta.evals", "bounds.theta.points",
                "bounds.optimize_gauge.theta_calls"):
        m[key] = c[key]
    m["sz_core.bundle.hit_ratio"] = _ratio(
        c["sz_core.bundle.lookups"] - c["sz_core.bundle.builds"],
        c["sz_core.bundle.lookups"])
    acc = c["kernels.rk45_coeffs.steps_accepted"]
    m["kernels.rk45_coeffs.accept_ratio"] = _ratio(
        acc, acc + c["kernels.rk45_coeffs.steps_rejected"])
    m["kernels.ordered_product.useful_ratio"] = _ratio(
        c["kernels.ordered_product.useful_steps"],
        c["kernels.ordered_product.steps"])
    m["kernels.ordered_product.bytes_computed"] = (
        STEP_MATRIX_BYTES * c["kernels.ordered_product.steps"])
    m["sz_core.conservation_drift_max"] = tracer.drift_max
    roots = [s for s in tracer.spans if s[0] == ROOT]
    wall = sum(s[2] - s[1] for s in roots)
    m["trace.wall_s"] = wall
    m["trace.accounted_ratio"] = _ratio(wall - selfs[ROOT], wall)
    return m
