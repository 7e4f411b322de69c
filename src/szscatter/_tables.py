"""Segment walking and piecewise-cubic tables.

segment_plan splits a walk at the edges of the smooth segments; evolve and
transfer_matrix both walk with it.  Segments never straddle a
discontinuity.

No kernel reads a table: the Runge-Kutta loop and the ordered product
evaluate their generator directly, and the gauge antiderivatives live on
the Chebyshev panels (_panels.antiderivative).  build_segment_table
(cubic-spline coefficients of several fields on shared uniform knots,
sampled one-sided at jumps through nudged_knots) is called by no module
of the package; it, SegmentTable, eval_table, segment_knots,
nudged_knots and MIN_INTERVALS stay only because perfbench's tracer wraps
build_segment_table by name.
"""

from bisect import bisect_left, bisect_right

import numpy as np
from scipy.interpolate import CubicSpline

from ._panels import EDGE_NUDGE

# Fewest knot intervals of one table segment.
MIN_INTERVALS = 8


class SegmentTable:
    """Cubic coefficient block for one smooth segment.

    coeffs has shape (n_fields, n_intervals, 4) and is evaluated as
    ((c0*dx + c1)*dx + c2)*dx + c3 with dx measured from the interval's
    left knot.
    """

    __slots__ = ("x0", "x1", "h", "n", "coeffs")

    def __init__(self, x0: float, x1: float, n: int, coeffs: np.ndarray):
        self.x0 = float(x0)
        self.x1 = float(x1)
        self.n = int(n)
        self.h = (self.x1 - self.x0) / self.n
        self.coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)


def segment_knots(x0: float, x1: float, n: int) -> np.ndarray:
    return np.linspace(x0, x1, n + 1)


def nudged_knots(xs: np.ndarray, nudge_left: bool, nudge_right: bool) -> np.ndarray:
    """Copy of the knots with jump-adjacent end knots pulled inward, so
    sampling there yields the one-sided limit from inside the segment."""
    xe = np.array(xs, dtype=float)
    span = abs(xe[-1] - xe[0])
    eps = EDGE_NUDGE * max(1.0, abs(xe[0]), abs(xe[-1]), span)
    if nudge_left:
        xe[0] = xe[0] + eps
    if nudge_right:
        xe[-1] = xe[-1] - eps
    return xe


def build_segment_table(fields, x0: float, x1: float,
                        nudge_left: bool, nudge_right: bool,
                        max_spacing: float) -> SegmentTable:
    """Build one SegmentTable for several fields on shared knots.

    Each entry of `fields` is either a vectorized callable or a plain
    number (stored as an exact constant row, no interpolation).  All
    callable fields share a single not-a-knot spline solve.
    """
    length = x1 - x0
    n = max(MIN_INTERVALS, int(np.ceil(length / max_spacing)))
    xs = segment_knots(x0, x1, n)
    coeffs = np.zeros((len(fields), n, 4), dtype=np.complex128)
    live = [(j, f) for j, f in enumerate(fields) if callable(f)]
    for j, f in enumerate(fields):
        if not callable(f):
            coeffs[j, :, 3] = complex(f)
    if live:
        xe = nudged_knots(xs, nudge_left, nudge_right)
        samples = np.empty((xs.size, len(live)), dtype=np.complex128)
        for col, (_, f) in enumerate(live):
            samples[:, col] = np.asarray(f(xe))
        spline = CubicSpline(xs, samples, axis=0)
        for col, (j, _) in enumerate(live):
            coeffs[j] = spline.c[:, :, col].T
    return SegmentTable(x0, x1, n, coeffs)


def segment_plan(edges, start: float, stops):
    """Split a walk from start through ordered stops at the segment edges.

    Yields (j, x_enter, seg_stops, n_taken) in travel order, forward or
    backward: segment j is entered at x_enter and left at seg_stops[-1].
    The first n_taken entries of seg_stops are the caller's stops; when
    the walk goes on, the exit edge follows them.  A stop that lies on an
    edge belongs to the segment being left; the last stop ends the walk.
    """
    forward = stops[-1] >= start
    if forward:
        j = bisect_right(edges, start) - 1
    else:
        j = bisect_left(edges, start) - 1
    j = min(max(j, 0), len(edges) - 2)
    step = 1 if forward else -1
    x = start
    i = 0
    while True:
        exit_edge = edges[j + 1] if forward else edges[j]
        end = i
        while end < len(stops) and (stops[end] <= exit_edge if forward
                                    else stops[end] >= exit_edge):
            end += 1
        taken = list(stops[i:end])
        if end == len(stops):
            yield j, x, taken, len(taken)
            return
        yield j, x, taken + [exit_edge], len(taken)
        i = end
        x = exit_edge
        j += step


def eval_table(table: SegmentTable, row: int, x) -> np.ndarray:
    """Vectorized table evaluation (Python-side; kernels use their own)."""
    xv = np.asarray(x, dtype=float)
    idx = np.clip(((xv - table.x0) / table.h).astype(np.int64), 0, table.n - 1)
    dx = xv - (table.x0 + idx * table.h)
    c = table.coeffs[row, idx]
    return ((c[..., 0] * dx + c[..., 1]) * dx + c[..., 2]) * dx + c[..., 3]
