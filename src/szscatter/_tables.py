"""Segment walking, segmented antiderivatives and piecewise-cubic tables.

segment_plan splits a walk at the edges of the smooth segments; evolve and
transfer_matrix both walk with it.  segmented_antiderivative builds the
continuous phi of the local-wavenumber and family gauges and the Delta of
the special-Delta gauge from Gauss-Legendre accumulation and cubic Hermite
pieces.  Segments never
straddle a discontinuity, and samples at a jump are nudged EDGE_NUDGE
inside the segment so they take the one-sided limit.

No kernel reads a table: the Runge-Kutta loop and the ordered product
evaluate their generator directly.  build_segment_table (cubic-spline
coefficients of several fields on shared uniform knots) is called by no
module of the package; it stays because perfbench's tracer wraps it by
name.
"""

from bisect import bisect_left, bisect_right

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicHermiteSpline, CubicSpline

# Default knot spacing for tables and antiderivatives; segments shorter than
# 8 * TABLE_STEP still get at least MIN_INTERVALS intervals.
TABLE_STEP = 1.0e-3
MIN_INTERVALS = 8

# Inward nudge used to sample one-sided limits at jump discontinuities.
EDGE_NUDGE = 1.0e-13

_GL_NODES, _GL_WEIGHTS = leggauss(5)


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


def gauss_increments(fn, xs: np.ndarray) -> np.ndarray:
    """Integral of fn over each knot interval by 5-point Gauss-Legendre."""
    lo = xs[:-1]
    hi = xs[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    total = np.zeros(lo.shape, dtype=float)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        total = total + weight * np.asarray(fn(mid + node * half), dtype=float)
    return total * half


def cumulative_values(fn, xs: np.ndarray, y0: float = 0.0) -> np.ndarray:
    """Antiderivative values of fn at the knots, starting from y0.

    The running sum is carried in extended precision so rounding does not
    accumulate across long grids (phases enter complex exponentials, so
    absolute accuracy matters).
    """
    inc = gauss_increments(fn, xs).astype(np.longdouble)
    out = np.empty(xs.shape, dtype=np.longdouble)
    out[0] = y0
    out[1:] = y0 + np.cumsum(inc)
    return out.astype(float)


class PiecewisePoly:
    """Callable piecewise polynomial over contiguous segments.

    Outside the covered window the end polynomials extrapolate, which is
    adequate because every consumer stays within the truncated domain.
    """

    __slots__ = ("_edges", "_polys")

    def __init__(self, edges, polys):
        self._edges = np.asarray(edges, dtype=float)  # interior breakpoints only
        self._polys = list(polys)

    def __call__(self, x):
        xv = np.asarray(x, dtype=float)
        if xv.ndim == 0:
            piece = int(np.searchsorted(self._edges, float(xv), side="right"))
            return float(self._polys[piece](float(xv)))
        out = np.empty(xv.shape, dtype=float)
        piece_of = np.searchsorted(self._edges, xv, side="right")
        for piece, poly in enumerate(self._polys):
            mask = piece_of == piece
            if np.any(mask):
                out[mask] = poly(xv[mask])
        return out


def segmented_antiderivative(fn, edges, max_spacing: float, y0: float = 0.0) -> PiecewisePoly:
    """Continuous antiderivative of a piecewise-smooth integrand.

    Within each segment the result is a cubic Hermite interpolant built
    from Gauss-Legendre accumulated values and the exact integrand as
    derivative data.
    """
    polys = []
    running = float(y0)
    for x0, x1 in zip(edges[:-1], edges[1:]):
        n = max(MIN_INTERVALS, int(np.ceil((x1 - x0) / max_spacing)))
        xs = segment_knots(x0, x1, n)
        span = x1 - x0
        eps = EDGE_NUDGE * max(1.0, abs(x0), abs(x1), span)
        xs_eval = xs.copy()
        xs_eval[0] += eps
        xs_eval[-1] -= eps
        dys = np.asarray(fn(xs_eval), dtype=float)
        ys = cumulative_values(fn, xs, running)
        # Match the one-sided derivative samples with the true knots.
        polys.append(CubicHermiteSpline(xs, ys, dys))
        running = float(ys[-1])
    return PiecewisePoly(np.asarray(edges[1:-1], dtype=float), polys)
