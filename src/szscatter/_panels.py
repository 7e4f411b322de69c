"""Chebyshev-Lobatto panels, the one bisection loop that refines them, the
one panel integral and the antiderivative built on it, and the one
evaluator of their interpolants.

A panel [a, b] with half-width h carries PANEL_NODES Chebyshev-Lobatto
points x = a + h (t + 1), t in [-1, 1].  S maps values at the points to
values of the integral from a of their interpolant (in units of h), so
h S and h^2 S^2 are the spectral integration operators of Greengard
(SIAM J. Numer. Anal. 28 (1991) 1071), and h S[-1] is the Clenshaw-Curtis
rule on the panel (Clenshaw & Curtis, Numer. Math. 2 (1960) 197).
TO_COEF maps values at the points to Chebyshev coefficients, and TAIL,
its last N_TAIL rows, gives the trailing coefficients whose size is the
panel's error estimate.  Both are built from T_k(t) = cos(k arccos t) and
the recurrence for int T_k, so that numpy.polynomial is never imported.

The oracle (psi'' = -k^2 psi), the path-ordered exponential (Y' = M Y,
sz_core), the bound integral (theta) and the gauge antiderivatives
(antiderivative: phi = int phi', Delta = int Delta') all start from a
window cut at its breakpoints into panels, and hand bisect() a function
that solves one batch of panels.  The bound integral and the
antiderivatives share that function through integrals(), which samples
the integrand on the panels' Lobatto points and returns h S f; they
start on panels a fixed fraction of their window wide
(bounds.THETA_START_PANELS, ANTIDERIVATIVE_START_PANELS), so that most
pass at the first or second level, each level costing about as much as
many panels.  The oracle and the product solve their own second-kind
systems, through solve_blocks().  bisect() accepts a panel when its
error estimate is at most max(tol (b - a) / span, ROUNDING_FLOOR scale),
the scale being the
size the panel's rounding is relative to (1 for the integrals, the map's
size for the product); it bisects the others and solves them again
together, and raises NonConvergence past MAX_PANELS panels or when a
half would be no wider than EDGE_NUDGE max(1, |x|).  evaluate() reads
the oracle's wavefunction and the antiderivatives back from the panels'
Chebyshev coefficients.  The paths that most calls take are cut short
without changing a float: subdivide() cuts a single window with one
linspace, and evaluate() runs a scalar position's Clenshaw recurrence in
Python floats.
"""

import math

import numpy as np

from .errors import NonConvergence

# Chebyshev-Lobatto points per panel.
PANEL_NODES = 24
# Most panels one window may hold; past it the bisection gives up with
# NonConvergence.
MAX_PANELS = 1 << 14
# Trailing Chebyshev coefficients that measure a panel's error.
N_TAIL = 3
# Inward nudge, relative to max(1, |x|), of a sample on an edge where a
# field may jump, so it takes the one-sided limit from its own side: panel
# ends on a breakpoint (the Lobatto points include both ends), antiderivative
# knots at segment ends, Runge-Kutta stages and junction projections.
EDGE_NUDGE = 1.0e-13
# Error estimates below this are rounding noise of one panel.
ROUNDING_FLOOR = 64.0 * float(np.finfo(np.float64).eps)
# Most bytes the systems of one batched solve may hold, which bounds its
# temporaries.
SOLVE_BYTES = 1 << 23
# Summed error estimate an antiderivative is refined to.
ANTIDERIVATIVE_TOL = 1.0e-12
# An antiderivative starts on panels no wider than its window over this.
# The 24 antiderivatives of a seed-1 perfbench verify_sweep pass took 95,
# 71, 47, 26 and 24 bisection levels and 260, 236, 188, 200 and 384 panels
# at 1, 2, 4, 8 and 16.
ANTIDERIVATIVE_START_PANELS = 8


def _chebyshev_operators(n: int) -> tuple:
    """Lobatto points on [-1, 1] in ascending order, the integration
    matrix S (values at the points -> values of the integral from -1 of
    their interpolant) and the values -> Chebyshev coefficients map.

    The points t_j = -cos(pi j / (n - 1)) give T_k(t_j) = (-1)^k
    cos(pi k j / (n - 1)), and int T_k = T_{k+1} / (2 (k + 1)) - T_{k-1} /
    (2 (k - 1)) (T_1 for k = 0, T_2 / 4 for k = 1), made 0 at -1 by its
    T_0 coefficient, since T_m(-1) = (-1)^m."""
    j = np.arange(n)
    k = np.arange(n + 1)
    sign = np.where(k % 2, -1.0, 1.0)
    t = -np.cos(np.pi * j / (n - 1))
    vander = sign * np.cos(np.pi * np.outer(j, k) / (n - 1))
    to_coef = np.linalg.inv(vander[:, :n])
    integ = np.zeros((n + 1, n))
    integ[1, 0] = 1.0
    integ[k[2:], k[1:-1]] = 0.5 / k[2:]
    integ[k[1:-2], k[2:-1]] -= 0.5 / k[1:-2]
    integ[0] = -sign @ integ
    return t, vander @ integ @ to_coef, to_coef


NODES, S, TO_COEF = _chebyshev_operators(PANEL_NODES)
S2 = S @ S
TAIL = TO_COEF[-N_TAIL:]


def points(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The Lobatto points of the panels [a_i, a_i + 2 h_i], shape (P, n)."""
    return a[:, None] + h[:, None] * (NODES + 1.0)


def nudged(x: np.ndarray, a: np.ndarray, b: np.ndarray,
           breaks: np.ndarray) -> np.ndarray:
    """The points x of the panels [a_i, b_i] with every end that lies on
    a breakpoint moved EDGE_NUDGE max(1, |end|) inward (a copy, or x
    itself when there are no breakpoints)."""
    if not breaks.size:
        return x
    xe = x.copy()
    for col, ends, inward in ((0, a, 1.0), (-1, b, -1.0)):
        at = np.isin(ends, breaks)
        xe[at, col] += inward * EDGE_NUDGE * np.maximum(1.0, np.abs(ends[at]))
    return xe


def _too_many(n: int) -> None:
    if n > MAX_PANELS:
        raise NonConvergence(f"panel refinement needs more than "
                             f"{MAX_PANELS} panels")


def subdivide(lo: np.ndarray, hi: np.ndarray, width: float) -> tuple:
    """Cut each [lo_i, hi_i] into equal panels no wider than width."""
    if lo.size == 1:
        # linspace's points are lo + j (hi - lo) / n and hi, the floats
        # of the general cut below.
        n = max(1, math.ceil((hi[0] - lo[0]) / width))
        _too_many(n)
        x = np.linspace(lo[0], hi[0], n + 1)
        return x[:-1], x[1:]
    n = np.ceil((hi - lo) / width).astype(int).clip(1)
    _too_many(int(n.sum()))
    seg = np.repeat(np.arange(lo.size), n)
    j = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
    step = ((hi - lo) / n)[seg]
    left = lo[seg] + j * step
    return left, np.where(j + 1 == n[seg], hi[seg], lo[seg] + (j + 1) * step)


def bisect(solve, a: np.ndarray, b: np.ndarray, span: float,
           tol: float) -> list:
    """Refine the panels [a_i, b_i] until each passes its share of tol.

    solve(a, b) returns (err, scale, *results) for a batch of panels: the
    error estimates, the sizes their rounding is relative to (a scalar,
    or one per panel) and the results, each an array with one row per
    panel.  Panels with err <= max(tol (b - a) / span, ROUNDING_FLOOR
    scale) are kept; the rest are halved and solved again as one batch,
    until a half would be no wider than the nudge.  a must be ascending;
    returns [a, b, err, *results] of the kept panels in ascending order of
    a."""
    done = []
    n_done = 0
    while a.size:
        _too_many(n_done + a.size)
        err, scale, *results = solve(a, b)
        ok = err <= np.maximum(tol * (b - a) / span, ROUNDING_FLOOR * scale)
        if not done and ok.all():
            return [a, b, err, *results]
        done.append([a[ok], b[ok], err[ok], *(r[ok] for r in results)])
        n_done += int(np.count_nonzero(ok))
        a, b = a[~ok], b[~ok]
        mid = 0.5 * (a + b)
        # A half no wider than the nudge could not be sampled one-sided.
        if np.any(mid - a <= EDGE_NUDGE * np.maximum(1.0, np.abs(mid))):
            raise NonConvergence(f"panel refinement cannot resolve a panel "
                                 f"to tol={tol:g}")
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))

    kept = [np.concatenate(parts) for parts in zip(*done)]
    order = np.argsort(kept[0])
    return [part[order] for part in kept]


def solve_blocks(systems, rhs: np.ndarray) -> np.ndarray:
    """The solutions of the panels' systems, systems(block) @ x = rhs[block],
    solved in blocks of panels so that no block's systems hold more than
    SOLVE_BYTES (as complex numbers).  systems(block) returns the matrices
    of the panels rhs[block], of rhs's dtype."""
    size = rhs.shape[1]
    step = max(1, SOLVE_BYTES // (16 * size * size))
    out = np.empty_like(rhs)
    for lo in range(0, rhs.shape[0], step):
        block = slice(lo, lo + step)
        out[block] = np.linalg.solve(systems(block), rhs[block])
    return out


def evaluate(a: np.ndarray, h: np.ndarray, coef: np.ndarray, x):
    """The interpolants of the panels [a_i, a_i + 2 h_i], given by their
    Chebyshev coefficients coef[i], at the positions x (a position on a
    panel end belongs to the panel before; the end panels extrapolate)."""
    if np.ndim(x) == 0:
        # One position in Python floats: the operations of the array
        # recurrence below, in the same order, without the cost of
        # numpy's 0-d arithmetic.
        x = float(x)
        i = min(max(int(np.searchsorted(a, x)) - 1, 0), a.size - 1)
        t = (x - float(a[i])) / float(h[i]) - 1.0
        t2 = 2.0 * t
        first, *rest = coef[i].tolist()
        b1 = b2 = 0.0
        for c in reversed(rest):
            b1, b2 = c + t2 * b1 - b2, b1
        return first + t * b1 - b2
    i = np.clip(np.searchsorted(a, x, side="left") - 1, 0, a.size - 1)
    t = (x - a[i]) / h[i] - 1.0
    # Clenshaw's recurrence, reading one contiguous row of coefficients
    # per degree rather than gathering every point's whole row.
    rows = np.ascontiguousarray(coef.T)
    t2 = 2.0 * t
    b1 = b2 = 0.0
    for row in rows[:0:-1]:
        b1, b2 = row[i] + t2 * b1 - b2, b1
    return rows[0][i] + t * b1 - b2


def integrals(fn, edges, tol: float, width: float = np.inf) -> list:
    """The integrals of fn from each panel's left end, on panels of the
    window [edges[0], edges[-1]] that bisect() refines to tol.

    The window is cut at the edges into panels no wider than width.  fn
    may jump at the interior edges, which are sampled one-sided.  A
    panel's error estimate is h max|TAIL f| and its integrals are h S f,
    one per Lobatto point.  Returns bisect's [a, b, err, integrals];
    raises NonConvergence when fn is not finite on the panel points."""
    edges = np.asarray(edges, dtype=float)
    breaks = edges[1:-1]

    def solve(a, b):
        h = 0.5 * (b - a)
        x = nudged(points(a, h), a, b, breaks)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(fn(x.ravel())).reshape(x.shape)
        if not np.all(np.isfinite(vals)):
            raise NonConvergence("integrand is not finite on the window")
        err = h * np.max(np.abs(vals @ TAIL.T), axis=1)
        return err, 1.0, h[:, None] * (vals @ S.T)

    a, b = subdivide(edges[:-1], edges[1:], width)
    return bisect(solve, a, b, edges[-1] - edges[0], tol)


def antiderivative(fn, edges):
    """The antiderivative of fn that vanishes at edges[0], over the window
    [edges[0], edges[-1]], as a callable of x; real or complex as fn is.

    The panels start no wider than the window over
    ANTIDERIVATIVE_START_PANELS and are refined by integrals() to
    ANTIDERIVATIVE_TOL.  Each panel holds its integrals from its left
    end, offset by the sum of the earlier panels' end values."""
    a, b, _, parts = integrals(fn, edges, ANTIDERIVATIVE_TOL,
                               (edges[-1] - edges[0])
                               / ANTIDERIVATIVE_START_PANELS)
    offsets = np.concatenate(([0.0], np.cumsum(parts[:-1, -1])))
    coef = (offsets[:, None] + parts) @ TO_COEF.T
    # Trailing coefficients below rounding only cost evaluation time.
    big = np.flatnonzero(np.max(np.abs(coef), axis=0) > ROUNDING_FLOOR)
    coef = coef[:, :1 + np.max(big, initial=0)]
    h = 0.5 * (b - a)
    return lambda x: evaluate(a, h, coef, x)
