"""Coefficient-pair evolution, transfer matrices, and amplitude extraction.

Two independent evolution routes are provided and serve as mutual
oracles: the path-ordered exponential on Chebyshev panels
(transfer_matrix) and adaptive embedded Runge-Kutta stepping of the
coefficient pair (evolve).  Both evaluate the one generator, _generator,
straight from the gauge and one call of the rho fields: the product at
its panels' Lobatto points, the Runge-Kutta route at its stage positions.
Neither builds a table.  On each panel the product solves for Y' = M Y
at the Lobatto points as one second-kind system (Greengard, SIAM J.
Numer. Anal. 28 (1991) 1071): 2n x 2n for n points, or n x n where the
path's samples on its panels show one degree of freedom fewer (a
diagonal that vanishes to rounding, or rho1 and Delta' both 0, which
makes the generator rank one).  Each panel gives its map and an error
estimate from its trailing Chebyshev coefficients; one _panels.bisect
refines the panels of a CLI sweep's paths (or of transfer_matrix's one),
keyed by path, and solves them in groups by system (_refined_products).
A path's maps and junctions are multiplied in order in one tree, and a
backward path is the adjugate of the forward one (every det is 1).
scattering_amplitudes goes through the product and, in every gauge,
reads the amplitudes off (psi, psi') with the plane-wave matcher the
oracle also uses (_plane_wave_pair).  The representation matrix
(a, b) -> (psi, psi') has determinant exactly -2i, so it is inverted in
closed form.  It is sampled in one array call at both window ends, and
in one call per side at all junctions; a path's two end states are
carried in Python complex arithmetic.  Off its panels and steps a path
samples the gauge nowhere else: the Lobatto points of the product's
start panels give the largest |phi'| and the check for phi' = 0.

Discontinuities in the potential or gauge split the domain into smooth
segments (_segments).  Panels and steps never straddle a split; where the
gauge representation itself jumps (e.g. a local-wavenumber gauge over a
square barrier) the coefficient pair is re-projected through a junction
matrix that keeps psi and psi' continuous.  evolve walks the segments
itself, edge by edge; the product puts the junctions among its maps.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _tree_product, rk45_coeffs
from ._panels import (EDGE_NUDGE, PANEL_NODES, ROUNDING_FLOOR, S,
                      SOLVE_BYTES, TAIL, bisect, nudged, points, solve_blocks,
                      subdivide)
from .errors import GaugeDegenerate, NonConvergence
from .gauges import GaugeTriple, RhoPair, phi_prime_max, rho_pair
from .potentials import (DomainGrid, EnergySpec, PotentialProfile,
                         truncate_domain, wavenumber_field, window_edges)

_IDENTITY2 = np.eye(2, dtype=np.complex128)
# A path's product starts on panels no wider than the path over this (and
# than one period of e^{-2i phi}).  A seed-1 perfbench verify_sweep pass
# took 115 bisection levels and 638 panels without this cap, and 100, 66,
# 60 and 57 levels and 595, 538, 598 and 900 panels at 4, 8, 10 and 16.
PRODUCT_START_PANELS = 8


@dataclass(frozen=True)
class CoefficientState:
    """Position-dependent coefficient pair (a, b) at one point."""

    x: float
    a: complex
    b: complex


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 propagator E(x_to, x_from) acting on coefficient columns."""

    entries: np.ndarray
    x_from: float
    x_to: float

    @property
    def det(self) -> complex:
        """Exactly 1, since every panel map and junction has det 1 (ad - bc
        of the entries cancels once |E| is large)."""
        return 1.0 + 0j

    def apply(self, state: CoefficientState) -> CoefficientState:
        vec = self.entries @ np.array([state.a, state.b])
        return CoefficientState(self.x_to, complex(vec[0]), complex(vec[1]))


@dataclass(frozen=True)
class WavefunctionSample:
    x: float
    psi: complex
    psi_prime: complex


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Asymptotic coefficients and the derived probabilities.

    The solution that is the pure right-moving wave e^{ikx}/sqrt(k) on
    the left is (alpha e^{ikx} + beta e^{-ikx})/sqrt(k) on the right.
    alpha and beta are matched from (psi, psi'), so they do not depend on
    the gauge; the familiar left-incidence amplitudes follow from the
    standard transfer-matrix relations t = 1/alpha*, r = -beta/alpha*.
    """

    alpha: complex
    beta: complex
    transmission: float
    reflection: float

    @property
    def transmitted_amplitude(self) -> complex:
        return 1.0 / self.alpha.conjugate()

    @property
    def reflected_amplitude(self) -> complex:
        return -self.beta / self.alpha.conjugate()


@dataclass(frozen=True)
class EvolveStats:
    n_accepted: int
    n_rejected: int
    conservation_drift: float


def _entries(g: GaugeTriple, r: RhoPair, x: np.ndarray) -> tuple:
    """_generator's entries, the phase phi + Delta, and the phi', rho1 and
    Delta' they were built from; raises GaugeDegenerate where |phi'| on x
    fails gauges.phi_prime_max.  The diagonal i (rho2 / (2 phi') - Delta')
    is exactly 0 in gauge_special_delta, whose Delta' is that quotient."""
    ppr, r1, r2 = r.fields(x)
    phi_prime_max(ppr)
    dprime = np.asarray(g.delta_prime(x))
    phase = np.asarray(g.phi(x)) + np.asarray(g.delta(x))
    em = np.exp(-2j * phase)
    inv2 = 0.5 / ppr
    return (1j * (r2 / (2.0 * ppr) - dprime), (r1 + 1j * r2) * em * inv2,
            (r1 - 1j * r2) / em * inv2), phase, ppr, r1, dprime


def _generator(g: GaugeTriple, r: RhoPair, x: np.ndarray) -> tuple:
    """Evolution-generator entries (g11, g12, g21) at an array of
    positions, evaluated from the gauge callables and one call of the
    rho fields; g22 = -g11 since the generator is traceless."""
    return _entries(g, r, x)[0]


def rhs_matrix(g: GaugeTriple, r: RhoPair, x: float) -> np.ndarray:
    """Evolution generator at one position.

    M = (1 / 2 phi') [[ i D,              (rho1 + i rho2) e^{-2i(phi+Delta)}],
                      [(rho1 - i rho2) e^{+2i(phi+Delta)},            -i D ]]
    with D = rho2 - 2 phi' Delta'.
    """
    g11, g12, g21 = (complex(e[0]) for e in
                     _generator(g, r, np.array([float(x)])))
    return np.array([[g11, g12], [g21, -g11]], dtype=np.complex128)


def reconstruct_psi(g: GaugeTriple, s: CoefficientState) -> WavefunctionSample:
    """Exact wavefunction and derivative from the coefficient pair."""
    psi = _times(_rep_matrix(g, [s.x], 0)[..., 0], s.a, s.b)
    return WavefunctionSample(s.x, *map(complex, psi))


def project_wavefunction(g: GaugeTriple, x: float, psi: complex,
                         psi_prime: complex) -> CoefficientState:
    """Inverse of reconstruct_psi: the coefficient pair representing a
    given (psi, psi') at x in this gauge."""
    ab = _rep_solve(_rep_matrix(g, [x], 0)[..., 0], psi, psi_prime)
    return CoefficientState(x, *map(complex, ab))


def probability_current(g: GaugeTriple, s: CoefficientState) -> float:
    """Probability current Im(psi* psi') in closed form.

    For real gauges this reduces exactly to |a|^2 - |b|^2.
    """
    w = complex(g.phi_prime(s.x))
    aw = phi_prime_max(w)
    phase = complex(g.phi(s.x)) + complex(g.delta(s.x))
    chi = complex(g.chi(s.x))
    mod_a = s.a.real * s.a.real + s.a.imag * s.a.imag
    mod_b = s.b.real * s.b.real + s.b.imag * s.b.imag
    term = (w.real / aw) * (mod_a * math.exp(-2.0 * phase.imag)
                            - mod_b * math.exp(2.0 * phase.imag))
    if w.imag != 0.0:
        cross = s.a * s.b.conjugate() * cmath.exp(2j * phase.real)
        term -= 2.0 * (w.imag / aw) * cross.imag
    if chi.imag != 0.0:
        psi = reconstruct_psi(g, s).psi
        term += chi.imag * (psi.real * psi.real + psi.imag * psi.imag)
    return term


# --------------------------------------------------------------------------
# Smooth segments and junction projections.


def _rep_matrix(g: GaugeTriple, x, side: int) -> np.ndarray:
    """Map (a, b) -> (psi, psi') at each of the positions x, shape
    (2, 2, len(x)), sampled from the given side (side -1/+1 nudges inward
    across a jump; 0 samples exactly at x).  Its determinant is exactly
    -2i, since e^{i theta} e^{-i theta} = 1 and sqrt(phi')^2 = phi'.  Only
    phi' = 0 raises here; a path checks |phi'| on its panels' points, in
    _refined_product."""
    x = np.asarray(x, dtype=float)
    xe = x + side * EDGE_NUDGE * np.maximum(1.0, np.abs(x))
    w = np.asarray(g.phi_prime(xe), dtype=complex)
    phi_prime_max(w)
    root = np.sqrt(w)
    ep = np.exp(1j * (np.asarray(g.phi(xe)) + g.delta(xe)))
    up, down = ep / root, 1.0 / ep / root
    chi = g.chi(xe)
    return np.array([[up, down], [(1j * w + chi) * up, (chi - 1j * w) * down]])


def _times(rep: tuple, a: complex, b: complex) -> tuple:
    """rep @ (a, b) for a 2x2 matrix given as rows."""
    (r11, r12), (r21, r22) = rep
    return r11 * a + r12 * b, r21 * a + r22 * b


def _rep_solve(rep: tuple, psi: complex, psi_prime: complex) -> tuple:
    """rep^-1 @ (psi, psi') for a representation matrix: its adjugate over
    its determinant -2i."""
    (r11, r12), (r21, r22) = rep
    return (0.5j * (r22 * psi - r12 * psi_prime),
            0.5j * (r11 * psi_prime - r21 * psi))


def _adjugate(m: np.ndarray) -> np.ndarray:
    """The inverse of a 2x2 matrix of det 1."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _junction(g: GaugeTriple, x) -> np.ndarray:
    """Projections keeping (psi, psi') continuous across a representation
    jump at each of the positions x, shape (len(x), 2, 2): state_right =
    P @ state_left, with det P = 1, since both representation matrices
    have det -2i."""
    right = _rep_matrix(g, x, +1)
    return np.array(_rep_solve(right, *_rep_matrix(g, x, -1))).transpose(
        2, 0, 1)


def _segments(g: GaugeTriple, r: RhoPair, lo: float, hi: float) -> tuple:
    """Split [lo, hi] at r's breakpoints (the gauge's and the potential's)
    into smooth segments.  Returns (edges, junctions), with junctions[i]
    the projection at edges[i + 1] (an empty list when there are none); the
    gauge is sampled only on the two sides of those interior edges."""
    edges = window_edges(lo, hi, r.breakpoints)
    return edges, _junction(g, edges[1:-1]) if len(edges) > 2 else []


def _build_bundle(g: GaugeTriple, r: RhoPair, lo: float, hi: float,
                  max_step: float) -> tuple:
    """The (edges, junctions) of _segments, of which evolve_path walks the
    edges and crosses the junctions.  max_step is unused (evolve passes
    its step cap to the kernel) but stays, with the name, because
    perfbench's tracer and probe reach them."""
    return _segments(g, r, lo, hi)


def _bundle_for(g: GaugeTriple, r: RhoPair, lo: float, hi: float,
                max_step: float) -> tuple:
    """_build_bundle's (edges, junctions) under a name of its own,
    because perfbench's probe calls it and its tracer counts these calls
    apart from the _build_bundle span."""
    return _build_bundle(g, r, lo, hi, max_step)


def _resolve_window(s0x: float, x_to: float, grid) -> float:
    """The step cap of a path, which must lie in the grid."""
    lo = min(s0x, x_to)
    hi = max(s0x, x_to)
    if grid is not None:
        if lo < grid.x_min - 1e-12 or hi > grid.x_max + 1e-12:
            raise ValueError("evolution interval lies outside the grid")
        return grid.max_step
    span = hi - lo
    if span == 0.0:
        span = max(1.0, abs(lo))
    return span / 64.0


def evolve_path(g: GaugeTriple, r: RhoPair, s0: CoefficientState,
                sample_points, tol: float, grid: DomainGrid = None) -> tuple:
    """Evolve (a, b) from s0 through ordered sample points.

    The last sample point is the endpoint.  Each stop's smooth segment is
    found by searching the interior edges of _segments, so that a stop on
    an edge belongs to the segment being left.  rk45_coeffs steps each
    segment of the walk on _generator, through its stops to its exit edge,
    and the pair crosses the junction projection there (its adjugate going
    backward).  Returns (list of CoefficientState, EvolveStats);
    rk45_coeffs raises StepUnderflow when a step below 1e-14 of the span
    still fails its error test.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    pts = np.asarray(sample_points, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one sample point")
    steps = np.diff(np.concatenate(([s0.x], pts)))
    if not (np.all(steps >= 0) or np.all(steps <= 0)):
        raise ValueError("sample points must be ordered along the travel "
                         "direction")
    x_to = float(pts[-1])
    max_step = _resolve_window(s0.x, x_to, grid)
    edges, junctions = _bundle_for(g, r, *sorted((s0.x, x_to)), max_step)
    if x_to == s0.x and pts.size == 1:
        return [CoefficientState(s0.x, s0.a, s0.b)], EvolveStats(0, 0, 0.0)

    hmin = 1e-14 * max(abs(x_to - s0.x), 1e-30)
    a, b = complex(s0.a), complex(s0.b)
    inv0 = (a.real * a.real + a.imag * a.imag
            - b.real * b.real - b.imag * b.imag)
    drift, acc, rej = 0.0, 0, 0
    out_states = []
    forward = x_to >= s0.x
    seg = np.searchsorted(edges[1:-1], pts, "left" if forward else "right")
    last = int(seg[-1])
    x = s0.x
    for j in (range(last + 1) if forward
              else range(len(edges) - 2, last - 1, -1)):
        seg_stops = pts[seg == j].tolist()
        n_taken = len(seg_stops)
        if j != last:
            seg_stops.append(edges[j + 1] if forward else edges[j])
        seg_a, seg_b, d, na, nr = rk45_coeffs(
            _generator, g, r, x, seg_stops, a, b, tol, max_step, hmin, inv0)
        a, b = seg_a[-1], seg_b[-1]
        drift = max(drift, d)
        acc += na
        rej += nr
        out_states += map(CoefficientState, seg_stops[:n_taken], seg_a,
                          seg_b)
        if j != last:
            proj = junctions[j] if forward else _adjugate(junctions[j - 1])
            a, b = map(complex, proj @ [a, b])
            x = seg_stops[-1]
    return out_states, EvolveStats(acc, rej, float(drift))


def evolve_diagnostics(g: GaugeTriple, r: RhoPair, s0: CoefficientState,
                       x_to: float, tol: float,
                       grid: DomainGrid = None) -> tuple:
    """Evolve to x_to and return (final state, EvolveStats)."""
    states, stats = evolve_path(g, r, s0, [x_to], tol, grid)
    return states[-1], stats


def evolve(g: GaugeTriple, r: RhoPair, s0: CoefficientState, x_to: float,
           tol: float, grid: DomainGrid = None) -> CoefficientState:
    """Adaptive embedded propagation of the coefficient pair to x_to."""
    return evolve_diagnostics(g, r, s0, x_to, tol, grid)[0]


# Size of a panel's system, -S as blocks (j, k, l) of it, and the rows
# that read a panel's end value and trailing coefficients.
_SIZE = 2 * PANEL_NODES
_MINUS_S = -S[:, None, :]
_READ = np.vstack((S[-1], TAIL))
# _SDS @ d is S diag(d) S, its n x n entries as n * n rows.
_SDS = (S[:, None, :] * S.T).reshape(-1, PANEL_NODES)


def _with_identity(a: np.ndarray) -> np.ndarray:
    """I + a for a C-contiguous stack of square matrices, in place."""
    size = a.shape[-1]
    a.reshape(-1, size * size)[:, ::size + 1] += 1.0
    return a


def _system(hm: np.ndarray) -> np.ndarray:
    """I - h M S of each panel, with h M given as blocks (panel, i, point,
    k): entry ((i, j), (k, l)) is delta - h M_ik(x_j) S_jl."""
    return _with_identity(np.multiply(hm[..., None], _MINUS_S, order="C")
                          .reshape(-1, _SIZE, _SIZE))


def _full_system(m: np.ndarray, h: np.ndarray, _phase) -> np.ndarray:
    """W of the panels, as blocks (panel, i, point, column), from the
    2n x 2n system (I - h M S) W = h M; m holds M as (i, k, panel,
    point) and h the panels' half-widths."""
    hm = np.multiply(m.transpose(2, 0, 3, 1), h[:, None, None, None],
                     order="C")
    return solve_blocks(lambda blk: _system(hm[blk]),
                        hm.reshape(h.size, _SIZE, 2)).reshape(hm.shape)


def _real_times(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """t @ d_i for each complex row d_i of d, t real: one small real
    product per row, which BLAS runs on one thread."""
    return np.matmul(t, d.view(float).reshape(*d.shape, 2)).view(
        np.complex128)[..., 0]


def _zero_diagonal(m: np.ndarray, h: np.ndarray, _phase) -> np.ndarray:
    """_full_system's W where h M = [[0, D12], [D21, 0]], from the n x n
    Schur complement (I - D12 S D21 S) W1 = D12 (e2 + S D21 e1) and
    W2 = D21 (e1 + S W1)."""
    d12 = h[:, None] * m[0, 1]
    d21 = h[:, None] * m[1, 0]
    rhs = np.stack((d12 * _real_times(S, d21), d12), axis=-1)
    w1 = solve_blocks(lambda blk: _with_identity(
        -d12[blk, :, None] * _real_times(_SDS, d21[blk]).reshape(
            -1, PANEL_NODES, PANEL_NODES)), rhs)
    sw = S @ w1
    sw[:, :, 0] += 1.0
    return np.stack((w1, d21[:, :, None] * sw), axis=1)


def _rank_one(m: np.ndarray, h: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """_full_system's W where h M = c u v^T, with c = h M11, u = (1, -q),
    v = (1, 1/q) and q = e^{2i(phi + Delta)}: W = u sigma^T, where
    (I - diag(c) (S o (1 - q_j / q_l))) sigma = c v."""
    q = np.exp(2j * phase)
    c = h[:, None] * m[0, 0]
    p = c / q
    rhs = np.stack((c, p), axis=-1)
    sigma = solve_blocks(lambda blk: _with_identity(
        S * (p[blk, :, None] * q[blk, None, :] - c[blk, :, None])), rhs)
    return np.stack((sigma, -q[:, :, None] * sigma), axis=1)


# An overflowing system gets a NaN estimate, which bisect never accepts.
@np.errstate(over="ignore", invalid="ignore")
def _panel_maps(paths, a: np.ndarray, b: np.ndarray,
                key: np.ndarray) -> tuple:
    """Each panel's map Y(b_i) of Y' = M Y, Y(a_i) = I, for _panels.bisect;
    panel i lies on paths[key[i]], a (gauge, rho pair, breakpoints).

    With W = h Y' at the panel's Lobatto points, Y = I + S W, so W = h M Y
    is the second-kind system (I - h M S) W = h M: one 2n x 2n system with
    two right-hand sides per panel (Greengard, SIAM J. Numer. Anal. 28
    (1991) 1071).  Where a path's samples on its panels show M one degree
    of freedom fewer, the same W comes from an n x n system: the Schur
    complement (_zero_diagonal) where M's diagonal is at every point at
    most _panels.ROUNDING_FLOOR (|phi'| + |Delta'|), the rounding of its
    two terms, and otherwise, where rho1 and Delta' are 0 at every point
    (M = M11 u v^T), the system for its one scalar (_rank_one).  Each
    system's group of panels is solved when it fills _panels.SOLVE_BYTES.
    The map is I + S[-1] W and the error estimate the largest trailing
    Chebyshev coefficient of W.  Rounding is relative to the map and to
    the generator's own, which grows with the phase phi + Delta that
    e^{-2i(phi+Delta)} is taken of.  Panel ends on a path's breaks are
    sampled from inside the panel (_panels.nudged)."""
    h = 0.5 * (b - a)
    err, scale = np.empty(a.size), np.empty(a.size)
    maps = np.empty((a.size, 2, 2), dtype=complex)
    groups = {}

    def solve(system):
        rows, m, phase = (np.concatenate(part, axis) for part, axis in
                          zip(zip(*groups.pop(system)), (0, 2, 0)))
        w = system(m, h[rows], phase)
        read = _READ @ w
        mine = maps[rows] = _IDENTITY2 + read[:, :, 0]
        err[rows] = np.abs(read[:, :, 1:]).max(axis=(1, 2, 3))
        noise = 2.0 * np.abs(w).max(axis=(1, 2, 3)) * np.abs(phase).max(axis=1)
        scale[rows] = np.maximum(np.abs(mine).max(axis=(1, 2)), noise)

    ends = np.searchsorted(key, np.arange(len(paths) + 1)).tolist()
    for (g, r, breaks), lo, hi in zip(paths, ends, ends[1:]):
        if lo == hi:
            continue
        x = nudged(points(a[lo:hi], h[lo:hi]), a[lo:hi], b[lo:hi], breaks)
        (g11, g12, g21), phase, ppr, r1, dprime = _entries(g, r, x.ravel())
        m = np.reshape((g11, g12, g21, -g11), (2, 2) + x.shape)
        if not np.isfinite(m).all():
            raise NonConvergence("the generator is not finite on the path")
        if np.all(np.abs(g11) <= ROUNDING_FLOOR * (np.abs(ppr)
                                                   + np.abs(dprime))):
            system, size = _zero_diagonal, PANEL_NODES
        elif not (np.any(r1) or np.any(dprime)):
            system, size = _rank_one, PANEL_NODES
        else:
            system, size = _full_system, _SIZE
        group = groups.setdefault(system, [])
        group.append((np.arange(lo, hi), m, phase.reshape(x.shape)))
        if 16 * size * size * sum(p[0].size for p in group) >= SOLVE_BYTES:
            solve(system)
    for system in list(groups):
        solve(system)
    return err, scale, maps


def _refined_products(paths, tol: float) -> list:
    """The maps E(edges[-1], edges[0]) of the (gauge, rho pair, edges,
    junctions) paths (as _segments cuts them), each refined to tol.

    A path starts on panels no wider than it over PRODUCT_START_PANELS and
    than pi / max|phi'|, one period of e^{-2i phi}, read off phi' at the
    wider cut's Lobatto points; GaugeDegenerate, before any solve, where
    those fail gauges.phi_prime_max or real ones change sign in a panel.
    One _panels.bisect refines all paths' panels keyed by path
    (_panel_maps), so a path's maps are bitwise its maps alone.  Junctions
    go before their piece's first map; a path multiplies in one tree."""
    starts = []
    for g, r, edges, _ in paths:
        edges = np.asarray(edges, dtype=float)
        breaks = np.asarray(r.breakpoints, dtype=float)
        width = (edges[-1] - edges[0]) / PRODUCT_START_PANELS
        a, b = subdivide(edges[:-1], edges[1:], width)
        x = nudged(points(a, 0.5 * (b - a)), a, b, breaks)
        ppr = np.resize(g.phi_prime(x.ravel()), x.shape)
        peak = phi_prime_max(ppr)
        neg = np.signbit(ppr.real)
        if not np.any(ppr.imag) and np.any(neg != neg[:, :1]):
            raise GaugeDegenerate("phi' changes sign on the path")
        if math.pi / peak < width:
            a, b = subdivide(edges[:-1], edges[1:], math.pi / peak)
        starts.append((a, b, (g, r, breaks), edges[-1] - edges[0]))
    a, b, sampled, spans = zip(*starts)
    key = np.repeat(np.arange(len(paths)), [part.size for part in a])
    a, _, _, maps, key = bisect(
        lambda p, q, k: (*_panel_maps(sampled, p, q, k), k),
        np.concatenate(a), np.concatenate(b), spans, tol, key)
    ends = np.searchsorted(key, np.arange(len(paths) + 1))
    out = []
    for (_, _, edges, junctions), lo, hi in zip(paths, ends[:-1], ends[1:]):
        m = maps[lo:hi]
        if len(junctions):
            m = np.insert(m, np.searchsorted(a[lo:hi], edges[1:-1]),
                          junctions, axis=0)
        out.append(_tree_product(m.transpose(1, 2, 0)))
    return out


def _refined_product(g: GaugeTriple, r: RhoPair, edges, junctions,
                     tol: float) -> np.ndarray:
    """_refined_products of the one path (g, r, edges, junctions)."""
    return _refined_products([(g, r, edges, junctions)], tol)[0]


def transfer_matrix(g: GaugeTriple, r: RhoPair, x_from: float, x_to: float,
                    tol: float = 1.0e-10,
                    grid: DomainGrid = None) -> TransferMatrix:
    """Discrete path-ordered exponential E(x_to, x_from).

    The path is cut into Chebyshev panels that never straddle a
    breakpoint, and each panel's map solves one second-kind system for Y'
    at its Lobatto points (Greengard's spectral integration, _panel_maps),
    with the generator evaluated directly from the gauge and rho fields.
    One _panels.bisect refines the panels of the whole path until each
    error estimate is below its share of tol, in proportion to its width,
    or below its rounding floor.  The maps are multiplied in order, later
    positions on the left, with the junction projections in place between
    the smooth pieces, as one pairwise tree.  A backward path is the
    adjugate of the forward one, since every panel map and junction has
    det 1.  Raises NonConvergence past _panels.MAX_PANELS panels or where
    the generator is not finite.  No Runge-Kutta step is taken and no
    table is built, so the result is an independent check on evolve.
    """
    if x_from == x_to:
        return TransferMatrix(_IDENTITY2.copy(), x_from, x_to)
    _resolve_window(x_from, x_to, grid)
    e = _refined_product(g, r, *_segments(g, r, *sorted((x_from, x_to))), tol)
    # The panel maps (M is traceless) and the junctions have det 1.
    return TransferMatrix(_adjugate(e) if x_from > x_to else e, x_from, x_to)


def scattering_amplitudes(p: PotentialProfile, e: EnergySpec,
                          g: GaugeTriple, tol: float,
                          grid: DomainGrid = None) -> ScatteringAmplitudes:
    """Transmission and reflection for a wave incident from the left.

    The incident plane wave e^{i k_left x}/sqrt(k_left) is projected onto
    the gauge's coefficient pair at the left edge, carried to the right
    edge by the path-ordered exponential (tol is its entrywise tolerance;
    this is the one-case _amplitudes), turned back into (psi, psi') and
    matched onto normalized plane waves there, which gives (alpha, beta)
    and T and R as current ratios.  Only (psi, psi') enters the read-out,
    so the amplitudes do not depend on the gauge.
    """
    return _amplitudes([(p, e, g, grid)], tol)[0]


def _amplitudes(cases, tol: float) -> list:
    """scattering_amplitudes of each (p, e, g, grid) case, in one batch."""
    paths, ends = [], []
    for p, e, g, grid in cases:
        w = wavenumber_field(p, e)
        if grid is None:
            grid = g.grid if g.grid is not None else truncate_domain(p, e)
        r = rho_pair(g, w)
        paths.append((g, r, *_segments(g, r, grid.x_min, grid.x_max)))
        ends.append((w, grid, _rep_matrix(g, [grid.x_min, grid.x_max], 0)))
    out = []
    for (w, grid, rep), m in zip(ends, _refined_products(paths, tol)):
        u = cmath.exp(1j * w.k_left * grid.x_min) / math.sqrt(w.k_left)
        left, right = rep.transpose(2, 0, 1).tolist()
        psi = _times(right, *_times(m.tolist(), *_rep_solve(
            left, u, 1j * w.k_left * u)))
        alpha, beta = _plane_wave_pair(WavefunctionSample(grid.x_max, *psi),
                                       w.k_right)
        out.append(ScatteringAmplitudes(complex(alpha), complex(beta),
                                        *_probabilities(alpha, beta)))
    return out


def _probabilities(fwd: complex, bwd: complex) -> tuple:
    """(T, R) = (1, |bwd|^2) / |fwd|^2 from the plane-wave pair at the
    right edge.  Current conservation keeps |fwd| >= 1, so T above 1 by
    less than 1e-9 is rounding overshoot and is clamped to 1."""
    mod = abs(fwd) ** 2
    transmission = 1.0 / mod
    if 1.0 < transmission < 1.0 + 1e-9:
        transmission = 1.0
    return float(transmission), float(abs(bwd) ** 2 / mod)


def _plane_wave_pair(sample: WavefunctionSample, k: float) -> tuple:
    """Two-point matching of (psi, psi') onto e^{+-ikx}/sqrt(k)."""
    root = math.sqrt(k)
    em = cmath.exp(-1j * k * sample.x)
    fwd = 0.5 * root * em * (sample.psi + sample.psi_prime / (1j * k))
    bwd = 0.5 * root / em * (sample.psi - sample.psi_prime / (1j * k))
    return fwd, bwd
