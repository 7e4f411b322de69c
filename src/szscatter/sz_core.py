"""Coefficient-pair evolution, transfer matrices, and amplitude extraction.

Two independent evolution routes are provided and serve as mutual
oracles: the path-ordered exponential on Chebyshev panels
(transfer_matrix) and adaptive embedded Runge-Kutta stepping of the
coefficient pair (evolve).  Both evaluate the one generator, _generator,
straight from the gauge and one call of the rho fields: the product at
its panels' Lobatto points, the Runge-Kutta route at its stage positions.
Neither builds a table.  On each panel the product solves for Y' = M Y
at the Lobatto points as one second-kind system (Greengard, SIAM J.
Numer. Anal. 28 (1991) 1071), so each panel gives its map and an error
estimate from its trailing Chebyshev coefficients; _panels.bisect, the
loop the oracle, the bound integral and the gauge antiderivatives share,
refines the panels, and the maps are multiplied in order.
scattering_amplitudes goes through the product and, in every gauge,
reads the amplitudes off (psi, psi') with the plane-wave matcher the
oracle also uses (_plane_wave_pair).

Discontinuities in the potential or gauge split the domain into smooth
segments.  Panels and steps never straddle a split; where the gauge
representation itself jumps (e.g. a local-wavenumber gauge over a square
barrier) the coefficient pair is re-projected through a junction matrix
that keeps psi and psi' continuous.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _tree_product, rk45_coeffs
from ._panels import (EDGE_NUDGE, PANEL_NODES, S, TAIL, bisect, points,
                      solve_blocks, subdivide)
from ._tables import segment_plan
from .errors import GaugeDegenerate, NonConvergence
from .gauges import DEGENERACY_RTOL, GaugeTriple, RhoPair, rho_pair
from .potentials import (DomainGrid, EnergySpec, PotentialProfile,
                         truncate_domain, wavenumber_field, window_edges)

_IDENTITY2 = np.eye(2, dtype=np.complex128)


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

    def apply(self, state: CoefficientState) -> CoefficientState:
        vec = self.entries @ np.array([state.a, state.b])
        return CoefficientState(self.x_to, complex(vec[0]), complex(vec[1]))

    @property
    def det(self) -> complex:
        e = self.entries
        return complex(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])


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


def _check_phi_prime(g: GaugeTriple, value: complex) -> complex:
    if abs(value) <= DEGENERACY_RTOL * max(g.phi_prime_scale, 1e-300):
        raise GaugeDegenerate("|phi'| below the degeneracy threshold")
    return value


def _entries(g: GaugeTriple, r: RhoPair, x: np.ndarray) -> tuple:
    """_generator's entries and the phase phi + Delta they were built from."""
    ppr, r1, r2 = r.fields(x)
    _check_phi_prime(g, np.min(np.abs(ppr)))
    if g.diag_vanishes:
        dia = 0.0
    else:
        dia = r2 - 2.0 * ppr * np.asarray(g.delta_prime(x))
    phase = np.asarray(g.phi(x)) + np.asarray(g.delta(x))
    em = np.exp(-2j * phase)
    inv2 = 0.5 / ppr
    return (1j * dia * inv2, (r1 + 1j * r2) * em * inv2,
            (r1 - 1j * r2) / em * inv2), phase


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
    psi, psi_prime = _rep_matrix(g, s.x, 0) @ np.array([s.a, s.b])
    return WavefunctionSample(s.x, complex(psi), complex(psi_prime))


def project_wavefunction(g: GaugeTriple, x: float, psi: complex,
                         psi_prime: complex) -> CoefficientState:
    """Inverse of reconstruct_psi: the coefficient pair representing a
    given (psi, psi') at x in this gauge."""
    rep = _rep_matrix(g, x, 0)
    vec = np.linalg.solve(rep, np.array([psi, psi_prime]))
    return CoefficientState(x, complex(vec[0]), complex(vec[1]))


def probability_current(g: GaugeTriple, s: CoefficientState) -> float:
    """Probability current Im(psi* psi') in closed form.

    For real gauges this reduces exactly to |a|^2 - |b|^2.
    """
    w = complex(g.phi_prime(s.x))
    aw = abs(w)
    if aw == 0.0:
        raise GaugeDegenerate("phi' vanishes")
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


def _rep_matrix(g: GaugeTriple, x: float, side: int) -> np.ndarray:
    """Map (a, b) -> (psi, psi') at x, sampled from the given side
    (side -1/+1 nudges inward across a jump; 0 samples exactly at x)."""
    xe = x + side * EDGE_NUDGE * max(1.0, abs(x))
    w = _check_phi_prime(g, complex(g.phi_prime(xe)))
    phase = complex(g.phi(xe)) + complex(g.delta(xe))
    chi = complex(g.chi(xe))
    root = cmath.sqrt(w)
    ep = cmath.exp(1j * phase)
    em = 1.0 / ep
    return np.array(
        [[ep / root, em / root],
         [(1j * w + chi) * ep / root, (-1j * w + chi) * em / root]],
        dtype=np.complex128,
    )


def _junction(g: GaugeTriple, x: float) -> np.ndarray:
    """Projection keeping (psi, psi') continuous across a representation
    jump: state_right = P @ state_left."""
    left = _rep_matrix(g, x, -1)
    right = _rep_matrix(g, x, +1)
    proj = np.linalg.solve(right, left)
    if np.max(np.abs(proj - _IDENTITY2)) < 1e-12:
        return _IDENTITY2
    return proj


def _segments(g: GaugeTriple, r: RhoPair, lo: float, hi: float) -> tuple:
    """Split [lo, hi] at r's breakpoints (the gauge's and the potential's)
    into smooth segments and check |phi'| on each.  Returns (edges,
    junctions), with junctions[i] the projection at edges[i + 1]."""
    edges = window_edges(lo, hi, r.breakpoints)
    for a, b in zip(edges[:-1], edges[1:]):
        eps = 1e-12 * max(1.0, abs(a), abs(b))
        probe = np.linspace(a + eps, b - eps, 513)
        ppr = np.abs(np.asarray(g.phi_prime(probe), dtype=np.complex128))
        if float(np.min(ppr)) <= DEGENERACY_RTOL * max(g.phi_prime_scale,
                                                       float(np.max(ppr))):
            raise GaugeDegenerate("|phi'| below the degeneracy threshold "
                                  f"on [{a:g}, {b:g}]")
    return edges, [_junction(g, b) for b in edges[1:-1]]


def _build_bundle(g: GaugeTriple, r: RhoPair, lo: float, hi: float,
                  max_step: float) -> tuple:
    """The (edges, junctions) that evolve walks; see _segments.  max_step
    is unused (evolve passes its step cap to the kernel) but stays, with
    the name, because perfbench's tracer and probe reach them."""
    return _segments(g, r, lo, hi)


def _bundle_for(g: GaugeTriple, r: RhoPair, lo: float, hi: float,
                max_step: float) -> tuple:
    """_build_bundle under a name of its own, because perfbench's probe
    calls it and its tracer counts these calls apart from the
    _build_bundle span."""
    return _build_bundle(g, r, lo, hi, max_step)


def _resolve_window(s0x: float, x_to: float, grid) -> tuple:
    lo = min(s0x, x_to)
    hi = max(s0x, x_to)
    if grid is not None:
        if lo < grid.x_min - 1e-12 or hi > grid.x_max + 1e-12:
            raise ValueError("evolution interval lies outside the grid")
        return grid.x_min, grid.x_max, grid.max_step
    span = hi - lo
    if span == 0.0:
        span = max(1.0, abs(lo))
    return lo, hi, span / 64.0


def _cross(junctions: list, j_from: int, j_to: int,
           y: np.ndarray) -> np.ndarray:
    """Carry a coefficient column, or a matrix of them, from segment j_from
    into the neighbouring segment j_to through their junction projection."""
    proj = junctions[min(j_from, j_to)]
    if proj is _IDENTITY2:
        return y
    return proj @ y if j_to > j_from else np.linalg.solve(proj, y)


def evolve_path(g: GaugeTriple, r: RhoPair, s0: CoefficientState,
                sample_points, tol: float, grid: DomainGrid = None) -> tuple:
    """Evolve (a, b) from s0 through ordered sample points.

    The last sample point is the endpoint.  rk45_coeffs steps each smooth
    segment on _generator, and the pair crosses the junction projections
    between segments.  Returns (list of CoefficientState, EvolveStats);
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
    lo, hi, max_step = _resolve_window(s0.x, x_to, grid)
    if pts.size > 1:
        lo = min(lo, float(np.min(pts)))
        hi = max(hi, float(np.max(pts)))
    edges, junctions = _bundle_for(g, r, lo, hi, max_step)
    if x_to == s0.x and pts.size == 1:
        return [CoefficientState(s0.x, s0.a, s0.b)], EvolveStats(0, 0, 0.0)

    hmin = 1e-14 * max(abs(x_to - s0.x), 1e-30)
    a, b = complex(s0.a), complex(s0.b)
    inv0 = (a.real * a.real + a.imag * a.imag
            - b.real * b.real - b.imag * b.imag)
    drift = 0.0
    acc = rej = 0
    out_states = []
    prev = None
    for j, x, seg_stops, n_taken in segment_plan(edges, s0.x, pts):
        if prev is not None:
            y = _cross(junctions, prev, j, np.array([a, b]))
            a, b = complex(y[0]), complex(y[1])
        seg_a, seg_b, d, na, nr = rk45_coeffs(
            _generator, g, r, x, seg_stops, a, b, tol, max_step, hmin, inv0)
        a, b = seg_a[-1], seg_b[-1]
        drift = max(drift, d)
        acc += na
        rej += nr
        out_states += map(CoefficientState, map(float, seg_stops[:n_taken]),
                          seg_a, seg_b)
        prev = j
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


def _system(hm: np.ndarray) -> np.ndarray:
    """I - h M S of each panel, with h M given as blocks (panel, i, point,
    k): entry ((i, j), (k, l)) is delta - h M_ik(x_j) S_jl."""
    a = np.multiply(hm[..., None], _MINUS_S, order="C")
    a.reshape(-1, _SIZE * _SIZE)[:, ::_SIZE + 1] += 1.0
    return a.reshape(-1, _SIZE, _SIZE)


def _panel_maps(g: GaugeTriple, r: RhoPair, ends: tuple, a: np.ndarray,
                b: np.ndarray) -> tuple:
    """Each panel's map Y(b_i) of Y' = M Y, Y(a_i) = I, for _panels.bisect.

    With W = h Y' at the panel's Lobatto points, Y = I + S W, so W = h M Y
    is the second-kind system (I - h M S) W = h M: one 2n x 2n system with
    two right-hand sides per panel (Greengard, SIAM J. Numer. Anal. 28
    (1991) 1071).  The map is I + S[-1] W and the error estimate the
    largest trailing Chebyshev coefficient of W.  Rounding is relative to
    the map and to the generator's own rounding, which grows with the
    phase phi + Delta that e^{-2i(phi+Delta)} is taken of.  The points are
    clamped to ends, so a piece end on a breakpoint is sampled from
    inside."""
    h = 0.5 * (b - a)
    x = np.minimum(np.maximum(points(a, h), ends[0]), ends[1])
    (g11, g12, g21), phase = _entries(g, r, x.ravel())
    m = np.reshape((g11, g12, g21, -g11), (2, 2) + x.shape)
    if not np.isfinite(m).all():
        raise NonConvergence("the generator is not finite on the piece")
    # h M at the points, as blocks (panel, i, point, k).
    hm = np.multiply(m.transpose(2, 0, 3, 1), h[:, None, None, None],
                     order="C")
    w = solve_blocks(lambda blk: _system(hm[blk]),
                     hm.reshape(a.size, _SIZE, 2)).reshape(hm.shape)
    read = _READ @ w
    maps = _IDENTITY2 + read[:, :, 0]
    err = np.abs(read[:, :, 1:]).max(axis=(1, 2, 3))
    noise = 2.0 * np.abs(w).max(axis=(1, 2, 3)) \
        * np.abs(phase).reshape(x.shape).max(axis=1)
    return err, np.maximum(np.abs(maps).max(axis=(1, 2)), noise), maps


def _refined_product(g: GaugeTriple, r: RhoPair, a: float, b: float,
                     tol: float) -> np.ndarray:
    """The map E(b, a) of a piece of one smooth segment, to tol.

    _panels.bisect refines the panels of [min(a, b), max(a, b)]
    (_panel_maps) until each passes its share of tol, and their maps are
    multiplied in order (_kernels._tree_product).  A piece end on a
    breakpoint is sampled one-sided, from inside the piece.  A backward
    piece is the inverse of the forward one."""
    lo, hi = min(a, b), max(a, b)
    ends = tuple(x + side * EDGE_NUDGE * max(1.0, abs(x))
                 if x in r.breakpoints else x
                 for x, side in ((lo, 1.0), (hi, -1.0)))
    # Start panels span at most one period, pi / max|phi'|, of e^{-2i phi}.
    starts = subdivide(np.array([lo]), np.array([hi]),
                       math.pi / max(g.phi_prime_scale, 1e-300))
    _, _, _, maps = bisect(lambda p, q: _panel_maps(g, r, ends, p, q),
                           *starts, hi - lo, tol)
    e = _tree_product(np.moveaxis(maps, 0, -1))
    return e if a < b else np.linalg.inv(e)


def transfer_matrix(g: GaugeTriple, r: RhoPair, x_from: float, x_to: float,
                    tol: float = 1.0e-10,
                    grid: DomainGrid = None) -> TransferMatrix:
    """Discrete path-ordered exponential E(x_to, x_from).

    Each smooth segment piece the path crosses is cut into Chebyshev
    panels, and each panel's map solves one second-kind system for Y' at
    its Lobatto points (Greengard's spectral integration, _panel_maps),
    with the generator evaluated directly from the gauge and rho fields.
    _panels.bisect refines the panels until each error estimate is below
    its share of the piece's share of tol, or below its rounding floor.
    The maps are multiplied in order, later positions on the left, and the
    junction projections join the pieces.  Raises NonConvergence past
    _panels.MAX_PANELS panels or where the generator is not finite.  No
    Runge-Kutta step is taken and no table is built, so the result is an
    independent check on evolve.
    """
    if x_from == x_to:
        return TransferMatrix(_IDENTITY2.copy(), x_from, x_to)
    lo, hi, _ = _resolve_window(x_from, x_to, grid)
    edges, junctions = _segments(g, r, lo, hi)
    pieces = list(segment_plan(edges, x_from, [x_to]))
    tol_piece = tol / len(pieces)
    result = _IDENTITY2.copy()
    prev = None
    for j, a, seg_stops, _ in pieces:
        if prev is not None:
            result = _cross(junctions, prev, j, result)
        result = _refined_product(g, r, a, seg_stops[-1], tol_piece) @ result
        prev = j
    return TransferMatrix(result, x_from, x_to)


def scattering_amplitudes(p: PotentialProfile, e: EnergySpec,
                          g: GaugeTriple, tol: float,
                          grid: DomainGrid = None) -> ScatteringAmplitudes:
    """Transmission and reflection for a wave incident from the left.

    The incident plane wave e^{i k_left x}/sqrt(k_left) is projected onto
    the gauge's coefficient pair at the left edge, carried to the right
    edge by the path-ordered exponential transfer_matrix (tol is its
    entrywise tolerance), turned back into (psi, psi') and matched onto
    normalized plane waves there, which gives (alpha, beta) and T and R
    as current ratios.  Only (psi, psi') enters the read-out, so the
    amplitudes do not depend on the gauge.
    """
    w = wavenumber_field(p, e)
    if grid is None:
        grid = g.grid if g.grid is not None else truncate_domain(p, e)
    u = cmath.exp(1j * w.k_left * grid.x_min) / math.sqrt(w.k_left)
    s0 = project_wavefunction(g, grid.x_min, u, 1j * w.k_left * u)
    final = transfer_matrix(g, rho_pair(g, w), grid.x_min, grid.x_max,
                            tol=tol, grid=grid).apply(s0)
    alpha, beta = _plane_wave_pair(reconstruct_psi(g, final), w.k_right)
    return ScatteringAmplitudes(complex(alpha), complex(beta),
                                *_probabilities(alpha, beta))


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
