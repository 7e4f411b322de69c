"""Coefficient-pair evolution, transfer matrices, and amplitude extraction.

Two independent evolution routes are provided and serve as mutual
oracles: ordered products of sixth-order Magnus step exponentials
(transfer_matrix), the discrete realization of the path-ordered
exponential, and adaptive embedded Runge-Kutta stepping of the
coefficient pair (evolve).  Both evaluate the one generator, _generator,
straight from the gauge and one call of the rho fields: the product at
its Gauss points, the Runge-Kutta route at its stage positions.  Neither
builds a table.  The product's refinement accepts only a finite pair of
products, so steps too coarse for a tall barrier, which overflow, are
refined past.  scattering_amplitudes goes through the product and, in
every gauge, reads the amplitudes off (psi, psi') with the plane-wave
matcher the oracle also uses (_plane_wave_pair).

Discontinuities in the potential or gauge split the domain into smooth
segments.  Steps never straddle a split; where the gauge representation
itself jumps (e.g. a local-wavenumber gauge over a square barrier) the
coefficient pair is re-projected through a junction matrix that keeps
psi and psi' continuous.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ordered_product, rk45_coeffs
from ._panels import EDGE_NUDGE
from ._tables import segment_plan
from .errors import GaugeDegenerate, NonConvergence
from .gauges import DEGENERACY_RTOL, GaugeTriple, RhoPair, rho_pair
from .potentials import (DomainGrid, EnergySpec, PotentialProfile,
                         truncate_domain, wavenumber_field, window_edges)

# Product steps over the whole path before refinement, shared among the
# pieces by length, and the cap on any one piece's steps.
MIN_PRODUCT_STEPS = 64
MAX_PRODUCT_STEPS = 1 << 23

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


def _generator(g: GaugeTriple, r: RhoPair, x: np.ndarray) -> tuple:
    """Evolution-generator entries (g11, g12, g21) at an array of
    positions, evaluated from the gauge callables and one call of the
    rho fields; g22 = -g11 since the generator is traceless."""
    ppr, r1, r2 = r.fields(x)
    _check_phi_prime(g, np.min(np.abs(ppr)))
    if g.diag_vanishes:
        dia = 0.0
    else:
        dia = r2 - 2.0 * ppr * np.asarray(g.delta_prime(x))
    em = np.exp(-2j * (np.asarray(g.phi(x)) + np.asarray(g.delta(x))))
    inv2 = 0.5 / ppr
    return (1j * dia * inv2, (r1 + 1j * r2) * em * inv2,
            (r1 - 1j * r2) / em * inv2)


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


_EPS = float(np.finfo(np.float64).eps)


def _refined_product(g: GaugeTriple, r: RhoPair, a: float, b: float,
                     n0: int, tol: float) -> np.ndarray:
    n = max(2, n0)
    prev = None
    predicted = False
    while n <= MAX_PRODUCT_STEPS:
        if prev is None:
            prev = ordered_product(_generator, g, r, a, b, n)
        cur = ordered_product(_generator, g, r, a, b, 2 * n)
        diff = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]),
                   abs(cur[2] - prev[2]), abs(cur[3] - prev[3]))
        # max skips a NaN that is not first, and an overflowed product
        # makes the floor infinite, so a non-finite pair is never accepted.
        finite = math.isfinite(diff) and all(map(cmath.isfinite, cur + prev))
        # An m-step product carries O(m eps) rounding; once the Cauchy
        # difference reaches that scale, refinement only adds noise.
        floor = 4.0 * _EPS * (2 * n) * max(1.0, abs(cur[0]), abs(cur[1]),
                                           abs(cur[2]), abs(cur[3]))
        # The sixth-order error bound diff / 63 fails where the generator
        # is only C^1 (the knots of tabulated profiles), so accept on the
        # Cauchy difference itself.
        if finite and (diff < tol or diff <= floor):
            return np.array([[cur[0], cur[1]], [cur[2], cur[3]]],
                            dtype=np.complex128)
        # diff shrinks like n^-6, so the first pair predicts the step
        # count m with |E_2m - E_m| < tol; jump there once, then double.
        # A jump past MAX_PRODUCT_STEPS ends the loop before any product
        # is computed.  A non-finite pair only doubles.
        grow = (diff / max(tol, floor)) ** (1.0 / 6.0)
        if finite and not predicted and 2.0 < grow < math.inf:
            n <<= math.ceil(math.log2(grow))
            prev = None
        else:
            n *= 2
            prev = cur
        predicted = True
    raise NonConvergence("ordered-product refinement stalled before "
                         f"reaching tol={tol:g}")


def transfer_matrix(g: GaugeTriple, r: RhoPair, x_from: float, x_to: float,
                    tol: float = 1.0e-10,
                    grid: DomainGrid = None) -> TransferMatrix:
    """Discrete path-ordered exponential E(x_to, x_from).

    Ordered product of sixth-order Magnus step exponentials (three Gauss
    points per step plus nested commutators; Blanes, Casas and Ros, BIT
    40 (2000) 434), with the generator evaluated directly from the gauge
    and rho fields.  Each segment piece the path crosses is refined as
    a whole until the Cauchy difference |E_2n - E_n| drops below its
    share of tol: the first pair (n, 2n) predicts the step count from the
    sixth-order rate, and refinement jumps there and then doubles.  Later
    positions multiply on the left.  No Runge-Kutta step is taken and no
    table is built, so the result is an independent check on evolve.
    """
    if x_from == x_to:
        return TransferMatrix(_IDENTITY2.copy(), x_from, x_to)
    lo, hi, _ = _resolve_window(x_from, x_to, grid)
    edges, junctions = _segments(g, r, lo, hi)
    pieces = list(segment_plan(edges, x_from, [x_to]))
    total_len = abs(x_to - x_from)
    tol_piece = tol / len(pieces)
    result = _IDENTITY2.copy()
    prev = None
    for j, a, seg_stops, _ in pieces:
        b = seg_stops[-1]
        if prev is not None:
            result = _cross(junctions, prev, j, result)
        n0 = max(8, int(math.ceil(MIN_PRODUCT_STEPS * abs(b - a)
                                  / total_len)))
        block = _refined_product(g, r, a, b, n0, tol_piece)
        result = block @ result
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
