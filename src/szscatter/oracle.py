"""Independent reference solvers used to validate the main engine.

direct_integrate solves psi'' + k^2 psi = 0 by Chebyshev spectral
integration (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071), with none
of the gauge machinery: no gauge, rho pair, table or Runge-Kutta step
enters.  The window is cut into panels at the potential's jumps, no wider
than min(4 / k_max, char_length).  On a panel [a, b] with half-width h the
unknown is sigma = psi'' at PANEL_NODES Chebyshev-Lobatto points, and

    psi = psi_a + psi'_a (x - a) + h^2 S^2 sigma,   psi' = psi'_a + h S sigma,

S being the Chebyshev integration matrix.  The equation becomes the
second-kind system (I + diag(k^2) h^2 S^2) sigma = -k^2 (psi_a +
psi'_a (x - a)), and one batched solve gives both fundamental solutions of
every panel, hence its 2x2 map (psi, psi')_a -> (psi, psi')_b.  A panel is
accepted when the error its trailing Chebyshev coefficients of sigma imply
is below its share of tol; the others are bisected and re-solved together
(the panel operators, the bisection loop and the interpolant evaluator
live in _panels, which the bound integral and the gauge antiderivatives
share).  Wavefunction samples come from the Chebyshev interpolants of psi
and psi' on the accepted panels.
The maps are multiplied in order and the result is matched onto plane
waves at the right edge; that matching and the T/R read-out
(sz_core._probabilities) are all the oracle shares with the
coefficient-pair engine.  The analytic oracles are closed forms, so they
check both routes independently.  Agreement between these and the
coefficient-pair engine is the backbone of the acceptance suite.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._panels import (NODES, PANEL_NODES, S, S2, TAIL, TO_COEF, bisect,
                      evaluate, nudged, points, solve_blocks,
                      subdivide)
from .errors import AsymptoticallyClosedChannel
from .potentials import (DomainGrid, EnergySpec, PotentialProfile,
                         wavenumber_field, window_edges)
from .sz_core import WavefunctionSample, _plane_wave_pair, _probabilities


@dataclass(frozen=True)
class OracleResult:
    transmission: float
    reflection: float
    psi_samples: tuple
    method: str


# Accepted panels in order: left ends, half-widths, the map entries
# (m11, m12, m21, m22) of (psi, psi')_a -> (psi, psi')_b with shape (P, 4),
# and sigma at the nodes for the start states (1, 0) and (0, 1), with
# shape (P, n, 2).
_Panels = namedtuple("_Panels", "a h maps sigma")


def _solve_panels(k_squared, a, b, jumps) -> tuple:
    """Both fundamental solutions on each panel [a_i, b_i].  Returns
    (err, 1.0, maps, sigma) for _panels.bisect: each panel's error
    estimate, its rounding scale, map entries of shape (P, 4) and sigma of
    shape (P, n, 2)."""
    h = 0.5 * (b - a)
    x = points(a, h)
    xe = nudged(x, a, b, jumps)
    k2 = np.asarray(k_squared(xe.ravel())).reshape(xe.shape)
    rhs = -k2[:, :, None] * np.stack((np.ones_like(x), x - a[:, None]), -1)
    hh = (h * h)[:, None, None]
    sigma = solve_blocks(
        lambda blk: np.eye(PANEL_NODES) + k2[blk, :, None] * hh[blk] * S2,
        rhs)
    d_end = h[:, None] * (S[-1] @ sigma)
    p_end = (h * h)[:, None] * (S2[-1] @ sigma)
    maps = np.stack((1.0 + p_end[:, 0], 2.0 * h + p_end[:, 1],
                     d_end[:, 0], 1.0 + d_end[:, 1]), axis=-1)
    # The dropped tail moves psi of the first solution by about h^2 times
    # its size and psi' of the second by about h times it.
    tail = np.max(np.abs(TAIL @ sigma), axis=1)
    err = np.maximum(h * h * tail[:, 0], h * tail[:, 1])
    return err, 1.0, maps, sigma


def _panels(k_squared, jumps, grid: DomainGrid, width: float,
            tol: float) -> _Panels:
    """Adaptive panel partition of the window with every panel solved.

    The window is split at the jumps and into panels no wider than width
    or 4 / k_max; _panels.bisect then halves every panel whose error
    estimate exceeds its share of tol until all pass."""
    edges = np.array(window_edges(grid.x_min, grid.x_max, jumps))
    a, b = subdivide(edges[:-1], edges[1:], width)
    probe = points(a, 0.5 * (b - a))[:, 1:-1]
    k_max = math.sqrt(float(np.max(np.abs(k_squared(probe.ravel())))))
    if 4.0 < k_max * width:
        a, b = subdivide(a, b, 4.0 / k_max)
    a, b, _, maps, sigma = bisect(
        lambda a, b, _: _solve_panels(k_squared, a, b, jumps), a, b, grid.span,
        tol)
    return _Panels(a, 0.5 * (b - a), maps, sigma)


def _samples(panels: _Panels, starts: np.ndarray, xs: np.ndarray) -> tuple:
    """psi and psi' at the positions xs, interpolated inside the panel
    holding each (a position on a panel end belongs to the panel before),
    from the states (psi, psi') at the panels' left ends."""
    h = panels.h[:, None]
    sig = np.einsum("pnc,cp->pn", panels.sigma, starts)
    psi = (starts[0, :, None] + starts[1, :, None] * h * (NODES + 1.0)
           + h * h * (sig @ S2.T))
    dpsi = starts[1, :, None] + h * (sig @ S.T)
    return tuple(evaluate(panels.a, panels.h, vals @ TO_COEF.T, xs)
                 for vals in (psi, dpsi))


def direct_integrate(p: PotentialProfile, e: EnergySpec, grid: DomainGrid,
                     tol: float, n_samples: int = 0) -> OracleResult:
    """Transmission and reflection by direct second-order integration.

    A pure right-moving wave enters at the left edge; the panel maps carry
    it to the right edge, where it is matched onto normalized plane waves.
    tol bounds the summed panel error estimates.  With n_samples > 0 the
    wavefunction is recorded at that many uniformly spaced positions.
    Raises NonConvergence when the panels would exceed _panels.MAX_PANELS
    or a panel cannot be resolved.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    w = wavenumber_field(p, e)
    jumps = np.array(sorted(set(p.discontinuities)), dtype=float)
    panels = _panels(w.k_squared, jumps, grid, p.char_length, tol)
    k_l = w.k_left

    psi = cmath.exp(1j * k_l * grid.x_min) / math.sqrt(k_l)
    dpsi = 1j * k_l * psi
    starts = np.empty((2, panels.a.size), dtype=np.complex128)
    for i, (m11, m12, m21, m22) in enumerate(panels.maps.tolist()):
        starts[0, i], starts[1, i] = psi, dpsi
        psi, dpsi = m11 * psi + m12 * dpsi, m21 * psi + m22 * dpsi

    samples = ()
    if n_samples > 0:
        xs = np.linspace(grid.x_min, grid.x_max, n_samples)
        vals, ders = _samples(panels, starts, xs)
        samples = tuple(WavefunctionSample(float(x), complex(v), complex(d))
                        for x, v, d in zip(xs, vals, ders))

    fwd, bwd = _plane_wave_pair(WavefunctionSample(grid.x_max, psi, dpsi),
                                w.k_right)
    return OracleResult(*_probabilities(fwd, bwd), samples,
                        "direct_integration")


def _relative_spread(u: float) -> float:
    """sin^2(sqrt(u))/u continued analytically through u = 0
    (sinh^2(sqrt(-u))/(-u) for u < 0)."""
    if abs(u) < 1e-6:
        return 1.0 - u / 3.0 + 2.0 * u * u / 45.0 - u**3 / 315.0
    if u > 0:
        s = math.sin(math.sqrt(u))
        return s * s / u
    s = math.sinh(math.sqrt(-u))
    return s * s / (-u)


def analytic_square_barrier(v0: float, width: float,
                            e: EnergySpec) -> OracleResult:
    """Closed-form square-barrier transmission.

    Covers both the trigonometric (E > v0) and hyperbolic (E < v0)
    branches; E = v0 is handled through the analytic sin(x)/x limit, so
    no branch ever degenerates.
    """
    en = e.energy
    if en <= 0:
        raise AsymptoticallyClosedChannel("need E > 0 for open channels")
    c1 = e.c1
    u = c1 * (en - v0) * width**2
    t_inv = 1.0 + c1 * v0**2 * width**2 * _relative_spread(u) / (4.0 * en)
    transmission = 1.0 / t_inv
    return OracleResult(float(transmission), float(1.0 - transmission),
                        (), "analytic_square_barrier")


def analytic_reflectionless(ell: int, e: EnergySpec) -> OracleResult:
    """T = 1, R = 0 for the attractive sech^2 well with integer ell.

    Valid when the well strength matches n(n+1) for an integer n in the
    supplied units, which the default 2m/hbar^2 = 1 guarantees for any
    positive integer ell.
    """
    if int(ell) != ell or ell < 1:
        raise ValueError("ell must be a positive integer")
    if e.energy <= 0:
        raise AsymptoticallyClosedChannel("need E > 0 for open channels")
    strength = e.c1 * ell * (ell + 1)
    n = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * strength))
    if abs(n - round(n)) > 1e-9:
        raise ValueError("well strength is not reflectionless in these "
                         "units (2m/hbar^2 * ell(ell+1) must be n(n+1))")
    return OracleResult(1.0, 0.0, (), "analytic_reflectionless")
