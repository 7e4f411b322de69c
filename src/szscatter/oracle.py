"""Independent reference solvers used to validate the main engine.

direct_integrate drives psi'' + k^2 psi = 0 as a first-order pair on a
k^2 table, with none of the gauge machinery: no gauge, rho pair or
evolution bundle enters.  It shares with the coefficient-pair engine only
the generic Dormand-Prince 5(4) loop, the segment planner and the
plane-wave matching at the right edge.  The analytic oracles are closed
forms, so they check both routes independently.  Agreement between these
and the coefficient-pair engine is the backbone of the acceptance suite.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import STATUS_STEP_UNDERFLOW, rk45_wave
from ._tables import TABLE_STEP, build_segment_table, segment_plan
from .errors import AsymptoticallyClosedChannel, StepUnderflow
from .potentials import DomainGrid, EnergySpec, PotentialProfile, wavenumber_field
from .sz_core import WavefunctionSample, _plane_wave_pair


@dataclass(frozen=True)
class OracleResult:
    transmission: float
    reflection: float
    psi_samples: tuple
    method: str


def direct_integrate(p: PotentialProfile, e: EnergySpec, grid: DomainGrid,
                     tol: float, n_samples: int = 0) -> OracleResult:
    """Transmission and reflection by direct second-order integration.

    A pure right-moving wave enters at the left edge; the solution is
    integrated to the right edge and matched onto normalized plane waves
    there.  With n_samples > 0 the wavefunction is recorded at that many
    uniformly spaced positions.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    w = wavenumber_field(p, e)
    inner = sorted(b for b in set(p.discontinuities)
                   if grid.x_min < b < grid.x_max)
    edges = [grid.x_min, *inner, grid.x_max]
    disc = set(p.discontinuities)
    spacing = min(grid.max_step, TABLE_STEP)
    tables = [
        build_segment_table([w.k_squared], a, b,
                            nudge_left=a in disc, nudge_right=b in disc,
                            max_spacing=spacing)
        for a, b in zip(edges[:-1], edges[1:])
    ]

    if n_samples > 0:
        sample_xs = np.linspace(grid.x_min, grid.x_max, n_samples)
    else:
        sample_xs = np.array([grid.x_max])

    k_l = w.k_left
    psi = cmath.exp(1j * k_l * grid.x_min) / math.sqrt(k_l)
    dpsi = 1j * k_l * psi
    hmin = 1e-14 * grid.span
    samples = []
    for j, x, seg_stops, n_taken in segment_plan(edges, grid.x_min,
                                                 sample_xs):
        table = tables[j]
        stop_arr = np.asarray(seg_stops, dtype=float)
        out_p = np.empty(stop_arr.size, dtype=np.complex128)
        out_q = np.empty(stop_arr.size, dtype=np.complex128)
        psi, dpsi, _, _, status = rk45_wave(
            table.coeffs, table.x0, table.h, x, stop_arr, psi, dpsi,
            tol, grid.max_step, hmin, out_p, out_q)
        if status == STATUS_STEP_UNDERFLOW:
            raise StepUnderflow("direct integration step fell below "
                                "1e-14 of the domain width")
        for idx in range(n_taken):
            samples.append(WavefunctionSample(
                float(stop_arr[idx]), complex(out_p[idx]),
                complex(out_q[idx])))

    fwd, bwd = _plane_wave_pair(WavefunctionSample(grid.x_max, psi, dpsi),
                                w.k_right)
    mod_f = abs(fwd) ** 2
    transmission = 1.0 / mod_f
    reflection = abs(bwd) ** 2 / mod_f
    if 1.0 < transmission < 1.0 + 1e-9:
        transmission = 1.0
    return OracleResult(float(transmission), float(reflection),
                        tuple(samples), "direct_integration")


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
