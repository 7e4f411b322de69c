"""Rigorous transmission/reflection bounds and gauge-family optimization.

The nonnegative field

    theta(x) = sqrt(rho1^2 + rho2^2) / (2 |phi'|)

depends on phi and chi but not on Delta.  Its line integral J over the
truncated domain bounds the asymptotic coefficients (|alpha| <= cosh J,
|beta| <= sinh J) and hence T >= sech^2 J, R <= tanh^2 J, for every real
admissible gauge.  Minimizing J over a gauge family tightens the bound.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import (BoundViolation, ComplexGaugeRejected, EmptyFamily,
                     GaugeDegenerate, NonConvergence, TurningPoint)
from .gauges import GaugeTriple, gauge_interpolated
from .potentials import (DomainGrid, EnergySpec, PotentialProfile, scalarize,
                         truncate_domain, wavenumber_field, window_edges)

GOLDEN_TOL = 1.0e-6
SCAN_POINTS = 33


@dataclass(frozen=True, eq=False)
class ThetaField:
    """Pointwise bound integrand and the gauge that generated it."""

    theta: object = field(repr=False)
    gauge_id: str = ""
    breakpoints: tuple = ()


@dataclass(frozen=True)
class BoundReport:
    theta_integral: float
    alpha_bound: float
    beta_bound: float
    t_lower: float
    r_upper: float
    gauge_id: str


@dataclass(frozen=True)
class VerificationRecord:
    gauge_id: str
    t_lower: float
    t_exact: float
    margin_t: float
    r_upper: float
    r_exact: float
    margin_r: float


def theta_field(g: GaugeTriple, w) -> ThetaField:
    """Bound integrand for a real gauge; Delta never enters."""
    if not g.is_real:
        raise ComplexGaugeRejected(
            "bounds are derived only for real gauges")
    if g.phi_prime_jumps:
        raise GaugeDegenerate(
            "phi' is discontinuous, so phi'' has point masses the bound "
            "integral cannot represent; use a gauge with continuous phi'")

    def raw(xv):
        ppr = np.asarray(g.phi_prime(xv))
        chi = np.asarray(g.chi(xv))
        r1 = np.asarray(g.phi_double_prime(xv)) + 2.0 * chi * ppr
        r2 = (np.asarray(w.k_squared(xv)) + chi**2
              + np.asarray(g.chi_prime(xv)) - ppr**2)
        return np.sqrt(r1 * r1 + r2 * r2) / (2.0 * np.abs(ppr))

    breaks = tuple(sorted(set(g.breakpoints) | set(w.breakpoints)))
    return ThetaField(theta=scalarize(raw), gauge_id=g.label,
                      breakpoints=breaks)


def theta_integral(t: ThetaField, grid: DomainGrid, tol: float) -> float:
    """Adaptive quadrature of theta over the truncated domain, splitting
    at jump discontinuities."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    edges = window_edges(grid.x_min, grid.x_max, t.breakpoints)
    n_seg = len(edges) - 1
    total = 0.0
    err_total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        # Gauss-Kronrod nodes are strictly interior, so integrating up to
        # a jump never evaluates the integrand exactly on it.
        for a, b in zip(edges[:-1], edges[1:]):
            try:
                val, err = quad(t.theta, a, b,
                                epsabs=0.5 * tol / n_seg, epsrel=1e-11,
                                limit=400)
            except IntegrationWarning as exc:
                raise NonConvergence(
                    f"theta quadrature failed on [{a:g}, {b:g}]: {exc}"
                ) from exc
            total += val
            err_total += err
    if err_total > tol:
        raise NonConvergence(
            f"theta quadrature error estimate {err_total:g} exceeds "
            f"tol={tol:g}")
    return float(total)


def _report(theta: float, gauge_id: str) -> BoundReport:
    """The four bounds that follow from a theta integral."""
    ch = math.cosh(theta)
    sech = 1.0 / ch
    th = math.tanh(theta)
    return BoundReport(
        theta_integral=theta,
        alpha_bound=ch,
        beta_bound=math.sinh(theta),
        t_lower=sech * sech,
        r_upper=th * th,
        gauge_id=gauge_id,
    )


def bound_report(p: PotentialProfile, e: EnergySpec, g: GaugeTriple,
                 tol: float, grid: DomainGrid = None) -> BoundReport:
    """All four bounds from one theta integral."""
    w = wavenumber_field(p, e)
    if grid is None:
        grid = g.grid if g.grid is not None else truncate_domain(p, e)
    return _report(theta_integral(theta_field(g, w), grid, tol), g.label)


def verify_bounds(report: BoundReport, exact) -> VerificationRecord:
    """Check an exact result against a bound report.

    A negative margin beyond 1e-12 raises BoundViolation: the bounds are
    rigorous, so a violation always signals an implementation bug.
    """
    margin_t = exact.transmission - report.t_lower
    margin_r = report.r_upper - exact.reflection
    if margin_t < -1e-12:
        raise BoundViolation(
            f"T_exact={exact.transmission:.15g} fell below "
            f"t_lower={report.t_lower:.15g} (gauge {report.gauge_id})")
    if margin_r < -1e-12:
        raise BoundViolation(
            f"R_exact={exact.reflection:.15g} exceeded "
            f"r_upper={report.r_upper:.15g} (gauge {report.gauge_id})")
    return VerificationRecord(
        gauge_id=report.gauge_id,
        t_lower=report.t_lower,
        t_exact=exact.transmission,
        margin_t=margin_t,
        r_upper=report.r_upper,
        r_exact=exact.reflection,
        margin_r=margin_r,
    )


@dataclass(frozen=True, eq=False)
class GaugeFamily:
    """One-parameter family of candidate gauges for bound tightening."""

    name: str
    builder: object = field(repr=False)
    s_min: float = 0.0
    s_max: float = 1.0
    baseline_s: float = 0.0


def phi_prime_family(p: PotentialProfile, e: EnergySpec,
                     grid: DomainGrid = None) -> GaugeFamily:
    """Family phi'(x) = (1-s) k_left + s k(x), chi = Delta = 0.

    The s = 0 baseline is always admissible; members with s > 0 require
    an open channel everywhere (k^2 > 0 on the grid).
    """
    w = wavenumber_field(p, e)
    if grid is None:
        grid = truncate_domain(p, e)

    def build(s):
        return gauge_interpolated(w, grid, float(s))

    return GaugeFamily(name="phi_prime_interpolation", builder=build)


def optimize_gauge(p: PotentialProfile, e: EnergySpec, family: GaugeFamily,
                   tol: float, grid: DomainGrid = None) -> tuple:
    """Minimize the theta integral over a scalar gauge family.

    Coarse scan (SCAN_POINTS values, always including the baseline)
    followed by golden-section refinement; deterministic tie-break on the
    smallest s.  Returns (best gauge, its BoundReport).
    """
    w = wavenumber_field(p, e)
    if grid is None:
        grid = truncate_domain(p, e)

    def theta_of(s):
        # Members can fail either at construction (turning point) or at
        # the bound integrand (distributional phi''); both are skipped.
        try:
            g = family.builder(s)
            t = theta_field(g, w)
            return g, theta_integral(t, grid, tol)
        except (TurningPoint, GaugeDegenerate):
            return None, math.inf

    scan = np.linspace(family.s_min, family.s_max, SCAN_POINTS)
    if not np.any(np.isclose(scan, family.baseline_s, atol=0.0)):
        scan = np.sort(np.append(scan, family.baseline_s))
    best_s = None
    best_val = math.inf
    values = {}
    for s in scan:
        _, val = theta_of(float(s))
        values[float(s)] = val
        if val < best_val:  # strict: earliest (smallest) s wins ties
            best_val = val
            best_s = float(s)
    if best_s is None or math.isinf(best_val):
        raise EmptyFamily(f"no admissible member in family {family.name}")

    idx = int(np.where(scan == best_s)[0][0])
    lo = float(scan[max(idx - 1, 0)])
    hi = float(scan[min(idx + 1, scan.size - 1)])
    if math.isinf(values.get(lo, math.inf)):
        lo = best_s
    if math.isinf(values.get(hi, math.inf)):
        hi = best_s
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > GOLDEN_TOL:
        m1 = hi - inv_phi * (hi - lo)
        m2 = lo + inv_phi * (hi - lo)
        _, v1 = theta_of(m1)
        _, v2 = theta_of(m2)
        if v1 < best_val:
            best_val, best_s = v1, m1
        if v2 < best_val:
            best_val, best_s = v2, m2
        if v1 <= v2:
            hi = m2
        else:
            lo = m1
    best_gauge, best_theta = theta_of(best_s)
    if best_gauge is None:
        raise EmptyFamily(f"optimizer landed on an inadmissible member "
                          f"s={best_s:g}")
    return best_gauge, _report(best_theta, best_gauge.label)
