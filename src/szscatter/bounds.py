"""Rigorous transmission/reflection bounds and gauge-family optimization.

The nonnegative field

    theta(x) = sqrt(rho1^2 + rho2^2) / (2 |phi'|),

built from gauges.rho_pair and equal to |M12| of the evolution generator,
depends on phi and chi but not on Delta.  Its line integral J over the
truncated domain bounds the asymptotic coefficients (|alpha| <= cosh J,
|beta| <= sinh J) and hence T >= sech^2 J, R <= tanh^2 J, for every real
admissible gauge.  Minimizing J over a gauge family tightens the bound.

J is integrated on the Chebyshev panels the oracle also uses (_panels):
Clenshaw-Curtis sums on panels split at theta's breakpoints, bisected
until each panel's trailing-coefficient estimate meets its share of the
tolerance.  The optimizer scans the family, then refines the best member
by golden section, keeping the gauge and J of the best member evaluated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._panels import S, TAIL, bisect, nudged, points, subdivide
from .errors import (BoundViolation, ComplexGaugeRejected, EmptyFamily,
                     GaugeDegenerate, NonConvergence, TurningPoint)
from .gauges import GaugeTriple, gauge_interpolated, rho_pair
from .potentials import (GRID_DIVISIONS, DomainGrid, EnergySpec,
                         PotentialProfile, scalarize, truncate_domain,
                         wavenumber_field, window_edges)

GOLDEN_TOL = 1.0e-6
SCAN_POINTS = 33
# Rounding slack of a bound check: a margin below -BOUND_SLACK is a
# violation.
BOUND_SLACK = 1.0e-12


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

    r = rho_pair(g, w)

    def raw(xv):
        r1 = np.asarray(r.rho1(xv))
        r2 = np.asarray(r.rho2(xv))
        return (np.sqrt(r1 * r1 + r2 * r2)
                / (2.0 * np.abs(np.asarray(g.phi_prime(xv)))))

    return ThetaField(theta=scalarize(raw), gauge_id=g.label,
                      breakpoints=r.breakpoints)


def theta_integral(t: ThetaField, grid: DomainGrid, tol: float) -> float:
    """Integral of theta over the truncated domain on Chebyshev panels.

    The window is cut at theta's breakpoints into panels no wider than
    GRID_DIVISIONS grid steps, the length truncate_domain divides into
    steps.  Each panel's integral is its Clenshaw-Curtis sum h S[-1] theta
    and its error estimate h times its largest trailing Chebyshev
    coefficient; _panels.bisect halves the panels that miss their share
    of tol.  theta is evaluated once per bisection level, on every open
    panel's points, with a panel end on a breakpoint nudged inward so a
    jump is sampled from the panel's own side.  Raises NonConvergence when
    theta is not finite, when the panels run out, or when the summed
    estimate exceeds tol.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    edges = np.array(window_edges(grid.x_min, grid.x_max, t.breakpoints))
    breaks = edges[1:-1]

    def solve(a, b):
        h = 0.5 * (b - a)
        x = nudged(points(a, h), a, b, breaks)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(t.theta(x.ravel())).reshape(x.shape)
        if not np.all(np.isfinite(vals)):
            raise NonConvergence("theta is not finite on the window")
        err = h * np.max(np.abs(vals @ TAIL.T), axis=1)
        return err, h * (vals @ S[-1])

    a, b = subdivide(edges[:-1], edges[1:], GRID_DIVISIONS * grid.max_step)
    _, _, err, parts = bisect(solve, a, b, grid.span, tol)
    err_total = float(np.sum(err))
    if err_total > tol:
        raise NonConvergence(
            f"theta quadrature error estimate {err_total:g} exceeds "
            f"tol={tol:g}")
    return float(np.sum(parts))


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

    A negative margin beyond BOUND_SLACK raises BoundViolation: the bounds
    are rigorous, so a violation always signals an implementation bug.
    """
    margin_t = exact.transmission - report.t_lower
    margin_r = report.r_upper - exact.reflection
    if margin_t < -BOUND_SLACK:
        raise BoundViolation(
            f"T_exact={exact.transmission:.15g} fell below "
            f"t_lower={report.t_lower:.15g} (gauge {report.gauge_id})")
    if margin_r < -BOUND_SLACK:
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

    best_val, best_s, best_gauge = math.inf, None, None

    def theta_of(s):
        nonlocal best_val, best_s, best_gauge
        # Members can fail either at construction (turning point) or at
        # the bound integrand (distributional phi''); both are skipped.
        # The strict comparison lets the earliest evaluated s win ties.
        try:
            g = family.builder(s)
            val = theta_integral(theta_field(g, w), grid, tol)
        except (TurningPoint, GaugeDegenerate):
            return math.inf
        if val < best_val:
            best_val, best_s, best_gauge = val, s, g
        return val

    scan = np.linspace(family.s_min, family.s_max, SCAN_POINTS)
    if not np.any(np.isclose(scan, family.baseline_s, atol=0.0)):
        scan = np.sort(np.append(scan, family.baseline_s))
    values = {float(s): theta_of(float(s)) for s in scan}
    if best_s is None:
        raise EmptyFamily(f"no admissible member in family {family.name}")

    idx = int(np.where(scan == best_s)[0][0])
    lo = float(scan[max(idx - 1, 0)])
    hi = float(scan[min(idx + 1, scan.size - 1)])
    if math.isinf(values[lo]):
        lo = best_s
    if math.isinf(values[hi]):
        hi = best_s
    # Golden section: each step keeps one interior point and its value.
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    if hi - lo > GOLDEN_TOL:
        m1 = hi - inv_phi * (hi - lo)
        m2 = lo + inv_phi * (hi - lo)
        v1, v2 = theta_of(m1), theta_of(m2)
    while hi - lo > GOLDEN_TOL:
        if v1 <= v2:
            hi, m2, v2 = m2, m1, v1
            m1 = hi - inv_phi * (hi - lo)
            v1 = theta_of(m1)
        else:
            lo, m1, v1 = m1, m2, v2
            m2 = lo + inv_phi * (hi - lo)
            v2 = theta_of(m2)
    return best_gauge, _report(best_val, best_gauge.label)
