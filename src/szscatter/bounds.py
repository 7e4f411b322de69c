"""Rigorous transmission/reflection bounds and gauge-family optimization.

The nonnegative field

    theta(x) = sqrt(rho1^2 + rho2^2) / (2 |phi'|),

built from one call of the gauges.rho_pair fields and equal to |M12| of
the evolution generator, depends on phi' and chi but not on phi or
Delta.  Its line integral J over the truncated domain bounds the
asymptotic coefficients (|alpha| <= cosh J, |beta| <= sinh J) and hence
T >= sech^2 J, R <= tanh^2 J, for every real admissible gauge.
Minimizing J over a gauge family tightens the bound.

J is integrated by _panels.integrals, the panel integral the gauge
antiderivatives also use: Clenshaw-Curtis sums on Chebyshev panels split
at theta's breakpoints, starting a sixteenth of the window wide
(THETA_START_PANELS), bisected until each panel's trailing-coefficient
estimate meets its share of the tolerance.  Gauges that differ only in
Delta share one J, which _report turns into each one's bounds.  The
optimizer scans the family, whose members blend the constant gauge with
one wkb gauge, then refines the best member by golden section, keeping
the gauge and J of the best member evaluated.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._panels import integrals
from .errors import (BoundViolation, ComplexGaugeRejected, EmptyFamily,
                     GaugeDegenerate, NonConvergence, TurningPoint)
from .gauges import GaugeTriple, gauge_constant, gauge_wkb, rho_pair
from .potentials import (DomainGrid, EnergySpec, PotentialProfile,
                         scalarize, truncate_domain, wavenumber_field,
                         window_edges)

# theta starts on panels no wider than the window over this.  A bisection
# level costs far more than a panel: with 4, 8, 16 and 32, the 58 theta
# integrals of optimize_gauge over gaussian(1, 1) at E = 2 took 179, 124,
# 90 and 61 levels, 716, 728, 1,056 and 1,868 panels and about 18, 14, 10.5
# and 8.5 ms (one CPU of a 2-vCPU Xeon host), and the 24 of a seed-1
# perfbench verify_sweep pass 31, 26, 24 and 24 levels, in no resolvably
# different time.
THETA_START_PANELS = 16
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
        ppr, r1, r2 = r.fields(xv)
        return np.sqrt(r1 * r1 + r2 * r2) / (2.0 * np.abs(ppr))

    return ThetaField(theta=scalarize(raw), gauge_id=g.label,
                      breakpoints=r.breakpoints)


def theta_integral(t: ThetaField, grid: DomainGrid, tol: float) -> float:
    """Integral of theta over the truncated domain on Chebyshev panels.

    _panels.integrals cuts the window at theta's breakpoints into panels
    no wider than the window over THETA_START_PANELS, and refines them to
    tol.  J is the sum of the panels' Clenshaw-Curtis sums h S[-1] theta.
    Raises NonConvergence when theta is not finite, when the panels run
    out, or when the summed error estimate exceeds tol.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    _, _, err, parts = integrals(
        t.theta, window_edges(grid.x_min, grid.x_max, t.breakpoints), tol,
        grid.span / THETA_START_PANELS)
    err_total = float(np.sum(err))
    if err_total > tol:
        raise NonConvergence(
            f"theta quadrature error estimate {err_total:g} exceeds "
            f"tol={tol:g}")
    return float(np.sum(parts[:, -1]))


def _report(theta: float, gauge_id: str) -> BoundReport:
    """The four bounds that follow from a theta integral.  Where cosh
    overflows (theta above about 710) only T >= 0 and R <= 1 remain."""
    try:
        ch = math.cosh(theta)
    except OverflowError:
        return BoundReport(theta_integral=theta, alpha_bound=math.inf,
                           beta_bound=math.inf, t_lower=0.0, r_upper=1.0,
                           gauge_id=gauge_id)
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
    """One-parameter family of candidate gauges for bound tightening:
    builder(s) gives the member at s in [0, 1]."""

    name: str
    builder: object = field(repr=False)


def phi_prime_family(p: PotentialProfile, e: EnergySpec,
                     grid: DomainGrid = None) -> GaugeFamily:
    """Family phi'(x) = (1-s) k_left + s k(x), chi = Delta = 0.

    The s = 0 baseline is the constant gauge.  A member with s > 0 is
    the blend (1-s) constant + s wkb of phi, phi' and phi'' on the
    family's one wkb gauge, and like it needs k^2 > 0 on the grid.
    """
    w = wavenumber_field(p, e)
    if grid is None:
        grid = truncate_domain(p, e)
    k_ref = w.k_left
    try:
        wkb = gauge_wkb(w, grid)
    except TurningPoint as exc:
        wkb = exc

    def build(s):
        if not 0.0 <= s <= 1.0:
            raise ValueError("s must lie in [0, 1]")
        if s == 0.0:
            return gauge_constant(k_ref)
        if isinstance(wkb, TurningPoint):
            raise wkb.with_traceback(None)
        return replace(
            wkb,
            phi=scalarize(lambda xv: (1.0 - s) * k_ref * xv + s * wkb.phi(xv)),
            phi_prime=scalarize(
                lambda xv: (1.0 - s) * k_ref + s * wkb.phi_prime(xv)),
            phi_double_prime=scalarize(
                lambda xv: s * wkb.phi_double_prime(xv)),
            label=f"family(s={s:.6g})",
            phi_prime_scale=(1.0 - s) * k_ref + s * wkb.phi_prime_scale,
        )

    return GaugeFamily(name="phi_prime_interpolation", builder=build)


def optimize_gauge(p: PotentialProfile, e: EnergySpec, family: GaugeFamily,
                   tol: float, grid: DomainGrid = None) -> tuple:
    """Minimize the theta integral over a scalar gauge family.

    Coarse scan (SCAN_POINTS values of s over [0, 1], the s = 0 baseline
    included) followed by golden-section refinement; deterministic
    tie-break on the smallest s.  Returns (best gauge, its BoundReport).
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

    scan = np.linspace(0.0, 1.0, SCAN_POINTS)
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
