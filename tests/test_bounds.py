"""Theta field, the four bounds, verification, and gauge optimization."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from szscatter import _panels, bounds, sz_core
from szscatter.bounds import (BoundReport, bound_report, optimize_gauge,
                              phi_prime_family, theta_field, theta_integral,
                              verify_bounds, GaugeFamily, ThetaField)
from szscatter.errors import (BoundViolation, ComplexGaugeRejected,
                              EmptyFamily, GaugeDegenerate, NonConvergence,
                              TurningPoint)
from szscatter.gauges import (GaugeTriple, constant_field, gauge_antiphase,
                              gauge_constant, gauge_special_delta, gauge_wkb)
from szscatter.oracle import (OracleResult, analytic_square_barrier,
                              direct_integrate)
from szscatter.potentials import (EnergySpec, gaussian, poschl_teller,
                                  square_barrier, tabulated, truncate_domain,
                                  wavenumber_field, window_edges)

SQRT2 = math.sqrt(2.0)

# Hand integrals for the square barrier (V0 = 1, L = 1) and the Gaussian
# (V0 = 1, sigma = 1) under the constant gauge:
#   barrier, E = 2:   integrand 1/(2 sqrt(2)) over width 1
#   gaussian, E = 2:  (1/(2 sqrt(2))) * integral of V = sqrt(2 pi)/(2 sqrt(2))
THETA_BARRIER_E2 = 0.35355339059327373
THETA_GAUSS_E2 = 0.8862269254527580


def _setup(p, energy):
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    return e, grid, w


def test_theta_constant_gauge_pointwise():
    p = square_barrier(1.0, 1.0)
    _, _, w = _setup(p, 2.0)
    t = theta_field(gauge_constant(SQRT2), w)
    assert t.theta(0.0) == pytest.approx(1.0 / (2.0 * SQRT2), abs=1e-14)
    assert t.theta(2.0) == pytest.approx(0.0, abs=1e-14)


def test_theta_wkb_is_log_derivative():
    p = gaussian(1.0, 1.0)
    _, grid, w = _setup(p, 2.0)
    g = gauge_wkb(w, grid)
    t = theta_field(g, w)
    for x in (-1.0, 0.5, 2.0):
        expected = abs(float(w.k_prime(x))) / (2.0 * float(w.k(x)))
        assert t.theta(x) == pytest.approx(expected, abs=1e-10)


def test_theta_zero_for_free_potential():
    p = square_barrier(0.0, 1.0)
    _, grid, w = _setup(p, 2.0)
    t = theta_field(gauge_constant(SQRT2), w)
    xs = np.linspace(grid.x_min, grid.x_max, 9)
    np.testing.assert_allclose(np.asarray(t.theta(xs)), 0.0, atol=1e-15)
    assert theta_integral(t, grid, 1e-10) == pytest.approx(0.0, abs=1e-14)


def _theta_or_jump(case, name):
    """The case's theta field in gauge `name`, or None where the suite
    expects phi' to jump, in which case theta_field must raise."""
    if case.phi_prime_jumps(name):
        with pytest.raises(GaugeDegenerate):
            theta_field(case.gauges[name], case.w)
        return None
    return theta_field(case.gauges[name], case.w)


def test_theta_nonnegative(suite):
    for case in suite:
        for name in case.gauges:
            t = _theta_or_jump(case, name)
            if t is None:
                continue
            xs = np.linspace(case.grid.x_min, case.grid.x_max, 101)
            assert np.min(np.asarray(t.theta(xs))) >= 0.0, (case.name, name)


def test_theta_is_generator_offdiagonal_modulus(suite):
    # The bound rests on theta = |M12| of the evolution generator; theta
    # is built from the rho pair without the phase factor, whose modulus
    # is 1 only up to rounding.  Sampled off the breakpoints, where a
    # jump would be taken from an arbitrary side.
    checked = 0
    for case in suite:
        for name, g in case.gauges.items():
            t = _theta_or_jump(case, name)
            if t is None:
                continue
            xs = np.linspace(case.grid.x_min, case.grid.x_max, 201)
            for b in t.breakpoints:
                xs = xs[np.abs(xs - b) > 1e-9]
            theta = np.asarray(t.theta(xs))
            _, g12, _ = sz_core._generator(g, case.rho(name), xs)
            np.testing.assert_allclose(theta, np.abs(g12), rtol=2e-15,
                                       atol=0.0, err_msg=f"{case.name} {name}")
            checked += 1
    assert checked >= 3 * len(suite)


def test_theta_integral_hand_values():
    p = square_barrier(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    t = theta_field(gauge_constant(SQRT2), w)
    assert theta_integral(t, grid, 1e-10) == pytest.approx(
        THETA_BARRIER_E2, abs=1e-12)
    pg = gaussian(1.0, 1.0)
    eg, gridg, wg = _setup(pg, 2.0)
    tg = theta_field(gauge_constant(SQRT2), wg)
    # The truncated tail removes ~1e-11 of mass relative to the full line.
    assert theta_integral(tg, gridg, 1e-10) == pytest.approx(
        THETA_GAUSS_E2, abs=1e-8)


def test_theta_rejects_complex_gauge():
    p = square_barrier(1.0, 1.0)
    _, grid, w = _setup(p, 2.0)
    g = GaugeTriple(
        phi=constant_field(0.0), phi_prime=constant_field(1.0 + 0.1j),
        phi_double_prime=constant_field(0.0), delta=constant_field(0.0),
        delta_prime=constant_field(0.0), chi=constant_field(0.0),
        chi_prime=constant_field(0.0))
    with pytest.raises(ComplexGaugeRejected):
        theta_integral(theta_field(g, w), grid, 1e-10)


def test_bound_report_rejects_complex_chi_set_through_replace():
    # A complex chi makes rho1 = 2 chi phi' complex; the gauge is judged
    # by its samples, so replacing chi in a real preset cannot leave a
    # stale "real" mark behind (which gave t_lower = 1 against T = 0.98).
    p = gaussian(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    g = replace(gauge_constant(w.k_left), chi=constant_field(0.5j))
    with pytest.raises(ComplexGaugeRejected):
        bound_report(p, e, g, 1e-10, grid)


def test_complex_typed_real_samples_count_as_real():
    p = gaussian(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    base = gauge_constant(w.k_left)
    g = replace(base, chi=lambda x: np.zeros(np.shape(x), dtype=complex))
    assert bound_report(p, e, g, 1e-10, grid) == replace(
        bound_report(p, e, base, 1e-10, grid), gauge_id=g.label)


def test_theta_rejects_discontinuous_phi_prime():
    p = square_barrier(1.0, 1.0)
    _, grid, w = _setup(p, 2.0)
    g = gauge_wkb(w, grid)  # phi' jumps at the barrier edges
    with pytest.raises(GaugeDegenerate):
        theta_field(g, w)


def test_theta_rejects_phi_prime_jump_set_through_replace():
    # phi' = k_left for x < 0 and 2 k_left past it, at a breakpoint the
    # gauge declares: the jump is read off phi' on either side of it.
    p = gaussian(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    k = w.k_left
    g = replace(gauge_constant(k),
                phi=lambda x: k * np.where(np.asarray(x) < 0.0, x, 2.0 * x),
                phi_prime=lambda x: np.where(np.asarray(x) < 0.0, k, 2.0 * k),
                breakpoints=(0.0,))
    with pytest.raises(GaugeDegenerate):
        theta_field(g, w)
    # A phi' that is smooth across the same breakpoint passes.
    smooth = replace(gauge_constant(k), breakpoints=(0.0,))
    assert theta_integral(theta_field(smooth, w), grid, 1e-10) > 0.0


def test_delta_invariance_bitwise():
    # Two gauges differing only in Delta sample bit-identical theta.
    p = square_barrier(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    base = gauge_constant(SQRT2)
    variants = (gauge_antiphase(base), gauge_special_delta(base, w, grid))
    xs = np.linspace(grid.x_min, grid.x_max, 257)
    ref = np.asarray(theta_field(base, w).theta(xs))
    for g in variants:
        got = np.asarray(theta_field(g, w).theta(xs))
        assert np.array_equal(ref, got)


def test_bound_report_identities():
    p = square_barrier(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    rep = bound_report(p, e, gauge_constant(SQRT2), 1e-10, grid=grid)
    j = rep.theta_integral
    assert j == pytest.approx(THETA_BARRIER_E2, abs=1e-12)
    assert rep.alpha_bound == pytest.approx(math.cosh(j), abs=1e-15)
    assert rep.beta_bound == pytest.approx(math.sinh(j), abs=1e-15)
    assert rep.t_lower == pytest.approx(1.0 / math.cosh(j) ** 2, abs=1e-15)
    assert rep.r_upper == pytest.approx(math.tanh(j) ** 2, abs=1e-15)
    assert rep.t_lower + rep.r_upper == pytest.approx(1.0, abs=1e-15)
    assert rep.alpha_bound**2 - rep.beta_bound**2 == pytest.approx(1.0, abs=1e-12)


def test_bound_trivial_when_theta_zero():
    p = square_barrier(0.0, 1.0)
    e, grid, _ = _setup(p, 1.0)
    rep = bound_report(p, e, gauge_constant(1.0), 1e-10, grid=grid)
    assert rep.theta_integral == pytest.approx(0.0, abs=1e-13)
    assert rep.t_lower == pytest.approx(1.0, abs=1e-13)
    assert rep.r_upper == pytest.approx(0.0, abs=1e-13)


def test_bound_report_past_cosh_overflow():
    # theta = 5000 on a tall barrier: cosh overflows, so the report keeps
    # only T >= 0 and R <= 1, and the oracle's T ~ 2.2e-90 still passes.
    p = square_barrier(1e4, 1.0)
    e = EnergySpec(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bound_report(p, e, gauge_constant(1.0), 1e-10)
        exact = direct_integrate(p, e, truncate_domain(p, e), 1e-12)
    assert rep.theta_integral == pytest.approx(5000.0, rel=1e-12)
    assert rep.alpha_bound == math.inf and rep.beta_bound == math.inf
    assert rep.t_lower == 0.0 and rep.r_upper == 1.0
    assert 0.0 < exact.transmission < 1e-80
    assert verify_bounds(rep, exact).margin_t == exact.transmission


def test_verify_bounds_margin():
    p = square_barrier(1.0, 1.0)
    e, grid, _ = _setup(p, 2.0)
    rep = bound_report(p, e, gauge_constant(SQRT2), 1e-10, grid=grid)
    exact = analytic_square_barrier(1.0, 1.0, e)
    rec = verify_bounds(rep, exact)
    assert rec.margin_t == pytest.approx(
        exact.transmission - rep.t_lower, abs=1e-15)
    assert rec.margin_t > 0.03
    assert rec.margin_r > 0.03


def test_verify_bounds_saturated_margin_zero():
    # At E = V0/2 the constant-gauge bound is exactly saturated.
    p = square_barrier(1.0, 1.0)
    e, grid, _ = _setup(p, 0.5)
    rep = bound_report(p, e, gauge_constant(math.sqrt(0.5)), 1e-10, grid=grid)
    exact = analytic_square_barrier(1.0, 1.0, e)
    rec = verify_bounds(rep, exact)
    assert abs(rec.margin_t) < 1e-12


def test_verify_bounds_violation():
    fake = BoundReport(theta_integral=0.1, alpha_bound=math.cosh(0.1),
                       beta_bound=math.sinh(0.1), t_lower=0.99,
                       r_upper=0.01, gauge_id="synthetic")
    exact = OracleResult(0.9187, 0.0813, (), "direct_integration")
    with pytest.raises(BoundViolation):
        verify_bounds(fake, exact)
    # T clears its bound and R alone exceeds r_upper.
    with pytest.raises(BoundViolation, match="R_exact"):
        verify_bounds(replace(fake, t_lower=0.5), exact)


def test_theta_integral_rejects_non_positive_tol():
    p = gaussian(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    t = theta_field(gauge_constant(w.k_left), w)
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tol"):
            theta_integral(t, grid, tol)


def test_family_rejects_s_outside_unit_interval():
    p = gaussian(1.0, 1.0)
    e, grid, _ = _setup(p, 2.0)
    with pytest.raises(ValueError, match="s must lie"):
        phi_prime_family(p, e, grid).builder(1.5)


def test_optimizer_improves_on_baseline():
    p = gaussian(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    family = phi_prime_family(p, e, grid)
    gauge, rep = optimize_gauge(p, e, family, 1e-10, grid=grid)
    base = theta_integral(theta_field(family.builder(0.0), w), grid, 1e-10)
    assert rep.theta_integral <= base + 1e-12
    # Above a smooth bump the blended slope beats the constant gauge.
    assert rep.theta_integral < base - 1e-3
    exact = direct_integrate(p, e, grid, 1e-12)
    verify_bounds(rep, exact)


def test_optimizer_free_potential_returns_zero():
    p = square_barrier(0.0, 1.0)
    e, grid, _ = _setup(p, 2.0)
    family = phi_prime_family(p, e, grid)
    gauge, rep = optimize_gauge(p, e, family, 1e-10, grid=grid)
    assert rep.theta_integral == pytest.approx(0.0, abs=1e-13)
    assert gauge.label == "constant(k=1.41421)"  # smallest s wins ties


def test_optimizer_tunneling_falls_back_to_baseline():
    # Members with s > 0 need k^2 > 0; under the barrier only s = 0 works.
    p = square_barrier(1.0, 1.0)
    e, grid, w = _setup(p, 0.5)
    family = phi_prime_family(p, e, grid)
    gauge, rep = optimize_gauge(p, e, family, 1e-10, grid=grid)
    base = theta_integral(theta_field(family.builder(0.0), w), grid, 1e-10)
    assert rep.theta_integral == pytest.approx(base, abs=1e-12)
    exact = analytic_square_barrier(1.0, 1.0, e)
    verify_bounds(rep, exact)


def test_theta_integral_nonconvergence_on_degenerate_slope():
    # theta is integrable here: the monotone cubic through the 81-knot
    # table of x^3 has phi'(0) = 6.25e-4 and min |phi'| ~ 4.7e-4.  The
    # integral fails only because phi'' jumps at the 81 knots, which the
    # gauge does not declare as breakpoints, so bisection toward them
    # goes below the nudge width.  With the knots passed as breakpoints
    # the panels converge to J = 59.29854030853.
    from szscatter.errors import NonConvergence
    from szscatter.gauges import gauge_from_tables
    from szscatter.potentials import DomainGrid

    xs = np.linspace(-1.0, 1.0, 81)
    g = gauge_from_tables((xs, xs**3))
    p = square_barrier(0.0, 1.0)
    w = wavenumber_field(p, EnergySpec(1.0))
    t = theta_field(g, w)
    grid = DomainGrid(-1.0, 1.0, max_step=0.01)
    with pytest.raises(NonConvergence, match="cannot resolve"):
        theta_integral(t, grid, 1e-10)


def test_theta_integral_nonconvergence_on_vanishing_slope():
    # The monotone cubic through x^2 has phi'(0) = 0 exactly, and the
    # first bisection puts a panel end there: theta is infinite.
    from szscatter.gauges import gauge_from_tables
    from szscatter.potentials import DomainGrid

    xs = np.linspace(-1.0, 1.0, 81)
    g = gauge_from_tables((xs, xs**2))
    assert g.phi_prime(0.0) == 0.0
    w = wavenumber_field(square_barrier(0.0, 1.0), EnergySpec(1.0))
    t = theta_field(g, w)
    grid = DomainGrid(-1.0, 1.0, max_step=0.01)
    with pytest.raises(NonConvergence, match="not finite"):
        theta_integral(t, grid, 1e-10)


def test_optimizer_empty_family():
    def always_fails(s):
        raise TurningPoint("no admissible member")

    family = GaugeFamily(name="empty", builder=always_fails)
    p = square_barrier(1.0, 1.0)
    e, grid, _ = _setup(p, 2.0)
    with pytest.raises(EmptyFamily):
        optimize_gauge(p, e, family, 1e-10, grid=grid)


def _piecewise_quad(t, edges):
    """Reference theta integral: scipy's adaptive quad on each smooth
    piece, with any quad warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        return sum(quad(t.theta, a, b, epsabs=1e-14, epsrel=1e-13,
                        limit=200)[0]
                   for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("energy", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("build", [lambda: gaussian(1.0, 1.0),
                                   lambda: poschl_teller(2),
                                   lambda: square_barrier(1.0, 1.0),
                                   lambda: gaussian(5.0, 0.05)],
                         ids=["gauss", "pt2", "barrier", "narrow_gauss"])
def test_theta_integral_matches_piecewise_quad(build, energy):
    p = build()
    e, grid, w = _setup(p, energy)
    base = gauge_constant(w.k_left)
    gauges = [base, gauge_special_delta(base, w, grid)]
    try:
        gauges.append(gauge_wkb(w, grid))
    except TurningPoint:  # k^2 < 0 somewhere: no wkb gauge
        pass
    checked = 0
    for g in gauges:
        if p.kind == "square_barrier" and g.label == "wkb":
            # k, and so the wkb phi', jumps at the barrier's edges.
            with pytest.raises(GaugeDegenerate):
                theta_field(g, w)
            continue
        t = theta_field(g, w)
        edges = window_edges(grid.x_min, grid.x_max, t.breakpoints)
        assert abs(theta_integral(t, grid, 1e-10)
                   - _piecewise_quad(t, edges)) <= 1e-12, g.label
        checked += 1
    assert checked >= 2


def _odd_bump_table():
    xs = np.linspace(-6.0, 6.0, 41)
    p = tabulated(xs, 0.8 * xs * np.exp(-xs**2))
    _, grid, w = _setup(p, 2.0)
    return xs, grid, w


def test_theta_integral_on_table_constant_gauge():
    # Adaptive quad over the whole window raised NonConvergence here at
    # tol 1e-10.  theta is smooth on each knot interval, so quad on each
    # interval gives the reference.
    xs, grid, w = _odd_bump_table()
    t = theta_field(gauge_constant(w.k_left), w)
    reference = _piecewise_quad(t, [grid.x_min, *xs, grid.x_max])
    assert abs(theta_integral(t, grid, 1e-10) - reference) <= 1e-10


def test_theta_integral_on_table_wkb_gauge():
    # Adaptive quad over the whole window raised NonConvergence here at
    # tol 1e-8 and 1e-10.
    _, grid, w = _odd_bump_table()
    t = theta_field(gauge_wkb(w, grid), w)
    assert abs(theta_integral(t, grid, 1e-8)
               - theta_integral(t, grid, 1e-10)) <= 1e-8


def test_theta_never_sampled_on_a_breakpoint():
    # theta jumps at the barrier edges; the panel ends there are sampled
    # from inside their own panel.
    p = square_barrier(1.0, 1.0)
    _, grid, w = _setup(p, 2.0)
    t = theta_field(gauge_constant(SQRT2), w)
    seen = []

    def recording(x):
        seen.append(np.array(x, dtype=float))
        return t.theta(x)

    spy = ThetaField(theta=recording, gauge_id=t.gauge_id,
                     breakpoints=t.breakpoints)
    assert theta_integral(spy, grid, 1e-10) == pytest.approx(
        THETA_BARRIER_E2, abs=1e-12)
    xs = np.concatenate(seen)
    assert not np.isin(t.breakpoints, xs).any()


def test_theta_integral_raises_when_panels_run_out(monkeypatch):
    p = gaussian(1.0, 1.0)
    _, grid, w = _setup(p, 2.0)
    t = theta_field(gauge_constant(SQRT2), w)
    theta_integral(t, grid, 1e-10)
    monkeypatch.setattr(_panels, "MAX_PANELS", 2)
    with pytest.raises(NonConvergence):
        theta_integral(t, grid, 1e-10)


def test_golden_section_reuses_one_interior_point(monkeypatch):
    # 33 scan members, then one new member per golden-section step (two
    # for the first); the winner's theta is not computed again.
    p = gaussian(1.0, 1.0)
    e, grid, w = _setup(p, 2.0)
    family = phi_prime_family(p, e, grid)
    calls = []

    def counting(t, grid, tol):
        calls.append(t.gauge_id)
        return theta_integral(t, grid, tol)

    monkeypatch.setattr(bounds, "theta_integral", counting)
    gauge, rep = optimize_gauge(p, e, family, 1e-10, grid=grid)
    monkeypatch.undo()
    assert len(calls) <= 58
    assert rep.theta_integral == theta_integral(theta_field(gauge, w), grid,
                                                1e-10)


@pytest.mark.parametrize("build,energy,n_antiderivatives", [
    (lambda: gaussian(1.0, 1.0), 2.0, 1),
    (lambda: square_barrier(1.0, 1.0), 0.5, 0)], ids=["gauss", "barrier"])
def test_family_builds_one_wkb_gauge(monkeypatch, build, energy,
                                     n_antiderivatives):
    # phi' is linear in s, so every member with s > 0 is a blend of the
    # constant gauge and one wkb gauge, built once per family: its
    # antiderivative phi = int k is the only one the optimizer computes.
    # Under the barrier the wkb gauge raises TurningPoint, once.
    from szscatter import gauges

    built, integrated = [], []
    real_wkb, real_antiderivative = gauges.gauge_wkb, gauges.antiderivative
    monkeypatch.setattr(bounds, "gauge_wkb",
                        lambda *a: built.append(a) or real_wkb(*a))
    monkeypatch.setattr(gauges, "antiderivative",
                        lambda *a: integrated.append(a)
                        or real_antiderivative(*a))
    p = build()
    e, grid, _ = _setup(p, energy)
    optimize_gauge(p, e, phi_prime_family(p, e, grid), 1e-10, grid=grid)
    assert len(built) == 1
    assert len(integrated) == n_antiderivatives


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("build", [lambda: gaussian(1.0, 1.0),
                                   lambda: poschl_teller(2)],
                         ids=["gauss", "pt2"])
def test_blended_member_phase_and_transmission(build, s):
    # A member's phi = (1-s) k_left x + s int k is an antiderivative of
    # its phi', and its ordered product gives the oracle's T.
    p = build()
    e, grid, w = _setup(p, 2.0)
    g = phi_prime_family(p, e, grid).builder(s)
    xs = np.linspace(grid.x_min, grid.x_max, 41)
    ref = [quad(g.phi_prime, grid.x_min, x, epsabs=1e-14, epsrel=1e-13,
                limit=200)[0] for x in xs]
    np.testing.assert_allclose(np.asarray(g.phi(xs)) - g.phi(grid.x_min),
                               ref, rtol=0.0, atol=1e-11)
    amp = sz_core.scattering_amplitudes(p, e, g, 1e-12, grid=grid)
    exact = direct_integrate(p, e, grid, 1e-12)
    assert abs(amp.transmission - exact.transmission) < 1e-9
