"""Gauge presets, derived rho fields, and structural identities."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from szscatter import sz_core
from szscatter.bounds import phi_prime_family
from szscatter.errors import TurningPoint
from szscatter.gauges import (constant_field, gauge_antiphase, gauge_constant,
                              gauge_from_tables, gauge_special_delta,
                              gauge_wkb, rho_pair, with_constant_chi,
                              with_tabulated_chi)
from szscatter.oracle import direct_integrate
from szscatter.potentials import (EnergySpec, gaussian, poschl_teller,
                                  square_barrier, tabulated, truncate_domain,
                                  wavenumber_field, window_edges)
from szscatter.sz_core import rhs_matrix, scattering_amplitudes

SQRT2 = math.sqrt(2.0)


def _barrier_setup(energy):
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(energy)
    return p, e, truncate_domain(p, e), wavenumber_field(p, e)


def test_constant_gauge_values():
    g = gauge_constant(SQRT2)
    assert g.phi(1.0) == pytest.approx(SQRT2)
    assert g.phi_prime(5.0) == pytest.approx(SQRT2)
    assert g.phi_double_prime(0.3) == 0.0
    assert g.delta(2.0) == 0.0 and g.chi(2.0) == 0.0
    assert g.is_real


def test_constant_gauge_rho_free():
    p = square_barrier(0.0, 1.0)
    w = wavenumber_field(p, EnergySpec(1.0))
    r = rho_pair(gauge_constant(1.0), w)
    for x in (-2.0, 0.0, 3.0):
        assert r.fields(x)[1] == 0.0
        assert r.fields(x)[2] == pytest.approx(0.0, abs=1e-15)


def test_constant_gauge_rho_barrier():
    _, _, _, w = _barrier_setup(2.0)
    r = rho_pair(gauge_constant(SQRT2), w)
    assert r.fields(0.0)[2] == pytest.approx(-1.0, abs=1e-14)
    assert r.fields(2.0)[2] == pytest.approx(0.0, abs=1e-14)


@given(st.floats(0.2, 3.0), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0),
       st.floats(0.3, 10.0))
@settings(max_examples=60, deadline=None)
def test_rho_with_constant_chi(k_ref, chi, x, energy):
    # chi(x) = c, phi' = k_ref: rho1 = 2 c k_ref, rho2 = k^2 + c^2 - k_ref^2.
    p = square_barrier(1.0, 1.0)
    w = wavenumber_field(p, EnergySpec(energy))
    g = with_constant_chi(gauge_constant(k_ref), chi)
    r = rho_pair(g, w)
    assert r.fields(x)[1] == pytest.approx(2.0 * chi * k_ref, abs=1e-13)
    expected = w.k_squared(x) + chi**2 - k_ref**2
    assert r.fields(x)[2] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("maker", ["constant", "wkb", "special_delta",
                                   "antiphase"])
def test_derivative_consistency(maker):
    # Central differences at h = 1e-4 reproduce the stored derivatives
    # to 1e-6 for every preset gauge.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    base = gauge_constant(w.k_left)
    g = {"constant": base,
         "wkb": lambda: gauge_wkb(w, grid),
         "special_delta": lambda: gauge_special_delta(base, w, grid),
         "antiphase": lambda: gauge_antiphase(gauge_wkb(w, grid))}[maker]
    if callable(g):
        g = g()
    h = 1e-4
    xs = np.linspace(grid.x_min + 1.0, grid.x_max - 1.0, 17)
    for fn, dfn in ((g.phi, g.phi_prime), (g.phi_prime, g.phi_double_prime),
                    (g.delta, g.delta_prime), (g.chi, g.chi_prime)):
        fd = (np.asarray(fn(xs + h)) - np.asarray(fn(xs - h))) / (2 * h)
        np.testing.assert_allclose(fd, np.asarray(dfn(xs)), atol=1e-6)


def test_wkb_free_matches_constant():
    p = square_barrier(0.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_wkb(w, grid)
    xs = np.linspace(grid.x_min, grid.x_max, 9)
    np.testing.assert_allclose(np.asarray(g.phi_prime(xs)), SQRT2, atol=1e-14)
    # phi accumulates from the left edge
    assert g.phi(grid.x_min) == pytest.approx(0.0, abs=1e-14)


def test_wkb_rho_vanishes_where_smooth():
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_wkb(w, grid)
    r = rho_pair(g, w)
    xs = np.linspace(-3.0, 3.0, 11)
    np.testing.assert_allclose(np.asarray(r.fields(xs)[2]), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.asarray(r.fields(xs)[1]),
                               np.asarray(w.k_prime(xs)), atol=1e-12)


def test_wkb_turning_point():
    _, _, grid, w = _barrier_setup(0.5)
    with pytest.raises(TurningPoint):
        gauge_wkb(w, grid)


def test_wkb_barrier_flags_phi_prime_jump():
    _, _, grid, w = _barrier_setup(2.0)
    g = gauge_wkb(w, grid)
    assert g.phi_prime_jumps


def test_special_delta_identity():
    # The constructed Delta' satisfies 2 phi' Delta' - rho2 = 0 pointwise.
    p, e, grid, w = _barrier_setup(2.0)
    base = gauge_constant(w.k_left)
    g = gauge_special_delta(base, w, grid)
    r = rho_pair(g, w)
    for x in np.linspace(grid.x_min, grid.x_max, 23):
        lhs = 2.0 * g.phi_prime(x) * g.delta_prime(x) - r.fields(x)[2]
        assert abs(lhs) < 1e-13


def test_special_delta_free_gives_zero_delta():
    p = square_barrier(0.0, 1.0)
    e = EnergySpec(1.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_special_delta(gauge_constant(1.0), w, grid)
    xs = np.linspace(grid.x_min, grid.x_max, 9)
    np.testing.assert_allclose(np.asarray(g.delta(xs)), 0.0, atol=1e-13)


def test_special_delta_slope_inside_barrier():
    p, e, grid, w = _barrier_setup(2.0)
    g = gauge_special_delta(gauge_constant(SQRT2), w, grid)
    assert g.delta_prime(0.0) == pytest.approx(-1.0 / (2.0 * SQRT2), abs=1e-13)
    assert g.delta_prime(grid.x_max) == pytest.approx(0.0, abs=1e-13)


def test_special_delta_zero_diagonal():
    p, e, grid, w = _barrier_setup(2.0)
    g = gauge_special_delta(gauge_constant(SQRT2), w, grid)
    r = rho_pair(g, w)
    for x in np.linspace(grid.x_min, grid.x_max, 17):
        m = rhs_matrix(g, r, float(x))
        assert m[0, 0] == 0.0 + 0.0j
        assert m[1, 1] == 0.0 + 0.0j


def test_special_delta_keeps_complex_chi():
    # With a complex chi, Delta' = rho2 / (2 phi') is complex and so is its
    # antiderivative Delta: Delta(0) matches quad of both parts, and T
    # matches the base gauge's, with no warning (a dropped imaginary part
    # once gave T = 0.17 against 0.98).
    from szscatter.sz_core import scattering_amplitudes

    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = with_constant_chi(gauge_constant(w.k_left), 0.3 + 0.3j)
        g = gauge_special_delta(base, w, grid)
        parts = [quad(lambda x, f=f: f(g.delta_prime(x)), grid.x_min, 0.0,
                      epsabs=1e-14, epsrel=1e-14, limit=200)[0]
                 for f in (np.real, np.imag)]
        ref = scattering_amplitudes(p, e, base, 1e-10, grid=grid)
        got = scattering_amplitudes(p, e, g, 1e-10, grid=grid)
    assert isinstance(g.delta(0.0), complex)
    assert abs(g.delta(0.0) - complex(*parts)) < 1e-13
    assert abs(got.transmission - ref.transmission) < 1e-9
    assert abs(got.reflection - ref.reflection) < 1e-9


def test_special_delta_replaces_the_base_delta():
    # Delta' = rho2 / (2 phi') does not read the base's Delta, so a base
    # with Delta = -phi gives the gauge a base with Delta = 0 gives.
    p, e, grid, w = _barrier_setup(2.0)
    base = gauge_constant(SQRT2)
    ref = gauge_special_delta(base, w, grid)
    got = gauge_special_delta(gauge_antiphase(base), w, grid)
    xs = np.linspace(grid.x_min, grid.x_max, 257)
    assert np.array_equal(got.delta_prime(xs), ref.delta_prime(xs))
    t_ref, t_got = (scattering_amplitudes(p, e, g, 1e-12,
                                          grid=grid).transmission
                    for g in (ref, got))
    assert abs(t_got - t_ref) < 1e-12


def test_antiphase_cancels_phase_exactly():
    g = gauge_antiphase(gauge_constant(SQRT2))
    for x in (-3.0, 0.0, 1.7, 12.0):
        assert g.phi(x) + g.delta(x) == 0.0


def test_panel_systems_follow_the_generator(monkeypatch):
    # The product picks each batch's panel system from the generator's own
    # samples, so no derived gauge can inherit a zero diagonal it lost:
    # special_delta with its chi replaced once gave a T 3.2e-3 off the
    # oracle.  wkb's rho2 = k^2 - phi'^2 is a rounding residue, but not in
    # the family's blends with s < 1, nor once chi is set.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    ran = set()
    for name in ("_zero_diagonal", "_rank_one", "_full_system"):
        real = getattr(sz_core, name)
        monkeypatch.setattr(sz_core, name, lambda *args, name=name, real=real:
                            ran.add(name) or real(*args))
    exact = direct_integrate(p, e, grid, 1e-12).transmission

    def systems(g):
        ran.clear()
        t = scattering_amplitudes(p, e, g, 1e-12, grid=grid).transmission
        assert abs(t - exact) < 1e-9, g.label
        return set(ran)

    constant = gauge_constant(w.k_left)
    special = gauge_special_delta(constant, w, grid)
    wkb = gauge_wkb(w, grid)
    build = phi_prime_family(p, e, grid).builder
    assert systems(constant) == {"_rank_one"}
    for g in (special, wkb, build(1.0)):
        assert systems(g) == {"_zero_diagonal"}, g.label
    assert (with_constant_chi(special, 0.3).label
            == special.label + "+chi(0.3)")
    xs = np.linspace(grid.x_min, grid.x_max, 301)
    for g in (gauge_antiphase(special), with_constant_chi(special, 0.3),
              with_constant_chi(wkb, 0.3),
              with_tabulated_chi(wkb, xs, 0.2 * np.exp(-xs ** 2)),
              build(0.25), build(0.75),
              replace(special, chi=constant_field(0.3))):
        assert "_zero_diagonal" not in systems(g), g.label


def test_antiphase_free_generator():
    # V = 0, phi' = sqrt(E): diagonal +-i sqrt(E), off-diagonal 0.
    p = square_barrier(0.0, 1.0)
    e = EnergySpec(2.0)
    w = wavenumber_field(p, e)
    g = gauge_antiphase(gauge_constant(SQRT2))
    r = rho_pair(g, w)
    m = rhs_matrix(g, r, 0.3)
    assert m[0, 0] == pytest.approx(1j * SQRT2, abs=1e-13)
    assert m[1, 1] == pytest.approx(-1j * SQRT2, abs=1e-13)
    assert abs(m[0, 1]) < 1e-14 and abs(m[1, 0]) < 1e-14


def test_antiphase_offdiagonal_magnitude():
    p, e, grid, w = _barrier_setup(2.0)
    g = gauge_antiphase(gauge_constant(SQRT2))
    r = rho_pair(g, w)
    m = rhs_matrix(g, r, 0.0)
    _, rho1, rho2 = r.fields(0.0)
    expected = abs(complex(rho1, rho2)) / (2.0 * SQRT2)
    assert abs(m[0, 1]) == pytest.approx(expected, abs=1e-14)
    # no oscillatory factor: the entry is exactly (rho1 + i rho2)/(2 phi')
    assert m[0, 1] == pytest.approx(1j * rho2 / (2 * SQRT2), abs=1e-14)


def test_real_gauges_give_real_rho(suite):
    for case in suite:
        for name, g in case.gauges.items():
            assert g.is_real
            r = case.rho(name)
            xs = np.linspace(case.grid.x_min, case.grid.x_max, 7)
            assert np.all(np.isreal(np.asarray(r.fields(xs)[1])))
            assert np.all(np.isreal(np.asarray(r.fields(xs)[2])))


def test_fields_read_phi_prime_once_per_evaluation():
    # theta's integrand and the generator take phi', rho1 and rho2 from
    # one call of the fused rho fields, which reads phi' once.
    from dataclasses import replace

    from szscatter.bounds import theta_field
    from szscatter.sz_core import _generator

    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    w = wavenumber_field(p, e)
    base = gauge_constant(w.k_left)
    calls = []
    g = replace(base, phi_prime=lambda x: calls.append(x) or base.phi_prime(x))
    xs = np.linspace(-3.0, 3.0, 7)
    theta_field(g, w).theta(xs)
    assert len(calls) == 1
    calls.clear()
    _generator(g, rho_pair(g, w), xs)
    assert len(calls) == 1


def test_interpolated_family_endpoints():
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    build = phi_prime_family(p, e, grid).builder
    g0 = build(0.0)
    assert g0.phi_prime(0.0) == pytest.approx(w.k_left)
    g1 = build(1.0)
    assert g1.phi_prime(0.0) == pytest.approx(float(w.k(0.0)), abs=1e-12)
    ghalf = build(0.5)
    assert ghalf.phi_prime(0.0) == pytest.approx(
        0.5 * w.k_left + 0.5 * float(w.k(0.0)), abs=1e-12)
    # gauge_wkb is the s = 1 member, field for field and flag for flag.
    wkb = gauge_wkb(w, grid)
    xs = np.linspace(grid.x_min, grid.x_max, 257)
    for name in ("phi", "phi_prime", "phi_double_prime", "delta",
                 "delta_prime", "chi", "chi_prime"):
        assert np.array_equal(getattr(wkb, name)(xs),
                              getattr(g1, name)(xs)), name
    for name in ("is_real", "breakpoints", "phi_prime_scale",
                 "phi_prime_jumps", "grid"):
        assert getattr(wkb, name) == getattr(g1, name), name
    assert wkb.label == "wkb"
    # On the barrier every member with s > 0 inherits k's jumps.
    p_b, e_b, grid_b, _ = _barrier_setup(2.0)
    build_b = phi_prime_family(p_b, e_b, grid_b).builder
    for s, jumps in ((0.0, False), (0.5, True), (1.0, True)):
        assert build_b(s).phi_prime_jumps is jumps


RAMP_KNOTS = np.linspace(-6.0, 6.0, 41)


def _ramp():
    """The 41-knot PCHIP tanh ramp from V = 0 to V = 0.25."""
    ys = 0.25 * 0.5 * (1.0 + np.tanh(RAMP_KNOTS))
    ys[0], ys[-1] = 0.0, 0.25
    return tabulated(RAMP_KNOTS, ys, v_left=0.0, v_right=0.25)


def _quad_antiderivative(fn, pieces, xs):
    """The integral of fn from pieces[0] to each x, by quad on every
    smooth piece up to x."""
    def piece_quad(lo, hi):
        return quad(fn, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    totals = np.cumsum([0.0] + [piece_quad(lo, hi) for lo, hi
                                in zip(pieces[:-1], pieces[1:])])
    j = np.clip(np.searchsorted(pieces, xs, side="right") - 1, 0,
                len(pieces) - 2)
    return np.array([totals[i] + piece_quad(pieces[i], x)
                     for i, x in zip(j, xs)])


@pytest.mark.parametrize("build,energy", [
    (lambda: gaussian(1.0, 1.0), 2.0), (lambda: gaussian(1.0, 1.0), 10.0),
    (lambda: poschl_teller(2), 0.5), (lambda: square_barrier(1.0, 1.0), 2.0),
    (_ramp, 2.0)], ids=["gauss-E2", "gauss-E10", "pt2-E0.5", "barrier-E2",
                        "ramp41-E2"])
def test_antiderivatives_match_piecewise_quad(build, energy):
    # wkb phi and special_delta Delta against quad on each smooth piece
    # (between breakpoints and, on the ramp, PCHIP knots), on a uniform
    # sweep of the window and on both sides of every breakpoint.  On the
    # barrier both integrands are piecewise constant, so the reference is
    # the exact piecewise-linear antiderivative.
    p = build()
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    knots = RAMP_KNOTS if p.kind == "tabulated" else ()
    pieces = np.array(window_edges(grid.x_min, grid.x_max,
                                   (*w.breakpoints, *knots)))
    breaks = [b for b in w.breakpoints if grid.x_min < b < grid.x_max]
    xs = np.sort(np.concatenate((
        np.linspace(grid.x_min, grid.x_max, 101),
        [b + side * 1e-9 for b in breaks for side in (-1.0, 1.0)])))
    wkb = gauge_wkb(w, grid)
    delta = gauge_special_delta(gauge_constant(w.k_left), w, grid)
    for fn, dfn in ((wkb.phi, wkb.phi_prime),
                    (delta.delta, delta.delta_prime)):
        np.testing.assert_allclose(np.asarray(fn(xs)),
                                   _quad_antiderivative(dfn, pieces, xs),
                                   rtol=0.0, atol=1e-13)


def test_gauge_from_tables():
    xs = np.linspace(-5.0, 5.0, 201)
    g = gauge_from_tables((xs, 1.3 * xs), chi_table=(xs, 0.1 * np.ones_like(xs)))
    assert g.phi_prime(0.7) == pytest.approx(1.3, abs=1e-9)
    assert g.chi(0.2) == pytest.approx(0.1, abs=1e-12)


def test_with_tabulated_chi_scatters_consistently():
    # Gauge independence extends to any admissible chi: a localized
    # tabulated chi must leave the transmission unchanged.
    from szscatter.gauges import with_tabulated_chi
    from szscatter.sz_core import scattering_amplitudes

    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    base = gauge_constant(w.k_left)
    xs = np.linspace(grid.x_min, grid.x_max, 301)
    gc = with_tabulated_chi(base, xs, 0.2 * np.exp(-xs**2))
    assert gc.chi(0.0) == pytest.approx(0.2, abs=1e-6)
    ref = scattering_amplitudes(p, e, base, 1e-12, grid=grid)
    got = scattering_amplitudes(p, e, gc, 1e-12, grid=grid)
    assert got.transmission == pytest.approx(ref.transmission, abs=1e-8)


def test_gauge_from_files(tmp_path):
    from szscatter.gauges import gauge_from_files

    xs = np.linspace(-3.0, 3.0, 61)
    phi_file = tmp_path / "phi.dat"
    phi_file.write_text("# phi table\n" + "\n".join(
        f"{x} {1.2 * x}" for x in xs))
    delta_file = tmp_path / "delta.dat"
    delta_file.write_text("\n".join(f"{x} {0.3 * x}" for x in xs))
    g = gauge_from_files(phi_file, delta_path=delta_file)
    assert g.phi_prime(0.5) == pytest.approx(1.2, abs=1e-9)
    assert g.delta_prime(0.5) == pytest.approx(0.3, abs=1e-9)
