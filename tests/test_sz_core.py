"""Evolution, transfer matrices, reconstruction, and amplitude extraction."""

import cmath
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from szscatter import _panels, _tables, sz_core
from szscatter._kernels import _tree_product, ordered_product
from szscatter.bounds import theta_field, theta_integral
from szscatter.errors import GaugeDegenerate, NonConvergence, TurningPoint
from szscatter.gauges import (GaugeTriple, constant_field, gauge_antiphase,
                              gauge_constant, gauge_special_delta, gauge_wkb,
                              rho_pair, with_constant_chi)
from szscatter.oracle import analytic_square_barrier, direct_integrate
from szscatter.potentials import (DomainGrid, EnergySpec, gaussian,
                                  poschl_teller, scalarize, square_barrier,
                                  tabulated, truncate_domain,
                                  wavenumber_field)
from szscatter.sz_core import (CoefficientState, _junction, evolve,
                               evolve_diagnostics, evolve_path,
                               probability_current, project_wavefunction,
                               reconstruct_psi, rhs_matrix,
                               scattering_amplitudes, transfer_matrix)

SQRT2 = math.sqrt(2.0)


def _free_setup(energy=2.0):
    p = square_barrier(0.0, 1.0)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    return p, e, grid, w, g, rho_pair(g, w)


def _barrier_setup(energy=2.0):
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    return p, e, grid, w, g, rho_pair(g, w)


def _ad_bc(e):
    """The determinant of a 2x2 array, from its entries."""
    return complex(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])


def test_rhs_zero_for_free_constant_gauge():
    _, _, _, _, g, r = _free_setup()
    m = rhs_matrix(g, r, 0.4)
    assert np.max(np.abs(m)) < 1e-14


def test_rhs_degenerate_gauge():
    g = GaugeTriple(
        phi=constant_field(0.0), phi_prime=constant_field(0.0),
        phi_double_prime=constant_field(0.0), delta=constant_field(0.0),
        delta_prime=constant_field(0.0), chi=constant_field(0.0),
        chi_prime=constant_field(0.0))
    p = square_barrier(0.0, 1.0)
    w = wavenumber_field(p, EnergySpec(1.0))
    with pytest.raises(GaugeDegenerate):
        rhs_matrix(g, rho_pair(g, w), 0.0)


def test_evolve_free_is_identity():
    _, _, grid, _, g, r = _free_setup()
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    out = evolve(g, r, s0, grid.x_max, 1e-12, grid=grid)
    assert out.a == pytest.approx(1.0, abs=1e-13)
    assert abs(out.b) < 1e-13


def test_evolve_conservation_and_route_agreement():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    out, stats = evolve_diagnostics(g, r, s0, grid.x_max, 1e-12, grid=grid)
    inv = abs(out.a) ** 2 - abs(out.b) ** 2
    assert inv == pytest.approx(1.0, abs=1e-10)
    assert stats.conservation_drift < 1e-10
    E = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-10, grid=grid)
    via = E.apply(s0)
    assert abs(via.a - out.a) < 1e-8
    assert abs(via.b - out.b) < 1e-8


def test_evolve_reversibility():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    fwd = evolve(g, r, s0, grid.x_max, 1e-12, grid=grid)
    back = evolve(g, r, fwd, grid.x_min, 1e-12, grid=grid)
    assert abs(back.a - 1.0) < 1e-8
    assert abs(back.b) < 1e-8


def test_evolve_path_records_monotone_samples():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    xs = np.linspace(grid.x_min, grid.x_max, 11)
    states, _ = evolve_path(g, r, s0, xs, 1e-12, grid=grid)
    assert [s.x for s in states] == pytest.approx(list(xs))
    assert states[0].a == pytest.approx(1.0 + 0j)


def test_evolve_path_rejects_bad_arguments():
    _, _, grid, _, g, r = _barrier_setup()
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tol"):
            evolve_path(g, r, s0, [grid.x_max], tol, grid)
    with pytest.raises(ValueError, match="sample point"):
        evolve_path(g, r, s0, [], 1e-10, grid)
    with pytest.raises(ValueError, match="ordered"):
        evolve_path(g, r, s0, [0.5, -0.5, grid.x_max], 1e-10, grid)


def test_evolve_path_walks_its_edges_both_ways():
    # wkb with chi = 0.3 over the barrier has two junctions that are not
    # the identity and a generator with a nonzero diagonal and rho1.  The
    # stops on the edges +-0.5 belong to the segment being left; the walk
    # crosses junctions[j] going forward and its adjugate going backward.
    _, _, grid, w, _, _ = _barrier_setup(2.0)
    g = with_constant_chi(gauge_wkb(w, grid), 0.3)
    r = rho_pair(g, w)
    edges, junctions = sz_core._segments(g, r, grid.x_min, grid.x_max)
    assert edges[1:-1] == [-0.5, 0.5]
    assert all(np.max(np.abs(j - np.eye(2))) > 1e-2 for j in junctions)
    for start, stops in ((grid.x_min, [-0.5, 0.0, 0.5, grid.x_max]),
                         (grid.x_max, [0.5, 0.2, -0.5, grid.x_min])):
        s0 = CoefficientState(start, 1.0 + 0j, 0j)
        states, _ = evolve_path(g, r, s0, stops, 1e-12, grid=grid)
        assert [s.x for s in states] == stops
        for state, stop in zip(states, stops):
            want = transfer_matrix(g, r, s0.x, stop, tol=1e-12,
                                   grid=grid).apply(s0)
            assert abs(state.a - want.a) <= 1e-10, (start, stop)
            assert abs(state.b - want.b) <= 1e-10, (start, stop)


def test_routes_reject_a_path_outside_the_grid():
    _, _, grid, _, g, r = _barrier_setup()
    beyond = grid.x_max + 1.0
    with pytest.raises(ValueError, match="outside the grid"):
        transfer_matrix(g, r, grid.x_min, beyond, grid=grid)
    with pytest.raises(ValueError, match="outside the grid"):
        evolve(g, r, CoefficientState(grid.x_min, 1.0 + 0j, 0j), beyond,
               1e-10, grid)


def test_transfer_matrix_identity_and_det():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    E0 = transfer_matrix(g, r, 0.1, 0.1, grid=grid)
    np.testing.assert_array_equal(E0.entries, np.eye(2, dtype=complex))
    assert E0.det == 1.0
    E = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-10, grid=grid)
    assert _ad_bc(E.entries) == pytest.approx(1.0, abs=1e-10)
    assert abs(E.det - 1.0) <= 1e-14


def test_transfer_matrix_composition():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    full = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=3e-10, grid=grid)
    mid = 0.2
    left = transfer_matrix(g, r, grid.x_min, mid, tol=3e-10, grid=grid)
    right = transfer_matrix(g, r, mid, grid.x_max, tol=3e-10, grid=grid)
    assert np.max(np.abs(right.entries @ left.entries - full.entries)) < 1e-9


def test_transfer_matrix_det_stable_under_refinement():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    coarse = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-8,
                             grid=grid)
    fine = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-11,
                           grid=grid)
    assert _ad_bc(coarse.entries) == pytest.approx(_ad_bc(fine.entries),
                                                   abs=1e-8)


@pytest.mark.parametrize("case_name,gauge_name", [
    ("pt2-E0.5", "constant"), ("gauss-E2", "constant"),
    ("gauss-E2", "special_delta"), ("barrier-E2", "wkb")])
def test_refined_product_within_tol_of_tight_product(suite, case_name,
                                                     gauge_name):
    # The refinement accepts a product on the Cauchy difference
    # |E_2n - E_n| of a pair whose step count it predicted, not on the
    # product's distance to the limit, so check it against a product
    # refined to 1e-14.
    case = next(c for c in suite if c.name == case_name)
    g, r, grid = case.gauges[gauge_name], case.rho(gauge_name), case.grid
    tight = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-14,
                            grid=grid).entries
    for tol in (1e-7, 1e-9, 1e-11):
        got = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=tol,
                              grid=grid).entries
        assert np.max(np.abs(got - tight)) < tol


def _ramp_profile(n_knots):
    """PCHIP tanh ramp from V = 0 to V = 0.25, sampled at n_knots points
    on [-6, 6]."""
    xs = np.linspace(-6.0, 6.0, n_knots)
    ys = 0.25 * 0.5 * (1.0 + np.tanh(xs))
    ys[0], ys[-1] = 0.0, 0.25
    return tabulated(xs, ys, v_left=0.0, v_right=0.25)


@pytest.mark.parametrize("energy", [0.5, 2.0])
@pytest.mark.parametrize("gauge_name", ["constant", "special_delta", "wkb"])
def test_refined_product_within_tol_on_tabulated_ramp(energy, gauge_name):
    # V'' jumps at the PCHIP knots, so the generator is only C^1 there (C^0
    # in wkb, whose rho1 = k'), and the panels converge more slowly near
    # them.  The reference is a brute-force Magnus product of 2^14 steps
    # per unit length; halving or doubling that count moves it by at most
    # 6e-13 (2e-12 in wkb), below the smallest tol.
    p = _ramp_profile(41)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    if gauge_name == "special_delta":
        g = gauge_special_delta(g, w, grid)
    elif gauge_name == "wkb":
        g = gauge_wkb(w, grid)
    r = rho_pair(g, w)
    n_ref = int((grid.x_max - grid.x_min) * (1 << 14))
    ref = np.array(ordered_product(sz_core._generator, g, r, grid.x_min,
                                   grid.x_max, n_ref)).reshape(2, 2)
    for tol in (1e-7, 1e-9, 1e-11):
        got = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=tol,
                              grid=grid).entries
        assert np.max(np.abs(got - ref)) < tol


@pytest.mark.parametrize("case_name", ["pt2-E0.5", "gauss-E2", "barrier-E2"])
@pytest.mark.parametrize("gauge_name", ["constant", "special_delta", "wkb",
                                        "antiphase"])
def test_product_is_pseudo_unitary_for_real_gauges(suite, case_name,
                                                   gauge_name):
    # For a real gauge the current is |a|^2 - |b|^2, so every propagator,
    # junctions included, satisfies E^dagger sigma3 E = sigma3 and
    # det E = 1.  Each Magnus exponent stays in su(1,1), so this holds to
    # rounding even at a loose tol; a commutator or exponential that
    # breaks that structure shows here.
    case = next(c for c in suite if c.name == case_name)
    g, r, grid = case.gauges[gauge_name], case.rho(gauge_name), case.grid
    sigma3 = np.diag([1.0, -1.0])
    for tol in (1e-7, 1e-12):
        E = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=tol, grid=grid)
        drift = E.entries.conj().T @ sigma3 @ E.entries - sigma3
        assert np.max(np.abs(drift)) <= 1e-12
        assert abs(_ad_bc(E.entries) - 1.0) <= 1e-12


@pytest.mark.parametrize("case_name", ["pt2-E0.5", "gauss-E2", "barrier-E2"])
@pytest.mark.parametrize("gauge_name", ["constant", "special_delta", "wkb",
                                        "antiphase"])
def test_panel_product_matches_fine_magnus_product(suite, case_name,
                                                   gauge_name):
    # Each smooth piece's panel product against an independent one: the
    # sixth-order Magnus product of 512 equal steps per unit length.  Its
    # Cauchy difference to 256 steps is at most 2.5e-12 on these cases, so
    # at sixth order it is within about 4e-14 of its limit.
    case = next(c for c in suite if c.name == case_name)
    g, r, grid = case.gauges[gauge_name], case.rho(gauge_name), case.grid
    edges, _ = sz_core._segments(g, r, grid.x_min, grid.x_max)
    for a, b in zip(edges[:-1], edges[1:]):
        got = sz_core._refined_product(g, r, [a, b], [], 1e-12)
        ref = ordered_product(sz_core._generator, g, r, a, b,
                              int(np.ceil(512 * (b - a))))
        assert np.max(np.abs(got - np.reshape(ref, (2, 2)))) < 1e-12


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("potential", [
    gaussian(1.0, 1.0), poschl_teller(2), square_barrier(1.0, 1.0),
    square_barrier(1.0e3, 1.0)], ids=["gauss", "pt2", "barrier", "tall"])
@pytest.mark.parametrize("gauge_name,reduced", [
    ("constant", "_rank_one"), ("special_delta", "_zero_diagonal"),
    ("wkb", "_zero_diagonal")])
def test_reduced_panel_systems_match_the_full_system(monkeypatch, potential,
                                                     gauge_name, reduced,
                                                     tol):
    # The n x n systems give the W of the 2n x 2n one: on the panels the
    # refinement kept, the maps agree to rounding.  A 2 x 2 map of det 1
    # has condition number |Y|^2, so the two systems' rounding moves it by
    # up to about eps |Y|^2.  Over the tall barrier |Y| reaches 3e4 and
    # the maps differ by up to 1.8e-7 (6e-12 relative); elsewhere by at
    # most 7e-16 relative.
    e = EnergySpec(2.0)
    grid = truncate_domain(potential, e)
    w = wavenumber_field(potential, e)
    g = gauge_constant(w.k_left)
    if gauge_name == "special_delta":
        g = gauge_special_delta(g, w, grid)
    elif gauge_name == "wkb":
        try:
            g = gauge_wkb(w, grid)
        except TurningPoint:
            pytest.skip("k^2 < 0 inside the tall barrier")
    r = rho_pair(g, w)
    calls = []
    full = sz_core._full_system
    monkeypatch.setattr(sz_core, "_full_system",
                        lambda *args: calls.append(1) or full(*args))
    kept = []
    real = sz_core.bisect
    monkeypatch.setattr(sz_core, "bisect",
                        lambda *args: kept.append(real(*args)) or kept[-1])
    transfer_matrix(g, r, grid.x_min, grid.x_max, tol=tol, grid=grid)
    assert calls == []
    a, b, _, maps, key = kept[0]
    monkeypatch.setattr(sz_core, reduced, full)
    _, _, ref = sz_core._panel_maps([(g, r, np.asarray(r.breakpoints))], a,
                                    b, key)
    size = np.maximum(np.abs(ref).max(axis=(1, 2)), 1.0)
    assert np.all(np.abs(maps - ref).max(axis=(1, 2)) <= 1e-13 * size ** 2)


@pytest.mark.parametrize("energy", [0.2, 2.0, 8.0])
def test_start_meshes_need_at_most_one_refinement(monkeypatch, energy):
    # On the Gaussian of the benchmark's verify sweep, the gauge
    # antiderivatives, the products and the theta integrals start on
    # panels fine enough that bisect solves each at most twice: a
    # bisection level costs far more than a panel.
    levels = []
    real = _panels.bisect

    def counted(solve, *args):
        calls = []
        try:
            return real(lambda *panels: calls.append(1) or solve(*panels),
                        *args)
        finally:
            levels.append(len(calls))

    monkeypatch.setattr(_panels, "bisect", counted)
    monkeypatch.setattr(sz_core, "bisect", counted)
    p = gaussian(1.0, 1.0)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    base = gauge_constant(w.k_left)
    gauges = [base, gauge_special_delta(base, w, grid)]
    if energy > 1.0:
        gauges.append(gauge_wkb(w, grid))
    for g in gauges:
        transfer_matrix(g, rho_pair(g, w), grid.x_min, grid.x_max,
                        tol=1e-12, grid=grid)
        theta_integral(theta_field(g, w), grid, 1e-10)
    assert len(levels) == 3 * len(gauges) - 1
    assert max(levels) <= 2, levels


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [lambda x: x > 0.0,
                                   lambda x: x == np.min(x)],
                         ids=["right_half", "one_point"])
def test_refined_product_rejects_non_finite_generator(monkeypatch, bad,
                                                      where):
    # A generator that is not finite on part of the piece gives either
    # NonConvergence or a finite map, and warns of nothing on the way.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    real = sz_core._entries

    def spoilt(u, v, x):
        entries, *rest = real(u, v, x)
        return (tuple(np.where(where(x), bad, m) for m in entries), *rest)

    monkeypatch.setattr(sz_core, "_entries", spoilt)
    try:
        e_map = sz_core._refined_product(g, rho_pair(g, w),
                                         [grid.x_min, grid.x_max], [],
                                         1e-10)
    except NonConvergence:
        return
    assert np.all(np.isfinite(e_map))


def _counting_panels(monkeypatch, cap):
    """Fail as soon as _refined_product has solved more than cap panels,
    so a stall fails fast."""
    solved = [0]
    real = sz_core._panel_maps

    def counted(paths, a, b, key):
        solved[0] += a.size
        assert solved[0] <= cap
        return real(paths, a, b, key)

    monkeypatch.setattr(sz_core, "_panel_maps", counted)


@pytest.mark.parametrize("potential,energy", [
    (poschl_teller(3, 0.657), 0.32), (gaussian(-10.4, 0.86), 0.018),
    (gaussian(11.8, 1.54), 0.11), (poschl_teller(4, 0.75), 0.5)],
    ids=["sech2-l3", "deep-well", "tall-barrier", "sech2-l4"])
def test_special_delta_product_converges_on_deep_profiles(monkeypatch,
                                                          potential, energy):
    # These products reach 1e17-1e23 in special_delta, and once stalled
    # (NonConvergence) or took minutes.  A work cap, not a wall time: each
    # case takes 36-47 panels.
    _counting_panels(monkeypatch, 250)
    e = EnergySpec(energy)
    grid = truncate_domain(potential, e)
    w = wavenumber_field(potential, e)
    g = gauge_special_delta(gauge_constant(w.k_left), w, grid)
    amp = scattering_amplitudes(potential, e, g, 1e-12)
    ref = direct_integrate(potential, e, grid, 1e-12)
    assert amp.transmission == pytest.approx(ref.transmission, rel=1e-9)
    assert amp.reflection == pytest.approx(ref.reflection, rel=1e-9,
                                           abs=1e-12)


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_special_delta_product_converges_over_a_very_tall_barrier(
        monkeypatch, energy):
    # The map's entries reach about e^100 over this barrier and the phase
    # phi + Delta thousands of radians, so the panels are accepted on a
    # rounding floor relative to both.  About 1,100 panels are solved.
    _counting_panels(monkeypatch, 5000)
    p = square_barrier(1.0e4, 1.0)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_special_delta(gauge_constant(w.k_left), w, grid)
    amp = scattering_amplitudes(p, e, g, 1e-12)
    exact = analytic_square_barrier(1.0e4, 1.0, e).transmission
    assert amp.transmission == pytest.approx(exact, rel=1e-9)


def test_product_raises_nonconvergence_past_panel_cap(monkeypatch):
    # square_barrier(1000, 1) in special_delta needs about 150 panels.
    p = square_barrier(1000.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_special_delta(gauge_constant(w.k_left), w, grid)
    monkeypatch.setattr(_panels, "MAX_PANELS", 64)
    with pytest.raises(NonConvergence):
        scattering_amplitudes(p, e, g, 1e-12)


@pytest.mark.parametrize("case_name", ["pt2-E0.5", "gauss-E2", "barrier-E2"])
@pytest.mark.parametrize("gauge_name", ["constant", "special_delta", "wkb",
                                        "antiphase"])
def test_backward_transfer_matrix_inverts_forward(suite, case_name,
                                                  gauge_name):
    # A backward path is the inverse of the forward one, across the
    # junctions too (wkb over the barrier).
    # test_transfer_matrix_between_barrier_jumps_matches_magnus checks
    # backward paths against an independent reference.
    case = next(c for c in suite if c.name == case_name)
    g, r, grid = case.gauges[gauge_name], case.rho(gauge_name), case.grid
    forward = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-10,
                              grid=grid)
    backward = transfer_matrix(g, r, grid.x_max, grid.x_min, tol=1e-10,
                               grid=grid)
    assert (backward.x_from, backward.x_to) == (grid.x_max, grid.x_min)
    assert np.max(np.abs(backward.entries
                         - np.linalg.inv(forward.entries))) < 1e-9


@pytest.mark.parametrize("reverse", [False, True], ids=["forward",
                                                       "backward"])
def test_transfer_matrix_refines_the_path_in_one_bisection(monkeypatch,
                                                           suite, reverse):
    # square_barrier(1, 1) in the wkb gauge has three smooth pieces, all
    # refined together.
    case = next(c for c in suite if c.name == "barrier-E2")
    g, r, grid = case.gauges["wkb"], case.rho("wkb"), case.grid
    assert len(sz_core._segments(g, r, grid.x_min, grid.x_max)[0]) == 4
    calls = []
    real = sz_core.bisect

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sz_core, "bisect", counted)
    ends = (grid.x_max, grid.x_min) if reverse else (grid.x_min, grid.x_max)
    transfer_matrix(g, r, *ends, tol=1e-10, grid=grid)
    assert len(calls) == 1


def test_product_start_width_follows_a_replaced_phi_prime(monkeypatch):
    # The start panels span at most one period pi / max|phi'| of the
    # phase, with max|phi'| read off phi' itself: phi' = 50 set through
    # replace starts on panels no wider than pi / 50.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = replace(gauge_constant(w.k_left), phi=scalarize(lambda x: 50.0 * x),
                phi_prime=constant_field(50.0))
    starts = []
    real = sz_core.bisect

    def spied(solve, a, b, *rest):
        starts.append(b - a)
        return real(solve, a, b, *rest)

    monkeypatch.setattr(sz_core, "bisect", spied)
    transfer_matrix(g, rho_pair(g, w), grid.x_min, grid.x_max, tol=1e-9,
                    grid=grid)
    assert np.max(starts[0]) <= (math.pi / 50.0) * (1.0 + 1e-12)


@pytest.mark.parametrize("gauge_name", ["constant", "wkb", "special_delta"])
@pytest.mark.parametrize("x_from,x_to", [(-0.5, 0.5), (0.5, -0.5)])
def test_transfer_matrix_between_barrier_jumps_matches_magnus(
        suite, gauge_name, x_from, x_to):
    # Both ends lie on the barrier's jumps, so the panels sample them from
    # inside.  The reference is the sixth-order Magnus product of 512
    # equal steps taken in the same direction, which samples no end.  In
    # wkb the generator vanishes inside the barrier.
    case = next(c for c in suite if c.name == "barrier-E2")
    g, r, grid = case.gauges[gauge_name], case.rho(gauge_name), case.grid
    got = transfer_matrix(g, r, x_from, x_to, tol=1e-12, grid=grid)
    ref = ordered_product(sz_core._generator, g, r, x_from, x_to, 512)
    assert np.max(np.abs(got.entries - np.reshape(ref, (2, 2)))) < 1e-12


@pytest.mark.parametrize("v0", [100.0, 1000.0])
def test_backward_transfer_matrix_over_a_tall_barrier(v0):
    # |E| reaches 3.6e4 and 2.9e14 across these barriers, where ad - bc
    # cancels: np.linalg.inv of the forward map was off by 1.4e-7 and by
    # 100% relative.  The reference is a 4096-step Magnus product run
    # backward; the adjugate is within 5e-12 relative of it.
    p = square_barrier(v0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    r = rho_pair(g, w)
    got = transfer_matrix(g, r, 0.5, -0.5, tol=1e-12, grid=grid).entries
    ref = np.reshape(ordered_product(sz_core._generator, g, r, 0.5, -0.5,
                                     4096), (2, 2))
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("v0", [100.0, 1000.0])
def test_transfer_matrix_det_is_exact_over_a_tall_barrier(v0):
    # ad - bc of entries up to 3.6e4 and 2.9e14 cancels (it read -6.3e13j
    # at v0 = 1000), so det E = 1 rests on the junctions' determinants,
    # and the backward map is the forward one's adjugate.
    p = square_barrier(v0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    r = rho_pair(g, w)
    fwd = transfer_matrix(g, r, -0.5, 0.5, tol=1e-12, grid=grid).entries
    back = transfer_matrix(g, r, 0.5, -0.5, tol=1e-12, grid=grid).entries
    adj = np.array([[fwd[1, 1], -fwd[0, 1]], [-fwd[1, 0], fwd[0, 0]]])
    assert np.max(np.abs(back - adj)) <= 1e-12 * np.max(np.abs(fwd))
    # wkb jumps at both edges, where its junctions are far from I.
    above = EnergySpec(1.5 * v0)
    w = wavenumber_field(p, above)
    g = gauge_wkb(w, truncate_domain(p, above))
    for proj in _junction(g, [-0.5, 0.5]):
        assert np.max(np.abs(proj - np.eye(2))) > 1e-3
        assert abs(_ad_bc(proj) - 1.0) <= 1e-12


def _rep_gauges(p, e):
    """The constant, wkb, special_delta and complex-chi gauges at E."""
    w = wavenumber_field(p, e)
    grid = truncate_domain(p, e)
    constant = gauge_constant(w.k_left)
    wkb = gauge_wkb(w, grid)
    return {"constant": constant, "wkb": wkb,
            "special_delta": gauge_special_delta(constant, w, grid),
            "complex_chi": with_constant_chi(wkb, 0.3 + 0.2j)}


@pytest.mark.parametrize("v0,energy", [(1.0, 2.0), (100.0, 150.0)])
def test_representation_det_is_minus_2i(v0, energy):
    # e^{i theta} e^{-i theta} = 1 and sqrt(phi')^2 = phi' make det R
    # exactly -2i, which the closed-form inverse and det E = 1 rest on;
    # so a junction, R_right^-1 R_left, has det 1.
    for name, g in _rep_gauges(square_barrier(v0, 1.0),
                               EnergySpec(energy)).items():
        for side in (-1, 1):
            rep = sz_core._rep_matrix(g, [-0.5, 0.5], side)
            for i in range(2):
                assert abs(_ad_bc(rep[..., i]) + 2j) <= 2e-15, (name, i, side)
        for i, proj in enumerate(_junction(g, [-0.5, 0.5])):
            assert abs(_ad_bc(proj) - 1.0) <= 1e-15, (name, i)


@pytest.mark.parametrize("case", ["gaussian-constant", "barrier-wkb"])
def test_refined_product_is_one_tree_over_the_joined_maps(monkeypatch, case):
    # The kept maps, each junction projection before the first map of the
    # piece it enters, multiply in one tree: bitwise one _tree_product
    # over that ordered list, called once per path.
    p = gaussian(1.0, 1.0) if case == "gaussian-constant" else \
        square_barrier(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left) if case == "gaussian-constant" else \
        gauge_wkb(w, grid)
    r = rho_pair(g, w)
    edges, junctions = sz_core._segments(g, r, grid.x_min, grid.x_max)
    assert len(junctions) == (0 if case == "gaussian-constant" else 2)
    kept = []
    real = sz_core.bisect
    monkeypatch.setattr(sz_core, "bisect",
                        lambda *args: kept.append(real(*args)) or kept[-1])
    trees = []
    monkeypatch.setattr(sz_core, "_tree_product",
                        lambda m: trees.append(m) or _tree_product(m))
    got = sz_core._refined_product(g, r, edges, junctions, 1e-12)
    assert len(trees) == 1
    a, _, _, maps, _ = kept[0]
    path = []
    for left, m in zip(a, maps):
        path += [proj for proj, edge in zip(junctions, edges[1:-1])
                 if edge == left]
        path.append(m)
    assert len(path) == len(maps) + len(junctions)
    assert np.array_equal(got, _tree_product(np.stack(path, axis=-1)))


def _mixed_paths():
    """(gauge, rho pair, x_from, x_to, grid) of square_barrier(1, 1) in
    wkb + chi = 0.3 at E = 2 over the barrier alone and over its window,
    with two junctions far from I, and of gaussian(1, 1) in the constant,
    wkb, special_delta and antiphase gauges at E = 1.5, 2 and 5: paths of
    all three panel systems, junctions, and spans 1 to about 20."""
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = with_constant_chi(gauge_wkb(w, grid), 0.3)
    out = [(g, rho_pair(g, w), -0.5, 0.5, grid),
           (g, rho_pair(g, w), grid.x_min, grid.x_max, grid)]
    p = gaussian(1.0, 1.0)
    for energy in (1.5, 2.0, 5.0):
        e = EnergySpec(energy)
        grid = truncate_domain(p, e)
        w = wavenumber_field(p, e)
        base = gauge_constant(w.k_left)
        for g in (base, gauge_wkb(w, grid), gauge_special_delta(base, w, grid),
                  gauge_antiphase(base)):
            out.append((g, rho_pair(g, w), grid.x_min, grid.x_max, grid))
    return out


def test_a_batch_gives_each_path_its_own_map(monkeypatch):
    # Each path's panels are refined, and its systems chosen, as they are
    # when it is solved alone, and a panel's map does not depend on the
    # other panels of its batch: every map of the batch is bitwise the
    # path's transfer_matrix.  Every batch _panel_maps solves is in the
    # order of (path, position).  The panel cap counts each path's panels
    # apart, so a cap below the batch's total but at every path's own
    # count passes, and one below a path's own count fails.
    paths = _mixed_paths()
    batch = [(g, r, *sz_core._segments(g, r, lo, hi))
             for g, r, lo, hi, _ in paths]
    assert len(batch[1][3]) == 2
    kept, solved = [], []
    real, real_maps = sz_core.bisect, sz_core._panel_maps
    monkeypatch.setattr(sz_core, "bisect",
                        lambda *args: kept.append(real(*args)) or kept[-1])
    monkeypatch.setattr(sz_core, "_panel_maps", lambda paths, a, b, key: (
        solved.append((key, a)) or real_maps(paths, a, b, key)))
    maps = sz_core._refined_products(batch, 1e-12)
    assert len(kept) == 1 and len(maps) == len(paths) and len(solved) > 1
    for key, a in solved:
        assert np.array_equal(np.lexsort((a, key)), np.arange(a.size))
    for (g, r, lo, hi, grid), m in zip(paths, maps):
        alone = transfer_matrix(g, r, lo, hi, tol=1e-12, grid=grid).entries
        assert np.array_equal(m, alone)
    counts = np.bincount(kept[0][-1])
    assert counts.size == len(paths) and counts.sum() > counts.max()
    monkeypatch.setattr(_panels, "MAX_PANELS", int(counts.max()))
    again = sz_core._refined_products(batch, 1e-12)
    assert all(np.array_equal(m, a) for m, a in zip(maps, again))
    monkeypatch.setattr(_panels, "MAX_PANELS", int(counts.max()) - 1)
    with pytest.raises(NonConvergence):
        sz_core._refined_products(batch, 1e-12)
    g, r, lo, hi, grid = paths[int(np.argmax(counts))]
    with pytest.raises(NonConvergence):
        transfer_matrix(g, r, lo, hi, tol=1e-12, grid=grid)


def test_tall_barrier_product_raises_no_warning():
    # Coarse steps over a barrier of height 1000 overflow; refinement
    # rejects them without a RuntimeWarning (an error under this suite's
    # warning filter) and lands on the closed form.
    p = square_barrier(1000.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_special_delta(gauge_constant(w.k_left), w, grid)
    amp = scattering_amplitudes(p, e, g, 1e-12)
    exact = analytic_square_barrier(1000.0, 1.0, e).transmission
    assert amp.transmission == pytest.approx(exact, rel=1e-9)


def _gauge_with_flat_spot(k, half_width):
    """phi' = k max(|x| - half_width, 0): zero on [-half_width,
    half_width], so the gauge is degenerate inside any window around 0."""
    def raw_phi(xv):
        return 0.5 * k * np.sign(xv) * np.maximum(np.abs(xv) - half_width,
                                                  0.0) ** 2

    def raw_slope(xv):
        return k * np.maximum(np.abs(xv) - half_width, 0.0)

    def raw_curv(xv):
        return k * np.sign(xv) * (np.abs(xv) > half_width)

    return GaugeTriple(
        phi=scalarize(raw_phi), phi_prime=scalarize(raw_slope),
        phi_double_prime=scalarize(raw_curv), delta=constant_field(0.0),
        delta_prime=constant_field(0.0), chi=constant_field(0.0),
        chi_prime=constant_field(0.0))


def test_product_routes_reject_degenerate_gauge():
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = _gauge_with_flat_spot(w.k_left, 0.25)
    r = rho_pair(g, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GaugeDegenerate):
            transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-9,
                            grid=grid)
        with pytest.raises(GaugeDegenerate):
            scattering_amplitudes(p, e, g, 1e-10, grid)


def _gauge_with_slope_zero_at(x0):
    """phi' = x - x0, which vanishes at x0 only."""
    return GaugeTriple(
        phi=scalarize(lambda xv: 0.5 * xv * xv - x0 * xv),
        phi_prime=scalarize(lambda xv: xv - x0),
        phi_double_prime=constant_field(1.0), delta=constant_field(0.0),
        delta_prime=constant_field(0.0), chi=constant_field(0.0),
        chi_prime=constant_field(0.0))


def test_routes_reject_a_phi_prime_through_zero(monkeypatch):
    # phi' = x is 0 in the middle of the symmetric window, on a Lobatto
    # point of the product's start panels; phi' = x - 0.3 is 0 between two
    # of them, where its real samples change sign within one panel.  Both
    # product routes raise GaugeDegenerate before any panel is solved.
    # evolve's stage positions need not land on the zero, so it may end in
    # StepUnderflow instead.  No call warns.
    from szscatter.errors import StepUnderflow

    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    assert grid.x_min == -grid.x_max
    solved = []
    real = sz_core._panel_maps
    monkeypatch.setattr(sz_core, "_panel_maps",
                        lambda *args: solved.append(1) or real(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x0 in (0.0, 0.3):
            g = _gauge_with_slope_zero_at(x0)
            with pytest.raises(GaugeDegenerate):
                transfer_matrix(g, rho_pair(g, w), grid.x_min, grid.x_max,
                                tol=1e-9, grid=grid)
            with pytest.raises(GaugeDegenerate):
                scattering_amplitudes(p, e, g, 1e-10, grid)
        assert solved == []
        for x0 in (0.0, 0.3):
            g = _gauge_with_slope_zero_at(x0)
            with pytest.raises((GaugeDegenerate, StepUnderflow)):
                evolve(g, rho_pair(g, w),
                       CoefficientState(grid.x_min, 1.0 + 0j, 0j),
                       grid.x_max, 1e-10, grid=grid)


class _TableBuilt(Exception):
    pass


def test_no_route_builds_a_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise _TableBuilt

    # Every name any szscatter module holds build_segment_table under.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "szscatter":
            for attr, value in list(vars(module).items()):
                if value is _tables.build_segment_table:
                    monkeypatch.setattr(module, attr, refuse)
    p, e, grid, _, g, r = _barrier_setup(2.0)
    amp = scattering_amplitudes(p, e, g, 1e-10, grid)
    assert amp.transmission + amp.reflection == pytest.approx(1.0, abs=1e-9)
    E = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-9, grid=grid)
    assert _ad_bc(E.entries) == pytest.approx(1.0, abs=1e-9)
    out = evolve(g, r, CoefficientState(grid.x_min, 1.0 + 0j, 0j),
                 grid.x_max, 1e-10, grid=grid)
    assert abs(out.a) ** 2 - abs(out.b) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_evolve_samples_jumps_one_sided():
    # The rho pair jumps at both barrier edges, which are segment ends.
    # Stage positions on a segment end must see the generator from inside
    # the segment; sampled across the jump, steps there are rejected and
    # the state is off by far more than tol.
    p = square_barrier(5.0, 1.0)
    e = EnergySpec(6.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    r = rho_pair(g, w)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    out, stats = evolve_diagnostics(g, r, s0, grid.x_max, 1e-8, grid=grid)
    ref = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-13,
                          grid=grid).apply(s0)
    assert abs(out.a - ref.a) <= 1e-12
    assert abs(out.b - ref.b) <= 1e-12
    assert stats.n_rejected == 0


def test_evolve_stats_are_python_numbers():
    # truncate_domain gives numpy-scalar bounds for the Gaussian; the
    # reported drift is a float all the same.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    _, stats = evolve_diagnostics(g, rho_pair(g, w), s0, grid.x_max, 1e-10,
                                  grid=grid)
    assert type(stats.conservation_drift) is float


def test_reconstruct_plane_waves():
    g = gauge_constant(SQRT2)
    x = 0.7
    fwd = reconstruct_psi(g, CoefficientState(x, 1.0 + 0j, 0j))
    expected = cmath.exp(1j * SQRT2 * x) / math.sqrt(SQRT2)
    assert fwd.psi == pytest.approx(expected, abs=1e-15)
    assert fwd.psi_prime == pytest.approx(1j * SQRT2 * expected, abs=1e-15)
    bwd = reconstruct_psi(g, CoefficientState(x, 0j, 1.0 + 0j))
    assert bwd.psi == pytest.approx(cmath.exp(-1j * SQRT2 * x) / math.sqrt(SQRT2),
                                    abs=1e-15)


def test_reconstruct_antiphase_all_phases_cancel():
    g = gauge_antiphase(gauge_constant(SQRT2))
    a, b = 0.3 + 0.4j, -0.2 + 0.9j
    sample = reconstruct_psi(g, CoefficientState(1.3, a, b))
    assert sample.psi == pytest.approx((a + b) / math.sqrt(SQRT2), abs=1e-15)


def test_project_wavefunction_roundtrip():
    g = gauge_antiphase(gauge_constant(1.3))
    s = CoefficientState(0.4, 0.8 - 0.1j, 0.2 + 0.5j)
    sample = reconstruct_psi(g, s)
    back = project_wavefunction(g, s.x, sample.psi, sample.psi_prime)
    assert back.a == pytest.approx(s.a, abs=1e-13)
    assert back.b == pytest.approx(s.b, abs=1e-13)
    # The closed-form inverse in the gauges of the det test, at the
    # window's ends and on both sides of a jump of phi'.
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    for name, g in _rep_gauges(p, e).items():
        for x in (grid.x_min, -0.5 - 1e-9, -0.5 + 1e-9, grid.x_max):
            s = CoefficientState(x, 0.8 - 0.1j, 0.2 + 0.5j)
            sample = reconstruct_psi(g, s)
            back = project_wavefunction(g, x, sample.psi, sample.psi_prime)
            assert abs(back.a - s.a) <= 1e-13, (name, x)
            assert abs(back.b - s.b) <= 1e-13, (name, x)


def test_current_real_gauge_values():
    g = gauge_constant(SQRT2)
    assert probability_current(g, CoefficientState(0.0, 1.0 + 0j, 0j)) == 1.0
    z = 0.6 + 0.3j
    equal = probability_current(g, CoefficientState(0.2, z, 1j * z))
    assert equal == pytest.approx(0.0, abs=1e-16)


def test_current_matches_direct_im_psi_for_complex_gauge():
    # Oracle: direct evaluation of Im(psi* psi') from the reconstruction.
    g = GaugeTriple(
        phi=lambda x: (1.0 + 0.2j) * np.asarray(x) + 0.05 * np.sin(np.asarray(x)),
        phi_prime=lambda x: (1.0 + 0.2j) + 0.05 * np.cos(np.asarray(x)),
        phi_double_prime=lambda x: -0.05 * np.sin(np.asarray(x)),
        delta=lambda x: 0.1j * np.asarray(x),
        delta_prime=lambda x: 0.1j * np.ones_like(np.asarray(x, dtype=float)),
        chi=lambda x: (0.02 + 0.03j) * np.cos(np.asarray(x)),
        chi_prime=lambda x: -(0.02 + 0.03j) * np.sin(np.asarray(x)),
        label="complex-test")
    rng = np.random.default_rng(42)
    for _ in range(25):
        s = CoefficientState(float(rng.uniform(-2, 2)),
                             complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
        sample = reconstruct_psi(g, s)
        direct = (sample.psi.conjugate() * sample.psi_prime).imag
        assert probability_current(g, s) == pytest.approx(direct, abs=1e-12)


def test_current_constant_along_solution():
    _, _, grid, _, g, r = _barrier_setup(0.5)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    xs = np.linspace(grid.x_min, grid.x_max, 33)
    states, _ = evolve_path(g, r, s0, xs, 1e-12, grid=grid)
    currents = [probability_current(g, s) for s in states]
    assert np.max(np.abs(np.asarray(currents) - 1.0)) < 1e-9


def test_scattering_free():
    p, e, grid, _, g, _ = _free_setup(1.0)
    amp = scattering_amplitudes(p, e, g, 1e-12, grid=grid)
    assert amp.alpha == pytest.approx(1.0, abs=1e-12)
    assert abs(amp.beta) < 1e-12
    assert amp.transmission == pytest.approx(1.0, abs=1e-12)
    assert amp.reflection == pytest.approx(0.0, abs=1e-12)


def test_scattering_barrier_vs_analytic():
    p, e, grid, _, g, _ = _barrier_setup(2.0)
    amp = scattering_amplitudes(p, e, g, 1e-12, grid=grid)
    exact = analytic_square_barrier(1.0, 1.0, e).transmission
    assert amp.transmission == pytest.approx(exact, abs=1e-4)
    assert amp.transmission + amp.reflection == pytest.approx(1.0, abs=1e-10)
    assert abs(amp.alpha) ** 2 - abs(amp.beta) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_scattering_reflectionless():
    p = poschl_teller(1)
    e = EnergySpec(1.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    amp = scattering_amplitudes(p, e, gauge_constant(w.k_left), 1e-12, grid=grid)
    assert amp.transmission == pytest.approx(1.0, abs=1e-7)
    assert amp.reflection < 1e-7


@pytest.mark.parametrize("gauge",
                         ["constant", "wkb", "special_delta", "antiphase"])
def test_left_incidence_amplitudes_against_third_route(suite, gauge):
    # t = 1/alpha*, r = -beta/alpha*.  Build the left-incidence solution
    # from the claimed t by integrating backward with an unrelated
    # integrator (scipy RK45) and read the incident/reflected pair off
    # the left edge.  The amplitudes are physical, so every gauge must
    # pass, phases included.
    from scipy.integrate import solve_ivp

    case = next(c for c in suite if c.name == "barrier-E2")
    grid, w = case.grid, case.w
    amp = scattering_amplitudes(case.potential, case.e, case.gauges[gauge],
                                1e-12, grid=grid)
    t_amp = amp.transmitted_amplitude
    r_amp = amp.reflected_amplitude
    assert abs(t_amp) ** 2 == pytest.approx(amp.transmission, abs=1e-12)
    assert abs(r_amp) ** 2 == pytest.approx(amp.reflection, abs=1e-12)

    k = w.k_right
    root = math.sqrt(k)
    psi_end = t_amp * cmath.exp(1j * k * grid.x_max) / root
    dpsi_end = 1j * k * psi_end

    def rhs(x, y):
        return [y[1], -w.k_squared(x) * y[0]]

    sol = solve_ivp(rhs, (grid.x_max, grid.x_min),
                    np.array([psi_end, dpsi_end], dtype=complex),
                    rtol=1e-11, atol=1e-11)
    psi0, dpsi0 = sol.y[0, -1], sol.y[1, -1]
    em = cmath.exp(-1j * k * grid.x_min)
    incident = 0.5 * root * em * (psi0 + dpsi0 / (1j * k))
    reflected = 0.5 * root / em * (psi0 - dpsi0 / (1j * k))
    assert incident == pytest.approx(1.0, abs=1e-7)
    assert reflected == pytest.approx(r_amp, abs=1e-7)


@pytest.mark.parametrize("energy", [1.5, 2.0])
def test_wkb_transmission_matches_oracle_on_gaussian(energy):
    # In the truncated tail phi' = k(x_max) is not exactly k_right, so
    # (alpha, beta) taken straight from (a, b) would miss the oracle by
    # about 3e-12 here; they must come from (psi, psi') matched onto
    # plane waves.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    g = gauge_wkb(wavenumber_field(p, e), grid)
    amp = scattering_amplitudes(p, e, g, 1e-12, grid=grid)
    ref = direct_integrate(p, e, grid, 1e-12)
    assert abs(amp.transmission - ref.transmission) < 1e-12


def test_evolve_without_grid_argument():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    s0 = CoefficientState(-0.4, 0.9 + 0.1j, 0.05j)
    with_grid = evolve(g, r, s0, 0.45, 1e-12, grid=grid)
    standalone = evolve(g, r, s0, 0.45, 1e-12)
    assert standalone.a == pytest.approx(with_grid.a, abs=1e-10)
    assert standalone.b == pytest.approx(with_grid.b, abs=1e-10)


def test_scattering_with_constant_chi_uses_current_route():
    # A constant nonzero chi breaks plane-wave form at the edges; the
    # current-based extraction must still reproduce the direct result.
    p, e, grid, w, g, _ = _barrier_setup(2.0)
    gc = with_constant_chi(g, 0.3)
    amp = scattering_amplitudes(p, e, gc, 1e-12, grid=grid)
    ref = direct_integrate(p, e, grid, 1e-12)
    assert amp.transmission == pytest.approx(ref.transmission, abs=1e-8)


def test_scattering_unequal_asymptotes():
    # Smooth ramp between different asymptotic levels; T from current
    # ratios must match the independent direct route.
    p = _ramp_profile(401)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    assert w.k_left != w.k_right
    amp = scattering_amplitudes(p, e, gauge_constant(w.k_left), 1e-11, grid=grid)
    ref = direct_integrate(p, e, grid, 1e-11)
    assert amp.transmission == pytest.approx(ref.transmission, abs=1e-7)
    assert amp.reflection == pytest.approx(ref.reflection, abs=1e-7)


def test_wkb_gauge_handles_barrier_junctions():
    # phi' jumps at the barrier edges; the junction projections carry the
    # full step-matching and the result stays oracle-exact.
    p, e, grid, w, _, _ = _barrier_setup(2.0)
    g = gauge_wkb(w, grid)
    amp = scattering_amplitudes(p, e, g, 1e-12, grid=grid)
    exact = analytic_square_barrier(1.0, 1.0, e).transmission
    assert amp.transmission == pytest.approx(exact, abs=1e-9)


def test_wkb_gauge_reversible_through_junctions():
    # Backward evolution must apply the inverse junction projections.
    p, e, grid, w, _, _ = _barrier_setup(2.0)
    g = gauge_wkb(w, grid)
    r = rho_pair(g, w)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    fwd = evolve(g, r, s0, grid.x_max, 1e-12, grid=grid)
    back = evolve(g, r, fwd, grid.x_min, 1e-12, grid=grid)
    assert abs(back.a - 1.0) < 1e-9
    assert abs(back.b) < 1e-9


def test_stops_on_barrier_edges_both_routes():
    # Sample points fall exactly on the jumps at x = -0.5 and 0.5.  A stop
    # on an edge belongs to the segment being left, on every route.
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(2.0)
    w = wavenumber_field(p, e)
    grid = DomainGrid(-1.5, 1.5, max_step=1.0 / 256.0)
    xs = np.linspace(grid.x_min, grid.x_max, 13)
    assert -0.5 in xs and 0.5 in xs

    # Direct psi/psi' samples against psi rebuilt from the coefficient pair.
    direct = direct_integrate(p, e, grid, 1e-12, n_samples=xs.size)
    g = gauge_constant(w.k_left)
    psi0 = cmath.exp(1j * w.k_left * grid.x_min) / math.sqrt(w.k_left)
    s0 = project_wavefunction(g, grid.x_min, psi0, 1j * w.k_left * psi0)
    states, _ = evolve_path(g, rho_pair(g, w), s0, xs, 1e-12, grid=grid)
    assert [s.x for s in direct.psi_samples] == list(xs)
    for sample, state in zip(direct.psi_samples, states):
        rebuilt = reconstruct_psi(g, state)
        assert abs(rebuilt.psi - sample.psi) < 1e-8
        assert abs(rebuilt.psi_prime - sample.psi_prime) < 1e-8

    # Backward through the wkb junctions with the same stops reversed.
    # Off the edges the states agree; on an edge the forward walk records
    # the state left of the jump and the backward walk the state right of
    # it, which the junction projection relates.
    g = gauge_wkb(w, grid)
    r = rho_pair(g, w)
    fwd, _ = evolve_path(g, r, CoefficientState(grid.x_min, 1.0 + 0j, 0j),
                         xs[1:], 1e-12, grid=grid)
    back, _ = evolve_path(g, r, fwd[-1], xs[::-1][1:], 1e-12, grid=grid)
    for f, b in zip(fwd[-2::-1], back[:-1]):
        assert f.x == b.x
        left = np.array([f.a, f.b])
        if f.x in (-0.5, 0.5):
            left = _junction(g, [f.x])[0] @ left
            assert np.max(np.abs(left - [f.a, f.b])) > 1e-3
        assert np.max(np.abs(left - [b.a, b.b])) < 1e-9
    assert abs(back[-1].a - 1.0) < 1e-9 and abs(back[-1].b) < 1e-9


def test_evolve_step_underflow():
    from szscatter.errors import StepUnderflow

    _, _, grid, _, g, r = _barrier_setup(2.0)
    s0 = CoefficientState(grid.x_min, 1.0 + 0j, 0j)
    with pytest.raises(StepUnderflow):
        evolve(g, r, s0, grid.x_max, 1e-300, grid=grid)


def test_scattering_closed_channel_propagates():
    from szscatter.errors import AsymptoticallyClosedChannel

    p = square_barrier(1.0, 1.0)
    with pytest.raises(AsymptoticallyClosedChannel):
        scattering_amplitudes(p, EnergySpec(-1.0), gauge_constant(1.0),
                              1e-10)
