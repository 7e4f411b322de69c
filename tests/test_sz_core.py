"""Evolution, transfer matrices, reconstruction, and amplitude extraction."""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest

from szscatter import _tables, sz_core
from szscatter._kernels import ordered_product
from szscatter.errors import GaugeDegenerate, NonConvergence
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


def test_rhs_zero_for_free_constant_gauge():
    _, _, _, _, g, r = _free_setup()
    m = rhs_matrix(g, r, 0.4)
    assert np.max(np.abs(m)) < 1e-14


def test_rhs_degenerate_gauge():
    g = GaugeTriple(
        phi=constant_field(0.0), phi_prime=constant_field(0.0),
        phi_double_prime=constant_field(0.0), delta=constant_field(0.0),
        delta_prime=constant_field(0.0), chi=constant_field(0.0),
        chi_prime=constant_field(0.0), phi_prime_scale=1.0)
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


def test_transfer_matrix_identity_and_det():
    _, _, grid, _, g, r = _barrier_setup(2.0)
    E0 = transfer_matrix(g, r, 0.1, 0.1, grid=grid)
    np.testing.assert_array_equal(E0.entries, np.eye(2, dtype=complex))
    E = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=1e-10, grid=grid)
    assert E.det == pytest.approx(1.0, abs=1e-10)


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
    assert coarse.det == pytest.approx(fine.det, abs=1e-8)


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
@pytest.mark.parametrize("gauge_name", ["constant", "special_delta"])
def test_refined_product_within_tol_on_tabulated_ramp(energy, gauge_name):
    # V'' jumps at the PCHIP knots, so the generator is only C^1 there and
    # the product converges more slowly than its sixth order near them: an
    # acceptance test that assumes the order (|E_2n - E_n| / 63, or / 15
    # for fourth order) misses tol here.  The reference is a brute-force
    # product of 2^14 steps per unit length; halving or doubling that
    # count moves it by at most 6e-13, far below the smallest tol.
    p = _ramp_profile(41)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    if gauge_name == "special_delta":
        g = gauge_special_delta(g, w, grid)
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
    assert g.is_real
    sigma3 = np.diag([1.0, -1.0])
    for tol in (1e-7, 1e-12):
        E = transfer_matrix(g, r, grid.x_min, grid.x_max, tol=tol, grid=grid)
        drift = E.entries.conj().T @ sigma3 @ E.entries - sigma3
        assert np.max(np.abs(drift)) <= 1e-12
        assert abs(E.det - 1.0) <= 1e-12


def test_prediction_bounds_product_calls(monkeypatch):
    # The probe pair (n, 2n) predicts the graded pair (m, 2m); refinement
    # computes that pair next, so an analytic profile needs at most four
    # products per segment piece, the probe's two included.  Both the probe
    # and product_pair count as two products.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    base = gauge_constant(w.k_left)
    gauges = [base, gauge_special_delta(base, w, grid), gauge_wkb(w, grid),
              gauge_antiphase(base)]
    calls = {"pieces": 0, "products": 0}

    def counted(name, fn, products=1):
        def wrapper(*args):
            calls[name] += products
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sz_core, "_refined_product",
                        counted("pieces", sz_core._refined_product))
    monkeypatch.setattr(sz_core, "product_probe",
                        counted("products", sz_core.product_probe, 2))
    monkeypatch.setattr(sz_core, "product_pair",
                        counted("products", sz_core.product_pair, 2))
    for g in gauges:
        transfer_matrix(g, rho_pair(g, w), grid.x_min, grid.x_max,
                        tol=1e-12, grid=grid)
    assert calls["pieces"] >= len(gauges)
    assert calls["products"] <= 4 * calls["pieces"]


def _gaussian_gauges(energy):
    """Gaussian(1, 1) at energy: its grid, its wavenumber field and every
    admissible gauge (wkb needs E above the barrier top)."""
    p = gaussian(1.0, 1.0)
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    base = gauge_constant(w.k_left)
    gauges = [base, gauge_special_delta(base, w, grid), gauge_antiphase(base)]
    if energy > 1.0:
        gauges.append(gauge_wkb(w, grid))
    return grid, w, gauges


@pytest.mark.parametrize("energy", [0.1, 2.0, 10.0])
def test_first_graded_pair_is_accepted(monkeypatch, energy):
    # The probe's signed contributions predict the graded pair's Cauchy
    # difference to within a few percent here, and the pair aims at half
    # of tol, so no piece needs a second graded pair: exactly one pair
    # after the probe.  Summing the contributions' sizes instead (scaled
    # to the probe's difference) misses by up to 13 times in the
    # antiphase gauge at E = 10, where they largely cancel.
    grid, w, gauges = _gaussian_gauges(energy)
    pairs = []
    real = sz_core.product_pair

    def counted(*args):
        pairs.append(args[5])
        return real(*args)

    monkeypatch.setattr(sz_core, "product_pair", counted)
    for g in gauges:
        pairs.clear()
        transfer_matrix(g, rho_pair(g, w), grid.x_min, grid.x_max,
                        tol=1e-12, grid=grid)
        assert len(pairs) == 1


@pytest.mark.parametrize("energy", [0.1, 2.0, 10.0])
def test_two_generator_calls_per_piece(monkeypatch, energy):
    # A work count, not a wall time: the probe evaluates the generator on
    # its n coarse and 2n fine steps in one call, and the graded pair on
    # its m and 2m steps in one more, so each segment piece costs exactly
    # two generator calls.  Computing each product apart costs four.
    grid, w, gauges = _gaussian_gauges(energy)
    calls = {"pieces": 0, "generator": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sz_core, "_refined_product",
                        counted("pieces", sz_core._refined_product))
    monkeypatch.setattr(sz_core, "_generator",
                        counted("generator", sz_core._generator))
    for g in gauges:
        calls.update(pieces=0, generator=0)
        transfer_matrix(g, rho_pair(g, w), grid.x_min, grid.x_max,
                        tol=1e-12, grid=grid)
        assert calls["pieces"] >= 1
        assert calls["generator"] == 2 * calls["pieces"]


def test_refined_product_jump_respects_step_cap(monkeypatch):
    # The probe pair agrees to its own size (difference 1e-3), so its
    # contributions predict a graded pair: 8 cells of 1.25e-4 each give
    # m = 132 steps at tol 1e-10, and 2m exceeds the patched cap of 128.
    # Refinement gives up at once instead of computing that pair.
    probed = []
    pairs = []

    def fake_probe(gen, g, r, a, b, n):
        probed.append(n)
        parts = (np.full(n, 1e-3 / n, dtype=complex), *np.zeros((3, n)))
        return (1.0 + 0j, 0j, 0j, 1.0 + 0j), (1.001 + 0j, 0j, 0j,
                                              1.0 + 0j), parts

    def fake_pair(gen, g, r, a, b, n, density=None):
        pairs.append(n)
        unit = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
        return unit, unit

    monkeypatch.setattr(sz_core, "MAX_PRODUCT_STEPS", 128)
    monkeypatch.setattr(sz_core, "product_probe", fake_probe)
    monkeypatch.setattr(sz_core, "product_pair", fake_pair)
    with pytest.raises(NonConvergence):
        sz_core._refined_product(None, None, 0.0, 1.0, 8, 1e-10)
    assert probed == [8]
    assert pairs == []


def test_missed_graded_pair_re_predicts_from_its_difference(monkeypatch):
    # The probe predicts m = 132 at tol 1e-10 (as in the step-cap test
    # above).  That pair misses with a difference of 64 tol, so the next
    # count comes from its own difference at sixth order, m' = ceil(m (d /
    # (tol / 2))^(1/6)) = 297, computed afresh; doubling would give 264.
    pairs = []
    unit = (1.0 + 0j, 0j, 0j, 1.0 + 0j)

    def fake_probe(gen, g, r, a, b, n):
        parts = (np.full(n, 1e-3 / n, dtype=complex), *np.zeros((3, n)))
        return unit, (1.001 + 0j, 0j, 0j, 1.0 + 0j), parts

    def fake_pair(gen, g, r, a, b, n, density=None):
        pairs.append(n)
        miss = 64e-10 if len(pairs) == 1 else 0.0
        return unit, (1.0 + miss + 0j, 0j, 0j, 1.0 + 0j)

    monkeypatch.setattr(sz_core, "product_probe", fake_probe)
    monkeypatch.setattr(sz_core, "product_pair", fake_pair)
    sz_core._refined_product(None, None, 0.0, 1.0, 8, 1e-10)
    assert pairs == [132, 297]


@pytest.mark.parametrize("persistent", [False, True],
                         ids=["at_16_steps", "from_16_steps_on"])
@pytest.mark.parametrize("bad", [(math.inf, 0j, 0j, 1.0 + 0j),
                                 (1.0 + 0j, complex(math.nan), 0j, 1.0 + 0j)],
                         ids=["overflow", "nan_not_first"])
def test_refined_product_rejects_non_finite_product(monkeypatch, bad,
                                                     persistent):
    # An overflowed product makes the rounding floor infinite, and max()
    # skips a NaN that is not its first argument; neither may pass the
    # Cauchy test.  Refinement steps past a non-finite product, and gives
    # up if every finer product is non-finite too.  Products of 16 steps
    # (and, when persistent, of more) come back bad, whether the probe
    # pair or a graded pair holds them.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    real_probe, real_pair = sz_core.product_probe, sz_core.product_pair

    def spoilt(n):
        return n == 16 or (persistent and n > 16)

    def probe(gen, u, v, a, b, n):
        if spoilt(n) and spoilt(2 * n):
            return tuple(map(complex, bad)), tuple(map(complex, bad)), \
                np.zeros((4, n), dtype=complex)
        coarse, fine, parts = real_probe(gen, u, v, a, b, n)
        if spoilt(n):
            coarse = tuple(map(complex, bad))
        if spoilt(2 * n):
            fine = tuple(map(complex, bad))
        return coarse, fine, parts

    def pair(gen, u, v, a, b, n, density=None):
        if spoilt(n) and spoilt(2 * n):
            return tuple(map(complex, bad)), tuple(map(complex, bad))
        coarse, fine = real_pair(gen, u, v, a, b, n, density)
        if spoilt(n):
            coarse = tuple(map(complex, bad))
        if spoilt(2 * n):
            fine = tuple(map(complex, bad))
        return coarse, fine

    monkeypatch.setattr(sz_core, "product_probe", probe)
    monkeypatch.setattr(sz_core, "product_pair", pair)
    args = (g, rho_pair(g, w), grid.x_min, grid.x_max, 8, 1e-10)
    if persistent:
        with pytest.raises(NonConvergence):
            sz_core._refined_product(*args)
    else:
        assert np.all(np.isfinite(sz_core._refined_product(*args)))


# Work cap for the special_delta cases below: product steps computed per
# call, 3n for each probe and each pair (n, 2n).  Each case takes
# 16,000-33,000 steps; a refinement that jumps from a pre-asymptotic pair
# takes millions.
SPECIAL_DELTA_STEP_CAP = 100_000


@pytest.mark.parametrize("potential,energy", [
    (poschl_teller(3, 0.657), 0.32), (gaussian(-10.4, 0.86), 0.018),
    (gaussian(11.8, 1.54), 0.11), (poschl_teller(4, 0.75), 0.5)],
    ids=["sech2-l3", "deep-well", "tall-barrier", "sech2-l4"])
def test_special_delta_product_converges_on_deep_profiles(monkeypatch,
                                                          potential, energy):
    # At 64 coarse steps these products reach 1e17-1e23, so the first pair
    # is far from the asymptotic regime; predicting from it once stalled
    # (NonConvergence) or jumped to 8M steps (sech2 l=4, about 70 s).  The
    # counter raises as soon as the cap is passed, so a stall fails fast.
    steps = [0]

    def capped(fn, per_call):
        def wrapper(*args):
            steps[0] += per_call * args[5]
            assert steps[0] <= SPECIAL_DELTA_STEP_CAP
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sz_core, "product_probe",
                        capped(sz_core.product_probe, 3))
    monkeypatch.setattr(sz_core, "product_pair",
                        capped(sz_core.product_pair, 3))
    e = EnergySpec(energy)
    grid = truncate_domain(potential, e)
    w = wavenumber_field(potential, e)
    g = gauge_special_delta(gauge_constant(w.k_left), w, grid)
    amp = scattering_amplitudes(potential, e, g, 1e-12)
    ref = direct_integrate(potential, e, grid, 1e-12)
    assert amp.transmission == pytest.approx(ref.transmission, rel=1e-9)
    assert amp.reflection == pytest.approx(ref.reflection, rel=1e-9,
                                           abs=1e-12)


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
        chi_prime=constant_field(0.0), phi_prime_scale=k)


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
    assert E.det == pytest.approx(1.0, abs=1e-9)
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
        is_real=False, label="complex-test", phi_prime_scale=1.2)
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
            left = _junction(g, f.x) @ left
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
