"""Reference-solver tests.

The analytic square-barrier values are frozen from the closed form
T = [1 + V0^2 sin^2(k2 L) / (4 E (E - V0))]^{-1} (trig branch) and its
hyperbolic continuation; the direct integrator is then held to them.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szscatter import _kernels, _panels, _tables, oracle
from szscatter._kernels import rk45_wave
from szscatter.errors import AsymptoticallyClosedChannel, NonConvergence
from szscatter.oracle import (analytic_reflectionless, analytic_square_barrier,
                              direct_integrate)
from szscatter.sz_core import WavefunctionSample, _plane_wave_pair
from szscatter.potentials import (EnergySpec, gaussian, poschl_teller,
                                  square_barrier, truncate_domain,
                                  wavenumber_field)

# Frozen from the closed form with V0 = 1, L = 1:
#   E = 2.0: T = 1 / (1 + sin(1)^2 / 8)
#   E = 0.5: T = 1 / (1 + sinh(sqrt(0.5))^2)
T_BARRIER_E2 = 0.9186877068827066
T_BARRIER_E05 = 0.6292902736348536


def test_analytic_barrier_trig_branch():
    res = analytic_square_barrier(1.0, 1.0, EnergySpec(2.0))
    assert res.transmission == pytest.approx(1.0 / (1.0 + math.sin(1.0) ** 2 / 8.0), abs=1e-15)
    assert res.transmission == pytest.approx(T_BARRIER_E2, abs=1e-14)
    assert res.method == "analytic_square_barrier"


def test_analytic_barrier_hyperbolic_branch():
    res = analytic_square_barrier(1.0, 1.0, EnergySpec(0.5))
    kappa = math.sqrt(0.5)
    expected = 1.0 / (1.0 + math.sinh(kappa) ** 2 / (4 * 0.5 * 0.5))
    assert res.transmission == pytest.approx(expected, abs=1e-15)
    assert res.transmission == pytest.approx(T_BARRIER_E05, abs=1e-14)


def test_analytic_barrier_high_energy_limit():
    res = analytic_square_barrier(1.0, 1.0, EnergySpec(1.0e6))
    assert res.transmission > 1.0 - 1e-6


def test_analytic_barrier_continuous_through_resonant_energy():
    # At E = V0 the trig/hyperbolic branches meet at the sinc limit
    # T = 1 / (1 + c1 E L^2 / 4).
    at = analytic_square_barrier(1.0, 1.0, EnergySpec(1.0))
    assert at.transmission == pytest.approx(1.0 / 1.25, abs=1e-14)
    above = analytic_square_barrier(1.0, 1.0, EnergySpec(1.0 + 1e-9))
    below = analytic_square_barrier(1.0, 1.0, EnergySpec(1.0 - 1e-9))
    assert above.transmission == pytest.approx(at.transmission, abs=1e-9)
    assert below.transmission == pytest.approx(at.transmission, abs=1e-9)


def test_analytic_barrier_closed_channel():
    with pytest.raises(AsymptoticallyClosedChannel):
        analytic_square_barrier(1.0, 1.0, EnergySpec(-2.0))


def test_reflectionless_family():
    for ell, energy in ((1, 1.0), (2, 0.5), (1, 10.0)):
        res = analytic_reflectionless(ell, EnergySpec(energy))
        assert res.transmission == 1.0
        assert res.reflection == 0.0


def test_reflectionless_rejects_bad_input():
    with pytest.raises(ValueError):
        analytic_reflectionless(0, EnergySpec(1.0))
    with pytest.raises(ValueError):
        # 2m/hbar^2 = 4 makes the well strength 8, not n(n+1).
        analytic_reflectionless(1, EnergySpec(1.0, hbar=1.0, mass=2.0))
    # 2m/hbar^2 = 3 turns ell = 1 into strength 6 = 2*3: still integer n.
    res = analytic_reflectionless(1, EnergySpec(1.0, hbar=1.0, mass=1.5))
    assert res.transmission == 1.0


def test_direct_free_potential():
    p = square_barrier(0.0, 1.0)
    e = EnergySpec(1.0)
    res = direct_integrate(p, e, truncate_domain(p, e), 1e-12)
    assert res.transmission == pytest.approx(1.0, abs=1e-12)
    assert res.reflection < 1e-12


@pytest.mark.parametrize("energy,frozen", [(2.0, T_BARRIER_E2),
                                           (0.5, T_BARRIER_E05)])
def test_direct_matches_analytic_barrier(energy, frozen):
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(energy)
    res = direct_integrate(p, e, truncate_domain(p, e), 1e-12)
    assert res.transmission == pytest.approx(frozen, abs=1e-6)
    assert res.method == "direct_integration"


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("energy", [0.5, 1.0, 10.0])
def test_direct_reflectionless(ell, energy):
    p = poschl_teller(ell)
    e = EnergySpec(energy)
    res = direct_integrate(p, e, truncate_domain(p, e), 1e-12)
    assert res.reflection < 1e-7
    assert res.transmission == pytest.approx(1.0, abs=1e-7)


def test_direct_rejects_non_positive_tol():
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tol"):
            direct_integrate(p, e, grid, tol)


def test_unitarity_for_equal_asymptotes(suite):
    for case in suite:
        res = direct_integrate(case.potential, case.e, case.grid, 1e-12)
        assert res.transmission + res.reflection == pytest.approx(1.0, abs=1e-9), case.name


def test_plane_wave_matching_residual():
    # Predict the wavefunction a fraction inside the window from the
    # edge-matched plane-wave pair; the prediction must agree with the
    # integrated solution to < 1e-8.
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    res = direct_integrate(p, e, grid, 1e-12, n_samples=513)
    edge = res.psi_samples[-1]
    k = w.k_right
    root = math.sqrt(k)
    fwd = 0.5 * root * np.exp(-1j * k * edge.x) * (edge.psi + edge.psi_prime / (1j * k))
    bwd = 0.5 * root * np.exp(+1j * k * edge.x) * (edge.psi - edge.psi_prime / (1j * k))
    inner = res.psi_samples[-8]
    predicted = (fwd * np.exp(1j * k * inner.x) + bwd * np.exp(-1j * k * inner.x)) / root
    assert abs(predicted - inner.psi) < 1e-8
    # The left edge state is the pure incident wave by construction.
    first = res.psi_samples[0]
    k_l = w.k_left
    incident = np.exp(1j * k_l * first.x) / math.sqrt(k_l)
    assert abs(first.psi - incident) < 1e-12


# --------------------------------------------------------------------------
# The spectral panel solver behind direct_integrate.

def test_antiderivative_matches_closed_form():
    anti = _panels.antiderivative(np.cos, [-2.0, 0.5, 3.0])
    xs = np.linspace(-2.0, 3.0, 301)
    expected = np.sin(xs) - np.sin(-2.0)
    np.testing.assert_allclose(anti(xs), expected, atol=1e-12)
    # continuity across the interior edge
    assert anti(0.5 - 1e-12) == pytest.approx(anti(0.5 + 1e-12), abs=1e-11)
    # scalar call path
    assert anti(1.0) == pytest.approx(np.sin(1.0) - np.sin(-2.0), abs=1e-12)


def test_antiderivative_samples_jumps_one_sided():
    calls = []

    def step(x):
        calls.append(x.size)
        return np.where(x >= 0.0, 2.0, -1.0)

    # Sampled from its own side, each piece is constant, so the first
    # batch of panels is accepted; a sample of the other side's value at
    # 0 would force bisection toward the jump.
    anti = _panels.antiderivative(step, [-1.0, 0.0, 1.0])
    assert len(calls) == 1
    np.testing.assert_allclose(anti(np.array([-1.0, -0.5, 0.0, 0.5, 1.0])),
                               [0.0, -0.5, -1.0, 0.0, 1.0], atol=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn", [
    lambda x: 1.0 / x,                          # infinite at the left end
    lambda x: np.where(x > 0.5, np.nan, 1.0),   # NaN on one piece
], ids=["inf", "nan"])
def test_antiderivative_rejects_non_finite_integrand(fn):
    with pytest.raises(NonConvergence, match="not finite"):
        _panels.antiderivative(fn, [0.0, 0.5, 1.0])


def _rk45_wave_transmission(p, e, grid, tol):
    """T from the retained Runge-Kutta route: rk45_wave on k^2 over the
    window (smooth potentials only), matched at the right edge."""
    w = wavenumber_field(p, e)
    psi0 = np.exp(1j * w.k_left * grid.x_min) / math.sqrt(w.k_left)
    (psi,), (dpsi,), _, _ = rk45_wave(
        w.k_squared, grid.x_min, np.array([grid.x_max]), psi0,
        1j * w.k_left * psi0, tol, grid.max_step, 1e-14 * grid.span)
    fwd, _ = _plane_wave_pair(WavefunctionSample(grid.x_max, psi, dpsi),
                              w.k_right)
    return 1.0 / abs(fwd) ** 2


def _panel_count(p, e, tol):
    grid = truncate_domain(p, e)
    jumps = np.array(sorted(set(p.discontinuities)), dtype=float)
    panels = oracle._panels(wavenumber_field(p, e).k_squared, jumps, grid,
                            p.char_length, tol)
    return panels.a.size


@pytest.mark.parametrize("energy", [0.1, 1.0, 10.0, 100.0])
def test_direct_matches_closed_form_barrier(energy):
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(energy)
    res = direct_integrate(p, e, truncate_domain(p, e), 1e-12)
    exact = analytic_square_barrier(1.0, 1.0, e).transmission
    assert abs(res.transmission - exact) <= 1e-12


@given(st.floats(0.1, 5.0), st.floats(0.1, 3.0), st.floats(0.05, 50.0))
@settings(max_examples=60, deadline=None)
def test_direct_random_barriers(v0, width, energy):
    p = square_barrier(v0, width)
    e = EnergySpec(energy)
    res = direct_integrate(p, e, truncate_domain(p, e), 1e-12)
    exact = analytic_square_barrier(v0, width, e).transmission
    assert abs(res.transmission - exact) <= 1e-10
    assert abs(res.transmission + res.reflection - 1.0) <= 1e-12


@pytest.mark.parametrize("energy", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("build", [lambda: gaussian(1.0, 1.0),
                                   lambda: poschl_teller(2),
                                   lambda: gaussian(5.0, 0.05)],
                         ids=["gauss", "pt2", "narrow_gauss"])
def test_direct_matches_rk45_wave_route(build, energy):
    # The narrow Gaussian is a twentieth of a panel wide, so its panels
    # must be bisected before they pass.
    p = build()
    e = EnergySpec(energy)
    grid = truncate_domain(p, e)
    res = direct_integrate(p, e, grid, 1e-12)
    assert abs(res.transmission - _rk45_wave_transmission(p, e, grid,
                                                          1e-12)) <= 1e-9


class _Refused(Exception):
    pass


def test_direct_builds_no_table_and_takes_no_rk_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Refused

    # Every name any szscatter module holds these functions under.
    refused = {id(_tables.build_segment_table), id(_kernels.rk45_wave),
               id(_kernels.rk45_coeffs)}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "szscatter":
            for attr, value in list(vars(module).items()):
                if id(value) in refused:
                    monkeypatch.setattr(module, attr, refuse)
    p = square_barrier(1.0, 1.0)
    e = EnergySpec(2.0)
    res = direct_integrate(p, e, truncate_domain(p, e), 1e-12, n_samples=9)
    assert res.transmission == pytest.approx(T_BARRIER_E2, abs=1e-12)
    assert len(res.psi_samples) == 9


def test_loose_tolerance_needs_fewer_panels():
    p = gaussian(5.0, 0.05)
    e = EnergySpec(2.0)
    tight = _panel_count(p, e, 1e-12)
    loose = _panel_count(p, e, 1e-4)
    assert loose < tight
    grid = truncate_domain(p, e)
    t_tight = direct_integrate(p, e, grid, 1e-12).transmission
    assert direct_integrate(p, e, grid, 1e-4).transmission == pytest.approx(
        t_tight, abs=1e-4)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("degree", [0, 1, 23])
def test_panel_evaluation_matches_chebval(dtype, degree):
    # Clenshaw over one coefficient row per degree against numpy's chebval
    # on each point's gathered row: the same recurrence in another order,
    # so equal to a few ulps of the coefficients' scale.
    rng = np.random.default_rng(degree)
    a = np.sort(rng.uniform(-6.0, 6.0, 64))
    a[0] = -6.0
    h = 0.5 * np.diff(np.append(a, 6.0))
    coef = rng.normal(size=(64, degree + 1)).astype(dtype)
    if dtype is complex:
        coef += 1j * rng.normal(size=coef.shape)
    x = np.concatenate((rng.uniform(-6.0, 6.0, 500), a, [6.0]))
    i = np.clip(np.searchsorted(a, x, side="left") - 1, 0, a.size - 1)
    want = np.polynomial.chebyshev.chebval((x - a[i]) / h[i] - 1.0,
                                           coef[i].T, tensor=False)
    got = _panels.evaluate(a, h, coef, x)
    # On a panel |T_k| <= 1, so a row's absolute sum bounds its values.
    scale = np.max(np.sum(np.abs(coef), axis=1))
    assert np.max(np.abs(got - want)) <= 8 * (degree + 1) * np.finfo(
        float).eps * scale


def test_chebyshev_operators_match_numpy_polynomial():
    # Built from T_k(t_j) = cos(k theta_j) and the integral recurrence,
    # the operators are numpy.polynomial's to rounding.
    from numpy.polynomial.chebyshev import chebint, chebvander

    n = _panels.PANEL_NODES
    t = -np.cos(np.pi * np.arange(n) / (n - 1))
    to_coef = np.linalg.inv(chebvander(t, n - 1))
    s = chebvander(t, n) @ chebint(np.eye(n), lbnd=-1.0, axis=0) @ to_coef
    assert np.array_equal(_panels.NODES, t)
    assert np.max(np.abs(_panels.TO_COEF - to_coef)) <= 1e-15
    assert np.max(np.abs(_panels.S - s)) <= 1e-15


def test_one_window_subdivide_is_the_general_cut():
    # A one-window call takes linspace; the same window given twice takes
    # the general cut, whose first half must be the same floats.
    rng = np.random.default_rng(7)
    for _ in range(5000):
        lo = rng.uniform(-50.0, 50.0) * 10.0 ** rng.uniform(-3.0, 3.0)
        hi = lo + 10.0 ** rng.uniform(-6.0, 3.0)
        width = (hi - lo) / rng.uniform(0.3, 300.0)
        a, b = _panels.subdivide(np.array([lo]), np.array([hi]), width)
        a2, b2 = _panels.subdivide(np.array([lo, lo]), np.array([hi, hi]),
                                   width)
        assert np.array_equal(a, a2[:a.size])
        assert np.array_equal(b, b2[:b.size])


def _recorded_panels(monkeypatch, fn):
    """(a, h, coef) of the panel interpolant the scalar call fn(0.0)
    evaluates."""
    seen = []
    real = _panels.evaluate

    def record(a, h, coef, x):
        seen.append((a, h, coef))
        return real(a, h, coef, x)

    monkeypatch.setattr(_panels, "evaluate", record)
    fn(0.0)
    monkeypatch.setattr(_panels, "evaluate", real)
    return seen[0]


@pytest.mark.parametrize("gauge_name", ["wkb", "special_delta"])
def test_scalar_evaluation_is_the_array_path(monkeypatch, gauge_name):
    # The Python-float Clenshaw loop of a scalar position does the array
    # recurrence's operations in its order: bitwise equal inside panels,
    # on panel ends and extrapolated on both sides.
    from szscatter.gauges import (gauge_constant, gauge_special_delta,
                                  gauge_wkb)

    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    w = wavenumber_field(p, e)
    grid = truncate_domain(p, e)
    if gauge_name == "wkb":
        fn = gauge_wkb(w, grid).phi
    else:
        fn = gauge_special_delta(gauge_constant(w.k_left), w, grid).delta
    a, h, coef = _recorded_panels(monkeypatch, fn)
    rng = np.random.default_rng(3)
    b = a + 2.0 * h
    inside = a + h * rng.uniform(0.0, 2.0, (50, a.size))
    x = np.concatenate((a, b, inside.ravel(),
                        a[0] - rng.uniform(0.0, 3.0, 50),
                        b[-1] + rng.uniform(0.0, 3.0, 50)))
    want = _panels.evaluate(a, h, coef, x)
    got = [_panels.evaluate(a, h, coef, xi) for xi in x]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_panel_cap_raises_nonconvergence(monkeypatch):
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    n = _panel_count(p, e, 1e-12)
    monkeypatch.setattr(_panels, "MAX_PANELS", n - 1)
    with pytest.raises(NonConvergence):
        direct_integrate(p, e, grid, 1e-12)
    monkeypatch.setattr(_panels, "MAX_PANELS", n)
    direct_integrate(p, e, grid, 1e-12)


def test_keyed_bisect_refines_each_path_to_its_own_share(monkeypatch):
    # Two paths of one panel [0, 1] each, with spans 1 and 100, and an
    # error estimate 0.5 tol (b - a)^2: path 0 passes at once, path 1 only
    # on halves of width 1/64, its share tol (b - a) / 100.  The kept
    # panels come in (path, position) order, and the cap counts each
    # path's panels apart.
    def solve(a, b, key):
        return 0.5 * 1e-6 * (b - a) ** 2, 0.0, key

    def run():
        return _panels.bisect(solve, np.zeros(2), np.ones(2), [1.0, 100.0],
                              1e-6, np.array([0, 1]))

    a, b, _, key = run()
    assert np.array_equal(key, [0] + [1] * 64)
    assert np.array_equal(a, np.concatenate(([0.0], np.arange(64) / 64)))
    assert np.array_equal(b[1:], np.arange(1, 65) / 64)
    monkeypatch.setattr(_panels, "MAX_PANELS", 64)
    assert np.array_equal(run()[3], key)
    monkeypatch.setattr(_panels, "MAX_PANELS", 63)
    with pytest.raises(NonConvergence):
        run()


def test_samples_match_rk45_wave_route():
    # Panel-interpolant samples against the Runge-Kutta route
    # stopped at the same positions.
    p = poschl_teller(2)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    xs = np.linspace(grid.x_min, grid.x_max, 37)
    res = direct_integrate(p, e, grid, 1e-12, n_samples=xs.size)
    psi0 = np.exp(1j * w.k_left * grid.x_min) / math.sqrt(w.k_left)
    out_p, out_q, _, _ = rk45_wave(w.k_squared, grid.x_min, xs, psi0,
                                   1j * w.k_left * psi0, 1e-12,
                                   grid.max_step, 1e-14 * grid.span)
    assert [s.x for s in res.psi_samples] == list(xs)
    assert max(abs(s.psi - q) for s, q in zip(res.psi_samples, out_p)) < 1e-9
    assert max(abs(s.psi_prime - q)
               for s, q in zip(res.psi_samples, out_q)) < 1e-9


def test_tolerance_below_rounding_stops_at_rounding_floor():
    # Panel estimates cannot fall below rounding; such a tol is served at
    # the rounding level instead of bisecting until the cap.
    p = poschl_teller(2)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    reference = direct_integrate(p, e, grid, 1e-12).transmission
    for tol in (1e-15, 1e-300):
        res = direct_integrate(p, e, grid, tol)
        assert res.transmission == pytest.approx(reference, abs=1e-12)
