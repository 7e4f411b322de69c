"""Potential profiles, wavenumber fields, and domain truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from szscatter.errors import AsymptoticallyClosedChannel, NoDecay
from szscatter.potentials import (DomainGrid, EnergySpec, evaluate_potential,
                                  gaussian, pchip_field, poschl_teller,
                                  square_barrier, tabulated,
                                  tabulated_from_file, truncate_domain,
                                  wavenumber_field)


def test_square_barrier_values():
    p = square_barrier(1.0, 1.0, center=0.0)
    assert evaluate_potential(p, 0.0) == 1.0
    assert evaluate_potential(p, 3.0) == 0.0
    assert evaluate_potential(p, -0.49) == 1.0
    np.testing.assert_allclose(evaluate_potential(p, np.array([-1.0, 0.0, 1.0])),
                               [0.0, 1.0, 0.0])


def test_poschl_teller_depth():
    # V(x) = -ell(ell+1) sech^2(x) at scale 1; oracle: direct formula.
    p = poschl_teller(1, 1.0)
    assert evaluate_potential(p, 0.0) == pytest.approx(-2.0, abs=1e-15)
    p2 = poschl_teller(2, 1.0)
    assert evaluate_potential(p2, 0.0) == pytest.approx(-6.0, abs=1e-15)
    assert evaluate_potential(p2, 30.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("ell,scale", [(10**300, 1.0), (1, 1e-200),
                                       (1, 1e200)],
                         ids=["ell", "scale-small", "scale-large"])
def test_poschl_teller_rejects_a_strength_that_is_not_a_float(ell, scale):
    # ell (ell + 1) / scale^2 overflows in the first two and underflows to
    # 0 in the third.
    with pytest.raises(ValueError, match="finite positive"):
        poschl_teller(ell, scale)


def test_gaussian_profile():
    p = gaussian(2.0, 1.5, center=0.5)
    assert evaluate_potential(p, 0.5) == pytest.approx(2.0)
    assert evaluate_potential(p, 0.5 + 1.5) == pytest.approx(2.0 * math.exp(-0.5))


def test_wavenumber_free():
    p = square_barrier(0.0, 1.0)
    w = wavenumber_field(p, EnergySpec(2.0))
    for x in (-5.0, 0.0, 2.5):
        assert w.k_squared(x) == pytest.approx(2.0, abs=1e-15)
    assert w.k_left == pytest.approx(math.sqrt(2.0))


def test_wavenumber_barrier_signs():
    p = square_barrier(1.0, 1.0)
    w = wavenumber_field(p, EnergySpec(2.0))
    assert w.k_squared(0.0) == pytest.approx(1.0)
    assert w.k_squared(2.0) == pytest.approx(2.0)
    # Tunneling: negative inside is a valid field, channels stay open.
    w2 = wavenumber_field(p, EnergySpec(0.5))
    assert w2.k_squared(0.0) == pytest.approx(-0.5)
    assert w2.k_left == pytest.approx(math.sqrt(0.5))
    assert w2.k_right == pytest.approx(math.sqrt(0.5))


@pytest.mark.parametrize("hbar", [1e-200, 1e200])
def test_energy_spec_rejects_units_whose_c1_is_not_a_float(hbar):
    # 2m/hbar^2 overflows at hbar = 1e-200 and underflows at 1e200.
    with pytest.raises(ValueError):
        EnergySpec(1.0, hbar=hbar)


def test_closed_channel_raises():
    p = square_barrier(1.0, 1.0)
    with pytest.raises(AsymptoticallyClosedChannel):
        wavenumber_field(p, EnergySpec(-0.5))
    ramp = tabulated([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0], v_left=1.0, v_right=1.0)
    with pytest.raises(AsymptoticallyClosedChannel):
        wavenumber_field(ramp, EnergySpec(0.5))


@given(st.sampled_from(["square_barrier", "gaussian", "poschl_teller"]),
       st.floats(-8.0, 8.0), st.floats(0.1, 20.0))
@settings(max_examples=60, deadline=None)
def test_k_squared_recomputation(kind, x, energy):
    p = {"square_barrier": lambda: square_barrier(1.0, 2.0),
         "gaussian": lambda: gaussian(0.7, 1.2),
         "poschl_teller": lambda: poschl_teller(2)}[kind]()
    e = EnergySpec(energy)
    w = wavenumber_field(p, e)
    expected = e.c1 * (energy - evaluate_potential(p, x))
    assert w.k_squared(x) == pytest.approx(expected, abs=1e-14, rel=1e-14)


def test_truncate_square_barrier_window():
    p = square_barrier(1.0, 1.0, center=0.0)
    grid = truncate_domain(p, EnergySpec(2.0), 1e-10)
    assert grid.x_min < -0.5 < 0.5 < grid.x_max
    # exactly the support padded by one max_step
    assert grid.x_min == pytest.approx(-0.5 - grid.max_step)
    assert grid.x_max == pytest.approx(0.5 + grid.max_step)


def test_truncate_gaussian_analytic_half_width():
    # Solve V0 exp(-x^2 / 2 sigma^2) = tol * max(|E|, 1) analytically.
    grid = truncate_domain(gaussian(1.0, 1.0), EnergySpec(1.0), 1e-10)
    half = math.sqrt(2.0 * math.log(1e10))
    assert half == pytest.approx(6.7861, abs=1e-4)
    assert grid.x_max >= half
    assert grid.x_max <= half * 1.05


def test_truncate_zero_potential_minimal_window():
    p = square_barrier(0.0, 1.0)
    grid = truncate_domain(p, EnergySpec(1.0))
    assert grid.x_max == pytest.approx(grid.max_step)
    assert grid.x_min == pytest.approx(-grid.max_step)
    # Smooth profiles whose |V| stays below tol * max(|E|, 1) get one step
    # of char_length / 256 either side of the centre.
    for p in (gaussian(1e-12, 1.0), poschl_teller(1, 1e6)):
        grid = truncate_domain(p, EnergySpec(1.0), 1e-10)
        assert grid.max_step == p.char_length / 256
        assert (grid.x_min, grid.x_max) == (-grid.max_step, grid.max_step)


@pytest.mark.parametrize("p,half", [(gaussian(1.0, 2000.0), "13572"),
                                    (poschl_teller(1, 3000.0), "13638")],
                         ids=["gaussian", "poschl_teller"])
def test_truncate_too_wide_smooth_potential_no_decay(p, half):
    with pytest.raises(NoDecay, match=f"half-width {half}"):
        truncate_domain(p, EnergySpec(1.0), 1e-10)


def test_truncate_rejects_non_positive_tol():
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tol"):
            truncate_domain(gaussian(1.0, 1.0), EnergySpec(1.0), tol)


def test_truncate_tail_invariant(suite):
    for case in suite:
        grid, p, e = case.grid, case.potential, case.e
        thresh = grid.tail_tolerance * max(abs(e.energy), 1.0)
        assert abs(evaluate_potential(p, grid.x_min) - p.v_left) <= thresh
        assert abs(evaluate_potential(p, grid.x_max) - p.v_right) <= thresh


def test_tabulated_roundtrip_and_clamp():
    xs = np.linspace(-2.0, 2.0, 21)
    ys = np.exp(-xs**2)
    p = tabulated(xs, ys)
    # exact at the samples
    np.testing.assert_allclose(evaluate_potential(p, xs), ys, atol=0.0)
    # clamped to asymptotes outside
    assert evaluate_potential(p, -10.0) == ys[0]
    assert evaluate_potential(p, 10.0) == ys[-1]


def test_pchip_matches_scipy():
    # Scipy's PchipInterpolator is the reference for the numpy PCHIP:
    # values, first and second derivatives at the knots, between them and
    # up to one unit beyond each end, scaled by the reference's size on
    # the table range.  Tables: a 2-knot line, a flat table, then seeded
    # random tables of 2-60 knots, non-monotone, monotone, and rounded
    # (repeated values: flat and sign-changing secants).
    rng = np.random.default_rng(20)
    tables = [([0.0, 2.0], [1.0, 3.0]), ([0.0, 1.0, 3.0], [2.0, 2.0, 2.0])]
    for trial in range(300):
        n = int(rng.integers(2, 61))
        ys = rng.normal(size=n)
        if trial % 3 == 1:
            ys = np.cumsum(np.abs(ys))
        elif trial % 3 == 2:
            ys = np.round(ys)
        tables.append((np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.5 * n, ys))
    worst = np.zeros(3)
    for xs, ys in tables:
        ref = PchipInterpolator(xs, ys, extrapolate=True)
        mine = pchip_field(xs, ys, order=2)
        mid = np.linspace(xs[0], xs[-1], 7 * len(xs))
        out = np.linspace(1.0, 0.0, 5, endpoint=False)
        x = np.concatenate((xs, mid, xs[0] - out, xs[-1] + out))
        for n in range(3):
            scale = max(1.0, np.max(np.abs(ref.derivative(n)(mid))))
            err = np.abs(mine[n](x) - ref.derivative(n)(x)) / scale
            worst[n] = max(worst[n], np.max(err))
    assert worst[0] <= 1e-14
    assert worst[1] <= 1e-14
    assert worst[2] <= 1e-13


def test_tabulated_requires_increasing_positions():
    with pytest.raises(ValueError):
        tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("xs, ys", [
    ([-math.inf, 0.0, 1.0], [0.0, 1.0, 0.0]),
    ([-1.0, 0.0, 1.0], [0.0, math.nan, 0.0]),
    ([-1.0, 0.0, 1.0], [0.0, math.inf, 0.0]),
], ids=["inf-position", "nan-value", "inf-value"])
def test_pchip_requires_finite_tables(xs, ys):
    with pytest.raises(ValueError, match="finite"):
        pchip_field(xs, ys)


@pytest.mark.parametrize("order", [-1, 4])
def test_pchip_rejects_orders_outside_zero_to_three(order):
    with pytest.raises(ValueError, match="order"):
        pchip_field([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], order=order)
    assert len(pchip_field([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], order=3)) == 4


def test_tabulated_from_file(tmp_path):
    path = tmp_path / "table.dat"
    path.write_text("# position  value\n-1.0 0.0\n0.0 0.5  # peak\n1.0 0.0\n")
    p = tabulated_from_file(path)
    assert evaluate_potential(p, 0.0) == pytest.approx(0.5)
    assert p.kind == "tabulated"


def test_tabulated_no_decay():
    p = tabulated([-1.0, 0.0, 1.0], [0.4, 0.5, 0.4], v_left=0.0, v_right=0.0)
    with pytest.raises(NoDecay):
        truncate_domain(p, EnergySpec(1.0), 1e-10)


def test_domain_grid_validation():
    with pytest.raises(ValueError):
        DomainGrid(1.0, -1.0, max_step=0.1)
    with pytest.raises(ValueError):
        DomainGrid(-1.0, 1.0, tail_tolerance=-1.0, max_step=0.1)
    with pytest.raises(ValueError):
        DomainGrid(-1.0, 1.0, max_step=0.0)


def test_energy_spec_validation():
    with pytest.raises(ValueError):
        EnergySpec(math.nan)
    with pytest.raises(ValueError):
        EnergySpec(1.0, hbar=0.0)
    with pytest.raises(ValueError):
        EnergySpec(1.0, mass=-1.0)
    assert EnergySpec(1.0).c1 == pytest.approx(1.0)
    assert EnergySpec(1.0, hbar=2.0, mass=2.0).c1 == pytest.approx(1.0)
