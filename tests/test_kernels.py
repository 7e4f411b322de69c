"""Kernel checks: the Dormand-Prince stepper, the Magnus step exponentials
and their ordered product (the reference for sz_core's panel product)."""

import cmath
import math
import warnings

import numpy as np
import pytest

from szscatter import _kernels, sz_core
from szscatter.errors import StepUnderflow
from szscatter.gauges import gauge_constant, rho_pair
from szscatter.potentials import (EnergySpec, gaussian, truncate_domain,
                                  wavenumber_field)

# A constant traceless generator (g11, g12, g21), and its exponential.
_G = (0.3 + 0.4j, 1.1 - 0.2j, -0.7 + 0.5j)


def _constant_generator(entries, _, x):
    return tuple(np.full(x.shape, g) for g in entries)


def _closed_form(dx, a, b):
    """exp(M dx) (a, b) = cosh(z dx) (a, b) + sinh(z dx) / z M (a, b),
    z^2 = g11^2 + g12 g21."""
    g11, g12, g21 = _G
    z = cmath.sqrt(g11 * g11 + g12 * g21)
    ch, sh = cmath.cosh(z * dx), cmath.sinh(z * dx) / z
    return (ch * a + sh * (g11 * a + g12 * b),
            ch * b + sh * (g21 * a - g11 * b))


def _run_constant(x_start, stops, tol, gen=_constant_generator, steps=1):
    # hmax is the span over `steps`.
    stops = np.asarray(stops, dtype=float)
    span = abs(stops[-1] - x_start)
    a0, b0 = 1.0 + 0.5j, -0.25j
    res = _kernels.rk45_coeffs(gen, _G, None, x_start, stops, a0, b0, tol,
                               span / steps, 1e-14 * span, 0.0)
    want = [_closed_form(x - x_start, a0, b0) for x in stops]
    assert len(res[0]) == len(res[1]) == len(stops)
    err = max(max(abs(a - wa), abs(b - wb))
              for a, b, (wa, wb) in zip(res[0], res[1], want))
    return res, err


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("x_start, end", [(0.0, 2.0), (2.0, 0.0)])
def test_rk45_coeffs_matches_constant_exponential(x_start, end, tol):
    (_, _, _, n_acc, _), err = _run_constant(x_start, [end], tol)
    assert n_acc > 0
    assert err <= 10.0 * tol


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_rk45_coeffs_stores_state_at_every_stop(tol):
    # Stops closer together than any step the controller would take, a
    # repeated stop, and stops further apart than a block of steps; walked
    # forward from 0 and backward from 3.
    stops = [0.05, 0.0500001, 0.06, 0.06, 0.7, 0.7000000001, 1.4, 3.0]
    for x_start, walk in ((0.0, stops), (3.0, stops[-2::-1] + [0.0])):
        _, err = _run_constant(x_start, walk, tol)
        assert err <= 10.0 * tol


def _recording(calls, gen):
    def record(u, v, x):
        calls.append(np.reshape(x, (6, -1)))   # stage positions, per step
        return gen(u, v, x)
    return record


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("x_start, stops", [
    (0.0, [1e-7, 1e-7, 2.0 - 1e-7, 2.0]),
    (2.0, [2.0 - 1e-7, 1e-7, 1e-7, 0.0])])
def test_rk45_coeffs_long_blocks_match_constant_exponential(x_start, stops,
                                                            tol):
    # hmax = span / 256 holds h steady, so the blocks double up to their
    # cap between the stops 1.99 apart; the stops 1e-7 apart, and the
    # repeated one, are closer than one step.  A step clipped to such a
    # stop leaves h as it was: one call reaches the first stop, blocks of
    # 16, 32, 64 and 128 steps and one clipped block the third, and one
    # call the last.  (Rescaling h from the clipped step took 13 calls.)
    calls = []
    _, err = _run_constant(x_start, stops, tol,
                           _recording(calls, _constant_generator), 256)
    assert max(c.shape[1] for c in calls) == _kernels.BLOCK_MAX
    assert len(calls) <= 7
    assert err <= 10.0 * tol


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_rk45_coeffs_cuts_a_long_block_at_a_jump(tol):
    # g11 jumps from 0.3 + 0.4i to -2560 at x = 1, inside a block of
    # BLOCK_MAX steps of h = 1/128.  With b = 0, a is a0 e^{g11 x} before
    # the jump and decays by e^{-2560 (x - 1)} after it, but a trial step
    # of h multiplies it by about 1e5, so the trial states past the
    # rejected step overflow.  None of them may reach the states, the
    # counts or a RuntimeWarning.
    g_small, g_big = 0.3 + 0.4j, -2560.0

    def jump(_, __, x):
        zero = np.zeros(x.shape)
        return np.where(x > 1.0, g_big, g_small), zero, zero

    calls = []
    a0 = 1.0 + 0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out_a, out_b, drift, _, n_rej = _kernels.rk45_coeffs(
            _recording(calls, jump), None, None, 0.0, np.array([0.9, 2.0]),
            a0, 0j, tol, 2.0 / 256, 2e-14, 0.0)
    assert n_rej >= 1
    # |a|^2 of the accepted states peaks just before the jump.
    peak = abs(a0) ** 2 * math.exp(2.0 * g_small.real)
    assert peak * math.exp(-0.1) <= drift <= peak * (1.0 + 1e-9)
    # The long block keeps its steps up to the first that samples past
    # the jump, and the next block starts at that step.
    i, block = next((i, c) for i, c in enumerate(calls) if np.any(c > 1.0))
    assert block.shape[1] == _kernels.BLOCK_MAX
    first = int(np.argmax(np.any(block > 1.0, axis=0)))
    assert 0 < first < block.shape[1] - 1
    assert calls[i + 1][0, 0] == block[0, first]
    want = [a0 * cmath.exp(0.9 * g_small),
            a0 * cmath.exp(g_small + (2.0 - 1.0) * g_big)]
    for a, b, wa in zip(out_a, out_b, want):
        assert max(abs(a - wa), abs(b)) <= 10.0 * tol


def test_rk45_coeffs_stops_on_nan_generator():
    # A NaN error estimate rejects the step and shrinks h until the
    # underflow exit, instead of stepping on with a NaN step size.
    def nan_past_one(_, __, x):
        g = np.where(x > 1.0, np.nan, 0.5) + 0j
        return g, g, g

    with pytest.raises(StepUnderflow):
        _kernels.rk45_coeffs(nan_past_one, None, None, 0.0, np.array([2.0]),
                             1.0 + 0j, 0j, 1e-10, 2.0, 2e-14, 1.0)


def test_rk45_coeffs_calls_generator_once_per_block():
    # The transfer cross-check's Gaussian case: the generator is evaluated
    # once per block of steps, and the blocks grow while h holds steady
    # (16-step blocks took 14.3 steps per call).
    p = gaussian(1.0, 1.0)
    e = EnergySpec(2.0)
    grid = truncate_domain(p, e)
    w = wavenumber_field(p, e)
    g = gauge_constant(w.k_left)
    calls = []

    def counting(u, v, x):
        calls.append(x)
        return sz_core._generator(u, v, x)

    _, _, _, n_acc, n_rej = _kernels.rk45_coeffs(
        counting, g, rho_pair(g, w), grid.x_min, np.array([grid.x_max]),
        1.0 + 0j, 0j, 1e-12, grid.max_step, 1e-14 * grid.span, 1.0)
    assert len(calls) <= (n_acc + n_rej) / 20


def _field_generator(fields, _, x):
    """Generator entries from five field callables, in the coefficient
    kernel's row order: phi', diagonal, rho1, rho2, phase."""
    ppr, dia, rh1, rh2, phase = (np.asarray(f(x), dtype=np.complex128)
                                 for f in fields)
    inv2 = 0.5 / ppr
    em = np.exp(-2j * phase)
    return (1j * dia * inv2, (rh1 + 1j * rh2) * em * inv2,
            (rh1 - 1j * rh2) / em * inv2)


def _random_fields(seed):
    # Piecewise-constant fields on 16 intervals of width 0.125 over [0, 2].
    rng = np.random.default_rng(seed)
    n_int = 16
    values = [1.0 + 0.2 * rng.random(n_int),                 # phi' > 0
              rng.normal(size=n_int),                        # diagonal
              rng.normal(size=n_int),                        # rho1
              rng.normal(size=n_int)]                        # rho2

    def piecewise(v):
        return lambda x: v[np.clip((x / 0.125).astype(np.int64), 0,
                                   n_int - 1)]

    return [*(piecewise(v) for v in values), lambda x: x]  # phase ~ x


def test_tree_product_matches_sequential_product():
    # Same generator, same step exponentials: the pairwise tree reduction
    # must agree with plain sequential left-multiplication.  333 steps is
    # odd, so odd levels set their last matrix aside.
    fields = _random_fields(3)
    n = 333
    x = np.linspace(0.0, 2.0, n + 1)
    steps = _kernels._magnus_steps(_field_generator, fields, None, x[:-1],
                                   np.diff(x))
    e = np.eye(2, dtype=np.complex128)
    for step in np.moveaxis(steps, -1, 0):
        e = step @ e
    got = _kernels.ordered_product(_field_generator, fields, None, 0.0, 2.0, n)
    for u, v in zip(got, e.ravel()):
        assert complex(u) == pytest.approx(complex(v), abs=1e-13)


def test_product_blocks_match_single_tree(monkeypatch):
    fields = _random_fields(4)
    whole = _kernels.ordered_product(_field_generator, fields, None,
                                     0.0, 2.0, 333)
    monkeypatch.setattr(_kernels, "PRODUCT_BLOCK", 64)
    blocked = _kernels.ordered_product(_field_generator, fields, None,
                                       0.0, 2.0, 333)
    for u, v in zip(whole, blocked):
        assert complex(u) == pytest.approx(complex(v), abs=1e-13)


def _max_rel_diff(got, want):
    return (np.max(np.abs(np.subtract(got, want)))
            / np.max(np.abs(np.asarray(want))))


# (generator entries, step width, what |z| the step's exponent has).  The
# last case is far from normal: its exponent's entries are about 1,000
# times |z| = 2^-13, so sinh z / z must be accurate to rounding relative to
# itself; taking sinh z as (e^z - e^-z) / 2 is off by about 1e-13 there.
_STEP_CASES = [((0.0, 1.0, 0.0), 0.5, "zero"),
               (_G, 1e-6, "below_1e-5"),
               (_G, 1e-2, "small"),
               (_G, 0.3, "moderate"),
               (_G, 2.0, "large"),
               ((1j, 1.0, 1.0 + 2.0 ** -20), 0.125, "non_normal")]


@pytest.mark.parametrize("entries,h", [c[:2] for c in _STEP_CASES],
                         ids=[c[2] for c in _STEP_CASES])
def test_step_exponential_matches_cosh_sinh_form(entries, h):
    # A constant generator A makes the Magnus exponent h A, whose
    # exponential is cosh(z) I + (sinh(z) / z) h A with z^2 = -det(h A).
    got = _kernels._magnus_steps(_constant_generator, entries, None,
                                 np.zeros(1), np.full(1, h))
    o11, o12, o21 = (h * complex(g) for g in entries)
    z = cmath.sqrt(o11 * o11 + o12 * o21)
    ch, s = (1.0, 1.0) if z == 0 else (cmath.cosh(z), cmath.sinh(z) / z)
    want = (ch + s * o11, s * o12, s * o21, ch - s * o11)
    assert _max_rel_diff(np.ravel(got), want) <= 8.0 * np.finfo(float).eps


def test_overflowing_step_is_non_finite_without_warning():
    # One step over a barrier of height 1e6: the exponent's real part is
    # 1,000, past what a double holds.  The product returns non-finite
    # entries and warns of nothing.
    entries = (1e3 + 0j, 0j, 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = _kernels.ordered_product(_constant_generator, entries, None,
                                          0.0, 1.0, 1)
    assert not all(map(cmath.isfinite, single))


def test_magnus_product_is_sixth_order():
    # A smooth cubic per field, so the generator is analytic over [0, 2]:
    # step doubling must shrink the Cauchy differences |E_2n - E_n| by
    # about 2^6.
    fields = _cubic_fields()
    prods = [np.array(_kernels.ordered_product(_field_generator, fields, None,
                                               0.0, 2.0, n))
             for n in (8, 16, 32, 64, 128)]
    diffs = [np.max(np.abs(b - a)) for a, b in zip(prods, prods[1:])]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert coarse / fine > 48.0


def _cubic_fields():
    coeffs = ([0.0, 0.05, 0.1, 1.0], [0.1, -0.2, 0.3, 0.5],
              [0.0, 0.3, -0.4, 0.2], [-0.1, 0.0, 0.5, 0.7],
              [0.0, 0.0, 1.0, 0.0])
    return [lambda x, c=c: np.polyval(c, x) for c in coeffs]


def test_step_exponential_is_unimodular():
    fields = [lambda x, c=c: np.full(x.shape, c)
              for c in (1.0, 0.7, -0.3, 1.1)] + [lambda x: x]
    e11, e12, e21, e22 = _kernels.ordered_product(_field_generator, fields,
                                                  None, 0.0, 2.0, 64)
    det = e11 * e22 - e12 * e21
    assert complex(det) == pytest.approx(1.0, abs=1e-12)


def test_warm_up_runs():
    _kernels.warm_up()
