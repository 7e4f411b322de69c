"""Hot numerical kernels: adaptive embedded stepping and ordered products.

The kernels are plain numpy/Python functions that read no table: each
takes a generator gen(u, v, x), which returns the entries (g11, g12, g21)
of the traceless 2x2 generator M at an array of positions x (g22 = -g11),
u and v being handed to it unchanged.

There is one Dormand-Prince 5(4) loop, rk45_coeffs, which evaluates the
generator once per step attempt on its six stage positions.  sz_core.evolve
drives it across segments on the coefficient pair; rk45_wave runs it on
the pair psi, psi' of psi'' + k^2 psi = 0 with the generator
(0, 1, -k^2).  The direct solver,
oracle.direct_integrate, uses neither: it integrates spectrally on
Chebyshev panels.  rk45_wave is kept for the perfbench tracer, which
looks it up by name, and for the test that cross-checks the spectral
oracle against it.

The ordered product is one numpy kernel: sixth-order Magnus step
exponentials (Blanes, Casas and Ros, BIT 40 (2000) 434) built as arrays
and multiplied as a pairwise tree, with the generator evaluated at every
step's three Gauss points.
"""

import math

import numpy as np

from ._panels import EDGE_NUDGE


def numba_active() -> bool:
    """Always False: the kernels are plain numpy/Python.  Kept only
    because perfbench's environment record reads it."""
    return False


# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)
# Stage positions as fractions of the step.
_STAGE_C = np.array([0.0, _C2, _C3, _C4, _C5, 1.0])

# RMS of two error ratios is sqrt(1/2) hypot(r1, r2); hypot cannot
# overflow where the sum of squares would.
_SQRT_HALF = math.sqrt(0.5)

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1


def _mul(m, a, b):
    """The traceless generator m = (g11, g12, g21) applied to (a, b)."""
    m11, m12, m21 = m
    return m11 * a + m12 * b, m21 * a - m11 * b


def rk45_coeffs(gen, u, v, x_start, stops, a0, b0, tol, hmax, hmin, inv0,
                out_a, out_b):
    """Adaptive Dormand-Prince 5(4) integration of (a, b)' = M(x) (a, b),
    M = [[g11, g12], [g21, -g11]] with the entries from gen(u, v, x).

    Each step attempt evaluates gen once, on its six stage positions.
    They are clamped EDGE_NUDGE max(1, |x|) inside [x_start, stops[-1]],
    so a generator that jumps at an end of that interval is sampled from
    inside.  Integrates from x_start through every stop in order (the
    final stop is the endpoint), storing the state at each stop.  Returns
    (a, b, drift, n_accepted, n_rejected, status) where drift is the
    largest observed deviation of |a|^2 - |b|^2 from inv0.
    """
    x = x_start
    a = a0
    b = b0
    end = stops[-1]
    lo, hi = min(x_start, end), max(x_start, end)
    lo += EDGE_NUDGE * max(1.0, abs(lo))
    hi -= EDGE_NUDGE * max(1.0, abs(hi))
    dirn = 1.0 if end >= x_start else -1.0
    span = abs(end - x_start)
    h = dirn * min(hmax, 0.02 * span + 64.0 * hmin)
    drift = 0.0
    n_acc = 0
    n_rej = 0
    status = STATUS_OK
    for k in range(stops.shape[0]):
        xt = stops[k]
        while dirn * (xt - x) > 0.0:
            hs = h
            if abs(hs) > abs(xt - x):
                hs = xt - x
            m = np.array(gen(u, v, np.clip(x + _STAGE_C * hs, lo, hi))
                         ).T.tolist()
            k1a, k1b = _mul(m[0], a, b)
            ya = a + hs * (_A21 * k1a)
            yb = b + hs * (_A21 * k1b)
            k2a, k2b = _mul(m[1], ya, yb)
            ya = a + hs * (_A31 * k1a + _A32 * k2a)
            yb = b + hs * (_A31 * k1b + _A32 * k2b)
            k3a, k3b = _mul(m[2], ya, yb)
            ya = a + hs * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
            yb = b + hs * (_A41 * k1b + _A42 * k2b + _A43 * k3b)
            k4a, k4b = _mul(m[3], ya, yb)
            ya = a + hs * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
            yb = b + hs * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
            k5a, k5b = _mul(m[4], ya, yb)
            ya = a + hs * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a
                           + _A65 * k5a)
            yb = b + hs * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b
                           + _A65 * k5b)
            k6a, k6b = _mul(m[5], ya, yb)
            a_new = a + hs * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a
                              + _B6 * k6a)
            b_new = b + hs * (_B1 * k1b + _B3 * k3b + _B4 * k4b + _B5 * k5b
                              + _B6 * k6b)
            k7a, k7b = _mul(m[5], a_new, b_new)
            err_a = hs * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a
                          + _E6 * k6a + _E7 * k7a)
            err_b = hs * (_E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b
                          + _E6 * k6b + _E7 * k7b)
            sc_a = tol + tol * max(abs(a), abs(a_new))
            sc_b = tol + tol * max(abs(b), abs(b_new))
            ra = abs(err_a) / sc_a
            rb = abs(err_b) / sc_b
            err = _SQRT_HALF * math.hypot(ra, rb)
            if err <= 1.0:
                x = x + hs
                a = a_new
                b = b_new
                n_acc += 1
                inv = (a.real * a.real + a.imag * a.imag) \
                    - (b.real * b.real + b.imag * b.imag)
                dev = abs(inv - inv0)
                if dev > drift:
                    drift = dev
            else:
                n_rej += 1
            if err < 1.0e-30:
                fac = 5.0
            else:
                fac = 0.9 * err ** (-0.2)
                if fac > 5.0:
                    fac = 5.0
                elif fac < 0.2:
                    fac = 0.2
            h_mag = abs(hs) * fac
            if h_mag > hmax:
                h_mag = hmax
            if h_mag < hmin:
                if err > 1.0:
                    status = STATUS_STEP_UNDERFLOW
                    return a, b, drift, n_acc, n_rej, status
                h_mag = hmin
            h = dirn * h_mag
        out_a[k] = a
        out_b[k] = b
    return a, b, drift, n_acc, n_rej, status


def _wave_generator(k_squared, _, x):
    """Traceless generator (0, 1, -k^2) of the pair (psi, psi')."""
    k2 = np.asarray(k_squared(x))
    return np.zeros_like(k2), np.ones_like(k2), -k2


def rk45_wave(k_squared, x_start, stops, p0, q0, tol, hmax, hmin,
              out_p, out_q):
    """rk45_coeffs on psi'' + k^2 psi = 0 as the pair (psi, psi').
    Independent of the gauge machinery by construction: the only field it
    reads is the callable k_squared.  Returns (psi, psi', n_accepted,
    n_rejected, status)."""
    p, q, _, n_acc, n_rej, status = rk45_coeffs(
        _wave_generator, k_squared, None, x_start, stops, p0, q0, tol, hmax,
        hmin, 0.0, out_p, out_q)
    return p, q, n_acc, n_rej, status


# Gauss-Legendre nodes of one step, as fractions of h, and the weights
# of the sixth-order Magnus step's differences of the generator.
_GAUSS_NODES = (0.5 - math.sqrt(15.0) / 10.0, 0.5,
                0.5 + math.sqrt(15.0) / 10.0)
_ALPHA2 = math.sqrt(15.0) / 3.0
_ALPHA3 = 10.0 / 3.0

# Steps multiplied per tree reduction; bounds the temporary arrays.
PRODUCT_BLOCK = 1 << 16


def _comm(x, y):
    """Commutator [X, Y] of traceless matrices stored as the rows (p, q, r)
    of [[p, q], [r, -p]]."""
    p1, q1, r1 = x
    p2, q2, r2 = y
    return np.array([q1 * r2 - q2 * r1, 2.0 * (p1 * q2 - p2 * q1),
                     2.0 * (r1 * p2 - p1 * r2)])


def _magnus_steps(gen, u, v, x0, h, n):
    """Entries of the n step exponentials exp(Omega) of [x0 + i h,
    x0 + (i + 1) h] for the sixth-order Magnus step of Blanes, Casas and
    Ros (BIT 40 (2000) 434):

        alpha1 = h A2,  alpha2 = (sqrt(15) h / 3)(A3 - A1),
        alpha3 = (10 h / 3)(A3 - 2 A2 + A1),
        C1 = [alpha1, alpha2],  C2 = -(1/60)[alpha1, 2 alpha3 + C1],
        Omega = alpha1 + alpha3 / 12
                + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2],

    A1, A2 and A3 being the generator gen(u, v, x) at the three Gauss
    points, evaluated in one call on all 3n points.  Omega is traceless,
    so exp(Omega) = cosh(z) I + (sinh(z)/z) Omega with z^2 = Omega11^2 +
    Omega12 Omega21."""
    xs = x0 + np.arange(n) * h
    nodes = np.concatenate([xs + c * h for c in _GAUSS_NODES])
    # Axes: generator entry (g11, g12, g21), Gauss point, step.
    a1, a2, a3 = np.moveaxis(np.reshape(gen(u, v, nodes), (3, 3, n)), 1, 0)
    alpha1 = h * a2
    alpha2 = _ALPHA2 * h * (a3 - a1)
    alpha3 = _ALPHA3 * h * (a3 - 2.0 * a2 + a1)
    c1 = _comm(alpha1, alpha2)
    c2 = _comm(alpha1, 2.0 * alpha3 + c1) / -60.0
    o11, o12, o21 = (alpha1 + alpha3 / 12.0
                     + _comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2)
                     / 240.0)
    z2 = o11 * o11 + o12 * o21
    z = np.sqrt(z2)
    small = np.abs(z) < 1.0e-5
    zs = np.where(small, 1.0, z)
    ch = np.where(small, 1.0 + z2 / 2.0 * (1.0 + z2 / 12.0), np.cosh(zs))
    s = np.where(small, 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0), np.sinh(zs) / zs)
    return ch + s * o11, s * o12, s * o21, ch - s * o11


def _tree_product(m11, m12, m21, m22):
    """Ordered product of a sequence of 2x2 matrices, later ones on the
    left, by multiplying neighbours pairwise until one matrix is left."""
    while m11.size > 1:
        if m11.size % 2:
            m11, m22 = (np.append(m, 1.0) for m in (m11, m22))
            m12, m21 = (np.append(m, 0.0) for m in (m12, m21))
        a11, b11 = m11[0::2], m11[1::2]
        a12, b12 = m12[0::2], m12[1::2]
        a21, b21 = m21[0::2], m21[1::2]
        a22, b22 = m22[0::2], m22[1::2]
        m11, m12, m21, m22 = (b11 * a11 + b12 * a21, b11 * a12 + b12 * a22,
                              b21 * a11 + b22 * a21, b21 * a12 + b22 * a22)
    return complex(m11[0]), complex(m12[0]), complex(m21[0]), complex(m22[0])


def ordered_product(gen, u, v, xa, xb, nsteps):
    """Path-ordered exponential over [xa, xb] in nsteps sixth-order
    Magnus steps, later positions multiplying on the left.

    gen(u, v, x) returns the generator entries (g11, g12, g21) at an
    array of positions x (g22 = -g11); u and v are handed to it
    unchanged.  Blocks of at most PRODUCT_BLOCK steps are reduced as
    trees and then multiplied in order.  Returns the entries (e11, e12,
    e21, e22)."""
    h = (xb - xa) / nsteps
    e11, e12, e21, e22 = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for first in range(0, nsteps, PRODUCT_BLOCK):
        n = min(PRODUCT_BLOCK, nsteps - first)
        b11, b12, b21, b22 = _tree_product(
            *_magnus_steps(gen, u, v, xa + first * h, h, n))
        e11, e12, e21, e22 = (b11 * e11 + b12 * e21, b11 * e12 + b12 * e22,
                              b21 * e11 + b22 * e21, b21 * e12 + b22 * e22)
    return e11, e12, e21, e22


def warm_up() -> None:
    """No-op: there is nothing to compile.  Kept only because perfbench's
    set-up calls it."""
