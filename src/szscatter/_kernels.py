"""Hot numerical kernels: adaptive embedded stepping and ordered products.

The kernels are plain numpy/Python functions that read no table: each
takes a generator gen(u, v, x), which returns the entries (g11, g12, g21)
of the traceless 2x2 generator M at an array of positions x (g22 = -g11),
u and v being handed to it unchanged.

There is one Dormand-Prince 5(4) loop, rk45_coeffs.  It steps in blocks
of up to BLOCK trial steps that share one step size: the generator is
evaluated once per block, on the six stage positions of every step, and
each step's 2x2 propagator and error map are built for the whole block as
one array program, since the system is linear.  Only the accept test runs
step by step.  It returns the state at each stop as lists and raises
StepUnderflow itself.  sz_core.evolve drives it across segments on the
coefficient pair; rk45_wave runs it on the pair psi, psi' of
psi'' + k^2 psi = 0 with the generator (0, 1, -k^2).  The direct solver,
oracle.direct_integrate, uses neither: it integrates spectrally on
Chebyshev panels.  rk45_wave is kept for the perfbench tracer, which
looks it up by name, and for the test that cross-checks the spectral
oracle against it.

The ordered product is one numpy kernel: sixth-order Magnus step
exponentials (Blanes, Casas and Ros, BIT 40 (2000) 434) built as arrays
and multiplied as a pairwise tree, with the generator evaluated at every
step's three Gauss points.  ordered_product spaces its steps by an
optional step density, equal when none is given.  sz_core refines with
pairs of products on n and 2n steps, each pair from one generator call
per block: product_probe on equal steps, with what each of the n cells
contributes to their difference, from which sz_core grades the density,
and product_pair on the graded steps.
"""

import math

import numpy as np

from ._panels import EDGE_NUDGE
from .errors import StepUnderflow


def numba_active() -> bool:
    """Always False: the kernels are plain numpy/Python.  Kept only
    because perfbench's environment record reads it."""
    return False


# Dormand-Prince 5(4) tableau: stage positions as fractions of the step,
# stage coefficients (row i holds a_i1 .. a_i,i-1) and the weights of the
# error estimate (fifth minus fourth order).  The method is FSAL: row 6,
# the seventh stage's coefficients, is also the weights of the new state,
# and the seventh stage sits at the sixth stage's position.
_STAGE_C = np.array([0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0])
_A = (None, np.array([0.2]), np.array([3.0 / 40.0, 9.0 / 40.0]),
      np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
      np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
                -212.0 / 729.0]),
      np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                49.0 / 176.0, -5103.0 / 18656.0]),
      np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                -2187.0 / 6784.0, 11.0 / 84.0]))
_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])

# RMS of two error ratios is sqrt(1/2) hypot(r1, r2); hypot cannot
# overflow where the sum of squares would.
_SQRT_HALF = math.sqrt(0.5)

# Trial steps per block of rk45_coeffs; the steps of a block share one h.
BLOCK = 16
_STEP_INDEX = np.arange(BLOCK + 1.0)
_EYE = np.eye(2)[:, :, None]


def _dp5_maps(gen, u, v, edges, lo, hi):
    """Propagators P and error maps Q of the Dormand-Prince steps between
    consecutive edges, as lists of entries (11, 12, 21, 22), one per step.

    The system is linear and its stage positions do not depend on the
    state, so stage i of a step is K_i (a, b) with K_i = M_i Y_i, Y_i =
    I + h sum_l a_il K_l, M_i being the generator at the stage's position.
    The step takes (a, b) to P (a, b), P = Y_7 = I + h sum_i b_i K_i, and
    estimates its error as Q (a, b), Q = h sum_i e_i K_i.  Every step's
    matrices are built at once, as 2x2 matrices batched along the last
    axis; the generator is evaluated in one call on all six stage
    positions of every step, clamped to [lo, hi].
    """
    hs = np.diff(edges)
    n = hs.size
    pos = np.clip(edges[:-1] + _STAGE_C[:, None] * hs, lo, hi)
    g11, g12, g21 = np.reshape(gen(u, v, pos.ravel()), (3, 6, n)) * hs
    # Columns of h M_i, so that (h M_i Y)[:, k] = col0 Y[0, k] + col1 Y[1, k].
    col0 = np.stack((g11, g21), axis=1)[:, :, None]
    col1 = np.stack((g12, -g11), axis=1)[:, :, None]
    hk = np.empty((7, 2, 2, n), dtype=np.complex128)   # h K_i
    hk[0] = col0[0] * _EYE[0] + col1[0] * _EYE[1]
    for i in range(1, 7):
        y = _EYE + (_A[i] @ hk[:i].reshape(i, -1)).reshape(2, 2, n)
        j = min(i, 5)   # the seventh stage sits at the sixth's position
        hk[i] = col0[j] * y[0] + col1[j] * y[1]
    q = _E @ hk.reshape(7, -1)
    return y.reshape(4, n).T.tolist(), q.reshape(4, n).T.tolist()


def rk45_coeffs(gen, u, v, x_start, stops, a0, b0, tol, hmax, hmin, inv0):
    """Adaptive Dormand-Prince 5(4) integration of (a, b)' = M(x) (a, b),
    M = [[g11, g12], [g21, -g11]] with the entries from gen(u, v, x).

    Steps in blocks of up to BLOCK trial steps that share one h, with one
    gen call per block on all their stage positions (see _dp5_maps).
    Stage positions are clamped EDGE_NUDGE max(1, |x|) inside [x_start,
    stops[-1]], so a generator that jumps at an end of that interval is
    sampled from inside.  A block never crosses the next stop: its last
    step is clipped to it.  The steps are then accepted in order on the
    usual RMS error test; the block ends at its first rejected step, and
    the next h follows from the block's worst error.  Integrates from
    x_start through every stop in order (the final stop is the endpoint).
    Returns (a, b, drift, n_accepted, n_rejected): a and b are lists of
    the state at each stop, and drift is the largest observed deviation of
    |a|^2 - |b|^2 from inv0 at accepted steps.  Raises StepUnderflow when
    a step below hmin would still fail the error test.
    """
    x = float(x_start)
    stops = np.asarray(stops, dtype=float).tolist()
    a = complex(a0)
    b = complex(b0)
    end = stops[-1]
    lo, hi = min(x, end), max(x, end)
    lo += EDGE_NUDGE * max(1.0, abs(lo))
    hi -= EDGE_NUDGE * max(1.0, abs(hi))
    dirn = 1.0 if end >= x else -1.0
    span = abs(end - x)
    h = dirn * min(hmax, 0.02 * span + 64.0 * hmin)
    drift = 0.0
    n_acc = 0
    n_rej = 0
    out_a = []
    out_b = []
    for xt in stops:
        while dirn * (xt - x) > 0.0:
            edges = x + h * _STEP_INDEX
            # Steps that start before the stop; the last one ends on it.
            n = int(np.count_nonzero(dirn * (xt - edges[:-1]) > 0.0))
            edges = edges[:n + 1]
            if dirn * (xt - edges[n]) <= 0.0:
                edges[n] = xt
            # The step the controller rescales: h, clipped to the stop.
            h_tried = min(abs(h), abs(xt - x))
            p, q = _dp5_maps(gen, u, v, edges, lo, hi)
            worst = 0.0
            for (p11, p12, p21, p22), (q11, q12, q21, q22), xe in zip(
                    p, q, edges[1:].tolist()):
                a_new = p11 * a + p12 * b
                b_new = p21 * a + p22 * b
                sc_a = tol + tol * max(abs(a), abs(a_new))
                sc_b = tol + tol * max(abs(b), abs(b_new))
                err = _SQRT_HALF * math.hypot(abs(q11 * a + q12 * b) / sc_a,
                                              abs(q21 * a + q22 * b) / sc_b)
                if not err <= 1.0:
                    worst = err
                    n_rej += 1
                    break
                worst = max(worst, err)
                x = xe
                a = a_new
                b = b_new
                n_acc += 1
                inv = (a.real * a.real + a.imag * a.imag) \
                    - (b.real * b.real + b.imag * b.imag)
                drift = max(drift, abs(inv - inv0))
            if worst < 1.0e-30:
                fac = 5.0
            else:
                # A NaN error gives the smallest factor.
                fac = min(5.0, max(0.2, 0.9 * worst ** (-0.2)))
            h_mag = min(hmax, h_tried * fac)
            if h_mag < hmin:
                if not worst <= 1.0:
                    raise StepUnderflow(f"adaptive step fell below {hmin:g}")
                h_mag = hmin
            h = dirn * h_mag
        out_a.append(a)
        out_b.append(b)
    return out_a, out_b, drift, n_acc, n_rej


def _wave_generator(k_squared, _, x):
    """Traceless generator (0, 1, -k^2) of the pair (psi, psi')."""
    k2 = np.asarray(k_squared(x))
    return np.zeros_like(k2), np.ones_like(k2), -k2


def rk45_wave(k_squared, x_start, stops, p0, q0, tol, hmax, hmin):
    """rk45_coeffs on psi'' + k^2 psi = 0 as the pair (psi, psi').
    Independent of the gauge machinery by construction: the only field it
    reads is the callable k_squared.  Returns (psi, psi', n_accepted,
    n_rejected), psi and psi' being lists of the values at each stop."""
    p, q, _, n_acc, n_rej = rk45_coeffs(
        _wave_generator, k_squared, None, x_start, stops, p0, q0, tol, hmax,
        hmin, 0.0)
    return p, q, n_acc, n_rej


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


def _magnus_steps(gen, u, v, x, h):
    """The step exponentials exp(Omega) of [x_i, x_i + h_i] (arrays of step
    starts and widths), as an array of shape (2, 2, n), for the
    sixth-order Magnus step of Blanes, Casas and Ros (BIT 40 (2000) 434):

        alpha1 = h A2,  alpha2 = (sqrt(15) h / 3)(A3 - A1),
        alpha3 = (10 h / 3)(A3 - 2 A2 + A1),
        C1 = [alpha1, alpha2],  C2 = -(1/60)[alpha1, 2 alpha3 + C1],
        Omega = alpha1 + alpha3 / 12
                + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2],

    A1, A2 and A3 being the generator gen(u, v, x) at the three Gauss
    points, evaluated in one call on all 3n points.  Omega is traceless,
    so exp(Omega) = cosh(z) I + (sinh(z)/z) Omega with z^2 = Omega11^2 +
    Omega12 Omega21; cosh and sinh of z = x + iy come from real functions
    of x and y, which keep sinh(z)/z accurate relative to itself."""
    nodes = np.concatenate([x + c * h for c in _GAUSS_NODES])
    # Axes: generator entry (g11, g12, g21), Gauss point, step.
    a1, a2, a3 = np.moveaxis(np.reshape(gen(u, v, nodes), (3, 3, x.size)),
                             1, 0)
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
    shx, chx = np.sinh(zs.real), np.cosh(zs.real)
    cy, sy = np.cos(zs.imag), np.sin(zs.imag)
    ch = np.where(small, 1.0 + z2 / 2.0 * (1.0 + z2 / 12.0),
                  chx * cy + 1j * (shx * sy))
    s = np.where(small, 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0),
                 (shx * cy + 1j * (chx * sy)) / zs)
    return np.array([[ch + s * o11, s * o12], [s * o21, ch - s * o11]])


def _mul(b, a):
    """B A for 2x2 matrices stored as arrays of shape (2, 2, ...), whose
    trailing axes hold independent matrices."""
    return b[:, :1] * a[0] + b[:, 1:] * a[1]


def _pairs(m):
    """Products M_{2i+1} M_{2i} of neighbours along the last axis."""
    return _mul(m[..., 1::2], m[..., 0::2])


def _tree_product(m):
    """Ordered product of the 2x2 matrices along the last axis, later ones
    on the left, by multiplying neighbours pairwise until one is left.  A
    level of odd length sets its last matrix aside, and the set-aside
    matrices multiply on the left at the end, the latest last."""
    aside = []
    while m.shape[-1] > 1:
        if m.shape[-1] % 2:
            aside.append(m[..., -1])
            m = m[..., :-1]
        m = _pairs(m)
    e = m[..., 0]
    for top in reversed(aside):
        e = _mul(top, e)
    return e


_IDENTITY = np.eye(2, dtype=np.complex128)


def _step_ends(xa, xb, density, t):
    """Step ends at the shares t of the density's total (ordered_product)."""
    cdf = np.cumsum(np.append(0.0, 1.0 if density is None else density))
    return np.interp(t, cdf / cdf[-1], np.linspace(xa, xb, cdf.size))


def ordered_product(gen, u, v, xa, xb, nsteps, density=None):
    """Path-ordered exponential over [xa, xb] in nsteps sixth-order
    Magnus steps, later positions multiplying on the left.

    gen(u, v, x) returns the generator entries (g11, g12, g21) at an
    array of positions x (g22 = -g11); u and v are handed to it
    unchanged.  density, if given, is a positive step density on
    len(density) equal cells of [xa, xb], constant on each: step k ends
    where the density's integral from xa reaches k / nsteps of its total.
    Without it the steps are equal.  Blocks of at most PRODUCT_BLOCK steps
    are reduced as trees and then multiplied in order.  Returns the
    entries (e11, e12, e21, e22).  Overflow is silent and leaves
    non-finite entries (steps too coarse for a tall barrier do that),
    which the caller rejects."""
    e = _IDENTITY
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, nsteps, PRODUCT_BLOCK):
            k = np.arange(first, min(first + PRODUCT_BLOCK, nsteps) + 1)
            x = _step_ends(xa, xb, density, k / nsteps)
            e = _mul(_tree_product(_magnus_steps(gen, u, v, x[:-1],
                                                 np.diff(x))), e)
    return tuple(map(complex, e.ravel()))


def _pair_steps(gen, u, v, x):
    """Coarse steps [x_2i, x_2i+2] (row 0) and the products of their two
    fine steps (row 1) from one generator call on the fine nodes x."""
    n = x.size // 2
    e = _magnus_steps(gen, u, v, np.concatenate((x[:-2:2], x[:-1])),
                      np.concatenate((x[2::2] - x[:-2:2], np.diff(x))))
    return np.stack((e[..., :n], _pairs(e[..., n:])), 2)


def product_pair(gen, u, v, xa, xb, n, density=None):
    """The products (E_n, E_2n) of n and 2n steps spaced as in
    ordered_product, with one generator call per block of PRODUCT_BLOCK // 3
    coarse steps.  Fine node 2k is coarse node k bit for bit (k / n ==
    2k / 2n), so the coarse steps and the pairs of fine steps line up and
    are reduced as the two rows of one tree.  Overflow is silent."""
    block = PRODUCT_BLOCK // 3
    e = _IDENTITY[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, block):
            k = np.arange(2 * first, 2 * min(first + block, n) + 1)
            x = _step_ends(xa, xb, density, k / (2 * n))
            e = _mul(_tree_product(_pair_steps(gen, u, v, x)), e)
    return tuple(map(complex, e[..., 0].ravel())), \
        tuple(map(complex, e[..., 1].ravel()))


def product_probe(gen, u, v, xa, xb, n):
    """The products of n and of 2n equal sixth-order Magnus steps over
    [xa, xb], and what each of the n cells contributes to their
    difference.

    Cell i's local error is its product of two half steps F_i less its
    one step C_i.  Carried to the ends of [xa, xb] by the fine steps
    after it and the coarse steps before it, the errors sum to the
    difference exactly: F_n-1 ... F_0 - C_n-1 ... C_0 = sum_i F_n-1 ...
    F_i+1 (F_i - C_i) C_i-1 ... C_0.  All 3n steps take one generator
    call; the prefix products of the C_i and, transposed, of the F_i^T
    latest first are one scan (Hillis and Steele, CACM 29 (1986) 1170).
    Returns (coarse, fine, parts): the products as entries (e11, e12, e21,
    e22), and the contributions as four arrays of n entries."""
    x = xa + (xb - xa) * (np.arange(2 * n + 1) / (2 * n))
    m = np.empty((2, 2, 2, n + 1), dtype=np.complex128)
    m[..., 0] = _IDENTITY[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        c, f = np.moveaxis(_pair_steps(gen, u, v, x), 2, 0)
        m[:, :, 0, 1:] = c
        m[:, :, 1, 1:] = f[..., ::-1].swapaxes(0, 1)
        s = 1
        while s <= n:
            m[..., s:] = _mul(m[..., s:], m[..., :-s])
            s *= 2
        before, after = m[:, :, 0], m[:, :, 1, ::-1].swapaxes(0, 1)
        parts = _mul(_mul(after[..., 1:], f - c), before[..., :-1])
    return tuple(map(complex, before[..., -1].ravel())), \
        tuple(map(complex, after[..., 0].ravel())), parts.reshape(4, n)


def warm_up() -> None:
    """No-op: there is nothing to compile.  Kept only because perfbench's
    set-up calls it."""
