"""Hot numerical kernels: adaptive embedded stepping and ordered products.

The kernels are plain numpy/Python functions that read no table: each
takes a generator gen(u, v, x), which returns the entries (g11, g12, g21)
of the traceless 2x2 generator M at an array of positions x (g22 = -g11),
u and v being handed to it unchanged.

There is one Dormand-Prince 5(4) loop, rk45_coeffs.  It steps in blocks
of trial steps that share one step size, which grow from BLOCK to
BLOCK_MAX steps while the step size holds: the generator is evaluated
once per block, on the six stage positions of every step, and each
step's 2x2 propagator and error map are built for the whole block as one
array program, since the system is linear.  Only the state is carried
through the block step by step; every step's error test is then one
array program too.  It returns the state at each stop as lists and raises
StepUnderflow itself.  sz_core.evolve drives it across segments on the
coefficient pair; rk45_wave runs it on the pair psi, psi' of
psi'' + k^2 psi = 0 with the generator (0, 1, -k^2).  The direct solver,
oracle.direct_integrate, uses neither: it integrates spectrally on
Chebyshev panels.  rk45_wave is kept for the perfbench tracer, which
looks it up by name, and for the test that cross-checks the spectral
oracle against it.

ordered_product, the path-ordered exponential in equal sixth-order
Magnus steps (Blanes, Casas and Ros, BIT 40 (2000) 434) built as arrays
and multiplied as a pairwise tree (_tree_product), is the tests'
reference for sz_core's panel product, which multiplies its panel maps
with the same tree.
"""

import math

import numpy as np

from ._panels import EDGE_NUDGE
from .errors import StepUnderflow


def numba_active() -> bool:
    """Always False: the kernels are plain numpy/Python.  Kept only
    because perfbench's environment record reads it."""
    return False


# Dormand-Prince 5(4) tableau: stage positions as fractions of the step;
# in _W, row i < 7 holds the coefficients of (I, h K_1, ..., h K_7) in
# stage i + 1's Y, and row 7 the error weights (fifth minus fourth order).
# The method is FSAL: row 6, Y_7, is also the new state's propagator P,
# and the seventh stage sits at the sixth's position.
_STAGE_C = np.array([0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0])
_W = np.zeros((8, 8), dtype=np.complex128)
_W[:7, 0] = 1.0
_W[1:, 1:][np.tril_indices(7)] = (
    0.2, 3 / 40, 9 / 40, 44 / 45, -56 / 15, 32 / 9,
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
    71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
    -1 / 40)

# RMS of two error ratios is sqrt(1/2) hypot(r1, r2); hypot cannot
# overflow where the sum of squares would.
_SQRT_HALF = math.sqrt(0.5)

# Trial steps per block of rk45_coeffs, which share one h.  A block has
# BLOCK steps, or twice the last one's, up to BLOCK_MAX, if that one kept
# every step, reached no stop and grew h by at most _GROWTH times.
BLOCK = 16
BLOCK_MAX = 128
_GROWTH = 1.5
_TAIL = 4
_STEP_INDEX = np.arange(BLOCK_MAX + 1.0)
_EYE = np.eye(2)[:, :, None]


def _dp5_maps(gen, u, v, edges, lo, hi):
    """Propagators P and error maps Q of the Dormand-Prince steps between
    consecutive edges, as arrays of shape (2, 2, n) batched along the last
    axis, one matrix per step.

    The system is linear and its stage positions do not depend on the
    state, so stage i of a step is K_i (a, b) with K_i = M_i Y_i, Y_i =
    I + h sum_l a_il K_l, M_i being the generator at the stage's position.
    The step takes (a, b) to P (a, b), P = Y_7 = I + h sum_i b_i K_i, and
    estimates its error as Q (a, b), Q = h sum_i e_i K_i.  Every step's
    matrices are built at once; the generator is evaluated in one call on
    all six stage positions of every step, clamped to [lo, hi].
    """
    hs = edges[1:] - edges[:-1]
    n = hs.size
    pos = np.minimum(np.maximum(edges[:-1] + _STAGE_C[:, None] * hs, lo), hi)
    g = np.reshape(gen(u, v, pos.ravel()), (3, 6, n))
    hm = np.concatenate((g, -g[:1])) * hs   # entries (11, 12, 21, 22) of h M
    w = np.empty((8, 2, 2, n), dtype=np.complex128)   # I, then h K_1 .. h K_7
    w[0] = _EYE
    w[1] = hm[:, 0].reshape(2, 2, n)
    for i in range(1, 7):
        y = (_W[i, :i + 1] @ w[:i + 1].reshape(i + 1, -1)).reshape(2, 2, n)
        # (h M Y)[:, k] = c[:, 0] Y[0, k] + c[:, 1] Y[1, k], c = h M.
        c = hm[:, min(i, 5)].reshape(2, 2, 1, n)
        np.multiply(c[:, 0], y[0], out=w[i + 1])
        w[i + 1] += c[:, 1] * y[1]
    return y, (_W[7] @ w.reshape(8, -1)).reshape(2, 2, n)


def rk45_coeffs(gen, u, v, x_start, stops, a0, b0, tol, hmax, hmin, inv0):
    """Adaptive Dormand-Prince 5(4) integration of (a, b)' = M(x) (a, b),
    M = [[g11, g12], [g21, -g11]] with the entries from gen(u, v, x).

    Steps in blocks of trial steps that share one h, with one gen call
    per block on all their stage positions (see _dp5_maps); a block grows
    from BLOCK to BLOCK_MAX steps while h holds steady.  Stage positions
    are clamped EDGE_NUDGE max(1, |x|) inside [x_start, stops[-1]], so a
    generator that jumps at an end of that interval is sampled from
    inside.  A block never crosses the next stop: its last step is clipped
    to it, and h, not the clipped step, is what the controller rescales
    after a block that kept every step.  The propagators are applied in
    order, every step is tested at once on the usual RMS error test, and
    the block is kept up to its first failing step.  Integrates from
    x_start through every stop in order (the final stop is the endpoint).
    Returns (a, b, drift, n_accepted, n_rejected): a and b are lists of
    the state at each stop, and drift is the largest observed deviation of
    |a|^2 - |b|^2 from inv0 at accepted steps.  Raises StepUnderflow when
    a step below hmin would still fail the error test.
    """
    x = float(x_start)
    stops = np.asarray(stops, dtype=float).tolist()
    a, b = complex(a0), complex(b0)
    end = stops[-1]
    lo, hi = min(x, end), max(x, end)
    lo += EDGE_NUDGE * max(1.0, abs(lo))
    hi -= EDGE_NUDGE * max(1.0, abs(hi))
    dirn = 1.0 if end >= x else -1.0
    span = abs(end - x)
    h = dirn * min(hmax, 0.02 * span + 64.0 * hmin)
    m = BLOCK
    drift = 0.0
    n_acc = n_rej = 0
    out_a, out_b = [], []
    for xt in stops:
        while dirn * (xt - x) > 0.0:
            edges = x + h * _STEP_INDEX[:m + 1]
            # Steps that start before the stop; the last one ends on it.
            n = int(np.count_nonzero(dirn * (xt - edges[:-1]) > 0.0))
            edges = edges[:n + 1]
            clipped = dirn * (xt - edges[n]) <= 0.0
            if clipped:
                edges[n] = xt
            p, q = _dp5_maps(gen, u, v, edges, lo, hi)
            sa, sb = [a], [b]
            for p11, p12, p21, p22 in p.reshape(4, n).T.tolist():
                a, b = p11 * a + p12 * b, p21 * a + p22 * b
                sa.append(a)
                sb.append(b)
            # Every trial step's error at once; the states past a rejected
            # step may overflow, and are never kept.
            with np.errstate(over="ignore", invalid="ignore"):
                s = np.array((sa, sb))
                mag = np.abs(s)
                sc = tol + tol * np.maximum(mag[:, :-1], mag[:, 1:])
                e = np.abs(q[:, 0] * s[0, :-1] + q[:, 1] * s[1, :-1]) / sc
                err = _SQRT_HALF * np.hypot(e[0], e[1])
                k = int(np.argmin(err <= 1.0))   # the first failing step
                if err[k] <= 1.0:
                    k = n
                inv = mag[0, 1:k + 1] ** 2 - mag[1, 1:k + 1] ** 2
                drift = float(np.max(np.abs(inv - inv0), initial=drift))
            x, a, b = float(edges[k]), sa[k], sb[k]
            n_acc += k
            n_rej += k < n
            # Rescale the failing step by its error, or else h by the
            # largest of the last _TAIL errors.  A lone step clipped to a
            # stop may be far shorter than h, so its error never grows h.
            if k < n:
                worst, h_tried = float(err[k]), abs(edges[k + 1] - edges[k])
            else:
                worst, h_tried = float(err[-_TAIL:].max()), abs(h)
            # A NaN error gives the smallest factor.
            fac = 5.0 if worst < 1.0e-30 else min(
                5.0, max(0.2, 0.9 * worst ** (-0.2)))
            if clipped and n == 1:
                fac = min(fac, 1.0)
            h_mag = min(hmax, h_tried * fac)
            if h_mag < hmin:
                if not worst <= 1.0:
                    raise StepUnderflow(f"adaptive step fell below {hmin:g}")
                h_mag = hmin
            if k < n or h_mag > _GROWTH * h_tried:
                m = BLOCK
            elif not clipped:
                m = min(2 * m, BLOCK_MAX)
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
        m = _mul(m[..., 1::2], m[..., 0::2])
    e = m[..., 0]
    for top in reversed(aside):
        e = _mul(top, e)
    return e


_IDENTITY = np.eye(2, dtype=np.complex128)


def ordered_product(gen, u, v, xa, xb, nsteps):
    """Path-ordered exponential over [xa, xb] in nsteps equal sixth-order
    Magnus steps, later positions multiplying on the left.

    gen(u, v, x) returns the generator entries (g11, g12, g21) at an
    array of positions x (g22 = -g11); u and v are handed to it
    unchanged.  Blocks of at most PRODUCT_BLOCK steps are reduced as trees
    and then multiplied in order.  Returns the entries (e11, e12, e21,
    e22).  Overflow is silent and leaves non-finite entries (steps too
    coarse for a tall barrier do that)."""
    e = _IDENTITY
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, nsteps, PRODUCT_BLOCK):
            k = np.arange(first, min(first + PRODUCT_BLOCK, nsteps) + 1)
            x = xa + (xb - xa) * (k / nsteps)
            e = _mul(_tree_product(_magnus_steps(gen, u, v, x[:-1],
                                                 np.diff(x))), e)
    return tuple(map(complex, e.ravel()))


def warm_up() -> None:
    """No-op: there is nothing to compile.  Kept only because perfbench's
    set-up calls it."""
