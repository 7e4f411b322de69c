"""Potential profiles, the local wavenumber field, and domain truncation.

Analytic profiles carry closed-form V and V'.  Tabulated profiles, and
tabulated gauge fields, go through pchip_field, the one monotone-cubic
(PCHIP) interpolant of the package, written in numpy alone.
"""

from math import perm

import numpy as np
from dataclasses import dataclass, field

from .errors import AsymptoticallyClosedChannel, NoDecay

# Hard ceiling on the truncation half-width before giving up (NoDecay).
MAX_HALF_WIDTH = 1.0e4

# Window edges are padded/truncated in units of span/GRID_DIVISIONS.
GRID_DIVISIONS = 256


def scalarize(raw, cast=float):
    """Wrap an ndarray->ndarray function so scalar input yields a scalar."""

    def fn(x):
        xv = np.asarray(x, dtype=float)
        out = raw(xv)
        if xv.ndim == 0:
            return cast(out)
        return out

    return fn


@dataclass(frozen=True, eq=False)
class PotentialProfile:
    """Evaluable V(x) with known asymptotic values.

    Build instances through square_barrier, gaussian, poschl_teller,
    tabulated or tabulated_from_file.
    """

    kind: str
    v_left: float
    v_right: float
    params: dict
    discontinuities: tuple
    char_length: float
    value: object = field(repr=False)
    deriv: object = field(repr=False)

    def __call__(self, x):
        return self.value(x)


def square_barrier(v0: float, width: float, center: float = 0.0) -> PotentialProfile:
    """Rectangular barrier (or well, for v0 < 0) of the given width."""
    if width < 0:
        raise ValueError("width must be >= 0")
    lo = center - 0.5 * width
    hi = center + 0.5 * width

    def raw(xv):
        return np.where((xv >= lo) & (xv <= hi), float(v0), 0.0)

    discs = (lo, hi) if (v0 != 0 and width > 0) else ()
    return PotentialProfile(
        kind="square_barrier",
        v_left=0.0,
        v_right=0.0,
        params={"v0": float(v0), "width": float(width), "center": float(center)},
        discontinuities=discs,
        char_length=max(width, 1.0),
        value=scalarize(raw),
        deriv=scalarize(lambda xv: np.zeros_like(xv)),
    )


def gaussian(v0: float, sigma: float, center: float = 0.0) -> PotentialProfile:
    """Gaussian bump V(x) = v0 exp(-(x-c)^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")

    def raw(xv):
        return v0 * np.exp(-0.5 * ((xv - center) / sigma) ** 2)

    def raw_deriv(xv):
        return raw(xv) * (-(xv - center) / sigma**2)

    return PotentialProfile(
        kind="gaussian",
        v_left=0.0,
        v_right=0.0,
        params={"v0": float(v0), "sigma": float(sigma), "center": float(center)},
        discontinuities=(),
        char_length=max(sigma, 1.0),
        value=scalarize(raw),
        deriv=scalarize(raw_deriv),
    )


def poschl_teller(ell: int, scale: float = 1.0) -> PotentialProfile:
    """Attractive sech^2 well V(x) = -ell(ell+1) sech^2(x/s) / s^2.

    For integer ell (in units where 2m/hbar^2 = 1) this family is
    reflectionless at every positive energy.
    """
    if int(ell) != ell or ell < 1:
        raise ValueError("ell must be a positive integer")
    if scale <= 0:
        raise ValueError("scale must be > 0")
    amp = ell * (ell + 1) / scale**2

    def raw(xv):
        return -amp / np.cosh(xv / scale) ** 2

    def raw_deriv(xv):
        u = xv / scale
        return (2.0 * amp / scale) * np.tanh(u) / np.cosh(u) ** 2

    return PotentialProfile(
        kind="poschl_teller",
        v_left=0.0,
        v_right=0.0,
        params={"ell": int(ell), "scale": float(scale)},
        discontinuities=(),
        char_length=max(scale, 1.0),
        value=scalarize(raw),
        deriv=scalarize(raw_deriv),
    )


def pchip_field(positions, values, order: int = 1) -> tuple:
    """Monotone-cubic (PCHIP) interpolant of a table and its derivatives
    up to `order` (at most 3), as callables built once.

    The knot slopes are those of scipy's PchipInterpolator: the weighted
    harmonic mean of the neighbouring secants (Fritsch & Butland, SIAM J.
    Sci. Stat. Comput. 5 (1984) 300), 0 where they differ in sign or one
    is 0, and at the ends scipy's three-point rule, clamped to keep the
    shape; a 2-point table is linear.  Each piece is a cubic in the
    distance from its left knot, summed in scipy's order.  A knot belongs
    to the piece on its right, and the end pieces extrapolate.
    """
    xs = np.asarray(positions, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need two 1-d arrays of equal length >= 2")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("table entries must be finite")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("table positions must be strictly increasing")
    if order not in range(4):
        raise ValueError("order must be 0, 1, 2 or 3")
    h = np.diff(xs)
    m = np.diff(ys) / h
    d = np.full(xs.size, m[0])
    if xs.size > 2:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = ((np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0)
                | (m[:-1] == 0))
        ml, mr = np.where(flat, 1.0, m[:-1]), np.where(flat, 1.0, m[1:])
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / ml + w2 / mr) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        over = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                              np.where(over, 3.0 * m0, end))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    # coef[p]: the coefficient of s^p, s measured from the left knot.
    coef = (ys[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)

    def piece(n):
        # The n-th derivative, sum of p!/(p-n)! coef[p] s^(p-n), p >= n.
        c = [perm(p, n) * coef[p] for p in range(n, 4)]

        def raw(xv):
            i = np.clip(np.searchsorted(xs, xv, side="right") - 1,
                        0, xs.size - 2)
            s = xv - xs[i]
            out, z = c[0][i], s
            for row in c[1:]:
                out, z = out + row[i] * z, z * s
            return out

        return scalarize(raw)

    return tuple(piece(n) for n in range(order + 1))


def tabulated(positions, values, v_left=None, v_right=None) -> PotentialProfile:
    """Sampled potential, monotone-cubic interpolated inside the sample
    range and clamped to the asymptotic values outside."""
    xs = np.asarray(positions, dtype=float)
    ys = np.asarray(values, dtype=float)
    pchip, dpchip = pchip_field(xs, ys)
    vl = float(ys[0] if v_left is None else v_left)
    vr = float(ys[-1] if v_right is None else v_right)
    x_lo, x_hi = float(xs[0]), float(xs[-1])

    def raw(xv):
        out = np.where(xv < x_lo, vl, np.where(xv > x_hi, vr, 0.0))
        inside = (xv >= x_lo) & (xv <= x_hi)
        if np.any(inside):
            out = np.where(inside, pchip(np.clip(xv, x_lo, x_hi)), out)
        return out

    def raw_deriv(xv):
        inside = (xv >= x_lo) & (xv <= x_hi)
        vals = dpchip(np.clip(xv, x_lo, x_hi))
        return np.where(inside, vals, 0.0)

    return PotentialProfile(
        kind="tabulated",
        v_left=vl,
        v_right=vr,
        params={"x_min": x_lo, "x_max": x_hi, "n_samples": int(xs.size)},
        discontinuities=(),
        char_length=max(x_hi - x_lo, 1.0),
        value=scalarize(raw),
        deriv=scalarize(raw_deriv),
    )


def load_table(path) -> tuple:
    """Read a two-column whitespace-separated table ('#' comments) into
    (positions, values) arrays."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns, got {data.shape[1]}")
    return data[:, 0], data[:, 1]


def tabulated_from_file(path, v_left=None, v_right=None) -> PotentialProfile:
    """Tabulated potential from a two-column text file."""
    xs, ys = load_table(path)
    return tabulated(xs, ys, v_left=v_left, v_right=v_right)


def evaluate_potential(p: PotentialProfile, x):
    """V(x) for scalar or array positions."""
    return p.value(x)


@dataclass(frozen=True)
class EnergySpec:
    """Scattering energy plus units; defaults give 2m/hbar^2 = 1."""

    energy: float
    hbar: float = 1.0
    mass: float = 0.5

    def __post_init__(self):
        for name in ("energy", "hbar", "mass"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.hbar <= 0:
            raise ValueError("hbar must be > 0")
        if self.mass <= 0:
            raise ValueError("mass must be > 0")
        try:
            c1 = self.c1
        except (OverflowError, ZeroDivisionError):
            c1 = 0.0
        if not (c1 > 0.0 and np.isfinite(c1)):
            raise ValueError("2m/hbar^2 must be a finite positive float")

    @property
    def c1(self) -> float:
        """2m/hbar^2, the factor multiplying E - V(x) in k^2, in Python
        floats, whose overflow raises instead of warning."""
        return 2.0 * float(self.mass) / float(self.hbar) ** 2


@dataclass(frozen=True, eq=False)
class WaveNumberField:
    """Local k^2(x) = (2m/hbar^2)(E - V(x)) and the asymptotic wavenumbers."""

    k_squared: object = field(repr=False)
    k_left: float = 0.0
    k_right: float = 0.0
    breakpoints: tuple = ()
    k: object = field(repr=False, default=None)
    k_prime: object = field(repr=False, default=None)


def wavenumber_field(p: PotentialProfile, e: EnergySpec) -> WaveNumberField:
    """Build the wavenumber field; both asymptotic channels must be open."""
    c1 = e.c1
    en = e.energy
    kl2 = c1 * (en - p.v_left)
    kr2 = c1 * (en - p.v_right)
    if kl2 <= 0 or kr2 <= 0:
        raise AsymptoticallyClosedChannel(
            f"asymptotic k^2 = ({kl2:g}, {kr2:g}) must both be positive")

    def raw_k2(xv):
        return c1 * (en - p.value(xv))

    def raw_k(xv):
        return np.sqrt(raw_k2(xv))

    def raw_kp(xv):
        return -c1 * p.deriv(xv) / (2.0 * raw_k(xv))

    return WaveNumberField(
        k_squared=scalarize(raw_k2),
        k_left=float(np.sqrt(kl2)),
        k_right=float(np.sqrt(kr2)),
        breakpoints=p.discontinuities,
        k=scalarize(raw_k),
        k_prime=scalarize(raw_kp),
    )


@dataclass(frozen=True)
class DomainGrid:
    """Truncated real-line window plus stepping bounds."""

    x_min: float
    x_max: float
    tail_tolerance: float = 1.0e-10
    max_step: float = 0.0

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if self.tail_tolerance <= 0:
            raise ValueError("tail_tolerance must be > 0")
        if self.max_step <= 0:
            raise ValueError("max_step must be > 0")

    @property
    def span(self) -> float:
        return self.x_max - self.x_min


def window_edges(lo: float, hi: float, breakpoints) -> list:
    """[lo, *the distinct breakpoints strictly inside (lo, hi), sorted, hi]:
    the edges of the smooth pieces of a window."""
    return [lo, *sorted(b for b in set(breakpoints) if lo < b < hi), hi]


def truncate_domain(p: PotentialProfile, e: EnergySpec,
                    tol: float = 1.0e-10) -> DomainGrid:
    """Smallest window outside which |V - asymptote| < tol * max(|E|, 1).

    The square barrier gets exactly its support padded by one max_step;
    smooth profiles get their analytic decay width plus a two-step margin.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    thresh = tol * max(abs(e.energy), 1.0)

    def minimal(center):
        step = p.char_length / GRID_DIVISIONS
        return DomainGrid(center - step, center + step, tol, step)

    if p.kind == "square_barrier":
        v0 = p.params["v0"]
        width = p.params["width"]
        center = p.params["center"]
        if v0 == 0 or width == 0:
            return minimal(center)
        step = width / GRID_DIVISIONS
        return DomainGrid(center - 0.5 * width - step,
                          center + 0.5 * width + step, tol, step)

    if p.kind == "gaussian":
        v0 = p.params["v0"]
        sigma = p.params["sigma"]
        center = p.params["center"]
        if abs(v0) <= thresh:
            return minimal(center)
        half = sigma * np.sqrt(2.0 * np.log(abs(v0) / thresh))
        if half > MAX_HALF_WIDTH:
            raise NoDecay(f"required half-width {half:g} exceeds "
                          f"{MAX_HALF_WIDTH:g}")
        step = 2.0 * half / GRID_DIVISIONS
        return DomainGrid(center - half - 2 * step, center + half + 2 * step,
                          tol, step)

    if p.kind == "poschl_teller":
        scale = p.params["scale"]
        ell = p.params["ell"]
        amp = ell * (ell + 1) / scale**2
        if amp <= thresh:
            return minimal(0.0)
        # |V| = thresh  <=>  sech(u) = sqrt(thresh/amp)
        half = scale * float(np.arccosh(np.sqrt(amp / thresh)))
        if half > MAX_HALF_WIDTH:
            raise NoDecay(f"required half-width {half:g} exceeds "
                          f"{MAX_HALF_WIDTH:g}")
        step = 2.0 * half / GRID_DIVISIONS
        return DomainGrid(-half - 2 * step, half + 2 * step, tol, step)

    if p.kind == "tabulated":
        x_lo = p.params["x_min"]
        x_hi = p.params["x_max"]
        if abs(p.value(x_lo) - p.v_left) > thresh or \
                abs(p.value(x_hi) - p.v_right) > thresh:
            raise NoDecay("tabulated edge values do not reach the "
                          "asymptotes within tolerance")
        step = (x_hi - x_lo) / GRID_DIVISIONS
        return DomainGrid(x_lo - step, x_hi + step, tol, step)

    raise ValueError(f"unknown potential kind {p.kind!r}")
