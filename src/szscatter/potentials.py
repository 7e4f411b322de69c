"""Potential profiles, the local wavenumber field, and domain truncation."""

import numpy as np
from dataclasses import dataclass, field
from scipy.interpolate import PchipInterpolator

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
    """Monotone-cubic (PCHIP) interpolant of a table and its derivatives up
    to `order`, as callables built once; the end pieces extrapolate."""
    xs = np.asarray(positions, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need two 1-d arrays of equal length >= 2")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("table positions must be strictly increasing")
    f = PchipInterpolator(xs, ys, extrapolate=True)
    parts = [f] + [f.derivative(n) for n in range(1, order + 1)]
    return tuple(scalarize(lambda xv, p=p: np.asarray(p(xv))) for p in parts)


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

    @property
    def c1(self) -> float:
        """2m/hbar^2, the factor multiplying E - V(x) in k^2."""
        return 2.0 * self.mass / self.hbar**2


@dataclass(frozen=True, eq=False)
class WaveNumberField:
    """Local k^2(x) = (2m/hbar^2)(E - V(x)) and the asymptotic wavenumbers."""

    k_squared: object = field(repr=False)
    k_left: float = 0.0
    k_right: float = 0.0
    breakpoints: tuple = ()
    c1: float = 1.0
    energy: float = 0.0
    profile: PotentialProfile = None
    k: object = field(repr=False, default=None)
    k_prime: object = field(repr=False, default=None)
    k_squared_prime: object = field(repr=False, default=None)


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

    def raw_k2p(xv):
        return -c1 * p.deriv(xv)

    def raw_kp(xv):
        return raw_k2p(xv) / (2.0 * raw_k(xv))

    return WaveNumberField(
        k_squared=scalarize(raw_k2),
        k_left=float(np.sqrt(kl2)),
        k_right=float(np.sqrt(kr2)),
        breakpoints=p.discontinuities,
        c1=c1,
        energy=en,
        profile=p,
        k=scalarize(raw_k),
        k_prime=scalarize(raw_kp),
        k_squared_prime=scalarize(raw_k2p),
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
