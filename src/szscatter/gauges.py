"""Gauge triples (phi, Delta, chi), their derived rho pair, and presets.

A gauge triple parameterizes the two-wave decomposition of the
wavefunction.  rho_pair is the one place the pair rho1 = phi'' + 2 chi
phi', rho2 = k^2 + chi^2 + chi' - phi'^2 is written and the gauge's and
the potential's breakpoints are joined; its fields(x) reads phi' and chi
once for phi', rho1 and rho2.  The evolution generator, the bound
integrand theta and Delta' = rho2 / (2 phi') all read it.  Presets:
constant phase slope, the local-wavenumber (WKB-like) slope phi' = k(x),
whose blends with the constant gauge make the optimizer's family
(bounds.phi_prime_family), the diagonal-killing Delta choice, and the
phase-killing Delta = -phi choice.  The antiderivatives phi = int k of
the wkb gauge and Delta = int Delta' of the diagonal-killing gauge are
Chebyshev panel interpolants (_panels.antiderivative), split at the
breakpoints.  Arbitrary tabulated gauges come from gauge_from_tables.
"""

import numpy as np
from dataclasses import dataclass, field, replace

from ._panels import antiderivative
from .errors import GaugeDegenerate, TurningPoint
from .potentials import (DomainGrid, WaveNumberField, load_table, pchip_field,
                         scalarize, window_edges)

# Relative floor for |phi'|; below this the system matrix is unusable.
DEGENERACY_RTOL = 1.0e-12


def constant_field(value):
    """Field callable that is identically `value`."""
    val = complex(value)
    cast = float if val.imag == 0 else complex
    out = val.real if val.imag == 0 else val

    def raw(xv):
        return np.full(xv.shape, out)

    return scalarize(raw, cast)


@dataclass(frozen=True, eq=False)
class GaugeTriple:
    """The three auxiliary functions with the derivatives the system needs.

    All seven function attributes accept scalars or arrays.
    phi_prime_jumps marks gauges whose phi' is discontinuous (their phi''
    is distributional, so bound integrals reject them).
    """

    phi: object = field(repr=False)
    phi_prime: object = field(repr=False)
    phi_double_prime: object = field(repr=False)
    delta: object = field(repr=False)
    delta_prime: object = field(repr=False)
    chi: object = field(repr=False)
    chi_prime: object = field(repr=False)
    is_real: bool = True
    label: str = "gauge"
    breakpoints: tuple = ()
    phi_prime_scale: float = 1.0
    phi_prime_jumps: bool = False
    grid: DomainGrid = None


@dataclass(frozen=True, eq=False)
class RhoPair:
    """The gauge-derived fields populating the evolution generator:
    fields(x) gives (phi', rho1, rho2) on an array, with
    rho1 = phi'' + 2 chi phi', rho2 = k^2 + chi^2 + chi' - (phi')^2."""

    fields: object = field(repr=False)
    breakpoints: tuple = ()


def rho_pair(g: GaugeTriple, w: WaveNumberField) -> RhoPair:
    """Both rho definitions, evaluating phi' and chi once per call."""

    def fields(xv):
        ppr = np.asarray(g.phi_prime(xv))
        chi = np.asarray(g.chi(xv))
        rho1 = g.phi_double_prime(xv) + 2.0 * chi * ppr
        rho2 = w.k_squared(xv) + chi ** 2 + g.chi_prime(xv) - ppr ** 2
        return ppr, rho1, rho2

    breaks = tuple(sorted(set(g.breakpoints) | set(w.breakpoints)))
    return RhoPair(fields=fields, breakpoints=breaks)


def gauge_constant(k_ref: float) -> GaugeTriple:
    """Simplest admissible gauge: phi = k_ref * x, Delta = chi = 0.  For
    a constant chi on top of it, use with_constant_chi."""
    if not np.isreal(k_ref) or k_ref <= 0:
        raise ValueError("k_ref must be a positive real number")
    k_ref = float(k_ref)
    return GaugeTriple(
        phi=scalarize(lambda xv: k_ref * xv),
        phi_prime=constant_field(k_ref),
        phi_double_prime=constant_field(0.0),
        delta=constant_field(0.0),
        delta_prime=constant_field(0.0),
        chi=constant_field(0.0),
        chi_prime=constant_field(0.0),
        label=f"constant(k={k_ref:.6g})",
        phi_prime_scale=k_ref,
    )


def gauge_wkb(w: WaveNumberField, grid: DomainGrid) -> GaugeTriple:
    """Local-wavenumber gauge phi' = k(x), chi = Delta = 0, phi = int k
    from the left edge.  It needs k^2 > 0 on the grid (TurningPoint
    otherwise), and its phi' jumps wherever k does at a breakpoint inside
    the grid."""
    edges = window_edges(grid.x_min, grid.x_max, w.breakpoints)
    for lo, hi in zip(edges[:-1], edges[1:]):
        eps = 1e-12 * max(1.0, abs(lo), abs(hi))
        if np.min(w.k_squared(np.linspace(lo + eps, hi - eps, 4097))) <= 0.0:
            raise TurningPoint("the wkb gauge needs k^2 > 0 on the grid")

    def k_jump(b):
        eps = 1e-9 * max(1.0, abs(b))
        return abs(float(w.k(b - eps)) - float(w.k(b + eps)))

    scale = float(np.max(w.k(np.linspace(grid.x_min, grid.x_max, 2049))))
    inside = tuple(b for b in w.breakpoints if grid.x_min < b < grid.x_max)
    return replace(
        gauge_constant(w.k_left),
        phi=scalarize(antiderivative(w.k, edges)),
        phi_prime=w.k,
        phi_double_prime=w.k_prime,
        label="wkb",
        breakpoints=inside,
        phi_prime_scale=scale,
        phi_prime_jumps=any(k_jump(b) > 1e-9 for b in inside),
        grid=grid,
    )


def gauge_special_delta(base: GaugeTriple, w: WaveNumberField,
                        grid: DomainGrid) -> GaugeTriple:
    """Diagonal-killing choice Delta' = rho2 / (2 phi'), which replaces
    the base's Delta (rho2 does not depend on Delta).  The evolution
    generator built from the result has an identically zero diagonal:
    sz_core._entries writes it as rho2 / (2 phi') - Delta', the same
    quotient of the same samples."""
    r = rho_pair(base, w)
    edges = window_edges(grid.x_min, grid.x_max, r.breakpoints)

    def raw_dprime(xv):
        ppr, _, rho2 = r.fields(xv)
        return rho2 / (2.0 * ppr)

    probe = np.linspace(grid.x_min, grid.x_max, 4097)
    ppr_abs = np.abs(np.asarray(base.phi_prime(probe)))
    if float(np.min(ppr_abs)) <= DEGENERACY_RTOL * float(np.max(ppr_abs)):
        raise GaugeDegenerate("|phi'| below the degeneracy threshold")

    cast = float if base.is_real else complex
    return replace(
        base,
        delta=scalarize(antiderivative(raw_dprime, edges), cast),
        delta_prime=scalarize(raw_dprime, cast),
        label=f"special_delta[{base.label}]",
        breakpoints=r.breakpoints,
        grid=grid,
    )


def gauge_antiphase(base: GaugeTriple) -> GaugeTriple:
    """Phase-killing choice Delta = -phi: every exponent phi + Delta in
    the generator vanishes identically."""
    cast = float if base.is_real else complex
    return replace(
        base,
        delta=scalarize(lambda xv: -np.asarray(base.phi(xv)), cast),
        delta_prime=scalarize(lambda xv: -np.asarray(base.phi_prime(xv)),
                              cast),
        label=f"antiphase[{base.label}]",
    )


def with_constant_chi(base: GaugeTriple, chi: float) -> GaugeTriple:
    """Replace the base gauge's chi with a constant."""
    return replace(
        base,
        chi=constant_field(chi),
        chi_prime=constant_field(0.0),
        is_real=base.is_real and complex(chi).imag == 0.0,
        label=base.label + f"+chi({chi:.6g})",
    )


def with_tabulated_chi(base: GaugeTriple, positions, values) -> GaugeTriple:
    """Replace the base gauge's chi with a tabulated function; the
    derivative comes from the same monotone-cubic machinery as tabulated
    potentials."""
    chi, chi_p = pchip_field(positions, values)
    return replace(base, chi=chi, chi_prime=chi_p,
                   label=base.label + "+chi(table)")


def gauge_from_tables(phi_table, delta_table=None, chi_table=None,
                      label: str = "tabulated") -> GaugeTriple:
    """User-supplied gauge from two-column tables (position, value).

    Each table is a (positions, values) pair; derivatives come from the
    same monotone-cubic machinery used for tabulated potentials.
    """
    phi, phi_p, phi_pp = pchip_field(*phi_table, order=2)
    if delta_table is not None:
        delta, delta_p = pchip_field(*delta_table)
    else:
        delta, delta_p = constant_field(0.0), constant_field(0.0)
    if chi_table is not None:
        chi, chi_p = pchip_field(*chi_table)
    else:
        chi, chi_p = constant_field(0.0), constant_field(0.0)
    xs = np.asarray(phi_table[0], dtype=float)
    scale = float(np.max(np.abs(phi_p(xs))))
    return GaugeTriple(
        phi=phi,
        phi_prime=phi_p,
        phi_double_prime=phi_pp,
        delta=delta,
        delta_prime=delta_p,
        chi=chi,
        chi_prime=chi_p,
        is_real=True,
        label=label,
        phi_prime_scale=scale,
    )


def gauge_from_files(phi_path, delta_path=None, chi_path=None,
                     label: str = "tabulated") -> GaugeTriple:
    """User-supplied gauge from two-column text files, one per function
    (same format as tabulated potentials)."""
    return gauge_from_tables(
        load_table(phi_path),
        delta_table=None if delta_path is None else load_table(delta_path),
        chi_table=None if chi_path is None else load_table(chi_path),
        label=label,
    )
