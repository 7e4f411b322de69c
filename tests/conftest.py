"""Shared suite definitions: the potential/energy cases every oracle and
acceptance test sweeps over, with preset gauges built once per session."""

from dataclasses import dataclass, field

import pytest

from szscatter.errors import TurningPoint
from szscatter.gauges import (gauge_antiphase, gauge_constant,
                              gauge_special_delta, gauge_wkb, rho_pair)
from szscatter.potentials import (EnergySpec, gaussian, poschl_teller,
                                  square_barrier, truncate_domain,
                                  wavenumber_field)

SUITE_SPECS = [
    ("barrier", lambda: square_barrier(1.0, 1.0), (0.5, 2.0, 5.0)),
    ("gauss", lambda: gaussian(1.0, 1.0), (0.5, 2.0)),
    ("pt1", lambda: poschl_teller(1), (0.5, 1.0, 10.0)),
    ("pt2", lambda: poschl_teller(2), (0.5, 1.0, 10.0)),
]

# The (potential, gauge) pairs of the suite whose phi' jumps, so that
# bounds.theta_field raises GaugeDegenerate: wkb's phi' = k jumps at the
# barrier's edges.  Every other pair has a theta field.
PHI_PRIME_JUMPS = {("barrier", "wkb")}


@dataclass(eq=False)
class Case:
    name: str
    potential: object
    e: EnergySpec
    grid: object
    w: object
    gauges: dict = field(default_factory=dict)
    rhos: dict = field(default_factory=dict)

    def phi_prime_jumps(self, gauge_name):
        """Whether the gauge's phi' jumps on this case's potential."""
        return (self.name.partition("-")[0], gauge_name) in PHI_PRIME_JUMPS

    def rho(self, gauge_name):
        if gauge_name not in self.rhos:
            self.rhos[gauge_name] = rho_pair(self.gauges[gauge_name], self.w)
        return self.rhos[gauge_name]


def _build_case(name, potential, energy) -> Case:
    e = EnergySpec(energy)
    grid = truncate_domain(potential, e)
    w = wavenumber_field(potential, e)
    base = gauge_constant(w.k_left)
    gauges = {
        "constant": base,
        "special_delta": gauge_special_delta(base, w, grid),
        "antiphase": gauge_antiphase(base),
    }
    try:
        gauges["wkb"] = gauge_wkb(w, grid)
    except TurningPoint:
        pass
    return Case(name=f"{name}-E{energy:g}", potential=potential, e=e,
                grid=grid, w=w, gauges=gauges)


@pytest.fixture(scope="session")
def suite():
    cases = []
    for name, build, energies in SUITE_SPECS:
        potential = build()
        for energy in energies:
            cases.append(_build_case(name, potential, energy))
    return cases
