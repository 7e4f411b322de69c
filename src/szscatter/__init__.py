"""szscatter: 1D quantum scattering through a gauge-flexible first-order
reformulation, with rigorous transmission/reflection bounds.

The wavefunction is written as a two-wave decomposition with
position-dependent coefficients (a, b) controlled by three auxiliary
functions (phi, Delta, chi).  The package evolves (a, b) by adaptive
stepping and by ordered products of step exponentials, reconstructs exact
wavefunctions, extracts transmission/reflection, and evaluates and
optimizes the sech^2/tanh^2 bounds implied by the theta integral, all
cross-checked against an independent direct solver.
"""

from ._kernels import numba_active
from .bounds import (BoundReport, GaugeFamily, ThetaField, VerificationRecord,
                     bound_report, optimize_gauge, phi_prime_family,
                     theta_field, theta_integral, verify_bounds)
from .errors import (AsymptoticallyClosedChannel, BoundViolation,
                     ComplexGaugeRejected, EmptyFamily, GaugeDegenerate,
                     NoDecay, NonConvergence, ParseError, StepUnderflow,
                     SzScatterError, TurningPoint, ValidationError)
from .gauges import (GaugeTriple, RhoPair, constant_field, gauge_antiphase,
                     gauge_constant, gauge_from_files, gauge_from_tables,
                     gauge_special_delta, gauge_wkb, rho_pair,
                     with_constant_chi, with_tabulated_chi)
from .oracle import (OracleResult, analytic_reflectionless,
                     analytic_square_barrier, direct_integrate)
from .potentials import (DomainGrid, EnergySpec, PotentialProfile,
                         WaveNumberField, evaluate_potential, gaussian,
                         load_table, poschl_teller, square_barrier, tabulated,
                         tabulated_from_file, truncate_domain,
                         wavenumber_field)
from .sz_core import (CoefficientState, EvolveStats, ScatteringAmplitudes,
                      TransferMatrix, WavefunctionSample, evolve,
                      evolve_diagnostics, evolve_path, probability_current,
                      project_wavefunction, reconstruct_psi, rhs_matrix,
                      scattering_amplitudes, transfer_matrix)

__version__ = "0.1.0"
