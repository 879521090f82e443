"""Harmonic chain with a point Langevin thermostat: numerical laboratory.

Layers, from the lattice up:

* lattice     coupling kernels, dispersion relation, inverse branch and the
              graded Gauss-Legendre panel quadrature
* memory      thermostat memory function J, resolvent density, phi kernel
* scattering  interface response nu(k), transmission/reflection/absorption
* dynamics    splitting integrator and the spectral mild solution
* packets     wave-packet and Gibbs initial measures
* wigner      Wigner estimator, pairings, energy bookkeeping
* kinetics    closed-form macroscopic limit and its transforms
* harness     config-driven experiments (also exposed via the CLI)
"""

from .errors import (ConfigError, DomainError, HorizonError, InvalidRunError,
                     SingularZoneError, TableConstructionError)
from .lattice import (CouplingKernel, DispersionRelation, hat_alpha,
                      kernel_from_spec, nn_pinned, nn_unpinned)
from .memory import (MemoryKernel, g_star_series, g_star_series_curve, j_eval,
                     j_laplace)
from .scattering import (Coefficients, ScatteringTable, build_table, coefficients,
                         nu_laplace_limit, nu_pv)
from .dynamics import (ChainState, EnsembleNoise, ThermostatParams, Trajectory,
                       dump_snapshots, energy_balance_residual, load_snapshots,
                       p0_free, p0_volterra, psi_spectral_mild, run_direct,
                       site_coordinates, state_from_wave_field, wave_field,
                       wave_field_hat)
from .packets import (Envelope, WavePacketSpec, gibbs_ensemble, gibbs_state,
                      init_rng, packet_energy_target, sample_initial)
from .wigner import (ProductionBin, ScatteringFractions, WignerEstimate,
                     flat_top_mask, pair_test_function, production_profile,
                     scattering_fractions, spatial_window, wavenumber_grid,
                     wigner_estimate, windowed_k_density)
from .kinetics import (CosineBumpSquaredProfile, LimitSolution, SeparableInitialData,
                       boundary_residual, equilibrium_initial_data,
                       laplace_fourier_limit, laplace_fourier_numeric, limit_wigner,
                       transport_residual)
from .harness import RunReport, run_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
