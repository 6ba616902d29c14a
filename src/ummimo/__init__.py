"""Near-field ultra-massive MIMO simulation library.

Modules: numerics (special functions, quadrature, RNG streams), geometry
(array builders and field-region boundaries), fields (near-field factors,
aperture gain, dipole fields), channel (LoS and correlated Rayleigh), beam
(focusing gain, beamwidth, beamdepth), dof (spatial degrees of freedom),
estimate (LS/MMSE/RS-LS/OMP), mux (uplink SE, SU-MIMO capacity), circuit
(impedance blocks, end-to-end channel, noise covariance), cli (experiment
runner).
"""

__version__ = "0.1.0"

from .errors import ConfigError, ContractError, DomainError, SingularityError
from .numerics import (QuadratureGrid, RngStream, complex_gaussian, fresnel_cs,
                       hemisphere_grid, hermitian_eig, sinc, sphere_grid, svd,
                       unit_directions)
from .geometry import (ArrayGeometry, Lattice, RegionBounds, build_ula, build_upa,
                       fraunhofer_square, region_bounds)
from .fields import (DipoleSegment, FieldSample, aperture_gain,
                     aperture_gain_subdivided, array_field, dipole_field,
                     edge_phase_and_power, isotropic_area, near_field_factor)
from .channel import (ScatteringProfile, SpatialCorrelation, correlation_matrix,
                      gaussian_cluster_profile, isotropic_profile, los_channel,
                      sample_rayleigh, steering_matrix)
from .beam import (BeamdepthInterval, angular_taper, array_gain, beamdepth_3db,
                   beamwidth_3db, depth_gain, focus_phases)
from .dof import (Dof2d, DofReport, active_rf_chains, bbu_rate, dof_1d, dof_2d,
                  dof_report, effective_rank)
from .estimate import (Dictionary, EstimatorResult, PilotMatrix,
                       build_ff_dictionary, isotropic_subspace, ls_estimate,
                       mmse_estimate, mmse_pilot_design, nmse_sweep,
                       omp_estimate, orthogonal_pilot, received_pilot,
                       rsls_estimate, rsls_pilot)
from .mux import (UplinkScenario, lmmse_combiners, optimal_spacing,
                  parallel_capacity, su_capacity, uplink_se, uplink_se_bound,
                  waterfill_powers)
from .circuit import (ImpedanceSet, LnaParams, array_impedance, end_to_end_channel,
                      impedance_set, mutual_impedance_z_dipoles,
                      noise_covariance, radiation_matrix, self_resistance,
                      tx_power)
