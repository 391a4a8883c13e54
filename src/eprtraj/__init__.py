"""Quantum-trajectory simulator for an entangled two-particle recoil molecule."""

from .action import (ActionSample, QuantumMassSample, action_sample, conjugate_momentum,
                     effective_quantum_mass, quantum_potential, reduced_action_principal,
                     reduced_action_unwrapped)
from .entanglon import (Decomposition, decompose_time, entanglon_divergence, epr_limit_mass,
                        epr_limit_time, is_trigger_point)
from .errors import InfiniteVelocityError
from .model import (LimitSeries, ModelParams, ParticlePositions, normalize_phase_shift,
                    particle_positions, validate_params)
from .trajectory import (Segment, TrajectoryEvent, TurningPoint, TurningPoints, WedgeBounds,
                         bohmian_time_of_position, dtdx, find_turning_points, mechanical_momentum,
                         pair_events, positions_at_time, segment_trajectory, time_of_position,
                         turning_points_by_beta, wedge_bounds)
from .wavefunction import PolarForm, amplitude_squared, epr_limit_wave, psi_bipolar, psi_polar

__version__ = "0.1.0"
