"""Frequency-selective beamforming with dynamic metasurface antennas.

A DMA is a waveguide feeding tunable Lorentzian radiators: each element's
resonant frequency sets a coupled magnitude-phase transmit weight.  This
package provides the closed-form per-element configuration, operating
frequency selection within a tunable band, waveguide design rules for an
angular coverage sector, response bandwidth analysis, binary (on/off)
tuning, single-shot beam-training codebooks for stacked arrays, link-rate
evaluation against a true-time-delay benchmark, and brute-force oracles
cross-checking every closed form.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .array_training import (ArrayLayout, Codebook, TrainingResult,
                             array_gain_dma, build_codebook, gain_at_estimate,
                             pilot_grid, probe, psi_delta, training_layout)
from .bandwidth_analysis import (CutoffReport, array_cutoff_frequencies,
                                 cutoff_frequencies)
from .binary_tuning import BinarySolution, solve_p4
from .channel import (attenuation_vector, combined_phases, dirichlet_kernel,
                      dirichlet_of_p, effective_channel, normalized_product)
from .core_model import (CONSTANTS, DmaDesign, PhysicalConstants,
                         beamformer_weight, resonant_from_shifted)
from .errors import DmaError, DomainError, InfeasibleError, ScenarioError
from .frequency_planner import (CoverageAngle, OperatingPoint, SectorDesign,
                                crossover_angle, design_sector,
                                max_coverage_angle, optimal_operating_freq)
from .gain_optimizer import BeamformingSolution, solve_p1a
from .link_rate import (LinkBudget, RateComparison, TuningRangePoint,
                        achievable_rate, angle_grid, bandwidth_sweep,
                        compare_rates, rate_ttd, received_psd,
                        subcarrier_grid, tuning_range_sweep)
from .oracle import (binary_mask_gain, dense_p_scan, enumerate_binary,
                     grid_max_gain, resonance_grid)
from .scenario import (Scenario, fingerprint, load_scenario, parse_scenario,
                       scenario_to_text)

# The submodules bind here as attributes too; only their contents export.
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
