"""The package's public surface, pinned: any addition or removal is an API
change and has to show up in this file's diff."""

import types

import dmabeam as db

PUBLIC = [
    'ArrayLayout', 'BeamformingSolution', 'BinarySolution', 'CONSTANTS',
    'Codebook', 'CoverageAngle', 'CutoffReport', 'DmaDesign', 'DmaError',
    'DomainError', 'InfeasibleError', 'LinkBudget',
    'OperatingPoint', 'PhysicalConstants', 'RateComparison',
    'Scenario', 'ScenarioError', 'SectorDesign',
    'TrainingResult', 'TuningRangePoint', 'achievable_rate',
    'angle_grid', 'array_cutoff_frequencies',
    'array_gain_dma', 'attenuation_vector',
    'bandwidth_sweep', 'beamformer_weight', 'binary_mask_gain',
    'build_codebook', 'combined_phases',
    'compare_rates', 'crossover_angle', 'cutoff_frequencies',
    'dense_p_scan', 'design_sector', 'dirichlet_kernel', 'dirichlet_of_p',
    'effective_channel', 'enumerate_binary', 'fingerprint',
    'gain_at_estimate', 'grid_max_gain', 'load_scenario',
    'max_coverage_angle', 'normalized_product', 'optimal_operating_freq',
    'parse_scenario', 'pilot_grid',
    'probe', 'psi_delta', 'rate_ttd',
    'received_psd', 'resonance_grid', 'resonant_from_shifted',
    'scenario_to_text', 'solve_p1a', 'solve_p4',
    'subcarrier_grid', 'training_layout', 'tuning_range_sweep',
]


def test_public_surface_is_pinned():
    assert sorted(db.__all__) == PUBLIC


def test_public_surface_exports_no_submodule():
    assert all(not isinstance(getattr(db, name), types.ModuleType)
               for name in db.__all__)
    assert "core_model" not in db.__all__ and "cli" not in db.__all__
