"""Independent brute-force checks: resonance grids, dense scans, enumeration."""

import dataclasses

import numpy as np
import pytest

import dmabeam as db

F_C = 15e9


def small_design(n):
    return db.DmaDesign(n_elements=n, spacing=1.0 / 120.0, refractive_index=2.5,
                        damping=2 * np.pi * F_C / 50, coupling=1e-9,
                        f_min=12e9, f_max=18e9)


def test_resonance_grid_shape_and_range():
    """The grid is uniform in the circle angle psi over the whole arc
    (-pi + atan(Gamma / (2 pi f_t)), 0) that positive resonances reach,
    endpoints excluded; at Q = 1 that arc reaches far past [f_t/1.5, 1.5 f_t]."""
    for q in (50.0, 1.0):
        design = dataclasses.replace(small_design(2),
                                     damping=2 * np.pi * F_C / q)
        grid = db.resonance_grid(design, F_C, 50)
        assert grid.shape == (50,)
        assert np.all(grid > 0) and np.all(np.diff(grid) > 0)
        lo = -np.pi + np.arctan(1.0 / q)
        np.testing.assert_allclose(db.psi_angle(design, grid, F_C),
                                   lo - lo / 51 * np.arange(1, 51),
                                   rtol=0, atol=1e-9)
    assert grid[0] < F_C / 1.5 and grid[-1] > 1.5 * F_C


def test_single_element_grid_approaches_unity():
    design = small_design(1)
    best = db.grid_max_gain(design, 0.2, 15e9, 400)
    assert best <= 1.0 + 1e-12
    assert best > 1.0 - 1e-4


def test_two_element_grid_matches_solver():
    design = small_design(2)
    for phi in (-0.6, 0.1, 0.8):
        closed = db.solve_p1a(design, phi, 15e9).gain
        grid = db.grid_max_gain(design, phi, 15e9, 200)
        assert grid <= closed * (1 + 1e-9)
        assert (closed - grid) / closed < 1e-3


def test_four_element_grid_approaches_the_peak(design):
    """At the crossover angle the 4-slot sub-array nearly reaches 16."""
    sub = small_design(4)
    phi_c = db.crossover_angle(sub, F_C)
    grid = db.grid_max_gain(sub, phi_c, F_C, 200)
    assert grid <= 16.0 + 1e-9
    assert grid > 16.0 * (1 - 1e-3)


def test_grid_oracle_enforces_its_caps():
    with pytest.raises(db.EnumerationLimitError):
        db.grid_max_gain(small_design(5), 0.0, 15e9, 50)
    with pytest.raises(db.EnumerationLimitError):
        db.grid_max_gain(small_design(2), 0.0, 15e9, 500)
    with pytest.raises(db.DomainError):
        db.grid_max_gain(small_design(2), 0.0, 15e9, 1)


def test_hull_pruning_is_lossless():
    """max |a + b| over two clouds survives pruning either cloud."""
    from dmabeam.oracle import _hull_prune
    rng = np.random.default_rng(17)
    for _ in range(5):
        cloud = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        pruned = _hull_prune(cloud)
        assert pruned.size < cloud.size
        probes = rng.normal(size=20) + 1j * rng.normal(size=20)
        for z in probes:
            full = np.abs(cloud + z).max()
            kept = np.abs(pruned + z).max()
            assert kept == pytest.approx(full, rel=1e-12)


def test_dense_scan_finds_the_integer_point(design):
    p, objective = db.dense_p_scan(design, np.radians(-18.0), 10 ** 5)
    assert objective == pytest.approx(8.0, rel=1e-6)
    assert p == pytest.approx(1.0, abs=1e-4)


def test_dense_scan_agrees_with_planner_off_peak(design):
    """Where no integer is reachable the scan lands on the same sidelobe."""
    phi = np.radians(45.0)
    op = db.optimal_operating_freq(design, phi)
    p_scan, objective = db.dense_p_scan(design, phi, 10 ** 6)
    assert not op.integer_case
    assert abs(p_scan - op.p_star) < 1e-5
    assert 2 * np.sqrt(op.gain) - design.n_elements \
        == pytest.approx(objective, abs=1e-6)


@pytest.mark.parametrize("n", [3, 9, 12, 19])
def test_dense_scan_never_exceeds_n_near_integer_p(n):
    """The scan reaches p = 1 at these angles; rounding must not push
    |sin(pi N p) / sin(pi p)| above its supremum N there."""
    for phi_deg in (-5.0, 10.0):
        _, objective = db.dense_p_scan(small_design(n), np.radians(phi_deg),
                                       10 ** 6)
        assert objective <= n * (1 + 1e-12)


def test_dense_scan_resolution_floor(design):
    with pytest.raises(db.DomainError):
        db.dense_p_scan(design, 0.0, 10_000)


def test_enumerate_binary_tiny_case_by_hand():
    """Two anti-phased elements: the best mask keeps exactly one on."""
    design = small_design(2)
    sol = db.enumerate_binary(design, 0.0, 7.2e9)
    np.testing.assert_array_equal(sol.mask, [0, 1])
    assert sol.gain == pytest.approx(1.0, rel=1e-12)


def test_binary_mask_gain_reproduces_the_enumerated_optimum(design):
    sol = db.enumerate_binary(design, 0.2, 15e9)
    assert db.binary_mask_gain(design, 0.2, 15e9, sol.mask) \
        == pytest.approx(sol.gain, rel=1e-12)
    assert db.binary_mask_gain(design, 0.2, 15e9, np.zeros(8)) == 0.0
    with pytest.raises(db.DomainError):
        db.binary_mask_gain(design, 0.2, 15e9, [1, 0])


def test_enumerate_binary_cap():
    with pytest.raises(db.EnumerationLimitError):
        db.enumerate_binary(small_design(21), 0.0, 15e9)


def test_oracle_shares_no_solver_code(design):
    """The raw reimplementation reproduces the channel to float precision."""
    from dmabeam.oracle import _raw_channel, _raw_weight
    phi, f = 0.37, 14.1e9
    np.testing.assert_allclose(_raw_channel(design, phi, f),
                               db.effective_channel(design, phi, f),
                               rtol=0, atol=1e-9)
    f_r = np.array([13e9, 15e9, 17e9])
    np.testing.assert_allclose(_raw_weight(design, f_r, f),
                               db.beamformer_weight(design, f_r, f),
                               rtol=0, atol=1e-9)
