"""Stacked-array training: codebooks, pilots, probing, coverage floors."""

import dataclasses

import numpy as np
import pytest

import dmabeam as db

F_C = 15e9
PHI_MAX = np.radians(30.0)


def test_layout_validation(design):
    lay = db.ArrayLayout(n_dmas=4, per_dma=design, groups=2)
    assert lay.group_size == 2
    with pytest.raises(db.DomainError):
        db.ArrayLayout(n_dmas=4, per_dma=design, groups=3)
    with pytest.raises(db.DomainError):
        db.ArrayLayout(n_dmas=0, per_dma=design, groups=1)


def test_psi_delta_reference_value():
    root = db.psi_delta(8, 0.5)
    assert root == pytest.approx(0.05574541827512324, rel=1e-9)
    # at the root the Dirichlet power is exactly the requested fraction
    assert db.dirichlet_of_p(root, 8) ** 2 == pytest.approx(0.5 * 64, rel=1e-9)


def test_psi_delta_narrows_with_stricter_fraction():
    widths = [db.psi_delta(8, d) for d in (0.2, 0.5, 0.8)]
    assert np.all(np.diff(widths) < 0)
    with pytest.raises(db.DomainError):
        db.psi_delta(8, 1.0)
    with pytest.raises(db.DomainError):
        db.psi_delta(1, 0.5)


def test_half_gain_codebook_reference(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    assert len(cb) == 4
    assert cb.psi_delta == pytest.approx(0.056, abs=1e-12)
    assert cb.delta == pytest.approx(0.49657787891498717, rel=1e-12)
    np.testing.assert_allclose(
        np.degrees(cb.sector_angles),
        [-22.830110672175863, -7.898795834509489, 8.214645648253965,
         27.157894737221827], atol=1e-9)
    assert np.all(np.diff(cb.sector_angles) > 0)
    assert np.all(np.diff(cb.sector_freqs) < 0)


def test_codebook_frequencies_come_from_the_planner(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    for angle, freq in zip(cb.sector_angles, cb.sector_freqs):
        op = db.optimal_operating_freq(layout.per_dma, angle)
        assert freq == pytest.approx(op.f_t_star, rel=1e-12)


@pytest.mark.parametrize("phi_max_deg, delta", [(30.0, 0.5), (35.0, 0.8)])
def test_codebook_frequencies_equal_the_scalar_planner(
        layout, reference_operating_point, phi_max_deg, delta):
    """The codebook plans all its sectors in one call; each frequency is
    bit for bit the one-angle planner's.  At +-35 deg the outer sectors
    lie past the design sector, where no integer p is reachable."""
    cb = db.build_codebook(layout, np.radians(phi_max_deg), delta)
    expected = [reference_operating_point(layout.per_dma, float(a))[0]
                for a in cb.sector_angles]
    assert np.array_equal(cb.sector_freqs, expected)


def test_codebook_sectors_stay_inside_the_target_range(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    for angle in cb.sector_angles:
        lo, hi = db.allowed_estimate_interval(
            angle, layout.per_dma.refractive_index, cb.psi_delta)
        assert lo <= angle <= hi
    assert cb.sector_angles[-1] <= PHI_MAX + 1e-12


def test_codebook_pinned_sector_count(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5, n_sectors=4)
    assert len(cb) == 4
    with pytest.raises(db.CoverageInfeasibleError):
        db.build_codebook(layout, PHI_MAX, 0.5, n_sectors=5)


def test_unquantized_codebook_still_covers(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5, width_resolution=None)
    assert cb.psi_delta == pytest.approx(db.psi_delta(8, 0.5), rel=1e-12)
    assert cb.delta == pytest.approx(0.5, rel=1e-9)


def test_allowed_estimate_interval_contains_truth():
    lo, hi = db.allowed_estimate_interval(0.1, 2.5, 0.056)
    assert lo < 0.1 < hi


def test_training_config_assigns_frequencies_by_group(layout):
    """Each group resonates all of its slots at its sector's tone."""
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    configs = db.training_config(grouped, cb)
    assert len(configs) == 4
    for m, cfg in enumerate(configs):
        sector = m // grouped.group_size
        np.testing.assert_allclose(cfg.f_r, cb.sector_freqs[sector], rtol=0)
    with pytest.raises(db.DomainError):
        db.training_config(layout, cb)  # one group cannot host four sectors


def test_pilot_grid_merges_required_tones(design):
    cb_freqs = np.array([17.045454545454545e9, 12.176789969567949e9])
    pilots = db.pilot_grid(design, 64, include=cb_freqs)
    assert pilots[0] >= design.f_min and pilots[-1] <= design.f_max
    assert np.all(np.diff(pilots) > 0)
    for f in cb_freqs:
        assert np.min(np.abs(pilots - f)) < 1.0


def test_probe_recovers_each_sector_center(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    pilots = np.sort(cb.sector_freqs)  # ascending; sector order is descending
    for ell in range(len(cb)):
        res = db.probe(grouped, cb, float(cb.sector_angles[ell]), pilots)
        assert res.k_star == len(cb) - 1 - ell
        assert res.phi_hat == pytest.approx(cb.sector_angles[ell], abs=1e-9)
        assert res.f_k_star == pytest.approx(cb.sector_freqs[ell], rel=1e-12)


def test_probe_estimate_feeds_the_gain_model(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    phi = np.radians(-12.5)
    res = db.probe(grouped, cb, phi, np.sort(cb.sector_freqs))
    expect = db.gain_at_estimate(grouped, phi, res.phi_hat)
    assert res.gain_at_estimate == pytest.approx(expect, rel=1e-12)


def test_probe_rejects_unmappable_pilot(layout):
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    with pytest.raises(db.InvalidEstimateError):
        db.probe(grouped, cb, 0.0, np.array([5e9]))


def test_gain_at_estimate_peaks_at_truth(layout):
    phi = np.radians(10.0)
    peak = db.gain_at_estimate(layout, phi, phi)
    assert peak == pytest.approx((8 * 4) ** 2, rel=1e-12)
    assert db.gain_at_estimate(layout, phi, phi + 0.05) < peak


def test_coverage_floor_holds_on_a_coarse_sweep(layout):
    """Worst-case probed gain stays above the codebook's own fraction."""
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    pilots = db.pilot_grid(layout.per_dma, 256, include=cb.sector_freqs)
    floor = cb.delta * (8 * 4) ** 2 * (1 - 1e-6)
    for phi in np.linspace(-PHI_MAX, PHI_MAX, 101):
        res = db.probe(grouped, cb, float(phi), pilots)
        assert res.gain_at_estimate >= floor


def test_array_gain_sums_coherently_across_waveguides(layout):
    """Identically configured waveguides reach (N_y N_z)^2 at the optimum."""
    phi = db.crossover_angle(layout.per_dma, F_C)
    cfg = db.solve_p1a(layout.per_dma, phi, F_C).resonant
    gain = db.array_gain_dma(layout, [cfg] * 4, phi, F_C)
    assert gain == pytest.approx(1024.0, rel=1e-9)


def test_array_gain_with_attenuation_is_lower(layout):
    lossy_dma = dataclasses.replace(layout.per_dma, attenuation=6.0)
    lossy = db.ArrayLayout(n_dmas=4, per_dma=lossy_dma, groups=1)
    phi = db.crossover_angle(layout.per_dma, F_C)
    cfg = db.solve_p1a(layout.per_dma, phi, F_C).resonant
    plain = db.array_gain_dma(lossy, [cfg] * 4, phi, F_C)
    damped = db.array_gain_dma(lossy, [cfg] * 4, phi, F_C, with_attenuation=True)
    assert damped < plain


@pytest.mark.parametrize("with_attenuation", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_gain_over_a_frequency_array_matches_the_reference(
        layout, reference_gain, stacked, with_attenuation):
    """gain_dma / array_gain_dma over an f array equal the scalar reference."""
    dma = dataclasses.replace(layout.per_dma, attenuation=6.0)
    phi = np.radians(-12.0)
    freqs = np.linspace(dma.f_min, dma.f_max, 37)
    cfg = db.solve_p1a(dma, phi, 14.4e9).resonant
    if stacked:
        other = db.solve_p1a(dma, phi, 16.0e9).resonant
        configs = [cfg, cfg, other, other]
        lay = db.ArrayLayout(n_dmas=4, per_dma=dma, groups=1)
        got = db.array_gain_dma(lay, configs, phi, freqs, with_attenuation)
        one = db.array_gain_dma(lay, configs, phi, float(freqs[5]),
                                with_attenuation)
    else:
        configs = [cfg]
        got = db.gain_dma(dma, cfg, phi, freqs, with_attenuation)
        one = db.gain_dma(dma, cfg, phi, float(freqs[5]), with_attenuation)
    expect = reference_gain(dma, configs, phi, freqs, with_attenuation)
    assert got.shape == freqs.shape
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    assert isinstance(one, float)
    assert one == pytest.approx(expect[5], rel=1e-12)


@pytest.mark.parametrize("phi_deg", [-30.0, -17.3, -4.0, 0.0, 9.5, 21.0, 30.0])
def test_probe_argmax_matches_the_reference(layout, reference_gain, phi_deg):
    """The probe's k_star is the reference argmax, lowest index on ties.

    Each pilot appears twice, so every maximum is an exact tie between
    neighbours and the lower (even) index must win.
    """
    cb = db.build_codebook(layout, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    configs = db.training_config(grouped, cb)
    pilots = db.pilot_grid(layout.per_dma, 256, include=cb.sector_freqs)
    phi = float(np.radians(phi_deg))
    expect = int(np.argmax(reference_gain(layout.per_dma, configs, phi, pilots)))
    assert db.probe(grouped, cb, phi, pilots).k_star == expect
    doubled = np.repeat(pilots, 2)
    assert db.probe(grouped, cb, phi, doubled).k_star == 2 * expect


def test_second_reference_codebook():
    """Shorter waveguides with a milder fraction give the other known set."""
    dma = db.DmaDesign(n_elements=4, spacing=1.0 / 120.0, refractive_index=2.5,
                       damping=2 * np.pi * F_C / 50, coupling=1e-9,
                       f_min=12e9, f_max=18e9)
    lay = db.ArrayLayout(n_dmas=8, per_dma=dma, groups=1)
    cb = db.build_codebook(lay, PHI_MAX, 10 ** (-0.6 / 10))
    np.testing.assert_allclose(
        np.degrees(cb.sector_angles),
        [-23.3283561, -9.50777453, 5.21877997, 22.03662678], atol=1e-6)
