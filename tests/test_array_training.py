"""Stacked-array training: codebooks, pilots, probing, coverage floors."""

import dataclasses

import numpy as np
import pytest

import dmabeam as db
from dmabeam.frequency_planner import GOLDEN_TOL

F_C = 15e9
PHI_MAX = np.radians(30.0)


def training_stack(layout, codebook):
    """(n_dmas, N) training resonances: group l all at sector l's tone."""
    n_y = layout.per_dma.n_elements
    group_size = layout.n_dmas // len(codebook)
    return np.array([np.full(n_y, codebook.sector_freqs[m // group_size])
                     for m in range(layout.n_dmas)])


def test_layout_validation(design):
    assert db.ArrayLayout(n_dmas=3, per_dma=design).n_dmas == 3
    with pytest.raises(db.DomainError):
        db.ArrayLayout(n_dmas=0, per_dma=design)


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
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
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
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    for angle, freq in zip(cb.sector_angles, cb.sector_freqs):
        op = db.optimal_operating_freq(layout.per_dma, angle)
        assert freq == pytest.approx(op.f_t_star, rel=1e-12)


@pytest.mark.parametrize("phi_max_deg, delta", [(30.0, 0.5), (35.0, 0.8)])
def test_codebook_frequencies_equal_the_scalar_planner(
        layout, reference_operating_point, phi_max_deg, delta):
    """The codebook plans all its sectors in one call; each frequency is
    bit for bit the one-angle planner's, and the golden-section
    reference's where an integer p is reachable.  At +-35 deg the outer
    sectors lie past the design sector, where no integer p is reachable
    and p* matches the reference to the bench's f_star tolerance."""
    phi_max = np.radians(phi_max_deg)
    design = layout.per_dma
    cb = db.build_codebook(design, -phi_max, phi_max, delta)
    planned = [db.optimal_operating_freq(design, float(a)) for a in cb.sector_angles]
    assert np.array_equal(cb.sector_freqs, [op.f_t_star for op in planned])
    for a, op in zip(cb.sector_angles, planned):
        f_ref, p_ref, _, integer_case = reference_operating_point(design, float(a))
        assert op.integer_case == integer_case
        if integer_case:
            assert op.f_t_star == f_ref
        else:
            tol = GOLDEN_TOL + np.sqrt(np.finfo(float).eps) * abs(p_ref)
            assert abs(op.p_star - p_ref) <= tol


def allowed_sines(angle, n_g, width):
    """sin of the allowed-estimate interval's edges around a sector angle:
    (n_g + sin phi) / (1 +- Psi_d) - n_g."""
    base = n_g + np.sin(angle)
    return base / (1.0 + width) - n_g, base / (1.0 - width) - n_g


def test_codebook_sectors_stay_inside_the_target_range(layout):
    """The first interval starts at phi_lower, each next one starts where
    its predecessor ends, and the last reaches phi_upper; a last sector
    that would pass phi_upper sits on it instead, overlapping its
    predecessor.  Every sector angle lies inside the sector and inside
    its own interval.  Symmetric and asymmetric sectors alike."""
    n_g = layout.per_dma.refractive_index
    for lower_deg, upper_deg in ((-30.0, 30.0), (-20.0, 35.0), (-10.0, 30.0)):
        lower, upper = np.radians(lower_deg), np.radians(upper_deg)
        cb = db.build_codebook(layout.per_dma, lower, upper, 0.5)
        edges = [allowed_sines(a, n_g, cb.psi_delta) for a in cb.sector_angles]
        assert edges[0][0] == pytest.approx(np.sin(lower), abs=1e-12)
        for (_, hi), (lo, _) in zip(edges[:-2], edges[1:-1]):
            assert lo == pytest.approx(hi, abs=1e-12)
        last_lo, previous_hi = edges[-1][0], edges[-2][1]
        assert last_lo == pytest.approx(previous_hi, abs=1e-12) or (
            last_lo < previous_hi
            and cb.sector_angles[-1] == pytest.approx(upper, abs=1e-12))
        assert edges[-1][1] >= np.sin(upper) - 1e-12
        assert edges[-2][1] < np.sin(upper)
        for angle, (lo, hi) in zip(cb.sector_angles, edges):
            assert lower <= angle <= upper
            assert lo <= np.sin(angle) <= hi


def test_codebook_pinned_sector_count(design):
    """training_layout checks a pinned sector count against the count
    that the construction needs."""
    layout, cb = db.training_layout(design, 4, -PHI_MAX, PHI_MAX, 0.5,
                                    n_sectors=4)
    assert len(cb) == 4 and layout.n_dmas == 4
    for pinned in (2, 5):
        with pytest.raises(db.CoverageInfeasibleError,
                           match=f"needs 4 sectors, caller pinned {pinned}"):
            db.training_layout(design, 4, -PHI_MAX, PHI_MAX, 0.5,
                               n_sectors=pinned)


def test_codebook_width_is_quantized(design):
    """The mainlobe half-width is rounded to WIDTH_RESOLUTION, and the
    stored fraction is the one that the rounded width guarantees."""
    from dmabeam.array_training import WIDTH_RESOLUTION

    for n_y, delta in ((8, 0.5), (4, 10 ** (-0.6 / 10)), (16, 0.8)):
        dma = dataclasses.replace(design, n_elements=n_y)
        cb = db.build_codebook(dma, -PHI_MAX, PHI_MAX, delta)
        steps = round(db.psi_delta(n_y, delta) / WIDTH_RESOLUTION)
        assert cb.psi_delta == pytest.approx(steps * WIDTH_RESOLUTION, rel=1e-12)
        assert cb.delta == pytest.approx(
            db.dirichlet_of_p(cb.psi_delta, n_y) ** 2 / n_y ** 2, rel=1e-12)


def test_codebook_needs_two_elements_per_waveguide(design):
    """One slot has no mainlobe to place sectors by: the codebook is
    infeasible and names design.n_y (psi_delta itself raises DomainError)."""
    one = dataclasses.replace(design, n_elements=1)
    with pytest.raises(db.CoverageInfeasibleError, match="design.n_y = 1"):
        db.build_codebook(one, -PHI_MAX, PHI_MAX, 0.5)


def test_codebook_rejects_a_sector_outside_the_visible_half_plane(layout):
    for lower, upper in ((-np.pi / 2, 0.3), (-0.3, np.pi / 2), (0.3, -0.3)):
        with pytest.raises(db.DomainError):
            db.build_codebook(layout.per_dma, lower, upper, 0.5)


def test_probe_rejects_a_codebook_that_does_not_match_the_groups(layout):
    """The probe tunes one equal group of waveguides to each sector: four
    sectors split 4 or 8 waveguides, but not 2, 6 or 3."""
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    pilots = np.sort(cb.sector_freqs)
    expect = db.probe(layout, cb, 0.1, pilots).k_star
    lay = db.ArrayLayout(n_dmas=8, per_dma=layout.per_dma)
    assert db.probe(lay, cb, 0.1, pilots).k_star == expect
    for n_dmas in (2, 6, 3):
        lay = db.ArrayLayout(n_dmas=n_dmas, per_dma=layout.per_dma)
        with pytest.raises(db.DomainError,
                           match=f"4 sectors do not split {n_dmas} waveguides"):
            db.probe(lay, cb, 0.1, pilots)


def test_pilot_grid_merges_required_tones(design):
    cb_freqs = np.array([17.045454545454545e9, 12.176789969567949e9])
    pilots = db.pilot_grid(design, 64, include=cb_freqs)
    assert pilots[0] >= design.f_min and pilots[-1] <= design.f_max
    assert np.all(np.diff(pilots) > 0)
    for f in cb_freqs:
        assert np.min(np.abs(pilots - f)) < 1.0


def test_probe_recovers_each_sector_center(layout):
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    pilots = np.sort(cb.sector_freqs)  # ascending; sector order is descending
    for ell in range(len(cb)):
        res = db.probe(layout, cb, float(cb.sector_angles[ell]), pilots)
        assert res.k_star == len(cb) - 1 - ell
        assert res.phi_hat == pytest.approx(cb.sector_angles[ell], abs=1e-9)
        assert res.f_k_star == pytest.approx(cb.sector_freqs[ell], rel=1e-12)


def test_probe_estimate_feeds_the_gain_model(layout):
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    phi = np.radians(-12.5)
    res = db.probe(layout, cb, phi, np.sort(cb.sector_freqs))
    expect = db.gain_at_estimate(layout, phi, res.phi_hat)
    assert res.gain_at_estimate == pytest.approx(expect, rel=1e-12)


def test_probe_rejects_unmappable_pilot(layout):
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    with pytest.raises(db.InvalidEstimateError,
                       match=r"pilot 5e\+09 Hz .* design\.n_g = 2\.5"):
        db.probe(layout, cb, 0.0, np.array([5e9]))


def test_gain_at_estimate_peaks_at_truth(layout):
    phi = np.radians(10.0)
    peak = db.gain_at_estimate(layout, phi, phi)
    assert peak == pytest.approx((8 * 4) ** 2, rel=1e-12)
    assert db.gain_at_estimate(layout, phi, phi + 0.05) < peak


def test_gain_at_estimate_over_arrays_equals_the_scalar_calls(layout):
    rng = np.random.default_rng(9)
    phi = rng.uniform(-PHI_MAX, PHI_MAX, 20_000)
    phi_hat = phi + rng.normal(0.0, 0.05, phi.size)
    got = db.gain_at_estimate(layout, phi, phi_hat)
    assert got.tolist() == [db.gain_at_estimate(layout, a, b)
                            for a, b in zip(phi.tolist(), phi_hat.tolist())]


def test_coverage_floor_holds_on_a_coarse_sweep(layout):
    """Worst-case probed gain stays above the codebook's own fraction."""
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    pilots = db.pilot_grid(layout.per_dma, 256, include=cb.sector_freqs)
    floor = cb.delta * (8 * 4) ** 2 * (1 - 1e-6)
    for phi in np.linspace(-PHI_MAX, PHI_MAX, 101):
        res = db.probe(layout, cb, float(phi), pilots)
        assert res.gain_at_estimate >= floor


def test_array_gain_sums_coherently_across_waveguides(layout):
    """Identically configured waveguides reach (N_y N_z)^2 at the optimum."""
    phi = db.crossover_angle(layout.per_dma, F_C)
    cfg = db.solve_p1a(layout.per_dma, phi, F_C).resonances
    gain = db.array_gain_dma(layout, np.array([cfg] * 4), phi, F_C)
    assert gain == pytest.approx(1024.0, rel=1e-9)


def test_nan_rows_stay_nan_in_a_one_row_stack(design):
    """One configuration row per angle for all three waveguides, one
    angle's row NaN (infeasible): the other angles' gains equal their own
    calls bit for bit, and the NaN angle is NaN."""
    three = db.ArrayLayout(n_dmas=3, per_dma=design)
    phis = np.radians([-20.0, 5.0, 33.0])
    res = db.solve_p1a(design, phis, F_C).resonances
    res[1] = np.nan
    stacks = res[:, None, None, :]          # (A, 1, 1, N)
    freqs = np.linspace(14e9, 16e9, 16)
    got = db.array_gain_dma(three, stacks, phis[:, None], freqs)
    assert np.isnan(got[1]).all()
    for i in (0, 2):
        assert np.array_equal(
            got[i], db.array_gain_dma(three, stacks[i], phis[i], freqs))


def test_array_gain_rejects_a_wrong_waveguide_count(layout):
    """The row count must divide the waveguide count: 3, 5 or 0 rows, or
    a single (N,) vector with no row axis, do not fit four waveguides."""
    cfg = db.solve_p1a(layout.per_dma, 0.1, F_C).resonances
    for stack in (np.array([cfg] * 3), np.array([cfg] * 5), cfg,
                  np.array([[cfg] * 3] * 2), np.empty((0, cfg.size))):
        with pytest.raises(db.DomainError,
                           match="rows dividing the 4 waveguides"):
            db.array_gain_dma(layout, stack, 0.1, F_C)


def test_array_gain_checks_the_row_length(design, layout):
    """Each row holds one resonance per element: short rows, rows of one
    resonance (which would broadcast over all elements) and a scalar are
    rejected with the element count they need."""
    one = db.ArrayLayout(1, design)
    for lay, res in ((one, np.full((1, 3), 15e9)), (layout, np.full((4, 3), 15e9)),
                     (layout, np.full((4, 1), 15e9))):
        with pytest.raises(db.DomainError, match="need 8 resonances per row"):
            db.array_gain_dma(lay, res, 0.0, 15e9)
    with pytest.raises(db.DomainError):
        db.array_gain_dma(one, 15e9, 0.0, 15e9)


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("n_rows", [1, 2, 4])
def test_sub_array_rows_match_the_expanded_reference(
        layout, reference_gain, n_rows, lossy):
    """L rows on four waveguides configure runs of 4 / L consecutive
    waveguides: the gain equals the reference over the expanded (4, N)
    stack, over an f array and at a scalar f."""
    dma = dataclasses.replace(layout.per_dma,
                              attenuation=6.0 if lossy else None)
    lay = db.ArrayLayout(n_dmas=4, per_dma=dma)
    phi = np.radians(8.0)
    rows = db.solve_p1a(dma, np.full(n_rows, phi),
                        np.linspace(13e9, 17e9, n_rows)).resonances
    assert np.isfinite(rows).all()
    freqs = np.linspace(dma.f_min, dma.f_max, 23)
    expect = reference_gain(dma, np.repeat(rows, 4 // n_rows, axis=-2),
                            phi, freqs)
    np.testing.assert_allclose(db.array_gain_dma(lay, rows, phi, freqs),
                               expect, rtol=1e-12)
    one = db.array_gain_dma(lay, rows, phi, float(freqs[7]))
    assert isinstance(one, float)
    assert one == pytest.approx(expect[7], rel=1e-12)


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("n_rows", [1, 2, 4])
@pytest.mark.parametrize("n_y", [1, 2, 3, 8, 64, 128])
def test_horner_sum_matches_the_per_element_reference(
        layout, reference_gain, n_y, n_rows, lossy):
    """The Horner evaluation in the step z equals the reference's
    element-by-element channel and dot products, over an f array and at
    a scalar f.  The bound is absolute, a fraction of the peak gain
    (N_z N_y)^2: near a null the relative error of either evaluation is
    set by the cancellation, not by the kernel."""
    dma = dataclasses.replace(layout.per_dma, n_elements=n_y,
                              attenuation=6.0 if lossy else None)
    lay = db.ArrayLayout(n_dmas=4, per_dma=dma)
    phi = np.radians(8.0)
    # Rows steered at spread tones; a long guide is infeasible at many.
    tunings = db.solve_p1a(dma, np.full(41, phi), np.linspace(13e9, 17e9, 41))
    feasible = tunings.resonances[tunings.feasible]
    assert len(feasible) >= n_rows
    rows = feasible[np.linspace(0, len(feasible) - 1, n_rows).astype(int)]
    freqs = np.linspace(dma.f_min, dma.f_max, 23)
    expect = reference_gain(dma, np.repeat(rows, 4 // n_rows, axis=-2),
                            phi, freqs)
    bound = 1e-14 * (4 * n_y) ** 2
    got = db.array_gain_dma(lay, rows, phi, freqs)
    assert got.shape == freqs.shape
    assert np.abs(got - expect).max() <= bound
    one = db.array_gain_dma(lay, rows, phi, float(freqs[11]))
    assert isinstance(one, float)
    assert abs(one - expect[11]) <= bound


def test_array_gain_with_attenuation_is_lower(layout):
    """The design alone decides: a lossy design's peak gain is lower, and a
    zero attenuation gives the lossless gains bit for bit."""
    phi = db.crossover_angle(layout.per_dma, F_C)
    cfg = np.array([db.solve_p1a(layout.per_dma, phi, F_C).resonances] * 4)
    freqs = np.linspace(12e9, 18e9, 7)      # F_C, the peak, at index 3
    gains = {alpha: db.array_gain_dma(
        dataclasses.replace(layout, per_dma=dataclasses.replace(
            layout.per_dma, attenuation=alpha)), cfg, phi, freqs)
        for alpha in (None, 0.0, 6.0)}
    assert gains[6.0][3] < gains[None][3] == pytest.approx(1024.0, rel=1e-9)
    assert gains[0.0].tobytes() == gains[None].tobytes()


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_gain_over_a_frequency_array_matches_the_reference(
        layout, reference_gain, stacked, lossy):
    """array_gain_dma of one waveguide or four over an f array equals the
    scalar reference, which decays element n by exp(-alpha n d_y) on a
    lossy design."""
    dma = dataclasses.replace(layout.per_dma,
                              attenuation=6.0 if lossy else None)
    phi = np.radians(-12.0)
    freqs = np.linspace(dma.f_min, dma.f_max, 37)
    cfg = db.solve_p1a(dma, phi, 14.4e9).resonances
    if stacked:
        other = db.solve_p1a(dma, phi, 16.0e9).resonances
        configs = np.array([cfg, cfg, other, other])
        lay = db.ArrayLayout(n_dmas=4, per_dma=dma)
        got = db.array_gain_dma(lay, configs, phi, freqs)
        one = db.array_gain_dma(lay, configs, phi, float(freqs[5]))
    else:
        configs = cfg[None, :]
        lay = db.ArrayLayout(n_dmas=1, per_dma=dma)
        got = db.array_gain_dma(lay, configs, phi, freqs)
        one = db.array_gain_dma(lay, configs, phi, float(freqs[5]))
    expect = reference_gain(dma, configs, phi, freqs)
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
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    configs = training_stack(layout, cb)
    pilots = db.pilot_grid(layout.per_dma, 256, include=cb.sector_freqs)
    phi = float(np.radians(phi_deg))
    expect = int(np.argmax(reference_gain(layout.per_dma, configs, phi, pilots)))
    assert db.probe(layout, cb, phi, pilots).k_star == expect
    doubled = np.repeat(pilots, 2)
    assert db.probe(layout, cb, phi, doubled).k_star == 2 * expect


@pytest.mark.parametrize("grid_pilots", [False, True])
def test_array_probe_equals_the_per_angle_probes(layout, reference_gain,
                                                 grid_pilots):
    """One probe over 21 angles gives each angle's reference argmax and
    the scalar probe's result; with every pilot doubled, each maximum is
    an exact tie that the lower index must win."""
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    configs = training_stack(layout, cb)
    pilots = db.pilot_grid(layout.per_dma, 256, include=cb.sector_freqs) \
        if grid_pilots else np.sort(cb.sector_freqs)
    phis = np.linspace(-PHI_MAX, PHI_MAX, 21)
    batch = db.probe(layout, cb, phis, pilots)
    doubled = db.probe(layout, cb, phis, np.repeat(pilots, 2))
    for i, phi in enumerate(phis.tolist()):
        expect = int(np.argmax(reference_gain(layout.per_dma, configs, phi,
                                              pilots)))
        assert batch.k_star[i] == expect
        assert doubled.k_star[i] == 2 * expect
        one = db.probe(layout, cb, phi, pilots)
        assert (one.k_star, one.f_k_star, one.phi_hat, one.gain_at_estimate) \
            == (batch.k_star[i], batch.f_k_star[i], batch.phi_hat[i],
                batch.gain_at_estimate[i])


def test_training_layout_groups_one_sector_per_waveguide_share(design):
    layout, cb = db.training_layout(design, 4, -PHI_MAX, PHI_MAX, 0.5)
    assert len(cb) == 4 and layout == db.ArrayLayout(n_dmas=4, per_dma=design)
    with pytest.raises(db.CoverageInfeasibleError,
                       match="needs 4 sectors.*design.n_z = 6"):
        db.training_layout(design, 6, -PHI_MAX, PHI_MAX, 0.5)


def test_second_reference_codebook():
    """Shorter waveguides with a milder fraction give the other known set."""
    dma = db.DmaDesign(n_elements=4, spacing=1.0 / 120.0, refractive_index=2.5,
                       damping=2 * np.pi * F_C / 50, coupling=1e-9,
                       f_min=12e9, f_max=18e9)
    cb = db.build_codebook(dma, -PHI_MAX, PHI_MAX, 10 ** (-0.6 / 10))
    np.testing.assert_allclose(
        np.degrees(cb.sector_angles),
        [-23.3283561, -9.50777453, 5.21877997, 22.03662678], atol=1e-6)
