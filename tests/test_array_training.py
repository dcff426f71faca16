"""Stacked-array training: codebooks, pilots, probing, coverage floors."""

import dataclasses
import warnings

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


@pytest.mark.parametrize("n_y", [8, 128])
def test_psi_delta_rejects_a_delta_below_the_bracket(n_y):
    """Below the fraction at the bracket end 1/N - 1e-12 no crossing is in
    reach: DomainError naming the delta and that smallest fraction.  Just
    above it the root exists."""
    floor = db.dirichlet_of_p(1.0 / n_y - 1e-12, n_y) ** 2 / n_y ** 2
    with pytest.raises(db.DomainError,
                       match=f"training.delta = 1e-25 is below {floor:.3g}"):
        db.psi_delta(n_y, 1e-25)
    assert 0 < db.psi_delta(n_y, 2 * floor) < 1.0 / n_y


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
        with pytest.raises(db.InfeasibleError,
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
    with pytest.raises(db.InfeasibleError, match="design.n_y = 1"):
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


@pytest.mark.parametrize("k_tr", [2, 3, 256, 1000])
def test_pilot_grid_equals_the_unique_merge(design, k_tr):
    """The merged grid is np.unique of the grid and the tones, bit for bit:
    with the sector tones, with each tone twice, and with tones already on
    the grid."""
    cb = db.build_codebook(design, -PHI_MAX, PHI_MAX, 0.5)
    grid = np.linspace(design.f_min, design.f_max, k_tr)
    for tones in (cb.sector_freqs, np.repeat(cb.sector_freqs, 2),
                  np.concatenate([grid[::2], cb.sector_freqs])):
        np.testing.assert_array_equal(
            db.pilot_grid(design, k_tr, include=tones),
            np.unique(np.concatenate([grid, tones])), strict=True)


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
    with pytest.raises(db.InfeasibleError,
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
    gain = db.array_gain_dma(layout, cfg, phi, F_C)
    assert gain == pytest.approx(1024.0, rel=1e-9)


def test_nan_rows_stay_nan_in_a_one_row_stack(design):
    """One configuration row per angle for all three waveguides, one
    angle's row NaN (infeasible): the other angles' gains equal their own
    calls bit for bit, and the NaN angle is NaN."""
    three = db.ArrayLayout(n_dmas=3, per_dma=design)
    phis = np.radians([-20.0, 5.0, 33.0])
    res = db.solve_p1a(design, phis, F_C).resonances
    res[1] = np.nan
    stacks = res[:, None, :]                # (A, 1, N)
    freqs = np.linspace(14e9, 16e9, 16)
    got = db.array_gain_dma(three, stacks, phis[:, None], freqs)
    assert np.isnan(got[1]).all()
    for i in (0, 2):
        assert np.array_equal(
            got[i], db.array_gain_dma(three, stacks[i], phis[i], freqs))


def test_array_gain_checks_the_row_length(design, layout):
    """Each row holds one resonance per element: short rows, rows of one
    resonance (which would broadcast over all elements) and a scalar are
    rejected with the element count they need."""
    one = db.ArrayLayout(1, design)
    for lay, res in ((one, np.full(3, 15e9)), (layout, np.full((4, 3), 15e9)),
                     (layout, np.full(1, 15e9))):
        with pytest.raises(db.DomainError, match="need 8 resonances per row"):
            db.array_gain_dma(lay, res, 0.0, 15e9)
    with pytest.raises(db.DomainError):
        db.array_gain_dma(one, 15e9, 0.0, 15e9)


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("n_rows", [1, 2, 4])
def test_sub_array_rows_match_the_expanded_reference(
        layout, reference_gain, n_rows, lossy):
    """L sub-array rows on four waveguides, row l all resonant at one tone
    f_l, as the probe tunes them: the gain is (4 / L)^2 |sum_l w(f_l, f)|^2
    times the gain of the configuration resonant at f, the factors probe
    multiplies, and equals the reference over the expanded (4, N) stack,
    over an f array and at a scalar f."""
    dma = dataclasses.replace(layout.per_dma,
                              attenuation=6.0 if lossy else None)
    group = db.ArrayLayout(n_dmas=4 // n_rows, per_dma=dma)
    phi = np.radians(8.0)
    tones = np.linspace(13e9, 17e9, n_rows)
    rows = np.repeat(tones[:, None], dma.n_elements, axis=1)
    freqs = np.linspace(dma.f_min, dma.f_max, 23)
    expect = reference_gain(dma, np.repeat(rows, 4 // n_rows, axis=0),
                            phi, freqs)

    def crosstalk(f):
        w = np.sum(db.beamformer_weight(dma, tones[:, None], f), axis=0)
        return w.real * w.real + w.imag * w.imag

    resonant = np.repeat(freqs[:, None], dma.n_elements, axis=1)
    got = crosstalk(freqs) * db.array_gain_dma(group, resonant, phi, freqs)
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    f = float(freqs[7])
    one = db.array_gain_dma(group, np.full(dma.n_elements, f), phi, f)
    assert isinstance(one, float)
    assert crosstalk(f) * one == pytest.approx(expect[7], rel=1e-12)


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("n_configs", [1, 2, 4])
@pytest.mark.parametrize("n_y", [1, 2, 3, 8, 64, 128])
def test_horner_sum_matches_the_per_element_reference(
        layout, reference_gain, n_y, n_configs, lossy):
    """The Horner evaluation in the step z equals the reference's
    element-by-element channel and dot products, for each configuration
    of a stack that tunes all four waveguides alike, over an f array and
    at a scalar f.  The bound is absolute, a fraction of the peak gain
    (N_z N_y)^2: near a null the relative error of either evaluation is
    set by the cancellation, not by the kernel."""
    dma = dataclasses.replace(layout.per_dma, n_elements=n_y,
                              attenuation=6.0 if lossy else None)
    lay = db.ArrayLayout(n_dmas=4, per_dma=dma)
    phi = np.radians(8.0)
    # Configurations steered at spread tones; a long guide is infeasible
    # at many.
    tunings = db.solve_p1a(dma, np.full(41, phi), np.linspace(13e9, 17e9, 41))
    feasible = tunings.resonances[tunings.feasible]
    assert len(feasible) >= n_configs
    configs = feasible[np.linspace(0, len(feasible) - 1, n_configs).astype(int)]
    freqs = np.linspace(dma.f_min, dma.f_max, 23)
    bound = 1e-14 * (4 * n_y) ** 2
    got = db.array_gain_dma(lay, configs[:, None, :], phi, freqs)
    assert got.shape == (n_configs, freqs.size)
    for cfg, gains in zip(configs, got):
        expect = reference_gain(dma, np.repeat(cfg[None, :], 4, axis=0),
                                phi, freqs)
        assert np.abs(gains - expect).max() <= bound
        one = db.array_gain_dma(lay, cfg, phi, float(freqs[11]))
        assert isinstance(one, float)
        assert abs(one - expect[11]) <= bound


def test_array_gain_with_attenuation_is_lower(layout):
    """The design alone decides: a lossy design's peak gain is lower, and a
    zero attenuation gives the lossless gains bit for bit."""
    phi = db.crossover_angle(layout.per_dma, F_C)
    cfg = db.solve_p1a(layout.per_dma, phi, F_C).resonances
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
    """array_gain_dma of one configuration on one waveguide, or of a
    stack of two on four, over an f array equals the scalar reference,
    which decays element n by exp(-alpha n d_y) on a lossy design."""
    dma = dataclasses.replace(layout.per_dma,
                              attenuation=6.0 if lossy else None)
    phi = np.radians(-12.0)
    freqs = np.linspace(dma.f_min, dma.f_max, 37)
    cfg = db.solve_p1a(dma, phi, 14.4e9).resonances
    if stacked:
        other = db.solve_p1a(dma, phi, 16.0e9).resonances
        configs = np.array([cfg, other])
        lay = db.ArrayLayout(n_dmas=4, per_dma=dma)
    else:
        configs = cfg[None, :]
        lay = db.ArrayLayout(n_dmas=1, per_dma=dma)
    got = db.array_gain_dma(lay, configs[:, None, :], phi, freqs)
    assert got.shape == (len(configs), freqs.size)
    for c, gains in zip(configs, got):
        expect = reference_gain(dma, np.repeat(c[None, :], lay.n_dmas, axis=0),
                                phi, freqs)
        np.testing.assert_allclose(gains, expect, rtol=1e-12)
        one = db.array_gain_dma(lay, c, phi, float(freqs[5]))
        assert isinstance(one, float)
        assert one == pytest.approx(expect[5], rel=1e-12)


def probe_layout(design, variant):
    """The four-waveguide reference array, its lossy twin, or eight
    waveguides, two in each of the four training groups."""
    if variant == "lossy":
        return db.ArrayLayout(4, dataclasses.replace(design, attenuation=6.0))
    return db.ArrayLayout(8 if variant == "nz8" else 4, design)


def probe_cases(values):
    """(variant, value) pairs: the reference array under the bare value as
    its id, the lossy and N_z = 8 arrays under a prefixed one."""
    return [pytest.param(variant, v, id=f"{variant}-{v}" if variant else f"{v}")
            for variant in ("", "lossy", "nz8") for v in values]


def reference_pick(reference_gain, layout, codebook, phi, pilots):
    """The reference argmax of the pilot gains over the per-waveguide
    training stack, or None where its top two gains lie within 1e-12
    relative: a float tie, which either evaluation may break either way."""
    gains = reference_gain(layout.per_dma, training_stack(layout, codebook),
                           phi, pilots)
    runner_up, top = np.sort(gains)[-2:]
    if top - runner_up <= 1e-12 * top:
        return None
    return int(np.argmax(gains))


@pytest.mark.parametrize(
    "variant, phi_deg",
    probe_cases([-30.0, -17.3, -4.0, 0.0, 9.5, 21.0, 30.0]))
def test_probe_argmax_matches_the_reference(design, reference_gain, variant,
                                           phi_deg):
    """The probe's k_star is the reference argmax, lowest index on ties.

    Each pilot appears twice, so every maximum is an exact tie between
    neighbours and the lower (even) index must win.
    """
    layout = probe_layout(design, variant)
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    pilots = db.pilot_grid(layout.per_dma, 256, include=cb.sector_freqs)
    phi = float(np.radians(phi_deg))
    k_star = db.probe(layout, cb, phi, pilots).k_star
    expect = reference_pick(reference_gain, layout, cb, phi, pilots)
    assert expect is None or k_star == expect
    doubled = np.repeat(pilots, 2)
    assert db.probe(layout, cb, phi, doubled).k_star == 2 * k_star


@pytest.mark.parametrize("variant, grid_pilots", probe_cases([False, True]))
def test_array_probe_equals_the_per_angle_probes(design, reference_gain,
                                                 variant, grid_pilots):
    """One probe over 21 angles gives each angle's reference argmax and
    the scalar probe's result; with every pilot doubled, each maximum is
    an exact tie that the lower index must win."""
    layout = probe_layout(design, variant)
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    pilots = db.pilot_grid(layout.per_dma, 256, include=cb.sector_freqs) \
        if grid_pilots else np.sort(cb.sector_freqs)
    phis = np.linspace(-PHI_MAX, PHI_MAX, 21)
    batch = db.probe(layout, cb, phis, pilots)
    doubled = db.probe(layout, cb, phis, np.repeat(pilots, 2))
    for i, phi in enumerate(phis.tolist()):
        expect = reference_pick(reference_gain, layout, cb, phi, pilots)
        assert expect is None or batch.k_star[i] == expect
        assert doubled.k_star[i] == 2 * batch.k_star[i]
        one = db.probe(layout, cb, phi, pilots)
        assert (one.k_star, one.f_k_star, one.phi_hat, one.gain_at_estimate) \
            == (batch.k_star[i], batch.f_k_star[i], batch.phi_hat[i],
                batch.gain_at_estimate[i])


def test_training_layout_groups_one_sector_per_waveguide_share(design):
    layout, cb = db.training_layout(design, 4, -PHI_MAX, PHI_MAX, 0.5)
    assert len(cb) == 4 and layout == db.ArrayLayout(n_dmas=4, per_dma=design)
    with pytest.raises(db.InfeasibleError,
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


def _kernel_shapes(design, lossy):
    """(layout, resonances, phi, f) of the kernel's call shapes on a design:
    the rate sweep's (A, 1, N) configurations against an (A, K)
    subcarrier grid, the probe's (K, N) configuration resonant at each of
    K pilots against those pilots, and one configuration at a single
    frequency over many angles, one weight per element."""
    dma = dataclasses.replace(design, attenuation=6.0 if lossy else None)
    phis = np.radians(np.linspace(-30.0, 30.0, 13))
    rows = db.solve_p1a(dma, phis, F_C).resonances
    grid = F_C + np.linspace(-0.4e9, 0.4e9, 9) + 0.1e9 * phis[:, None]
    pilots = np.linspace(dma.f_min, dma.f_max, 33)
    resonant = np.broadcast_to(pilots[:, None], (pilots.size, dma.n_elements))
    return {
        "rate": (db.ArrayLayout(4, dma), rows[:, None, :],
                 phis[:, None], grid),
        "probe": (db.ArrayLayout(1, dma), resonant, phis[:, None], pilots),
        "one frequency": (db.ArrayLayout(1, dma), rows[6], phis, 14.2e9),
    }


@pytest.mark.parametrize("entries", [1, 7, 2 ** 40])
@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("shape", ["rate", "probe", "one frequency"])
def test_weight_blocks_leave_the_gain_bit_for_bit(design, monkeypatch,
                                                  shape, lossy, entries):
    """A block of one element, of a few, or of all of them folds the same
    weights into the same Horner steps: the gains are equal bit for bit."""
    args = _kernel_shapes(design, lossy)[shape]
    whole = db.array_gain_dma(*args)
    monkeypatch.setattr(db.array_training, "WEIGHT_BLOCK_ENTRIES", entries)
    got = db.array_gain_dma(*args)
    assert got.shape == whole.shape
    assert got.tobytes() == whole.tobytes()


@pytest.mark.parametrize("entries", [1, 7, 2 ** 40])
@pytest.mark.parametrize("lossy", [False, True])
def test_weight_blocks_keep_nan_rows_quiet_at_128_elements(
        design, monkeypatch, lossy, entries):
    """A 128-element guide is infeasible at many angles: their NaN rows give
    NaN gains without a RuntimeWarning, in any block size, and the other
    angles' gains do not depend on the block size."""
    dma = dataclasses.replace(design, n_elements=128,
                              attenuation=6.0 if lossy else None)
    phis = np.radians(np.linspace(-30.0, 30.0, 17))
    tunings = db.solve_p1a(dma, phis, np.linspace(13e9, 17e9, 17))
    assert 0 < tunings.feasible.sum() < phis.size
    args = (db.ArrayLayout(4, dma), tunings.resonances[:, None, :],
            phis[:, None], np.linspace(14e9, 16e9, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        whole = db.array_gain_dma(*args)
        monkeypatch.setattr(db.array_training, "WEIGHT_BLOCK_ENTRIES", entries)
        got = db.array_gain_dma(*args)
    assert np.isnan(got[~tunings.feasible]).all()
    assert np.isfinite(got[tunings.feasible]).all()
    assert got.tobytes() == whole.tobytes()


@pytest.mark.parametrize("per_block", [1, 3, None])
@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("n_y", [1, 8, 128])
def test_kernel_matches_the_per_block_weight_loop(
        design, monkeypatch, reference_array_gain_dma, n_y, lossy, per_block):
    """Rate-shaped stacks, angles by subcarriers with NaN resonance rows:
    the gains equal, bit for bit, those of one beamformer_weight call per
    block, in blocks of 1 or 3 elements or of the default size.  Blocks
    of 3 leave a partial last block of 8 or 128 elements, and the default
    size (107 elements at this shape) one of 128."""
    dma = dataclasses.replace(design, n_elements=n_y,
                              attenuation=6.0 if lossy else None)
    phis = np.radians(np.linspace(-30.0, 30.0, 17))
    rows = db.solve_p1a(dma, phis, F_C).resonances.copy()
    rows[::5] = np.nan
    grid = F_C + np.linspace(-0.4e9, 0.4e9, 9) + 0.1e9 * phis[:, None]
    args = (db.ArrayLayout(4, dma), rows[:, None, :], phis[:, None], grid)
    entries = db.array_training.WEIGHT_BLOCK_ENTRIES
    if per_block is not None:
        entries = per_block * grid.size
        monkeypatch.setattr(db.array_training, "WEIGHT_BLOCK_ENTRIES",
                            entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = db.array_gain_dma(*args)
    expect = reference_array_gain_dma(*args, entries)
    nan_rows = np.isnan(rows).any(axis=1)
    assert nan_rows[::5].all() and not nan_rows.all()
    assert np.isnan(got[nan_rows]).all() and np.isfinite(got[~nan_rows]).all()
    assert got.shape == expect.shape == grid.shape
    assert np.array_equal(got, expect, equal_nan=True)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("lossy", [False, True])
def test_step_at_a_negative_zero_phase_keeps_the_gain_bits(
        design, reference_array_gain_dma, lossy):
    """At n_g = 1 and phi = -90 deg theta_1 is -0.0: sin gives the step
    z a negative imaginary zero where the complex exponential gives a
    positive one, and the squared modulus drops that sign.  The gains
    equal those of the exponential step bit for bit."""
    dma = dataclasses.replace(design, refractive_index=1.0,
                              attenuation=6.0 if lossy else None)
    phis = np.radians([-90.0, -60.0, 0.0, 45.0])
    pair = dataclasses.replace(dma, n_elements=2)
    theta = db.combined_phases(pair, -np.pi / 2, 15e9)[1]
    assert theta == 0.0 and np.signbit(theta)
    rows = np.linspace(13e9, 17e9, dma.n_elements) \
        + 0.2e9 * np.arange(phis.size)[:, None]
    grid = np.linspace(14e9, 16e9, 9)
    args = (db.ArrayLayout(4, dma), rows[:, None, :], phis[:, None], grid)
    got = db.array_gain_dma(*args)
    expect = reference_array_gain_dma(
        *args, db.array_training.WEIGHT_BLOCK_ENTRIES)
    assert got.tobytes() == expect.tobytes()


def test_rate_shaped_call_peak_memory(design):
    """One rate-sweep call, 181 angles x 64 subcarriers at N = 8, peaks
    below 1,100 KB of traced memory (12.2 float grids of that shape):
    the weights are written into work arrays made once per call, and the
    two-column phase array is freed once the step is formed."""
    import tracemalloc
    phis = np.radians(np.linspace(-30.0, 30.0, 181))
    rows = db.solve_p1a(design, phis, F_C).resonances
    grid = F_C + np.linspace(-0.15e9, 0.15e9, 64) + 0.1e9 * phis[:, None]
    args = (db.ArrayLayout(4, design), rows[:, None, :], phis[:, None], grid)
    db.array_gain_dma(*args)
    tracemalloc.start()
    try:
        db.array_gain_dma(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1100 * 1024


def test_empty_angles_or_frequencies_give_an_empty_gain(design, layout):
    cfg = np.full(design.n_elements, 15e9)
    assert db.array_gain_dma(layout, cfg, np.empty(0), F_C).shape == (0,)
    assert db.array_gain_dma(layout, cfg, 0.1, np.empty(0)).shape == (0,)
    got = db.array_gain_dma(layout, np.empty((0, 1, design.n_elements)),
                            np.empty((0, 1)), np.empty((0, 9)))
    assert got.shape == (0, 9) and got.dtype == float
