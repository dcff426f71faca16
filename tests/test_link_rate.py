"""OFDM link rates for the four beamforming strategies."""

import dataclasses

import numpy as np
import pytest

import dmabeam as db

F_C = 15e9
K_B = 1.38e-23
PHI_MAX = np.radians(30.0)


def make_budget(**kw):
    base = dict(tx_power=0.25, distance=500.0, noise_temp=290.0,
                bandwidth=0.3e9, n_subcarriers=64)
    base.update(kw)
    return db.LinkBudget(**base)


def test_budget_validation():
    with pytest.raises(db.DomainError):
        make_budget(tx_power=0.0)
    with pytest.raises(db.DomainError):
        make_budget(n_subcarriers=0)
    with pytest.raises(db.DomainError):
        make_budget(bandwidth=-0.3e9)


@pytest.mark.parametrize("field", ["tx_power", "distance", "noise_temp",
                                   "bandwidth", "n_subcarriers"])
def test_budget_rejects_a_nan_field(field):
    """NaN fails every bound, so a budget holding one never constructs."""
    with pytest.raises(db.DomainError, match=f"^{field} must be"):
        make_budget(**{field: float("nan")})


def test_subcarrier_grid_geometry():
    budget = make_budget(n_subcarriers=8)
    f = db.subcarrier_grid(budget, F_C)
    assert f.shape == (8,)
    np.testing.assert_allclose(np.diff(f), budget.bandwidth / 8, rtol=1e-12)
    assert f.mean() == pytest.approx(F_C, rel=1e-12)
    assert f[0] == pytest.approx(
        F_C - budget.bandwidth / 2 + budget.bandwidth / 16, rel=1e-12)
    rows = db.subcarrier_grid(budget, np.array([13e9, F_C]))
    assert rows.shape == (2, 8) and np.array_equal(rows[1], f)


def test_subcarrier_grid_rejects_a_band_below_zero_at_its_center(layout):
    """The check is on the center each call is given, one per row too;
    the TTD rate, centered apart, checks the same way."""
    budget = make_budget()                          # B = 0.3 GHz
    assert db.subcarrier_grid(budget, 0.16e9).shape == (64,)
    for center in (0.1e9, 0.15e9, np.array([F_C, 0.1e9])):
        with pytest.raises(db.DomainError, match="below zero frequency"):
            db.subcarrier_grid(budget, center)
        with pytest.raises(db.DomainError, match="below zero frequency"):
            db.rate_ttd(budget, layout, center)


def test_received_psd_hand_value():
    budget = make_budget()
    lam = 3.0e8 / F_C
    expect = (lam / (4 * np.pi * 500.0)) ** 2 * (0.25 / 0.3e9) * 64.0
    assert db.received_psd(budget, 64.0, F_C) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(db.DomainError):
        db.received_psd(budget, -1.0, F_C)


def test_received_psd_broadcasts():
    budget = make_budget()
    gains = np.array([1.0, 4.0, 9.0])
    freqs = np.array([13e9, 15e9, 17e9])
    out = db.received_psd(budget, gains, freqs)
    for i in range(3):
        assert out[i] == pytest.approx(
            db.received_psd(budget, gains[i], freqs[i]), rel=1e-12)


@pytest.mark.parametrize("shapes", [((64,), (64,)), ((64,), (9, 1)),
                                    ((9, 64), (9, 64))])
def test_received_psd_and_rate_keep_the_bits_of_the_expressions(shapes):
    """The in-place passes round as the one-expression forms did: PSD and
    rate for subcarrier rows, a TTD-shaped gain row against band centers,
    and angle x subcarrier grids; a scalar call gives the bits of the same
    point in an array call."""
    gain_shape, f_shape = shapes
    budget = make_budget()
    rng = np.random.default_rng(3)
    gain = rng.uniform(0.0, 1024.0, gain_shape)
    f = rng.uniform(14.8e9, 15.2e9, f_shape)
    psd = (3.0e8 / f / (4.0 * np.pi * 500.0)) ** 2 * (0.25 / 0.3e9) * gain
    rate = 0.3e9 / 64 * np.sum(np.log2(1.0 + psd / (K_B * 290.0)), axis=-1)
    got = db.received_psd(budget, gain, f)
    assert got.tobytes() == psd.tobytes()
    got_rate = db.link_rate._rate(budget, gain, f)
    assert np.array(got_rate).tobytes() == rate.tobytes()
    one = db.received_psd(budget, float(gain.flat[0]), float(f.flat[0]))
    assert type(one) is float and one == got.flat[0]


def test_achievable_rate_matches_hand_computation(layout, reference_gain):
    """Two-subcarrier case recomputed from first principles."""
    budget = make_budget(n_subcarriers=2)
    cfg = db.solve_p1a(layout.per_dma, 0.0, 14.4e9).resonances
    rate = db.achievable_rate(budget, layout, cfg, 0.0, 14.4e9)
    total = 0.0
    for f in db.subcarrier_grid(budget, 14.4e9):
        g = reference_gain(layout.per_dma, np.array([cfg] * 4), 0.0, f)[0]
        snr = db.received_psd(budget, g, float(f)) / (K_B * 290.0)
        total += budget.bandwidth / 2 * np.log2(1 + snr)
    assert type(rate) is float
    assert rate == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("grouped", [False, True])
def test_achievable_rate_matches_per_subcarrier_array_gain(layout, grouped,
                                                           reference_gain):
    """The broadcast band gain equals the per-subcarrier array gain.

    One configuration gives one rate; a stack of them (the codebook's
    sector tones, one resonance per configuration) gives one rate per
    configuration.  The reference sums waveguide by waveguide, one
    subcarrier at a time.
    """
    budget = make_budget()
    phi = np.radians(-12.0)
    if grouped:
        cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
        configs = np.array([np.full(8, f) for f in cb.sector_freqs])
        assert len(set(configs[:, 0])) > 1
        rates = db.achievable_rate(budget, layout, configs[:, None, :], phi,
                                   14.4e9)
        assert rates.shape == (len(configs),)
    else:
        configs = db.solve_p1a(layout.per_dma, phi, 14.4e9).resonances[None, :]
        rates = [db.achievable_rate(budget, layout, configs[0], phi, 14.4e9)]
    for cfg, rate in zip(configs, rates):
        total = 0.0
        for f in db.subcarrier_grid(budget, 14.4e9):
            g = reference_gain(layout.per_dma, np.array([cfg] * 4), phi, f)[0]
            snr = db.received_psd(budget, g, float(f)) / (K_B * 290.0)
            total += budget.bandwidth / 64 * np.log2(1 + snr)
        assert rate == pytest.approx(total, rel=1e-12)


def test_ttd_rate_is_frequency_flat(layout):
    """The full aperture (N_y N_z)^2 on every subcarrier, at the SNR of the
    band center: B log2(1 + SNR), one center or an array of them."""
    budget = make_budget()
    snr = db.received_psd(budget, 1024.0, F_C) / (K_B * 290.0)
    rate = db.rate_ttd(budget, layout, F_C)
    assert type(rate) is float
    assert rate == pytest.approx(budget.bandwidth * np.log2(1 + snr), rel=1e-12)
    rates = db.rate_ttd(budget, layout, np.array([F_C, 1.2 * F_C]))
    assert rates.shape == (2,) and rates[0] == rate and rates[1] < rate


def test_ttd_bounds_every_strategy_pointwise(layout):
    """Squint-free N^2 gain caps the DMA rate at each individual angle."""
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    budget = make_budget()
    for phi_deg in (-28.0, -12.5, 0.0, 9.0, 24.0):
        r = db.compare_rates(layout, cb, np.radians(phi_deg), budget)
        assert r.fixed <= r.ttd * (1 + 1e-9)
        assert r.trained <= r.ttd * (1 + 1e-9)
        assert r.perfect <= r.ttd * (1 + 1e-9)


def test_sector_average_ordering(layout):
    """Averaged over the sector, more frequency freedom never hurts.

    Pointwise per angle this can flip (a band centered off the gain peak
    may average a better rate), so the ordering is a sector-level claim.
    """
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    budget = make_budget()
    [r] = db.bandwidth_sweep(layout, cb, budget, [budget.bandwidth],
                             np.radians(-30.0), np.radians(30.0), n_samples=21)
    assert r.fixed <= r.trained <= r.perfect <= r.ttd


def test_bandwidth_sweep_row_is_the_grid_mean(layout):
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    budget = make_budget()
    [avg] = db.bandwidth_sweep(layout, cb, budget, [budget.bandwidth],
                               -0.1, 0.1, n_samples=3)
    pts = [db.compare_rates(layout, cb, phi, budget)
           for phi in np.linspace(-0.1, 0.1, 3)]
    assert avg.perfect == pytest.approx(np.mean([p.perfect for p in pts]), rel=1e-12)
    assert avg.fixed == pytest.approx(np.mean([p.fixed for p in pts]), rel=1e-12)


def reference_rates(layout, codebook, phi, budget):
    """The four strategies at one angle, assembled from scalar calls in the
    order a per-angle sweep makes them: perfect, probe, trained, fixed."""
    design = layout.per_dma
    f_star = db.optimal_operating_freq(design, phi).f_t_star
    perfect = db.solve_p1a(design, phi, f_star)
    probed = db.probe(layout, codebook, phi, np.sort(codebook.sector_freqs))
    trained = db.solve_p1a(design, probed.phi_hat, probed.f_k_star)
    f_c = 0.5 * (design.f_min + design.f_max)
    fixed = db.solve_p1a(design, phi, f_c)
    rates = {name: db.achievable_rate(
        budget, layout, sol.resonances, phi,
        sol.operating_freq)
        for name, sol in (("perfect", perfect), ("trained", trained),
                          ("fixed", fixed))}
    rates["ttd"] = db.rate_ttd(budget, layout, f_star)
    return rates


def test_array_compare_rates_equals_the_per_angle_calls(layout):
    """One call over 25 angles, some past the design sector, gives each
    angle's scalar rates; the average is their left-to-right mean, bit for
    bit."""
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    budget = make_budget(n_subcarriers=16)
    phis = db.angle_grid(np.radians(-35.0), np.radians(35.0), 25)
    batch = db.compare_rates(layout, cb, phis, budget)
    singles = [db.compare_rates(layout, cb, phi, budget) for phi in phis]
    references = [reference_rates(layout, cb, phi, budget) for phi in phis]
    [avg] = db.bandwidth_sweep(layout, cb, budget, [budget.bandwidth],
                               np.radians(-35.0), np.radians(35.0), 25)
    for name in ("fixed", "trained", "perfect", "ttd"):
        column = [getattr(r, name) for r in singles]
        assert all(isinstance(v, float) for v in column)
        np.testing.assert_allclose(getattr(batch, name), column, rtol=1e-12)
        np.testing.assert_allclose(getattr(batch, name),
                                   [r[name] for r in references], rtol=1e-12)
        total = 0.0
        for v in getattr(batch, name):
            total += v
        assert getattr(avg, name) == total / 25


def test_infeasible_angles_are_nan_rates(layout):
    """A low-Q guide: a strategy's rate is NaN exactly at the angles where
    its solution is infeasible, as the per-angle calls give it, and the
    other angles and strategies keep their rates.  A strategy infeasible
    at some angle averages to NaN."""
    lowq = dataclasses.replace(layout.per_dma, damping=2 * np.pi * F_C / 1.0)
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    lowq_layout = db.ArrayLayout(n_dmas=4, per_dma=lowq)
    budget = make_budget(n_subcarriers=16)
    phis = np.radians(np.linspace(-30.0, 30.0, 21))
    batch = db.compare_rates(lowq_layout, cb, phis, budget)
    references = [reference_rates(lowq_layout, cb, phi, budget) for phi in phis]
    for name in ("fixed", "trained", "perfect", "ttd"):
        np.testing.assert_allclose(getattr(batch, name),
                                   [r[name] for r in references], rtol=1e-12)
    fixed = db.solve_p1a(lowq, phis, F_C)
    assert np.array_equal(np.isnan(batch.fixed), ~fixed.feasible)
    assert 0 < np.count_nonzero(~fixed.feasible) < phis.size
    [avg] = db.bandwidth_sweep(lowq_layout, cb, budget, [budget.bandwidth],
                               phis[0], phis[-1], 21)
    assert np.isnan(avg.fixed) and np.isfinite(avg.ttd)


def test_tuning_range_sweep_keeps_going_past_infeasible_angles(design):
    """The same low-Q guide in a tuning-range sweep: every range is
    computed, the fixed strategy's average is NaN, and the strategies
    that stay feasible keep their order."""
    lowq = dataclasses.replace(design, damping=2 * np.pi * F_C / 1.0)
    pts = db.tuning_range_sweep(lowq, 4, 2.5, 0.5, make_budget(n_subcarriers=4),
                                [2e9, 3e9], n_samples=5)
    assert [pt.tuning_range for pt in pts] == [2e9, 3e9]
    assert np.isnan(pts[0].rates.fixed)
    for pt in pts:
        assert pt.rates.trained <= pt.rates.perfect <= pt.rates.ttd


def test_bandwidth_sweep_shapes_and_ttd_growth(layout):
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    budget = make_budget()
    rows = db.bandwidth_sweep(layout, cb, budget, [0.1e9, 0.3e9, 1.0e9],
                              -0.2, 0.2, n_samples=3)
    assert len(rows) == 3
    ttd = [r.ttd for r in rows]
    assert ttd[0] < ttd[1] < ttd[2]  # wider band, more capacity


def test_bandwidth_sweep_rows_are_compare_rates_means(layout):
    """Row i is the left-to-right mean of compare_rates over the angle
    grid with the budget's bandwidth set to bandwidths[i], bit for bit."""
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    budget = make_budget(n_subcarriers=16)
    bandwidths = [0.1e9, 0.5e9]
    rows = db.bandwidth_sweep(layout, cb, budget, bandwidths,
                              -0.3, 0.3, n_samples=4)
    grid = db.angle_grid(-0.3, 0.3, 4)
    for b, row in zip(bandwidths, rows):
        ref = db.compare_rates(layout, cb, grid,
                               dataclasses.replace(budget, bandwidth=b))
        for name in ("fixed", "trained", "perfect", "ttd"):
            total = 0.0
            for v in getattr(ref, name):
                total += v
            assert getattr(row, name) == total / 4


@pytest.mark.parametrize("bandwidths", [[0.3e9], [0.1e9, 0.3e9, 1.0e9]])
def test_bandwidth_sweep_solves_the_tunings_once(layout, monkeypatch,
                                                 bandwidths):
    """The tunings do not depend on the bandwidth: one planner call and
    one probe per sweep, whatever the number of bandwidths."""
    import dmabeam.link_rate as link_rate

    calls = {"optimal_operating_freq": 0, "probe": 0}

    def counted(name):
        inner = getattr(link_rate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(link_rate, name, counted(name))
    cb = db.build_codebook(layout.per_dma, -PHI_MAX, PHI_MAX, 0.5)
    rows = db.bandwidth_sweep(layout, cb, make_budget(n_subcarriers=8),
                              bandwidths, -0.3, 0.3, n_samples=5)
    assert len(rows) == len(bandwidths)
    assert calls == {"optimal_operating_freq": 1, "probe": 1}


def test_angle_grid_endpoints():
    g = db.angle_grid(-0.5, 0.5, 11)
    assert g[0] == -0.5 and g[-1] == 0.5 and g.size == 11
    with pytest.raises(db.DomainError):
        db.angle_grid(-0.5, 0.5, 0)


def test_tuning_range_sweep_redesigns_per_point(design):
    budget = make_budget(n_subcarriers=16)
    pts = db.tuning_range_sweep(design, 4, 2.5, 0.5, budget,
                                [2e9, 3e9], n_samples=5)
    assert len(pts) == 2
    for t_r, pt in zip((2e9, 3e9), pts):
        assert pt.tuning_range == t_r
        cov = db.max_coverage_angle(2.5, t_r, F_C)
        assert pt.phi_max == pytest.approx(cov.angle, rel=1e-12)
        assert pt.n_sectors >= 1
        assert pt.rates.fixed <= pt.rates.trained <= pt.rates.perfect <= pt.rates.ttd
    assert pts[0].phi_max < pts[1].phi_max


def test_tuning_range_point_is_a_one_bandwidth_sweep(design):
    """A point's rates are the one-bandwidth sweep over the redesigned
    array and its own sector -phi_max ... phi_max, bit for bit."""
    budget = make_budget(n_subcarriers=8)
    [pt] = db.tuning_range_sweep(design, 4, 2.5, 0.5, budget, [3e9],
                                 n_samples=5)
    f_min, f_max = F_C - 1.5e9, F_C + 1.5e9
    sector = db.design_sector(-pt.phi_max, pt.phi_max, f_min, f_max)
    redesigned = dataclasses.replace(
        design, spacing=sector.d_y_star, refractive_index=sector.n_g_star,
        f_min=f_min, f_max=f_max)
    layout, cb = db.training_layout(redesigned, 4, -pt.phi_max, pt.phi_max,
                                    0.5)
    [row] = db.bandwidth_sweep(layout, cb, budget, [budget.bandwidth],
                               -pt.phi_max, pt.phi_max, 5)
    assert pt.n_sectors == len(cb)
    assert dataclasses.astuple(pt.rates) == dataclasses.astuple(row)
