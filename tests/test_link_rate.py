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


def test_achievable_rate_matches_hand_computation(layout, reference_gain):
    """Two-subcarrier case recomputed from first principles."""
    budget = make_budget(n_subcarriers=2)
    cfg = db.solve_p1a(layout.per_dma, 0.0, 14.4e9).resonances
    configs = np.array([cfg] * 4)
    rep = db.achievable_rate(budget, layout, configs, 0.0, 14.4e9)
    total = 0.0
    for f in db.subcarrier_grid(budget, 14.4e9):
        g = reference_gain(layout.per_dma, configs, 0.0, f)[0]
        snr = db.received_psd(budget, g, float(f)) / (K_B * 290.0)
        total += budget.bandwidth / 2 * np.log2(1 + snr)
    assert rep.rate == pytest.approx(total, rel=1e-9)
    assert rep.per_subcarrier_snr.shape == (2,)


@pytest.mark.parametrize("grouped", [False, True])
def test_achievable_rate_matches_per_subcarrier_array_gain(layout, grouped,
                                                           reference_gain):
    """The broadcast band gain equals the per-subcarrier array gain.

    Replicated configurations take the single-waveguide N_z^2 shortcut;
    the training configuration (one resonance per group) takes the full
    per-waveguide sum.  The reference sums waveguide by waveguide, one
    subcarrier at a time.
    """
    budget = make_budget()
    phi = np.radians(-12.0)
    if grouped:
        cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
        lay = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
        configs = np.array([np.full(8, cb.sector_freqs[m // lay.group_size])
                            for m in range(4)])
        assert len(set(configs[:, 0])) > 1
    else:
        lay = layout
        configs = np.array(
            [db.solve_p1a(layout.per_dma, phi, 14.4e9).resonances] * 4)
    rep = db.achievable_rate(budget, lay, configs, phi, 14.4e9)
    total = 0.0
    for f in db.subcarrier_grid(budget, 14.4e9):
        g = reference_gain(lay.per_dma, configs, phi, f)[0]
        snr = db.received_psd(budget, g, float(f)) / (K_B * 290.0)
        total += budget.bandwidth / 64 * np.log2(1 + snr)
    assert rep.per_subcarrier_snr.shape == (64,)
    assert rep.rate == pytest.approx(total, rel=1e-12)


def test_ttd_rate_is_frequency_flat(layout):
    budget = make_budget()
    rep = db.rate_ttd(budget, layout, F_C)
    assert np.ptp(rep.per_subcarrier_snr) == 0.0
    snr = rep.per_subcarrier_snr[0]
    assert rep.rate == pytest.approx(budget.bandwidth * np.log2(1 + snr), rel=1e-12)
    # flat gain is the full aperture (N_y N_z)^2 at the band center
    expect = db.received_psd(budget, 1024.0, F_C) / (K_B * 290.0)
    assert snr == pytest.approx(expect, rel=1e-12)


def test_ttd_bounds_every_strategy_pointwise(layout):
    """Squint-free N^2 gain caps the DMA rate at each individual angle."""
    cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    budget = make_budget()
    for phi_deg in (-28.0, -12.5, 0.0, 9.0, 24.0):
        r = db.compare_rates(grouped, cb, np.radians(phi_deg), budget)
        assert r.fixed <= r.ttd * (1 + 1e-9)
        assert r.trained <= r.ttd * (1 + 1e-9)
        assert r.perfect <= r.ttd * (1 + 1e-9)


def test_sector_average_ordering(layout):
    """Averaged over the sector, more frequency freedom never hurts.

    Pointwise per angle this can flip (a band centered off the gain peak
    may average a better rate), so the ordering is a sector-level claim.
    """
    cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    r = db.average_rates(grouped, cb, make_budget(),
                         np.radians(-30.0), np.radians(30.0), n_samples=21)
    assert r.fixed <= r.trained <= r.perfect <= r.ttd


def test_average_rates_is_the_grid_mean(layout):
    cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    budget = make_budget()
    avg = db.average_rates(grouped, cb, budget, -0.1, 0.1, n_samples=3)
    pts = [db.compare_rates(grouped, cb, phi, budget)
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
        budget, layout, np.array([sol.resonances] * layout.n_dmas), phi,
        sol.operating_freq).rate
        for name, sol in (("perfect", perfect), ("trained", trained),
                          ("fixed", fixed))}
    rates["ttd"] = db.rate_ttd(budget, layout, f_star).rate
    return rates


def test_array_compare_rates_equals_the_per_angle_calls(layout):
    """One call over 25 angles, some past the design sector, gives each
    angle's scalar rates; the average is their left-to-right mean, bit for
    bit."""
    cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    budget = make_budget(n_subcarriers=16)
    phis = db.angle_grid(np.radians(-35.0), np.radians(35.0), 25)
    batch = db.compare_rates(grouped, cb, phis, budget)
    singles = [db.compare_rates(grouped, cb, phi, budget) for phi in phis]
    references = [reference_rates(grouped, cb, phi, budget) for phi in phis]
    avg = db.average_rates(grouped, cb, budget, np.radians(-35.0),
                           np.radians(35.0), 25)
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


def test_infeasible_angle_raises_the_scalar_error(layout):
    """A low-Q guide: the sweep stops with the first infeasible angle's
    own error, as a loop over scalar calls did."""
    lowq = dataclasses.replace(layout.per_dma, damping=2 * np.pi * F_C / 1.0)
    cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=lowq, groups=len(cb))
    phis = np.radians(np.linspace(-30.0, 30.0, 21))
    first = None
    for phi in phis:
        try:
            reference_rates(grouped, cb, phi, make_budget())
        except db.InfeasibleElementError as exc:
            first = str(exc)
            break
    assert first is not None
    with pytest.raises(db.InfeasibleElementError) as err:
        db.compare_rates(grouped, cb, phis, make_budget())
    assert str(err.value) == first


def test_bandwidth_sweep_shapes_and_ttd_growth(layout):
    cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    budget = make_budget()
    rows = db.bandwidth_sweep(grouped, cb, budget, [0.1e9, 0.3e9, 1.0e9],
                              -0.2, 0.2, n_samples=3)
    assert len(rows) == 3
    ttd = [r.ttd for r in rows]
    assert ttd[0] < ttd[1] < ttd[2]  # wider band, more capacity


def test_bandwidth_sweep_rows_equal_average_rates(layout):
    cb = db.build_codebook(layout, -PHI_MAX, PHI_MAX, 0.5)
    grouped = db.ArrayLayout(n_dmas=4, per_dma=layout.per_dma, groups=len(cb))
    budget = make_budget(n_subcarriers=16)
    bandwidths = [0.1e9, 0.5e9]
    rows = db.bandwidth_sweep(grouped, cb, budget, bandwidths,
                              -0.3, 0.3, n_samples=4)
    for b, row in zip(bandwidths, rows):
        ref = db.average_rates(grouped, cb,
                               dataclasses.replace(budget, bandwidth=b),
                               -0.3, 0.3, n_samples=4)
        for name in ("fixed", "trained", "perfect", "ttd"):
            assert getattr(row, name) == pytest.approx(getattr(ref, name),
                                                       rel=1e-12)


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
