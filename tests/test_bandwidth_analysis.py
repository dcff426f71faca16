"""Gain-vs-frequency cutoffs for single elements and the full array."""

import dataclasses

import numpy as np
import pytest

import dmabeam as db
from dmabeam.bandwidth_analysis import ARRAY_CUTOFF_TOL

F_C = 15e9

F_STAR = 16.430980937585947e9


def test_reference_half_gain_bandwidth(design):
    """The half-gain band at the reference point is 300 MHz wide."""
    rep = db.cutoff_frequencies(design, F_STAR, 0.5)
    assert rep.bandwidth == pytest.approx(300e6, rel=0.02)
    assert rep.approx_bandwidth == pytest.approx(300e6, rel=1e-12)
    assert abs(rep.bandwidth - rep.approx_bandwidth) / rep.bandwidth < 1e-3


def test_cutoffs_bracket_the_peak(design):
    rep = db.cutoff_frequencies(design, F_STAR, 0.5)
    assert rep.f_lower < F_STAR < rep.f_upper
    assert rep.bandwidth == pytest.approx(rep.f_upper - rep.f_lower, rel=1e-12)


def test_exact_cutoffs_satisfy_geometric_identity(design):
    """The exact cutoff pair multiplies back to the peak frequency squared."""
    for nu in (0.1, 0.5, 0.9):
        rep = db.cutoff_frequencies(design, F_STAR, nu)
        assert rep.f_lower * rep.f_upper == pytest.approx(F_STAR ** 2, rel=1e-12)


def test_cutoff_threshold_failure_raises_cutoff_error(design, monkeypatch):
    import dmabeam.bandwidth_analysis as ba

    monkeypatch.setattr(ba, "beamformer_weight", lambda *args: 1.0)
    with pytest.raises(db.InfeasibleError, match="f_t_star.*nu"):
        ba.cutoff_frequencies(design, F_STAR, 0.5)


@pytest.mark.parametrize("flat, phi_deg", [
    ({"n_elements": 1}, -18.0), ({"spacing": 1e-300}, -18.0),
    ({"refractive_index": 1.0}, -90.0)], ids=["n1", "dy1e-300", "ng1-90deg"])
def test_array_cutoffs_where_the_kernel_is_flat_are_the_element_cutoffs(
        design, flat, phi_deg):
    """Where D_N stays at N the response is the element factor, which is
    at nu at the element cutoffs: a bracket end whose response is not
    below nu is the cutoff itself."""
    flat_design = dataclasses.replace(design, **flat)
    el = db.cutoff_frequencies(flat_design, F_STAR, 0.5)
    got = db.array_cutoff_frequencies(flat_design, np.radians(phi_deg),
                                      F_STAR, 0.5)
    assert got == pytest.approx((el.f_lower, el.f_upper), abs=ARRAY_CUTOFF_TOL)


@pytest.mark.parametrize("q", [0.1, 1.0, 50.0])
def test_array_cutoffs_are_the_first_crossings(design, q):
    """At every whole degree over +-89 deg, with f* from the planner, the
    response |w(f*, f)|^2 D(f)^2 / peak stays at or above nu from f* to
    each cutoff on a 1,001-point grid (points within ARRAY_CUTOFF_TOL of
    the cutoff excepted), and is below nu 2 ARRAY_CUTOFF_TOL past it."""
    q_design = dataclasses.replace(design, damping=2 * np.pi * F_C / q)
    phis = np.radians(np.arange(-89.0, 90.0))
    misses = []
    for phi, f_star in zip(phis, db.optimal_operating_freq(
            q_design, phis).f_t_star):
        peak = db.dirichlet_kernel(q_design, phi, f_star) ** 2

        def response(f):
            return abs(db.beamformer_weight(q_design, f_star, f)) ** 2 \
                * db.dirichlet_kernel(q_design, phi, f) ** 2 / peak

        cuts = db.array_cutoff_frequencies(q_design, phi, f_star, 0.5)
        for cut, outward in zip(cuts, (-1.0, 1.0)):
            f = np.linspace(f_star, cut, 1001)
            f = f[abs(f - cut) > ARRAY_CUTOFF_TOL]
            if not (np.all(response(f) >= 0.5) and response(
                    cut + outward * 2 * ARRAY_CUTOFF_TOL) < 0.5):
                misses.append((round(np.degrees(phi)), outward))
    assert misses == []


def element_gain(design, f):
    """|w(f*, f)|^2, the element factor of the response."""
    return abs(db.beamformer_weight(design, F_STAR, f)) ** 2


def test_gain_at_cutoffs_is_the_requested_fraction(design):
    rep = db.cutoff_frequencies(design, F_STAR, 0.5)
    peak = element_gain(design, F_STAR)
    assert element_gain(design, rep.f_lower) \
        == pytest.approx(0.5 * peak, rel=1e-9)
    assert element_gain(design, rep.f_upper) \
        == pytest.approx(0.5 * peak, rel=1e-9)


def test_approx_bandwidth_formula(design):
    """approx = Gamma sqrt((1-nu)/nu) / (2 pi), independent of the peak."""
    for nu in (0.25, 0.5, 0.75):
        rep = db.cutoff_frequencies(design, F_STAR, nu)
        expect = design.damping * np.sqrt((1 - nu) / nu) / (2 * np.pi)
        assert rep.approx_bandwidth == pytest.approx(expect, rel=1e-12)


def test_bandwidth_shrinks_as_nu_rises(design):
    widths = [db.cutoff_frequencies(design, F_STAR, nu).bandwidth
              for nu in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert np.all(np.diff(widths) < 0)


def test_nu_out_of_range_raises(design):
    for nu in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(db.DomainError):
            db.cutoff_frequencies(design, F_STAR, nu)


def test_array_band_is_narrower_than_element_band(design):
    """The Dirichlet factor adds its own roll-off on top of the element's."""
    phi = np.radians(-18.0)
    el = db.cutoff_frequencies(design, F_STAR, 0.5)
    ar_lo, ar_hi = db.array_cutoff_frequencies(design, phi, F_STAR, 0.5)
    assert ar_lo >= el.f_lower - 1e3
    assert ar_hi <= el.f_upper + 1e3
    assert ar_hi - ar_lo < el.bandwidth


def test_combined_gain_at_array_cutoffs(design):
    """At the array cutoffs the element x array product is half its peak."""
    phi = np.radians(-18.0)
    ar_lo, ar_hi = db.array_cutoff_frequencies(design, phi, F_STAR, 0.5)

    def combined(f):
        return element_gain(design, f) * db.dirichlet_kernel(design, phi, f) ** 2

    peak = combined(F_STAR)
    assert combined(ar_lo) == pytest.approx(0.5 * peak, rel=1e-4)
    assert combined(ar_hi) == pytest.approx(0.5 * peak, rel=1e-4)


def test_element_gain_peaks_at_operating_point(design):
    assert element_gain(design, F_STAR) == 1.0
    f = np.linspace(12e9, 18e9, 241)
    g = element_gain(design, f)
    assert g.max() <= 1.0
    assert abs(float(f[np.argmax(g)]) - F_STAR) < 30e6
