"""Operating-frequency selection, sector design, coverage limits."""

import dataclasses

import numpy as np
import pytest

import dmabeam as db
import dmabeam.frequency_planner as fp
from dmabeam.frequency_planner import GOLDEN_TOL

C = 3.0e8


def test_reference_operating_frequency(design):
    """Steering to -18 deg lands the known off-center frequency."""
    op = db.optimal_operating_freq(design, np.radians(-18.0))
    assert op.integer_case
    assert op.p_star == 1.0
    assert op.gain == pytest.approx(64.0, rel=1e-12)
    assert op.f_t_star == pytest.approx(16.430980937585947e9, abs=1e3)


def test_broadside_operating_frequency(design):
    """At broadside p = 1 needs f = c / (d_y n_g) = 14.4 GHz."""
    op = db.optimal_operating_freq(design, 0.0)
    assert op.integer_case
    assert op.f_t_star == pytest.approx(14.4e9, rel=1e-12)


def test_smallest_integer_wins(design):
    """Wide-open p ranges hold several integers; the lowest is chosen."""
    wide = dataclasses.replace(design, f_min=12e9, f_max=36e9)
    op = db.optimal_operating_freq(wide, 0.0)
    assert op.integer_case
    assert op.p_star == 1.0


def test_non_integer_case_stays_in_band(design):
    """Past the p = 1 horizon the best frequency is a band-edge sidelobe."""
    op = db.optimal_operating_freq(design, np.radians(45.0))
    assert not op.integer_case
    assert design.f_min <= op.f_t_star <= design.f_max
    assert op.gain < 64.0
    assert op.gain == pytest.approx(
        db.closed_form_gain(design, np.radians(45.0), op.f_t_star), rel=1e-9)


def test_planner_output_always_usable(design):
    """Every swept angle yields a frequency the solver accepts verbatim."""
    for phi_deg in np.linspace(-90.0, 90.0, 181):
        op = db.optimal_operating_freq(design, np.radians(phi_deg))
        assert design.f_min <= op.f_t_star <= design.f_max
        # the circle-bottom sliver is infeasible: a NaN row, not a raise
        db.solve_p1a(design, np.radians(phi_deg), op.f_t_star)


def test_zero_slope_is_the_integer_case_at_f_min(design):
    """n_g = 1 at -90 deg: p = n_g + sin(phi) = 0 at every frequency, an
    integer, so the lowest frequency wins with the full gain N^2, in a
    scalar call and in the -90 deg row of an array call."""
    flat = dataclasses.replace(design, refractive_index=1.0)
    one = db.optimal_operating_freq(flat, -np.pi / 2)
    assert one.integer_case and one.p_star == 0.0
    assert one.f_t_star == flat.f_min and one.gain == 64.0
    ops = db.optimal_operating_freq(flat, np.radians(np.linspace(-90.0, 90.0, 7)))
    assert ops.integer_case[0] and ops.p_star[0] == 0.0
    assert ops.f_t_star[0] == flat.f_min and ops.gain[0] == 64.0
    assert np.all(ops.f_t_star[1:] > 0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_planner_over_an_angle_array_matches_per_angle_calls(
        design, n, reference_operating_point):
    """One array call over 2,001 angles, integer and sidelobe cases,
    equals the per-angle calls bit for bit on every 20th angle and agrees
    with the golden-section reference: the integer case bit for bit, p*
    to the bench's f_star tolerance, and a gain no lower."""
    d = dataclasses.replace(design, n_elements=n)
    phis = np.radians(np.linspace(-89.0, 89.0, 2001))
    ops = db.optimal_operating_freq(d, phis)
    fields = ("f_t_star", "p_star", "gain", "integer_case")
    assert 0 < np.count_nonzero(ops.integer_case) < phis.size
    sample = phis[::20]
    scalar = [db.optimal_operating_freq(d, float(phi)) for phi in sample]
    for name in fields:
        got = getattr(ops, name)
        assert got.shape == phis.shape
        assert np.array_equal(got[::20], [getattr(op, name) for op in scalar]), name
    expected = np.array([reference_operating_point(d, float(phi)) for phi in sample])
    f_ref, p_ref, gain_ref, exact = expected.T
    exact = exact.astype(bool)
    assert np.array_equal(ops.integer_case[::20], exact)
    for got, ref in ((ops.f_t_star, f_ref), (ops.p_star, p_ref), (ops.gain, gain_ref)):
        assert np.array_equal(got[::20][exact], ref[exact])
    # the bench's f_star tolerance
    tol = GOLDEN_TOL + np.sqrt(np.finfo(float).eps) * np.abs(p_ref)
    assert np.all(np.abs(ops.p_star[::20] - p_ref) <= tol)
    assert np.all(ops.gain[::20] >= gain_ref * (1 - 1e-13))
    # the gain is (N + |S|)^2 / 4 as Python floats round it, everywhere:
    # |S| at a band edge, or the height of the sidelobe top x_j = p* - m
    tops, heights = fp._sidelobe_tops(n)
    slope = d.spacing * (d.refractive_index + np.sin(phis)) / db.CONSTANTS.c
    off = ~ops.integer_case
    for phi, p, gain, lo, hi in zip(phis[off], ops.p_star[off], ops.gain[off],
                                    d.f_min * slope[off], d.f_max * slope[off]):
        if p in (lo, hi):
            s = abs(db.dirichlet_of_p(float(p), n))
        else:
            [j] = np.flatnonzero(np.floor(lo) + tops == p)
            x = min(tops[j], tops[tops.size - 1 - j])
            s = abs(db.dirichlet_of_p(float(x), n))
        assert gain == (n + s) ** 2 / 4.0, phi
    # an angle's result does not depend on which other angles share the call
    part = db.optimal_operating_freq(d, phis[7::13])
    for name in fields:
        assert np.array_equal(getattr(part, name), getattr(ops, name)[7::13]), name


def test_mirrored_sidelobe_tops_tie_to_the_lower(design):
    """At N = 5 the tops x_1 and 1 - x_1 of the two outer sidelobes have
    one height.  Where both lie in the band and no band edge is higher,
    the lower top wins.  Rounding used to pick the upper one at eight of
    these angles."""
    d = dataclasses.replace(design, n_elements=5)
    deg = np.linspace(-90.0, 90.0, 3601)
    ops = db.optimal_operating_freq(d, np.radians(deg))
    slope = d.spacing * (d.refractive_index + np.sin(np.radians(deg))) / db.CONSTANTS.c
    lo, hi = d.f_min * slope, d.f_max * slope
    m = np.floor(lo)
    (x, _, mirror), (height, *_) = fp._sidelobe_tops(5)
    edges = np.maximum(np.abs(db.dirichlet_of_p(lo, 5)),
                       np.abs(db.dirichlet_of_p(hi, 5)))
    tied = ~ops.integer_case & (lo - m < x) & (mirror < hi - m) & (edges < height)
    assert set(np.round([77.85, 78.05, 78.1, 78.7, 78.8, 79.15, 81.05, 82.4], 2)) \
        <= set(np.round(deg[tied], 2))
    assert np.all(ops.p_star[tied] - m[tied] < 0.5)
    assert np.array_equal(ops.p_star[tied], m[tied] + x)
    assert np.all(ops.gain[tied] == (5 + height) ** 2 / 4.0)


def test_sidelobe_tops(monkeypatch):
    """For N = 1 ... 512 and 1024: one top strictly inside each sidelobe,
    converged to GOLDEN_TOL by the last Newton step, mirrored heights
    equal bit for bit, and heights falling strictly toward 1/2."""
    ns = list(range(1, 513)) + [1024]
    tables = [fp._sidelobe_tops(n) for n in ns]
    monkeypatch.setattr(fp, "NEWTON_STEPS", fp.NEWTON_STEPS - 1)
    for n, (tops, heights) in zip(ns, tables):
        j = np.arange(1, n - 1)
        assert tops.shape == heights.shape == j.shape, n
        assert np.all((j / n < tops) & (tops < (j + 1) / n)), n
        assert np.array_equal(heights, heights[::-1]), n
        assert np.all(np.diff(heights[:(n - 1) // 2]) < 0), n
        assert np.array_equal(heights[:n // 2],
                              np.abs(db.dirichlet_of_p(tops[:n // 2], n))), n
        before_last, _ = fp._sidelobe_tops(n)
        assert np.all(np.abs(tops - before_last) < GOLDEN_TOL), n


@pytest.mark.parametrize("n", [8, 128])
def test_planner_is_never_beaten_by_the_dense_scan(design, n):
    """Over 60 angles with no integer p in band, the dense scan of |S|
    never beats the planner's |S| and falls short by at most the slope
    bound pi N^2 times one scan step, as in verify."""
    d = dataclasses.replace(design, n_elements=n)
    phis = np.radians(np.linspace(35.0, 89.0, 60))
    ops = db.optimal_operating_freq(d, phis)
    assert not np.any(ops.integer_case)
    resolution = 10 ** 5
    for phi, gain in zip(phis, ops.gain):
        _, objective = db.dense_p_scan(d, phi, resolution)
        step = d.spacing * (d.refractive_index + np.sin(phi)) \
            * (d.f_max - d.f_min) / db.CONSTANTS.c / (resolution - 1)
        s_closed = 2.0 * np.sqrt(gain) - n
        assert s_closed - np.pi * n ** 2 * step <= objective <= s_closed + 1e-9


@pytest.mark.parametrize("phi_deg", [-18.0, 45.0])
def test_scalar_angle_gives_python_scalars(design, phi_deg):
    op = db.optimal_operating_freq(design, np.radians(phi_deg))
    assert [type(v) for v in (op.f_t_star, op.p_star, op.gain, op.integer_case)] \
        == [float, float, float, bool]


def test_integer_case_stays_in_band_at_the_designed_sector_edge(design):
    """The design rule puts p = 1 exactly at f_min for the upper sector
    edge; p/slope lands an ulp below f_min unless it is clamped."""
    phi_max = db.max_coverage_angle(4.0, 5e9, 15e9).angle
    sector = db.design_sector(-phi_max, phi_max, 12.5e9, 17.5e9)
    d = dataclasses.replace(design, spacing=sector.d_y_star,
                            refractive_index=sector.n_g_star,
                            f_min=12.5e9, f_max=17.5e9)
    op = db.optimal_operating_freq(d, phi_max)
    assert op.integer_case and op.p_star == 1.0
    assert type(op.f_t_star) is float
    assert d.f_min <= op.f_t_star <= d.f_max
    assert op.f_t_star == pytest.approx(d.f_min, rel=1e-15)
    db.solve_p1a(d, phi_max, op.f_t_star)


def test_crossover_angle_value(design):
    phi_c = db.crossover_angle(design, 15e9)
    assert np.degrees(phi_c) == pytest.approx(-5.739170477266791, abs=1e-9)
    # at the crossover the band center itself is optimal with p = 1
    assert db.normalized_product(design, phi_c, 15e9) == pytest.approx(1.0, abs=1e-12)


def test_crossover_missing_raises(design):
    with pytest.raises(db.NoCrossoverError):
        db.crossover_angle(design, 1e9)


def test_design_sector_reference_values():
    sec = db.design_sector(np.radians(-30.0), np.radians(30.0), 12e9, 18e9)
    assert sec.n_g_star == pytest.approx(2.5, abs=1e-12)
    assert sec.d_y_star == pytest.approx(1.0 / 120.0, rel=1e-12)
    assert sec.p_star_choice == 1
    lambda_c = C / 15e9
    assert sec.d_y_star / lambda_c == pytest.approx(0.42, abs=0.005)


def test_design_sector_round_trip(design):
    """Each angle in the designed sector reaches the full N^2 gain."""
    sec = db.design_sector(np.radians(-30.0), np.radians(30.0), 12e9, 18e9)
    d = dataclasses.replace(design, spacing=sec.d_y_star,
                            refractive_index=sec.n_g_star)
    for phi in np.linspace(-np.radians(30.0), np.radians(30.0), 25):
        op = db.optimal_operating_freq(d, float(phi))
        assert op.gain == pytest.approx(64.0, rel=1e-12)


def test_max_coverage_angle_reference():
    cov = db.max_coverage_angle(2.5, 6e9, 15e9)
    assert not cov.saturated
    assert np.degrees(cov.angle) == pytest.approx(30.0, abs=1e-9)


def test_max_coverage_angle_saturates():
    cov = db.max_coverage_angle(50.0, 6e9, 15e9)
    assert cov.saturated
    assert cov.angle == pytest.approx(np.pi / 2, abs=1e-12)


def test_max_coverage_angle_grows_with_tuning_range():
    angles = [db.max_coverage_angle(2.5, t, 15e9).angle
              for t in (1e9, 2e9, 4e9, 6e9)]
    assert np.all(np.diff(angles) > 0)
