"""Operating-frequency selection, sector design, coverage limits."""

import dataclasses

import numpy as np
import pytest

import dmabeam as db

C = 3.0e8


def test_golden_section_finds_known_maximum():
    top = db.golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0)
    assert top == pytest.approx(2.0, abs=1e-8)


def test_golden_section_handles_boundary_maximum():
    top = db.golden_section_max(lambda x: x, 0.0, 1.0)
    assert top == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("objective", [
    lambda x: np.abs(db.dirichlet_of_p(x, 8)),
    lambda x: np.sin(7.0 * x) + 0.1 * x,      # several maxima per interval
    lambda x: 0.0 * x,                         # every comparison ties
])
def test_golden_section_arrays_match_the_scalar_loop(
        objective, reference_golden_section_max):
    """Each interval of an array search ends bit for bit where its own
    scalar search ends, with one f point per scalar f call."""
    rng = np.random.default_rng(7)
    a = rng.uniform(-2.0, 2.0, 300)
    b = a + np.concatenate([rng.uniform(0.0, 3.0, 290),
                            rng.uniform(0.0, 2e-12, 10)])  # some already narrow
    calls = []

    def scalar(x):
        calls.append(1)
        return objective(x)

    expected = [reference_golden_section_max(scalar, lo, hi)
                for lo, hi in zip(a.tolist(), b.tolist())]
    scalar_calls, calls[:] = len(calls), []

    def counted(x):
        calls.append(np.size(x))
        return objective(x)

    got = db.golden_section_max(counted, a, b)
    assert np.array_equal(got, expected)
    assert sum(calls) == scalar_calls
    top = db.golden_section_max(objective, a[0], b[0])
    assert type(top) is float and top == expected[0]


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


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_planner_over_an_angle_array_matches_per_angle_calls(
        design, n, reference_operating_point):
    """One array call over 2,001 angles, integer and lobe-search cases,
    equals the scalar reference and the per-angle calls bit for bit on
    every 20th angle, and rounds the gain like the scalar code on all."""
    d = dataclasses.replace(design, n_elements=n)
    phis = np.radians(np.linspace(-89.0, 89.0, 2001))
    ops = db.optimal_operating_freq(d, phis)
    fields = ("f_t_star", "p_star", "gain", "integer_case")
    assert 0 < np.count_nonzero(ops.integer_case) < phis.size
    sample = phis[::20]
    expected = [reference_operating_point(d, float(phi)) for phi in sample]
    scalar = [db.optimal_operating_freq(d, float(phi)) for phi in sample]
    for i, name in enumerate(fields):
        got = getattr(ops, name)
        assert got.shape == phis.shape
        assert np.array_equal(got[::20], [e[i] for e in expected]), name
        assert np.array_equal(got[::20], [getattr(op, name) for op in scalar]), name
    # the gain is (N + |S(p*)|)^2 / 4 as Python floats round it, everywhere
    for phi, p, gain in zip(phis[~ops.integer_case], ops.p_star[~ops.integer_case],
                            ops.gain[~ops.integer_case]):
        assert gain == (n + abs(db.dirichlet_of_p(float(p), n))) ** 2 / 4.0, phi
    # an angle's result does not depend on which other angles share the call
    part = db.optimal_operating_freq(d, phis[7::13])
    for name in fields:
        assert np.array_equal(getattr(part, name), getattr(ops, name)[7::13]), name


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
