"""Fixed-frequency gain optimization: closed form, realized configs, TTD."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmabeam as db

F_C = 15e9


def test_closed_form_gain_formula(design):
    phi, f = 0.21, 14.2e9
    s = db.dirichlet_kernel(design, phi, f)
    assert db.closed_form_gain(design, phi, f) == pytest.approx(
        (design.n_elements + abs(s)) ** 2 / 4.0, rel=1e-14)


def test_solved_config_attains_closed_form(design):
    """Constructed resonances realize the analytic optimum exactly."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        phi = rng.uniform(-np.pi / 3, np.pi / 3)
        f_t = rng.uniform(12e9, 18e9)
        sol = db.solve_p1a(design, phi, f_t)
        realized = db.gain_dma(design, sol.resonances, phi, f_t)
        assert realized == pytest.approx(sol.gain, rel=1e-9)


def test_peak_gain_at_integer_product(design):
    op = db.optimal_operating_freq(design, np.radians(-18.0))
    sol = db.solve_p1a(design, np.radians(-18.0), op.f_t_star)
    assert sol.gain == pytest.approx(64.0, rel=1e-12)
    assert db.gain_dma(design, sol.resonances, np.radians(-18.0), op.f_t_star) \
        == pytest.approx(64.0, rel=1e-9)


def test_optimal_shifted_phases_wrap_and_progression(design):
    phi, f_t = 0.17, 14.7e9
    shifted = db.optimal_shifted_phases(design, phi, f_t)
    assert np.all(shifted >= -1.5 * np.pi) and np.all(shifted < 0.5 * np.pi)
    # consecutive angles advance by the phase slope 2 pi p, modulo 2 pi
    p = db.normalized_product(design, phi, f_t)
    steps = np.diff(shifted)
    wrapped = np.angle(np.exp(1j * (steps - 2 * np.pi * p)))
    np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)


def test_degenerate_middle_element_is_realized():
    """Odd N with a negative array sum pins one weight at the circle's zero.

    The solver retreats that element just inside the interval: the
    configuration is feasible, the weight is ~0 and the realized gain
    matches the closed form to a few parts in 1e6.
    """
    design = db.DmaDesign(n_elements=3, spacing=1.0 / 120.0, refractive_index=2.5,
                          damping=2 * np.pi * F_C / 50, coupling=1e-9,
                          f_min=12e9, f_max=18e9)
    phi = np.radians(-50.0)
    f_t = 12e9
    assert db.dirichlet_kernel(design, phi, f_t) < 0
    sol = db.solve_p1a(design, phi, f_t)
    w_mid = db.beamformer_weight(design, sol.resonances[1], f_t)
    assert abs(w_mid) < 1e-6
    realized = db.gain_dma(design, sol.resonances, phi, f_t)
    assert realized == pytest.approx(sol.gain, rel=1e-5)
    assert realized <= sol.gain * (1 + 1e-12)


def test_solver_beats_random_feasible_configs(design):
    """Optimality certificate: no sampled Lorentzian config does better."""
    rng = np.random.default_rng(3)
    phi, f_t = 0.42, 13.3e9
    sol = db.solve_p1a(design, phi, f_t)
    h = db.effective_channel(design, phi, f_t)
    f_r = rng.uniform(0.3 * f_t, 3.0 * f_t, size=(10_000, design.n_elements))
    w = db.beamformer_weight(design, f_r, f_t)
    gains = np.abs(w @ h) ** 2
    assert gains.max() <= sol.gain * (1 + 1e-9)


def test_solve_p1a_rejects_out_of_band(design):
    with pytest.raises(db.DomainError):
        db.solve_p1a(design, 0.0, 11e9)
    with pytest.raises(db.DomainError):
        db.solve_p1a(design, 0.0, 19e9)


def test_infeasible_sliver_is_a_nan_solution():
    """A low-Q guide has angles where some element has no real resonance:
    the scalar call reports feasible False with NaN resonances and a NaN
    gain, the types of a feasible call."""
    lowq = db.DmaDesign(n_elements=8, spacing=1.0 / 120.0, refractive_index=2.5,
                        damping=2 * np.pi * F_C / 5, coupling=1e-9,
                        f_min=12e9, f_max=18e9)
    sol = db.solve_p1a(lowq, np.radians(-60.0), 14e9)
    assert sol.feasible is False
    assert sol.resonances.shape == (8,) and np.isnan(sol.resonances).all()
    assert isinstance(sol.gain, float) and np.isnan(sol.gain)
    assert sol.operating_freq == 14e9
    # element 2's circle angle is the one with no real resonance
    shifted = db.optimal_shifted_phases(lowq, np.radians(-60.0), 14e9)
    f_r = db.resonant_from_shifted(lowq, shifted, 14e9)
    assert np.flatnonzero(np.isnan(f_r))[0] == 2


@pytest.mark.parametrize("variant", ["default", "q_factor_1", "n_y_16", "n_y_3"])
@pytest.mark.parametrize("at", ["f_star", "f_c"])
def test_batch_solver_equals_the_scalar_calls(design, reference_solve_p1a,
                                              variant, at):
    """Over 361 angles the batch rows are bit for bit the scalar calls and
    the per-element reference.  Where the reference finds an element with
    no real resonance, both give feasible False, NaN resonances and a NaN
    gain.

    Q = 1 makes most angles infeasible; N_y = 3 puts the middle element on
    the tangent pole wherever the array sum is negative.
    """
    dma = {"default": design,
           "q_factor_1": dataclasses.replace(design, damping=2 * np.pi * F_C),
           "n_y_16": dataclasses.replace(design, n_elements=16),
           "n_y_3": dataclasses.replace(design, n_elements=3)}[variant]
    phis = np.radians(np.linspace(-90.0, 90.0, 361))
    f_ts = db.optimal_operating_freq(dma, phis).f_t_star if at == "f_star" \
        else np.full(phis.size, F_C)
    batch = db.solve_p1a(dma, phis, f_ts if at == "f_star" else F_C)
    assert batch.resonances.shape == (phis.size, dma.n_elements)
    np.testing.assert_array_equal(batch.operating_freq, f_ts)
    for i, (phi, f_t) in enumerate(zip(phis.tolist(), f_ts.tolist())):
        expect = reference_solve_p1a(dma, phi, f_t)
        scalar = db.solve_p1a(dma, phi, f_t)
        assert scalar.feasible is (expect is not None)
        assert scalar.feasible == batch.feasible[i]
        assert scalar.operating_freq == batch.operating_freq[i]
        if expect is None:
            assert np.all(np.isnan(scalar.resonances))
            assert np.all(np.isnan(batch.resonances[i]))
            assert np.isnan(scalar.gain) and np.isnan(batch.gain[i])
            continue
        assert np.array_equal(batch.resonances[i], scalar.resonances)
        assert np.array_equal(batch.resonances[i], expect[0])
        assert batch.gain[i] == scalar.gain == expect[1]
    if variant == "q_factor_1":
        assert 0 < np.count_nonzero(~batch.feasible) < phis.size


def test_batch_solver_rejects_an_out_of_band_angle_pair(design):
    with pytest.raises(db.DomainError, match="operating frequency 1.9e\\+10"):
        db.solve_p1a(design, np.array([0.0, 0.1]), np.array([15e9, 19e9]))


def test_scalar_solution_is_a_row_of_the_batch_solution(design):
    """One type for both calls: the scalar solution's fields equal row i
    of the batch solution's, with plain float gain and frequency."""
    phis = np.radians([-20.0, 5.0, 33.0])
    f_ts = db.optimal_operating_freq(design, phis).f_t_star
    batch = db.solve_p1a(design, phis, f_ts)
    assert [f.name for f in dataclasses.fields(batch)] == [
        "resonances", "feasible", "gain", "operating_freq"]
    for i in range(phis.size):
        one = db.solve_p1a(design, float(phis[i]), float(f_ts[i]))
        assert type(one) is type(batch) is db.BeamformingSolution
        assert one.resonances.shape == (design.n_elements,)
        assert np.array_equal(one.resonances, batch.resonances[i])
        assert one.feasible is True and bool(batch.feasible[i]) is True
        assert isinstance(one.gain, float) and one.gain == batch.gain[i]
        assert isinstance(one.operating_freq, float)
        assert one.operating_freq == batch.operating_freq[i]


def test_gain_dma_checks_config_length(design):
    with pytest.raises(db.DomainError, match="need 8 resonances"):
        db.gain_dma(design, np.full(3, 15e9), 0.0, 15e9)
    with pytest.raises(db.DomainError):
        db.gain_dma(design, 15e9, 0.0, 15e9)


@given(x=st.floats(-30.0, 30.0))
@settings(max_examples=100)
def test_wrap_shifted_is_2pi_periodic(x):
    lo, hi = -1.5 * np.pi, 0.5 * np.pi
    w = float(db.wrap_shifted(x))
    assert lo <= w < hi
    assert float(db.wrap_shifted(x + 2 * np.pi)) == pytest.approx(w, abs=1e-9)
    d = float(np.remainder(x - w, 2 * np.pi))
    assert min(d, 2 * np.pi - d) < 1e-9


def test_solution_is_immutable(design):
    sol = db.solve_p1a(design, 0.1, 15e9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.gain = 0.0
