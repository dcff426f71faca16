"""Lorentzian element model: polarizability, weights, angle maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmabeam as db
from dmabeam.oracle import _raw_weight

F_C = 15e9


def make_design(**kw):
    base = dict(n_elements=8, spacing=1.0 / 120.0, refractive_index=2.5,
                damping=2 * np.pi * F_C / 50, coupling=1e-9,
                f_min=12e9, f_max=18e9)
    base.update(kw)
    return db.DmaDesign(**base)


def test_constants():
    assert db.CONSTANTS.c == 3.0e8
    assert db.CONSTANTS.k_B == 1.38e-23


def test_design_validation():
    with pytest.raises(db.DomainError):
        make_design(n_elements=0)
    with pytest.raises(db.DomainError):
        make_design(spacing=-1.0)
    with pytest.raises(db.DomainError):
        make_design(refractive_index=0.5)
    with pytest.raises(db.DomainError):
        make_design(f_min=18e9, f_max=12e9)
    with pytest.raises(db.DomainError):
        make_design(attenuation=-2.0)


def test_polarizability_matches_direct_formula():
    design = make_design()
    rng = np.random.default_rng(7)
    for _ in range(20):
        f_r = rng.uniform(10e9, 20e9)
        f = rng.uniform(12e9, 18e9)
        got = db.polarizability(design, f_r, f)
        expect = design.coupling * 2 * np.pi * f ** 2 / (
            2 * np.pi * f_r ** 2 - 2 * np.pi * f ** 2 + 1j * design.damping * f)
        assert got == pytest.approx(expect, rel=1e-12)


def test_weight_is_scaled_polarizability():
    design = make_design()
    f_r, f = 14e9, 15e9
    w = db.beamformer_weight(design, f_r, f)
    alpha = db.polarizability(design, f_r, f)
    scale = design.damping / (2 * np.pi * f * design.coupling)
    assert w == pytest.approx(alpha * scale, rel=1e-12)


@given(f_r=st.floats(1e9, 1e12), f=st.floats(1e9, 1e11))
@settings(max_examples=200)
def test_weights_live_on_the_half_circle(f_r, f):
    """Every reachable weight satisfies |w + j/2| = 1/2."""
    design = make_design()
    w = db.beamformer_weight(design, f_r, f)
    assert abs(abs(w + 0.5j) - 0.5) < 1e-12


@given(f_r=st.floats(1e9, 1e12), f=st.floats(1e9, 1e11))
@settings(max_examples=200)
def test_psi_angle_range_and_weight_identity(f_r, f):
    """The Lorentzian phase angle psi, the argument of the polarizability,
    lies in [-pi, 0], and w = -sin(psi) e^{j psi}."""
    design = make_design()
    psi = np.angle(_raw_weight(design, f_r, f))
    assert -np.pi <= psi <= 0.0
    w = db.beamformer_weight(design, f_r, f)
    assert w == pytest.approx(-np.sin(psi) * np.exp(1j * psi), abs=1e-12)


@given(f=st.floats(1e9, 1e12), f_r=st.floats(1e9, 1e12),
       near=st.sampled_from([None, -1.0, 1.0]))
@settings(max_examples=300)
def test_weight_equals_the_raw_polarizability_form(f, f_r, near):
    """The rational kernel agrees with the oracle's division of the
    polarizability over the whole range, and within 1e-6 of resonance
    (``near`` puts f_r at f (1 -+ 1e-6))."""
    if near is not None:
        f_r = f * (1.0 + near * 1e-6)
    design = make_design()
    np.testing.assert_allclose(db.beamformer_weight(design, f_r, f),
                               _raw_weight(design, f_r, f), rtol=1e-11, atol=0)


def test_weight_of_a_nan_resonance_is_a_quiet_nan():
    """An infeasible element's NaN resonance gives a NaN weight in its slot
    only, and no floating-point warning (a complex division would warn)."""
    import warnings

    design = make_design()
    f_r = np.array([14e9, np.nan, 16e9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = db.beamformer_weight(design, f_r, np.array([[15e9], [17e9]]))
    assert w.shape == (2, 3)
    assert np.isnan(w.real[:, 1]).all() and np.isnan(w.imag[:, 1]).all()
    assert np.isfinite(w[:, [0, 2]]).all()


@given(psi_tilde=st.floats(-1.4 * np.pi, 0.49 * np.pi))
@settings(max_examples=100)
def test_resonant_from_shifted_realizes_the_angle(psi_tilde):
    """Requested circle angle is reproduced by the constructed resonance."""
    design = make_design()
    f_t = 15e9
    f_r = db.resonant_from_shifted(design, psi_tilde, f_t)
    if np.isnan(f_r):
        # the steep lower flank needs f_r^2 < 0 for this design
        assert psi_tilde < -np.pi
        return
    realized = 2.0 * np.angle(_raw_weight(design, f_r, f_t)) + np.pi / 2.0
    assert realized == pytest.approx(psi_tilde, abs=1e-6)


def test_resonant_from_shifted_singular_endpoints():
    design = make_design()
    for psi_tilde in (-1.5 * np.pi, 0.5 * np.pi, 0.5 * np.pi - 1e-12):
        with pytest.raises(db.SingularityError):
            db.resonant_from_shifted(design, psi_tilde, 15e9)


def test_resonant_from_shifted_infeasible_flank():
    """Angles just above the lower endpoint need an imaginary resonance:
    a scalar call gives a float NaN, as an array call gives NaN cells."""
    design = make_design()
    f_r = db.resonant_from_shifted(design, -1.5 * np.pi + 0.01, 15e9)
    assert isinstance(f_r, float) and np.isnan(f_r)


def test_resonant_from_shifted_over_arrays_equals_the_scalar_formula():
    """Arrays give the scalar formula's value on Python floats, bit for
    bit, and NaN exactly where the square-root argument is negative, as
    the scalar call does (a Q = 2 guide reaches its infeasible flank
    inside the sampled range)."""
    design = make_design(damping=2 * np.pi * F_C / 2)
    rng = np.random.default_rng(5)
    psi = rng.uniform(-1.45 * np.pi, 0.45 * np.pi, 20_000)
    f_t = rng.uniform(12e9, 18e9, 20_000)
    got = db.resonant_from_shifted(design, psi, f_t)
    for p, f, g in zip(psi.tolist(), f_t.tolist(), got.tolist()):
        arg = f ** 2 + design.damping * f / (2 * np.pi) \
            * np.tan(np.pi / 4 + p / 2)
        if arg < 0:
            assert np.isnan(g)
            assert np.isnan(db.resonant_from_shifted(design, p, f))
        else:
            assert g == float(np.sqrt(arg))
    assert np.isnan(got).any()


def test_weight_from_shifted_matches_construction():
    """The resonance built for a shifted angle puts the weight on the
    circle point at that angle, -j/2 + e^{j psi_tilde} / 2."""
    design = make_design()
    for psi_tilde in np.linspace(-0.9 * np.pi, 0.4 * np.pi, 9):
        f_r = db.resonant_from_shifted(design, psi_tilde, 15e9)
        circle = -0.5j + 0.5 * np.exp(1j * psi_tilde)
        built = db.beamformer_weight(design, f_r, 15e9)
        assert built == pytest.approx(circle, abs=1e-9)


def test_non_positive_resonances_are_rejected():
    """A configuration is a plain array of resonances; the weight, and so
    every gain built on it, rejects a non-positive entry."""
    design = make_design()
    for bad in (-1.0, 0.0):
        f_r = np.array([14e9, bad, 16e9])
        with pytest.raises(db.DomainError):
            db.beamformer_weight(design, f_r, 15e9)
        with pytest.raises(db.DomainError):
            db.gain_dma(make_design(n_elements=3), f_r, 0.1, 15e9)
