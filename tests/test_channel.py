"""Effective channel: phase accumulation, Dirichlet kernel, attenuation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmabeam as db

C = 3.0e8


@given(phi=st.floats(-np.pi / 2, np.pi / 2), f=st.floats(12e9, 18e9))
@settings(max_examples=200)
def test_channel_entries_have_unit_modulus(phi, f, design):
    h = db.effective_channel(design, phi, f)
    assert h.shape == (design.n_elements,)
    np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)


def test_combined_phases_match_the_oracle_channel(design):
    """The combined phase is the intrinsic (waveguide) plus the extrinsic
    (free-space) phase, which the oracle accumulates element by element."""
    from dmabeam.oracle import _raw_channel

    for phi, f in ((np.radians(-18.0), 15e9), (0.4, 12.5e9), (-1.1, 17.9e9)):
        total = db.combined_phases(design, phi, f)
        np.testing.assert_allclose(np.exp(1j * total),
                                   _raw_channel(design, phi, f), atol=1e-12)


@pytest.mark.parametrize("with_attenuation", [False, True])
def test_effective_channel_over_a_grid_equals_the_oracle_pairs(
        design, with_attenuation):
    """Angle x frequency arrays, the element axis last, give pair by pair
    the oracle's element-by-element channel, decayed when attenuated."""
    import dataclasses
    from dmabeam.oracle import _raw_channel

    lossy = dataclasses.replace(design, attenuation=6.0)
    phis = np.radians(np.linspace(-60.0, 60.0, 7))
    freqs = np.linspace(12e9, 18e9, 5)
    h = db.effective_channel(lossy, phis[:, None, None], freqs[:, None],
                             with_attenuation)
    assert h.shape == (7, 5, lossy.n_elements)
    decay = np.exp(-6.0 * lossy.spacing * np.arange(lossy.n_elements)) \
        if with_attenuation else 1.0
    for i, phi in enumerate(phis):
        for j, f in enumerate(freqs):
            np.testing.assert_allclose(h[i, j],
                                       _raw_channel(lossy, phi, f) * decay,
                                       rtol=0, atol=1e-12)


def test_phase_slope_follows_spacing_and_index(design):
    """Element n accumulates -2 pi (f/c) (n-1) d_y (n_g + sin phi)."""
    phi, f = 0.25, 14e9
    total = db.combined_phases(design, phi, f)
    slope = -2 * np.pi * (f / C) * design.spacing \
        * (design.refractive_index + np.sin(phi))
    expect = slope * np.arange(design.n_elements)
    np.testing.assert_allclose(total, expect, atol=1e-9)


def test_normalized_product_formula(design):
    phi, f = np.radians(-18.0), 16.430980937585947e9
    p = db.normalized_product(design, phi, f)
    expect = f * design.spacing * (design.refractive_index + np.sin(phi)) / C
    assert p == pytest.approx(expect, rel=1e-15)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_of_p_generic_ratio():
    p = 0.123
    for n in (2, 5, 8):
        expect = np.sin(np.pi * n * p) / np.sin(np.pi * p)
        assert db.dirichlet_of_p(p, n) == pytest.approx(expect, rel=1e-12)


@given(k=st.integers(-3, 3), n=st.integers(1, 9))
@settings(max_examples=100)
def test_dirichlet_integer_limit(k, n):
    """Near integer p both sines vanish; the limit is N (-1)^{k(N-1)}."""
    limit = n * (-1) ** (k * (n - 1))
    assert db.dirichlet_of_p(float(k), n) == limit
    assert db.dirichlet_of_p(k + 1e-12, n) == limit
    assert db.dirichlet_of_p(k - 1e-12, n) == limit


def test_dirichlet_limit_is_continuous():
    for n in (3, 8):
        for k in (0, 1, 2):
            just_off = db.dirichlet_of_p(k + 5e-9, n)
            at_k = db.dirichlet_of_p(float(k), n)
            assert just_off == pytest.approx(at_k, rel=1e-6)


def test_dirichlet_kernel_uses_normalized_product(design):
    phi, f = 0.31, 14.5e9
    p = db.normalized_product(design, phi, f)
    assert db.dirichlet_kernel(design, phi, f) == pytest.approx(
        db.dirichlet_of_p(p, design.n_elements), rel=1e-12)


def test_dirichlet_magnitude_bounded_by_n(design):
    for phi in np.linspace(-1.2, 1.2, 41):
        s = db.dirichlet_kernel(design, phi, 15e9)
        assert abs(s) <= design.n_elements + 1e-9


def test_attenuation_vector_defaults_to_ones(design):
    np.testing.assert_array_equal(db.attenuation_vector(design), np.ones(8))


def test_attenuation_decays_geometrically(design):
    import dataclasses
    lossy = dataclasses.replace(design, attenuation=6.0)
    g = db.attenuation_vector(lossy)
    assert g[0] == 1.0
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, np.exp(-6.0 * lossy.spacing), rtol=1e-12)
    h = db.effective_channel(lossy, 0.1, 15e9, with_attenuation=True)
    np.testing.assert_allclose(np.abs(h), g, rtol=1e-12)


def test_attenuation_is_frequency_flat(design):
    import dataclasses
    lossy = dataclasses.replace(design, attenuation=6.0)
    a = np.abs(db.effective_channel(lossy, 0.2, 12e9, with_attenuation=True))
    b = np.abs(db.effective_channel(lossy, 0.2, 18e9, with_attenuation=True))
    np.testing.assert_allclose(a, b, rtol=1e-12)
