"""On/off element selection versus continuous Lorentzian weights."""

import dataclasses
import itertools

import numpy as np
import pytest

import dmabeam as db

F_C = 15e9


def test_all_ones_at_the_crossover_angle(design):
    """Where the band center is already optimal, switching off never helps."""
    phi_c = db.crossover_angle(design, F_C)
    sol = db.solve_p4(design, phi_c, F_C)
    np.testing.assert_array_equal(sol.mask, np.ones(8, dtype=np.int8))
    assert sol.gain == pytest.approx(64.0, rel=1e-12)
    assert sol.gain == pytest.approx(db.solve_p1a(design, phi_c, F_C).gain, rel=1e-12)


def test_gain_matches_mask_reevaluation(design):
    for phi_deg in (-40.0, -10.0, 5.0, 25.0):
        sol = db.solve_p4(design, np.radians(phi_deg), F_C)
        h = db.effective_channel(design, np.radians(phi_deg), F_C)
        assert sol.gain == pytest.approx(abs(sol.mask @ h) ** 2, rel=1e-12)


def test_binary_never_beats_continuous(design):
    # closed_form_gain stays defined on the sliver where realizing the
    # continuous optimum is infeasible; it still upper-bounds every mask.
    for phi_deg in np.linspace(-60.0, 60.0, 25):
        b = db.solve_p4(design, np.radians(phi_deg), F_C).gain
        c = db.closed_form_gain(design, np.radians(phi_deg), F_C)
        assert b <= c * (1 + 1e-12)


def test_all_on_is_a_lower_bound(design):
    """The solver can always fall back to the plain coherent sum S^2."""
    for phi_deg in (-33.0, -5.739170477266791, 12.0):
        s = db.dirichlet_kernel(design, np.radians(phi_deg), F_C)
        sol = db.solve_p4(design, np.radians(phi_deg), F_C)
        assert sol.gain >= s ** 2 - 1e-9


def _product_enumeration(design, phi, f_c):
    """Attenuated optimum over itertools.product, lexicographic order."""
    h = db.effective_channel(design, phi, f_c, with_attenuation=True)
    masks = np.array(list(itertools.product((0, 1), repeat=design.n_elements)))
    gains = np.abs(masks @ h) ** 2
    k = int(np.argmax(gains))           # first maximum: smallest mask
    return masks[k], float(gains[k])


def test_matches_plain_enumeration(design):
    rng = np.random.default_rng(5)
    angles = [db.crossover_angle(design, F_C)] + list(rng.uniform(-1.0, 1.0, 3))
    for phi in angles:
        fast = db.solve_p4(design, phi, F_C)
        slow = db.enumerate_binary(design, phi, F_C)
        np.testing.assert_array_equal(fast.mask, slow.mask)
        assert fast.gain == pytest.approx(slow.gain, rel=1e-12)
    # Seeded random designs, plain against the oracle and attenuated
    # against a brute force over itertools.product.
    for _ in range(12):
        rand = dataclasses.replace(
            design, n_elements=int(rng.integers(1, 13)),
            spacing=float(rng.uniform(0.002, 0.02)),
            refractive_index=float(rng.uniform(1.0, 5.0)),
            attenuation=float(rng.uniform(0.5, 20.0)))
        phi, f = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(12e9, 18e9))
        fast = db.solve_p4(rand, phi, f)
        slow = db.enumerate_binary(rand, phi, f)
        assert fast.gain == pytest.approx(slow.gain, rel=1e-12)
        # A lossless channel is a geometric sequence, so a mask shifted by
        # one slot ties exactly and rounding picks the winner: a different
        # mask must then be optimal by the oracle's own evaluation.
        if not np.array_equal(fast.mask, slow.mask):
            assert db.binary_mask_gain(rand, phi, f, fast.mask) \
                == pytest.approx(slow.gain, rel=1e-12)
        fast = db.solve_p4(rand, phi, f, with_attenuation=True)
        mask, gain = _product_enumeration(rand, phi, f)
        np.testing.assert_array_equal(fast.mask, mask)
        assert fast.gain == pytest.approx(gain, rel=1e-12)


def test_attenuated_variant_changes_the_problem(design):
    lossy = dataclasses.replace(design, attenuation=6.0)
    plain = db.solve_p4(lossy, 0.3, F_C, with_attenuation=False)
    damped = db.solve_p4(lossy, 0.3, F_C, with_attenuation=True)
    assert damped.gain < plain.gain


@pytest.mark.parametrize("n", [25, 64])
def test_large_arrays_get_a_half_plane_optimum(design, n):
    """No element cap: the mask is the half-plane of its own sum, and no
    single-element flip raises the gain."""
    big = dataclasses.replace(design, n_elements=n, attenuation=6.0)
    sol = db.solve_p4(big, 0.3, F_C, with_attenuation=True)
    h = db.effective_channel(big, 0.3, F_C, with_attenuation=True)
    s = sol.mask @ h
    np.testing.assert_array_equal(sol.mask, np.real(h * np.conj(s)) > 0)
    assert sol.gain == pytest.approx(abs(s) ** 2, rel=1e-12)
    flips = np.abs(s + (1 - 2 * sol.mask) * h) ** 2
    assert np.all(flips <= sol.gain)


def test_lexicographically_smallest_tie_break():
    """Anti-phased two-element channel: both single-slot masks tie at 1."""
    two = db.DmaDesign(n_elements=2, spacing=1.0 / 120.0, refractive_index=2.5,
                       damping=2 * np.pi * F_C / 50, coupling=1e-9,
                       f_min=12e9, f_max=18e9)
    # p = 1/2 at broadside for f = 7.2 GHz, so h = (1, -1) and 01 ties 10
    sol = db.solve_p4(two, 0.0, 7.2e9)
    np.testing.assert_array_equal(sol.mask, [0, 1])
    assert sol.gain == pytest.approx(1.0, rel=1e-12)
    slow = db.enumerate_binary(two, 0.0, 7.2e9)
    np.testing.assert_array_equal(slow.mask, sol.mask)
