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
    # The closed-form optimum (N + |S|)^2 / 4 stays defined on the sliver
    # where realizing it is infeasible; it still upper-bounds every mask.
    for phi_deg in np.linspace(-60.0, 60.0, 25):
        b = db.solve_p4(design, np.radians(phi_deg), F_C).gain
        s = db.dirichlet_kernel(design, np.radians(phi_deg), F_C)
        c = (design.n_elements + abs(s)) ** 2 / 4
        assert b <= c * (1 + 1e-12)


def test_all_on_is_a_lower_bound(design):
    """The solver can always fall back to the plain coherent sum S^2."""
    for phi_deg in (-33.0, -5.739170477266791, 12.0):
        s = db.dirichlet_kernel(design, np.radians(phi_deg), F_C)
        sol = db.solve_p4(design, np.radians(phi_deg), F_C)
        assert sol.gain >= s ** 2 - 1e-9


def _product_enumeration(design, phi, f_c):
    """Optimum over itertools.product, lexicographic order, from a channel
    decayed element by element by the design's attenuation."""
    decay = np.exp(-design.attenuation * design.spacing
                   * np.arange(design.n_elements))
    h = np.exp(1j * db.combined_phases(design, phi, f_c)) * decay
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
        lossless = dataclasses.replace(rand, attenuation=None)
        fast = db.solve_p4(lossless, phi, f)
        slow = db.enumerate_binary(lossless, phi, f)
        assert fast.gain == pytest.approx(slow.gain, rel=1e-12)
        # A lossless channel is a geometric sequence, so a mask shifted by
        # one slot ties exactly and rounding picks the winner: a different
        # mask must then be optimal by the oracle's own evaluation.
        if not np.array_equal(fast.mask, slow.mask):
            assert db.binary_mask_gain(lossless, phi, f, fast.mask) \
                == pytest.approx(slow.gain, rel=1e-12)
        fast = db.solve_p4(rand, phi, f)
        mask, gain = _product_enumeration(rand, phi, f)
        np.testing.assert_array_equal(fast.mask, mask)
        assert fast.gain == pytest.approx(gain, rel=1e-12)


def test_attenuated_variant_changes_the_problem(design):
    """The design alone decides: a lossy design lowers the optimum, and a
    zero attenuation gives the lossless solution bit for bit."""
    lossy = dataclasses.replace(design, attenuation=6.0)
    plain = db.solve_p4(design, 0.3, F_C)
    damped = db.solve_p4(lossy, 0.3, F_C)
    assert damped.gain < plain.gain
    zero = db.solve_p4(dataclasses.replace(design, attenuation=0.0), 0.3, F_C)
    assert zero.gain == plain.gain
    np.testing.assert_array_equal(zero.mask, plain.mask)


@pytest.mark.parametrize("n", [25, 64])
def test_large_arrays_get_a_half_plane_optimum(design, n):
    """No element cap: the mask is the half-plane of its own sum, and no
    single-element flip raises the gain."""
    big = dataclasses.replace(design, n_elements=n, attenuation=6.0)
    sol = db.solve_p4(big, 0.3, F_C)
    h = db.effective_channel(big, 0.3, F_C)
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
    # Tied rows of a batch keep the rule next to untied ones.
    batch = db.solve_p4(two, np.array([0.0, 0.4, 0.0]), 7.2e9)
    np.testing.assert_array_equal(batch.mask[[0, 2]], [[0, 1], [0, 1]])
    np.testing.assert_array_equal(batch.mask[1],
                                  db.solve_p4(two, 0.4, 7.2e9).mask)


def _sweep_with_ties(design):
    """361 angles over the half plane plus the crossover angle: broadside
    and the crossover are where lossless masks tie."""
    phis = np.radians(np.linspace(-90.0, 90.0, 361))
    phi_c = db.crossover_angle(design, F_C)
    return phis if np.isnan(phi_c) else np.append(phis, phi_c)


def _reference_half_plane(design, phi, f_c):
    """The half-plane search for one angle, on the design's channel."""
    return _reference_for_channel(db.effective_channel(design, phi, f_c))


def _reference_for_channel(h):
    """The half-plane search for one channel: 2N arc midpoints, integer
    candidate masks summed by matmul, the smallest of the tied masks."""
    edges = np.sort(np.mod(np.angle(h)[:, None] + [np.pi / 2, -np.pi / 2],
                           2.0 * np.pi).ravel())
    mids = 0.5 * (edges + np.append(edges[1:], edges[0] + 2.0 * np.pi))
    masks = (np.real(h * np.exp(-1j * mids[:, None])) > 0).astype(np.int64)
    gains = np.abs(masks @ h) ** 2
    return min(masks[gains == gains.max()].tolist()), float(gains.max())


def _assert_channels_match_the_reference(channels):
    """Every row's mask and gain equal the one-channel search, bit for bit."""
    masks, gains = db.binary_tuning._sweep(channels)
    for row, h in enumerate(channels):
        mask, gain = _reference_for_channel(h)
        np.testing.assert_array_equal(masks[row], mask)
        assert gains[row] == gain


def _assert_rows_are_scalar_calls(design, phis):
    """Each batch row equals its scalar call and the one-angle reference,
    bit for bit."""
    batch = db.solve_p4(design, phis, F_C)
    for row, phi in enumerate(phis.tolist()):
        one = db.solve_p4(design, phi, F_C)
        mask, gain = _reference_half_plane(design, phi, F_C)
        np.testing.assert_array_equal(batch.mask[row], one.mask)
        np.testing.assert_array_equal(batch.mask[row], mask)
        assert batch.gain[row] == one.gain == gain


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("n", [1, 2, 8, 16, 128])
def test_batch_rows_equal_the_scalar_calls(design, n, lossy):
    """Every row of a 1-d call is its scalar call bit for bit."""
    sized = dataclasses.replace(design, n_elements=n,
                                attenuation=6.0 if lossy else None)
    _assert_rows_are_scalar_calls(sized, _sweep_with_ties(sized))


@pytest.mark.parametrize("n", list(range(1, 49)) + [200])
def test_random_channels_match_the_reference(n):
    """Mixed magnitudes, some rows spanning many decades, against the
    search over all 2N arc midpoints, bit for bit."""
    rng = np.random.default_rng(n)
    rows = 4 if n == 200 else 24
    spread = rng.uniform(0.2, 12.0, (rows, 1))
    _assert_channels_match_the_reference(
        10.0 ** (-spread * rng.uniform(0.0, 1.0, (rows, n)))
        * np.exp(1j * rng.uniform(-np.pi, np.pi, (rows, n))))


def test_coinciding_boundaries_match_the_reference(design):
    """Lossless channels whose 2N boundaries fall in two clusters, so most
    arcs have zero width: equal elements, the all-on mask wins; the
    alternating p = 1/2 channel, the odd slots tie the even ones and
    win."""
    flat = dataclasses.replace(design, n_elements=16, refractive_index=1.0)
    h = db.effective_channel(flat, -np.pi / 2, F_C)
    np.testing.assert_array_equal(h, np.ones(16))
    sol = db.solve_p4(flat, -np.pi / 2, F_C)
    np.testing.assert_array_equal(sol.mask, np.ones(16, dtype=np.int8))
    assert sol.gain == 256.0
    assert (sol.mask.tolist(), sol.gain) == _reference_for_channel(h)

    alternating = (-1.0) ** np.arange(16) + 0j
    masks, gains = db.binary_tuning._sweep(alternating[None])
    np.testing.assert_array_equal(masks[0], [0, 1] * 8)
    assert gains[0] == 64.0
    _assert_channels_match_the_reference(
        np.stack([alternating, -alternating, 1j * alternating]))


def test_return_shapes_and_dtypes(design):
    one = db.solve_p4(design, 0.3, F_C)
    assert one.mask.shape == (8,) and one.mask.dtype == np.int8
    assert type(one.gain) is float
    for phis in (np.array([0.3]), np.radians(np.linspace(-90, 90, 7))):
        many = db.solve_p4(design, phis, F_C)
        assert many.mask.shape == (phis.size, 8)
        assert many.mask.dtype == np.int8
        assert many.gain.shape == (phis.size,)
        assert many.gain.dtype == np.float64


@pytest.mark.parametrize("n", [1, 5, 12])
def test_batch_gains_match_the_oracles(design, n):
    """Lossless rows against the plain double loop, attenuated rows against
    the itertools.product enumeration, each called per angle."""
    phis = np.radians(np.linspace(-80.0, 80.0, 9))
    lossless = dataclasses.replace(design, n_elements=n)
    batch = db.solve_p4(lossless, phis, F_C)
    for gain, phi in zip(batch.gain, phis.tolist()):
        slow = db.enumerate_binary(lossless, phi, F_C)
        assert gain == pytest.approx(slow.gain, rel=1e-9)
    lossy = dataclasses.replace(lossless, attenuation=6.0)
    batch = db.solve_p4(lossy, phis, F_C)
    for gain, phi in zip(batch.gain, phis.tolist()):
        assert gain == pytest.approx(_product_enumeration(lossy, phi, F_C)[1],
                                     rel=1e-9)
