"""Independent brute-force checks: resonance grids, dense scans, enumeration."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmabeam as db
from dmabeam import oracle
from dmabeam.oracle import _raw_channel, _raw_weight

F_C = 15e9


def small_design(n):
    return db.DmaDesign(n_elements=n, spacing=1.0 / 120.0, refractive_index=2.5,
                        damping=2 * np.pi * F_C / 50, coupling=1e-9,
                        f_min=12e9, f_max=18e9)


def test_resonance_grid_shape_and_range():
    """The grid is uniform in the circle angle psi over the whole arc
    (-pi + atan(Gamma / (2 pi f_t)), 0) that positive resonances reach,
    endpoints excluded; at Q = 1 that arc reaches far past [f_t/1.5, 1.5 f_t]."""
    for q in (50.0, 1.0):
        design = dataclasses.replace(small_design(2),
                                     damping=2 * np.pi * F_C / q)
        grid = db.resonance_grid(design, F_C, 50)
        assert grid.shape == (50,)
        assert np.all(grid > 0) and np.all(np.diff(grid) > 0)
        lo = -np.pi + np.arctan(1.0 / q)
        np.testing.assert_allclose(np.angle(_raw_weight(design, grid, F_C)),
                                   lo - lo / 51 * np.arange(1, 51),
                                   rtol=0, atol=1e-9)
    assert grid[0] < F_C / 1.5 and grid[-1] > 1.5 * F_C


def test_single_element_grid_approaches_unity():
    design = small_design(1)
    best = db.grid_max_gain(design, 0.2, 15e9, 400)
    assert best <= 1.0 + 1e-12
    assert best > 1.0 - 1e-4


def test_two_element_grid_matches_solver():
    design = small_design(2)
    for phi in (-0.6, 0.1, 0.8):
        closed = db.solve_p1a(design, phi, 15e9).gain
        grid = db.grid_max_gain(design, phi, 15e9, 200)
        assert grid <= closed * (1 + 1e-9)
        assert (closed - grid) / closed < 1e-3


def test_four_element_grid_approaches_the_peak(design):
    """At the crossover angle the 4-slot sub-array nearly reaches 16."""
    sub = small_design(4)
    phi_c = db.crossover_angle(sub, F_C)
    grid = db.grid_max_gain(sub, phi_c, F_C, 200)
    assert grid <= 16.0 + 1e-9
    assert grid > 16.0 * (1 - 1e-3)


def test_grid_oracle_enforces_its_caps():
    with pytest.raises(db.DomainError, match="caps at 400 points"):
        db.grid_max_gain(small_design(2), 0.0, 15e9, 500)
    with pytest.raises(db.DomainError):
        db.grid_max_gain(small_design(2), 0.0, 15e9, 1)


def test_grid_walk_stays_below_the_closed_form_at_eight_elements(design):
    """The walk is exact at any size: on the 8-element reference design,
    over 20 draws of (phi, planner f*) across +-30 deg, it stays at or
    below solve_p1a's gain and within 1e-3 of it."""
    rng = np.random.default_rng(8)
    phis = rng.uniform(-np.pi / 6, np.pi / 6, 20)
    f_ts = db.optimal_operating_freq(design, phis).f_t_star
    closed = db.solve_p1a(design, phis, f_ts)
    assert closed.feasible.all()
    grid = db.grid_max_gain(design, phis, f_ts, 200)
    assert np.all(grid <= closed.gain * (1 + 1e-9))
    assert np.all((closed.gain - grid) / closed.gain < 1e-3)


def _enumerated_max_gain(design, phi, f_t, points):
    """max |sum_n w_n h_n|^2 over all points^N resonance choices at once.

    The elements are added in two halves, (w_0 h_0 + w_1 h_1) + (w_2 h_2
    + w_3 h_3) for N = 4, as the oracle adds each candidate of its walk,
    so every candidate is one of these floats and the oracle's maximum
    can never lie above this one.
    """
    n = design.n_elements
    w = _raw_weight(design, db.resonance_grid(design, f_t, points), f_t)
    h = _raw_channel(design, phi, f_t)

    def half(indices):
        sums = np.zeros(1, dtype=complex)
        for i in indices:
            sums = np.add.outer(sums, w * h[i]).ravel()
        return sums

    total = np.add.outer(half(range(n // 2)), half(range(n // 2, n)))
    return float(np.max(np.abs(total) ** 2))


@pytest.mark.parametrize("seed", [65536, 40])
@pytest.mark.parametrize("attenuation", [None, 3.0])
@pytest.mark.parametrize("q", [50.0, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_oracle_matches_plain_enumeration(n, q, attenuation, seed):
    """The polygon walk returns the enumerated maximum over every grid,
    down to P = 2, where each element's polygon is a two-point segment.
    Each case runs on two independent draws of (phi, f_t)."""
    design = dataclasses.replace(small_design(n), attenuation=attenuation,
                                 damping=2 * np.pi * F_C / q)
    rng = np.random.default_rng((seed, n * 100 + int(q)))
    for points in (2, 3, 7, 12):
        phi = rng.uniform(-1.0, 1.0)
        f_t = rng.uniform(12.5e9, 17.5e9)
        grid = db.grid_max_gain(design, phi, f_t, points)
        full = _enumerated_max_gain(design, phi, f_t, points)
        assert grid <= full
        assert (full - grid) / full <= 1e-12


@pytest.mark.parametrize("attenuation", [None, 3.0])
@pytest.mark.parametrize("q", [50.0, 1.0])
@pytest.mark.parametrize("n", [3, 4])
def test_grid_walk_matches_the_paired_halves_at_verify_size(
        n, q, attenuation, reference_grid_max_gain):
    """At verify's P = 200, past the reach of plain enumeration, the one
    walk over all N polygons keeps the maximum of every pair of the two
    half walks' candidates; its own candidates are among those pairs."""
    design = dataclasses.replace(small_design(n), attenuation=attenuation,
                                 damping=2 * np.pi * F_C / q)
    rng = np.random.default_rng(n * 1000 + int(q))
    for _ in range(20):
        phi = rng.uniform(-np.pi / 3, np.pi / 3)
        f_t = rng.uniform(12.5e9, 17.5e9)
        grid = db.grid_max_gain(design, phi, f_t, 200)
        paired = reference_grid_max_gain(design, phi, f_t, 200)
        assert grid <= paired
        assert (paired - grid) / paired <= 1e-12


@pytest.mark.parametrize("q", [0.1, 1.0, 50.0, 1e6])
@pytest.mark.parametrize("points", [2, 3, 50, 200, 400])
def test_grid_weights_run_counter_clockwise_from_the_lowest(points, q):
    """What the grid walk takes on trust: in grid order the weights turn
    strictly left at every vertex, and _from_lowest starts them at the
    least-imaginary one, from where the edge angles rise.  At P = 2 the
    polygon is a two-point segment, which turns back on itself."""
    from dmabeam.oracle import _edge_angles, _from_lowest, _raw_weight
    design = dataclasses.replace(small_design(4), damping=2 * np.pi * F_C / q)
    rng = np.random.default_rng((points, int(10 * q)))
    for f_t in rng.uniform(12.5e9, 17.5e9, size=10):
        w = _raw_weight(design, db.resonance_grid(design, f_t, points), f_t)
        if points > 2:
            edges = np.roll(w, -1) - w
            assert np.all((edges * np.conj(np.roll(edges, 1))).imag > 0)
        polygon = _from_lowest(w)
        np.testing.assert_array_equal(
            polygon, np.roll(w, -int(np.argmin(w.imag))))
        assert np.all(np.diff(_edge_angles(polygon)) > 0)


@pytest.mark.parametrize("attenuation", [None, 3.0])
@pytest.mark.parametrize("points", [2, 3, 200, 400])
@pytest.mark.parametrize("q", [0.1, 1.0, 50.0, 1e6])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_oracle_rows_equal_the_one_draw_walk(n, q, points, attenuation,
                                                  reference_grid_walk):
    """A batch of draws walked at once: each row of the grids and of the
    maxima is the scalar call's, and that call returns the one-draw
    walk's float, bit for bit (==, not approx)."""
    design = dataclasses.replace(small_design(n), attenuation=attenuation,
                                 damping=2 * np.pi * F_C / q)
    rng = np.random.default_rng((n, int(10 * q), points))
    phis = rng.uniform(-np.pi / 3, np.pi / 3, 5)
    f_ts = rng.uniform(12.5e9, 17.5e9, 5)
    grids = db.resonance_grid(design, f_ts, points)
    rows = db.grid_max_gain(design, phis, f_ts, points)
    assert grids.shape == (5, points) and rows.shape == (5,)
    for k, (phi, f_t) in enumerate(zip(phis.tolist(), f_ts.tolist())):
        assert grids[k].tobytes() \
            == db.resonance_grid(design, f_t, points).tobytes()
        scalar = db.grid_max_gain(design, phi, f_t, points)
        assert type(scalar) is float
        assert rows[k] == scalar == reference_grid_walk(design, phi, f_t,
                                                        points)


def test_grid_oracle_takes_an_empty_batch():
    design = small_design(3)
    empty = np.empty(0)
    assert db.grid_max_gain(design, empty, empty, 200).shape == (0,)
    assert db.resonance_grid(design, empty, 200).shape == (0, 200)


def test_polygon_helpers_work_row_by_row_on_a_stack():
    """_from_lowest and _edge_angles on a (draws, elements, points) stack
    of turned grid weights, and on rows whose least imaginary part is
    tied, equal their 1-d results row by row; the lowest vertex is
    lexsort's."""
    from dmabeam.oracle import _edge_angles, _from_lowest
    design = small_design(4)
    rng = np.random.default_rng(7)
    f_ts = rng.uniform(12.5e9, 17.5e9, 6)
    w = _raw_weight(design, db.resonance_grid(design, f_ts, 50), f_ts[:, None])
    h = _raw_channel(design, rng.uniform(-1.0, 1.0, 6), f_ts)
    tied = np.array([[1 + 0j, 0j, 0.5 + 1j], [2 + 1j, 3 + 0j, 2 + 0j]])
    for stack in (w[:, None, :] * h[:, :, None], tied):
        lowest = _from_lowest(stack)
        angles = _edge_angles(lowest)
        assert lowest.shape == angles.shape == stack.shape
        for index in np.ndindex(stack.shape[:-1]):
            row = stack[index]
            start = int(np.lexsort((row.real, row.imag))[0])
            assert lowest[index].tobytes() == np.roll(row, -start).tobytes()
            assert lowest[index].tobytes() == _from_lowest(row).tobytes()
            assert angles[index].tobytes() \
                == _edge_angles(lowest[index]).tobytes()
    np.testing.assert_array_equal(_from_lowest(tied),
                                  [[0j, 0.5 + 1j, 1 + 0j],
                                   [2 + 0j, 2 + 1j, 3 + 0j]])


def test_grid_oracle_leaves_scipy_spatial_unloaded():
    """The walk is NumPy and Python: a four-element grid loads no Qhull."""
    code = ("import sys, numpy as np, dmabeam as db; "
            "d = db.DmaDesign(n_elements=4, spacing=1 / 120, "
            "refractive_index=2.5, damping=2 * np.pi * 15e9 / 50, "
            "coupling=1e-9, f_min=12e9, f_max=18e9); "
            "db.grid_max_gain(d, 0.3, 15e9, 200); "
            "print('scipy.spatial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_dense_scan_finds_the_integer_point(design):
    p, objective = db.dense_p_scan(design, np.radians(-18.0), 10 ** 5)
    assert objective == pytest.approx(8.0, rel=1e-6)
    assert p == pytest.approx(1.0, abs=1e-4)


def test_dense_scan_agrees_with_planner_off_peak(design):
    """Where no integer is reachable the scan lands on the same sidelobe."""
    phi = np.radians(45.0)
    op = db.optimal_operating_freq(design, phi)
    p_scan, objective = db.dense_p_scan(design, phi, 10 ** 6)
    assert not op.integer_case
    assert abs(p_scan - op.p_star) < 1e-5
    assert 2 * np.sqrt(op.gain) - design.n_elements \
        == pytest.approx(objective, abs=1e-6)


@pytest.mark.parametrize("n", [3, 9, 12, 19])
def test_dense_scan_never_exceeds_n_near_integer_p(n):
    """The scan reaches p = 1 at these angles; rounding must not push
    |sin(pi N p) / sin(pi p)| above its supremum N there."""
    for phi_deg in (-5.0, 10.0):
        _, objective = db.dense_p_scan(small_design(n), np.radians(phi_deg),
                                       10 ** 6)
        assert objective <= n * (1 + 1e-12)


def _dyadic_design(n, p_min, p_max):
    """A design whose scan grid p = linspace(p_min, p_max, .) is exact at
    phi = 0: p = f * 2^-30, since spacing / c = 2^-30 and n_g = 1."""
    return db.DmaDesign(n_elements=n, spacing=db.CONSTANTS.c * 2.0 ** -30,
                        refractive_index=1.0, damping=1e9, coupling=1e-9,
                        f_min=p_min * 2.0 ** 30, f_max=p_max * 2.0 ** 30)


def test_dense_scan_finds_a_maximum_in_the_last_partial_block(
        reference_dense_p_scan):
    """p = 1 is the last of 100,001 points: block 24 holds only 1,697."""
    resolution = 100_001
    assert resolution % oracle._SCAN_BLOCK != 0
    design = _dyadic_design(5, 0.25, 1.0)
    p, objective = db.dense_p_scan(design, 0.0, resolution)
    assert (p, objective) == (1.0, 5.0)
    assert (p, objective) == reference_dense_p_scan(design, 0.0, resolution)


def test_dense_scan_keeps_the_first_of_tied_maxima_across_blocks(
        reference_dense_p_scan):
    """p in [0.5, 2.5] on 2^17 + 1 points, a step of 2^-16: p = 1 and p = 2
    both land on the grid, at indices 2^15 and 3 * 2^15, in different
    blocks, with the identical value N.  The first one wins."""
    resolution = 2 ** 17 + 1
    design = _dyadic_design(7, 0.5, 2.5)
    p_grid = np.linspace(0.5, 2.5, resolution)
    assert p_grid[2 ** 15] == 1.0 and p_grid[3 * 2 ** 15] == 2.0
    assert 2 ** 15 // oracle._SCAN_BLOCK != 3 * 2 ** 15 // oracle._SCAN_BLOCK
    p, objective = db.dense_p_scan(design, 0.0, resolution)
    assert (p, objective) == (1.0, 7.0)
    assert (p, objective) == reference_dense_p_scan(design, 0.0, resolution)


@pytest.mark.parametrize("phi_deg", [-18.0, -5.0, 10.0, 45.0])
def test_blocked_scan_equals_the_unblocked_scan(design, phi_deg,
                                                reference_dense_p_scan):
    """Bit for bit, at a resolution that leaves a partial last block."""
    phi = np.radians(phi_deg)
    for resolution in (10 ** 5 + 3, 10 ** 6):
        assert db.dense_p_scan(design, phi, resolution) \
            == reference_dense_p_scan(design, phi, resolution)


def test_pruned_scan_keeps_the_first_of_equal_values_on_a_flat_objective(
        reference_dense_p_scan):
    """N = 1 on p in [0.25, 1]: every point scores 1, and the last block,
    which holds p = 1, has the only infinite bound and is visited first.
    The equal values of the earlier blocks must still take over, down to
    index 0, as np.argmax's first index does."""
    resolution = 100_001
    design = _dyadic_design(1, 0.25, 1.0)
    p, objective = db.dense_p_scan(design, 0.0, resolution)
    assert (p, objective) == (0.25, 1.0)
    assert (p, objective) == reference_dense_p_scan(design, 0.0, resolution)


def test_pruned_scan_bounds_a_block_by_its_end_nearest_an_integer(
        reference_dense_p_scan):
    """p in [2^-11, 1 - 2^-12] on 10^5 points, N = 64: the maximum, 63.97,
    sits at the top end, 2^-12 below p = 1, in a partial last block that
    starts 0.017 below p = 1.  A bound from that start, about 18.5, would
    prune the block behind the first block's 63.90 at p = 2^-11."""
    resolution = 10 ** 5
    design = _dyadic_design(64, 2.0 ** -11, 1.0 - 2.0 ** -12)
    p, objective = db.dense_p_scan(design, 0.0, resolution)
    assert p == 1.0 - 2.0 ** -12
    assert (p, objective) == reference_dense_p_scan(design, 0.0, resolution)


@given(n=st.integers(1, 64), n_g=st.floats(1.0, 4.0),
       d_y=st.floats(0.002, 0.03), f_min=st.floats(1.0, 30.0),
       span=st.floats(0.1, 20.0), phi_deg=st.floats(-90.0, 90.0),
       extra=st.integers(0, 7))
# The bound's own branches: N = 1 keeps 1 / sin(pi d), N = 2 has no
# sidelobe past 1/N, N = 3 the first floor 1 / sin(pi / N).
@example(n=1, n_g=2.5, d_y=1 / 120, f_min=12.0, span=6.0, phi_deg=-18.0,
         extra=0)
@example(n=2, n_g=2.5, d_y=1 / 120, f_min=12.0, span=6.0, phi_deg=-5.0,
         extra=1)
@example(n=3, n_g=2.5, d_y=1 / 120, f_min=12.0, span=6.0, phi_deg=10.0,
         extra=2)
# p in [0.64, 0.96]: the band holds no integer; the blocks within 1/8 of
# p = 1 take the mainlobe bound, the others 1 / sin(pi d).
@example(n=8, n_g=2.5, d_y=0.0073, f_min=12.0, span=6.0, phi_deg=-18.0,
         extra=3)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_pruned_scan_equals_the_full_scan(n, n_g, d_y, f_min, span, phi_deg,
                                          extra, reference_dense_p_scan):
    """Bit for bit, on bands in p that hold no integer, one or several
    (p reaches about 25 at the widest), at angles out to the +-90 deg
    ends, where n_g = 1 shrinks the band towards p = 0."""
    design = db.DmaDesign(n_elements=n, spacing=d_y, refractive_index=n_g,
                          damping=1e9, coupling=1e-9, f_min=f_min * 1e9,
                          f_max=(f_min + span) * 1e9)
    phi = float(np.radians(phi_deg))
    resolution = oracle.MIN_SCAN_RESOLUTION + extra
    assert db.dense_p_scan(design, phi, resolution) \
        == reference_dense_p_scan(design, phi, resolution)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 64, 128])
def test_block_bound_holds_over_the_rest_of_the_period(n):
    """The bound at d is at least |D_N(r)| for every d <= |r| <= 1/2, D_N
    summed as its cosines, on a dense grid of r.  It is never above
    1 / sin(pi d), and for N >= 3 below it within 1/N, bar d = 1 / 2N,
    where |sin(pi N d)| = 1."""
    dists = np.array([0.0, 1e-13, 1e-6, 0.25 / n, 0.5 / n, 0.9 / n,
                      0.99 / n, 1.0 / n, 1.01 / n, 1.5 / n, 2.5 / n, 0.3,
                      0.49, 0.5])
    dists = np.unique(dists[dists <= 0.5])
    bound = oracle._block_bound(n, dists)
    assert bound.shape == dists.shape
    m = n - 1 - 2 * np.arange(n)
    for d, b in zip(dists.tolist(), bound.tolist()):
        r = np.linspace(d, 0.5, 20001)
        kernel = np.abs(np.cos(np.pi * np.outer(r, m)).sum(axis=1))
        assert kernel.max() <= b, (d, kernel.max(), b)
        if d > 1e-12:
            old = (1.0 + 1e-9) / np.sin(np.pi * d)
            assert b <= old * (1.0 + 1e-15)
            if n >= 3 and d < 1.0 / n and d != 0.5 / n:
                assert b < old * (1.0 - 1e-6)
    assert np.isinf(bound[dists < 1e-12]).all()


def test_dense_scan_forms_one_block_at_verify_angles(monkeypatch):
    """On the reference design the planner check's three bands each hold
    p = 1: the block holding it bounds out every other one."""
    from dmabeam import cli
    design, _ = cli._resolve(db.Scenario())
    formed = []
    scan_points = oracle._scan_points

    def counting(p_lo, p_hi, resolution, index):
        # A formed block is a run of consecutive indices; the block ends
        # step by _SCAN_BLOCK.
        if index.size > 1 and np.all(np.diff(index) == 1):
            formed.append(index.size)
        return scan_points(p_lo, p_hi, resolution, index)

    monkeypatch.setattr(oracle, "_scan_points", counting)
    for phi_deg in (-18.0, -5.0, 10.0):
        formed.clear()
        _, objective = db.dense_p_scan(design, np.radians(phi_deg), 10 ** 6)
        assert objective == pytest.approx(design.n_elements, rel=1e-9)
        assert formed == [oracle._SCAN_BLOCK], phi_deg


@pytest.mark.parametrize("resolution", [10 ** 5, 10 ** 5 + 7, 10 ** 6])
def test_scan_points_equal_linspace(design, resolution):
    """The lazily formed points, block ends and the last point p_hi among
    them, equal np.linspace bit for bit, and the scan returns one of
    them.  On [0.2, 0.9] index * step + p_lo misses p_hi at the last
    point, and a step that underflows to zero takes linspace's other
    branch."""
    from dmabeam.oracle import _scan_points
    index = np.arange(resolution)
    for phi_deg in (-18.0, -5.0, 10.0, 45.0):
        phi = np.radians(phi_deg)
        scale = design.spacing * (design.refractive_index + np.sin(phi)) \
            / db.CONSTANTS.c
        p_lo, p_hi = design.f_min * scale, design.f_max * scale
        grid = np.linspace(p_lo, p_hi, resolution)
        np.testing.assert_array_equal(
            _scan_points(p_lo, p_hi, resolution, index), grid, strict=True)
        p, _ = db.dense_p_scan(design, phi, resolution)
        assert p == grid[np.searchsorted(grid, p)]
    for p_lo, p_hi in ((0.2, 0.9), (0.0, 0.0), (0.0, 5e-324)):
        np.testing.assert_array_equal(
            _scan_points(p_lo, p_hi, resolution, index),
            np.linspace(p_lo, p_hi, resolution), strict=True)


def test_dense_scan_never_holds_the_whole_grid(design):
    """One 10^6-point scan allocates a few blocks of _SCAN_BLOCK points at
    a time, not the 8 MB grid."""
    import tracemalloc
    tracemalloc.start()
    try:
        db.dense_p_scan(design, np.radians(-18.0), 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_dense_scan_resolution_floor(design):
    with pytest.raises(db.DomainError):
        db.dense_p_scan(design, 0.0, 10_000)


def test_enumerate_binary_tiny_case_by_hand():
    """Two anti-phased elements: the best mask keeps exactly one on."""
    design = small_design(2)
    sol = db.enumerate_binary(design, 0.0, 7.2e9)
    np.testing.assert_array_equal(sol.mask, [0, 1])
    assert sol.gain == pytest.approx(1.0, rel=1e-12)


def test_binary_mask_gain_reproduces_the_enumerated_optimum(design):
    sol = db.enumerate_binary(design, 0.2, 15e9)
    assert db.binary_mask_gain(design, 0.2, 15e9, sol.mask) \
        == pytest.approx(sol.gain, rel=1e-12)
    assert db.binary_mask_gain(design, 0.2, 15e9, np.zeros(8)) == 0.0
    with pytest.raises(db.DomainError):
        db.binary_mask_gain(design, 0.2, 15e9, [1, 0])


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("n", range(1, 15))
def test_enumerate_binary_matches_the_double_loop_bit_for_bit(
        reference_enumerate_binary, n, lossy):
    """Mask and gain equal the double loop's at random angles and
    frequencies, from one batched call and from scalar calls alike.  Small
    arrays take thousands of angles, so that a gain rounded by np.abs or
    x * x in place of hypot and float_power shows.  The raw channel has
    no decay, so a lossy design enumerates the lossless channel."""
    rng = np.random.default_rng(100 * n + lossy)
    design = dataclasses.replace(small_design(n),
                                 attenuation=6.0 if lossy else None)
    f_c = float(rng.uniform(12e9, 18e9))
    phis = rng.uniform(-1.5, 1.5, max(3, 4096 >> n))
    batch = db.enumerate_binary(design, phis, f_c)
    assert batch.mask.shape == (phis.size, n) and batch.mask.dtype == np.int8
    assert batch.gain.shape == (phis.size,)
    for k, phi in enumerate(phis.tolist()):
        mask, gain = reference_enumerate_binary(design, phi, f_c)
        np.testing.assert_array_equal(batch.mask[k], mask, strict=True)
        assert batch.gain[k] == gain
        if k < 3:
            sol = db.enumerate_binary(design, phi, f_c)
            np.testing.assert_array_equal(sol.mask, mask, strict=True)
            assert type(sol.gain) is float and sol.gain == gain


def test_enumerate_binary_at_its_cap_is_no_worse_than_the_solver(design):
    """At 20 elements, 16 blocks of masks: each angle's gain is its own
    mask's, and the solver finds no better one."""
    big = dataclasses.replace(design, n_elements=oracle.BINARY_MAX_ELEMENTS)
    phis = np.array([-0.4, 0.7])
    sol = db.enumerate_binary(big, phis, F_C)
    fast = db.solve_p4(big, phis, F_C)
    for phi, mask, gain, solver in zip(phis.tolist(), sol.mask, sol.gain,
                                       fast.gain):
        assert db.binary_mask_gain(big, phi, F_C, mask) \
            == pytest.approx(gain, rel=1e-12)
        assert gain >= solver * (1.0 - 1e-9)


def test_enumerate_binary_cap():
    with pytest.raises(db.DomainError, match="caps at 20 elements, got 21"):
        db.enumerate_binary(small_design(21), 0.0, 15e9)


def test_oracle_imports_no_solver_module():
    """From its own package the oracle imports the model's constants and
    design, and the errors: no solver, and none of the solvers' types."""
    import ast
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert local == {"core_model", "errors"}
    assert not any(isinstance(node, ast.Import)
                   and any(a.name.startswith("dmabeam") for a in node.names)
                   for node in ast.walk(tree))


def test_oracle_shares_no_solver_code(design):
    """The raw reimplementation reproduces the channel to float precision."""
    from dmabeam.oracle import _raw_channel, _raw_weight
    phi, f = 0.37, 14.1e9
    np.testing.assert_allclose(_raw_channel(design, phi, f),
                               db.effective_channel(design, phi, f),
                               rtol=0, atol=1e-9)
    f_r = np.array([13e9, 15e9, 17e9])
    np.testing.assert_allclose(_raw_weight(design, f_r, f),
                               db.beamformer_weight(design, f_r, f),
                               rtol=0, atol=1e-9)
