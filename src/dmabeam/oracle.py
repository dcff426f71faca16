"""Brute-force cross-checks for the closed-form optimizers.

Everything here recomputes physics from first principles — raw Lorentzian
polarizability, explicitly accumulated propagation phases, plain
enumeration — and deliberately shares no code with the solvers it
validates.  Tests and the ``verify`` CLI subcommand compare these against
the closed forms; the library itself never calls them in a hot path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core_model import CONSTANTS, DmaDesign
from .errors import DomainError

# The grid walk's cost grows as N^2 * points (N * points candidates of N
# vertices each).
GRID_MAX_POINTS = 400
BINARY_MAX_ELEMENTS = 20
MIN_SCAN_RESOLUTION = 10 ** 5
# Points per block of dense_p_scan.  With the mainlobe bound a scan whose
# band holds an integer p forms just the block with the maximum, so that
# block's size is most of the cost: at verify's 10^6 points a call takes
# about 0.2 ms from 2^10 to 2^12 points a block, 0.35 ms at 2^13 and
# 1.5 ms at 2^15; below 2^10 the per-block bounds start to cost more.
_SCAN_BLOCK = 2 ** 12
# Walk candidates (draws x N x points) per block of grid_max_gain's
# draws.  The walk holds about 100 bytes a candidate (the polygons, two
# index arrays, two half sums and a gathered vertex): verify's 6 draws at
# N = 4 in one block peaked at 0.44 MB, in blocks of 2^11 at 0.18 MB, the
# level of its other checks, for about 0.1 ms a block more.
_WALK_BLOCK = 2 ** 11


class EnumeratedMask(NamedTuple):
    """The best on/off pattern of the plain enumeration and its gain."""

    mask: np.ndarray     # (N,) int8, or (A, N) for A angles
    gain: float          # or an (A,) array


def _raw_weight(design: DmaDesign, f_r, f):
    """Normalized Lorentzian weight straight from the polarizability."""
    # float_power rounds f^2 as a Python float's ** does for any shape of
    # f; an array ** 2 squares, which can differ in the last bit.
    f_sq = np.float_power(f, 2)
    alpha = design.coupling * 2.0 * np.pi * f_sq / (
        2.0 * np.pi * f_r ** 2 - 2.0 * np.pi * f_sq + 1j * design.damping * f)
    return alpha * design.damping / (2.0 * np.pi * f * design.coupling)


def _raw_channel(design: DmaDesign, phi, f):
    """Unit-modulus channel phases accumulated element by element, along
    the last axis; arrays of phi and f add a leading draw axis."""
    h = np.empty(np.broadcast_shapes(np.shape(phi), np.shape(f))
                 + (design.n_elements,), dtype=complex)
    for n in range(1, design.n_elements + 1):
        inside = 2.0 * np.pi * (f / CONSTANTS.c) * (n - 1) \
            * design.spacing * design.refractive_index
        outside = 2.0 * np.pi * (f / CONSTANTS.c) * (n - 1) \
            * design.spacing * np.sin(phi)
        h[..., n - 1] = np.exp(-1j * (inside + outside))
    return h


def resonance_grid(design: DmaDesign, f_t, points: int) -> np.ndarray:
    """Candidate per-element resonant frequencies, increasing along the
    last axis; a 1-d ``f_t`` gives one grid per row.

    The grid is uniform in the Lorentzian phase angle rather than in
    frequency: near resonance the phase turns through most of its range
    within a tiny frequency interval, so a frequency-uniform grid of any
    practical size skips straight past the high-gain configurations.  It
    spans the arc (-pi + atan(Gamma / (2 pi f_t)), 0) that resonances in
    (0, inf) reach at f_t, endpoints excluded, as a low-Q guide needs.

    Each weight lies on the circle |w + j/2| = 1/2 at the angle
    2 psi + pi / 2 about its centre, so the grid's weights are uniform
    in that angle over less than a turn, counter-clockwise in grid
    order: every one is a vertex of the convex polygon they form.
    """
    f_t = np.asarray(f_t, dtype=float)
    lo = -np.pi + np.arctan(design.damping / (2.0 * np.pi * f_t))
    psi = np.linspace(lo, 0.0, points + 2, axis=-1)[..., 1:-1]
    # invert psi = atan2(-Gamma f, 2 pi (f_r^2 - f^2)) for f_r
    f_t = f_t[..., None]
    f_r_sq = np.float_power(f_t, 2) \
        - design.damping * f_t / (2.0 * np.pi * np.tan(psi))
    return np.sqrt(f_r_sq)


def _from_lowest(polygon: np.ndarray) -> np.ndarray:
    """Counter-clockwise polygons (last axis) re-started at their lowest
    vertex.

    Lowest means least imaginary part, ties to the least real part, so
    the edge angles then rise through [0, 2 pi) around the polygon.
    """
    imag = polygon.imag
    lowest = imag == imag.min(axis=-1, keepdims=True)
    start = np.where(lowest, polygon.real, np.inf).argmin(axis=-1)
    size = polygon.shape[-1]
    index = np.arange(size) + start[..., None]
    index %= size
    return np.take_along_axis(polygon, index, axis=-1)


def _edge_angles(polygon: np.ndarray) -> np.ndarray:
    """Polar angles in [0, 2 pi) of polygons' edges (last axis), the
    closing one last."""
    edges = np.roll(polygon, -1, axis=-1) - polygon
    angles = np.arctan2(edges.imag, edges.real)
    return np.where(angles < 0.0, angles + 2.0 * np.pi, angles)


def grid_max_gain(design: DmaDesign, phi, f_t, grid_points_per_element: int):
    """Max gain over the full tensor grid of per-element resonances.

    Exact over all points^N combinations without enumerating them.  The
    best sum is a vertex of the hull of the sum of the N elements' clouds
    (|z| is convex, so its maximum over a polygon sits at a vertex), and
    that hull is the Minkowski sum of the N polygons formed by the weight
    grid turned by each element's unit-modulus channel.  Every grid point
    is a vertex, in walk order: the points lie on one circle, uniform in
    2 psi + pi / 2 and counter-clockwise in grid order (see
    resonance_grid).  Walking all N boundaries at once, their edges
    merged by polar angle, traces the boundary of the Minkowski sum
    (de Berg et al., Computational Geometry, ch. 13): at most N * points
    candidates, each one sum of a vertex per element.  A candidate is
    added up in two halves, (v_0 + v_1) + (v_2 + v_3) for N = 4, so it
    is exactly one of the sums that plain enumeration forms.

    A scalar ``phi`` and ``f_t`` give a float.  1-d arrays of draws give
    an array with one maximum per draw, each equal bit for bit to the
    scalar call's; the draws are walked together, a block of at most
    _WALK_BLOCK candidates at a time.
    """
    n = design.n_elements
    if grid_points_per_element > GRID_MAX_POINTS:
        raise DomainError(
            f"grid oracle caps at {GRID_MAX_POINTS} points per element")
    if grid_points_per_element < 2:
        raise DomainError("need at least 2 grid points per element")

    phis, f_ts = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                     np.asarray(f_t, dtype=float))
    phis, f_ts = phis.reshape(-1), f_ts.reshape(-1)
    size = grid_points_per_element
    weights = _raw_weight(design, resonance_grid(design, f_ts, size),
                          f_ts[:, None])
    channel = _raw_channel(design, phis, f_ts)
    rows = max(1, _WALK_BLOCK // (n * size))
    best = np.empty(phis.size)
    for k in range(0, phis.size, rows):
        # Element i's grid weights turned by its channel, per draw.
        # Rotation keeps each polygon convex and counter-clockwise.
        best[k:k + rows] = _walk_max(_from_lowest(
            weights[k:k + rows, None, :] * channel[k:k + rows, :, None]))
    return float(best[0]) if np.ndim(phi) == np.ndim(f_t) == 0 else best


def _walk_max(polygons: np.ndarray) -> np.ndarray:
    """Per draw d, the max |z|^2 over the vertices of the Minkowski sum of
    the N counter-clockwise polygons polygons[d, i], each started at its
    lowest vertex, found by one walk around all of them."""
    draws, n, size = polygons.shape
    owner = np.argsort(_edge_angles(polygons).reshape(draws, n * size),
                       axis=-1, kind="stable")[:, :-1]
    owner //= size
    # Each element's vertices along the walk, gathered and added to its
    # half one element at a time: its edges taken in the first k steps.
    halves = np.zeros((2, draws, n * size), dtype=complex)
    walk = np.zeros((draws, n * size), dtype=np.intp)
    draw = np.arange(draws)[:, None]
    for i in range(n):
        np.cumsum(owner == i, axis=-1, out=walk[:, 1:])
        walk %= size
        halves[int(i >= n // 2)] += polygons[draw, i, walk]
    np.add(halves[0], halves[1], out=halves[0])
    # Rounding is monotone, so the largest |z| gives the largest |z|^2.
    return np.max(np.abs(halves[0]), axis=-1) ** 2


def _scan_points(p_lo: float, p_hi: float, resolution: int,
                 index: np.ndarray) -> np.ndarray:
    """np.linspace(p_lo, p_hi, resolution)[index], formed by linspace's own
    float operations (NumPy 2.x) without the rest of the grid."""
    p = index.astype(float)
    step = (p_hi - p_lo) / (resolution - 1)
    if step == 0:           # linspace's branch for a step that underflows
        p /= resolution - 1
        p *= p_hi - p_lo
    else:
        p *= step
    p += p_lo
    p[index == resolution - 1] = p_hi
    return p


def _block_bound(n: int, d: np.ndarray) -> np.ndarray:
    """An upper bound on |sin(pi n r) / sin(pi r)| over d <= |r| <= 1/2,
    for each distance d in [0, 1/2], inflated by 1e-9 for rounding.

    For n >= 2 and 0 < d < 1/n it is the mainlobe bound
    max(|sin(pi n d) / sin(pi d)|, 1 / sin(pi / n)), elsewhere
    1 / sin(pi d), and infinite where sin(pi d) <= 1e-12.  Both hold
    exactly.  The kernel is sum_k cos(pi (n - 1 - 2k) r), k = 0 .. n - 1,
    and every term falls on [0, 1/n], where |n - 1 - 2k| r < 1: so the
    kernel falls from n to 0 there and is at most its value at d.  Past
    1/n, |sin(pi n r)| <= 1 bounds it by 1 / sin(pi r) <= 1 / sin(pi / n).
    For n = 2 nothing lies past 1/n = 1/2; its floor 1 keeps the bound at
    least 1, so the inflation also covers rounding near the zero at 1/2.
    """
    d = np.asarray(d, dtype=float)
    sin_d = np.sin(np.pi * d)
    bound = np.full(d.shape, np.inf)
    np.divide(1.0, sin_d, out=bound, where=sin_d > 1e-12)
    if n >= 2:
        lobe = (sin_d > 1e-12) & (d < 1.0 / n)
        bound[lobe] = np.maximum(
            np.abs(np.sin(np.pi * n * d[lobe]) / sin_d[lobe]),
            1.0 / np.sin(np.pi / n))
    return bound * (1.0 + 1e-9)


def dense_p_scan(design: DmaDesign, phi: float, resolution: int):
    """Uniform scan of |sin(pi N p) / sin(pi p)| over the reachable p range.

    Returns (p at the grid argmax, objective value there).  The grid is
    np.linspace's, but its points are formed a block of _SCAN_BLOCK at a
    time (see _scan_points), so no temporary holds more than one block,
    and only blocks that can hold the maximum are formed.  Each block is
    bounded by _block_bound at d, the distance of the block's p interval
    from the nearest integer: infinite when it holds one, as the safe
    mask may set a point to N, and within 1/N of one the mainlobe bound
    max(|D_N(d)|, 1 / sin(pi / N)).  That bound is exact, since the
    kernel falls from N to 0 on [0, 1/N] and stays below
    1 / sin(pi r) <= 1 / sin(pi / N) past it; so once the block that
    holds a near-integer maximum is formed, every block whose points lie
    further from that integer is pruned.  Blocks are visited by
    descending bound, and the scan stops at the first one whose bound is
    below the best value.  A block replaces the best when its maximum is
    greater, or equal at a lower index, so ties keep the first index of
    the whole grid, as np.argmax does.
    """
    if resolution < MIN_SCAN_RESOLUTION:
        raise DomainError(
            f"resolution below {MIN_SCAN_RESOLUTION} defeats the purpose")
    n = design.n_elements
    scale = design.spacing * (design.refractive_index + np.sin(phi)) / CONSTANTS.c
    p_lo, p_hi = design.f_min * scale, design.f_max * scale
    # n_g >= 1, so p rises along the grid and each block spans [lo, hi].
    starts = np.arange(0, resolution, _SCAN_BLOCK)
    lo = _scan_points(p_lo, p_hi, resolution, starts)
    hi = _scan_points(p_lo, p_hi, resolution,
                      np.minimum(starts + _SCAN_BLOCK, resolution) - 1)
    below = np.floor(lo)
    d = np.where(below + 1.0 <= hi, 0.0,
                 np.minimum(lo - below, below + 1.0 - hi))
    bound = _block_bound(n, d)
    best_k, best_p, best = 0, p_lo, -np.inf
    for b in np.argsort(-bound, kind="stable").tolist():
        if bound[b] < best:
            break
        start = b * _SCAN_BLOCK
        block = _scan_points(p_lo, p_hi, resolution, np.arange(
            start, min(start + _SCAN_BLOCK, resolution)))
        # |S| has period 1 in p; reducing to r = p - round(p) (exact) keeps
        # the rounding of sin(pi N p) from being amplified by 1/sin(pi p)
        # near integer p, where it would push the objective above N.
        r = np.round(block)
        np.subtract(block, r, out=r)
        den = np.sin(np.pi * r)
        safe = np.abs(den) > 1e-12
        den[~safe] = 1.0
        r *= np.pi * n
        objective = np.sin(r, out=r)
        objective /= den
        np.abs(objective, out=objective)
        objective[~safe] = float(n)
        k = int(np.argmax(objective))
        if objective[k] > best or (objective[k] == best
                                   and start + k < best_k):
            best_k, best_p, best = start + k, block[k], objective[k]
    return float(best_p), float(best)


def enumerate_binary(design: DmaDesign, phi, f_c: float) -> EnumeratedMask:
    """Plain enumeration of all on/off element patterns, as arrays.

    Explicit bit tests, element 1 as the most significant bit; each sum
    adds its elements in order, and hypot and float_power round the gain
    as Python's abs(complex) ** 2 (np.abs and x * x can differ in the
    last bit).  The first maximum wins, the lexicographically smallest
    maximizer, an earlier block of 2^16 masks keeping a tie.  A 1-d
    ``phi`` gives (A, N) masks and (A,) gains.
    """
    n = design.n_elements
    if n > BINARY_MAX_ELEMENTS:
        raise DomainError(
            f"binary oracle caps at {BINARY_MAX_ELEMENTS} elements, got {n}")
    h = _raw_channel(design, phi, f_c)
    best_gain = np.full(h.shape[:-1], -1.0)
    best_mask = np.zeros(h.shape[:-1], dtype=np.int64)
    for start in range(0, 1 << n, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), 1 << n))
        total = np.zeros(h.shape[:-1] + masks.shape, dtype=complex)
        for element in range(n):
            on = (masks >> (n - 1 - element)) & 1 == 1
            np.add(total, h[..., element, None], out=total, where=on)
        gain = np.hypot(total.real, total.imag)
        np.float_power(gain, 2, out=gain)
        top = gain.max(axis=-1)
        best_mask = np.where(top > best_gain, masks[gain.argmax(axis=-1)],
                             best_mask)
        best_gain = np.maximum(best_gain, top)
    bits = (best_mask[..., None] >> np.arange(n - 1, -1, -1)) & 1
    gain = float(best_gain) if best_gain.ndim == 0 else best_gain
    return EnumeratedMask(mask=bits.astype(np.int8), gain=gain)


def binary_mask_gain(design: DmaDesign, phi: float, f_c: float, mask) -> float:
    """Gain |mask . h|^2 of one on/off pattern, from the raw channel."""
    mask = np.asarray(mask)
    if mask.shape != (design.n_elements,):
        raise DomainError(
            f"mask needs {design.n_elements} entries, got shape {mask.shape}")
    return float(abs(np.dot(mask, _raw_channel(design, phi, f_c))) ** 2)
