"""Brute-force cross-checks for the closed-form optimizers.

Everything here recomputes physics from first principles — raw Lorentzian
polarizability, explicitly accumulated propagation phases, plain
enumeration — and deliberately shares no code with the solvers it
validates.  Tests and the ``verify`` CLI subcommand compare these against
the closed forms; the library itself never calls them in a hot path.
"""

from __future__ import annotations

import numpy as np

from .binary_tuning import BinarySolution
from .core_model import CONSTANTS, DmaDesign
from .errors import DomainError, EnumerationLimitError

GRID_MAX_ELEMENTS = 4
GRID_MAX_POINTS = 400
BINARY_MAX_ELEMENTS = 20
MIN_SCAN_RESOLUTION = 10 ** 5
_PAIR_LIMIT = 4 * 10 ** 6   # brute-force pair budget before hull pruning


def _raw_weight(design: DmaDesign, f_r, f):
    """Normalized Lorentzian weight straight from the polarizability."""
    alpha = design.coupling * 2.0 * np.pi * f ** 2 / (
        2.0 * np.pi * f_r ** 2 - 2.0 * np.pi * f ** 2 + 1j * design.damping * f)
    return alpha * design.damping / (2.0 * np.pi * f * design.coupling)


def _raw_channel(design: DmaDesign, phi, f):
    """Unit-modulus channel phases accumulated element by element."""
    h = np.empty(design.n_elements, dtype=complex)
    for n in range(1, design.n_elements + 1):
        inside = 2.0 * np.pi * (f / CONSTANTS.c) * (n - 1) \
            * design.spacing * design.refractive_index
        outside = 2.0 * np.pi * (f / CONSTANTS.c) * (n - 1) \
            * design.spacing * np.sin(phi)
        h[n - 1] = np.exp(-1j * (inside + outside))
    return h


def resonance_grid(design: DmaDesign, f_t: float, points: int) -> np.ndarray:
    """Candidate per-element resonant frequencies, increasing.

    The grid is uniform in the Lorentzian phase angle rather than in
    frequency: near resonance the phase turns through most of its range
    within a tiny frequency interval, so a frequency-uniform grid of any
    practical size skips straight past the high-gain configurations.  It
    spans the arc (-pi + atan(Gamma / (2 pi f_t)), 0) that resonances in
    (0, inf) reach at f_t, endpoints excluded, as a low-Q guide needs.
    """
    lo = -np.pi + np.arctan(design.damping / (2.0 * np.pi * f_t))
    psi = np.linspace(lo, 0.0, points + 2)[1:-1]
    # invert psi = atan2(-Gamma f, 2 pi (f_r^2 - f^2)) for f_r
    f_r_sq = f_t ** 2 - design.damping * f_t / (2.0 * np.pi * np.tan(psi))
    return np.sqrt(f_r_sq)


def _hull_prune(sums: np.ndarray) -> np.ndarray:
    """Keep only the convex-hull vertices of a cloud of partial sums.

    The maximum of |a + b| over two finite clouds is always attained with
    both a and b on their hulls (for fixed b, |a + b| is the distance of a
    from -b, maximized at a hull vertex of the a-cloud, and vice versa),
    so pruning loses nothing.
    """
    if sums.size <= 512:
        return sums
    # Imported here: scipy.spatial is slow to import; big clouds only.
    from scipy.spatial import ConvexHull, QhullError

    pts = np.column_stack([sums.real, sums.imag])
    try:
        keep = ConvexHull(pts).vertices
    except QhullError:
        return sums
    return sums[keep]


def grid_max_gain(design: DmaDesign, phi: float, f_t: float,
                  grid_points_per_element: int) -> float:
    """Max gain over the full tensor grid of per-element resonances.

    Exhaustive over points^N combinations; the combination space is split
    into two halves whose partial-sum clouds are hull-pruned before the
    cross-pairing, which changes nothing about the result (see
    _hull_prune) but keeps the search tractable at 400^4.
    """
    n = design.n_elements
    if n > GRID_MAX_ELEMENTS:
        raise EnumerationLimitError(
            f"grid oracle caps at {GRID_MAX_ELEMENTS} elements, got {n}")
    if grid_points_per_element > GRID_MAX_POINTS:
        raise EnumerationLimitError(
            f"grid oracle caps at {GRID_MAX_POINTS} points per element")
    if grid_points_per_element < 2:
        raise DomainError("need at least 2 grid points per element")

    weights = _raw_weight(design, resonance_grid(design, f_t,
                                                 grid_points_per_element), f_t)
    h = _raw_channel(design, phi, f_t)

    def half_sums(indices):
        sums = np.zeros(1, dtype=complex)
        for i in indices:
            sums = (sums[:, None] + weights[None, :] * h[i]).ravel()
        return sums

    first = half_sums(range(n // 2))
    second = half_sums(range(n // 2, n))
    if first.size * second.size > _PAIR_LIMIT:
        first, second = _hull_prune(first), _hull_prune(second)
    best = 0.0
    for a in first:
        best = max(best, float(np.max(np.abs(a + second) ** 2)))
    return best


def dense_p_scan(design: DmaDesign, phi: float, resolution: int):
    """Uniform scan of |sin(pi N p) / sin(pi p)| over the reachable p range.

    Returns (p at the grid argmax, objective value there).
    """
    if resolution < MIN_SCAN_RESOLUTION:
        raise DomainError(
            f"resolution below {MIN_SCAN_RESOLUTION} defeats the purpose")
    n = design.n_elements
    scale = design.spacing * (design.refractive_index + np.sin(phi)) / CONSTANTS.c
    p = np.linspace(design.f_min * scale, design.f_max * scale, resolution)
    # |S| has period 1 in p; reducing to r = p - round(p) (exact) keeps the
    # rounding of sin(pi N p) from being amplified by 1/sin(pi p) near
    # integer p, where it would push the objective above N.
    # In place where possible: at 10^6 points each temporary is 8 MB.
    r = np.round(p)
    np.subtract(p, r, out=r)
    den = np.sin(np.pi * r)
    safe = np.abs(den) > 1e-12
    den[~safe] = 1.0
    r *= np.pi * n
    objective = np.sin(r, out=r)
    objective /= den
    np.abs(objective, out=objective)
    objective[~safe] = float(n)
    k = int(np.argmax(objective))
    return float(p[k]), float(objective[k])


def enumerate_binary(design: DmaDesign, phi: float, f_c: float) -> BinarySolution:
    """Plain double-loop enumeration of all on/off element patterns.

    Independent of the vectorized solver: python-level loops, explicit
    bit tests, element 1 as the most significant bit, strict improvement
    so the lexicographically smallest maximizer wins.
    """
    n = design.n_elements
    if n > BINARY_MAX_ELEMENTS:
        raise EnumerationLimitError(
            f"binary oracle caps at {BINARY_MAX_ELEMENTS} elements, got {n}")
    h = _raw_channel(design, phi, f_c)
    best_gain = -1.0
    best_mask = 0
    for mask in range(1 << n):
        total = 0j
        for element in range(n):
            if (mask >> (n - 1 - element)) & 1:
                total += h[element]
        gain = abs(total) ** 2
        if gain > best_gain:
            best_gain = gain
            best_mask = mask
    bits = np.array([(best_mask >> (n - 1 - e)) & 1 for e in range(n)],
                    dtype=np.int8)
    return BinarySolution(mask=bits, gain=float(best_gain))


def binary_mask_gain(design: DmaDesign, phi: float, f_c: float, mask) -> float:
    """Gain |mask . h|^2 of one on/off pattern, from the raw channel."""
    mask = np.asarray(mask)
    if mask.shape != (design.n_elements,):
        raise DomainError(
            f"mask needs {design.n_elements} entries, got shape {mask.shape}")
    return float(abs(np.dot(mask, _raw_channel(design, phi, f_c))) ** 2)
