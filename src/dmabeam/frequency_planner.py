"""Operating-frequency selection and waveguide design rules.

The array sum peaks whenever the normalized product
p = f d_y (n_g + sin phi) / c is an integer, so steering reduces to
picking the operating frequency that lands p on (or closest to) an
integer inside the tunable band.  The waveguide design rules choose the
refractive index and element spacing so an integer p is reachable for
every angle of a target sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import dirichlet_of_p
from .core_model import CONSTANTS, DmaDesign
from .errors import DomainError, NoCrossoverError

GOLDEN_TOL = 1e-12   # interval tolerance for the lobe search, in p units
INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


class CoverageAngle(NamedTuple):
    """Maximum steerable angle and whether the arcsin argument saturated."""

    angle: float
    saturated: bool


@dataclass(frozen=True)
class OperatingPoint:
    """Optimal operating frequency for one angle of departure.

    For an array of angles each field is an array with one entry per
    angle.
    """

    f_t_star: float | np.ndarray
    p_star: float | np.ndarray
    gain: float | np.ndarray
    integer_case: bool | np.ndarray


@dataclass(frozen=True)
class SectorDesign:
    """Waveguide parameters covering an angular sector with full gain."""

    phi_lower: float
    phi_upper: float
    n_g_star: float
    d_y_star: float
    p_star_choice: int


def golden_section_max(f, a, b, tol: float = GOLDEN_TOL):
    """Argmax of a unimodal f on [a, b] by golden-section search.

    ``a`` and ``b`` may be 1-d arrays of interval ends, searched together:
    ``f`` maps an array of points to their values, and each step calls it
    once for the intervals still wider than ``tol``.  Every interval makes
    the comparisons and updates of its own scalar search, so its result
    does not depend on the others.  Scalar ends give a float.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = (np.array(x, dtype=float, ndmin=1) for x in np.broadcast_arrays(a, b))
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    # Copies: f may return its argument, and c, d are updated in place.
    fc, fd = np.array(f(c), dtype=float), np.array(f(d), dtype=float)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        up = fc[live] < fd[live]
        rise, fall = live[up], live[~up]
        a[rise], c[rise], fc[rise] = c[rise], d[rise], fd[rise]
        d[rise] = a[rise] + INV_PHI * (b[rise] - a[rise])
        b[fall], d[fall], fd[fall] = d[fall], c[fall], fc[fall]
        c[fall] = b[fall] - INV_PHI * (b[fall] - a[fall])
        values = f(np.where(up, d[live], c[live]))
        fd[rise], fc[fall] = values[up], values[~up]
        live = live[b[live] - a[live] > tol]
    top = 0.5 * (a + b)
    return float(top[0]) if scalar else top


def optimal_operating_freq(design: DmaDesign, phi) -> OperatingPoint:
    """Best operating frequency in [f_min, f_max] for the given angle.

    If an integer p is reachable the gain hits N^2 exactly (smallest such
    integer wins when several are reachable).  Where n_g + sin(phi) = 0,
    p = 0 at every frequency, an integer, and f_min is chosen.  Otherwise
    the Dirichlet magnitude is maximized lobe by lobe between its nulls,
    which keeps each golden-section run on a unimodal piece.  The
    candidates are the band edges and nulls, then the lobe tops, and the
    first largest wins.

    A scalar ``phi`` gives float fields and a bool ``integer_case``.  A
    1-d array gives arrays with one entry per angle, each equal to the
    scalar call's; the lobes of all its angles share one search.
    """
    n = design.n_elements
    phis = np.asarray(phi, dtype=float)
    scalar = phis.ndim == 0
    phis = phis.reshape(-1)
    # n_g >= 1 (DmaDesign) and sin >= -1 keep the slope non-negative.
    slope = design.spacing * (design.refractive_index + np.sin(phis)) / CONSTANTS.c
    p_min = design.f_min * slope
    p_max = design.f_max * slope
    p_star = np.ceil(p_min)
    integer_case = p_star <= p_max
    gain = np.full(phis.shape, float(n ** 2))
    if np.count_nonzero(integer_case) < phis.size:
        off = ~integer_case
        lo, hi = p_min[off], p_max[off]
        # Dirichlet nulls at multiples of 1/N partition [p_min, p_max] into
        # unimodal lobes; integer p is excluded here so no lobe holds the peak.
        k_lo = np.floor(lo * n).astype(np.int64) + 1
        k_hi = np.ceil(hi * n).astype(np.int64) - 1
        counts = k_hi - k_lo + 1           # >= 0, since hi > lo
        owner = np.repeat(np.arange(lo.size), counts)
        k = k_lo[owner] + np.arange(owner.size) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        nulls = k / n
        inside = (lo[owner] < nulls) & (nulls < hi[owner])
        # Per angle, in order: lower edge, nulls, upper edge.  Stable sorts
        # on the angle index keep that order within each angle.
        edge_owner = np.concatenate([np.arange(lo.size), owner[inside],
                                     np.arange(lo.size)])
        order = np.argsort(edge_owner, kind="stable")
        edge_owner = edge_owner[order]
        edges = np.concatenate([lo, nulls[inside], hi])[order]
        lobe = edge_owner[1:] == edge_owner[:-1]

        def objective(p):
            return np.abs(dirichlet_of_p(p, n))

        tops = golden_section_max(objective, edges[:-1][lobe], edges[1:][lobe])
        cand_owner = np.concatenate([edge_owner, edge_owner[:-1][lobe]])
        order = np.argsort(cand_owner, kind="stable")
        cand_owner = cand_owner[order]
        candidates = np.concatenate([edges, tops])[order]
        values = objective(candidates)
        starts = np.flatnonzero(np.diff(cand_owner, prepend=-1))
        s_best = np.maximum.reduceat(values, starts)
        hits = np.flatnonzero(values == s_best[cand_owner])
        _, first = np.unique(cand_owner[hits], return_index=True)
        p_star[off] = candidates[hits[first]]
        # float_power rounds like the scalar float ** of a Python float;
        # an array ** 2 squares, which can differ in the last bit.
        gain[off] = np.float_power(n + s_best, 2) / 4.0
    # p/slope can land an ulp outside the band when p sits on a band edge,
    # in either case.  A zero slope (p = 0 throughout) divides to 0, f_min.
    f_t = p_star / np.where(slope > 0, slope, np.inf)
    f_t_star = np.minimum(np.maximum(f_t, design.f_min), design.f_max)
    if scalar:
        return OperatingPoint(f_t_star=float(f_t_star[0]), p_star=float(p_star[0]),
                              gain=float(gain[0]),
                              integer_case=bool(integer_case[0]))
    return OperatingPoint(f_t_star=f_t_star, p_star=p_star, gain=gain,
                          integer_case=integer_case)


def crossover_angle(design: DmaDesign, f_c: float) -> float:
    """The angle where the optimal operating frequency equals f_c (p = 1)."""
    arg = CONSTANTS.c / (f_c * design.spacing) - design.refractive_index
    if abs(arg) > 1.0:
        raise NoCrossoverError(
            f"no angle steers p=1 to {f_c:.4g} Hz with this design")
    return float(np.arcsin(arg))


def design_sector(phi_lower: float, phi_upper: float, f_min: float,
                  f_max: float, p_star: int = 1) -> SectorDesign:
    """Refractive index and spacing covering [phi_lower, phi_upper].

    The closed forms place p = p_star at f_max for the lower sector edge
    and at f_min for the upper edge, so every angle between reaches an
    integer p inside the band.
    """
    if not (0 < f_min < f_max):
        raise DomainError("need 0 < f_min < f_max")
    if not phi_lower < phi_upper:
        raise DomainError("need phi_lower < phi_upper")
    if p_star < 1:
        raise DomainError("p_star must be a positive integer")
    s_up, s_lw = np.sin(phi_upper), np.sin(phi_lower)
    n_g = (s_up - s_lw) / 2.0 * (f_max + f_min) / (f_max - f_min) \
        - (s_up + s_lw) / 2.0
    d_y = CONSTANTS.c * p_star * (f_max - f_min) / ((s_up - s_lw) * f_min * f_max)
    return SectorDesign(
        phi_lower=float(phi_lower),
        phi_upper=float(phi_upper),
        n_g_star=float(n_g),
        d_y_star=float(d_y),
        p_star_choice=int(p_star),
    )


def max_coverage_angle(n_g_max: float, tuning_range: float,
                       f_c: float) -> CoverageAngle:
    """Largest steerable angle from broadside for a given tuning range.

    phi_max = arcsin(n_g_max T_r / (2 f_c)); when the argument exceeds 1
    the whole front half-space is reachable and the result saturates at
    pi/2.
    """
    if n_g_max <= 0 or tuning_range < 0 or f_c <= 0:
        raise DomainError("arguments must be positive (tuning_range >= 0)")
    arg = n_g_max * tuning_range / (2.0 * f_c)
    if arg > 1.0:
        return CoverageAngle(angle=float(np.pi / 2.0), saturated=True)
    return CoverageAngle(angle=float(np.arcsin(arg)), saturated=False)
