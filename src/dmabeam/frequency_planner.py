"""Operating-frequency selection and waveguide design rules.

The array sum peaks whenever the normalized product
p = f d_y (n_g + sin phi) / c is an integer, so steering reduces to
picking the operating frequency that lands p on (or closest to) an
integer inside the tunable band.  Where no integer is reachable the band
lies inside one period of the Dirichlet kernel, and the best point is a
band edge or one of that period's sidelobe tops; the tops depend on the
element count only, so they are found once per call by Newton's method.
The waveguide design rules choose the refractive index and element
spacing so an integer p is reachable for every angle of a target sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import dirichlet_of_p
from .core_model import CONSTANTS, DmaDesign
from .errors import DomainError, NoCrossoverError

# Tolerance of a sidelobe top, in p units: the last Newton step stays
# below it.  bench/checks.py imports it under this name for its f_star
# tolerance.
GOLDEN_TOL = 1e-12
NEWTON_STEPS = 6     # Newton steps per sidelobe top, from the lobe middle


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


def _sidelobe_tops(n: int):
    """Tops x_j of the sidelobes j = 1 ... N-2 of |D_N| in (0, 1), in
    increasing order, and their heights |D_N(x_j)|.

    Each top is the one root in its lobe (j/N, (j+1)/N) of
    h = N cos(pi N x) sin(pi x) - sin(pi N x) cos(pi x), whose derivative
    pi (1 - N^2) sin(pi N x) sin(pi x) keeps one sign there, found by
    NEWTON_STEPS Newton steps from the lobe middle.  Only the lobes below
    1/2 are solved; the others are their mirrors x -> 1 - x with the same
    height (bit for bit), and an odd N adds the top at 1/2.
    """
    x = (np.arange(1, n // 2) + 0.5) / n
    for _ in range(NEWTON_STEPS):
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        sn, cn = np.sin(np.pi * n * x), np.cos(np.pi * n * x)
        x = x - (n * cn * s - sn * c) / (np.pi * (1 - n * n) * sn * s)
    middle = [0.5] if n % 2 and n > 1 else []
    heights = np.abs(dirichlet_of_p(np.concatenate([x, middle]), n))
    tops = np.concatenate([x, middle, 1.0 - x[::-1]])
    return tops, np.concatenate([heights, heights[:x.size][::-1]])


def optimal_operating_freq(design: DmaDesign, phi) -> OperatingPoint:
    """Best operating frequency in [f_min, f_max] for the given angle.

    If an integer p is reachable the gain hits N^2 exactly (smallest such
    integer wins when several are reachable).  Where n_g + sin(phi) = 0,
    p = 0 at every frequency, an integer, and f_min is chosen.  Otherwise
    the band lies inside one period (m, m + 1), m = floor(p_min), and
    |D_N| peaks at a band edge or at one of that period's sidelobe tops
    m + x_j.  The tops fall toward m + 1/2, so only the first and last
    top inside the band can win.  The candidates are the lower edge,
    those two tops and the upper edge, in increasing p, and the first
    largest wins: of two mirrored tops of equal height, the lower.

    A scalar ``phi`` gives float fields and a bool ``integer_case``.  A
    1-d array gives arrays with one entry per angle, each equal to the
    scalar call's.
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
        # No integer lies in [lo, hi], so the band sits inside one period
        # (m, m + 1) and lo - m, hi - m are exact.
        m = np.floor(lo)
        r_lo, r_hi = lo - m, hi - m
        tops, heights = _sidelobe_tops(n)
        first = np.searchsorted(tops, r_lo, side="right")
        last = np.searchsorted(tops, r_hi, side="left") - 1
        # Index tops.size stands for "no top in the band" and never wins.
        none = first > last
        first[none] = last[none] = tops.size
        tops, heights = np.append(tops, np.nan), np.append(heights, -np.inf)
        edges = np.abs(dirichlet_of_p(np.concatenate([lo, hi]), n)).reshape(2, -1)
        # Candidates in increasing p; argmax keeps the first largest.
        r = np.stack([r_lo, tops[first], tops[last], r_hi])
        values = np.stack([edges[0], heights[first], heights[last], edges[1]])
        best = np.argmax(values, axis=0)
        cols = np.arange(lo.size)
        p_star[off] = m + r[best, cols]
        # float_power rounds like the scalar float ** of a Python float;
        # an array ** 2 squares, which can differ in the last bit.
        gain[off] = np.float_power(n + values[best, cols], 2) / 4.0
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
