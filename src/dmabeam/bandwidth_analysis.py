"""Frequency response of the optimally configured DMA.

With every element resonant at the operating frequency the gain
factorizes into an element term |w(f*, f)|^2 (a Lorentzian magnitude
response shared by all slots) and an array term S(phi, f)^2.  The
element term dominates the frequency roll-off and admits closed-form
cutoff frequencies for any relative threshold nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._brent import brentq
from .channel import dirichlet_kernel, normalized_product
from .core_model import DmaDesign, beamformer_weight
from .errors import DomainError, InfeasibleError

ARRAY_CUTOFF_TOL = 1e3   # Hz, root-finder tolerance for full-array cutoffs


@dataclass(frozen=True)
class CutoffReport:
    """Element-gain cutoff frequencies for one threshold nu."""

    f_lower: float
    f_upper: float
    bandwidth: float
    approx_bandwidth: float


def cutoff_frequencies(design: DmaDesign, f_t_star: float, nu: float) -> CutoffReport:
    """Exact nu-cutoff frequencies of the element gain.

    With rho = nu / (1 - nu):

        f_{l,u} = sqrt(f*^2 + (Gamma^2 -+ sqrt(Gamma^4 + 16 Gamma^2 pi^2
                  f*^2 rho)) / (8 pi^2 rho))

    The first-order width Gamma / (2 pi sqrt(rho)) is reported alongside;
    for this response shape it coincides with f_upper - f_lower because
    f_upper * f_lower = f*^2 holds identically.  Raises InfeasibleError when
    the closed form misses the threshold (floating-point breakdown).
    """
    if not 0.0 < nu < 1.0:
        raise DomainError("nu must lie strictly between 0 and 1")
    if f_t_star <= 0:
        raise DomainError("f_t_star must be positive")
    gam = design.damping
    rho = nu / (1.0 - nu)
    root = np.sqrt(gam**4 + 16.0 * gam**2 * np.pi**2 * f_t_star**2 * rho)
    f_lower = np.sqrt(f_t_star**2 + (gam**2 - root) / (8.0 * np.pi**2 * rho))
    f_upper = np.sqrt(f_t_star**2 + (gam**2 + root) / (8.0 * np.pi**2 * rho))
    for f_edge in (f_lower, f_upper):
        gain = abs(beamformer_weight(design, f_t_star, f_edge)) ** 2
        if abs(gain - nu) > 1e-8:
            raise InfeasibleError(
                f"cutoff closed form failed its own threshold check at "
                f"f_t_star = {f_t_star:.6g} Hz, nu = {nu:g}")
    return CutoffReport(
        f_lower=float(f_lower),
        f_upper=float(f_upper),
        bandwidth=float(f_upper - f_lower),
        approx_bandwidth=float(gam / (2.0 * np.pi * np.sqrt(rho))),
    )


def array_cutoff_frequencies(design: DmaDesign, phi: float, f_t_star: float,
                             nu: float) -> Tuple[float, float]:
    """First crossing of nu by the whole-DMA response on each side of f*.

    Brent's method, to ARRAY_CUTOFF_TOL, between f* and the nearer of the
    nearest null of D_N (p = k/N, N not dividing k) and the element cutoff
    for nu peak / N^2, past which D^2 <= N^2 keeps the response below nu.
    Where D_N is flat, an end whose response is not below nu is the cutoff.
    Raises InfeasibleError when the search meets a NaN response.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError("nu must lie strictly between 0 and 1")
    # A resonant weight is exactly -j, so the element factor peaks at 1.
    peak = dirichlet_kernel(design, phi, f_t_star) ** 2
    if peak <= 0:
        raise DomainError("array response vanishes at f_t_star; nothing to cut off")

    def excess(f):
        return abs(beamformer_weight(design, f_t_star, f)) ** 2 \
            * dirichlet_kernel(design, phi, f) ** 2 / peak - nu

    n = design.n_elements
    n_p = n * normalized_product(design, phi, f_t_star)  # p is linear in f
    k_lo, k_hi = math.ceil(n_p) - 1, math.floor(n_p) + 1
    k_lo -= k_lo % n == 0
    k_hi += k_hi % n == 0
    elem = cutoff_frequencies(design, f_t_star, nu * (peak / n ** 2))
    lo, hi = elem.f_lower, elem.f_upper
    if n > 1 and k_lo * f_t_star > n_p * lo:
        lo = f_t_star * k_lo / n_p
    if n > 1 and k_hi * f_t_star < n_p * hi:
        hi = f_t_star * k_hi / n_p
    try:
        f_lower = lo if excess(lo) >= 0 else brentq(
            excess, lo, f_t_star, xtol=ARRAY_CUTOFF_TOL)
        f_upper = hi if excess(hi) >= 0 else brentq(
            excess, f_t_star, hi, xtol=ARRAY_CUTOFF_TOL)
    except ValueError as err:
        raise InfeasibleError(
            f"no array cutoff inside the search bracket at "
            f"f_t_star = {f_t_star:.6g} Hz, nu = {nu:g}: {err}") from err
    return float(f_lower), float(f_upper)
