"""Link budget and OFDM achievable rate for the DMA array.

The transmitter spreads power P uniformly over a band of width B around
an operating frequency (flat PSD P/B, K_d subcarriers); the receiver at
distance r sees thermal noise k_B T.  Rates are Shannon sums over the
subcarrier SNRs.

Four configuration strategies are compared:

* ``ttd``     — true-time-delay array, squint-free full gain at every
                subcarrier (upper benchmark);
* ``perfect`` — DMA retuned per angle at its optimal operating frequency;
* ``trained`` — DMA retuned from a single-shot probe of the codebook's
                sector frequencies (estimated angle, estimated band);
* ``fixed``   — DMA retuned per angle but stuck at the band-center
                operating frequency (lower benchmark).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import List, Sequence

import numpy as np

from .array_training import (ArrayLayout, Codebook, array_gain_dma, probe,
                             training_layout)
# Kept as a module binding: the benchmark's tracer tests use it as a fixture.
from .channel import combined_phases  # noqa: F401
from .core_model import CONSTANTS, DmaDesign
from .errors import CoverageInfeasibleError, DomainError
from .frequency_planner import (design_sector, max_coverage_angle,
                                optimal_operating_freq)
from .gain_optimizer import solve_p1a


@dataclass(frozen=True)
class LinkBudget:
    """Transmit and noise parameters.  The band center is not one of them:
    each strategy centers its band on its own operating frequency, so the
    rate functions take the center as an argument."""

    tx_power: float
    distance: float
    noise_temp: float
    bandwidth: float
    n_subcarriers: int

    def __post_init__(self):
        for name in ("tx_power", "distance", "noise_temp", "bandwidth"):
            if np.any(np.asarray(getattr(self, name)) <= 0):
                raise DomainError(f"{name} must be positive")
        if self.n_subcarriers < 1:
            raise DomainError("n_subcarriers must be >= 1")


@dataclass(frozen=True)
class RateComparison:
    """Rates (bits/s) of the four strategies at one or more angles."""

    fixed: float | np.ndarray
    trained: float | np.ndarray
    perfect: float | np.ndarray
    ttd: float | np.ndarray


@dataclass(frozen=True)
class TuningRangePoint:
    """One entry of a tuning-range sweep: redesigned array plus its rates."""

    tuning_range: float
    phi_max: float
    n_sectors: int
    rates: RateComparison


def _band_centers(budget: LinkBudget, center) -> np.ndarray:
    """``center`` with a trailing subcarrier axis; a band may not reach
    zero frequency."""
    center = np.expand_dims(np.asarray(center, dtype=float), -1)
    if np.any(center - budget.bandwidth / 2.0 <= 0):
        raise DomainError(f"a {budget.bandwidth:g} Hz band extends below zero "
                          "frequency (budget.bandwidth, sweep.bandwidths)")
    return center


def subcarrier_grid(budget: LinkBudget, center) -> np.ndarray:
    """Subcarriers center - B/2 + (k - 1/2) B/K_d, a row per center."""
    k = np.arange(1, budget.n_subcarriers + 1)
    return _band_centers(budget, center) - budget.bandwidth / 2.0 \
        + (k - 0.5) * budget.bandwidth / budget.n_subcarriers


def received_psd(budget: LinkBudget, gain, f):
    """Received power spectral density (lambda/4 pi r)^2 (P/B) G in W/Hz.

    Accepts scalars or matching arrays of gain and frequency.
    """
    gain = np.asarray(gain, dtype=float)
    if np.any(gain < 0):
        raise DomainError("gain must be non-negative")
    lam = CONSTANTS.c / np.asarray(f, dtype=float)
    out = (lam / (4.0 * np.pi * budget.distance)) ** 2 \
        * (budget.tx_power / budget.bandwidth) * gain
    return float(out) if out.ndim == 0 else out


def _rate(budget: LinkBudget, gain, f):
    """(B/K_d) sum_k log2(1 + SNR_k) over the subcarriers f, the last axis."""
    snr = received_psd(budget, gain, f) / (CONSTANTS.k_B * budget.noise_temp)
    rate = budget.bandwidth / budget.n_subcarriers \
        * np.sum(np.log2(1.0 + snr), axis=-1)
    return float(rate) if rate.ndim == 0 else rate


def achievable_rate(budget: LinkBudget, layout: ArrayLayout, resonances,
                    phi, center):
    """Sum rate in bits/s for a fixed DMA configuration: a float, or an
    array over the leading axes of the arguments.

    The band is centered on ``center``.  The configuration stays as given
    across the whole band, so the gain rolls off away from the frequency
    it was tuned for.  ``phi`` and the (..., N) resonances, one
    configuration for every waveguide, broadcast against the subcarrier
    grid as in array_gain_dma, and the rate sums over its last axis.
    """
    grid = subcarrier_grid(budget, center)
    return _rate(budget, array_gain_dma(layout, resonances, phi, grid), grid)


def rate_ttd(budget: LinkBudget, layout: ArrayLayout, center):
    """Rate in bits/s of a true-time-delay array with the same aperture.

    Matched delays put the full gain (N_y N_z)^2 on every subcarrier for
    any angle, so the SNR is flat across the band (evaluated at the band
    center, or at each center of an array of them).
    """
    gain = np.full(budget.n_subcarriers, (layout.per_dma.n_elements * layout.n_dmas) ** 2)
    return _rate(budget, gain, _band_centers(budget, center))


def _tunings(layout: ArrayLayout, codebook: Codebook, grid: np.ndarray):
    """The fixed, trained and perfect solutions over a 1-d angle grid.

    They depend on the angles, the array and the codebook, not on the
    link budget.  An angle infeasible for a strategy is a NaN row of its
    solution.
    """
    design = layout.per_dma
    f_star = optimal_operating_freq(design, grid).f_t_star
    perfect = solve_p1a(design, grid, f_star)
    probed = probe(layout, codebook, grid, np.sort(codebook.sector_freqs))
    trained = solve_p1a(design, probed.phi_hat, probed.f_k_star)
    f_c = 0.5 * (design.f_min + design.f_max)
    fixed = solve_p1a(design, grid, f_c)
    return fixed, trained, perfect


def _rates(layout: ArrayLayout, budget: LinkBudget, grid: np.ndarray,
           tunings) -> RateComparison:
    """Rates of the four strategies at each angle of ``grid``, from the
    solutions of _tunings over the same grid."""

    def rate(solution):     # angles on axis 0, subcarriers on axis 1
        return achievable_rate(budget, layout,
                               solution.resonances[:, None, :],
                               grid[:, None], solution.operating_freq)

    fixed, trained, perfect = tunings
    return RateComparison(
        fixed=rate(fixed), trained=rate(trained), perfect=rate(perfect),
        ttd=rate_ttd(budget, layout, perfect.operating_freq))


def _angle_mean(rates: RateComparison) -> RateComparison:
    # cumsum adds left to right, as a loop would; np.mean pairs terms.
    return RateComparison(*(np.cumsum(r)[-1] / r.size for r in astuple(rates)))


def compare_rates(layout: ArrayLayout, codebook: Codebook, phi,
                  budget: LinkBudget) -> RateComparison:
    """Evaluate all four strategies at one angle or a 1-d array of angles.

    Each DMA strategy re-centers the band on its own operating frequency;
    the TTD benchmark uses the same band placement as the perfect-AoD
    strategy.  A 1-d ``phi`` solves every strategy for all angles at once.
    A strategy's rate is NaN at an angle where it is infeasible.
    """
    grid = np.reshape(np.asarray(phi, dtype=float), -1)
    rates = _rates(layout, budget, grid, _tunings(layout, codebook, grid))
    if np.ndim(phi):
        return rates
    return RateComparison(*(float(r[0]) for r in astuple(rates)))


def angle_grid(phi_lower: float, phi_upper: float,
               n_samples: int) -> np.ndarray:
    """Deterministic uniform angle samples, endpoints included."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    return np.linspace(phi_lower, phi_upper, n_samples)


def bandwidth_sweep(layout: ArrayLayout, codebook: Codebook,
                    budget: LinkBudget, bandwidths: Sequence[float],
                    phi_lower: float, phi_upper: float,
                    n_samples: int) -> List[RateComparison]:
    """Angle-averaged strategy rates for each bandwidth.

    Row i is the mean over angle_grid(phi_lower, phi_upper, n_samples)
    of compare_rates with the budget's bandwidth set to bandwidths[i]; a
    strategy infeasible at some angle averages to NaN.  The strategies'
    tunings do not depend on the bandwidth, so they are solved once for
    all rows.
    """
    grid = angle_grid(phi_lower, phi_upper, n_samples)
    tunings = _tunings(layout, codebook, grid)
    return [_angle_mean(_rates(layout, replace(budget, bandwidth=b), grid,
                               tunings))
            for b in bandwidths]


def tuning_range_sweep(template: DmaDesign, n_dmas: int, n_g_max: float,
                       delta: float, budget: LinkBudget,
                       tuning_ranges: Sequence[float],
                       n_samples: int) -> List[TuningRangePoint]:
    """Redesign the array for each tuning range and compare strategy rates.

    For each T_r the band is centered where the template's band is, the
    coverage sector is the widest the refractive-index budget allows, the
    spacing comes from the sector design rule, and the codebook is rebuilt.
    Averaging spans the redesigned sector itself.  Raises
    CoverageInfeasibleError when a tuning range saturates the coverage at
    90 deg, which no codebook can cover, before any range is computed.
    """
    f_c = 0.5 * (template.f_min + template.f_max)
    reach = [max_coverage_angle(n_g_max, t_r, f_c).angle
             for t_r in tuning_ranges]
    for t_r, phi_max in zip(tuning_ranges, reach):
        if phi_max >= np.pi / 2.0:   # saturated, or exactly on the boundary
            raise CoverageInfeasibleError(
                f"tuning range {t_r / 1e9:g} GHz with n_g_max = {n_g_max:g}: "
                f"coverage saturates at 90 deg, and no codebook covers "
                f"±90 deg")
    points = []
    for t_r, phi_max in zip(tuning_ranges, reach):
        f_min, f_max = f_c - t_r / 2.0, f_c + t_r / 2.0
        sector = design_sector(-phi_max, phi_max, f_min, f_max)
        design = replace(template, spacing=sector.d_y_star,
                         refractive_index=sector.n_g_star,
                         f_min=f_min, f_max=f_max)
        layout, codebook = training_layout(design, n_dmas, -phi_max, phi_max,
                                           delta)
        rates = _angle_mean(compare_rates(
            layout, codebook, angle_grid(-phi_max, phi_max, n_samples),
            budget))
        points.append(TuningRangePoint(tuning_range=t_r, phi_max=phi_max,
                                       n_sectors=len(codebook), rates=rates))
    return points
