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

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from .array_training import (ArrayLayout, Codebook, array_gain_dma,
                             build_codebook, probe)
# Kept as a module binding: the benchmark's tracer tests use it as a fixture.
from .channel import combined_phases  # noqa: F401
from .core_model import CONSTANTS, DmaDesign
from .errors import CoverageInfeasibleError, DomainError
from .frequency_planner import (design_sector, max_coverage_angle,
                                optimal_operating_freq)
from .gain_optimizer import solve_p1a

DEFAULT_ANGLE_SAMPLES = 181


@dataclass(frozen=True)
class LinkBudget:
    """Transmit/noise parameters for one OFDM band placement."""

    tx_power: float
    distance: float
    noise_temp: float
    bandwidth: float
    n_subcarriers: int
    center: float

    def __post_init__(self):
        for name in ("tx_power", "distance", "noise_temp", "bandwidth", "center"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.n_subcarriers < 1:
            raise DomainError("n_subcarriers must be >= 1")
        if self.center - self.bandwidth / 2.0 <= 0:
            raise DomainError("band extends below zero frequency")


@dataclass(frozen=True)
class RateReport:
    """Achievable rate in bits/s with the per-subcarrier SNR breakdown."""

    rate: float
    per_subcarrier_snr: np.ndarray


@dataclass(frozen=True)
class RateComparison:
    """Rates (bits/s) of the four strategies at one sweep point."""

    fixed: float
    trained: float
    perfect: float
    ttd: float


@dataclass(frozen=True)
class TuningRangePoint:
    """One entry of a tuning-range sweep: redesigned array plus its rates."""

    tuning_range: float
    phi_max: float
    n_sectors: int
    rates: RateComparison


def subcarrier_grid(budget: LinkBudget) -> np.ndarray:
    """Centered subcarrier frequencies f_t - B/2 + (k - 1/2) B/K_d."""
    k = np.arange(1, budget.n_subcarriers + 1)
    return budget.center - budget.bandwidth / 2.0 \
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


def _report(budget: LinkBudget, snr: np.ndarray) -> RateReport:
    rate = budget.bandwidth / budget.n_subcarriers * np.sum(np.log2(1.0 + snr))
    return RateReport(rate=float(rate), per_subcarrier_snr=snr)


def achievable_rate(budget: LinkBudget, layout: ArrayLayout,
                    per_dma_configs, phi: float) -> RateReport:
    """Sum rate (B/K_d) sum_k log2(1 + SNR_k) for a fixed DMA configuration.

    The configuration stays as given across the whole band, so the gain
    rolls off away from the frequency it was tuned for.
    """
    grid = subcarrier_grid(budget)
    gains = array_gain_dma(layout, per_dma_configs, phi, grid)
    snr = received_psd(budget, gains, grid) / (CONSTANTS.k_B * budget.noise_temp)
    return _report(budget, snr)


def rate_ttd(budget: LinkBudget, layout: ArrayLayout, phi: float) -> RateReport:
    """Rate of a true-time-delay array with the same aperture.

    Matched delays put the full gain (N_y N_z)^2 on every subcarrier for
    any angle, so the SNR is flat across the band (evaluated at the band
    center).
    """
    gain = (layout.per_dma.n_elements * layout.n_dmas) ** 2
    snr_flat = received_psd(budget, gain, budget.center) \
        / (CONSTANTS.k_B * budget.noise_temp)
    return _report(budget, np.full(budget.n_subcarriers, snr_flat))


def _replicated(layout: ArrayLayout, config) -> List:
    return [config] * layout.n_dmas


def _angle_tunings(layout: ArrayLayout, codebook: Codebook, phi: float,
                   f_star: float):
    """Band center and resonances of each DMA strategy at one angle.

    ``f_star`` is the planner's operating frequency at ``phi``.  Returns
    (center, ResonantConfig) pairs for the perfect, trained and fixed
    strategies.  None of them depends on the link budget, so a sweep over
    budgets computes them once per angle.
    """
    design = layout.per_dma
    perfect = (f_star, solve_p1a(design, phi, f_star).resonant)

    result = probe(layout, codebook, phi, np.sort(codebook.sector_freqs))
    trained = (result.f_k_star,
               solve_p1a(design, result.phi_hat, result.f_k_star).resonant)

    f_c = 0.5 * (design.f_min + design.f_max)
    fixed = (f_c, solve_p1a(design, phi, f_c).resonant)
    return perfect, trained, fixed


def _rates_at(layout: ArrayLayout, phi: float, tunings,
              budget: LinkBudget) -> RateComparison:
    """Strategy rates at one angle for precomputed _angle_tunings."""

    def rate(tuning):
        center, cfg = tuning
        return achievable_rate(replace(budget, center=center), layout,
                               _replicated(layout, cfg), phi).rate

    perfect, trained, fixed = tunings
    return RateComparison(
        fixed=rate(fixed), trained=rate(trained), perfect=rate(perfect),
        ttd=rate_ttd(replace(budget, center=perfect[0]), layout, phi).rate)


def compare_rates(layout: ArrayLayout, codebook: Codebook, phi: float,
                  budget: LinkBudget) -> RateComparison:
    """Evaluate all four strategies at one angle.

    Each DMA strategy re-centers the band on its own operating frequency;
    the TTD benchmark uses the same band placement as the perfect-AoD
    strategy.
    """
    f_star = optimal_operating_freq(layout.per_dma, phi).f_t_star
    return _rates_at(layout, phi, _angle_tunings(layout, codebook, phi, f_star),
                     budget)


def _mean(comparisons: Sequence[RateComparison]) -> RateComparison:
    acc = np.zeros(4)
    for r in comparisons:
        acc += (r.fixed, r.trained, r.perfect, r.ttd)
    acc /= len(comparisons)
    return RateComparison(fixed=acc[0], trained=acc[1],
                          perfect=acc[2], ttd=acc[3])


def angle_grid(phi_lower: float, phi_upper: float,
               n_samples: int = DEFAULT_ANGLE_SAMPLES) -> np.ndarray:
    """Deterministic uniform angle samples, endpoints included."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    return np.linspace(phi_lower, phi_upper, n_samples)


def average_rates(layout: ArrayLayout, codebook: Codebook, budget: LinkBudget,
                  phi_lower: float, phi_upper: float,
                  n_samples: int = DEFAULT_ANGLE_SAMPLES) -> RateComparison:
    """Strategy rates averaged over a deterministic uniform angle grid."""
    return _mean([compare_rates(layout, codebook, phi, budget)
                  for phi in angle_grid(phi_lower, phi_upper, n_samples)])


def bandwidth_sweep(layout: ArrayLayout, codebook: Codebook,
                    budget: LinkBudget, bandwidths: Sequence[float],
                    phi_lower: float, phi_upper: float,
                    n_samples: int = DEFAULT_ANGLE_SAMPLES) -> List[RateComparison]:
    """Angle-averaged strategy rates for each bandwidth.

    Row i equals average_rates with the budget's bandwidth set to
    bandwidths[i]; the per-angle tunings are computed once for all rows.
    """
    grid = angle_grid(phi_lower, phi_upper, n_samples)
    f_stars = optimal_operating_freq(layout.per_dma, grid).f_t_star
    tunings = [_angle_tunings(layout, codebook, phi, f_star)
               for phi, f_star in zip(grid, f_stars.tolist())]
    rows = []
    for b in bandwidths:
        b_budget = replace(budget, bandwidth=b)
        rows.append(_mean([_rates_at(layout, phi, t, b_budget)
                           for phi, t in zip(grid, tunings)]))
    return rows


def tuning_range_sweep(template: DmaDesign, n_dmas: int, n_g_max: float,
                       delta: float, budget: LinkBudget,
                       tuning_ranges: Sequence[float],
                       n_samples: int = DEFAULT_ANGLE_SAMPLES) -> List[TuningRangePoint]:
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
        seed = ArrayLayout(n_dmas=n_dmas, per_dma=design, groups=1)
        codebook = build_codebook(seed, phi_max, delta)
        layout = ArrayLayout(n_dmas=n_dmas, per_dma=design,
                             groups=len(codebook))
        rates = average_rates(layout, codebook, budget,
                              -phi_max, phi_max, n_samples)
        points.append(TuningRangePoint(tuning_range=t_r, phi_max=phi_max,
                                       n_sectors=len(codebook), rates=rates))
    return points
