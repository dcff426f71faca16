"""Stacked-DMA planar array and single-shot beam training.

N_z identical waveguides are stacked along z; the receiver sits in the
xy-plane, so the waveguides add coherently and the azimuth response of
the whole array is N_z^2 times that of a single waveguide.

Training probes L angular sectors at once: the waveguides are split into
L groups, each group resonant at the operating frequency of one sector,
and a single wideband pilot symbol reveals via its strongest subcarrier
which sector the receiver occupies.  The frequency-to-angle map is then
inverted to estimate the angle of departure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .channel import dirichlet_of_p
from .core_model import CONSTANTS, DmaDesign, ResonantConfig
from .errors import (CoverageInfeasibleError, DomainError,
                     InvalidEstimateError)
from .frequency_planner import optimal_operating_freq
from .gain_optimizer import configured_gain

DEFAULT_PILOT_COUNT = 256
WIDTH_RESOLUTION = 1e-3    # quantization of the mainlobe half-width
MAX_SECTORS = 256


@dataclass(frozen=True)
class ArrayLayout:
    """Planar array of identical waveguides with a training group count."""

    n_dmas: int
    per_dma: DmaDesign
    groups: int

    def __post_init__(self):
        if self.n_dmas < 1:
            raise DomainError("n_dmas must be >= 1")
        if self.groups < 1 or self.n_dmas % self.groups != 0:
            raise DomainError("groups must divide n_dmas")

    @property
    def group_size(self) -> int:
        return self.n_dmas // self.groups


@dataclass(frozen=True)
class Codebook:
    """Training codebook: one (angle, operating frequency) pair per sector.

    ``psi_delta`` is the mainlobe half-width actually used for sector
    spacing (quantized, see build_codebook) and ``delta`` the gain
    fraction that this width guarantees across the covered range.
    """

    sector_angles: np.ndarray
    sector_freqs: np.ndarray
    delta: float
    psi_delta: float

    def __post_init__(self):
        ang = np.asarray(self.sector_angles, dtype=float)
        frq = np.asarray(self.sector_freqs, dtype=float)
        object.__setattr__(self, "sector_angles", ang)
        object.__setattr__(self, "sector_freqs", frq)
        if ang.size != frq.size or ang.size == 0:
            raise DomainError("angles and frequencies must pair up")
        if ang.size > 1 and not np.all(np.diff(ang) > 0):
            raise DomainError("sector angles must increase")
        if frq.size > 1 and not np.all(np.diff(frq) < 0):
            raise DomainError("sector frequencies must decrease")

    def __len__(self) -> int:
        return self.sector_angles.size


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of one single-shot probe."""

    k_star: int
    f_k_star: float
    phi_hat: float
    gain_at_estimate: float


def array_gain_dma(layout: ArrayLayout, per_dma_configs: Sequence[ResonantConfig],
                   phi: float, f, with_attenuation: bool = False):
    """Array gain |sum_m f_dma,m(f)^T h(phi, f)|^2 over all waveguides.

    A scalar ``f`` gives a float, a 1-d ``f`` one gain per frequency.
    """
    if len(per_dma_configs) != layout.n_dmas:
        raise DomainError(
            f"need {layout.n_dmas} configs, got {len(per_dma_configs)}")
    res = np.stack([cfg.f_r for cfg in per_dma_configs])
    return configured_gain(layout.per_dma, res, phi, f, with_attenuation)


def training_config(layout: ArrayLayout, codebook: Codebook) -> List[ResonantConfig]:
    """Per-waveguide resonances for training: group l tuned to sector l."""
    if len(codebook) != layout.groups:
        raise DomainError(
            f"codebook has {len(codebook)} sectors for {layout.groups} groups")
    configs = []
    n_y = layout.per_dma.n_elements
    for m in range(layout.n_dmas):
        sector = m // layout.group_size
        configs.append(ResonantConfig(np.full(n_y, codebook.sector_freqs[sector])))
    return configs


def pilot_grid(design: DmaDesign, k_tr: int = DEFAULT_PILOT_COUNT,
               include: Optional[Sequence[float]] = None) -> np.ndarray:
    """Uniform pilot subcarriers over the tunable band, endpoints included.

    ``include`` merges extra frequencies (typically the codebook's sector
    frequencies) into the grid so the probe can land on them exactly.
    """
    if k_tr < 2:
        raise DomainError("k_tr must be >= 2")
    grid = np.linspace(design.f_min, design.f_max, k_tr)
    if include is not None:
        grid = np.unique(np.concatenate([grid, np.asarray(include, dtype=float)]))
    return grid


def probe(layout: ArrayLayout, codebook: Codebook, phi_true: float,
          pilot: np.ndarray) -> TrainingResult:
    """Single-shot training: strongest pilot subcarrier -> angle estimate.

    The measurement model is noise-free and feedback is a single integer;
    ties resolve to the lowest subcarrier index.
    """
    pilot = np.asarray(pilot, dtype=float)
    if pilot.size == 0:
        raise DomainError("pilot grid is empty")
    design = layout.per_dma
    configs = training_config(layout, codebook)
    gains = array_gain_dma(layout, configs, phi_true, pilot)
    k_star = int(np.argmax(gains))
    f_k = float(pilot[k_star])
    arg = CONSTANTS.c / (design.spacing * f_k) - design.refractive_index
    if not -1.0 <= arg <= 1.0:
        raise InvalidEstimateError(
            f"subcarrier {f_k:.4g} Hz maps outside the visible region")
    phi_hat = float(np.arcsin(arg))
    return TrainingResult(
        k_star=k_star,
        f_k_star=f_k,
        phi_hat=phi_hat,
        gain_at_estimate=gain_at_estimate(layout, phi_true, phi_hat),
    )


def gain_at_estimate(layout: ArrayLayout, phi_true: float, phi_hat: float) -> float:
    """Array gain after retuning every waveguide to the estimated angle.

    N_z^2 D_{N_y}(Psi)^2 with Psi = (n_g + sin phi) / (n_g + sin phi_hat);
    equals the full N_z^2 N_y^2 exactly when the estimate is perfect.
    """
    n_g = layout.per_dma.refractive_index
    psi = (n_g + np.sin(phi_true)) / (n_g + np.sin(phi_hat))
    d = dirichlet_of_p(psi, layout.per_dma.n_elements)
    return float(layout.n_dmas ** 2 * d ** 2)


def psi_delta(n_y: int, delta: float) -> float:
    """Half-width of the Dirichlet mainlobe above the fraction delta.

    Solves (sin(pi N x) / sin(pi x))^2 = delta N^2 on the monotone flank
    x in (0, 1/N) by bisection.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie strictly between 0 and 1")
    if n_y < 2:
        raise DomainError("need at least 2 elements for a mainlobe width")

    # Imported here: scipy.optimize dominates the package import time.
    from scipy.optimize import brentq

    def excess(x):
        return dirichlet_of_p(x, n_y) ** 2 - delta * n_y ** 2

    return float(brentq(excess, 1e-12, 1.0 / n_y - 1e-12, xtol=1e-15))


def allowed_estimate_interval(phi_true: float, n_g_star: float,
                              psi_delta_val: float):
    """Estimate interval keeping the retuned gain above the delta fraction.

    [arcsin((n_g + sin phi)/(1 + Psi_d) - n_g),
     arcsin((n_g + sin phi)/(1 - Psi_d) - n_g)]
    """
    base = n_g_star + np.sin(phi_true)
    lo = base / (1.0 + psi_delta_val) - n_g_star
    hi = base / (1.0 - psi_delta_val) - n_g_star
    if not (-1.0 <= lo <= 1.0 and -1.0 <= hi <= 1.0):
        raise DomainError("allowed estimates leave the visible region at this angle")
    return float(np.arcsin(lo)), float(np.arcsin(hi))


def build_codebook(layout: ArrayLayout, phi_max: float, delta: float,
                   width_resolution: float = WIDTH_RESOLUTION,
                   n_sectors: Optional[int] = None) -> Codebook:
    """Sequential sector placement covering [-phi_max, phi_max].

    The first sector angle puts the lower edge of its allowed-estimate
    interval at -phi_max; each further angle abuts its predecessor's
    interval; construction stops once the interval of the last sector
    reaches +phi_max.

    The mainlobe half-width is quantized to ``width_resolution`` before
    use (pass None to disable).  The stored ``delta`` is recomputed from
    the quantized width so the codebook's guarantee is self-consistent.
    """
    design = layout.per_dma
    if not 0.0 < phi_max < np.pi / 2.0:
        raise DomainError("phi_max must lie in (0, pi/2)")
    width = psi_delta(design.n_elements, delta)
    if width_resolution is not None:
        width = round(width / width_resolution) * width_resolution
    if width <= 0:
        raise CoverageInfeasibleError("delta is too strict: zero sector width")
    n_g = design.refractive_index
    s_max = np.sin(phi_max)

    s1 = (np.sin(-phi_max) + n_g) * (1.0 + width) - n_g
    angles = [float(np.arcsin(min(s1, s_max)))]
    while (np.sin(angles[-1]) + n_g) / (1.0 - width) - n_g < s_max:
        s_next = (np.sin(angles[-1]) + n_g) * (1.0 + width) / (1.0 - width) - n_g
        if s_next > 1.0 or len(angles) >= MAX_SECTORS:
            raise CoverageInfeasibleError(
                f"cannot cover ±{np.degrees(phi_max):.2f} deg at delta={delta:g}")
        angles.append(float(np.arcsin(min(s_next, s_max))))
    if n_sectors is not None and len(angles) != n_sectors:
        raise CoverageInfeasibleError(
            f"construction needs {len(angles)} sectors, caller pinned {n_sectors}")
    sector_angles = np.array(angles)
    effective = dirichlet_of_p(width, design.n_elements) ** 2 / design.n_elements ** 2
    return Codebook(
        sector_angles=sector_angles,
        sector_freqs=optimal_operating_freq(design, sector_angles).f_t_star,
        delta=float(effective),
        psi_delta=float(width),
    )
