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
from typing import Optional, Sequence

import numpy as np

from .channel import dirichlet_of_p
from .core_model import CONSTANTS, DmaDesign
from .errors import (CoverageInfeasibleError, DomainError,
                     InvalidEstimateError)
from .frequency_planner import optimal_operating_freq
from .gain_optimizer import configured_gain

DEFAULT_PILOT_COUNT = 256
WIDTH_RESOLUTION = 1e-3    # quantization of the mainlobe half-width
MAX_SECTORS = 256


@dataclass(frozen=True)
class ArrayLayout:
    """Planar array of n_dmas identical waveguides."""

    n_dmas: int
    per_dma: DmaDesign

    def __post_init__(self):
        if self.n_dmas < 1:
            raise DomainError("n_dmas must be >= 1")


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
    """Outcome of one single-shot probe, or arrays of one per angle."""

    k_star: int | np.ndarray
    f_k_star: float | np.ndarray
    phi_hat: float | np.ndarray
    gain_at_estimate: float | np.ndarray


def array_gain_dma(layout: ArrayLayout, resonances, phi, f):
    """Array gain |sum_m f_dma,m(f)^T h(phi, f)|^2 over all waveguides.

    ``resonances`` is an (..., n_dmas, N) array, one row per waveguide,
    broadcasting as in configured_gain.
    """
    res = np.asarray(resonances, dtype=float)
    if res.ndim < 2 or res.shape[-2] != layout.n_dmas:
        raise DomainError(f"need {layout.n_dmas} waveguide rows of "
                          f"resonances, got shape {res.shape}")
    return configured_gain(layout.per_dma, res, phi, f)


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


def probe(layout: ArrayLayout, codebook: Codebook, phi_true,
          pilot: np.ndarray) -> TrainingResult:
    """Single-shot training: strongest pilot subcarrier -> angle estimate.

    Group l of n_dmas / len(codebook) waveguides resonates all its elements
    at sector l's frequency.  The measurement model is noise-free and
    feedback is a single integer; ties resolve to the lowest subcarrier
    index.  A 1-d ``phi_true`` is probed in one array gain evaluation,
    each angle as by a scalar call.
    """
    pilot = np.asarray(pilot, dtype=float)
    if pilot.size == 0:
        raise DomainError("pilot grid is empty")
    if layout.n_dmas % len(codebook):
        raise DomainError(f"{len(codebook)} sectors do not split "
                          f"{layout.n_dmas} waveguides into equal groups")
    design = layout.per_dma
    phis = np.asarray(phi_true, dtype=float)
    tones = np.repeat(codebook.sector_freqs, layout.n_dmas // len(codebook))
    training = np.broadcast_to(tones[:, None],
                               (layout.n_dmas, design.n_elements))
    gains = array_gain_dma(layout, training, phis[..., None], pilot)
    k_star = np.argmax(gains, axis=-1)       # the first of tied maxima
    f_k = pilot[k_star]
    arg = CONSTANTS.c / (design.spacing * f_k) - design.refractive_index
    visible = (-1.0 <= arg) & (arg <= 1.0)
    if not np.all(visible):
        raise InvalidEstimateError(
            f"subcarrier {np.extract(~visible, f_k)[0]:.4g} Hz maps outside "
            f"the visible region")
    phi_hat = np.arcsin(arg)
    if phis.ndim == 0:
        k_star, f_k, phi_hat = int(k_star), float(f_k), float(phi_hat)
    return TrainingResult(k_star=k_star, f_k_star=f_k, phi_hat=phi_hat,
                          gain_at_estimate=gain_at_estimate(layout, phis, phi_hat))


def gain_at_estimate(layout: ArrayLayout, phi_true, phi_hat):
    """Array gain after retuning every waveguide to the estimated angle.

    N_z^2 D_{N_y}(Psi)^2 with Psi = (n_g + sin phi) / (n_g + sin phi_hat);
    equals the full N_z^2 N_y^2 exactly when the estimate is perfect.
    """
    n_g = layout.per_dma.refractive_index
    psi = (n_g + np.sin(phi_true)) / (n_g + np.sin(phi_hat))
    d = dirichlet_of_p(psi, layout.per_dma.n_elements)
    # float_power rounds like the scalar Python **; an array ** 2 squares.
    out = layout.n_dmas ** 2 * np.float_power(d, 2)
    return float(out) if np.ndim(out) == 0 else out


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


def build_codebook(design: DmaDesign, phi_lower: float, phi_upper: float,
                   delta: float) -> Codebook:
    """Sequential sector placement covering [phi_lower, phi_upper].

    A sector at angle phi serves the estimates whose retuned gain keeps
    the delta fraction, the allowed-estimate interval
    [arcsin((n_g + sin phi) / (1 + Psi_d) - n_g),
     arcsin((n_g + sin phi) / (1 - Psi_d) - n_g)].
    The first sector angle puts the lower edge of its interval at
    phi_lower; each further angle abuts its predecessor's interval;
    construction stops once the interval of the last sector reaches
    phi_upper.

    The mainlobe half-width Psi_d is quantized to WIDTH_RESOLUTION before
    use.  The stored ``delta`` is recomputed from the quantized width so
    the codebook's guarantee is self-consistent.  Raises
    CoverageInfeasibleError when the sector frequencies do not decrease
    with the angle, so that no probe can tell two sectors apart, and
    for a waveguide of fewer than 2 elements, whose gain has no mainlobe
    to place sectors by.
    """
    if not -np.pi / 2.0 < phi_lower < phi_upper < np.pi / 2.0:
        raise DomainError("need -pi/2 < phi_lower < phi_upper < pi/2")
    if design.n_elements < 2:
        raise CoverageInfeasibleError(
            f"a waveguide of design.n_y = {design.n_elements} element has "
            f"no mainlobe to place codebook sectors by: training needs at "
            f"least 2")
    width = psi_delta(design.n_elements, delta)
    width = round(width / WIDTH_RESOLUTION) * WIDTH_RESOLUTION
    if width <= 0:
        raise CoverageInfeasibleError("delta is too strict: zero sector width")
    n_g = design.refractive_index
    s_max = np.sin(phi_upper)

    s1 = (np.sin(phi_lower) + n_g) * (1.0 + width) - n_g
    angles = [float(np.arcsin(min(s1, s_max)))]
    while (np.sin(angles[-1]) + n_g) / (1.0 - width) - n_g < s_max:
        s_next = (np.sin(angles[-1]) + n_g) * (1.0 + width) / (1.0 - width) - n_g
        if s_next > 1.0 or len(angles) >= MAX_SECTORS:
            raise CoverageInfeasibleError(
                f"cannot cover {np.degrees(phi_lower):.2f} to "
                f"{np.degrees(phi_upper):.2f} deg at delta={delta:g}")
        angles.append(float(np.arcsin(min(s_next, s_max))))
    sector_angles = np.array(angles)
    freqs = optimal_operating_freq(design, sector_angles).f_t_star
    rising = np.flatnonzero(np.diff(freqs) >= 0)
    if rising.size:
        k = int(rising[0])
        raise CoverageInfeasibleError(
            f"sectors {k + 1} and {k + 2} ({np.degrees(angles[k]):.2f} and "
            f"{np.degrees(angles[k + 1]):.2f} deg) get operating frequencies "
            f"{freqs[k] / 1e9:.4g} and {freqs[k + 1] / 1e9:.4g} GHz, which "
            f"do not decrease: the design cannot steer the sector by "
            f"frequency")
    effective = dirichlet_of_p(width, design.n_elements) ** 2 / design.n_elements ** 2
    return Codebook(
        sector_angles=sector_angles,
        sector_freqs=freqs,
        delta=float(effective),
        psi_delta=float(width),
    )


def training_layout(design: DmaDesign, n_dmas: int, phi_lower: float,
                    phi_upper: float, delta: float,
                    n_sectors: Optional[int] = None):
    """(ArrayLayout, Codebook): the codebook covering [phi_lower, phi_upper];
    its sectors must divide n_dmas and number ``n_sectors`` if given."""
    codebook = build_codebook(design, phi_lower, phi_upper, delta)
    if n_sectors is not None and len(codebook) != n_sectors:
        raise CoverageInfeasibleError(
            f"construction needs {len(codebook)} sectors, caller pinned {n_sectors}")
    if n_dmas % len(codebook):
        raise CoverageInfeasibleError(
            f"the codebook needs {len(codebook)} sectors, one training group "
            f"each, and they do not divide design.n_z = {n_dmas}")
    return ArrayLayout(n_dmas=n_dmas, per_dma=design), codebook
