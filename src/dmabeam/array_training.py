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

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._brent import brentq
from .channel import attenuation_vector, combined_phases, dirichlet_of_p
from .core_model import (DmaDesign, _frequency_factors, _positive_frequencies,
                         _weight, beamformer_weight)
from .errors import DomainError, InfeasibleError
from .frequency_planner import crossover_angle, optimal_operating_freq

WIDTH_RESOLUTION = 1e-3    # quantization of the mainlobe half-width
MAX_SECTORS = 256
# Most weights array_gain_dma forms at once: a block of 2^14 complex
# weights (256 KB) stays in the cache.
WEIGHT_BLOCK_ENTRIES = 2 ** 14


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

    ``phi`` and ``f`` broadcast to a shape S; scalars give a float.
    ``resonances`` is an (..., N) array, one configuration for every
    waveguide, its leading axes broadcasting against S.  All waveguides
    see one channel, so the gain is n_dmas^2 |w(f)^T h(phi, f)|^2.

    The channel of element n is z^n with the one step
    z = e^{-alpha d_y} e^{j theta_1(phi, f)}, theta_1 the phase of element
    1 (see combined_phases; the decay factor only on a lossy design).  The
    sum over elements is therefore a polynomial in z, evaluated by
    Horner's rule from the last element down,
    total = (...(w_{N-1} z + w_{N-2}) z + ...) z + w_0: one cosine and
    one sine per (angle, frequency), written into the parts of z, instead
    of a complex exponential per element.  They give e^{j theta_1}'s bits
    but for the sign of a zero imaginary part, which the squared modulus
    drops.  Since |z| <= 1 no partial sum exceeds sum_n |w_n|, so the
    rounding error is of order N ulps of that sum, the bound of the
    direct element-by-element sum.

    The last element's weights are written straight into the sum; the
    others are formed in blocks of consecutive elements, from the last
    block down, each of at most WEIGHT_BLOCK_ENTRIES weights and at least
    one element, and each block is folded into the sum at once: the full
    (..., N) weight array of a rate sweep would not fit in the cache.  The
    block size changes no arithmetic, only how many elements one block
    covers.  The weights are beamformer_weight's, with its frequency
    factors and the squared resonances formed once per call, and every
    block is written into the same work arrays, made once per call.
    """
    res = np.asarray(resonances, dtype=float)
    design = layout.per_dma
    if res.ndim < 1 or res.shape[-1] != design.n_elements:
        raise DomainError(f"need {design.n_elements} resonances per row "
                          f"(design.n_y), got shape {res.shape}")
    phis = np.asarray(phi, dtype=float)
    freqs = np.asarray(f, dtype=float)[..., None]        # element axis last
    # A two-element guide's phases are the first two of any guide's:
    # theta_1 without forming the other N - 2 columns.
    pair = replace(design, n_elements=2)
    theta = combined_phases(pair, phis[..., None], freqs)[..., 1]
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    del theta                    # a view: frees the two-column phases
    if design.attenuation is not None:
        z *= attenuation_vector(pair)[1]
    block_shape = np.broadcast_shapes(res.shape[:-1], freqs.shape[:-1])
    total = np.empty(np.broadcast_shapes(block_shape, z.shape), dtype=complex)
    if total.size == 0:
        return np.zeros(total.shape)
    res, freqs = _positive_frequencies(res, freqs)
    res_sq = res ** 2
    f_sq, scale = _frequency_factors(design, freqs)
    block = max(1, min(design.n_elements - 1,
                       WEIGHT_BLOCK_ENTRIES // int(np.prod(block_shape))))
    t = np.empty(block_shape + (block,))
    den = np.empty_like(t)
    w = np.empty(t.shape, dtype=complex)
    top = design.n_elements - 1              # the last element starts
    _weight(res_sq[..., top:], f_sq, scale, t[..., :1], den[..., :1],
            total[..., None])
    for stop in range(top, 0, -block):
        start = max(0, stop - block)
        n = stop - start
        _weight(res_sq[..., start:stop], f_sq, scale, t[..., :n], den[..., :n],
                w[..., :n])
        for k in range(n - 1, -1, -1):
            total *= z
            total += w[..., k]
    out = total.real * total.real
    out += np.square(total.imag, out=total.imag)
    out *= layout.n_dmas ** 2
    return float(out) if out.ndim == 0 else out


def pilot_grid(design: DmaDesign, k_tr: int,
               include: Optional[Sequence[float]] = None) -> np.ndarray:
    """Uniform pilot subcarriers over the tunable band, endpoints included.

    ``include`` merges extra frequencies (typically the codebook's sector
    frequencies) into the grid so the probe can land on them exactly.
    """
    if k_tr < 2:
        raise DomainError("k_tr must be >= 2")
    grid = np.linspace(design.f_min, design.f_max, k_tr)
    if include is not None:
        # Sorted, then each run of equal tones kept once: np.unique's
        # result without its first-call import of numpy.ma.
        grid = np.sort(np.concatenate([grid, np.asarray(include, dtype=float)]))
        grid = grid[np.append(True, grid[1:] != grid[:-1])]
    return grid


def probe(layout: ArrayLayout, codebook: Codebook, phi_true,
          pilot: np.ndarray) -> TrainingResult:
    """Single-shot training: strongest pilot subcarrier -> angle estimate.

    Group l of n_dmas / L consecutive waveguides, L = len(codebook),
    resonates all its elements at sector l's frequency f_l.  Each group's
    weights are one number per pilot, so the pilot gain factors into
    (n_dmas / L)^2 c_k AF_k(phi): the crosstalk c_k = |sum_l w(f_l, f_k)|^2
    of the L groups at pilot f_k, times the array factor |sum_n z^n|^2 of
    one waveguide, which is array_gain_dma of the configuration resonant
    at every pilot (there each weight is exactly -j).  The measurement
    model is noise-free and feedback is a single integer; ties resolve to
    the lowest subcarrier index.  A 1-d ``phi_true`` is probed in one
    array gain evaluation, each angle as by a scalar call.
    """
    pilot = np.asarray(pilot, dtype=float)
    if pilot.size == 0:
        raise DomainError("pilot grid is empty")
    n_groups = len(codebook)
    if layout.n_dmas % n_groups:
        raise DomainError(f"{n_groups} sectors do not split "
                          f"{layout.n_dmas} waveguides into equal groups")
    design = layout.per_dma
    phis = np.asarray(phi_true, dtype=float)
    w = beamformer_weight(design, codebook.sector_freqs[:, None],
                          pilot).sum(axis=0)
    crosstalk = w.real * w.real + w.imag * w.imag
    group = ArrayLayout(layout.n_dmas // n_groups, design)
    resonant = np.broadcast_to(pilot[:, None], (pilot.size, design.n_elements))
    gains = crosstalk * array_gain_dma(group, resonant, phis[..., None], pilot)
    k_star = np.argmax(gains, axis=-1)       # the first of tied maxima
    f_k = pilot[k_star]
    phi_hat = crossover_angle(design, f_k)
    invisible = np.isnan(phi_hat)
    if np.any(invisible):
        raise InfeasibleError(
            f"pilot {np.extract(invisible, f_k)[0]:.4g} Hz maps outside the "
            f"visible region: the design's design.n_g = "
            f"{design.refractive_index:g} and design.d_y = "
            f"{design.spacing:g} m put its angle estimate beyond +-90 deg")
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
    x in (0, 1/N) by Brent's method; a delta below the fraction at the
    bracket end 1/N - 1e-12 raises DomainError.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie strictly between 0 and 1")
    if n_y < 2:
        raise DomainError("need at least 2 elements for a mainlobe width")

    def excess(x):
        return dirichlet_of_p(x, n_y) ** 2 - delta * n_y ** 2

    hi = 1.0 / n_y - 1e-12
    if excess(hi) > 0:
        floor = dirichlet_of_p(hi, n_y) ** 2 / n_y ** 2
        raise DomainError(
            f"training.delta = {delta:.3g} is below {floor:.3g}, the "
            f"smallest gain fraction with a mainlobe half-width at "
            f"design.n_y = {n_y}")
    return float(brentq(excess, 1e-12, hi, xtol=1e-15))


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
    InfeasibleError when the sector frequencies do not decrease
    with the angle, so that no probe can tell two sectors apart, and
    for a waveguide of fewer than 2 elements, whose gain has no mainlobe
    to place sectors by.
    """
    if not -np.pi / 2.0 < phi_lower < phi_upper < np.pi / 2.0:
        raise DomainError("need -pi/2 < phi_lower < phi_upper < pi/2")
    if design.n_elements < 2:
        raise InfeasibleError(
            f"a waveguide of design.n_y = {design.n_elements} element has "
            f"no mainlobe to place codebook sectors by: training needs at "
            f"least 2")
    width = psi_delta(design.n_elements, delta)
    width = round(width / WIDTH_RESOLUTION) * WIDTH_RESOLUTION
    if width <= 0:
        raise InfeasibleError("delta is too strict: zero sector width")
    n_g = design.refractive_index
    s_max = np.sin(phi_upper)

    s1 = (np.sin(phi_lower) + n_g) * (1.0 + width) - n_g
    angles = [float(np.arcsin(min(s1, s_max)))]
    while (np.sin(angles[-1]) + n_g) / (1.0 - width) - n_g < s_max:
        s_next = (np.sin(angles[-1]) + n_g) * (1.0 + width) / (1.0 - width) - n_g
        if s_next > 1.0 or len(angles) >= MAX_SECTORS:
            raise InfeasibleError(
                f"cannot cover {np.degrees(phi_lower):.2f} to "
                f"{np.degrees(phi_upper):.2f} deg at delta={delta:g}")
        angles.append(float(np.arcsin(min(s_next, s_max))))
    sector_angles = np.array(angles)
    freqs = optimal_operating_freq(design, sector_angles).f_t_star
    rising = np.flatnonzero(np.diff(freqs) >= 0)
    if rising.size:
        k = int(rising[0])
        raise InfeasibleError(
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
        raise InfeasibleError(
            f"construction needs {len(codebook)} sectors, caller pinned {n_sectors}")
    if n_dmas % len(codebook):
        raise InfeasibleError(
            f"the codebook needs {len(codebook)} sectors, one training group "
            f"each, and they do not divide design.n_z = {n_dmas}")
    return ArrayLayout(n_dmas=n_dmas, per_dma=design), codebook
