"""Fixed-frequency beamforming gain maximization.

Two architectures are solved in closed form:

* the DMA, whose per-element weights are confined to the Lorentzian
  circle: the best reachable gain at (phi, f_t) is (N + |S|)^2 / 4 with S
  the Dirichlet array sum, attained by pointing every weight's circle
  angle at the common phase of the channel conjugate;
* the true-time-delay (TTD) array, whose per-element delays align all
  frequencies at once, giving the squint-free gain N^2 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (attenuation_vector, combined_phases, dirichlet_kernel,
                      normalized_product)
from .core_model import (CONSTANTS, DmaDesign, ResonantConfig,
                         beamformer_weight, resonant_from_shifted)
from .errors import (DmaError, DomainError, InfeasibleElementError,
                     SingularityError)

PSI_TILDE_LOW = -1.5 * np.pi   # principal interval for shifted angles,
PSI_TILDE_HIGH = 0.5 * np.pi   # half open: [-3pi/2, pi/2)
DEGENERATE_CLAMP = 1e-6        # retreat (rad) from the zero-weight endpoint


@dataclass(frozen=True)
class BeamformingSolution:
    """Optimal DMA configuration for one (aod, operating frequency) pair."""

    resonant: ResonantConfig
    shifted_phases: np.ndarray
    gain: float
    operating_freq: float


@dataclass(frozen=True)
class TtdSolution:
    """Optimal per-element true-time delays, seconds (all non-negative)."""

    delays: np.ndarray


def configured_gain(design: DmaDesign, resonances, phi: float, f,
                    with_attenuation: bool = False):
    """Gain |sum_m w_m(f)^T h(phi, f)|^2 of waveguides with set resonances.

    ``resonances`` holds one waveguide's (N,) resonant frequencies or an
    (M, N) stack, one row per waveguide.  A scalar ``f`` gives a float, a
    1-d ``f`` one gain per frequency.  When every row is equal the array
    sum is M times one waveguide's sum, so one row is evaluated and the
    gain scaled by M^2.
    """
    res = np.atleast_2d(np.asarray(resonances, dtype=float))
    copies = 1
    if len(res) > 1 and np.all(res == res[0]):
        copies, res = len(res), res[:1]
    freqs = np.asarray(f, dtype=float)
    col = freqs.reshape(-1, 1)
    h = np.exp(1j * combined_phases(design, phi, col))
    if with_attenuation:
        h = h * attenuation_vector(design)
    weights = beamformer_weight(design, res, col[:, :, None])
    out = copies ** 2 * np.abs(np.einsum("kmn,kn->k", weights, h)) ** 2
    return float(out[0]) if freqs.ndim == 0 else out


def gain_dma(design: DmaDesign, config: ResonantConfig, phi: float, f,
             with_attenuation: bool = False):
    """Beamforming gain |f_dma(f)^T h(phi, f)|^2 of an arbitrary configuration.

    A scalar ``f`` gives a float, a 1-d ``f`` one gain per frequency.
    """
    if len(config) != design.n_elements:
        raise DomainError(
            f"config has {len(config)} resonances for {design.n_elements} elements")
    return configured_gain(design, config.f_r, phi, f, with_attenuation)


def wrap_shifted(psi_tilde):
    """Wrap angles into the principal interval [-3pi/2, pi/2)."""
    return np.mod(np.asarray(psi_tilde) - PSI_TILDE_LOW, 2.0 * np.pi) + PSI_TILDE_LOW


def optimal_shifted_phases(design: DmaDesign, phi: float, f_t: float) -> np.ndarray:
    """Closed-form optimal shifted angles for each element.

    psi_tilde*_n = -(pi/2) sgn(S) + 2 pi p (n - 1 - (N-1)/2), wrapped into
    the principal interval.  The convention sgn(0) = +1 keeps the output
    deterministic when the array sum vanishes.
    """
    n = design.n_elements
    s = dirichlet_kernel(design, phi, f_t)
    sign = 1.0 if s >= 0 else -1.0
    p = float(normalized_product(design, phi, f_t))
    idx = np.arange(1, n + 1)
    raw = -0.5 * np.pi * sign + 2.0 * np.pi * p * (idx - 1 - (n - 1) / 2.0)
    return wrap_shifted(raw)


def closed_form_gain(design: DmaDesign, phi: float, f_t: float) -> float:
    """Maximum reachable DMA gain (N + |S(phi, f_t)|)^2 / 4."""
    s = dirichlet_kernel(design, phi, f_t)
    return float((design.n_elements + abs(s)) ** 2 / 4.0)


def solve_p1a(design: DmaDesign, phi: float, f_t: float) -> BeamformingSolution:
    """Gain-optimal resonant configuration at a fixed operating frequency.

    The reported gain is the closed-form optimum (N + |S|)^2 / 4.  An
    element whose optimal circle angle falls on the zero-weight endpoint
    (reachable only as f_r -> infinity) is realized DEGENERATE_CLAMP inside
    the interval instead; the configuration then attains the reported gain
    up to a relative deficit of order DEGENERATE_CLAMP.

    Raises InfeasibleElementError (carrying the zero-based element index)
    when some element's required circle angle has no real resonance, which
    happens on a narrow angular sliver near the bottom of the circle.
    """
    if not (design.f_min <= f_t <= design.f_max):
        raise DomainError(
            f"operating frequency {f_t:.4g} outside [{design.f_min:.4g}, {design.f_max:.4g}]")
    shifted = optimal_shifted_phases(design, phi, f_t)
    f_r = np.empty(design.n_elements)
    for i, pt in enumerate(shifted):
        try:
            f_r[i] = resonant_from_shifted(design, float(pt), f_t)
        except SingularityError:
            # Both interval endpoints map to weight zero; only the upper
            # one is approachable with a real (large) resonance.
            shifted[i] = PSI_TILDE_HIGH - DEGENERATE_CLAMP
            f_r[i] = resonant_from_shifted(design, float(shifted[i]), f_t)
        except DmaError as exc:
            raise InfeasibleElementError(i, f"element {i}: {exc}") from exc
    return BeamformingSolution(
        resonant=ResonantConfig(f_r),
        shifted_phases=shifted,
        gain=closed_form_gain(design, phi, f_t),
        operating_freq=float(f_t),
    )


def solve_ttd(n_elements: int, spacing: float, phi: float) -> TtdSolution:
    """Optimal TTD delays; the branch choice keeps every delay non-negative."""
    idx = np.arange(1, n_elements + 1)
    if phi >= 0:
        delays = spacing / CONSTANTS.c * (idx - 1) * np.sin(phi)
    else:
        delays = spacing / CONSTANTS.c * (idx - n_elements) * np.sin(phi)
    return TtdSolution(delays=delays)


def gain_ttd(solution: TtdSolution, spacing: float, phi: float, f: float) -> float:
    """TTD gain |sum_n e^{j 2 pi f tau_n} e^{j phase_e,n(phi, f)}|^2.

    With delays from solve_ttd at the matching angle this is N^2 for every
    frequency: the delays cancel the extrinsic phase slope exactly.
    """
    n = solution.delays.size
    idx = np.arange(n)
    extrinsic = -2.0 * np.pi * (f / CONSTANTS.c) * idx * spacing * np.sin(phi)
    total = np.exp(1j * (2.0 * np.pi * f * solution.delays + extrinsic))
    return float(np.abs(total.sum()) ** 2)
