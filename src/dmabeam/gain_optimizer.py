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

from .channel import dirichlet_kernel, effective_channel, normalized_product
from .core_model import (CONSTANTS, DmaDesign, beamformer_weight,
                         on_tangent_pole, resonant_from_shifted)
from .errors import DomainError, InfeasibleElementError

PSI_TILDE_LOW = -1.5 * np.pi   # principal interval for shifted angles,
PSI_TILDE_HIGH = 0.5 * np.pi   # half open: [-3pi/2, pi/2)
DEGENERATE_CLAMP = 1e-6        # retreat (rad) from the zero-weight endpoint


@dataclass(frozen=True)
class BeamformingSolution:
    """Optimal DMA configuration per (aod, operating frequency) pair.

    One pair gives (N,) resonances, feasible True and float gain and
    frequency; A pairs give (A, N), (A,) arrays with NaN rows where the
    one-pair call raises.
    """

    resonances: np.ndarray       # Hz
    feasible: bool | np.ndarray
    gain: float | np.ndarray     # closed-form optimum
    operating_freq: float | np.ndarray   # Hz


@dataclass(frozen=True)
class TtdSolution:
    """Optimal per-element true-time delays, seconds (all non-negative)."""

    delays: np.ndarray


def configured_gain(design: DmaDesign, resonances, phi, f,
                    with_attenuation: bool = False):
    """Gain |sum_m w_m(f)^T h(phi, f)|^2 of waveguides with set resonances.

    ``phi`` and ``f`` broadcast to a shape S; scalars give a float.
    ``resonances`` is one waveguide's (N,) resonances, an (M, N) stack with
    one row per waveguide, or (..., M, N) stacks broadcasting against S.
    When every stack repeats its first row the array sum is M times one
    waveguide's sum, so one row is evaluated and the gain scaled by M^2.
    """
    res = np.atleast_2d(np.asarray(resonances, dtype=float))
    copies = 1
    if res.shape[-2] > 1 and np.all(res == res[..., :1, :]):
        copies, res = res.shape[-2], res[..., :1, :]
    freqs = np.asarray(f, dtype=float)[..., None]        # element axis last
    h = effective_channel(design, np.asarray(phi, dtype=float)[..., None],
                          freqs, with_attenuation)
    weights = beamformer_weight(design, res, freqs[..., None])
    out = copies ** 2 * np.abs(np.einsum("...mn,...n->...", weights, h)) ** 2
    return float(out) if out.ndim == 0 else out


def gain_dma(design: DmaDesign, resonances, phi, f,
             with_attenuation: bool = False):
    """Beamforming gain |f_dma(f)^T h(phi, f)|^2 of arbitrary configurations.

    ``resonances`` is an (..., N) array, broadcasting as in configured_gain.
    """
    f_r = np.asarray(resonances, dtype=float)
    if f_r.ndim == 0 or f_r.shape[-1] != design.n_elements:
        raise DomainError(f"need {design.n_elements} resonances per "
                          f"configuration, got shape {f_r.shape}")
    return configured_gain(design, f_r[..., None, :], phi, f, with_attenuation)


def wrap_shifted(psi_tilde):
    """Wrap angles into the principal interval [-3pi/2, pi/2)."""
    return np.mod(np.asarray(psi_tilde) - PSI_TILDE_LOW, 2.0 * np.pi) + PSI_TILDE_LOW


def optimal_shifted_phases(design: DmaDesign, phi, f_t) -> np.ndarray:
    """Closed-form optimal shifted angles for each element (last axis).

    psi_tilde*_n = -(pi/2) sgn(S) + 2 pi p (n - 1 - (N-1)/2), wrapped into
    the principal interval.  The convention sgn(0) = +1 keeps the output
    deterministic when the array sum vanishes.
    """
    n = design.n_elements
    sign = np.where(dirichlet_kernel(design, phi, f_t) >= 0, 1.0, -1.0)
    p = normalized_product(design, phi, f_t)
    idx = np.arange(1, n + 1)
    raw = -0.5 * np.pi * sign[..., None] \
        + 2.0 * np.pi * p[..., None] * (idx - 1 - (n - 1) / 2.0)
    return wrap_shifted(raw)


def closed_form_gain(design: DmaDesign, phi, f_t):
    """Maximum reachable DMA gain (N + |S(phi, f_t)|)^2 / 4."""
    s = dirichlet_kernel(design, phi, f_t)
    # float_power rounds like the scalar Python **; an array ** 2 squares.
    out = np.float_power(design.n_elements + np.abs(s), 2) / 4.0
    return float(out) if np.ndim(out) == 0 else out


def solve_p1a(design: DmaDesign, phi, f_t):
    """Gain-optimal resonant configuration at a fixed operating frequency.

    The reported gain is the closed-form optimum (N + |S|)^2 / 4.  An
    element whose optimal circle angle falls on the zero-weight endpoint
    (reachable only as f_r -> infinity) is realized DEGENERATE_CLAMP inside
    the interval instead; the configuration then attains the reported gain
    up to a relative deficit of order DEGENERATE_CLAMP.

    Raises InfeasibleElementError (carrying the zero-based element index)
    when some element's required circle angle has no real resonance, which
    happens on a narrow angular sliver near the bottom of the circle.  A
    1-d ``phi`` with a scalar or matching ``f_t`` solves every pair and
    marks such angles as infeasible NaN rows instead.
    """
    phis, f_ts = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                     np.asarray(f_t, dtype=float))
    in_band = (design.f_min <= f_ts) & (f_ts <= design.f_max)
    if not np.all(in_band):
        raise DomainError(
            f"operating frequency {np.extract(~in_band, f_ts)[0]:.4g} outside "
            f"[{design.f_min:.4g}, {design.f_max:.4g}]")
    shifted = optimal_shifted_phases(design, phis, f_ts)
    # Both interval endpoints map to weight zero; only the upper one is
    # approachable with a real (large) resonance.
    shifted = np.where(on_tangent_pole(shifted),
                       PSI_TILDE_HIGH - DEGENERATE_CLAMP, shifted)
    f_r = resonant_from_shifted(design, shifted, f_ts[..., None])
    gain = closed_form_gain(design, phis, f_ts)
    if phis.ndim == 0:
        if np.isnan(f_r).any():
            i = int(np.argmax(np.isnan(f_r)))
            try:    # the scalar map raises, naming the angle and frequency
                resonant_from_shifted(design, shifted[i], f_ts)
            except InfeasibleElementError as exc:
                raise InfeasibleElementError(i, f"element {i}: {exc}") from exc
        return BeamformingSolution(resonances=f_r, feasible=True, gain=gain,
                                   operating_freq=float(f_ts))
    feasible = ~np.isnan(f_r).any(axis=-1)
    f_r[~feasible] = np.nan
    return BeamformingSolution(resonances=f_r, feasible=feasible,
                               gain=np.where(feasible, gain, np.nan),
                               operating_freq=np.array(f_ts))


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
