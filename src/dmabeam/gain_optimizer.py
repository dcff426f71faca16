"""Fixed-frequency beamforming gain maximization.

The DMA's per-element weights are confined to the Lorentzian circle, and
its gain is maximized in closed form: the best reachable gain at
(phi, f_t) is (N + |S|)^2 / 4 with S the Dirichlet array sum, attained by
pointing every weight's circle angle at the common phase of the channel
conjugate.  The true-time-delay benchmark's gain is N^2 at every
frequency, so the rate sweeps use that value directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import dirichlet_of_p, normalized_product
from .core_model import DmaDesign, resonant_from_shifted
from .errors import DomainError

# Lower end of the principal interval [-3pi/2, pi/2) of shifted angles.
PSI_TILDE_LOW = -1.5 * np.pi


@dataclass(frozen=True)
class BeamformingSolution:
    """Optimal DMA configuration per (aod, operating frequency) pair.

    One pair gives (N,) resonances, a bool and float gain and frequency;
    A pairs give (A, N), (A,) arrays, each row the one-pair result.  An
    infeasible pair has feasible False, NaN resonances and a NaN gain.
    """

    resonances: np.ndarray       # Hz
    feasible: bool | np.ndarray
    gain: float | np.ndarray     # closed-form optimum
    operating_freq: float | np.ndarray   # Hz


def solve_p1a(design: DmaDesign, phi, f_t):
    """Gain-optimal resonant configuration at a fixed operating frequency.

    With p the normalized product and S the array sum, element n's
    optimal shifted angle is -(pi/2) sgn(S) + 2 pi p (n - 1 - (N-1)/2),
    wrapped into the principal interval; sgn(0) = +1 keeps it
    deterministic where the array sum vanishes.  The reported gain is the
    closed-form optimum (N + |S|)^2 / 4.  An element whose optimal circle
    angle falls on the zero-weight endpoint (reachable only as
    f_r -> infinity) is realized by resonant_from_shifted
    DEGENERATE_CLAMP inside the interval instead; the configuration then
    attains the reported gain up to a relative deficit of order
    DEGENERATE_CLAMP.

    Where some element's required circle angle has no real resonance,
    which happens on a narrow angular sliver near the bottom of the
    circle, the pair is infeasible: feasible is False and the resonances
    and gain are NaN.  A 1-d ``phi`` with a scalar or matching ``f_t``
    solves every pair, each row as by a scalar call.
    """
    phis, f_ts = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                     np.asarray(f_t, dtype=float))
    in_band = (design.f_min <= f_ts) & (f_ts <= design.f_max)
    if not np.all(in_band):
        raise DomainError(
            f"operating frequency {np.extract(~in_band, f_ts)[0]:.4g} outside "
            f"[{design.f_min:.4g}, {design.f_max:.4g}]")
    n = design.n_elements
    p = normalized_product(design, phis, f_ts)
    s = dirichlet_of_p(p, n)
    sign = np.where(s >= 0, 1.0, -1.0)
    raw = -0.5 * np.pi * sign[..., None] \
        + 2.0 * np.pi * p[..., None] * (np.arange(n) - (n - 1) / 2.0)
    shifted = np.mod(raw - PSI_TILDE_LOW, 2.0 * np.pi) + PSI_TILDE_LOW
    f_r = resonant_from_shifted(design, shifted, f_ts[..., None])
    feasible = ~np.isnan(f_r).any(axis=-1)
    f_r[~feasible] = np.nan
    # float_power rounds like the scalar Python **; an array ** 2 squares.
    gain = np.where(feasible, np.float_power(n + np.abs(s), 2) / 4.0, np.nan)
    if phis.ndim == 0:
        return BeamformingSolution(resonances=f_r, feasible=bool(feasible),
                                   gain=float(gain), operating_freq=float(f_ts))
    return BeamformingSolution(resonances=f_r, feasible=feasible, gain=gain,
                               operating_freq=np.array(f_ts))
