"""Exact gain maximization over binary on/off element weights.

The benchmark constrains each element weight to {0, 1}: an element is
either transparent (weight 1, no Lorentzian phase shaping) or switched
off.  The best mask is found by an exact half-plane search over at most
2N candidates, with no cap on N, and is deterministic: among equal-gain
masks the lexicographically smallest wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import effective_channel
from .core_model import DmaDesign


@dataclass(frozen=True)
class BinarySolution:
    """Best binary mask and its gain for one (phi, f) pair."""

    mask: np.ndarray
    gain: float


def solve_p4(design: DmaDesign, phi: float, f_c: float,
             with_attenuation: bool = False) -> BinarySolution:
    """Globally optimal binary weights by an exact half-plane search.

    Among masks with the maximal gain the lexicographically smallest
    (element 1 most significant) wins.
    """
    h = effective_channel(design, phi, f_c, with_attenuation)
    # At an optimal sum s, dropping a member or adding a non-member cannot
    # raise |s|^2, so |Re(h_n conj(s))| >= |h_n|^2 / 2 for every n.  The
    # optimum is thus the half-plane mask Re(h e^{-j theta}) > 0 at
    # theta = arg(s), and arg(s) lies strictly inside an arc between the
    # boundary angles arg(h_n) +- pi/2, at least about min|h| / (2 sum|h|)
    # rad from either end: one midpoint per arc finds it despite rounding.
    edges = np.sort(np.mod(np.angle(h)[:, None] + [np.pi / 2, -np.pi / 2],
                           2.0 * np.pi).ravel())
    mids = 0.5 * (edges + np.append(edges[1:], edges[0] + 2.0 * np.pi))
    masks = (np.real(h * np.exp(-1j * mids[:, None])) > 0).astype(np.int64)
    gains = np.abs(masks @ h) ** 2
    best = gains.max()
    mask = min(masks[gains == best].tolist())
    return BinarySolution(mask=np.array(mask, dtype=np.int8), gain=float(best))
