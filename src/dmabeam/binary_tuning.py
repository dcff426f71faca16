"""Exact gain maximization over binary on/off element weights.

The benchmark constrains each element weight to {0, 1}: an element is
either transparent (weight 1, no Lorentzian phase shaping) or switched
off.  The best mask is found by an exact half-plane search over at most
2N candidates, with no cap on N, and is deterministic: among equal-gain
masks the lexicographically smallest wins.

One angle gives an (N,) int8 mask and a float gain; a 1-d array of A
angles gives (A, N) int8 masks and (A,) float64 gains, each row bit for
bit the one-angle result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import effective_channel
from .core_model import DmaDesign

# Entries of the (angles, 2N, N) candidate-mask stack built at once; the
# angles are solved in blocks that keep the stack below this size.
MASK_BLOCK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class BinarySolution:
    """Best binary mask and its gain per (phi, f) pair.

    One pair gives an (N,) int8 mask and a float gain; A pairs give (A, N)
    int8 masks and (A,) float64 gains, each row the one-pair result.
    """

    mask: np.ndarray
    gain: float | np.ndarray


def solve_p4(design: DmaDesign, phi, f_c: float) -> BinarySolution:
    """Globally optimal binary weights by an exact half-plane search.

    Among masks with the maximal gain the lexicographically smallest
    (element 1 most significant) wins.  A 1-d ``phi`` solves every angle,
    each row as by a scalar call.
    """
    phis = np.asarray(phi, dtype=float)
    h_all = effective_channel(design, np.atleast_1d(phis)[:, None], f_c)
    n_angles, n = h_all.shape
    masks_out = np.empty((n_angles, n), dtype=np.int8)
    gains_out = np.empty(n_angles)
    block = max(1, MASK_BLOCK_ENTRIES // (2 * n * n))
    for start in range(0, n_angles, block):
        rows = slice(start, start + block)
        masks_out[rows], gains_out[rows] = _solve_block(h_all[rows])
    if phis.ndim == 0:
        return BinarySolution(mask=masks_out[0], gain=float(gains_out[0]))
    return BinarySolution(mask=masks_out, gain=gains_out)


def _solve_block(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best masks and gains for a (B, N) block of channels."""
    # At an optimal sum s, dropping a member or adding a non-member cannot
    # raise |s|^2, so |Re(h_n conj(s))| >= |h_n|^2 / 2 for every n.  The
    # optimum is thus the half-plane mask Re(h e^{-j theta}) > 0 at
    # theta = arg(s), and arg(s) lies strictly inside an arc between the
    # boundary angles arg(h_n) +- pi/2, at least about min|h| / (2 sum|h|)
    # rad from either end: one midpoint per arc finds it despite rounding.
    edges = np.sort(np.mod(np.angle(h)[..., None] + [np.pi / 2, -np.pi / 2],
                           2.0 * np.pi).reshape(len(h), -1), axis=-1)
    mids = 0.5 * (edges + np.concatenate(
        [edges[:, 1:], edges[:, :1] + 2.0 * np.pi], axis=-1))
    masks = (np.real(h[:, None, :] * np.exp(-1j * mids[..., None])) > 0) \
        .astype(np.int64)
    # Integer masks through matmul sum each candidate as the scalar
    # product does; float masks through einsum round differently.
    gains = np.abs(np.matmul(masks, h[..., None])[..., 0]) ** 2
    best = gains.max(axis=-1)
    winners = gains == best[:, None]
    pick = masks[np.arange(len(h)), np.argmax(gains, axis=-1)]
    for row in np.flatnonzero(winners.sum(axis=-1) > 1):
        pick[row] = min(masks[row][winners[row]].tolist())
    return pick, best
