"""Exact gain maximization over binary on/off element weights.

The benchmark constrains each element weight to {0, 1}: an element is
either transparent (weight 1, no Lorentzian phase shaping) or switched
off.  The best mask is found exactly by one rotating sweep over the 2N
half-plane arcs, O(N log N) per angle with no cap on N, and is
deterministic: among equal-gain masks the lexicographically smallest
wins.

One angle gives an (N,) int8 mask and a float gain; a 1-d array of A
angles gives (A, N) int8 masks and (A,) float64 gains, each row bit for
bit the one-angle result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import effective_channel
from .core_model import DmaDesign


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
    masks, gains = _sweep(effective_channel(
        design, np.atleast_1d(phis)[:, None], f_c))
    if phis.ndim == 0:
        return BinarySolution(mask=masks[0], gain=float(gains[0]))
    return BinarySolution(mask=masks, gain=gains)


def _half_plane(h: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """Masks Re(h e^{-j theta}) > 0 of (R, N) channels, e^{-j theta} (R,)."""
    return np.real(h * turn[:, None]) > 0


def _sweep(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best masks and gains for (A, N) channels.

    At an optimal sum s, dropping a member or adding a non-member cannot
    raise |s|^2, so |Re(h_n conj(s))| >= |h_n|^2 / 2 for every n.  The
    optimum is thus the half-plane mask Re(h e^{-j theta}) > 0 at
    theta = arg(s), and arg(s) lies strictly inside an arc between the
    boundary angles arg(h_n) +- pi/2, at least about min|h| / (2 sum|h|)
    rad from either end: one midpoint per arc finds it despite rounding.
    Only the midpoint masks of the candidate arcs are summed; the largest
    gain and the smallest of its tied masks win.  The candidates are
    taken one per row at a time, so memory stays O(A N) however many a
    row has.
    """
    n_rows, n = h.shape
    cand_rows, turns, ends = _candidates(h)
    best = np.full(n_rows, -np.inf)
    held = np.zeros(n_rows, dtype=np.intp)
    # Each mask is row 0 of a (2, N) stack over a zero row: matmul sums
    # it as it sums any row of a taller stack, where a lone (1, N) mask
    # takes NumPy's dot product and rounds otherwise.
    stack = np.zeros((n_rows, 2, n), dtype=complex)
    lo = 0
    for hi in ends:
        sel = cand_rows[lo:hi]
        h_sel = h[sel]
        masks = stack[:hi - lo]
        masks[:, 0] = _half_plane(h_sel, turns[lo:hi])
        gains = np.abs(np.matmul(masks, h_sel[..., None])[:, 0, 0]) ** 2
        prev = best[sel]
        take = gains > prev
        tied = np.flatnonzero(gains == prev)
        if tied.size:
            # The smaller mask holds the 0 at the first element they differ.
            diff = masks[tied, 0].real - _half_plane(
                h_sel[tied], turns[held[sel[tied]]])
            take[tied] = diff[np.arange(tied.size),
                              np.argmax(diff != 0, axis=-1)] < 0
        best[sel] = np.where(take, gains, prev)
        held[sel] = np.where(take, np.arange(lo, hi), held[sel])
        lo = hi
    return _half_plane(h, turns[held]).astype(np.int8), best


def _candidates(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """The arcs of (A, N) channels that may hold the best mask, found by
    one rotating sweep a row: their rows, e^{-j theta} at their
    midpoints, and the end of each batch of at most one arc a row.

    Crossing a boundary adds or removes one element, so the sums of all
    2N arcs are one cumulative sum of +-h_n in boundary order, anchored at
    the widest arc's sum taken directly: a zero-width arc, where
    boundaries coincide, has a midpoint mask that need not be the state
    between them.  A cumulative term is a difference of two disjoint
    subset sums, so each step rounds by at most half an ulp of sum|h|: a
    running sum is off by about N eps sum|h|, its gain by 2 N eps
    (sum|h|)^2, and a mask's summed gain by N eps (sum|h|)^2.  The arcs
    whose masks sum to the best gain or tie it thus run within
    6 N eps (sum|h|)^2 of the best running gain, and every arc within
    8 N eps (sum|h|)^2 of it is a candidate.  The sort makes the sweep
    O(N log N) per angle.
    """
    n_rows, n = h.shape
    # Boundary 2n of a row is where element n leaves, 2n + 1 where it
    # enters, wrapped into [0, 2 pi) as np.mod wraps them.
    edges = (np.angle(h)[..., None] + [np.pi / 2, -np.pi / 2]) \
        .reshape(n_rows, 2 * n)
    edges += (edges < 0) * (2.0 * np.pi)
    order = np.argsort(edges, axis=-1) + 2 * n * np.arange(n_rows)[:, None]
    edges = edges.ravel()[order]
    mids = 0.5 * (edges + np.concatenate(
        [edges[:, 1:], edges[:, :1] + 2.0 * np.pi], axis=-1))
    sums = np.stack([-h, h], axis=-1).ravel()[order].cumsum(axis=-1)
    rows = np.arange(n_rows)
    wide = np.argmax(mids - edges, axis=-1)
    anchor = np.where(_half_plane(h, np.exp(-1j * mids[rows, wide])), h,
                      0).sum(axis=-1)
    sums += (anchor - sums[rows, wide])[:, None]
    run = sums.real ** 2 + sums.imag ** 2
    slack = 8 * n * np.finfo(float).eps * np.abs(h).sum(axis=-1) ** 2
    cands = np.flatnonzero(run >= (run.max(axis=-1) - slack)[:, None])
    # Batch k holds the k-th candidate of every row that has one.
    cand_rows = cands // (2 * n)
    ranks = np.arange(cands.size) - np.searchsorted(cand_rows, cand_rows)
    batch = np.argsort(ranks)
    return (cand_rows[batch], np.exp(-1j * mids.ravel()[cands[batch]]),
            np.cumsum(np.bincount(ranks)).tolist())
