"""Line-of-sight effective channel between a DMA and a far-field receiver.

The feed wave accrues an intrinsic phase inside the waveguide before
radiating from each slot; free-space propagation toward azimuth phi adds
the extrinsic array phase.  Both are linear in frequency and element
index, which makes the coherent array sum a Dirichlet kernel in the
normalized product p = f d_y (n_g + sin phi) / c.

Linear phase and exponential decay make the channel of element n the
n-th power of one step z = e^{-alpha d_y} e^{j theta_1}, theta_1 the
phase of element 1.  array_training.array_gain_dma forms z from the
cosine and sine of theta_1 and sums configured weights against it by
Horner's rule, forming the weights a block of elements at a time into
work arrays made once per call, and never builds the channel itself;
effective_channel builds it element by element for the binary solver
and the tests.  The phases 2 pi p (n - 1) keep fewer fractional bits as
p grows, so a scenario whose p at f_max and phi = 90 deg exceeds
scenario.MAX_NORMALIZED_PRODUCT is rejected.
"""

from __future__ import annotations

import numpy as np

from .core_model import CONSTANTS, DmaDesign

# Relative closeness to an integer below which the Dirichlet ratio is
# replaced by its limit value; the gain optimum lives exactly at integer p.
NEAR_INTEGER_TOL = 1e-9


def combined_phases(design: DmaDesign, phi, f) -> np.ndarray:
    """Total per-element phase, -2 pi (f/c) (n-1) d_y (n_g + sin phi).

    The element index broadcasts on the last axis, so array arguments
    carry a trailing unit axis for it.  The factors are applied left to
    right, in place, to one array of the broadcast shape.  Its element
    axis is outermost in memory: every pass then runs over the angle and
    frequency axes at once, not over a few elements at a time, and one
    element's phases are a contiguous block.
    """
    idx = np.arange(design.n_elements)
    x = f / CONSTANTS.c
    x *= -2.0 * np.pi
    s = design.refractive_index + np.sin(phi)
    shape = np.broadcast(x, idx, s).shape
    # (N, ...) in memory, viewed as (..., N)
    out = np.empty(shape[-1:] + shape[:-1]).transpose(
        tuple(range(1, len(shape))) + (0,))
    np.multiply(x, idx, out=out)
    out *= design.spacing
    out *= s
    return out


def attenuation_vector(design: DmaDesign) -> np.ndarray:
    """Exponential per-element magnitude decay g_n = exp(-alpha (n-1) d_y).

    The decay rate is frequency-flat.  All ones when the design carries no
    attenuation.
    """
    if design.attenuation is None:
        return np.ones(design.n_elements)
    idx = np.arange(design.n_elements)
    return np.exp(-design.attenuation * idx * design.spacing)


def effective_channel(design: DmaDesign, phi, f) -> np.ndarray:
    """Effective channel h(phi, f), decayed by the design's attenuation.

    Broadcasts as combined_phases: the element index is the last axis.
    The channel is laid out in C order, elements contiguous, whatever
    the phases' layout: sums over the elements round the same way.
    """
    phases = combined_phases(design, phi, f)
    h = np.multiply(1j, phases, out=np.empty(phases.shape, dtype=complex))
    np.exp(h, out=h)
    if design.attenuation is not None:
        h *= attenuation_vector(design)
    return h


def normalized_product(design: DmaDesign, phi, f):
    """The dimensionless product p = f d_y (n_g + sin phi) / c."""
    return np.asarray(f) * design.spacing \
        * (design.refractive_index + np.sin(np.asarray(phi))) / CONSTANTS.c


def dirichlet_kernel(design: DmaDesign, phi, f):
    """Coherent array sum S = sin(pi N p) / sin(pi p).

    The removable singularity at integer p is evaluated analytically:
    S -> N (-1)^{p (N-1)}.  Accepts scalars or arrays.
    """
    n = design.n_elements
    p = np.asarray(normalized_product(design, phi, f), dtype=float)
    return dirichlet_of_p(p, n)


def dirichlet_of_p(p, n: int):
    """Dirichlet kernel as a function of the normalized product itself."""
    p = np.asarray(p, dtype=float)
    nearest = np.round(p)
    near = np.abs(p - nearest) < NEAR_INTEGER_TOL
    den = np.sin(np.pi * p)
    ratio = np.sin(np.pi * n * p) / np.where(near, 1.0, den)
    limit = n * np.where((nearest.astype(np.int64) * (n - 1)) % 2 == 0, 1.0, -1.0)
    out = np.where(near, limit, ratio)
    return float(out) if out.ndim == 0 else out
