"""Lorentzian element model for a dynamic metasurface antenna (DMA).

A DMA is a waveguide feeding N radiating slots.  Each slot behaves as a
Lorentzian resonator whose resonant frequency is the only tunable knob:
magnitude and phase of the element weight are coupled through the
resonance and cannot be set independently.  The reachable weight set is
a circle of radius 1/2 centered at -j/2 in the complex plane.

All frequencies are in Hz, angles in radians, lengths in meters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

# Tolerance (rad) around the tangent pole of the resonance map.
SINGULARITY_TOL = 1e-9
DEGENERATE_CLAMP = 1e-6        # retreat (rad) from the zero-weight endpoint


@dataclass(frozen=True)
class PhysicalConstants:
    """Universal constants used throughout (rounded convention values)."""

    c: float = 3.0e8          # speed of light, m/s (exactly 3e8 by convention)
    k_B: float = 1.38e-23     # Boltzmann constant, J/K

    def __post_init__(self):
        if self.c <= 0 or self.k_B <= 0:
            raise DomainError("physical constants must be strictly positive")


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class DmaDesign:
    """Immutable physical description of one waveguide.

    Attributes:
        n_elements: number of radiating slots N.
        spacing: inter-element spacing d_y along the waveguide, m.
        refractive_index: waveguide refractive index n_g (>= 1).
        damping: Lorentzian damping factor Gamma, Hz.
        coupling: Lorentzian coupling strength F, m^3.
        f_min, f_max: tunable operating-frequency range, Hz.
        attenuation: optional per-meter waveguide attenuation alpha (>= 0);
            None models the ideal lossless guide.
    """

    n_elements: int
    spacing: float
    refractive_index: float
    damping: float
    coupling: float
    f_min: float
    f_max: float
    attenuation: Optional[float] = None

    def __post_init__(self):
        if not self.n_elements >= 1:
            raise DomainError("n_elements must be >= 1")
        if not self.spacing > 0:
            raise DomainError("spacing must be positive")
        if not self.refractive_index >= 1:
            raise DomainError("refractive_index must be >= 1")
        if not self.damping > 0:
            raise DomainError("damping must be positive")
        if not self.coupling > 0:
            raise DomainError("coupling must be positive")
        if not (0 < self.f_min < self.f_max):
            raise DomainError("need 0 < f_min < f_max")
        if self.attenuation is not None and not self.attenuation >= 0:
            raise DomainError("attenuation must be >= 0")


def _positive_frequencies(f_r_n, f):
    """Resonances and frequencies as float arrays, all of them positive."""
    f_r_n = np.asarray(f_r_n, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0) or np.any(f_r_n <= 0):
        raise DomainError("frequencies must be positive")
    return f_r_n, f


def beamformer_weight(design: DmaDesign, f_r_n, f):
    """Dimensionless element weight w = -sin(psi) e^{j psi}.

    psi = atan2(-Gamma f, 2 pi (f_r^2 - f^2)) is the Lorentzian phase
    angle, in [-pi, 0]: 0- far below resonance, -pi/2 on resonance, -pi
    far above.  The slot's magnetic polarizability
    alpha = F 2 pi f^2 / (2 pi f_r^2 - 2 pi f^2 + j Gamma f) is
    w 2 pi f F / Gamma: w is its frequency-normalized part, which acts as
    the beamforming weight.  It always lies on the circle
    |w + j/2| = 1/2.

    It is evaluated in rational form.  With the normalized detuning
    t = 2 pi (f_r^2 - f^2) / (Gamma f), psi is the argument of t - j, so
    e^{j psi} = (t - j) / |t - j| and sin(psi) = -1 / |t - j|.  Hence
    w = (t - j) / (t^2 + 1) = 1 / (t + j): no arctan2, sine or complex
    exponential.  The real and imaginary parts t / (t^2 + 1) and
    -1 / (t^2 + 1) are formed from contiguous real arrays and written
    into the complex result once: a complex division would warn on a NaN
    resonance, which must give a quiet NaN weight.
    """
    f_r_n, f = _positive_frequencies(f_r_n, f)
    out = _weight(f_r_n**2, *_frequency_factors(design, f))
    return complex(out) if out.ndim == 0 else out


def _frequency_factors(design: DmaDesign, f):
    """(f^2, 2 pi / (Gamma f)): the factors of the weight that depend on
    the frequency alone, for a caller that forms many weights at one f."""
    return f**2, 2.0 * np.pi / (design.damping * f)


def _weight(f_r_sq, f_sq, scale, t=None, den=None, out=None):
    """The weight array 1 / (t + j), t = (f_r^2 - f^2) scale; see
    beamformer_weight, which checks the frequencies.

    ``t`` and ``den`` (float) and ``out`` (complex), when given, are
    arrays of the broadcast shape that the passes are written into; the
    arithmetic is the same either way.
    """
    t = np.subtract(f_r_sq, f_sq, out=t)
    t *= scale
    den = np.multiply(t, t, out=den)
    den += 1.0
    if out is None:
        out = np.empty(np.shape(t), dtype=complex)
    np.divide(t, den, out=out.real)
    np.divide(-1.0, den, out=out.imag)
    return out


def resonant_from_shifted(design: DmaDesign, psi_tilde, f_t):
    """Resonant frequency realizing a requested shifted angle at f_t.

    f_r = sqrt(f_t^2 + (Gamma f_t / 2 pi) tan(pi/4 + psi_tilde/2)).
    The shifted angle psi_tilde = 2 psi + pi/2 in [-3pi/2, pi/2] places
    the weight on its circle: w = -j/2 + e^{j psi_tilde} / 2.

    ``psi_tilde`` and ``f_t`` broadcast.  An angle on a tangent pole is
    clamped: both interval endpoints map to weight zero, and only the
    upper one is approachable with a real (large) resonance, so such an
    angle is realized DEGENERATE_CLAMP below pi/2 instead.  Where the
    square-root argument is negative no real resonance reaches the angle,
    and the result is NaN there, for a scalar call as for an array call.
    """
    f_t = np.asarray(f_t, dtype=float)
    if np.any(f_t <= 0):
        raise DomainError("f_t must be positive")
    psi_tilde = np.asarray(psi_tilde, dtype=float)
    # Within SINGULARITY_TOL of -3pi/2 or pi/2, f_r would be 0 or infinite.
    on_pole = np.abs(np.pi / 4.0 + psi_tilde / 2.0) \
        >= np.pi / 2.0 - SINGULARITY_TOL
    psi_tilde = np.where(on_pole, np.pi / 2.0 - DEGENERATE_CLAMP, psi_tilde)
    # float_power rounds like the scalar Python **; an array ** 2 squares.
    arg = np.float_power(f_t, 2) + design.damping * f_t / (2.0 * np.pi) \
        * np.tan(np.pi / 4.0 + psi_tilde / 2.0)
    out = np.sqrt(np.where(arg < 0, np.nan, arg))
    return float(out) if out.ndim == 0 else out
