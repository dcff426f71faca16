"""Shared fixtures: the reference waveguide, its stacked array, and an
independent per-frequency reference for configured gains."""

import numpy as np
import pytest

import dmabeam as db

F_C = 15e9


@pytest.fixture(scope="session")
def design():
    """8-slot waveguide, 12-18 GHz band, Q = 50 at band center."""
    return db.DmaDesign(n_elements=8, spacing=1.0 / 120.0, refractive_index=2.5,
                        damping=2 * np.pi * F_C / 50, coupling=1e-9,
                        f_min=12e9, f_max=18e9)


@pytest.fixture(scope="session")
def layout(design):
    """Four stacked waveguides, one training group until a codebook exists."""
    return db.ArrayLayout(n_dmas=4, per_dma=design, groups=1)


def _reference_gain(design, configs, phi, freqs, with_attenuation=False):
    """|sum_m w_m(f)^T h(phi, f)|^2 per frequency, one scalar f at a time.

    Independent of the broadcast kernel: each waveguide's weights are
    dotted with the channel separately and the sums added in Python.
    """
    out = []
    for f in np.atleast_1d(freqs):
        f = float(f)
        h = db.effective_channel(design, phi, f, with_attenuation).entries
        total = sum(np.dot(db.beamformer_weight(design, cfg.f_r, f), h)
                    for cfg in configs)
        out.append(abs(total) ** 2)
    return np.array(out)


@pytest.fixture(scope="session")
def reference_gain():
    """The per-frequency, per-waveguide reference for configured gains."""
    return _reference_gain
