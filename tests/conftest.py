"""Shared fixtures: the reference waveguide, its stacked array, and
independent scalar references for configured gains, the closed-form
solver and the planner."""

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
    """Four stacked waveguides."""
    return db.ArrayLayout(n_dmas=4, per_dma=design)


def _reference_gain(design, resonances, phi, freqs):
    """|sum_m w_m(f)^T h(phi, f)|^2 per frequency, one scalar f at a time.

    ``resonances`` holds one (N,) row per waveguide, (M, N).  Independent
    of the broadcast kernel: the channel is built from its phases, element
    n decayed by exp(-alpha n d_y) when the design has an attenuation, and
    each waveguide's weights are dotted with it separately and the sums
    added in Python.
    """
    assert np.ndim(resonances) == 2
    decay = [1.0 if design.attenuation is None
             else float(np.exp(-design.attenuation * n * design.spacing))
             for n in range(design.n_elements)]
    out = []
    for f in np.atleast_1d(freqs):
        f = float(f)
        h = np.exp(1j * db.combined_phases(design, phi, f)) * decay
        total = sum(np.dot(db.beamformer_weight(design, row, f), h)
                    for row in resonances)
        out.append(abs(total) ** 2)
    return np.array(out)


@pytest.fixture(scope="session")
def reference_gain():
    """The per-frequency, per-waveguide reference for configured gains."""
    return _reference_gain


def _reference_golden_section_max(f, a, b, tol=1e-12):
    """The scalar golden-section loop, one interval and one f call a step."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
    return 0.5 * (a + b)


def _reference_operating_point(design, phi):
    """The planner for one angle, one lobe at a time, on Python scalars.

    Independent of the broadcast planner: the band is cut at the
    Dirichlet nulls and each lobe searched by the scalar golden-section
    loop.  Candidates within 1e-12 relative of the largest count as tied
    and the lowest p wins.  Returns (f_t_star, p_star, gain, integer_case).
    """
    n = design.n_elements
    slope = design.spacing * (design.refractive_index + np.sin(phi)) / db.CONSTANTS.c
    p_min, p_max = design.f_min * slope, design.f_max * slope
    first_int = np.ceil(p_min)
    if first_int <= p_max:
        p_star, gain = float(first_int), float(n ** 2)
    else:
        def objective(p):
            return abs(db.dirichlet_of_p(p, n))

        k_lo = int(np.floor(p_min * n)) + 1
        k_hi = int(np.ceil(p_max * n)) - 1
        bounds = [p_min] + [k / n for k in range(k_lo, k_hi + 1)
                            if p_min < k / n < p_max] + [p_max]
        candidates = list(bounds) + [
            _reference_golden_section_max(objective, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
        values = [objective(p) for p in candidates]
        best = max(values)
        p_star = float(min(p for p, v in zip(candidates, values)
                           if v >= best * (1 - 1e-12)))
        gain = float((n + best) ** 2 / 4.0)
    f_t_star = min(max(p_star / slope, design.f_min), design.f_max)
    return float(f_t_star), p_star, gain, bool(first_int <= p_max)


@pytest.fixture(scope="session")
def reference_operating_point():
    """The per-angle scalar planner the broadcast one must match."""
    return _reference_operating_point


def _reference_solve_p1a(design, phi, f_t):
    """The closed-form solver one element at a time, on Python floats.

    Independent of the broadcast solver: each element's shifted angle is
    wrapped, clamped off a tangent pole and mapped to its resonance with
    scalar arithmetic.  Returns (resonances, gain), or None where some
    element needs an imaginary resonance.
    """
    n = design.n_elements
    s = float(db.dirichlet_kernel(design, phi, f_t))
    sign = 1.0 if s >= 0 else -1.0
    p = float(db.normalized_product(design, phi, f_t))
    f_r = []
    for k in range(n):
        pt = float(db.wrap_shifted(-0.5 * np.pi * sign
                                   + 2.0 * np.pi * p * (k - (n - 1) / 2.0)))
        if abs(np.pi / 4.0 + pt / 2.0) >= np.pi / 2.0 - 1e-9:
            pt = 0.5 * np.pi - 1e-6
        arg = f_t ** 2 + design.damping * f_t / (2.0 * np.pi) \
            * np.tan(np.pi / 4.0 + pt / 2.0)
        if arg < 0:
            return None
        f_r.append(float(np.sqrt(arg)))
    return np.array(f_r), (n + abs(s)) ** 2 / 4.0


@pytest.fixture(scope="session")
def reference_solve_p1a():
    """The per-element scalar solver the broadcast one must match."""
    return _reference_solve_p1a


def _reference_dense_p_scan(design, phi, resolution):
    """The dense p scan over the whole grid at once, argmax by np.argmax.

    The unblocked form the blocked oracle must match bit for bit: same
    grid, same per-point arithmetic, first index on a tie.
    """
    n = design.n_elements
    scale = design.spacing * (design.refractive_index + np.sin(phi)) \
        / db.CONSTANTS.c
    p = np.linspace(design.f_min * scale, design.f_max * scale, resolution)
    r = p - np.round(p)
    den = np.sin(np.pi * r)
    safe = np.abs(den) > 1e-12
    den[~safe] = 1.0
    objective = np.abs(np.sin(np.pi * n * r) / den)
    objective[~safe] = float(n)
    k = int(np.argmax(objective))
    return float(p[k]), float(objective[k])


@pytest.fixture(scope="session")
def reference_dense_p_scan():
    """The unblocked dense scan the blocked one must match."""
    return _reference_dense_p_scan
