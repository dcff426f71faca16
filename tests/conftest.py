"""Shared fixtures: the reference waveguide, its stacked array, and
independent scalar references for configured gains, the closed-form
solver and the planner, the per-block weight loop of the array gain
kernel, the unblocked dense scan, the paired-halves grid search, the
one-draw grid walk and the double-loop binary enumeration."""

import dataclasses

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


def _reference_array_gain_dma(layout, resonances, phi, f, block_entries):
    """array_gain_dma with one beamformer_weight call per block of
    elements, the block size set by ``block_entries``.

    The blocked Horner sum as it was before the frequency factors and the
    squared resonances were formed once per call: the kernel must match
    it bit for bit.
    """
    res = np.asarray(resonances, dtype=float)
    design = layout.per_dma
    phis = np.asarray(phi, dtype=float)
    freqs = np.asarray(f, dtype=float)[..., None]
    pair = dataclasses.replace(design, n_elements=2)
    z = np.exp(1j * db.combined_phases(pair, phis[..., None], freqs)[..., 1])
    if design.attenuation is not None:
        z *= db.attenuation_vector(pair)[1]
    block_shape = np.broadcast_shapes(res.shape[:-1], freqs.shape[:-1])
    total = np.empty(np.broadcast_shapes(block_shape, z.shape), dtype=complex)
    block = max(1, block_entries // int(np.prod(block_shape)))
    for stop in range(design.n_elements, 0, -block):
        start = max(0, stop - block)
        w = db.beamformer_weight(design, res[..., start:stop], freqs)
        columns = range(stop - start - 1, -1, -1)
        if stop == design.n_elements:
            total[...] = w[..., -1]
            columns = columns[1:]
        for n in columns:
            total *= z
            total += w[..., n]
    out = total.real * total.real
    out += total.imag * total.imag
    out *= layout.n_dmas ** 2
    return out


@pytest.fixture(scope="session")
def reference_array_gain_dma():
    """The per-block beamformer_weight loop the kernel must match."""
    return _reference_array_gain_dma


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
    low = -1.5 * np.pi              # the interval is [-3pi/2, pi/2)
    f_r = []
    for k in range(n):
        raw = -0.5 * np.pi * sign + 2.0 * np.pi * p * (k - (n - 1) / 2.0)
        pt = float(np.mod(raw - low, 2.0 * np.pi) + low)
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


def _reference_grid_max_gain(design, phi, f_t, points):
    """The grid oracle's maximum by pairing two half walks.

    Each half's candidates come from the two-polygon Minkowski walk of
    its elements' rotated grid weights (the polygon itself for one
    element, the origin for none), and every candidate of one half is
    added to every candidate of the other: up to 400^2 sums at P = 200.
    Each sum is (v_0 + v_1) + (v_2 + v_3) for N = 4, as the single walk
    adds it.
    """
    from dmabeam.oracle import (_edge_angles, _from_lowest, _raw_channel,
                                _raw_weight)
    n = design.n_elements
    weights = _raw_weight(design, db.resonance_grid(design, f_t, points), f_t)
    h = _raw_channel(design, phi, f_t)

    def half(indices):
        polygons = [_from_lowest(weights * h[i]) for i in indices]
        if not polygons:
            return np.zeros(1, dtype=complex)
        if len(polygons) == 1:
            return polygons[0]
        a, b = polygons
        order = np.argsort(np.concatenate([_edge_angles(a), _edge_angles(b)]),
                           kind="stable")[:-1]
        from_a = order < a.size
        i = np.concatenate([[0], np.cumsum(from_a)]) % a.size
        j = np.concatenate([[0], np.cumsum(~from_a)]) % b.size
        return a[i] + b[j]

    sums = np.add.outer(half(range(n // 2)), half(range(n // 2, n)))
    return float(np.max(np.abs(sums) ** 2))


@pytest.fixture(scope="session")
def reference_grid_max_gain():
    """The all-pairs search of two half walks the single walk must match."""
    return _reference_grid_max_gain


def _reference_grid_walk(design, phi, f_t, points):
    """The grid oracle's walk for one draw, one 1-d polygon per element.

    Each polygon starts at its lexsort-lowest vertex; the N polygons'
    edge angles are merged by one stable argsort, and each candidate is
    added up as sum(first half, 0j) + sum(second half, 0j).  The batched
    walk must give this float bit for bit, row by row.
    """
    from dmabeam.oracle import _raw_channel, _raw_weight
    n = design.n_elements
    weights = _raw_weight(design, db.resonance_grid(design, f_t, points), f_t)
    polygons = []
    for h in _raw_channel(design, phi, f_t):
        turned = weights * h
        start = int(np.lexsort((turned.real, turned.imag))[0])
        polygons.append(np.roll(turned, -start))
    angles = []
    for q in polygons:
        edges = np.roll(q, -1) - q
        a = np.arctan2(edges.imag, edges.real)
        angles.append(np.where(a < 0.0, a + 2.0 * np.pi, a))
    order = np.argsort(np.concatenate(angles), kind="stable")[:-1]
    owner = np.repeat(np.arange(n), points)[order]
    walk = np.zeros((n, order.size + 1), dtype=np.intp)
    np.cumsum(owner == np.arange(n)[:, None], axis=1, out=walk[:, 1:])
    vertices = [q[k % q.size] for q, k in zip(polygons, walk)]
    sums = sum(vertices[:n // 2], 0j) + sum(vertices[n // 2:], 0j)
    return float(np.max(np.abs(sums) ** 2))


@pytest.fixture(scope="session")
def reference_grid_walk():
    """The one-draw walk each row of the batched grid oracle must equal."""
    return _reference_grid_walk


def _reference_enumerate_binary(design, phi, f_c):
    """The binary oracle as a plain double loop over masks and elements.

    Python complex sums with explicit bit tests, element 1 as the most
    significant bit, abs(total) ** 2 as the gain and strict improvement,
    so the lexicographically smallest maximizer wins.  Returns the (N,)
    int8 mask and the float gain the array enumeration must give bit for
    bit.
    """
    from dmabeam.oracle import _raw_channel
    n = design.n_elements
    h = _raw_channel(design, phi, f_c)
    best_gain = -1.0
    best_mask = 0
    for mask in range(1 << n):
        total = 0j
        for element in range(n):
            if (mask >> (n - 1 - element)) & 1:
                total += h[element]
        gain = abs(total) ** 2
        if gain > best_gain:
            best_gain = gain
            best_mask = mask
    bits = np.array([(best_mask >> (n - 1 - e)) & 1 for e in range(n)],
                    dtype=np.int8)
    return bits, float(best_gain)


@pytest.fixture(scope="session")
def reference_enumerate_binary():
    """The double loop each row of the binary oracle must equal."""
    return _reference_enumerate_binary
