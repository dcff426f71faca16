"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints a single summary line so a plain ``pytest -v`` run reads
as a checklist.  Tolerances are part of the contract and are asserted
exactly as stated — no looser, no tighter.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

import dmabeam as db
import dmabeam.cli as cli

F_C = 15e9


def _announce(name, detail):
    print(f"PASS  {name}  ({detail})")


def test_01_optimal_operating_frequency(design):
    t0 = time.perf_counter()
    op = db.optimal_operating_freq(design, np.radians(-18.0))
    elapsed = time.perf_counter() - t0
    assert abs(op.f_t_star - 16.43e9) <= 10e6
    assert elapsed < 1.0
    _announce("optimal operating frequency",
              f"f* = {op.f_t_star / 1e9:.6f} GHz, target 16.43 +/- 0.01, "
              f"{elapsed:.3f} s")


def test_02_three_db_bandwidth(design):
    t0 = time.perf_counter()
    op = db.optimal_operating_freq(design, np.radians(-18.0))
    cut = db.cutoff_frequencies(design, op.f_t_star, nu=0.5)
    elapsed = time.perf_counter() - t0
    assert cut.bandwidth == pytest.approx(300e6, rel=0.02)
    gap = abs(cut.bandwidth - cut.approx_bandwidth) / cut.bandwidth
    assert gap <= 1e-3
    assert elapsed < 1.0
    _announce("3 dB bandwidth",
              f"{cut.bandwidth / 1e6:.4f} MHz, exact-vs-approx gap "
              f"{gap:.2e}, {elapsed:.3f} s")


def test_03_crossover_angle(design):
    phi_c = float(np.degrees(db.crossover_angle(design, F_C)))
    assert phi_c == pytest.approx(-5.74, abs=0.05)
    _announce("crossover angle", f"phi_c = {phi_c:.4f} deg, target -5.74 +/- 0.05")


def test_04_sector_design_round_trip(design):
    sector = db.design_sector(np.radians(-30.0), np.radians(30.0), 12e9, 18e9)
    assert sector.n_g_star == pytest.approx(2.5, abs=1e-12)
    lam_c = db.CONSTANTS.c / F_C
    assert sector.d_y_star / lam_c == pytest.approx(0.42, abs=0.005)

    designed = dataclasses.replace(design, spacing=sector.d_y_star,
                                   refractive_index=sector.n_g_star)
    n_sq = designed.n_elements ** 2
    worst = 0.0
    for phi in np.linspace(np.radians(-30.0), np.radians(30.0), 100):
        op = db.optimal_operating_freq(designed, float(phi))
        sol = db.solve_p1a(designed, float(phi), op.f_t_star)
        realized = db.array_gain_dma(db.ArrayLayout(1, designed),
                                     sol.resonances, float(phi),
                                     op.f_t_star)
        worst = max(worst, abs(realized - n_sq) / n_sq)
    assert worst <= 1e-6
    _announce("sector design round trip",
              f"n_g* = {sector.n_g_star:.12f}, d_y* = "
              f"{sector.d_y_star / lam_c:.4f} lambda_c, worst gain "
              f"deviation {worst:.2e} over 100 angles")


def test_05_codebook_reproduction(design):
    phi_max = np.radians(30.0)

    cb8 = db.build_codebook(design, -phi_max, phi_max, 10.0 ** (-3.0 / 10.0))
    got8 = np.degrees(cb8.sector_angles)
    want8 = (-22.83, -7.9, 8.21, 27.16)
    assert got8 == pytest.approx(want8, abs=0.05)

    design4 = dataclasses.replace(design, n_elements=4)
    cb4 = db.build_codebook(design4, -phi_max, phi_max, 10.0 ** (-0.6 / 10.0))
    got4 = np.degrees(cb4.sector_angles)
    want4 = (-23.33, -9.51, 5.22, 22.04)
    assert got4 == pytest.approx(want4, abs=0.05)

    width = db.psi_delta(8, 0.5)
    assert width == pytest.approx(0.056, rel=0.01)
    _announce("codebook reproduction",
              f"angles(8): {np.array2string(got8, precision=3)}, "
              f"angles(4): {np.array2string(got4, precision=3)}, "
              f"psi_0.5(8) = {width:.5f}")


def test_06_grid_oracle_equivalence(design):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    gaps = []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        phi = float(rng.uniform(-np.pi / 3, np.pi / 3))
        f_t = float(rng.uniform(13e9, 17e9))
        sub = dataclasses.replace(design, n_elements=n)
        closed = db.solve_p1a(sub, phi, f_t).gain
        grid = db.grid_max_gain(sub, phi, f_t, 200)
        assert grid <= closed * (1.0 + 1e-9)
        gaps.append((closed - grid) / closed)
    elapsed = time.perf_counter() - t0
    assert max(gaps) <= 1e-3
    assert elapsed < 300.0
    _announce("grid oracle equivalence",
              f"20 draws, relative gap in [{min(gaps):.2e}, {max(gaps):.2e}], "
              f"{elapsed:.2f} s")


def test_07_training_gain_floor(design):
    layout, codebook = db.training_layout(design, 4, np.radians(-30.0),
                                          np.radians(30.0), 0.5)
    pilots = db.pilot_grid(design, 256, include=codebook.sector_freqs)
    n_max = (design.n_elements * layout.n_dmas) ** 2
    floor = codebook.delta * n_max * (1.0 - 1e-6)
    worst = np.inf
    for phi in np.linspace(np.radians(-30.0), np.radians(30.0), 500):
        got = db.probe(layout, codebook, float(phi), pilots).gain_at_estimate
        worst = min(worst, got)
        assert got >= floor
    _announce("training gain floor",
              f"worst {worst:.4f} >= floor {floor:.4f} over 500 angles")


def test_08_binary_weight_trends(design):
    phi_c = db.crossover_angle(design, F_C)
    cont_c = db.solve_p1a(design, phi_c, F_C).gain
    bin_c = db.solve_p4(design, phi_c, F_C).gain
    assert cont_c == pytest.approx(64.0, rel=1e-12)
    assert bin_c == pytest.approx(64.0, rel=1e-12)

    # The continuous side is the optimum value, which stays defined on the
    # narrow angular sliver where realizing it needs an infinite resonance.
    worst_gap = np.inf
    for phi_deg in np.arange(-90.0, 90.0 + 0.25, 0.5):
        if -14.0 <= phi_deg <= 2.0:
            continue
        phi = float(np.radians(phi_deg))
        cont = (design.n_elements
                + abs(db.dirichlet_kernel(design, phi, F_C))) ** 2 / 4
        binary = db.solve_p4(design, phi, F_C).gain
        gap_db = 10.0 * np.log10(cont / binary)
        worst_gap = min(worst_gap, gap_db)
        assert gap_db >= 1.8
    _announce("binary weight trends",
              f"gain {bin_c:.1f} = {cont_c:.1f} at crossover, worst gap "
              f"{worst_gap:.3f} dB >= 1.8 outside [-14, 2] deg")


def test_09_rate_orderings(design):
    t0 = time.perf_counter()
    lo, hi = np.radians(-30.0), np.radians(30.0)
    layout, codebook = db.training_layout(design, 4, lo, hi, 0.5)
    budget = db.LinkBudget(tx_power=0.25, distance=500.0, noise_temp=290.0,
                           bandwidth=0.3e9, n_subcarriers=64)

    bandwidths = tuple(b * 1e9 for b in (0.01, 0.05, 0.1, 0.3, 0.5, 1.0))
    per_b = db.bandwidth_sweep(layout, codebook, budget, bandwidths,
                               lo, hi, 181)
    for b, r in zip(bandwidths, per_b):
        slack = 1e-9 * r.ttd
        assert r.fixed <= r.trained + slack
        assert r.trained <= r.perfect + slack
        assert r.perfect <= r.ttd + slack
        if b <= 0.3e9 + 1.0:
            assert r.trained / r.perfect >= 0.85
    gap = {b: (r.ttd - r.perfect) / r.ttd for b, r in zip(bandwidths, per_b)}
    assert gap[0.3e9] <= gap[1.0e9]

    points = db.tuning_range_sweep(design, 4, 2.5, 0.5, budget,
                                   (2e9, 3e9, 5e9, 6e9), 181)
    for p in points:
        slack = 1e-9 * p.rates.ttd
        assert p.rates.fixed <= p.rates.trained + slack
        assert p.rates.trained <= p.rates.perfect + slack
        assert p.rates.perfect <= p.rates.ttd + slack
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce("rate orderings",
              f"fixed <= trained <= perfect <= ttd at {len(per_b)} bandwidths "
              f"and {len(points)} tuning ranges, ttd gap "
              f"{gap[0.3e9]:.4f} -> {gap[1.0e9]:.4f}, {elapsed:.1f} s")


def test_10_invariant_suite(design, tmp_path):
    rng = np.random.default_rng(7)

    # Element weights live on the circle |w + j/2| = 1/2.
    f_r = rng.uniform(0.3 * F_C, 3.0 * F_C, 200)
    f = rng.uniform(design.f_min, design.f_max, 200)
    w = db.beamformer_weight(design, f_r, f)
    assert np.abs(np.abs(w + 0.5j) - 0.5).max() < 1e-12

    # Channel entries are pure phases.
    for phi_deg in (-41.0, 0.0, 17.5):
        h = db.effective_channel(design, np.radians(phi_deg), 14.2e9)
        assert np.abs(np.abs(h) - 1.0).max() < 1e-12

    # Dirichlet kernel at integer p reaches the coherent limit.
    for n in range(1, 7):
        for k in range(-2, 4):
            want = n * (-1.0) ** (k * (n - 1))
            assert db.dirichlet_of_p(float(k), n) == pytest.approx(want,
                                                                   rel=1e-12)

    # Two identical runs produce byte-identical artifacts.
    scn = tmp_path / "tiny.scn"
    scn.write_text("sweep.freq_points = 64\nsweep.gain_angle_points = 25\n")
    outs = [str(tmp_path / d) for d in ("a", "b")]
    for out in outs:
        for cmd in ("design", "freq-response", "gain-sweep"):
            assert cli.main([cmd, "--scenario", str(scn), "--out", out]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name
    _announce("invariant suite",
              "circle, unit-modulus channel, Dirichlet limits, "
              f"determinism over {len(names)} files")
