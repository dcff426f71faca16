"""Experiment runner.

Subcommands map to the standard experiments: ``design`` resolves the
sector design rule, ``coverage`` tabulates steerable range vs tuning
range, ``freq-response`` sweeps gain over frequency at one angle,
``gain-sweep`` compares gain strategies over angle, ``train`` builds the
codebook and runs the training staircase, ``rate`` runs the achievable
rate sweeps, and ``verify`` cross-checks closed forms against brute
force.

Outputs are deterministic: identical scenario plus flags produce
byte-identical files.  CSV columns carry units in the header and every
file starts with the scenario fingerprint.  A command only computes: it
returns a ``CommandResult`` and ``main`` writes it, so a run that fails
writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .array_training import (ArrayLayout, array_gain_dma, pilot_grid, probe,
                             training_layout)
from .bandwidth_analysis import (array_cutoff_frequencies, array_gain,
                                 cutoff_frequencies, element_gain)
from .binary_tuning import solve_p4
from .core_model import CONSTANTS, DmaDesign
from .errors import (CoverageInfeasibleError, CutoffError, DmaError,
                     InvalidEstimateError, ScenarioError, SingularityError)
from .frequency_planner import (crossover_angle, design_sector,
                                max_coverage_angle, optimal_operating_freq)
from .gain_optimizer import solve_p1a
from .link_rate import (LinkBudget, angle_grid, bandwidth_sweep,
                        tuning_range_sweep)
from .oracle import (GRID_MAX_ELEMENTS, binary_mask_gain, dense_p_scan,
                     enumerate_binary, grid_max_gain)
from .scenario import (AUTO, Scenario, check_domain, fingerprint,
                       load_scenario, scenario_to_text)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4

# verify's binary check enumerates all 2^N masks per angle in Python
# (oracle.enumerate_binary), so a larger design is checked on a reduced
# array of this many elements: about 0.015 s an angle at 12 elements,
# 0.3 s at 16 and 4 s at the oracle's own cap of 20.
VERIFY_BINARY_ELEMENTS = 12

_INFEASIBLE = (CoverageInfeasibleError, SingularityError, CutoffError,
               InvalidEstimateError)


# ----------------------------------------------------------------- plumbing

def _cells(column) -> list:
    """A table column's cells as text: an integer column as integers,
    any other with 12 significant digits."""
    if column.dtype.kind in "iu":
        return [str(x) for x in column.tolist()]
    return [f"{x:.11e}" for x in column.tolist()]


def _table_text(fp: str, columns, cells, fmt: str) -> str:
    """The text of a table from its columns' cells, in ``fmt``."""
    if fmt == "json":
        payload = {
            "scenario": fp,
            "columns": list(columns),
            "rows": [list(row) for row in zip(*cells)],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# scenario = {fp}", ",".join(columns)]
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


def _write_table(path: str, fp: str, columns, data, fmt: str) -> None:
    """Write a table given as one 1-d array per column, formatting each
    column at once; the cells are freed before the text is written."""
    text = _table_text(fp, columns, [_cells(col) for col in data], fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report_nan_cells(command: str, columns, data, row_label: str) -> None:
    """Name on stderr each column holding NaN cells, the cells of
    infeasible angles, with their count and the first such row:
    ``row_label`` formatted with that row's first cell."""
    for name, col in zip(columns, data):
        nan = np.isnan(col)
        if nan.any():
            sys.stderr.write(
                f"{command}: {name}: {int(nan.sum())} NaN cells at "
                f"infeasible angles, the first at "
                f"{row_label.format(float(data[0][nan.argmax()]))}\n")


def _finite_or_null(value):
    """``value`` with each non-finite float, at any depth, as None:
    RFC 8259 JSON has no NaN or Infinity token."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _update_summary(outdir: str, fp: str, section: str, payload: dict) -> None:
    """Set one section of summary.json, replacing the file in one step.

    A reader never sees a half-written file: the new text goes to a
    temporary file in the same directory, which then replaces the old
    one.  An existing file that is not a JSON object is replaced, with a
    warning naming it.  Non-finite values are written as null.
    """
    path = os.path.join(outdir, "summary.json")
    summary = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError):
            summary = None
        if not isinstance(summary, dict):
            sys.stderr.write(f"warning: replacing unreadable {path}\n")
            summary = {}
    summary["scenario"] = fp
    summary[section] = payload
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@dataclasses.dataclass(frozen=True)
class CommandResult:
    """All that one command computed; ``main`` writes it under --out.

    ``tables`` holds (stem, columns, data, nan_label) per table, written
    to <stem>.<format>.  ``data`` holds one 1-d array per column, of
    floats, or of integers for a column of counts; a nan_label, formatted
    with a row's first cell, names the first NaN row of each column on
    stderr, and None skips that report.  ``files`` holds (name, text)
    pairs written verbatim.  ``summary`` is the command's section of
    summary.json.
    """

    summary: dict
    tables: tuple = ()
    files: tuple = ()
    code: int = EXIT_OK


def _write_result(args, fp: str, result: CommandResult) -> None:
    """Write a command's result under --out, each table headed by ``fp``."""
    os.makedirs(args.out, exist_ok=True)
    for name, text in result.files:
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for stem, columns, data, nan_label in result.tables:
        _write_table(os.path.join(args.out, f"{stem}.{args.format}"), fp,
                     columns, data, args.format)
        if nan_label is not None:
            _report_nan_cells(args.command, columns, data, nan_label)
    _update_summary(args.out, fp, args.command.replace("-", "_"),
                    result.summary)


def _resolve(scenario: Scenario):
    """Scenario -> (lossless DmaDesign, resolved Scenario); fills auto
    d_y / n_g.  Attenuated columns use a copy with the scenario's alpha."""
    s = scenario
    if s.d_y == AUTO or s.n_g == AUTO:
        sector = design_sector(s.phi_lower_rad, s.phi_upper_rad,
                               s.f_min_hz, s.f_max_hz)
        if s.n_g == AUTO and sector.n_g_star < 1.0:
            raise CoverageInfeasibleError(
                f"sector is too narrow for the band: the design rule gives "
                f"n_g = {sector.n_g_star:.4g}, below 1")
        if sector.n_g_star > s.n_g_max * (1.0 + 1e-12):
            raise CoverageInfeasibleError(
                f"sector needs n_g = {sector.n_g_star:.4g}, "
                f"cap is {s.n_g_max:.4g}")
        d_y = sector.d_y_star if s.d_y == AUTO else s.d_y
        n_g = sector.n_g_star if s.n_g == AUTO else s.n_g
        s = dataclasses.replace(s, d_y=d_y, n_g=n_g)
    check_domain(s)
    design = DmaDesign(
        n_elements=s.n_y,
        spacing=s.d_y,
        refractive_index=s.n_g,
        damping=s.damping_hz,
        coupling=s.coupling,
        f_min=s.f_min_hz,
        f_max=s.f_max_hz,
    )
    return design, s


def _layout_and_codebook(scenario: Scenario, design: DmaDesign):
    pinned = None if scenario.groups == AUTO else scenario.groups
    return training_layout(design, scenario.n_z, scenario.phi_lower_rad,
                           scenario.phi_upper_rad, scenario.delta,
                           n_sectors=pinned)


def _budget(scenario: Scenario) -> LinkBudget:
    return LinkBudget(
        tx_power=scenario.power,
        distance=scenario.distance,
        noise_temp=scenario.noise_temp,
        bandwidth=scenario.bandwidth_hz,
        n_subcarriers=scenario.subcarriers,
    )


def _db(x) -> np.ndarray:
    """10 log10 of each cell of a column; -inf where a cell is not
    positive, a NaN cell included."""
    x = np.asarray(x, dtype=float)
    positive = x > 0
    out = np.full(x.shape, -np.inf)
    out[positive] = 10.0 * np.log10(x[positive])
    return out


def _rate_columns(rates) -> list:
    """The fixed, trained, perfect and TTD columns of a list of
    RateComparison, one row per comparison."""
    return list(np.array([(r.fixed, r.trained, r.perfect, r.ttd)
                          for r in rates], dtype=float).T)


def _ordered(rates) -> bool:
    """Whether the rates that are not NaN are in non-decreasing order."""
    finite = [r for r in rates if not math.isnan(r)]
    return all(a <= b for a, b in zip(finite, finite[1:]))


# ----------------------------------------------------------------- commands

def cmd_design(design: DmaDesign, resolved: Scenario, args) -> CommandResult:
    sector = design_sector(resolved.phi_lower_rad, resolved.phi_upper_rad,
                           design.f_min, design.f_max)
    f_c = resolved.f_center_hz
    lam_c = CONSTANTS.c / f_c
    phi_c = float(np.degrees(crossover_angle(design, f_c)))
    reach = max_coverage_angle(resolved.n_g_max, design.f_max - design.f_min, f_c)
    text = scenario_to_text(resolved)
    sys.stdout.write(text)
    return CommandResult(files=(("scenario_resolved.txt", text),), summary={
        "n_g_star": sector.n_g_star,
        "d_y_star_m": sector.d_y_star,
        "d_y_star_wavelengths": sector.d_y_star / lam_c,
        "d_y_m": design.spacing,
        "n_g": design.refractive_index,
        "crossover_deg": phi_c,
        "phi_max_deg": float(np.degrees(reach.angle)),
        "phi_max_saturated": reach.saturated,
    })


def cmd_coverage(design: DmaDesign, resolved: Scenario, args) -> CommandResult:
    f_c = resolved.f_center_hz
    ratios = np.linspace(0.0, resolved.coverage_ratio_max,
                         resolved.coverage_points)
    columns = ["tuning_ratio(T_r/f_c)"] + [
        f"phi_max_ng_{g:g}(deg)" for g in resolved.coverage_n_g]

    data = [ratios] + [
        np.degrees([max_coverage_angle(g, ratio * f_c, f_c).angle
                    for ratio in ratios.tolist()])
        for g in resolved.coverage_n_g]
    anchor = max_coverage_angle(4.0, 0.25 * f_c, f_c)
    return CommandResult(tables=(("coverage", columns, data, None),), summary={
        "anchor_ng4_quarter_ratio_deg": float(np.degrees(anchor.angle)),
        "n_g_values": list(resolved.coverage_n_g),
    })


def cmd_freq_response(design: DmaDesign, resolved: Scenario,
                      args) -> CommandResult:
    phi = float(np.radians(args.phi))
    op = optimal_operating_freq(design, phi)
    solution = solve_p1a(design, phi, op.f_t_star)
    freqs = np.linspace(design.f_min, design.f_max, resolved.freq_points)
    n_sq = design.n_elements ** 2
    columns = ["f(GHz)", "gain_dma(linear)", "gain_dma(dB)",
               "element_factor(linear)", "array_factor(linear)",
               "gain_ttd(linear)"]
    res = solution.resonances
    gains = array_gain_dma(ArrayLayout(1, design), res, phi, freqs)
    cols = [freqs / 1e9, gains, _db(gains),
            element_gain(design, op.f_t_star, freqs),
            array_gain(design, phi, freqs), np.full(freqs.size, float(n_sq))]
    if resolved.attenuation:
        lossy = dataclasses.replace(design, attenuation=resolved.alpha)
        columns.append("gain_dma_attenuated(linear)")
        cols.append(array_gain_dma(ArrayLayout(1, lossy), res, phi, freqs))
    cut = cutoff_frequencies(design, op.f_t_star, nu=0.5)
    arr_lo, arr_hi = array_cutoff_frequencies(design, phi, op.f_t_star, nu=0.5)
    return CommandResult(
        tables=(("freq_response", columns, cols, "{:g} GHz"),), summary={
            "phi_deg": args.phi,
            "f_star_ghz": op.f_t_star / 1e9,
            "gain_at_peak": solution.gain,
            "element_f_lower_ghz": cut.f_lower / 1e9,
            "element_f_upper_ghz": cut.f_upper / 1e9,
            "element_bandwidth_mhz": cut.bandwidth / 1e6,
            "element_bandwidth_approx_mhz": cut.approx_bandwidth / 1e6,
            "array_f_lower_ghz": arr_lo / 1e9,
            "array_f_upper_ghz": arr_hi / 1e9,
        })


def cmd_gain_sweep(design: DmaDesign, resolved: Scenario,
                   args) -> CommandResult:
    f_c = resolved.f_center_hz
    angles = np.linspace(-90.0, 90.0, resolved.gain_angle_points)
    columns = ["phi(deg)", "f_star(GHz)",
               "gain_opt(linear)", "gain_opt(dB)",
               "gain_fixed(linear)", "gain_fixed(dB)",
               "gain_binary(linear)", "gain_binary(dB)"]
    phis = np.radians(angles)
    f_stars = optimal_operating_freq(design, phis).f_t_star
    opt = solve_p1a(design, phis, f_stars)
    fix = solve_p1a(design, phis, f_c)
    binary = solve_p4(design, phis, f_c).gain
    cols = [angles, f_stars / 1e9, opt.gain, _db(opt.gain),
            fix.gain, _db(fix.gain), binary, _db(binary)]
    if resolved.attenuation:
        lossy = dataclasses.replace(design, attenuation=resolved.alpha)
        columns += ["gain_opt_attenuated(linear)",
                    "gain_fixed_attenuated(linear)",
                    "gain_binary_attenuated(linear)"]
        for sol in (opt, fix):      # NaN rows of infeasible angles stay NaN
            cols.append(array_gain_dma(ArrayLayout(1, lossy), sol.resonances,
                                       phis, sol.operating_freq))
        cols.append(solve_p4(lossy, phis, f_c).gain)
    return CommandResult(
        tables=(("gain_sweep", columns, cols, "{:g} deg"),), summary={
            "crossover_deg": float(np.degrees(crossover_angle(design, f_c))),
            "max_gain": design.n_elements ** 2,
        })


def cmd_train(design: DmaDesign, resolved: Scenario, args) -> CommandResult:
    layout, codebook = _layout_and_codebook(resolved, design)
    n_max = (design.n_elements * layout.n_dmas) ** 2
    codebook_cols = [np.arange(1, len(codebook) + 1),
                     np.degrees(codebook.sector_angles),
                     codebook.sector_freqs / 1e9]

    # Sector frequencies alone as pilots: the staircase then shows one
    # plateau per sector instead of smearing across neighboring bins.
    pilots = np.sort(codebook.sector_freqs)
    sweep = angle_grid(resolved.phi_lower_rad, resolved.phi_upper_rad,
                       resolved.angle_samples)

    result = probe(layout, codebook, sweep, pilots)
    gains = result.gain_at_estimate
    cols = [np.degrees(sweep), result.f_k_star / 1e9,
            np.degrees(result.phi_hat), gains, gains / n_max]

    floor = codebook.delta * n_max * (1.0 - 1e-6)
    worst = float(np.min(gains))
    payload = {
        "n_sectors": len(codebook),
        "sector_angles_deg": [float(np.degrees(a))
                              for a in codebook.sector_angles],
        "sector_freqs_ghz": [float(f / 1e9) for f in codebook.sector_freqs],
        "delta_effective": codebook.delta,
        "psi_delta": codebook.psi_delta,
        "gain_floor": floor,
        "worst_gain": worst,
        "floor_respected": bool(worst >= floor),
    }
    if args.phi is not None:
        single = probe(layout, codebook, float(np.radians(args.phi)),
                       pilot_grid(design, resolved.k_tr,
                                  include=codebook.sector_freqs))
        payload["probe"] = {
            "phi_deg": args.phi,
            "k_star": single.k_star,
            "f_k_star_ghz": single.f_k_star / 1e9,
            "phi_hat_deg": float(np.degrees(single.phi_hat)),
            "gain": single.gain_at_estimate,
        }
    if worst < floor:
        sys.stderr.write(
            f"train: gain floor violated: {worst:.6g} < {floor:.6g}\n")
    tables = (
        ("codebook", ["sector", "angle(deg)", "f_t(GHz)"], codebook_cols,
         None),
        ("train", ["phi(deg)", "f_k_star(GHz)", "phi_hat(deg)",
                   "gain(linear)", "gain_normalized(linear)"], cols, None))
    return CommandResult(tables=tables, summary=payload,
                         code=EXIT_OK if worst >= floor else EXIT_VERIFICATION)


def cmd_rate(design: DmaDesign, resolved: Scenario, args) -> CommandResult:
    budget = _budget(resolved)
    columns = ["rate_fixed(bit/s)", "rate_trained(bit/s)",
               "rate_perfect(bit/s)", "rate_ttd(bit/s)"]

    # The tuning sweep runs first: it rejects a saturated range before
    # any codebook or sweep is computed.
    points = tuning_range_sweep(design, resolved.n_z, resolved.n_g_max,
                                resolved.delta, budget,
                                resolved.tuning_ranges_hz,
                                resolved.angle_samples)
    layout, codebook = _layout_and_codebook(resolved, design)
    rates = bandwidth_sweep(layout, codebook, budget, resolved.bandwidths_hz,
                            resolved.phi_lower_rad, resolved.phi_upper_rad,
                            resolved.angle_samples)
    b_rates = _rate_columns(rates)
    t_rates = _rate_columns([p.rates for p in points])
    bandwidths = np.array(resolved.bandwidths_hz) / 1e9
    tuning_ranges = np.array([p.tuning_range for p in points]) / 1e9
    b_data = [bandwidths] + b_rates
    b_columns = ["bandwidth(GHz)"] + columns
    t_data = [tuning_ranges, np.degrees([p.phi_max for p in points]),
              np.array([p.n_sectors for p in points])] + t_rates
    t_columns = ["tuning_range(GHz)", "phi_max(deg)", "n_sectors"] + columns
    ordered = all(_ordered(row) for cols in (b_rates, t_rates)
                  for row in zip(*cols))
    tables = (("rate_bandwidth", b_columns, b_data, "bandwidth {:g} GHz"),
              ("rate_tuning", t_columns, t_data, "tuning range {:g} GHz"))
    return CommandResult(tables=tables, summary={
        "ordering_fixed_trained_perfect_ttd": bool(ordered),
        "bandwidths_ghz": bandwidths.tolist(),
        "tuning_ranges_ghz": tuning_ranges.tolist(),
    })


def cmd_verify(design: DmaDesign, resolved: Scenario, args) -> CommandResult:
    checks = []

    if design.n_elements > GRID_MAX_ELEMENTS:
        sys.stdout.write(
            f"note: grid oracle capped at {GRID_MAX_ELEMENTS} elements; "
            f"configured N_y = {design.n_elements} checked via reduced "
            f"arrays\n")
    rng = np.random.default_rng(12345)
    gaps = []
    # The draws keep 1 GHz off the band edges, less on a band narrower
    # than 6 GHz.  An infeasible draw is skipped, not redrawn: the rng
    # stream, and with it the binary check's angles, stay fixed.
    margin = min(1e9, (design.f_max - design.f_min) / 6.0)
    for _ in range(20):
        n = int(rng.integers(
            1, min(GRID_MAX_ELEMENTS, design.n_elements) + 1))
        phi = rng.uniform(-np.pi / 3, np.pi / 3)
        f_t = rng.uniform(design.f_min + margin, design.f_max - margin)
        sub = dataclasses.replace(design, n_elements=n)
        closed = solve_p1a(sub, phi, f_t)
        if not closed.feasible:
            continue
        grid = grid_max_gain(sub, phi, f_t, 200)
        gaps.append((closed.gain - grid) / closed.gain)
    detail = f"worst relative gap {max(gaps):.3e}" if gaps else "no draw compared"
    if len(gaps) < 20:
        detail += f"; {20 - len(gaps)} of 20 draws infeasible, skipped"
    checks.append(("closed form vs resonance grid",
                   bool(gaps) and min(gaps) >= -1e-9 and max(gaps) <= 1e-3,
                   detail))

    # Values, not argmax locations, are compared: a flat objective (N_y = 1)
    # ties every p.  The scan may not beat the planner's |S|, and falls
    # short by at most the slope bound pi N^2 times one scan step.
    scan_ok, scan_detail = True, []
    for phi_deg in (-18.0, -5.0, 10.0):
        phi = float(np.radians(phi_deg))
        op = optimal_operating_freq(design, phi)
        _, objective = dense_p_scan(design, phi, 10 ** 6)
        step = design.spacing * (design.refractive_index + np.sin(phi)) \
            * (design.f_max - design.f_min) / CONSTANTS.c / (10 ** 6 - 1)
        s_closed = 2.0 * np.sqrt(op.gain) - design.n_elements
        slack = np.pi * design.n_elements ** 2 * step
        scan_ok &= s_closed - slack <= objective <= s_closed + 1e-9
        scan_detail.append(
            f"{phi_deg:g} deg: |S| gap = {s_closed - objective:.2e}")
    checks.append(("planner vs dense scan", bool(scan_ok),
                   "; ".join(scan_detail)))

    f_c = resolved.f_center_hz
    bin_design = design
    if design.n_elements > VERIFY_BINARY_ELEMENTS:
        sys.stdout.write(
            f"note: binary oracle capped at {VERIFY_BINARY_ELEMENTS} "
            f"elements; configured N_y = {design.n_elements} checked via a "
            f"reduced array\n")
        bin_design = dataclasses.replace(
            design, n_elements=VERIFY_BINARY_ELEMENTS)
    bin_ok = True
    # A design with no crossover checks the random angles alone.
    phi_c = crossover_angle(bin_design, f_c)
    angles = ([] if math.isnan(phi_c) else [phi_c]) + \
        list(rng.uniform(-np.pi / 3, np.pi / 3, 3))
    fast = solve_p4(bin_design, np.array(angles, dtype=float), f_c)
    # Masks that tie to within rounding are all optimal, so the check is
    # on gains: the reported one and the fast mask's own, recomputed.
    for phi, mask, gain in zip(angles, fast.mask, fast.gain.tolist()):
        slow = enumerate_binary(bin_design, float(phi), f_c)
        own = binary_mask_gain(bin_design, float(phi), f_c, mask)
        bin_ok &= math.isclose(gain, slow.gain, rel_tol=1e-9)
        bin_ok &= math.isclose(own, slow.gain, rel_tol=1e-9)
    checks.append(("binary solver vs plain enumeration", bool(bin_ok),
                   f"{len(angles)} instances"))

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})\n")
    return CommandResult(
        summary={name: {"pass": bool(ok), "detail": detail}
                 for name, ok, detail in checks},
        code=EXIT_OK if all_ok else EXIT_VERIFICATION)


# --------------------------------------------------------------- entry point

_COMMANDS = {
    "design": cmd_design,
    "coverage": cmd_coverage,
    "freq-response": cmd_freq_response,
    "gain-sweep": cmd_gain_sweep,
    "train": cmd_train,
    "rate": cmd_rate,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmabeam",
        description="Frequency-selective DMA beamforming experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--scenario", help="key-value scenario file "
                       "(defaults reproduce the reference setup)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--attenuation", choices=("on", "off"),
                       help="override the scenario's waveguide attenuation")
        if name in ("freq-response", "train"):
            default = -18.0 if name == "freq-response" else None
            p.add_argument("--phi", type=float, default=default,
                           help="angle of departure in degrees")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario) if args.scenario else Scenario()
        if args.attenuation is not None:
            scenario = dataclasses.replace(scenario,
                                           attenuation=args.attenuation == "on")
        design, resolved = _resolve(scenario)
        result = _COMMANDS[args.command](design, resolved, args)
    except ScenarioError as err:
        sys.stderr.write(f"error: invalid scenario: {err}\n")
        return EXIT_CONFIG
    except _INFEASIBLE as err:
        sys.stderr.write(f"error: infeasible design: {err}\n")
        return EXIT_INFEASIBLE
    except DmaError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_CONFIG
    # Nothing is written before the command has computed all of it: a
    # run that raises leaves --out as it found it.
    _write_result(args, fingerprint(resolved), result)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
