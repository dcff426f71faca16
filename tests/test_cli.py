"""Command-line interface: outputs, formats, exit codes, determinism."""

import collections
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmabeam as db
import dmabeam.cli as cli
import dmabeam.scenario as scenario
from dmabeam.bandwidth_analysis import ARRAY_CUTOFF_TOL

TINY = """\
design.n_y = 8
design.n_z = 4
budget.subcarriers = 8
training.k_tr = 32
sweep.angle_samples = 3
sweep.freq_points = 16
sweep.gain_angle_points = 13
sweep.coverage_points = 5
sweep.bandwidths = 0.1, 0.3
sweep.tuning_ranges = 2.0, 3.0
"""

CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$|^-?\d+$|^-?inf$|^nan$")


@pytest.fixture()
def scn(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY)
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def reject_constant(name):
    raise ValueError(f"summary.json holds the non-standard token {name}")


def read_summary(out):
    """summary.json, parsed as strict JSON: a NaN or Infinity token fails."""
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh, parse_constant=reject_constant)


# The tables each command writes; train and rate write two.
TABLES = {"coverage": ["coverage"], "freq-response": ["freq_response"],
          "gain-sweep": ["gain_sweep"], "train": ["codebook", "train"],
          "rate": ["rate_bandwidth", "rate_tuning"]}


Run = collections.namedtuple("Run", "id scenario argv code out err",
                             defaults=(0, (), ()))
LOWQ = "design.q_factor = 1\n"
WIDE = "design.n_y = 128\ndesign.attenuation = on\n"
PROBE_FAILS = "design.n_g = 3\ndesign.d_y = 0.02\n"
WIDE_SECTOR = "sector.phi_lower = -80\nsector.phi_upper = 80\n"

# The CLI scenario runs: id, scenario text (None: the defaults), command
# line, exit code, and substrings that stdout and stderr must hold.
RUNS = [
    # The default JSON tables and their CSV; gain-sweep's hold NaN, -inf.
    Run("gain-sweep-json", None, "gain-sweep --format json"),
    Run("train-json", None, "train --phi 10 --format json"),
    Run("rate-json", None, "rate --format json"),
    # Q = 1: weights far from resonance; 60 deg is infeasible (NaN gains).
    Run("freq-response-q1", LOWQ, "freq-response --phi -18"),
    Run("freq-response-q1-60deg", LOWQ, "freq-response --phi 60"),
    # The Q domain's edges: the grid oracle walks the longest weight arc.
    Run("verify-q0.1", "design.q_factor = 0.1\n", "verify"),
    Run("verify-q1e6", "design.q_factor = 1e6\n", "verify"),
    # Up to 38 tied binary arcs per angle; a lossy step of modulus below 1;
    # verify's binary check on 12 elements, not the oracle's cap of 20.
    Run("gain-sweep-ny128-lossy", WIDE, "gain-sweep"),
    Run("freq-response-ny128-lossy", WIDE, "freq-response --phi -18"),
    Run("verify-ny128-lossy", WIDE, "verify",
        out=("binary oracle capped at 12 elements",)),
    # Two waveguides per training sector: the probe's group factor 4.
    Run("train-nz8", "design.n_z = 8\n", "train --phi 10"),
    Run("rate-nz8", "design.n_z = 8\n", "rate"),
    # n_g = 1: element 1's phase is -0.0 at -90 deg; with no crossover the
    # binary check runs on its three random angles alone.
    Run("gain-sweep-ng1", "design.n_g = 1\ndesign.attenuation = on\n",
        "gain-sweep"),
    Run("verify-ng1", "design.n_g = 1\n", "verify",
        out=("binary solver vs plain enumeration  (3 instances)",)),
    # Two mirrored sidelobe tops tie past about 78 deg.
    Run("gain-sweep-ny5", "design.n_y = 5\n", "gain-sweep"),
    Run("verify-ny5", "design.n_y = 5\n", "verify"),
    # The dense scan's block bounds: 1 / sin(pi d) at N_y = 1, where every
    # p ties; the mainlobe floor, 1 at N_y = 2 and the sidelobe bound at 3;
    # p near 1 at 9; the whole p range below 2e-298 at d_y = 1e-300.
    Run("verify-ny1", "design.n_y = 1\n", "verify"),
    Run("verify-ny2", "design.n_y = 2\n", "verify"),
    Run("verify-ny3", "design.n_y = 3\n", "verify"),
    Run("verify-ny9", "design.n_y = 9\n", "verify"),
    Run("verify-dy1e-300", "design.d_y = 1e-300\n", "verify"),
    # Draws a sixth of a 1 GHz band off each edge; masks tied within an ulp.
    Run("verify-narrow-band", "design.f_min = 14.5\ndesign.f_max = 15.5\n"
        "design.n_g_max = 20\n", "verify"),
    Run("verify-binary-tie", WIDE_SECTOR + "design.n_g_max = 50\n", "verify"),
    # Array cutoffs: at Q = 0.12 and -85 deg the first crossings lie past
    # the element cutoffs; where D_N is flat (one slot, p near 0, n_g = 1 at
    # -90 deg) the response at a bracket end need not fall below half.
    Run("freq-response-q0.12-85deg", "design.q_factor = 0.12\n",
        "freq-response --phi -85"),
    Run("freq-response-ny1", "design.n_y = 1\n", "freq-response --phi -18"),
    Run("freq-response-dy1e-300", "design.d_y = 1e-300\n",
        "freq-response --phi -18"),
    Run("freq-response-ng1-90deg", "design.n_g = 1\n",
        "freq-response --phi -90"),
    # Invalid scenarios, each count's ceiling + 1 included.
    Run("design-n_y-negative", "design.n_y = -3\n", "design", 2),
    Run("verify-f_max-inf", "design.f_max = inf\n", "verify", 2,
        err=("design.f_max: not a finite number",)),
    Run("rate-distance-1e-300", "budget.distance = 1e-300\n", "rate", 2,
        err=("below one wavelength",)),
    Run("rate-gamma-1e-300", "design.gamma = 1e-300\n", "rate", 2,
        err=("Q = 2 pi f_c / gamma at 9.42e+301",)),
    Run("rate-q-1e-300", "design.q_factor = 1e-300\n", "rate", 2,
        err=("Q = 2 pi f_c / gamma at 1e-300",)),
    Run("freq_points-ceiling", "sweep.freq_points = 1000001\n",
        "freq-response", 2, err=("sweep.freq_points must lie in [2, 1e6]",)),
    Run("coverage_points-ceiling", "sweep.coverage_points = 1000001\n",
        "coverage", 2, err=("sweep.coverage_points must lie in [2, 1e6]",)),
    Run("gain_angle_points-ceiling", "sweep.gain_angle_points = 100001\n",
        "gain-sweep", 2,
        err=("sweep.gain_angle_points must lie in [2, 1e5]",)),
    Run("angle_samples-ceiling", "sweep.angle_samples = 100001\n", "train",
        2, err=("sweep.angle_samples must lie in [1, 1e5]",)),
    Run("k_tr-ceiling", "training.k_tr = 1000001\n", "train --phi 10", 2,
        err=("training.k_tr must lie in [2, 1e6]",)),
    Run("subcarriers-ceiling", "budget.subcarriers = 5525\n", "rate", 2,
        err=("sweep.angle_samples * budget.subcarriers = 1000025 is above",)),
    # The scenario alone sets the attenuation: argparse rejects the option.
    Run("gain-sweep-attenuation-option", None, "gain-sweep --attenuation on",
        2, err=("unrecognized arguments: --attenuation on",)),
    # Infeasible: a sector too wide or narrow; a pilot's estimate outside
    # the visible region.
    Run("design-sector-80deg", WIDE_SECTOR, "design", 3),
    Run("design-sector-5deg", "sector.phi_lower = -5\nsector.phi_upper = 5\n",
        "design", 3, err=("sector is too narrow for the band",)),
    Run("train-probe-fails", PROBE_FAILS, "train --phi 10", 3),
    Run("rate-probe-fails", PROBE_FAILS, "rate", 3),
]


@pytest.mark.parametrize("run", RUNS, ids=[run.id for run in RUNS])
def test_scenario_run(tmp_path, capsys, run):
    """The run's exit code and output substrings, with no RuntimeWarning
    and no FAIL unless expected.  Exit 2 or 3 prints one error and nothing
    on stdout, and creates no --out.  Otherwise summary.json and any JSON
    table are strict JSON, a table's rows as long as its columns and its
    CSV the same lines, and a passing verify prints three PASS lines.
    An argparse error prints its usage text before its one error line."""
    out = tmp_path / "run"
    argv = run.argv.split() + ["--out", str(out)]
    if run.scenario is not None:
        (tmp_path / "run.scn").write_text(run.scenario)
        argv += ["--scenario", str(tmp_path / "run.scn")]
    try:
        code, usage = run_cli(*argv), ""
    except SystemExit as exc:
        code, usage = exc.code, cli.build_parser(argv[0]).format_usage()
    assert code == run.code
    captured = capsys.readouterr()
    assert all(part in captured.out for part in run.out)
    assert all(part in captured.err for part in run.err)
    assert "FAIL" not in captured.out or any("FAIL" in p for p in run.out)
    if run.code in (cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE):
        assert captured.out == "" and captured.err.startswith(usage)
        error = captured.err[len(usage):]
        assert error.startswith("dmabeam: error: " if usage else "error: ")
        assert error.count("\n") == 1 and not out.exists()
        return
    read_summary(str(out))
    if argv[0] == "verify":
        assert captured.out.count("PASS") == 3 == len(
            re.findall("^PASS ", captured.out, re.MULTILINE))
    if "json" in argv:
        assert run_cli(*argv, "--format", "csv") == run.code
        for stem in TABLES[argv[0]]:
            table = out / f"{stem}.json"
            doc = json.loads(table.read_text(), parse_constant=reject_constant)
            assert all(len(row) == len(doc["columns"]) for row in doc["rows"])
            assert table.with_suffix(".csv").read_text().splitlines() == [
                f"# scenario = {doc['scenario']}", ",".join(doc["columns"])
            ] + [",".join(row) for row in doc["rows"]]


def test_design_writes_summary_and_resolved_scenario(scn, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("design", "--scenario", scn, "--out", out) == 0
    assert "design.n_g = " in capsys.readouterr().out
    resolved = scenario.parse_scenario(
        open(os.path.join(out, "scenario_resolved.txt")).read())
    assert resolved.d_y == pytest.approx(1.0 / 120.0, rel=1e-12)
    assert resolved.n_g == pytest.approx(2.5, abs=1e-12)
    summary = read_summary(out)
    assert summary["design"]["crossover_deg"] == pytest.approx(-5.739170477266791)
    assert summary["design"]["phi_max_deg"] == pytest.approx(30.0, abs=1e-9)


def test_all_commands_run_and_merge_the_summary(scn, tmp_path):
    out = str(tmp_path / "run")
    for cmd in ("design", "coverage", "freq-response", "gain-sweep",
                "train", "rate", "verify"):
        assert run_cli(cmd, "--scenario", scn, "--out", out) == 0
    summary = read_summary(out)
    for key in ("design", "coverage", "freq_response", "gain_sweep",
                "train", "rate", "verify"):
        assert key in summary
    assert summary["rate"]["ordering_fixed_trained_perfect_ttd"] is True
    assert summary["train"]["floor_respected"] is True
    for name in ("coverage.csv", "freq_response.csv", "gain_sweep.csv",
                 "codebook.csv", "train.csv", "rate_bandwidth.csv",
                 "rate_tuning.csv"):
        assert os.path.exists(os.path.join(out, name)), name


def test_csv_carries_fingerprint_and_full_precision(scn, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("freq-response", "--scenario", scn, "--out", out) == 0
    lines = open(os.path.join(out, "freq_response.csv")).read().splitlines()
    assert re.match(r"^# scenario = [0-9a-f]{12}$", lines[0])
    header = lines[1].split(",")
    assert header[0] == "f(GHz)"
    for row in lines[2:]:
        for cell in row.split(","):
            assert CELL.match(cell), cell


def test_json_format_mirrors_csv(tmp_path):
    """Every table-writing command: each JSON table holds the CSV file's
    fingerprint, header and data lines, cell for cell.  At Q = 1 the
    infeasible angles put NaN and -inf cells in both."""
    for name, extra in (("tiny", ""), ("lowq", "design.q_factor = 1\n")):
        path = tmp_path / f"{name}.scn"
        path.write_text(TINY + extra)
        special = set()
        for command, stems in TABLES.items():
            codes = [run_cli(command, "--scenario", str(path),
                             "--out", str(tmp_path / name / fmt),
                             "--format", fmt)
                     for fmt in ("csv", "json")]
            assert codes[0] == codes[1] and codes[0] in (0, 4), command
            for stem in stems:
                csv = tmp_path / name / "csv" / f"{stem}.csv"
                lines = csv.read_text().splitlines()
                with open(tmp_path / name / "json" / f"{stem}.json") as fh:
                    doc = json.load(fh, parse_constant=reject_constant)
                assert set(doc) == {"scenario", "columns", "rows"}
                assert re.match(r"^[0-9a-f]{12}$", doc["scenario"])
                assert lines[0] == f"# scenario = {doc['scenario']}"
                assert lines[1].split(",") == doc["columns"]
                assert doc["rows"] == [line.split(",") for line in lines[2:]]
                special.update({"nan", "-inf"}.intersection(
                    cell for row in doc["rows"] for cell in row))
        if extra:
            assert special == {"nan", "-inf"}


def _reference_fmt_value(x) -> str:
    """One cell as the per-cell writer formatted it: the reference for
    the column writer."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.11e}"


def _reference_table_text(fp, columns, rows, fmt):
    """A table formatted one cell at a time from its row tuples."""
    if fmt == "json":
        payload = {
            "scenario": fp,
            "columns": list(columns),
            "rows": [[_reference_fmt_value(x) for x in row] for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# scenario = {fp}", ",".join(columns)]
    lines += [",".join(_reference_fmt_value(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


# NaN of both signs, the infinities, both zeros, the smallest subnormal,
# the edges of the vectorized range 1e+-280 and cells just past them, the
# largest double, and cells at or near a tie of the 12-digit rounding:
# the last two lie so near one that, scaled by NumPy, they round the
# other way, and are right only when left to %.
SPECIAL_CELLS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                 5e-324, 1e12, -1e12, 0.1, 1.0 / 3.0, 123456.789,
                 math.copysign(float("nan"), -1.0), 1e280, 1e-280, 1e281,
                 1e-281, sys.float_info.max, 999999999999.5,
                 1000000000000.5, 2.5e-5, 9.999999999995e-5,
                 1.000000000005e16, 2.500000000005e-13]
INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("n_rows", [0, 1, 12])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_matches_the_per_cell_reference(tmp_path, fmt, n_rows):
    """Integer and float columns, special values, int64's extremes and a
    last row of NaN float cells: the column writer gives the per-cell
    writer's bytes.  Twelve rows hold every special cell: the last twelve
    of the first float column and the first twelve of the second."""
    special = np.array(SPECIAL_CELLS + [float("nan")])
    assert len(special) <= 2 * 12
    data = [np.append(np.arange(-3, len(special) - 5) * 10 ** 9,
                      [INT64.min, INT64.max]),
            special, special[::-1].copy(),
            np.append(np.linspace(-90.0, 90.0, len(special) - 1), np.nan),
            np.arange(len(special), dtype=np.int32)]
    data = [col[len(col) - n_rows:] for col in data]
    columns = ["count", "a(linear)", "b(dB)", "phi(deg)", "n"]
    path = tmp_path / f"table.{fmt}"
    cli._write_table(str(path), "0123456789ab", columns, data, fmt)
    assert path.read_text() == _reference_table_text(
        "0123456789ab", columns, list(zip(*data)), fmt)


def _near_tie(mantissa, decade, offset):
    """The double nearest (mantissa + 1/2 + offset) 10^(decade - 11): a
    cell at or near a tie of the 12-digit rounding."""
    return float((mantissa + 0.5 + offset) * 10.0 ** (decade - 11))


ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))),
    st.builds(_near_tie, st.integers(10 ** 11, 10 ** 12 - 1),
              st.integers(-290, 290), st.floats(-2e-3, 2e-3)))


@given(cells=st.lists(ANY_FLOAT, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_table_writer_matches_percent_formatting(tmp_path_factory, cells):
    """For any float64, NaN of either sign, the infinities and the
    subnormals included, the table writer's cell is '%.11e' % v."""
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    column = np.array(cells, dtype=float)
    cli._write_table(str(path), "0123456789ab", ["v"], [column], "csv")
    lines = path.read_text().splitlines()
    assert lines[2:] == ["%.11e" % v for v in cells]


def test_db_column_matches_the_scalar_conversion():
    """10 log10 cell by cell, -inf at 0, at negative and at NaN cells."""
    x = np.array([0.0, -0.0, -1.0, -np.inf, np.nan, 5e-324, 2e-310, 1e-300,
                  1e-3, 1.0, 64.0, 1e12, np.inf])
    expect = np.array([10 * np.log10(v) if v > 0 else -np.inf for v in x])
    got = cli._db(x)
    assert got.dtype == float and got.tobytes() == expect.tobytes()
    assert cli._db(np.empty(0)).shape == (0,)


def test_runs_are_byte_identical(scn, tmp_path):
    outs = [str(tmp_path / f"run{i}") for i in (1, 2)]
    for out in outs:
        for cmd in ("design", "gain-sweep", "train"):
            assert run_cli(cmd, "--scenario", scn, "--out", out) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


def test_defaults_used_without_scenario_file(tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("design", "--out", out) == 0
    assert read_summary(out)["scenario"] == "38fdc37832c7"
    assert read_summary(out)["design"]["n_g"] == pytest.approx(2.5, abs=1e-12)


def test_attenuation_override_changes_fingerprint_and_columns(scn, tmp_path):
    plain = str(tmp_path / "plain")
    lossy = str(tmp_path / "lossy")
    lossy_scn = tmp_path / "lossy.scn"
    lossy_scn.write_text(TINY + "design.attenuation = on\n")
    assert run_cli("freq-response", "--scenario", scn, "--out", plain) == 0
    assert run_cli("freq-response", "--scenario", str(lossy_scn),
                   "--out", lossy) == 0
    head_plain = open(os.path.join(plain, "freq_response.csv")).readline()
    head_lossy = open(os.path.join(lossy, "freq_response.csv")).readline()
    assert head_plain != head_lossy
    cols = open(os.path.join(lossy, "freq_response.csv")).readlines()[1]
    assert "gain_dma_attenuated(linear)" in cols


@pytest.mark.parametrize("old", ["not json\n", "[1, 2]\n"])
def test_unreadable_summary_is_replaced_with_a_warning(scn, tmp_path, capsys,
                                                       old):
    out = tmp_path / "run"
    out.mkdir()
    (out / "summary.json").write_text(old)
    assert run_cli("design", "--scenario", scn, "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert str(out / "summary.json") in err
    assert sorted(read_summary(str(out))) == ["design", "scenario"]
    # the summary is replaced through a temporary file that does not stay
    assert sorted(os.listdir(out)) == ["scenario_resolved.txt", "summary.json"]
    assert run_cli("coverage", "--scenario", scn, "--out", str(out)) == 0
    assert "warning" not in capsys.readouterr().err
    assert sorted(read_summary(str(out))) == ["coverage", "design", "scenario"]


def test_failed_summary_write_keeps_the_old_file(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    cli._update_summary(str(out), "fp", "design", {"n_g": 2.5})
    before = (out / "summary.json").read_bytes()
    with pytest.raises(TypeError):
        cli._update_summary(str(out), "fp", "coverage", {"bad": object()})
    assert (out / "summary.json").read_bytes() == before
    assert os.listdir(out) == ["summary.json"]


def test_summary_whose_replacement_fails_leaves_no_temporary_file(
        tmp_path, monkeypatch):
    """The summary is written to a temporary file; when that cannot
    replace the old one, the temporary file is removed."""
    out = tmp_path / "run"
    out.mkdir()
    cli._update_summary(str(out), "fp", "design", {"n_g": 2.5})
    before = (out / "summary.json").read_bytes()

    def fail(src, dst):
        raise OSError(28, "No space left on device", dst)

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        cli._update_summary(str(out), "fp", "coverage", {"n": 1})
    assert (out / "summary.json").read_bytes() == before
    assert os.listdir(out) == ["summary.json"]


def test_train_single_probe(scn, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("train", "--scenario", scn, "--out", out,
                   "--phi", "-12.5") == 0
    probe = read_summary(out)["train"]["probe"]
    assert probe["phi_deg"] == -12.5
    assert probe["gain"] > 0


@pytest.mark.parametrize("phi", ["nan", "inf", "91", "-95", "1e308",
                                 "-inf", "-nan"])
@pytest.mark.parametrize("command", ["train", "freq-response"])
def test_phi_outside_the_visible_region_is_rejected(tmp_path, capsys,
                                                    command, phi):
    """--phi takes a finite angle in [-90, 90] deg: any other exits 2 with
    a line naming --phi, before anything is computed or written.  -inf
    and -nan are values of --phi, not options, as --phi=-inf is."""
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--phi", phi, "--out", str(out))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"dmabeam {command}: error: argument --phi: {phi} is not an "
            f"angle in [-90, 90] degrees\n") in captured.err
    assert "Warning" not in captured.err
    assert not out.exists()


def test_phi_in_exponent_form_reads_as_the_plain_number(scn, tmp_path):
    """--phi -1e1 is -10 deg: train writes the same bytes as --phi -10."""
    runs = [tmp_path / "exponent", tmp_path / "plain"]
    for phi, out in zip(["-1e1", "-10"], runs):
        assert run_cli("train", "--scenario", scn, "--out", str(out),
                       "--phi", phi) == 0
    for name in ("codebook.csv", "train.csv", "summary.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


@pytest.mark.parametrize("phi", ["x", "-x"])
def test_phi_that_is_no_number_is_named(tmp_path, capsys, phi):
    """A word after --phi that is not a long option is its value, so -x
    is named as an invalid number, as x is."""
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--phi", phi, "--out", str(tmp_path / "run"))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"argument --phi: invalid float value: '{phi}'\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("trailing", [True, False],
                         ids=["trailing", "before-an-option"])
def test_phi_without_a_value_still_expects_one(tmp_path, capsys, trailing):
    """A --phi followed by nothing, or by another option, keeps argparse's
    own message and writes nothing."""
    out = ["--out", str(tmp_path / "run")]
    argv = out + ["--phi"] if trailing else ["--phi"] + out
    with pytest.raises(SystemExit) as exc:
        run_cli("train", *argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "dmabeam train: error: argument --phi: expected one argument\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("phi", ["-90", "90"])
def test_phi_at_the_edges_of_the_visible_region_is_accepted(scn, tmp_path,
                                                            phi):
    out = str(tmp_path / "run")
    assert run_cli("train", "--scenario", scn, "--out", out,
                   "--phi", phi) == 0
    assert read_summary(out)["train"]["probe"]["phi_deg"] == float(phi)


@pytest.mark.xfail(strict=True, reason=(
    "at Q = 1 the strongest pilot follows the sector crosstalk c_k as well "
    "as the array factor, and the staircase's worst angle falls below the "
    "codebook floor (exit 4); crosstalk-equalized picks, ROADMAP item 4c, "
    "are to hold it"))
def test_train_keeps_the_floor_at_low_q(tmp_path):
    path = tmp_path / "lowq.scn"
    path.write_text("design.q_factor = 1\n")
    out = str(tmp_path / "run")
    assert run_cli("train", "--scenario", str(path), "--out", out) == 0
    assert read_summary(out)["train"]["floor_respected"] is True


@pytest.mark.xfail(strict=True, reason=(
    "the codebook's floor is checked only at the sweep's grid angles, and "
    "between the default 181 it fails: 2001 angles exit 4 with 506.516 < "
    "508.495; a floor check over all angles is ROADMAP item 4b, and "
    "crosstalk-equalized picks to hold the floor are item 4c"))
def test_train_keeps_the_floor_between_grid_angles(tmp_path):
    path = tmp_path / "fine.scn"
    path.write_text("sweep.angle_samples = 2001\n")
    out = str(tmp_path / "run")
    assert run_cli("train", "--scenario", str(path), "--out", out) == 0
    assert read_summary(out)["train"]["floor_respected"] is True


def test_freq_response_finds_the_array_cutoffs_at_q_one_tenth(tmp_path):
    path = tmp_path / "q01.scn"
    path.write_text("design.q_factor = 0.1\n")
    assert run_cli("freq-response", "--phi", "-85", "--scenario", str(path),
                   "--out", str(tmp_path / "run")) == 0


def _first_half_power_crossing(design, phi, f_star, edge):
    """Where the whole-array response configured at f_star first falls
    below half its peak on the way from f_star to edge, and the scan's
    step.  A 400,001-point outward scan of |w(f_star, f) sum_n h_n(f)|^2,
    from the oracle's raw weight and an explicit element sum."""
    from dmabeam.oracle import _raw_weight
    f = np.linspace(f_star, edge, 400_001)
    total = np.zeros(f.size, dtype=complex)
    for n in range(design.n_elements):
        total += np.exp(-2j * np.pi * f / db.CONSTANTS.c * n * design.spacing
                        * (design.refractive_index + np.sin(phi)))
    response = np.abs(_raw_weight(design, f_star, f) * total) ** 2
    return f[np.argmax(response < 0.5 * response[0])], abs(f[1] - f[0])


def test_freq_response_array_cutoffs_are_the_first_crossings_at_q_one(
        tmp_path):
    path = tmp_path / "q1.scn"
    path.write_text("design.q_factor = 1\n")
    design = cli._resolve(scenario.parse_scenario(path.read_text()))[0]
    misses = []
    for deg in (-89, 85):
        out = str(tmp_path / f"run{deg}")
        assert run_cli("freq-response", "--phi", str(deg), "--scenario",
                       str(path), "--out", out) == 0
        got = read_summary(out)["freq_response"]
        f_star = got["f_star_ghz"] * 1e9
        for key, edge in (
                ("array_f_lower_ghz", 0.5e9 * got["element_f_lower_ghz"]),
                ("array_f_upper_ghz", 2e9 * got["element_f_upper_ghz"])):
            first, step = _first_half_power_crossing(
                design, np.radians(deg), f_star, edge)
            if abs(got[key] * 1e9 - first) > step + ARRAY_CUTOFF_TOL:
                misses.append((deg, key, got[key], first / 1e9))
    assert misses == []


def test_exit_code_for_missing_scenario(tmp_path):
    assert run_cli("design", "--scenario", str(tmp_path / "nope.scn"),
                   "--out", str(tmp_path / "x")) == 2


DMA_ERRORS = [name for name in db.__all__
              if isinstance(getattr(db, name), type)
              and issubclass(getattr(db, name), db.DmaError)]


@pytest.mark.parametrize("name", DMA_ERRORS)
def test_exit_code_follows_the_error_type(tmp_path, capsys, monkeypatch,
                                          name):
    """Each package error that a command raises ends main with the exit
    code and the stderr prefix of its type, in one line, with no --out."""
    def fail(design, resolved, args):
        raise getattr(db, name)("cause")

    monkeypatch.setitem(cli._COMMANDS, "design", fail)
    code, prefix = {"ScenarioError": (2, "error: invalid scenario: "),
                    "InfeasibleError": (3, "error: infeasible design: ")
                    }.get(name, (2, "error: "))
    out = tmp_path / "run"
    assert run_cli("design", "--out", str(out)) == code
    assert capsys.readouterr() == ("", f"{prefix}cause\n")
    assert not out.exists()


def test_exit_code_for_floor_violation(scn, tmp_path, monkeypatch):
    """A probe that reports a collapsed gain must fail verification."""
    from dmabeam.array_training import TrainingResult

    def broken_probe(layout, codebook, phi_true, pilot):
        zeros = np.zeros(np.shape(phi_true))
        return TrainingResult(k_star=zeros.astype(int),
                              f_k_star=zeros + pilot[0], phi_hat=zeros,
                              gain_at_estimate=zeros)

    monkeypatch.setattr(cli, "probe", broken_probe)
    assert run_cli("train", "--scenario", scn,
                   "--out", str(tmp_path / "x")) == 4


def test_gain_sweep_nan_cells_are_the_infeasible_angles(tmp_path):
    """Q = 1: NaN cells sit exactly where the scalar solver reports an
    infeasible pair, in the plain and the attenuated columns alike."""
    from dmabeam import optimal_operating_freq, solve_p1a
    from dmabeam.scenario import parse_scenario

    text = ("design.q_factor = 1\nsweep.gain_angle_points = 61\n"
            "design.attenuation = on\n")
    path = tmp_path / "lowq.scn"
    path.write_text(text)
    out = str(tmp_path / "run")
    assert run_cli("gain-sweep", "--scenario", str(path), "--out", out) == 0
    lines = open(os.path.join(out, "gain_sweep.csv")).read().splitlines()
    columns = lines[1].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
    design = cli._resolve(parse_scenario(text))[0]

    phis = np.radians(np.linspace(-90.0, 90.0, 61)).tolist()
    for label, f_ts in (
            ("opt", [optimal_operating_freq(design, p).f_t_star for p in phis]),
            ("fixed", [15e9] * len(phis))):
        plain = columns.index(f"gain_{label}(linear)")
        lossy = columns.index(f"gain_{label}_attenuated(linear)")
        expect = [not solve_p1a(design, phi, f_t).feasible
                  for phi, f_t in zip(phis, f_ts)]
        assert any(expect) and not all(expect)
        assert [np.isnan(row[plain]) for row in rows] == expect
        assert [np.isnan(row[lossy]) for row in rows] == expect


def test_gain_sweep_names_its_nan_cells_on_stderr(tmp_path, capsys):
    """Q = 1: one stderr line per solver column with NaN cells, giving the
    count and the first angle as read back from the CSV; exit stays 0.  A
    sweep without NaN cells prints nothing."""
    path = tmp_path / "lowq.scn"
    path.write_text("design.q_factor = 1\nsweep.gain_angle_points = 61\n")
    out = str(tmp_path / "run")
    assert run_cli("gain-sweep", "--scenario", str(path), "--out", out) == 0
    err = capsys.readouterr().err
    lines = open(os.path.join(out, "gain_sweep.csv")).read().splitlines()
    columns = lines[1].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
    expect = []
    for i, name in enumerate(columns):
        nan = [row[0] for row in rows if np.isnan(row[i])]
        if name.endswith("(linear)") and nan:
            expect.append(f"gain-sweep: {name}: {len(nan)} NaN cells at "
                          f"infeasible angles, the first at {nan[0]:g} deg")
    assert len(expect) == 2            # gain_opt and gain_fixed
    assert err.splitlines() == expect
    assert "gain_opt(linear): 33 NaN cells" in err

    path.write_text("sweep.gain_angle_points = 11\n")
    assert run_cli("gain-sweep", "--scenario", str(path),
                   "--out", str(tmp_path / "clean")) == 0
    assert "nan" not in open(os.path.join(tmp_path, "clean",
                                          "gain_sweep.csv")).read()
    assert capsys.readouterr().err == ""


def test_gain_sweep_solves_binary_masks_at_65536_elements(tmp_path):
    """The binary column at N_y = 65536 needs no N x N candidate stack: the
    run exits 0 and every binary gain stays below the continuous optimum
    (N + |S|)^2 / 4 at the band center."""
    text = "design.n_y = 65536\nsweep.gain_angle_points = 3\n"
    path = tmp_path / "huge.scn"
    path.write_text(text)
    out = str(tmp_path / "run")
    assert run_cli("gain-sweep", "--scenario", str(path), "--out", out) == 0
    read_summary(out)
    lines = open(os.path.join(out, "gain_sweep.csv")).read().splitlines()
    binary = lines[1].split(",").index("gain_binary(linear)")
    rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
    design, resolved = cli._resolve(scenario.parse_scenario(text))
    s = np.abs(db.dirichlet_kernel(design, np.radians([r[0] for r in rows]),
                                   resolved.f_center_hz))
    gains = np.array([r[binary] for r in rows])
    assert len(rows) == 3 and np.all(gains > 0)
    assert np.all(gains <= (65536 + s) ** 2 / 4)


@pytest.mark.parametrize("command", ["train", "rate"])
@pytest.mark.parametrize("extra", [
    "training.delta = 0.99\n",
], ids=["delta-0.99"])
def test_auto_groups_that_cannot_split_the_array_are_infeasible(
        tmp_path, capsys, command, extra):
    """groups = auto takes one group per sector; a sector count that does
    not divide design.n_z is an infeasible design, not a config error."""
    path = tmp_path / "groups.scn"
    path.write_text(TINY + extra)
    assert run_cli(command, "--scenario", str(path),
                   "--out", str(tmp_path / "run")) == 3
    err = capsys.readouterr().err
    assert re.search(r"the codebook needs \d+ sectors", err)
    assert "design.n_z = 4" in err


@pytest.mark.parametrize("command", ["train", "rate"])
@pytest.mark.parametrize("lower, upper, extra", [
    (-20.0, 35.0, "design.n_g_max = 4\n"),
    (-10.0, 30.0, ""),
], ids=["-20-to-35", "-10-to-30"])
def test_codebook_spans_an_asymmetric_sector(tmp_path, command, lower, upper,
                                             extra):
    """The codebook starts at sector.phi_lower and stops at
    sector.phi_upper, not at their mirror images: four sectors split the
    four waveguides, every sector lies in the sector, and the training
    floor and the rate ordering hold."""
    path = tmp_path / "sector.scn"
    path.write_text(TINY + extra + f"sector.phi_lower = {lower}\n"
                    f"sector.phi_upper = {upper}\n")
    out = tmp_path / "run"
    assert run_cli(command, "--scenario", str(path), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    if command == "train":
        train = summary["train"]
        assert train["n_sectors"] == 4 and train["floor_respected"]
        assert all(lower <= a <= upper for a in train["sector_angles_deg"])
    else:
        assert summary["rate"]["ordering_fixed_trained_perfect_ttd"]


def test_rate_runs_are_byte_identical(tmp_path):
    """Two rate runs on one scenario write identical files."""
    path = tmp_path / "rate.scn"
    path.write_text(TINY.replace("sweep.angle_samples = 3",
                                 "sweep.angle_samples = 5")
                    .replace("sweep.tuning_ranges = 2.0, 3.0",
                             "sweep.tuning_ranges = 3.0"))
    outs = [str(tmp_path / f"run{i}") for i in (1, 2)]
    for out in outs:
        assert run_cli("rate", "--scenario", str(path), "--out", out) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == ["rate_bandwidth.csv", "rate_tuning.csv", "summary.json"]
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


@pytest.mark.parametrize("extra, t_r", [
    ("sector.phi_lower = -80\nsector.phi_upper = 80\n"
     "design.n_g_max = 50\nsweep.tuning_ranges = 2.0\n", "2"),
    # n_g_max T_r / (2 f_c) = 1 exactly: reaches 90 deg unsaturated
    ("design.n_g_max = 10\nsweep.tuning_ranges = 3.0\n", "3"),
])
def test_rate_reports_saturated_coverage_by_its_cause(tmp_path, capsys,
                                                      extra, t_r):
    """A tuning range whose coverage reaches 90 deg is infeasible, exit 3."""
    wide = tmp_path / "wide.scn"
    wide.write_text(TINY.replace("sweep.tuning_ranges = 2.0, 3.0\n", "")
                    + extra)
    out = str(tmp_path / "run")
    assert run_cli("rate", "--scenario", str(wide), "--out", out) == 3
    err = capsys.readouterr().err
    assert f"tuning range {t_r} GHz" in err
    assert "coverage saturates at 90 deg" in err
    # rejected before the bandwidth sweep has run or written anything
    assert not os.path.exists(os.path.join(out, "rate_bandwidth.csv"))


def test_rate_runs_where_p_equals_one_sits_on_the_band_edge(tmp_path, capsys):
    """n_g_max = 4 at a 5 GHz tuning range puts p = 1 exactly at f_min for
    the sector's upper edge, which the rate sweep samples."""
    edge = tmp_path / "edge.scn"
    edge.write_text(TINY.replace("sweep.tuning_ranges = 2.0, 3.0",
                                 "sweep.tuning_ranges = 5.0")
                    + "design.n_g_max = 4\n")
    out = str(tmp_path / "run")
    assert run_cli("rate", "--scenario", str(edge), "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert os.path.exists(os.path.join(out, "rate_tuning.csv"))


def test_verify_reduces_the_binary_check_above_the_oracle_cap(
        scn, tmp_path, capsys, monkeypatch):
    """N_y above verify's binary-check cap is checked on a reduced array,
    as the grid check is, instead of failing as a config error or
    enumerating 2^N masks per angle."""
    monkeypatch.setattr(cli, "VERIFY_BINARY_ELEMENTS", 6)
    assert run_cli("verify", "--scenario", scn,
                   "--out", str(tmp_path / "run")) == 0
    text = capsys.readouterr().out
    assert "binary oracle capped at 6 elements" in text
    assert "PASS  binary solver vs plain enumeration" in text
    assert "FAIL" not in text


def test_verify_reports_pass_lines(scn, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("verify", "--scenario", scn, "--out", out) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 3
    assert "FAIL" not in text
    checks = read_summary(out)["verify"]
    assert all(entry["pass"] for entry in checks.values())


# The dense scan's line as the full, unpruned scan printed it: the
# default design holds an integer p in all three bands, and at
# d_y = 0.006 none does, so only the sidelobe bounds prune there.
@pytest.mark.parametrize("text, detail", [
    ("", "-18 deg: |S| gap = 7.88e-13; -5 deg: |S| gap = 1.22e-11; "
         "10 deg: |S| gap = 3.92e-11"),
    ("design.d_y = 0.006\n", "-18 deg: |S| gap = -4.44e-16; -5 deg: "
     "|S| gap = 9.03e-12; 10 deg: |S| gap = -8.88e-16"),
])
def test_verify_scan_line_is_pinned(tmp_path, capsys, text, detail):
    path = tmp_path / "scan.scn"
    path.write_text(text)
    out = str(tmp_path / "run")
    assert run_cli("verify", "--scenario", str(path), "--out", out) == 0
    assert f"PASS  planner vs dense scan  ({detail})\n" \
        in capsys.readouterr().out
    assert read_summary(out)["verify"]["planner vs dense scan"] \
        == {"pass": True, "detail": detail}


# The grid line as the paired-halves search printed it: the walk must
# find the same maximum on every draw, infeasible draws skipped alike.
@pytest.mark.parametrize("text, detail", [
    ("", "worst relative gap 1.646e-04"),
    ("design.q_factor = 1\n", "worst relative gap 8.060e-05; "
     "5 of 20 draws infeasible, skipped"),
])
def test_verify_grid_line_is_pinned(tmp_path, capsys, text, detail):
    path = tmp_path / "grid.scn"
    path.write_text(text)
    out = str(tmp_path / "run")
    assert run_cli("verify", "--scenario", str(path), "--out", out) == 0
    assert f"PASS  closed form vs resonance grid  ({detail})\n" \
        in capsys.readouterr().out
    assert read_summary(out)["verify"]["closed form vs resonance grid"] \
        == {"pass": True, "detail": detail}


def test_verify_grid_note_names_its_own_limit(tmp_path, capsys):
    """Above cli.VERIFY_GRID_ELEMENTS the note names the reduced sizes the
    grid check walks; at or below it there is no note."""
    path = tmp_path / "note.scn"
    path.write_text("")
    assert run_cli("verify", "--scenario", str(path),
                   "--out", str(tmp_path / "run")) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "note: grid check walks reduced arrays of 1 to 4 elements "
        "(cli.VERIFY_GRID_ELEMENTS); configured N_y = 8\n")
    path.write_text("design.n_y = 4\n")
    assert run_cli("verify", "--scenario", str(path),
                   "--out", str(tmp_path / "four")) == 0
    assert "grid check" not in capsys.readouterr().out


@pytest.mark.parametrize("n_y, detail", [
    (8, "worst relative gap 1.646e-04"),
    (2, "worst relative gap 5.271e-05"),
])
def test_verify_solves_and_walks_once_per_reduced_size(tmp_path, capsys,
                                                       monkeypatch, n_y,
                                                       detail):
    """The 20 closed-form draws take one solve_p1a and one grid_max_gain
    call per reduced-array size, the planner check one planner call for
    its three angles and the binary check one enumerate_binary call for
    its four; the grid line reads as the per-draw loop printed it."""
    calls = {"solve_p1a": [], "grid_max_gain": [],
             "optimal_operating_freq": [], "enumerate_binary": []}

    def counted(name, function):
        def wrapper(design, phi, *args):
            calls[name].append((design.n_elements, np.size(phi)))
            return function(design, phi, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    path = tmp_path / "batch.scn"
    path.write_text(f"design.n_y = {n_y}\n")
    assert run_cli("verify", "--scenario", str(path),
                   "--out", str(tmp_path / "run")) == 0
    assert f"PASS  closed form vs resonance grid  ({detail})\n" \
        in capsys.readouterr().out
    for name in ("solve_p1a", "grid_max_gain"):
        sizes = [size for size, _ in calls[name]]
        assert len(sizes) == len(set(sizes)), name
        assert set(sizes) <= set(
            range(1, min(cli.VERIFY_GRID_ELEMENTS, n_y) + 1)), name
        assert sum(rows for _, rows in calls[name]) == 20, name
    assert calls["optimal_operating_freq"] == [(n_y, 3)]
    assert calls["enumerate_binary"] == [(n_y, 4)]


@pytest.mark.parametrize("q", ["1", "5", "12"])
def test_verify_passes_at_low_q(tmp_path, capsys, q):
    """A low-Q guide: the resonance grid spans the whole reachable arc,
    and a closed-form draw that is infeasible is skipped and counted."""
    path = tmp_path / "lowq.scn"
    path.write_text(f"design.q_factor = {q}\n")
    out = str(tmp_path / "run")
    assert run_cli("verify", "--scenario", str(path), "--out", out) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 3 and "FAIL" not in text
    detail = read_summary(out)["verify"]["closed form vs resonance grid"]["detail"]
    assert ("5 of 20 draws infeasible, skipped" in detail) == (q == "1")


@pytest.mark.parametrize("n_y", [8, 128])
def test_verify_passes_just_below_the_normalized_product_cap(tmp_path, capsys,
                                                             n_y):
    """d_y = 1/120 m and f_max = 18 GHz give f_max d_y (n_g + 1) / c =
    (n_g + 1) / 2: n_g = 19799 sits 1 % below
    scenario.MAX_NORMALIZED_PRODUCT and verify passes; n_g = 20199, 1 %
    above, is an invalid scenario."""
    assert scenario.MAX_NORMALIZED_PRODUCT == 1e4
    for n_g, code in ((19799, cli.EXIT_OK), (20199, cli.EXIT_CONFIG)):
        path = tmp_path / f"ng{n_g}.scn"
        path.write_text(f"design.n_y = {n_y}\ndesign.n_g = {n_g}\n")
        out = str(tmp_path / f"run{n_g}")
        assert run_cli("verify", "--scenario", str(path), "--out", out) == code
        captured = capsys.readouterr()
        if code == cli.EXIT_OK:
            assert captured.out.count("PASS") == 3
        else:
            assert "normalized product" in captured.err


def test_verify_fails_when_no_draw_is_feasible(scn, tmp_path, capsys,
                                               monkeypatch):
    from dmabeam import BeamformingSolution

    def infeasible(design, phi, f_t):
        rows = np.shape(phi)
        return BeamformingSolution(
            resonances=np.full(rows + (design.n_elements,), np.nan),
            feasible=np.zeros(rows, dtype=bool), gain=np.full(rows, np.nan),
            operating_freq=np.asarray(f_t, dtype=float))

    monkeypatch.setattr(cli, "solve_p1a", infeasible)
    out = str(tmp_path / "run")
    assert run_cli("verify", "--scenario", scn, "--out", out) == 4
    assert "FAIL  closed form vs resonance grid  (no draw compared; 20 of " \
        "20 draws infeasible, skipped)" in capsys.readouterr().out


def test_rate_reports_infeasible_angles_as_nan_cells(tmp_path, capsys):
    """Q = 1: the fixed strategy is infeasible at some angles of every
    sweep, so its column is NaN in both tables and named on stderr for
    each; the other columns are finite, in order, and exit stays 0."""
    path = tmp_path / "lowq.scn"
    path.write_text("design.q_factor = 1\n")
    out = tmp_path / "run"
    assert run_cli("rate", "--scenario", str(path), "--out", str(out)) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "rate: rate_fixed(bit/s): 6 NaN cells at infeasible angles, the "
        "first at bandwidth 0.01 GHz",
        "rate: rate_fixed(bit/s): 4 NaN cells at infeasible angles, the "
        "first at tuning range 2 GHz"]
    for name in ("rate_bandwidth.csv", "rate_tuning.csv"):
        lines = (out / name).read_text().splitlines()
        columns = lines[1].split(",")
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in lines[2:]])
        fixed = columns.index("rate_fixed(bit/s)")
        assert np.isnan(rows[:, fixed]).all()
        rest = np.delete(rows, fixed, axis=1)
        assert np.isfinite(rest).all()
        assert np.all(np.diff(rest[:, -3:], axis=1) >= 0)
    assert read_summary(str(out))["rate"]["ordering_fixed_trained_perfect_ttd"]


def test_ordering_skips_nan_cells():
    assert cli._ordered([float("nan"), 1.0, 2.0, 2.0])
    assert cli._ordered([1.0, float("nan"), 3.0])
    assert not cli._ordered([3.0, float("nan"), 1.0])
    assert cli._ordered([float("nan")] * 4)


def test_freq_response_at_an_infeasible_angle_writes_nan_cells(tmp_path,
                                                               capsys):
    """Q = 1 at -50 deg: no real resonance realizes the optimum, so the
    configured-gain columns are NaN and named on stderr; exit stays 0."""
    path = tmp_path / "lowq.scn"
    path.write_text("design.q_factor = 1\nsweep.freq_points = 11\n"
                    "design.attenuation = on\n")
    out = tmp_path / "run"
    assert run_cli("freq-response", "--scenario", str(path), "--phi", "-50",
                   "--out", str(out)) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"freq-response: {name}: 11 NaN cells at infeasible angles, the "
        f"first at 12 GHz"
        for name in ("gain_dma(linear)", "gain_dma_attenuated(linear)")]
    assert read_summary(str(out))["freq_response"]["gain_at_peak"] is None


@pytest.mark.parametrize("command,section",
                         [("design", "design"), ("gain-sweep", "gain_sweep")])
def test_missing_crossover_is_null_in_the_summary(tmp_path, command, section):
    """n_g = 1 has no crossover angle: summary.json holds null there, not
    the bare NaN token that strict JSON parsers reject."""
    path = tmp_path / "ng1.scn"
    path.write_text("design.n_g = 1\nsweep.gain_angle_points = 19\n")
    out = str(tmp_path / "run")
    assert run_cli(command, "--scenario", str(path), "--out", out) == 0
    assert read_summary(out)[section]["crossover_deg"] is None


@pytest.mark.parametrize("delta", ["1e-25", "250 dB"])
@pytest.mark.parametrize("command", ["train", "rate"])
def test_a_delta_below_the_mainlobe_floor_is_invalid(tmp_path, capsys,
                                                      command, delta):
    """A gain fraction too small for the mainlobe width solve exits 2,
    naming training.delta, and writes nothing."""
    path = tmp_path / "tiny_delta.scn"
    path.write_text(TINY + f"training.delta = {delta}\n")
    out = tmp_path / "run"
    assert run_cli(command, "--scenario", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        "error: training.delta = 1e-25 is below ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "rate"])
def test_single_element_waveguide_cannot_train(tmp_path, capsys, command):
    """N_y = 1 has no mainlobe to place sectors by: exit 3, naming
    design.n_y, as an infeasible design, not an invalid scenario."""
    path = tmp_path / "one.scn"
    path.write_text(TINY.replace("design.n_y = 8", "design.n_y = 1"))
    out = tmp_path / "run"
    assert run_cli(command, "--scenario", str(path), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible design: ")
    assert "design.n_y = 1" in err
    assert not out.exists()


def test_unit_refractive_index_gain_sweep_steers_minus_90_deg(tmp_path):
    """n_g = 1 at -90 deg: p = 0 at every frequency, the integer case, so
    the row holds f_min and the full gain N^2."""
    path = tmp_path / "ng1.scn"
    path.write_text("design.n_g = 1\nsweep.gain_angle_points = 19\n")
    out = tmp_path / "run"
    assert run_cli("gain-sweep", "--scenario", str(path), "--out", str(out)) == 0
    lines = (out / "gain_sweep.csv").read_text().splitlines()
    first = [float(c) for c in lines[2].split(",")]
    assert first[:3] == [-90.0, 12.0, 64.0]


@pytest.mark.parametrize("command", ["train", "rate"])
def test_unit_refractive_index_codebook_names_the_sectors(tmp_path, capsys,
                                                          command):
    """n_g = 1 puts the sector frequencies on sidelobe maxima that do not
    decrease: exit 3, naming the first sector pair and its frequencies."""
    path = tmp_path / "ng1.scn"
    path.write_text(TINY + "design.n_g = 1\n")
    assert run_cli(command, "--scenario", str(path),
                   "--out", str(tmp_path / "run")) == 3
    err = capsys.readouterr().err
    assert re.search(r"sectors 2 and 3 \(.* deg\) get operating frequencies "
                     r"12 and 16\.84 GHz, which do not decrease", err)


def test_attenuation_changes_no_lossless_command(tmp_path):
    """design.attenuation = on adds columns to gain-sweep and freq-response
    only: every other command writes the same files as with it off, apart
    from the scenario fingerprint and the attenuation line itself."""
    texts = {}
    for flag in ("off", "on"):
        out = str(tmp_path / flag)
        scn = tmp_path / f"{flag}.scn"
        scn.write_text(TINY + f"design.attenuation = {flag}\n")
        for cmd in ("rate", "train", "design", "coverage", "verify"):
            assert run_cli(cmd, "--scenario", str(scn), "--out", out) == 0
        fp = read_summary(out)["scenario"]
        texts[flag] = {
            name: open(os.path.join(out, name)).read().replace(fp, "<fp>")
            .replace(f"design.attenuation = {flag}", "design.attenuation")
            for name in sorted(os.listdir(out))}
    assert len(texts["on"]) == 7
    assert texts["on"] == texts["off"]


def test_console_entry_point(scn, tmp_path):
    """`python -m dmabeam.cli` behaves like the in-process main."""
    out = str(tmp_path / "run")
    proc = subprocess.run([sys.executable, "-m", "dmabeam.cli", "design",
                           "--scenario", scn, "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "design.n_g" in proc.stdout


def test_cli_import_leaves_scipy_solvers_unloaded():
    """The package has no SciPy dependency: importing the CLI loads no
    scipy module at all."""
    code = ("import dmabeam.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_openssl_unloaded():
    """The fingerprint's SHA-256 comes from the interpreter's own module:
    importing the CLI does not load hashlib's OpenSSL binding."""
    pytest.importorskip("_sha256")
    code = "import dmabeam.cli, sys; print('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_train_probe_leaves_numpy_ma_unloaded(tmp_path):
    """pilot_grid merges the sector tones without np.unique, whose first
    call imports numpy.ma: a train --phi run in a fresh interpreter never
    loads it."""
    code = ("import sys, dmabeam.cli; "
            "code = dmabeam.cli.main(['train', '--phi', '10', '--out', "
            "sys.argv[1]]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_an_unwritable_out_exits_2_and_prints_nothing(scn, tmp_path, capsys,
                                                      command):
    """--out naming an existing regular file cannot be made a directory:
    the run exits 2 with one error line naming it, prints nothing on
    stdout, raises no traceback and leaves the file as it was."""
    out = tmp_path / "taken.txt"
    out.write_text("keep\n")
    assert run_cli(command, "--scenario", scn, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == \
        f"error: cannot write --out {out}: File exists"
    assert "Traceback" not in captured.err
    assert out.read_text() == "keep\n"


def test_a_directory_target_fails_before_any_file_is_written(scn, tmp_path,
                                                             capsys):
    """A target under --out that is a directory stops the run before the
    first write: train writes neither its codebook nor summary.json, and
    its one error line names the target."""
    out = tmp_path / "out"
    (out / "train.csv").mkdir(parents=True)
    assert run_cli("train", "--phi", "10", "--scenario", scn,
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == \
        f"error: cannot write --out {out}: {out / 'train.csv'}: Is a directory"
    assert sorted(p.name for p in out.iterdir()) == ["train.csv"]


def test_threads_flag_is_rejected(scn, tmp_path):
    """--threads is gone; argparse rejects it like any unknown flag."""
    with pytest.raises(SystemExit) as exc:
        run_cli("design", "--scenario", scn,
                "--out", str(tmp_path / "x"), "--threads", "1")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["rate", "--bogus"], ["rate", "--help"],
    ["train", "--phi", "x"], ["train", "--phi", "nan"],
    ["train", "--phi", "-inf"], ["verify", "extra"]],
    ids=lambda argv: "-".join(argv).strip("-") or "none")
def test_one_command_parser_reads_as_the_full_parser(argv, capsys):
    """main builds only the named command's parser; its help, errors and
    exit codes are those of the parser holding all seven commands."""
    outcomes = []
    for parse in (cli.main, lambda a: cli.build_parser().parse_args(a)):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        outcomes.append((capsys.readouterr(), exc.value.code))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == (0 if "--help" in argv else 2)
