"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import dmabeam.cli as cli
import dmabeam.scenario as scenario

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


def test_design_writes_summary_and_resolved_scenario(scn, tmp_path, capsys):
    from dmabeam.scenario import parse_scenario

    out = str(tmp_path / "run")
    assert run_cli("design", "--scenario", scn, "--out", out) == 0
    assert "design.n_g = " in capsys.readouterr().out
    resolved = parse_scenario(
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


# The tables each command writes; train and rate write two.
TABLES = {"coverage": ["coverage"], "freq-response": ["freq_response"],
          "gain-sweep": ["gain_sweep"], "train": ["codebook", "train"],
          "rate": ["rate_bandwidth", "rate_tuning"]}


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


SPECIAL_CELLS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                 5e-324, 1e12, -1e12, 0.1, 1.0 / 3.0, 123456.789]


@pytest.mark.parametrize("n_rows", [0, 1, len(SPECIAL_CELLS) + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_matches_the_per_cell_reference(tmp_path, fmt, n_rows):
    """Integer and float columns, special values and a last row of NaN
    float cells: the column writer gives the per-cell writer's bytes."""
    special = np.array(SPECIAL_CELLS + [float("nan")])
    data = [np.arange(-3, len(special) - 3) * 10 ** 9,
            special, special[::-1].copy(),
            np.append(np.linspace(-90.0, 90.0, len(special) - 1), np.nan),
            np.arange(len(special), dtype=np.int32)]
    data = [col[len(col) - n_rows:] for col in data]
    columns = ["count", "a(linear)", "b(dB)", "phi(deg)", "n"]
    path = tmp_path / f"table.{fmt}"
    cli._write_table(str(path), "0123456789ab", columns, data, fmt)
    assert path.read_text() == _reference_table_text(
        "0123456789ab", columns, list(zip(*data)), fmt)


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
    assert read_summary(out)["design"]["n_g"] == pytest.approx(2.5, abs=1e-12)


def test_attenuation_override_changes_fingerprint_and_columns(scn, tmp_path):
    plain = str(tmp_path / "plain")
    lossy = str(tmp_path / "lossy")
    assert run_cli("freq-response", "--scenario", scn, "--out", plain) == 0
    assert run_cli("freq-response", "--scenario", scn, "--out", lossy,
                   "--attenuation", "on") == 0
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


def test_train_single_probe(scn, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("train", "--scenario", scn, "--out", out,
                   "--phi", "-12.5") == 0
    probe = read_summary(out)["train"]["probe"]
    assert probe["phi_deg"] == -12.5
    assert probe["gain"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "at Q = 1 the strongest pilot follows the sector crosstalk c_k as well "
    "as the array factor, and the staircase's worst angle falls below the "
    "codebook floor (exit 4); crosstalk-equalized picks, ROADMAP item 2c, "
    "are to hold it"))
def test_train_keeps_the_floor_at_low_q(tmp_path):
    path = tmp_path / "lowq.scn"
    path.write_text("design.q_factor = 1\n")
    out = str(tmp_path / "run")
    assert run_cli("train", "--scenario", str(path), "--out", out) == 0
    assert read_summary(out)["train"]["floor_respected"] is True


def test_exit_code_for_bad_scenario(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("design.n_y = -3\n")
    assert run_cli("design", "--scenario", str(bad),
                   "--out", str(tmp_path / "x")) == 2


def test_exit_code_for_missing_scenario(tmp_path):
    assert run_cli("design", "--scenario", str(tmp_path / "nope.scn"),
                   "--out", str(tmp_path / "x")) == 2


def test_exit_code_for_infeasible_sector(tmp_path):
    wide = tmp_path / "wide.scn"
    wide.write_text("sector.phi_lower = -80\nsector.phi_upper = 80\n")
    assert run_cli("design", "--scenario", str(wide),
                   "--out", str(tmp_path / "x")) == 3


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

    text = "design.q_factor = 1\nsweep.gain_angle_points = 61\n"
    path = tmp_path / "lowq.scn"
    path.write_text(text)
    out = str(tmp_path / "run")
    assert run_cli("gain-sweep", "--scenario", str(path), "--out", out,
                   "--attenuation", "on") == 0
    lines = open(os.path.join(out, "gain_sweep.csv")).read().splitlines()
    columns = lines[1].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
    design = cli._resolve(parse_scenario(text + "design.attenuation = on\n"))[0]

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


def test_verify_passes_when_binary_masks_tie(tmp_path, capsys):
    """Wide sector: at one angle two shifted masks tie to within an ulp,
    so the fast solver and the oracle may return different optimal masks."""
    wide = tmp_path / "wide.scn"
    wide.write_text("sector.phi_lower = -80\nsector.phi_upper = 80\n"
                    "design.n_g_max = 50\n")
    assert run_cli("verify", "--scenario", str(wide),
                   "--out", str(tmp_path / "run")) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_passes_on_a_flat_planner_objective(tmp_path, capsys):
    """With one element per waveguide every p ties; only values count."""
    single = tmp_path / "single.scn"
    single.write_text("design.n_y = 1\n")
    assert run_cli("verify", "--scenario", str(single),
                   "--out", str(tmp_path / "run")) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 3
    assert "FAIL" not in text


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


def test_too_narrow_sector_is_infeasible_not_invalid(tmp_path, capsys):
    """A +-5 deg sector asks the design rule for n_g < 1: exit 3, by name."""
    narrow = tmp_path / "narrow.scn"
    narrow.write_text("sector.phi_lower = -5\nsector.phi_upper = 5\n")
    assert run_cli("design", "--scenario", str(narrow),
                   "--out", str(tmp_path / "x")) == 3
    assert "sector is too narrow for the band" in capsys.readouterr().err


def test_verify_passes_where_the_scan_nears_integer_p(tmp_path, capsys):
    """N_y = 9 puts the dense scan next to p = 1, where rounding in
    sin(pi N p) / sin(pi p) once overshot N and failed the check."""
    nine = tmp_path / "nine.scn"
    nine.write_text("design.n_y = 9\n")
    assert run_cli("verify", "--scenario", str(nine),
                   "--out", str(tmp_path / "run")) == 0
    assert "FAIL" not in capsys.readouterr().out


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


def test_verify_checks_a_long_lossy_guide_on_twelve_elements(tmp_path, capsys):
    """At N_y = 128 the binary check runs on 12 elements, not on the
    oracle's own cap of 20, whose 2^20 masks per angle took seconds."""
    wide = tmp_path / "wide.scn"
    wide.write_text("design.n_y = 128\ndesign.attenuation = on\n")
    assert run_cli("verify", "--scenario", str(wide),
                   "--out", str(tmp_path / "run")) == 0
    text = capsys.readouterr().out
    assert "binary oracle capped at 12 elements" in text
    assert text.count("PASS") == 3 and "FAIL" not in text


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


def test_verify_runs_on_a_band_narrower_than_two_ghz(tmp_path, capsys):
    """The closed-form draws keep a sixth of a 1 GHz band off each edge,
    where a fixed 1 GHz margin left no room to draw from."""
    path = tmp_path / "narrow.scn"
    path.write_text("design.f_min = 14.5\ndesign.f_max = 15.5\n"
                    "design.n_g_max = 20\n")
    assert run_cli("verify", "--scenario", str(path),
                   "--out", str(tmp_path / "run")) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 3 and "FAIL" not in text


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
        return BeamformingSolution(
            resonances=np.full(design.n_elements, np.nan), feasible=False,
            gain=float("nan"), operating_freq=f_t)

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
    path.write_text("design.q_factor = 1\nsweep.freq_points = 11\n")
    out = tmp_path / "run"
    assert run_cli("freq-response", "--scenario", str(path), "--phi", "-50",
                   "--out", str(out), "--attenuation", "on") == 0
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


@pytest.mark.parametrize("command,text,flags,code", [
    # the array cutoff search finds no bracket after the gain table is
    # computed: Q = 0.12, inside the model's bounds, at -85 deg
    ("freq-response", "design.q_factor = 0.12\n", ("--phi", "-85"), 3),
    # the staircase probe fails after the codebook is computed: a sector
    # pilot's estimate leaves the visible region, an infeasible design
    ("train", "design.n_g = 3\ndesign.d_y = 0.02\n", ("--phi", "10"), 3),
    # the rate sweep's probe fails the same way
    ("rate", "design.n_g = 3\ndesign.d_y = 0.02\n", (), 3),
], ids=["freq-response", "train", "rate"])
def test_a_failing_command_writes_nothing(tmp_path, capsys, command, text,
                                          flags, code):
    """A command computes all its outputs before writing any: a run that
    fails part-way creates no file and no --out directory."""
    path = tmp_path / "fail.scn"
    path.write_text(text)
    out = tmp_path / "run"
    assert run_cli(command, "--scenario", str(path), "--out", str(out),
                   *flags) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


def test_verify_without_a_crossover_checks_the_random_angles(tmp_path,
                                                             capsys):
    """n_g = 1 has no angle with p = 1 at f_c: the binary check runs on
    its three random angles alone."""
    path = tmp_path / "ng1.scn"
    path.write_text("design.n_g = 1\n")
    assert run_cli("verify", "--scenario", str(path),
                   "--out", str(tmp_path / "run")) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 3 and "FAIL" not in text
    assert "binary solver vs plain enumeration  (3 instances)" in text


def test_attenuation_changes_no_lossless_command(scn, tmp_path):
    """--attenuation on adds columns to gain-sweep and freq-response only:
    every other command writes the same files as with it off, apart from
    the scenario fingerprint and the attenuation line itself."""
    texts = {}
    for flag in ("off", "on"):
        out = str(tmp_path / flag)
        for cmd in ("rate", "train", "design", "coverage", "verify"):
            assert run_cli(cmd, "--scenario", scn, "--out", out,
                           "--attenuation", flag) == 0
        fp = read_summary(out)["scenario"]
        texts[flag] = {
            name: open(os.path.join(out, name)).read().replace(fp, "<fp>")
            .replace(f"design.attenuation = {flag}", "design.attenuation")
            for name in sorted(os.listdir(out))}
    assert len(texts["on"]) == 7
    assert texts["on"] == texts["off"]


def test_console_entry_point(scn, tmp_path):
    """The installed script behaves like the in-process main."""
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


def test_threads_flag_is_rejected(scn, tmp_path):
    """--threads is gone; argparse rejects it like any unknown flag."""
    with pytest.raises(SystemExit) as exc:
        run_cli("design", "--scenario", scn,
                "--out", str(tmp_path / "x"), "--threads", "1")
    assert exc.value.code == 2
