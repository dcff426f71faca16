"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import dmabeam.cli as cli

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


def read_summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


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


def test_json_format_mirrors_csv(scn, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("coverage", "--scenario", scn, "--out", out,
                   "--format", "json") == 0
    doc = json.load(open(os.path.join(out, "coverage.json")))
    assert set(doc) == {"scenario", "columns", "rows"}
    assert re.match(r"^[0-9a-f]{12}$", doc["scenario"])
    assert all(len(r) == len(doc["columns"]) for r in doc["rows"])


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
    """Q = 1: NaN cells sit exactly where the scalar solver raises, in the
    plain and the attenuated columns alike."""
    from dmabeam import InfeasibleElementError, optimal_operating_freq, \
        solve_p1a
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

    def raises(phi, f_t):
        try:
            solve_p1a(design, phi, f_t)
        except InfeasibleElementError:
            return True
        return False

    phis = np.radians(np.linspace(-90.0, 90.0, 61)).tolist()
    for label, f_ts in (
            ("opt", [optimal_operating_freq(design, p).f_t_star for p in phis]),
            ("fixed", [15e9] * len(phis))):
        plain = columns.index(f"gain_{label}(linear)")
        lossy = columns.index(f"gain_{label}_attenuated(linear)")
        expect = [raises(phi, f_t) for phi, f_t in zip(phis, f_ts)]
        assert any(expect) and not all(expect)
        assert [np.isnan(row[plain]) for row in rows] == expect
        assert [np.isnan(row[lossy]) for row in rows] == expect


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
    """N_y above the enumeration oracle's cap is checked on a reduced
    array, as the grid check is, instead of failing as a config error."""
    import dmabeam.oracle as oracle

    monkeypatch.setattr(oracle, "BINARY_MAX_ELEMENTS", 6)
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


def test_console_entry_point(scn, tmp_path):
    """The installed script behaves like the in-process main."""
    out = str(tmp_path / "run")
    proc = subprocess.run([sys.executable, "-m", "dmabeam.cli", "design",
                           "--scenario", scn, "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "design.n_g" in proc.stdout


def test_cli_import_leaves_scipy_solvers_unloaded():
    """scipy.optimize and scipy.spatial load only when first needed."""
    code = ("import dmabeam.cli, sys; "
            "print([m for m in ('scipy.optimize', 'scipy.spatial') "
            "if m in sys.modules])")
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
