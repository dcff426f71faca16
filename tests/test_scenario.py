"""Scenario file parsing, validation, canonical serialization."""

import numpy as np
import pytest

import dmabeam as db
import dmabeam.cli as cli
from dmabeam import ScenarioError
from dmabeam.scenario import MAX_MAGNITUDE


def test_empty_text_gives_defaults():
    s = db.parse_scenario("")
    assert s == db.Scenario()
    assert s.n_y == 8 and s.n_z == 4
    assert s.f_min == 12.0 and s.f_max == 18.0
    assert s.q_factor == 50.0 and s.gamma is None
    assert s.delta == 0.5


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\n  design.n_y = 12  # trailing note\n"
    assert db.parse_scenario(text).n_y == 12


def test_round_trip_is_exact():
    text = """
design.n_y = 6
design.n_z = 2
design.f_min = 10
design.f_max = 20
budget.subcarriers = 32
training.delta = 0.25
sweep.bandwidths = 0.1, 0.2
design.attenuation = on
"""
    s = db.parse_scenario(text)
    assert db.parse_scenario(db.scenario_to_text(s)) == s


def test_si_accessors_convert_boundary_units():
    s = db.parse_scenario("design.f_min = 10\ndesign.f_max = 20\n")
    assert s.f_min_hz == 10e9
    assert s.f_center_hz == 15e9
    assert s.damping_hz == pytest.approx(2 * np.pi * 15e9 / 50, rel=1e-12)
    assert s.phi_lower_rad == pytest.approx(np.radians(-30.0), rel=1e-12)


def test_gamma_replaces_quality_factor():
    s = db.parse_scenario("design.gamma = 2.0\n")
    assert s.q_factor is None
    assert s.damping_hz == pytest.approx(2e9, rel=1e-12)
    with pytest.raises(ScenarioError):
        db.parse_scenario("design.gamma = 2.0\ndesign.q_factor = 40\n")


def test_delta_accepts_db_suffix():
    s = db.parse_scenario("training.delta = 3 dB\n")
    assert s.delta == pytest.approx(10 ** (-0.3), rel=1e-12)
    s = db.parse_scenario("training.delta = 0.6 dB\n")
    assert s.delta == pytest.approx(10 ** (-0.06), rel=1e-12)


def test_delta_validation():
    for bad in ("0", "1", "-0.2", "1.3", "-3 dB"):
        with pytest.raises(ScenarioError):
            db.parse_scenario(f"training.delta = {bad}\n")


# Every key whose value is one or more floats; the others take integers,
# on/off or auto-or-integer.
FLOAT_KEYS = (
    "design.f_min", "design.f_max", "design.q_factor", "design.gamma",
    "design.coupling", "design.d_y", "design.n_g", "design.n_g_max",
    "design.alpha", "sector.phi_lower", "sector.phi_upper", "budget.power",
    "budget.distance", "budget.noise_temp", "budget.bandwidth",
    "training.delta", "sweep.bandwidths", "sweep.tuning_ranges",
    "sweep.coverage_n_g", "sweep.coverage_ratio_max",
)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_numbers_are_rejected(key, value):
    with pytest.raises(ScenarioError,
                       match=f"line 1: {key}: not a finite number"):
        db.parse_scenario(f"{key} = {value}\n")


@pytest.mark.parametrize("value", ["1e308", "-1e300", "1.000001e12"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_huge_numbers_are_rejected(key, value):
    """A finite number above the cap, e.g. 1e308 GHz, overflows once
    scaled to SI or squared: it is an invalid scenario, by name."""
    with pytest.raises(ScenarioError,
                       match=f"line 1: {key}: magnitude above 1e\\+12"):
        db.parse_scenario(f"{key} = {value}\n")


# Small sweeps keep the seven commands of one case near 0.1 s in all.
SMALL = """\
budget.subcarriers = 8
training.k_tr = 32
sweep.angle_samples = 9
sweep.freq_points = 16
sweep.gain_angle_points = 19
sweep.coverage_points = 5
sweep.bandwidths = 0.3
sweep.tuning_ranges = 3.0
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["1e-300", "1e12"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_extreme_numbers_end_in_a_known_exit_code(key, value, tmp_path,
                                                  capsys):
    """Each float key at 1e-300 and at the magnitude cap, through all
    seven commands with attenuation on: no warning or exception escapes,
    every run exits 0, 2, 3 or 4, and an invalid scenario names the key."""
    lines = [line for line in SMALL.splitlines(True)
             if not line.startswith(f"{key} =")]
    path = tmp_path / "extreme.scn"
    path.write_text("".join(lines) + f"{key} = {value}\n")
    for command in cli._COMMANDS:
        code = cli.main([command, "--scenario", str(path), "--attenuation",
                         "on", "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (command, code, err)
        if code == 2:
            assert key in err, (command, err)


@pytest.mark.parametrize("text", [
    "design.q_factor = 0.099\n", "design.q_factor = 1.01e6\n",
    "design.gamma = 1e-300\n", "design.gamma = 1e3\n"])
def test_a_damping_outside_the_q_range_is_rejected(text):
    """Q = 2 pi f_c / Gamma, from whichever of design.q_factor and
    design.gamma is set, must lie in [0.1, 1e6]: freq-response's cutoffs
    miss their threshold at 7e-3 and 7e7, and Gamma = 1e-300 GHz
    overflows the weights."""
    with pytest.raises(ScenarioError,
                       match="design.q_factor or design.gamma puts Q"):
        db.parse_scenario(text)


def test_the_q_range_includes_its_ends():
    for q in (0.1, 1e6):
        assert db.parse_scenario(f"design.q_factor = {q}\n").q_factor == q
    s = db.parse_scenario("design.gamma = 900\n")
    assert s.gamma == 900.0 and s.q_factor is None


@pytest.mark.parametrize("text", [
    "budget.distance = 1e-300\n", "budget.distance = 0.02\n",
    "design.f_min = 1\ndesign.f_max = 2\nbudget.distance = 0.29\n"])
def test_a_distance_below_one_wavelength_is_rejected(text):
    """The link model is far-field: a receiver closer than one wavelength
    at design.f_min (2.5 cm at 12 GHz, 30 cm at 1 GHz) is invalid, by
    name, before 1e-300 m overflows the path loss."""
    with pytest.raises(ScenarioError,
                       match="budget.distance = .* is below one wavelength "
                             "at design.f_min"):
        db.parse_scenario(text)


def test_a_distance_of_a_wavelength_or_more_is_accepted():
    assert db.parse_scenario("budget.distance = 0.03\n").distance == 0.03
    s = db.parse_scenario("design.f_min = 1\ndesign.f_max = 2\n"
                          "budget.distance = 0.3\n")
    assert s.distance == 0.3


def test_numbers_at_the_magnitude_cap_are_accepted():
    s = db.parse_scenario("budget.power = 1e12\nbudget.distance = 1e12\n"
                          "sweep.bandwidths = 0.3, 1e12\n")
    assert s.power == s.distance == s.bandwidths[1] == MAX_MAGNITUDE


@pytest.mark.parametrize("key, value", [
    ("training.delta", "inf dB"), ("training.delta", "nan dB"),
    ("sweep.bandwidths", "0.3, inf"), ("sweep.coverage_n_g", "2, nan")])
def test_non_finite_numbers_are_rejected_inside_values(key, value):
    with pytest.raises(ScenarioError, match="not a finite number"):
        db.parse_scenario(f"{key} = {value}\n")


def test_float_keys_are_all_the_keys_that_take_a_float():
    text = db.scenario_to_text(db.Scenario()) + "design.gamma = 1\n"
    keys = [line.partition(" = ")[0] for line in text.splitlines()]
    assert set(FLOAT_KEYS) <= set(keys)
    for key in set(keys) - set(FLOAT_KEYS):
        with pytest.raises(ScenarioError):
            db.parse_scenario(f"{key} = 1.5\n")


def test_unknown_key_reports_line_number():
    with pytest.raises(ScenarioError, match="line 2"):
        db.parse_scenario("design.n_y = 8\nbogus.key = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        db.parse_scenario("design.n_y = 8\ndesign.n_y = 9\n")


def test_malformed_line_rejected():
    with pytest.raises(ScenarioError):
        db.parse_scenario("design.n_y 8\n")
    with pytest.raises(ScenarioError):
        db.parse_scenario("design.n_y = eight\n")


def test_sector_ordering_enforced():
    with pytest.raises(ScenarioError):
        db.parse_scenario("sector.phi_lower = 20\nsector.phi_upper = -20\n")


def test_groups_must_divide_waveguides():
    with pytest.raises(ScenarioError):
        db.parse_scenario("design.n_z = 4\ntraining.groups = 3\n")
    s = db.parse_scenario("design.n_z = 4\ntraining.groups = 2\n")
    assert s.groups == 2


def test_onoff_values():
    assert db.parse_scenario("design.attenuation = on\n").attenuation is True
    assert db.parse_scenario("design.attenuation = off\n").attenuation is False
    with pytest.raises(ScenarioError):
        db.parse_scenario("design.attenuation = maybe\n")


def test_fingerprint_tracks_content():
    a = db.fingerprint(db.parse_scenario(""))
    b = db.fingerprint(db.parse_scenario("design.n_y = 9\n"))
    assert a != b
    assert len(a) == 12
    assert a == db.fingerprint(db.parse_scenario("# just a comment\n"))


def test_auto_fields_parse_and_serialize():
    s = db.parse_scenario("design.d_y = auto\ndesign.n_g = auto\n")
    assert s.d_y == "auto" and s.n_g == "auto"
    explicit = db.parse_scenario("design.d_y = 0.009\n")
    assert explicit.d_y == 0.009
    assert "design.d_y = 0.009" in db.scenario_to_text(explicit)
