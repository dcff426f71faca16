"""Fuzz gate over the scenario space: every command ends in a known exit
code, lets no exception escape, writes nothing when it fails, writes
summary.json as strict JSON, and names on stderr every CSV column that
holds a NaN cell."""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmabeam.cli as cli

COMMANDS = ("gain-sweep", "freq-response", "train", "rate", "verify")

# Small sweeps keep one example, verify's fixed-size oracles included,
# near half a second.
SMALL = {
    "budget.subcarriers": "8",
    "training.k_tr": "32",
    "sweep.angle_samples": "9",
    "sweep.freq_points": "16",
    "sweep.gain_angle_points": "19",
    "sweep.bandwidths": "0.3",
    "sweep.tuning_ranges": "3.0",
}


FLOAT_KEYS = ("design.f_max", "design.n_g", "design.alpha", "budget.power",
              "sector.phi_upper", "sweep.bandwidths")


@st.composite
def scenarios(draw):
    # Sectors of 20 to 80 deg: the design rule realizes most of them with
    # n_g_max = 2.5, and some are too narrow or too wide for it.
    lower = draw(st.integers(-60, 10))
    upper = min(lower + draw(st.integers(20, 80)), 85)
    fields = {
        "design.q_factor": draw(st.sampled_from(["1", "2", "5", "50"])),
        "design.n_g": draw(st.sampled_from(["auto", "1"])),
        "design.n_y": str(draw(st.integers(1, 12))),
        "design.n_z": draw(st.sampled_from(["1", "2", "4", "8"])),
        "design.attenuation": draw(st.sampled_from(["on", "off"])),
        "sector.phi_lower": str(lower),
        "sector.phi_upper": str(upper),
    }
    fields.update(SMALL)
    fields["training.delta"] = draw(st.sampled_from(["0.5", "3 dB", "250 dB"]))
    # At most one float key set to a value the parser rejects.
    non_finite = draw(st.none() | st.tuples(
        st.sampled_from(FLOAT_KEYS), st.sampled_from(["inf", "-inf", "nan"])))
    if non_finite is not None:
        fields[non_finite[0]] = non_finite[1]
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def nan_columns(path):
    """Names of the columns of a CSV output that hold a NaN cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {name for i, name in enumerate(header)
            if any(row[i] == "nan" for row in body)}


def reject_constant(name):
    raise ValueError(f"summary.json holds the non-standard token {name}")


def check_commands(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.scn")
        with open(path, "w") as fh:
            fh.write(text)
        for command in COMMANDS:
            out = os.path.join(tmp, command)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main([command, "--scenario", path, "--out", out])
            assert code in (0, 2, 3, 4), (command, code, err.getvalue())
            if code in (cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE):
                assert not os.path.exists(out), (command, os.listdir(out))
                continue
            with open(os.path.join(out, "summary.json")) as fh:
                json.loads(fh.read(), parse_constant=reject_constant)
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv"):
                    for column in nan_columns(os.path.join(out, name)):
                        assert f"{command}: {column}: " in err.getvalue(), \
                            (command, name, column)


@given(text=scenarios())
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
def test_every_command_ends_in_a_known_exit_code(text):
    check_commands(text)


@pytest.mark.parametrize("key, value", [
    ("design.f_max", "1e308"), ("design.n_g", "1e300"),
    ("budget.power", "1e308")])
def test_huge_finite_numbers_are_invalid_in_every_command(key, value,
                                                          tmp_path):
    """Each once ended in a traceback, a RuntimeWarning or a misleading
    message in some command; now every command exits 2 naming the key."""
    path = tmp_path / "huge.scn"
    path.write_text(f"{key} = {value}\n")
    for command in cli._COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, "--scenario", str(path),
                             "--out", str(tmp_path / command)])
        assert code == cli.EXIT_CONFIG, (command, err.getvalue())
        assert f"{key}: magnitude above 1e+12" in err.getvalue(), command
        assert not os.path.exists(tmp_path / command)


@pytest.mark.parametrize("text, keys", [
    ("design.n_g = 1e7\n", ("design.n_g = 1e+07", "design.d_y = ")),
    ("design.n_g = 1\ndesign.d_y = 2000\n",
     ("design.n_g = 1 ", "design.d_y = 2000 m")),
    ("budget.distance = 1e-300\n", ("budget.distance = 1e-300 m",))])
def test_out_of_model_designs_are_invalid_in_every_command(text, keys,
                                                           tmp_path):
    """A normalized product above scenario.MAX_NORMALIZED_PRODUCT once made
    verify fail its binary check, and a distance of 1e-300 m overflowed
    the path loss: every command now exits 2 naming the keys."""
    path = tmp_path / "out_of_model.scn"
    path.write_text(text)
    for command in cli._COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, "--scenario", str(path),
                             "--out", str(tmp_path / command)])
        assert code == cli.EXIT_CONFIG, (command, err.getvalue())
        for key in keys:
            assert key in err.getvalue(), (command, err.getvalue())
        assert not os.path.exists(tmp_path / command)
