"""Scenario files: flat key-value experiment configs for the CLI.

The file format is deliberately plain — one ``section.key = value`` per
line, ``#`` comments — with angles in degrees and frequencies in GHz.
Those units exist only at this boundary; everything behind it is SI
(radians, Hz, meters, watts, kelvin).

Any key may be omitted (defaults below reproduce the reference setup);
unknown keys are rejected so typos fail loudly.  ``auto`` for spacing /
refractive index / training groups defers to the sector design rule and
codebook construction.  The gain threshold ``training.delta`` takes
either a linear fraction ("0.5") or a dB value with suffix ("3 dB").
Every number must be finite and at most MAX_MAGNITUDE in magnitude:
``inf``, ``nan`` and ``1e308`` are rejected.  The cap lies far above any
physical value of these quantities in these units, and low enough that
scaling one to SI units or squaring it cannot overflow.  The receiver
must be at least one wavelength at ``design.f_min`` away: the link model
is far-field.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core_model import CONSTANTS
from .errors import ScenarioError

AUTO = "auto"
MAX_MAGNITUDE = 1e12


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario in boundary units (degrees / GHz), see module doc."""

    n_y: int = 8
    n_z: int = 4
    f_min: float = 12.0                  # GHz
    f_max: float = 18.0                  # GHz
    q_factor: Optional[float] = 50.0     # quality factor at band center...
    gamma: Optional[float] = None        # ...or the damping itself, GHz
    coupling: float = 1e-9               # m^3
    d_y: object = AUTO                   # meters, or "auto"
    n_g: object = AUTO                   # dimensionless, or "auto"
    n_g_max: float = 2.5
    alpha: float = 6.0                   # waveguide attenuation, 1/m
    attenuation: bool = False
    phi_lower: float = -30.0             # degrees
    phi_upper: float = 30.0              # degrees
    power: float = 0.25                  # watts
    distance: float = 500.0              # meters
    noise_temp: float = 290.0            # kelvin
    bandwidth: float = 0.3               # GHz
    subcarriers: int = 64
    groups: object = AUTO                # sector count, or "auto"
    delta: float = 0.5                   # linear gain fraction
    k_tr: int = 256
    bandwidths: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.3, 0.5, 1.0)   # GHz
    tuning_ranges: Tuple[float, ...] = (2.0, 3.0, 5.0, 6.0)            # GHz
    angle_samples: int = 181
    freq_points: int = 601
    gain_angle_points: int = 361
    coverage_n_g: Tuple[float, ...] = (2.0, 2.5, 3.0, 4.0)
    coverage_ratio_max: float = 0.8
    coverage_points: int = 101

    # -- SI accessors -------------------------------------------------
    @property
    def f_min_hz(self) -> float:
        return self.f_min * 1e9

    @property
    def f_max_hz(self) -> float:
        return self.f_max * 1e9

    @property
    def f_center_hz(self) -> float:
        return 0.5 * (self.f_min + self.f_max) * 1e9

    @property
    def damping_hz(self) -> float:
        if self.gamma is not None:
            return self.gamma * 1e9
        return 2.0 * np.pi * self.f_center_hz / self.q_factor

    @property
    def phi_lower_rad(self) -> float:
        return float(np.radians(self.phi_lower))

    @property
    def phi_upper_rad(self) -> float:
        return float(np.radians(self.phi_upper))

    @property
    def bandwidth_hz(self) -> float:
        return self.bandwidth * 1e9

    @property
    def bandwidths_hz(self) -> Tuple[float, ...]:
        return tuple(b * 1e9 for b in self.bandwidths)

    @property
    def tuning_ranges_hz(self) -> Tuple[float, ...]:
        return tuple(t * 1e9 for t in self.tuning_ranges)


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ScenarioError(f"not a number: {text!r}") from None
    if not np.isfinite(value):
        raise ScenarioError(f"not a finite number: {text!r}")
    if abs(value) > MAX_MAGNITUDE:
        raise ScenarioError(
            f"magnitude above {MAX_MAGNITUDE:g}: {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"not an integer: {text!r}") from None


def _parse_delta(text: str) -> float:
    """Linear fraction, or dB with explicit suffix ('3 dB' -> 10^-0.3)."""
    lowered = text.lower()
    if lowered.endswith("db"):
        db = _parse_float(lowered[:-2].strip())
        if db <= 0:
            raise ScenarioError("delta in dB must be a positive backoff")
        value = 10.0 ** (-db / 10.0)
    else:
        value = _parse_float(text)
    if not 0.0 < value < 1.0:
        raise ScenarioError(f"delta must land strictly inside (0, 1): {text!r}")
    return value


def _parse_onoff(text: str) -> bool:
    if text.lower() in ("on", "off"):
        return text.lower() == "on"
    raise ScenarioError(f"expected on/off, got {text!r}")


def _parse_list(text: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ScenarioError("empty list value")
    return tuple(_parse_float(p) for p in parts)


def _parse_auto(text: str, kind) -> object:
    return AUTO if text.lower() == AUTO else kind(text)


# key -> (scenario field, parser, serializer)
def _fmt_plain(v):
    return repr(v) if isinstance(v, float) else str(v)


def _fmt_onoff(v):
    return "on" if v else "off"


def _fmt_list(v):
    return ", ".join(repr(float(x)) for x in v)


def _fmt_auto(v):
    return v if v == AUTO else repr(float(v))


_SCHEMA = {
    "design.n_y": ("n_y", _parse_int, _fmt_plain),
    "design.n_z": ("n_z", _parse_int, _fmt_plain),
    "design.f_min": ("f_min", _parse_float, _fmt_plain),
    "design.f_max": ("f_max", _parse_float, _fmt_plain),
    "design.q_factor": ("q_factor", _parse_float, _fmt_plain),
    "design.gamma": ("gamma", _parse_float, _fmt_plain),
    "design.coupling": ("coupling", _parse_float, _fmt_plain),
    "design.d_y": ("d_y", lambda t: _parse_auto(t, _parse_float), _fmt_auto),
    "design.n_g": ("n_g", lambda t: _parse_auto(t, _parse_float), _fmt_auto),
    "design.n_g_max": ("n_g_max", _parse_float, _fmt_plain),
    "design.alpha": ("alpha", _parse_float, _fmt_plain),
    "design.attenuation": ("attenuation", _parse_onoff, _fmt_onoff),
    "sector.phi_lower": ("phi_lower", _parse_float, _fmt_plain),
    "sector.phi_upper": ("phi_upper", _parse_float, _fmt_plain),
    "budget.power": ("power", _parse_float, _fmt_plain),
    "budget.distance": ("distance", _parse_float, _fmt_plain),
    "budget.noise_temp": ("noise_temp", _parse_float, _fmt_plain),
    "budget.bandwidth": ("bandwidth", _parse_float, _fmt_plain),
    "budget.subcarriers": ("subcarriers", _parse_int, _fmt_plain),
    "training.groups": ("groups", lambda t: _parse_auto(t, _parse_int), _fmt_auto),
    "training.delta": ("delta", _parse_delta, _fmt_plain),
    "training.k_tr": ("k_tr", _parse_int, _fmt_plain),
    "sweep.bandwidths": ("bandwidths", _parse_list, _fmt_list),
    "sweep.tuning_ranges": ("tuning_ranges", _parse_list, _fmt_list),
    "sweep.angle_samples": ("angle_samples", _parse_int, _fmt_plain),
    "sweep.freq_points": ("freq_points", _parse_int, _fmt_plain),
    "sweep.gain_angle_points": ("gain_angle_points", _parse_int, _fmt_plain),
    "sweep.coverage_n_g": ("coverage_n_g", _parse_list, _fmt_list),
    "sweep.coverage_ratio_max": ("coverage_ratio_max", _parse_float, _fmt_plain),
    "sweep.coverage_points": ("coverage_points", _parse_int, _fmt_plain),
}

_FIELD_TO_KEY = {field: key for key, (field, _, _) in _SCHEMA.items()}


def _validate(s: Scenario, saw_gamma: bool, saw_q: bool) -> Scenario:
    if saw_gamma and saw_q:
        raise ScenarioError("give design.q_factor or design.gamma, not both")
    if saw_gamma:
        s = dataclasses.replace(s, q_factor=None)
    checks = [
        (s.n_y >= 1, "design.n_y must be >= 1"),
        (s.n_z >= 1, "design.n_z must be >= 1"),
        (0 < s.f_min < s.f_max, "need 0 < design.f_min < design.f_max"),
        (s.gamma is None or s.gamma > 0, "design.gamma must be positive"),
        (s.q_factor is None or s.q_factor > 0, "design.q_factor must be positive"),
        (s.coupling > 0, "design.coupling must be positive"),
        (s.d_y == AUTO or s.d_y > 0, "design.d_y must be positive or auto"),
        (s.n_g == AUTO or s.n_g >= 1, "design.n_g must be >= 1 or auto"),
        (s.n_g_max >= 1, "design.n_g_max must be >= 1"),
        (s.alpha >= 0, "design.alpha must be non-negative"),
        (-90.0 <= s.phi_lower < s.phi_upper <= 90.0,
         "sector angles must satisfy -90 <= lower < upper <= 90"),
        (s.power > 0, "budget.power must be positive"),
        (s.distance > 0, "budget.distance must be positive"),
        (s.noise_temp > 0, "budget.noise_temp must be positive"),
        (s.bandwidth > 0, "budget.bandwidth must be positive"),
        (s.subcarriers >= 1, "budget.subcarriers must be >= 1"),
        (s.groups == AUTO or s.groups >= 1, "training.groups must be >= 1 or auto"),
        (s.groups == AUTO or s.n_z % s.groups == 0,
         "training.groups must divide design.n_z"),
        (s.k_tr >= 2, "training.k_tr must be >= 2"),
        (all(b > 0 for b in s.bandwidths), "sweep.bandwidths must be positive"),
        (all(t > 0 for t in s.tuning_ranges), "sweep.tuning_ranges must be positive"),
        (s.angle_samples >= 1, "sweep.angle_samples must be >= 1"),
        (s.freq_points >= 2, "sweep.freq_points must be >= 2"),
        (s.gain_angle_points >= 2, "sweep.gain_angle_points must be >= 2"),
        (all(g >= 1 for g in s.coverage_n_g), "sweep.coverage_n_g must be >= 1"),
        (s.coverage_ratio_max > 0, "sweep.coverage_ratio_max must be positive"),
        (s.coverage_points >= 2, "sweep.coverage_points must be >= 2"),
    ]
    for ok, message in checks:
        if not ok:
            raise ScenarioError(message)
    # The link model is far-field: a receiver closer than a wavelength is
    # outside it, and the path loss (lambda / 4 pi d)^2 overflows as d -> 0.
    if s.distance * s.f_min_hz < CONSTANTS.c:
        raise ScenarioError(
            f"budget.distance = {s.distance:g} m is below one wavelength at "
            f"design.f_min ({CONSTANTS.c / s.f_min_hz:.4g} m): the link "
            f"model is far-field")
    return s


def parse_scenario(text: str) -> Scenario:
    """Parse scenario file content; raises ScenarioError on any problem."""
    overrides = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        field, parser, _ = _SCHEMA[key]
        try:
            overrides[field] = parser(value)
        except ScenarioError as err:
            raise ScenarioError(f"line {lineno}: {key}: {err}") from None
    scenario = Scenario(**overrides)
    return _validate(scenario, "design.gamma" in seen, "design.q_factor" in seen)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}") from None


def scenario_to_text(s: Scenario) -> str:
    """Canonical serialization; load(scenario_to_text(s)) == s."""
    lines = []
    for key, (field, _, fmt) in _SCHEMA.items():
        value = getattr(s, field)
        if value is None:
            continue
        lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def fingerprint(s: Scenario) -> str:
    """Short stable hash of the canonical serialization."""
    return hashlib.sha256(scenario_to_text(s).encode()).hexdigest()[:12]
