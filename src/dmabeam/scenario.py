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
Every number must be finite and at most MAX_MAGNITUDE in magnitude, far
above any physical value here and low enough that scaling one to SI or
squaring it cannot overflow.  Each other bound is a key's own, in
``_SCHEMA``, or spans keys, in ``_CROSS_BOUNDS``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core_model import CONSTANTS
from .errors import ScenarioError

AUTO = "auto"
MAX_MAGNITUDE = 1e12
MAX_NORMALIZED_PRODUCT = 1e4     # f_max d_y (n_g + 1) / c, see _CROSS_BOUNDS
Q_MIN, Q_MAX = 0.1, 1e6          # 2 pi f_c / Gamma, see _CROSS_BOUNDS


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
        raise ScenarioError(f"magnitude above {MAX_MAGNITUDE:g}: {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"not an integer: {text!r}") from None


def _parse_delta(text: str) -> float:
    """Linear fraction, or dB with explicit suffix ('3 dB' -> 10^-0.3)."""
    lowered = text.lower()
    if not lowered.endswith("db"):
        return _parse_float(text)
    db = _parse_float(lowered[:-2].strip())
    if db <= 0:
        raise ScenarioError("delta in dB must be a positive backoff")
    return 10.0 ** (-db / 10.0)


def _parse_onoff(text: str) -> bool:
    if text.lower() in ("on", "off"):
        return text.lower() == "on"
    raise ScenarioError(f"expected on/off, got {text!r}")


def _parse_list(text: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ScenarioError("empty list value")
    return tuple(_parse_float(p) for p in parts)


def _or_auto(parse):
    return lambda text: AUTO if text.lower() == AUTO else parse(text)


def _fmt_list(v):
    return ", ".join(repr(float(x)) for x in v)


def _fmt_auto(v):
    return v if v == AUTO else repr(float(v))


# key -> (parser, serializer, bound), the field named by the key's last
# part; the value, or each list element, must lie in the bound, if any.
_SCHEMA = {
    "design.n_y": (_parse_int, str, "[1, inf)"),
    "design.n_z": (_parse_int, str, "[1, inf)"),
    "design.f_min": (_parse_float, str, "(0, inf)"),
    "design.f_max": (_parse_float, str, "(0, inf)"),
    "design.q_factor": (_parse_float, str, "(0, inf)"),
    "design.gamma": (_parse_float, str, "(0, inf)"),
    "design.coupling": (_parse_float, str, "(0, inf)"),
    "design.d_y": (_or_auto(_parse_float), _fmt_auto, "(0, inf)"),
    "design.n_g": (_or_auto(_parse_float), _fmt_auto, "[1, inf)"),
    "design.n_g_max": (_parse_float, str, "[1, inf)"),
    "design.alpha": (_parse_float, str, "[0, inf)"),
    "design.attenuation": (_parse_onoff, lambda v: "on" if v else "off", ""),
    "sector.phi_lower": (_parse_float, str, "[-90, 90]"),
    "sector.phi_upper": (_parse_float, str, "[-90, 90]"),
    "budget.power": (_parse_float, str, "(0, inf)"),
    "budget.distance": (_parse_float, str, "(0, inf)"),
    "budget.noise_temp": (_parse_float, str, "(0, inf)"),
    "budget.bandwidth": (_parse_float, str, "(0, inf)"),
    "budget.subcarriers": (_parse_int, str, "[1, inf)"),
    "training.groups": (_or_auto(_parse_int), _fmt_auto, "[1, inf)"),
    "training.delta": (_parse_delta, str, "(0, 1)"),
    "training.k_tr": (_parse_int, str, "[2, inf)"),
    "sweep.bandwidths": (_parse_list, _fmt_list, "(0, inf)"),
    "sweep.tuning_ranges": (_parse_list, _fmt_list, "(0, inf)"),
    "sweep.angle_samples": (_parse_int, str, "[1, inf)"),
    "sweep.freq_points": (_parse_int, str, "[2, inf)"),
    "sweep.gain_angle_points": (_parse_int, str, "[2, inf)"),
    "sweep.coverage_n_g": (_parse_list, _fmt_list, "[1, inf)"),
    "sweep.coverage_ratio_max": (_parse_float, str, "(0, inf)"),
    "sweep.coverage_points": (_parse_int, str, "[2, inf)"),
}


def _value(s: Scenario, key: str):
    return getattr(s, key.partition(".")[2])


def _q(s: Scenario) -> float:
    """Q = 2 pi f_c / Gamma, from whichever of the two ``s`` sets."""
    return s.q_factor or 2.0 * np.pi * s.f_center_hz / s.damping_hz


def _p_max(s: Scenario) -> float:
    """channel.normalized_product at f_max and phi = 90 deg."""
    return s.f_max_hz * s.d_y * (s.n_g + 1.0) / CONSTANTS.c


# The bounds that span keys: (keys, holds, message), each message naming
# the keys.  An entry waits while one of its keys is still auto.
_CROSS_BOUNDS = (
    (("design.q_factor", "design.gamma"),
     lambda s: (s.q_factor is None) != (s.gamma is None),
     lambda s: "give design.q_factor or design.gamma, not both"),
    (("design.f_min", "design.f_max"), lambda s: s.f_min < s.f_max,
     lambda s: "need design.f_min < design.f_max"),
    (("sector.phi_lower", "sector.phi_upper"),
     lambda s: s.phi_lower < s.phi_upper,
     lambda s: "need sector.phi_lower < sector.phi_upper"),
    (("training.groups", "design.n_z"), lambda s: s.n_z % s.groups == 0,
     lambda s: "training.groups must divide design.n_z"),
    # freq-response's element cutoffs first miss their 1e-8 check at Q =
    # 7e-3 and 7e7 (reference band, --phi every 0.1 deg); other commands
    # run from Q = 1e-12 to 1e12, and Q or Gamma = 1e-300 overflows.
    (("design.q_factor", "design.gamma", "design.f_min", "design.f_max"),
     lambda s: Q_MIN <= _q(s) <= Q_MAX,
     lambda s: f"design.q_factor or design.gamma puts Q = 2 pi f_c / gamma "
               f"at {_q(s):.3g}, outside [{Q_MIN:g}, {Q_MAX:g}]"),
    # rate's redesigned band f_c +- T / 2 is one float at T = 1e-15 GHz.
    (("sweep.tuning_ranges", "design.f_max"),
     lambda s: min(s.tuning_ranges) >= 1e-9 * s.f_max,
     lambda s: "sweep.tuning_ranges must be at least 1e-9 design.f_max"),
    # The link model is far-field: a receiver closer than a wavelength is
    # outside it, and the path loss (lambda / 4 pi d)^2 overflows as d -> 0.
    (("budget.distance", "design.f_min"),
     lambda s: s.distance * s.f_min_hz >= CONSTANTS.c,
     lambda s: f"budget.distance = {s.distance:g} m is below one wavelength "
               f"at design.f_min ({CONSTANTS.c / s.f_min_hz:.4g} m): the "
               f"link model is far-field"),
    # The channel phase 2 pi p (n - 1) keeps fewer fractional bits as p
    # grows: verify's binary solver and plain enumeration first disagree
    # at p = 2.6e5 on a 128-element guide (6e5 at 8 elements).
    (("design.f_max", "design.d_y", "design.n_g"),
     lambda s: _p_max(s) <= MAX_NORMALIZED_PRODUCT,
     lambda s: f"design.n_g = {s.n_g:g} and design.d_y = {s.d_y:g} m put "
               f"the normalized product at {_p_max(s):.3g}, above "
               f"{MAX_NORMALIZED_PRODUCT:g}: the phases lose fractional bits"),
)


def _meets(value, bound: str) -> bool:
    """Whether ``value``, or each element of a list, lies in ``bound``,
    an interval such as "[1, inf)" or "(0, 1)"; auto and None do."""
    if value is None or value == AUTO:
        return True
    lo, hi = map(float, bound[1:-1].split(","))
    return all((lo < v if bound[0] == "(" else lo <= v) and
               (v < hi if bound[-1] == ")" else v <= hi)
               for v in (value if isinstance(value, tuple) else (value,)))


def check_domain(s: Scenario) -> None:
    """Raise ScenarioError, naming the keys, at the first bound s breaks."""
    for key, (_, _, bound) in _SCHEMA.items():
        if bound and not _meets(_value(s, key), bound):
            raise ScenarioError(f"{key} must lie in {bound}")
    for keys, holds, message in _CROSS_BOUNDS:
        if AUTO not in [_value(s, k) for k in keys] and not holds(s):
            raise ScenarioError(message(s))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario file content; raises ScenarioError on any problem."""
    overrides = {}
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
        field = key.partition(".")[2]
        if field in overrides:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        try:
            overrides[field] = _SCHEMA[key][0](value)
        except ScenarioError as err:
            raise ScenarioError(f"line {lineno}: {key}: {err}") from None
    if "gamma" in overrides:     # the damping itself replaces the default Q
        overrides.setdefault("q_factor", None)
    scenario = Scenario(**overrides)
    check_domain(scenario)
    return scenario


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}") from None


def scenario_to_text(s: Scenario) -> str:
    """Canonical serialization; load(scenario_to_text(s)) == s."""
    lines = [f"{key} = {fmt(_value(s, key))}"
             for key, (_, fmt, _) in _SCHEMA.items()
             if _value(s, key) is not None]
    return "\n".join(lines) + "\n"


def fingerprint(s: Scenario) -> str:
    """Short stable hash of the canonical serialization."""
    return hashlib.sha256(scenario_to_text(s).encode()).hexdigest()[:12]
