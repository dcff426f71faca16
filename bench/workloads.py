"""The benchmark's workloads: scenario files, CLI argument lists, passes.

A workload is one or more ``dmabeam`` commands run back to back on a
scenario file, as a user would run them.  The seed picks one of a few
input variants.  Variant 0 is the reference setup.  The others change
only inputs that leave the amount of work unchanged: a small jitter of
``design.q_factor`` (all workloads) and the ``--phi`` angles of
``figure-set``.  The set is finite so that every variant has recorded
reference outputs (see make_reference.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
from typing import Callable, List, Sequence, Tuple

# (design.q_factor, freq-response --phi, train --phi) per variant.
VARIANTS = (
    (50.0, -18.0, -12.5),
    (49.5, -15.0, -7.5),
    (50.5, -21.0, 10.0),
    (50.25, 12.0, -20.0),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scenario_lines: Tuple[str, ...]
    commands: Tuple[Tuple[str, ...], ...]   # "{phi_fr}" / "{phi_tr}" filled per variant


WORKLOADS = {
    w.name: w for w in (
        Workload("rate-reference", (), (("rate",),)),
        Workload("gain-sweep-reference", (), (("gain-sweep",),)),
        # n_y = 16 makes each angle enumerate 2^16 masks twice (plain and
        # attenuated); 91 angles keep solve_p4 the largest layer.
        Workload("binary-wide",
                 ("design.n_y = 16", "design.attenuation = on",
                  "sweep.gain_angle_points = 91"),
                 (("gain-sweep",),)),
        Workload("figure-set", (), (
            ("design",),
            ("coverage",),
            ("freq-response", "--phi", "{phi_fr}"),
            ("train", "--phi", "{phi_tr}"),
            ("verify",),
        )),
    )
}


def variant_of(seed: int) -> int:
    return seed % len(VARIANTS)


def scenario_text(workload: Workload, variant: int) -> str:
    q_factor = VARIANTS[variant][0]
    lines = list(workload.scenario_lines) + [f"design.q_factor = {q_factor!r}"]
    return "\n".join(lines) + "\n"


def write_scenario(workload: Workload, variant: int, directory: str) -> str:
    path = os.path.join(directory, f"{workload.name}.scn")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(workload, variant))
    return path


def pass_argvs(workload: Workload, variant: int, scenario_path: str,
               out_dir: str) -> List[List[str]]:
    """The CLI argument lists of one pass, in order."""
    _, phi_fr, phi_tr = VARIANTS[variant]
    argvs = []
    for command in workload.commands:
        argv = [part.format(phi_fr=phi_fr, phi_tr=phi_tr) for part in command]
        argvs.append(argv + ["--scenario", scenario_path, "--out", out_dir])
    return argvs


@dataclasses.dataclass
class PassOutcome:
    exit_codes: List[int]
    stdout: str
    error: str = ""          # uncaught exception, if any

    @property
    def ok(self) -> bool:
        return not self.error and all(code == 0 for code in self.exit_codes)


def run_pass(main: Callable[[Sequence[str]], int],
             argvs: List[List[str]]) -> PassOutcome:
    """Run every command of one pass in this process, capturing stdout."""
    buf = io.StringIO()
    codes: List[int] = []
    error = ""
    with contextlib.redirect_stdout(buf):
        for argv in argvs:
            try:
                codes.append(main(argv))
            except (Exception, SystemExit) as exc:   # a failed pass, not a crash
                error = f"{' '.join(argv[:1])}: {type(exc).__name__}: {exc}"
                codes.append(-1)
    return PassOutcome(exit_codes=codes, stdout=buf.getvalue(), error=error)
