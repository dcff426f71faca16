"""Correctness checks on the files and stdout of one benchmark pass.

Outputs are compared with reference values recorded from the seed
commit (reference/<workload>.json, one entry per seed variant) to a
relative tolerance, not byte for byte: a vectorized kernel may sum in
another order.  Invariants that hold for any input are checked as well.
All of this runs outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

RTOL = 1e-9            # relative tolerance for every recorded value...
ATOL_FRAC = 1e-12      # ...plus this fraction of the column's largest value
# A golden-section maximum is located only to about sqrt(eps) in p from
# function values, because the objective is flat at its peak.  Values
# that depend on the located p to first order get this tolerance.
PLANNER_RTOL = 1e-6
SAME_AS_VARIANT0 = "same as variant 0"

_INT = re.compile(r"-?\d+")
_VERIFY_LINE = re.compile(r"^(PASS|FAIL)  (.+?)  \(")


# ------------------------------------------------------------------ parsing

def _cell(text: str):
    return int(text) if _INT.fullmatch(text) else float(text)


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# scenario = "):
        raise ValueError("missing '# scenario = <fingerprint>' header")
    return {
        "fingerprint": lines[0].split("=", 1)[1].strip(),
        "columns": lines[1].split(","),
        "rows": [[_cell(c) for c in line.split(",")] for line in lines[2:]],
    }


def parse_keyvalues(text: str) -> dict:
    return dict(tuple(part.strip() for part in line.split("=", 1))
                for line in text.splitlines() if line.strip())


def verify_lines(stdout: str) -> List[List[str]]:
    return [list(m.groups()) for m in map(_VERIFY_LINE.match, stdout.splitlines())
            if m]


def read_outputs(out_dir: str, stdout: str) -> dict:
    """Parse every file a pass wrote, plus the verify lines of its stdout."""
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".csv"):
            outputs[name] = parse_csv(text)
        elif name.endswith(".json"):
            outputs[name] = json.loads(text)
        else:
            outputs[name] = parse_keyvalues(text)
    outputs["verify_lines"] = verify_lines(stdout)
    return outputs


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir))


def nan_cells(outputs: dict) -> int:
    return sum(1 for name, table in outputs.items() if name.endswith(".csv")
               for row in table["rows"] for x in row
               if isinstance(x, float) and math.isnan(x))


# ---------------------------------------------------------------- reference

def load_reference(workload: str, variant: int) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        variants = json.load(fh)["variants"]
    base, entry = variants[0], variants[variant]
    return {name: base[name] if value == SAME_AS_VARIANT0 else value
            for name, value in entry.items()}


def _close(got, ref, tol_abs: float = 0.0, rtol: float = RTOL) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(got, float) and math.isnan(got)
    if isinstance(ref, float) and math.isinf(ref):
        return got == ref
    if not isinstance(got, (int, float)) or isinstance(got, bool) \
            or (isinstance(got, float) and not math.isfinite(got)):
        return False
    return abs(got - ref) <= rtol * abs(ref) + tol_abs


def _compare_tree(got, ref, path: str, problems: List[str]) -> None:
    """Recursive comparison of parsed JSON / key-value outputs."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                            f" != {sorted(ref)}")
            return
        for key in ref:
            # verify's detail strings embed measured gaps; its pass flags
            # carry the verdict and are compared exactly.
            if key == "detail" and path.startswith("summary.json/verify/"):
                continue
            _compare_tree(got[key], ref[key], f"{path}/{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: length differs from reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_tree(g, r, f"{path}[{i}]", problems)
    elif isinstance(ref, str):
        if got != ref and not (_is_number(ref) and _is_number(got)
                               and _close(float(got), float(ref))):
            problems.append(f"{path}: {got!r} != reference {ref!r}")
    elif isinstance(ref, bool) or ref is None:
        if got is not ref:
            problems.append(f"{path}: {got!r} != reference {ref!r}")
    elif not _close(got, ref, ATOL_FRAC * abs(ref)):
        problems.append(f"{path}: {got!r} != reference {ref!r}")


def _is_number(text) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def _golden_tolerances(table: dict, design) -> List[float]:
    """Per gain-sweep row: f_star tolerance (GHz) if the planner took its
    non-integer branch, else 0.0 (the row is then compared as usual)."""
    from dmabeam.core_model import CONSTANTS
    from dmabeam.frequency_planner import GOLDEN_TOL

    cols = table["columns"]
    i_phi, i_f = cols.index("phi(deg)"), cols.index("f_star(GHz)")
    tols = []
    for row in table["rows"]:
        slope = design.spacing * (design.refractive_index
                                  + math.sin(math.radians(row[i_phi]))) / CONSTANTS.c
        p = row[i_f] * 1e9 * slope
        tol_p = GOLDEN_TOL + math.sqrt(2.2e-16) * abs(p)
        tols.append(tol_p / slope / 1e9 if abs(p - round(p)) > 1e-9 else 0.0)
    return tols


def _compare_table(name: str, got: dict, ref: dict, design,
                   problems: List[str]) -> None:
    if got["columns"] != ref["columns"]:
        problems.append(f"{name}: columns {got['columns']} != {ref['columns']}")
        return
    if len(got["rows"]) != len(ref["rows"]):
        problems.append(f"{name}: {len(got['rows'])} rows, reference has "
                        f"{len(ref['rows'])}")
        return
    cols = ref["columns"]
    golden = _golden_tolerances(ref, design) if "f_star(GHz)" in cols \
        else [0.0] * len(ref["rows"])
    for j, col in enumerate(cols):
        if col.endswith("(dB)"):
            continue   # checked against its own linear column, see invariants
        finite = [abs(r[j]) for r in ref["rows"] if math.isfinite(r[j])]
        tol_abs = ATOL_FRAC * max(finite, default=0.0)
        for i, (g_row, r_row) in enumerate(zip(got["rows"], ref["rows"])):
            g, r = g_row[j], r_row[j]
            if isinstance(r, int):
                ok = g == r
            elif golden[i] and col == "f_star(GHz)":
                ok = _close(g, r, golden[i], rtol=0.0)
            elif golden[i] and col == "gain_opt_attenuated(linear)":
                ok = _close(g, r, tol_abs, rtol=PLANNER_RTOL)
            else:
                ok = _close(g, r, tol_abs)
            if not ok:
                problems.append(f"{name} row {i} {col}: {g!r} != reference {r!r}")


def compare_with_reference(outputs: dict, reference: dict, design) -> List[str]:
    problems: List[str] = []
    if set(outputs) != set(reference):
        problems.append(f"output files {sorted(outputs)} != reference "
                        f"{sorted(reference)}")
    for name in sorted(set(outputs) & set(reference)):
        got, ref = outputs[name], reference[name]
        if name.endswith(".csv"):
            _compare_table(name, got, ref, design, problems)
        else:
            _compare_tree(got, ref, name, problems)
    return problems


# --------------------------------------------------------------- invariants

def check_invariants(workload: str, outputs: dict, design) -> List[str]:
    problems: List[str] = []
    summary = outputs.get("summary.json", {})
    fingerprint = summary.get("scenario")
    for name, table in outputs.items():
        if not name.endswith(".csv"):
            continue
        if table["fingerprint"] != fingerprint:
            problems.append(f"{name}: fingerprint {table['fingerprint']} "
                            f"!= summary {fingerprint}")
        _check_db_columns(name, table, problems)
    if "rate" in summary and \
            summary["rate"].get("ordering_fixed_trained_perfect_ttd") is not True:
        problems.append("rate: fixed <= trained <= perfect <= ttd ordering broken")
    if "train" in summary and summary["train"].get("floor_respected") is not True:
        problems.append("train: codebook gain floor not respected")
    if workload == "figure-set":
        lines = outputs.get("verify_lines", [])
        if not lines or any(status != "PASS" for status, _ in lines):
            problems.append(f"verify: expected every line to read PASS, got {lines}")
    if "gain_sweep.csv" in outputs:
        table = outputs["gain_sweep.csv"]
        cols = table["columns"]
        i_opt, i_fix = cols.index("gain_opt(linear)"), cols.index("gain_fixed(linear)")
        cap = design.n_elements ** 2 * (1.0 + RTOL)
        for i, row in enumerate(table["rows"]):
            opt, fix = row[i_opt], row[i_fix]
            if math.isfinite(opt) and opt > cap:
                problems.append(f"gain_sweep row {i}: gain_opt {opt} > N_y^2")
            if math.isfinite(opt) and math.isfinite(fix) and opt < fix * (1.0 - RTOL):
                problems.append(f"gain_sweep row {i}: gain_opt {opt} < gain_fixed {fix}")
    return problems


def _check_db_columns(name: str, table: dict, problems: List[str]) -> None:
    cols = table["columns"]
    for j, col in enumerate(cols):
        if not col.endswith("(dB)"):
            continue
        k = cols.index(col[:-len("(dB)")] + "(linear)")
        for i, row in enumerate(table["rows"]):
            lin, db = row[k], row[j]
            # the CLI writes -inf dB for a zero or NaN (infeasible) gain
            expect = 10.0 * math.log10(lin) if lin > 0 else float("-inf")
            # 5e-11 absolute: the CSV keeps 12 significant digits.
            if not _close(db, expect, 5e-11 * max(1.0, abs(expect))):
                problems.append(f"{name} row {i} {col}: {db} != 10 log10({lin})")


def spot_check_binary(outputs: dict, design, rows: List[int]) -> List[str]:
    """Compare gain_binary at a few rows with oracle.enumerate_binary."""
    from dmabeam import oracle

    table = outputs["gain_sweep.csv"]
    cols = table["columns"]
    i_phi, i_bin = cols.index("phi(deg)"), cols.index("gain_binary(linear)")
    f_c = 0.5 * (design.f_min + design.f_max)
    problems = []
    for i in rows:
        row = table["rows"][i]
        slow = oracle.enumerate_binary(design, math.radians(row[i_phi]), f_c)
        if not _close(row[i_bin], slow.gain, ATOL_FRAC * design.n_elements ** 2):
            problems.append(f"gain_sweep row {i}: gain_binary {row[i_bin]} != "
                            f"enumerate_binary {slow.gain}")
    return problems


def check_pass(workload: str, outputs: dict, reference: dict, design) -> List[str]:
    return (compare_with_reference(outputs, reference, design)
            + check_invariants(workload, outputs, design))


def stats(outputs: dict, out_dir: str) -> Dict[str, int]:
    return {"nan_cells": nan_cells(outputs), "output_bytes": output_bytes(out_dir)}
