"""Record the reference outputs that checks.py compares every pass with.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one pass of each workload for every seed variant on the code in
src/ and writes reference/<workload>.json.  Run it only on a commit whose
outputs are known to be right; the file records them as the truth.
Outputs equal to variant 0's (apart from the scenario fingerprint,
which checks.py compares through summary.json) are stored once.
"""

import json
import os
import shutil
import sys
import tempfile

import checks
import workloads

SRC = os.path.join(os.path.dirname(checks.HERE), "src")


def record(name: str, work: str) -> dict:
    import dmabeam.cli

    workload = workloads.WORKLOADS[name]
    variants = []
    for variant in range(len(workloads.VARIANTS)):
        scenario = workloads.write_scenario(workload, variant, work)
        out_dir = os.path.join(work, f"{name}-{variant}")
        outcome = workloads.run_pass(
            dmabeam.cli.main,
            workloads.pass_argvs(workload, variant, scenario, out_dir))
        if not outcome.ok:
            raise SystemExit(f"{name} variant {variant} failed: "
                             f"{outcome.exit_codes} {outcome.error}")
        outputs = checks.read_outputs(out_dir, outcome.stdout)
        design = dmabeam.cli._resolve(dmabeam.cli.load_scenario(scenario))[0]
        problems = checks.check_invariants(name, outputs, design)
        if problems:
            raise SystemExit(f"{name} variant {variant}: {problems[:5]}")
        for table in (v for k, v in outputs.items() if k.endswith(".csv")):
            del table["fingerprint"]
        if variants:
            # compared as JSON text: NaN cells never compare equal as floats
            outputs = {k: checks.SAME_AS_VARIANT0
                       if json.dumps(v) == json.dumps(variants[0][k]) else v
                       for k, v in outputs.items()}
        variants.append(outputs)
    return {"workload": name, "variants": variants}


def main(names) -> int:
    sys.path.insert(0, SRC)
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    work = tempfile.mkdtemp()
    try:
        for name in names or sorted(workloads.WORKLOADS):
            path = os.path.join(checks.REFERENCE_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record(name, work), fh, separators=(",", ":"))
                fh.write("\n")
            print(f"wrote {path} ({os.path.getsize(path)} bytes)")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
