"""Fresh-interpreter probes, started by run.py with src/ on PYTHONPATH.

    child.py setup SCENARIO
        import dmabeam.cli, load and resolve the scenario, print one JSON
        line; the parent times process start to that line (setup_s).
    child.py rss WORKLOAD VARIANT SCENARIO OUT
        run one pass of the workload and print its outcome with the
        process's peak resident memory (peak_rss_mb).
"""

import json
import resource
import sys
import time


def main(argv):
    start = time.perf_counter()
    import dmabeam.cli
    import_s = time.perf_counter() - start
    import workloads

    if argv[0] == "setup":
        dmabeam.cli._resolve(dmabeam.cli.load_scenario(argv[1]))
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0
    name, variant, scenario, out_dir = argv[1:5]
    workload = workloads.WORKLOADS[name]
    argvs = workloads.pass_argvs(workload, int(variant), scenario, out_dir)
    outcome = workloads.run_pass(dmabeam.cli.main, argvs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kib / 1024.0,
                      "exit_codes": outcome.exit_codes,
                      "stdout": outcome.stdout, "error": outcome.error}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
