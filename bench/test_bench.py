"""Tests of the benchmark's own logic.  Run: python3 -m pytest bench"""

import copy
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402
from dmabeam.cli import _resolve  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def test_self_time_from_synthetic_span_tree():
    spans = [
        Span(0, 0, "root", 0.0, 10.0, -1, excluded_s=1.0),
        Span(1, 0, "a", 1.0, 3.0, 0),
        Span(2, 0, "b", 2.0, 5.0, 0),          # overlaps a: counted once
        Span(3, 0, "leaf", 2.5, 3.5, 2),
        Span(4, 0, "a", 6.0, 7.0, 0),
        Span(5, 0, "late", 9.5, 11.0, 0),      # clipped to the parent
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5) - 1.0)
    assert got["a"] == pytest.approx(2.0 + 1.0)
    assert got["b"] == pytest.approx(3.0 - 1.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["late"] == pytest.approx(1.5)


def test_tracer_records_nesting_and_kernels():
    import dmabeam.frequency_planner as fp
    from dmabeam import Scenario

    design = _resolve(Scenario())[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_pass(0)
        # 80 deg lies outside the design sector: the planner's lobe search
        # calls dirichlet_of_p through frequency_planner's own binding.
        fp.optimal_operating_freq(design, math.radians(80.0))
        tracer.end_pass()
        fp.optimal_operating_freq(design, math.radians(80.0))   # not recorded
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(0)
    assert metrics["frequency_planner.optimal_operating_freq.calls"] == 1
    assert metrics["channel.dirichlet_of_p.calls"] > 100
    assert metrics["frequency_planner.optimal_operating_freq.self_s"] >= 0.0
    [span] = tracer.spans
    total = span.end - span.start
    assert span.excluded_s == pytest.approx(
        tracer.stats[0]["channel.dirichlet_of_p"][2])
    assert 0.0 < span.excluded_s < total


def test_completeness_check_catches_unwrapped_binding():
    import dmabeam.link_rate

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        original = tracer._originals["channel.combined_phases"]
        dmabeam.link_rate.stray_binding = original
        assert tracer.unwrapped_bindings() == ["dmabeam.link_rate.stray_binding"]
    finally:
        del dmabeam.link_rate.stray_binding
        tracer.uninstall()
    assert dmabeam.link_rate.combined_phases is original


def test_distinct_ratio_counts_repeated_arguments():
    import dmabeam.gain_optimizer as go
    from dmabeam import Scenario

    design = _resolve(Scenario())[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_pass(0)
        for phi in (0.1, 0.1, 0.2, 0.1):
            go.solve_p1a(design, phi, 15e9)
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert tracer.pass_metrics(0)["gain_optimizer.solve_p1a.distinct_ratio"] == 0.5


def _reference(name):
    """(reference, design, outputs equal to the reference) of variant 0."""
    from dmabeam import parse_scenario
    scenario = parse_scenario(workloads.scenario_text(workloads.WORKLOADS[name], 0))
    reference = checks.load_reference(name, 0)
    outputs = copy.deepcopy(reference)
    for key, table in outputs.items():
        if key.endswith(".csv"):
            table["fingerprint"] = outputs["summary.json"]["scenario"]
    return reference, _resolve(scenario)[0], outputs


def test_argument_keys_stay_out_of_the_caller_self_time(monkeypatch):
    import time

    import dmabeam.link_rate as lr
    from dmabeam import Scenario
    from dmabeam.cli import _budget, _layout_and_codebook

    scenario = Scenario()
    layout, codebook = _layout_and_codebook(scenario, _resolve(scenario)[0])
    key_s, fast_key = 0.02, tracing.argument_key

    def slow_key(value):
        time.sleep(key_s)
        return fast_key(value)

    tracer = tracing.Tracer()
    tracer.install()
    monkeypatch.setattr(tracing, "argument_key", slow_key)
    try:
        tracer.begin_pass(0)
        lr.compare_rates(layout, codebook, 0.2, _budget(scenario))
        tracer.end_pass()
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    [span] = [s for s in tracer.spans if s.name == "link_rate.compare_rates"]
    keys = sum(tracer.stats[0][name][0] for name in tracing.DISTINCT)
    assert keys >= 5                       # planner, 3 x solve_p1a, probe
    assert span.excluded_s >= keys * key_s
    assert tracer.pass_metrics(0)["link_rate.compare_rates.self_s"] < key_s


def test_reference_passes_its_own_check():
    for name in workloads.WORKLOADS:
        reference, design, outputs = _reference(name)
        assert checks.check_pass(name, outputs, reference, design) == []


def test_variant_zero_is_the_reference_setup():
    from dmabeam import Scenario, fingerprint, parse_scenario
    for name in ("rate-reference", "gain-sweep-reference", "figure-set"):
        text = workloads.scenario_text(workloads.WORKLOADS[name], 0)
        assert parse_scenario(text) == Scenario()
    reference, _, _ = _reference("figure-set")
    resolved = parse_scenario("\n".join(
        f"{k} = {v}" for k, v in reference["scenario_resolved.txt"].items()))
    assert fingerprint(resolved) == reference["summary.json"]["scenario"]


def test_correctness_check_rejects_perturbed_value():
    reference, design, outputs = _reference("rate-reference")
    outputs["rate_bandwidth.csv"]["rows"][2][3] *= 1.0 + 1e-7
    problems = checks.check_pass("rate-reference", outputs, reference, design)
    assert len(problems) == 1 and "rate_bandwidth.csv row 2" in problems[0]


def test_correctness_check_applies_planner_tolerance_to_f_star():
    reference, design, outputs = _reference("gain-sweep-reference")
    table = reference["gain_sweep.csv"]
    i_f = table["columns"].index("f_star(GHz)")
    golden = checks._golden_tolerances(table, design)
    row = next(i for i, tol in enumerate(golden) if tol)      # non-integer case
    exact = next(i for i, tol in enumerate(golden) if not tol)
    outputs["gain_sweep.csv"]["rows"][row][i_f] += 0.5 * golden[row]
    assert checks.check_pass("gain-sweep-reference", outputs, reference, design) == []
    outputs["gain_sweep.csv"]["rows"][row][i_f] += 2.0 * golden[row]
    outputs["gain_sweep.csv"]["rows"][exact][i_f] *= 1.0 + 1e-8
    problems = checks.check_pass("gain-sweep-reference", outputs, reference, design)
    assert [p.split(" f_star")[0] for p in problems] == [
        f"gain_sweep.csv row {row}", f"gain_sweep.csv row {exact}"]


def test_invariants_reject_failed_flags():
    _, design, outputs = _reference("figure-set")
    outputs["summary.json"]["train"]["floor_respected"] = False
    outputs["verify_lines"][1][0] = "FAIL"
    problems = checks.check_invariants("figure-set", outputs, design)
    assert any("floor" in p for p in problems)
    assert any("verify" in p for p in problems)


def test_failed_pass_counts_toward_error_rate(tmp_path):
    bench_run = run.WorkloadRun("rate-reference", 0, str(tmp_path))
    bench_run._verdict(workloads.PassOutcome(exit_codes=[3], stdout=""),
                       str(tmp_path / "missing"))
    assert (bench_run.attempted, bench_run.failed) == (1, 1)


def test_seed_variants_change_inputs_only():
    assert workloads.variant_of(0) == 0
    texts = {workloads.scenario_text(workloads.WORKLOADS["figure-set"], v)
             for v in range(len(workloads.VARIANTS))}
    assert len(texts) == len(workloads.VARIANTS)
    for name, workload in workloads.WORKLOADS.items():
        lengths = {len(workloads.pass_argvs(workload, v, "s", "o"))
                   for v in range(len(workloads.VARIANTS))}
        assert lengths == {len(workload.commands)}


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    emitted = set(tracer.pass_metrics(0)) | {
        "cli.import_s", "cli.output_bytes", "cli.nan_cells", "trace.overhead_s"}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(listed) == emitted
    assert all(listed[name] == run._unit(name) for name in listed)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
