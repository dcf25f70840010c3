#!/usr/bin/env python3
"""CI perf guardrail: validate a BENCH_*.json report and compare its
throughput keys against the committed baseline.

usage: check_bench_regression.py REPORT.json BASELINE.json

The baseline file (bench/baselines/*_baseline.json) commits the
conservative items/sec floor expected on CI runners plus the tolerance; a
measured value below floor * (1 - tolerance_frac) fails the job.  The
baseline is intentionally below a healthy runner's numbers -- it exists to
catch order-of-magnitude regressions (an accidental O(n) in a hot path),
not to police run-to-run noise.

The baseline's "report" key names the bench it guards; the report's "name"
must match, and it selects the schema (required keys + predicates) from
SCHEMAS below.  Adding a new guarded bench = one SCHEMAS entry plus one
baseline file.

Each "items_per_sec" entry is either a bare number (the floor, checked
with the file-level "tolerance_frac") or an object
{"floor": N, "tolerance_frac": F} overriding the tolerance for that key --
used for probes whose run-to-run spread differs from the rest (e.g. the
batched Monte-Carlo kernel, whose throughput depends on the runner's SIMD
width).  A baseline key missing from the report is an error, not a skip:
a silently-renamed probe must not disable its own guardrail.

Exit codes: 0 ok, 1 regression or schema violation, 2 bad invocation.
"""

import json
import sys

# Required keys per report name, with a predicate each.  Every schema also
# implicitly requires schema_version == 2 and the matching "name".
SCHEMAS = {
    "kernel_perf": {
        "guardrail_kernel_wave_4096_items_per_sec": lambda v: v > 0,
        "guardrail_proposed_tap_query_items_per_sec": lambda v: v > 0,
        "kernel_probe_signal_events": lambda v: isinstance(v, int) and v > 0,
        "kernel_probe_tasks": lambda v: isinstance(v, int) and v > 0,
        "kernel_probe_cancelled_inertial":
            lambda v: isinstance(v, int) and v > 0,
        "kernel_probe_executed_events":
            lambda v: isinstance(v, int) and v > 0,
        "mc_deterministic_across_threads": lambda v: v is True,
        # The batched engine's two contracts, measured by the bench itself:
        # bit-identity with the per-die scalar reference, and identical
        # samples at every thread count.
        "mc_batch_equals_scalar": lambda v: v is True,
        "mc_batch_deterministic_across_threads": lambda v: v is True,
        "mc_batch_speedup_vs_scalar": lambda v: v > 0,
    },
    "scenario_batch": {
        "guardrail_scenario_batch_scenarios_per_sec": lambda v: v > 0,
        "threads_1_batched_scenarios_per_sec": lambda v: v > 0,
        "threads_1_scalar_scenarios_per_sec": lambda v: v > 0,
        "threads_default_batched_scenarios_per_sec": lambda v: v > 0,
        # The planner must actually win: a silent fall-back to the scalar
        # path would keep byte-identity while losing the entire speedup.
        "scenario_batch_speedup_vs_scalar": lambda v: v > 1.0,
        # And the win must be invisible in the stream -- the whole contract.
        "scenario_batch_jsonl_identical": lambda v: v is True,
        # Closed-loop plant lanes vs one scalar scenario at a time, both on
        # one thread in the same run: a same-run ratio at half the expected
        # ~5x, so it catches a 2x regression -- and a silent fall-back to
        # the scalar plant (~1x) -- on any host speed.
        "closed_loop_lanes_speedup_vs_scalar": lambda v: v > 2.5,
        "closed_loop_lanes_equal_scalar": lambda v: v is True,
        # Exact, from the plan: the lane streams keep the lanes busy (the
        # regression suite plans to 0.965; the capped groups it replaced
        # reached 0.685).
        "closed_loop_lane_fill": lambda v: v >= 0.9,
    },
    "sandbox_overhead": {
        "guardrail_sandbox_scenarios_per_sec": lambda v: v > 0,
        "inprocess_scenarios_per_sec": lambda v: v > 0,
        "process_scenarios_per_sec": lambda v: v > 0,
        # The spawn/IPC tax bound from the acceptance criteria: the sandboxed
        # campaign may cost at most 10% scenarios/sec versus the plain
        # in-process ScenarioRunner on the same specs in the same run (the
        # sandbox keeps one long-lived worker, so the steady-state cost is
        # a pipe round trip per dispatch unit, not a spawn).
        "sandbox_efficiency_frac": lambda v: v >= 0.90,
        # Isolation must be invisible in the stream -- same contract as
        # the batch planner.
        "sandbox_jsonl_identical": lambda v: v is True,
    },
    "server_throughput": {
        "guardrail_server_scenarios_per_sec": lambda v: v > 0,
        "clients_1_scenarios_per_sec": lambda v: v > 0,
        "clients_4_scenarios_per_sec": lambda v: v > 0,
        "clients_16_scenarios_per_sec": lambda v: v > 0,
        "clients_1_p99_ms": lambda v: v > 0,
        "clients_4_p99_ms": lambda v: v > 0,
        "clients_16_p99_ms": lambda v: v > 0,
        # Every submitted job must have streamed to job_done; an incomplete
        # run would otherwise report a flattering partial throughput.
        "all_jobs_done": lambda v: v is True,
    },
}


def check_schema(report, name, failures):
    schema = dict(SCHEMAS[name])
    schema["schema_version"] = lambda v: v == 2
    schema["name"] = lambda v: v == name
    for key, ok in schema.items():
        if key not in report:
            failures.append(f"schema: missing key '{key}'")
        elif not ok(report[key]):
            failures.append(f"schema: bad value {key}={report[key]!r}")

    if name == "kernel_perf":
        # The probe's executed-events total must equal the split's sum --
        # the counter-consistency contract of Simulator::counters().
        probe = [report.get(k) for k in ("kernel_probe_signal_events",
                                         "kernel_probe_tasks",
                                         "kernel_probe_executed_events")]
        if (all(isinstance(v, int) for v in probe)
                and probe[0] + probe[1] != probe[2]):
            failures.append(
                f"schema: executed_events {probe[2]} != "
                f"signal_events {probe[0]} + tasks {probe[1]}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        report = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)

    failures = []

    name = baseline.get("report")
    if name not in SCHEMAS:
        failures.append(
            f"baseline: 'report' is {name!r}; known: {sorted(SCHEMAS)}")
    elif report.get("name") != name:
        failures.append(
            f"report: name {report.get('name')!r} does not match "
            f"baseline report {name!r}")
    else:
        check_schema(report, name, failures)

    default_tolerance = baseline["tolerance_frac"]
    for key, entry in baseline["items_per_sec"].items():
        if isinstance(entry, dict):
            floor = entry["floor"]
            tolerance = entry.get("tolerance_frac", default_tolerance)
        else:
            floor = entry
            tolerance = default_tolerance
        measured = report.get(key)
        limit = floor * (1.0 - tolerance)
        if not isinstance(measured, (int, float)):
            failures.append(f"guardrail: '{key}' missing from report")
            continue
        verdict = "ok" if measured >= limit else "REGRESSION"
        print(f"{key}: measured {measured:.3e}  baseline {floor:.3e}  "
              f"floor {limit:.3e}  {verdict}")
        if measured < limit:
            failures.append(
                f"guardrail: {key} = {measured:.3e} is below "
                f"{limit:.3e} (baseline {floor:.3e} - {tolerance:.0%})")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("perf guardrail OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
