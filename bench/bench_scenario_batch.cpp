// Batched scenario execution throughput, two planner paths:
//
//   MC yield     the yield suite through the ScenarioRunner's batch planner
//                (cross-scenario dies packed into the 8-lane SoA kernel,
//                one workspace sizing per group) versus the same suite with
//                mc_force_scalar (the per-die scalar reference path), at
//                the same thread count;
//   closed loop  the regression suite's closed-loop specs through the
//                runner's plant-lane streams versus one run_scenario per
//                spec (the scalar BuckConverter::run_period plant), both on
//                one thread and measured in the same run; plus the plan's
//                exact lane fill.
//
// The planner's contract is byte-identity, so the bench also cross-checks
// that each pair emits the identical JSONL (and health) streams before
// reporting any speedup.
//
// Writes BENCH_scenario_batch.json; DDL_BENCH_TRIALS repeats the suite to
// stretch the workload on fast machines.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/parallel.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"

namespace {

struct Measured {
  double wall_ms = 0.0;
  double per_sec = 0.0;
  std::string jsonl;
};

Measured measured(const std::vector<ddl::scenario::ScenarioResult>& results,
                  const ddl::analysis::WallTimer& timer) {
  Measured out;
  out.wall_ms = timer.elapsed_ms();
  out.per_sec = 1e3 * static_cast<double>(results.size()) / out.wall_ms;
  out.jsonl = ddl::scenario::ScenarioRunner::jsonl(results) +
              ddl::scenario::ScenarioRunner::health_jsonl(results);
  return out;
}

Measured run_variant(const std::vector<ddl::scenario::ScenarioSpec>& specs,
                     std::size_t threads) {
  const ddl::scenario::ScenarioRunner runner(threads);
  ddl::analysis::WallTimer timer;
  return measured(runner.run(specs), timer);
}

/// One scenario at a time through run_scenario: the scalar plant path.
Measured run_one_by_one(const std::vector<ddl::scenario::ScenarioSpec>& specs) {
  ddl::analysis::WallTimer timer;
  std::vector<ddl::scenario::ScenarioResult> results;
  results.reserve(specs.size());
  for (const auto& spec : specs) {
    results.push_back(ddl::scenario::run_scenario_guarded(spec).result);
  }
  return measured(results, timer);
}

}  // namespace

int main() {
  const auto& registry = ddl::scenario::ScenarioRegistry::builtin();
  const std::size_t repeats = ddl::analysis::BenchReport::trials_or(8);
  std::vector<ddl::scenario::ScenarioSpec> batched;
  for (std::size_t i = 0; i < repeats; ++i) {
    for (auto& spec : registry.expand("yield")) {
      batched.push_back(std::move(spec));
    }
  }
  std::vector<ddl::scenario::ScenarioSpec> scalar = batched;
  for (ddl::scenario::ScenarioSpec& spec : scalar) {
    spec.mc_force_scalar = true;
  }

  std::printf("==== Batched scenario execution (%zu scenarios = yield x %zu) "
              "====\n\n", batched.size(), repeats);

  ddl::analysis::BenchReport report("scenario_batch");
  report.set("scenarios", static_cast<std::uint64_t>(batched.size()));

  bool identical = true;
  double speedup_t1 = 0.0;
  double batched_t1_per_sec = 0.0;
  const std::size_t configs[] = {1, ddl::analysis::default_thread_count()};
  const char* labels[] = {"threads_1", "threads_default"};
  for (int c = 0; c < 2; ++c) {
    const Measured planned = run_variant(batched, configs[c]);
    const Measured forced = run_variant(scalar, configs[c]);
    identical = identical && planned.jsonl == forced.jsonl;
    const double speedup = forced.wall_ms / planned.wall_ms;
    if (c == 0) {
      speedup_t1 = speedup;
      batched_t1_per_sec = planned.per_sec;
    }

    std::printf("  %-16s (%zu threads): batched %7.1f ms (%6.1f/sec)  "
                "scalar %7.1f ms (%6.1f/sec)  speedup %.2fx\n",
                labels[c], configs[c], planned.wall_ms, planned.per_sec,
                forced.wall_ms, forced.per_sec, speedup);
    report.set(std::string(labels[c]) + "_threads",
               static_cast<std::uint64_t>(configs[c]));
    report.set(std::string(labels[c]) + "_batched_scenarios_per_sec",
               planned.per_sec);
    report.set(std::string(labels[c]) + "_scalar_scenarios_per_sec",
               forced.per_sec);
    report.set(std::string(labels[c]) + "_speedup", speedup);
  }

  std::printf("\nBatched and forced-scalar JSONL byte-identical: %s\n",
              identical ? "yes" : "NO -- PLANNER BROKE BYTE-IDENTITY");
  report.set("guardrail_scenario_batch_scenarios_per_sec", batched_t1_per_sec);
  report.set("scenario_batch_speedup_vs_scalar", speedup_t1);
  report.set("scenario_batch_jsonl_identical", identical);

  std::vector<ddl::scenario::ScenarioSpec> closed_loop;
  for (auto& spec : registry.expand("regression")) {
    if (spec.mc_dies == 0) {
      closed_loop.push_back(std::move(spec));
    }
  }
  std::printf("\n==== Closed-loop plant lanes (%zu regression scenarios, "
              "1 thread) ====\n\n", closed_loop.size());
  const Measured scalar_loop = run_one_by_one(closed_loop);
  const Measured lanes = run_variant(closed_loop, 1);
  const bool lanes_equal = lanes.jsonl == scalar_loop.jsonl;
  const double lanes_speedup = scalar_loop.wall_ms / lanes.wall_ms;
  std::printf("  lanes %7.1f ms (%6.1f/sec)  scalar %7.1f ms (%6.1f/sec)  "
              "speedup %.2fx\n", lanes.wall_ms, lanes.per_sec,
              scalar_loop.wall_ms, scalar_loop.per_sec, lanes_speedup);
  std::printf("Lanes and scalar JSONL + health byte-identical: %s\n",
              lanes_equal ? "yes" : "NO -- PLANT LANES BROKE BYTE-IDENTITY");
  ddl::scenario::ScenarioWorkspace workspace;
  const auto cost = ddl::scenario::lane_stream_cost(
      closed_loop, ddl::scenario::plan_batches(closed_loop, workspace));
  std::printf("Lane fill: %llu member periods over %llu vector periods "
              "= %.3f\n", static_cast<unsigned long long>(cost.periods),
              static_cast<unsigned long long>(cost.vector_periods),
              cost.fill());
  report.set("closed_loop_scenarios", static_cast<std::uint64_t>(
                                          closed_loop.size()));
  report.set("closed_loop_lanes_scenarios_per_sec", lanes.per_sec);
  report.set("closed_loop_scalar_scenarios_per_sec", scalar_loop.per_sec);
  report.set("closed_loop_lanes_speedup_vs_scalar", lanes_speedup);
  report.set("closed_loop_lanes_equal_scalar", lanes_equal);
  report.set("closed_loop_lane_fill", cost.fill());
  report.set("closed_loop_lane_vector_periods", cost.vector_periods);

  const auto path = report.write();
  std::printf("report: %s\n", path.c_str());
  return identical && lanes_equal ? 0 : 1;
}
