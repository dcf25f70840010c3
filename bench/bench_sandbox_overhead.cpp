// Sandbox overhead probe: the smoke suite through the Campaign engine
// (spawned sandbox workers, rows shipped back over the checksummed pipe
// framing) versus the plain in-process ScenarioRunner, both at one job.
// The sandbox keeps one long-lived worker per executor, so the
// per-scenario tax is spec serialization plus a pipe round trip -- the
// acceptance bar is <=10% scenarios/sec against the in-process runner,
// guardrailed in CI via sandbox_efficiency_frac.  Byte-identity between
// the two streams is the other contract, cross-checked before any number
// is reported.
//
// Both paths are warmed once, then measured in kRounds alternating rounds;
// each side reports its median rate.  Writes BENCH_sandbox_overhead.json;
// DDL_BENCH_TRIALS repeats the suite to stretch the workload on fast
// machines.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"

namespace {

constexpr int kRounds = 3;

struct Measured {
  double wall_ms = 0.0;
  double per_sec = 0.0;
  std::string jsonl;
};

Measured timed(std::size_t scenarios, double wall_ms, std::string jsonl) {
  Measured out;
  out.wall_ms = wall_ms;
  out.per_sec = 1e3 * static_cast<double>(scenarios) / wall_ms;
  out.jsonl = std::move(jsonl);
  return out;
}

Measured run_inprocess(const std::vector<ddl::scenario::ScenarioSpec>& specs) {
  ddl::analysis::WallTimer timer;
  const auto results = ddl::scenario::ScenarioRunner(1).run(specs);
  const double wall_ms = timer.elapsed_ms();
  return timed(specs.size(), wall_ms,
               ddl::scenario::ScenarioRunner::jsonl(results));
}

Measured run_sandbox(const std::vector<ddl::scenario::ScenarioSpec>& specs) {
  ddl::scenario::CampaignConfig config;
  config.jobs = 1;
  const ddl::scenario::Campaign campaign(config);
  ddl::analysis::WallTimer timer;
  const auto outcome = campaign.run(specs);
  const double wall_ms = timer.elapsed_ms();
  return timed(specs.size(), wall_ms, outcome.jsonl());
}

/// The round with the median rate (kRounds is odd).
Measured median(std::vector<Measured> rounds) {
  std::sort(rounds.begin(), rounds.end(),
            [](const Measured& a, const Measured& b) {
              return a.per_sec < b.per_sec;
            });
  return rounds[rounds.size() / 2];
}

}  // namespace

int main() {
  const auto& registry = ddl::scenario::ScenarioRegistry::builtin();
  const std::size_t repeats = ddl::analysis::BenchReport::trials_or(4);
  std::vector<ddl::scenario::ScenarioSpec> specs;
  for (std::size_t i = 0; i < repeats; ++i) {
    for (auto& spec : registry.expand("smoke")) {
      spec.name += "/rep" + std::to_string(i);  // Journal-unique names.
      specs.push_back(std::move(spec));
    }
  }

  std::printf("==== Sandbox overhead (%zu scenarios = smoke x %zu, 1 job, "
              "median of %d rounds) ====\n\n",
              specs.size(), repeats, kRounds);

  // Warm both paths once (sizing caches, first spawn) so the measured runs
  // compare steady-state executors, not first-touch costs.
  run_inprocess(specs);
  run_sandbox(specs);

  std::vector<Measured> inprocess_rounds;
  std::vector<Measured> sandbox_rounds;
  for (int round = 0; round < kRounds; ++round) {
    inprocess_rounds.push_back(run_inprocess(specs));
    sandbox_rounds.push_back(run_sandbox(specs));
  }
  bool identical = true;
  for (int round = 0; round < kRounds; ++round) {
    identical = identical &&
                sandbox_rounds[round].jsonl == inprocess_rounds[round].jsonl;
  }
  const Measured inprocess = median(std::move(inprocess_rounds));
  const Measured sandbox = median(std::move(sandbox_rounds));
  const double efficiency = sandbox.per_sec / inprocess.per_sec;

  std::printf("  in-process runner : %8.1f ms  (%7.1f scenarios/sec)\n",
              inprocess.wall_ms, inprocess.per_sec);
  std::printf("  sandbox campaign  : %8.1f ms  (%7.1f scenarios/sec)\n",
              sandbox.wall_ms, sandbox.per_sec);
  std::printf("  spawn/IPC efficiency: %.3f (1.0 = free; bar: >= 0.90)\n",
              efficiency);
  std::printf("\nIn-process and sandbox JSONL byte-identical: %s\n",
              identical ? "yes" : "NO -- SANDBOX BROKE BYTE-IDENTITY");

  ddl::analysis::BenchReport report("sandbox_overhead");
  report.set("scenarios", static_cast<std::uint64_t>(specs.size()));
  report.set("inprocess_scenarios_per_sec", inprocess.per_sec);
  report.set("process_scenarios_per_sec", sandbox.per_sec);
  report.set("guardrail_sandbox_scenarios_per_sec", sandbox.per_sec);
  report.set("sandbox_efficiency_frac", efficiency);
  report.set("sandbox_jsonl_identical", identical);
  const auto path = report.write();
  std::printf("report: %s\n", path.c_str());
  return identical ? 0 : 1;
}
