// ddl_scenario_runner: expand a named suite from the scenario registry, run
// it on the crash-safe campaign engine, stream one JSONL record per scenario
// and print (or write) a suite-level aggregate summary.
//
//   ddl_scenario_runner --list
//   ddl_scenario_runner --suite smoke
//   ddl_scenario_runner --suite regression --filter proposed --jobs 4
//   ddl_scenario_runner --suite regression --journal runs/nightly --out r.jsonl
//   ddl_scenario_runner --suite regression --resume runs/nightly --out r.jsonl
//   ddl_scenario_runner --suite smoke --chaos 32 --chaos-seed 7 --shrink
//   ddl_scenario_runner --replay replay_chaos_....json
//
// Scenario records never carry thread-count or wall-clock fields, so the
// JSONL stream is byte-identical for any --jobs value and across any
// kill/--resume split; the aggregate (which does report threads and wall
// time) goes to stderr and to the standard BENCH_scenario_suite_<name>.json
// file instead.  Exit status is the number of failed scenarios (capped at
// 125 to stay clear of shell codes); 64 = usage error, 66 = file error,
// 130 = interrupted (SIGTERM/SIGINT: in-flight scenarios finish and
// journal, the rest stays pending -- rerun with --resume to pick them up).
#include <algorithm>
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/parallel.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"

namespace {

using namespace ddl;

// SIGTERM/SIGINT flip this flag (the only async-signal-safe thing to do);
// the campaign polls it before *starting* each dispatch unit, so in-flight work
// finishes and journals normally and the journal stays resumable.
std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void list_suites(std::ostream& os) {
  const auto& registry = scenario::ScenarioRegistry::builtin();
  for (const std::string& suite : registry.suite_names()) {
    const auto specs = registry.expand(suite);
    os << suite << " (" << specs.size() << " scenarios)\n";
    for (const auto& spec : specs) {
      os << "  " << spec.name << "\n";
    }
  }
}

int run_replay(const std::string& path) {
  std::string content;
  try {
    content = [&] {
      std::string buffer;
      FILE* file = std::fopen(path.c_str(), "rb");
      if (file == nullptr) {
        throw std::runtime_error("cannot read '" + path + "'");
      }
      char chunk[4096];
      std::size_t got = 0;
      while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
        buffer.append(chunk, got);
      }
      std::fclose(file);
      return buffer;
    }();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 66;
  }

  scenario::ReplayBundle bundle;
  try {
    bundle = scenario::parse_replay_bundle(content);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 64;
  }
  const scenario::ReplayOutcome outcome = scenario::replay(bundle);
  std::cout << scenario::to_json_line(outcome.result) << "\n";
  std::cerr << (outcome.reproduced ? "replay: reproduced '"
                                   : "replay: did NOT reproduce '")
            << bundle.expected_failure_reason << "' (got '"
            << outcome.result.failure_reason << "')\n";
  return outcome.reproduced ? 0 : 1;
}

std::string bundle_file_name(const std::string& scenario_name) {
  std::string name = "replay_" + scenario_name + ".json";
  for (char& c : name) {
    if (c == '/') {
      c = '_';
    }
  }
  return name;
}

/// --shrink: delta-debug every verdict failure down to a 1-minimal fault
/// plan and drop a replay bundle next to the journal (or in the working
/// directory).  Returns the bundle paths written.
std::vector<std::string> shrink_failures(
    const std::vector<scenario::ScenarioSpec>& specs,
    const std::vector<scenario::ScenarioResult>& results,
    const std::string& dir) {
  std::vector<std::string> bundles;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const scenario::ScenarioResult& result = results[i];
    // Only completed verdict failures shrink: error rows (timeouts) are not
    // deterministically reproducible, and fault-free specs have no plan to
    // shrink.
    if (result.pass || result.error != scenario::ScenarioError::kNone ||
        specs[i].faults.empty()) {
      continue;
    }
    const scenario::ShrinkReport report = scenario::shrink_failure(specs[i]);
    if (!report.failing) {
      continue;  // Flaky under re-execution; nothing reproducible to bundle.
    }
    const std::string path =
        (dir.empty() ? std::string(".") : dir) + "/" +
        bundle_file_name(specs[i].name);
    analysis::write_file_atomic(path, scenario::replay_bundle_json(report));
    std::cerr << "shrink: " << specs[i].name << " -> " << path << " ("
              << specs[i].faults.size() << " faults -> "
              << report.minimal.faults.size() << ", " << report.runs
              << " runs)\n";
    bundles.push_back(path);
  }
  return bundles;
}

}  // namespace

int main(int argc, char** argv) {
  const scenario::ParsedArgs parsed =
      scenario::parse_runner_args({argv + 1, argv + argc});
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.error << "\n";
    std::cerr << scenario::runner_usage();
    return 64;
  }
  const scenario::RunnerOptions& options = parsed.options;
  if (options.help) {
    std::cout << scenario::runner_usage();
    return 0;
  }
  if (options.list) {
    list_suites(std::cout);
    return 0;
  }
  if (!options.replay_path.empty()) {
    return run_replay(options.replay_path);
  }

  const auto& registry = scenario::ScenarioRegistry::builtin();
  if (!registry.has_suite(options.suite)) {
    std::cerr << "error: unknown suite '" << options.suite
              << "' (--list shows them)\n";
    return 64;
  }
  auto specs = registry.expand_filtered(options.suite, options.filter);
  if (specs.empty()) {
    std::cerr << "error: filter '" << options.filter
              << "' matches nothing in '" << options.suite << "'\n";
    return 64;
  }

  if (options.chaos_storms > 0) {
    scenario::ChaosCampaignSpec chaos;
    chaos.base = specs.front();
    chaos.storms = options.chaos_storms;
    chaos.seed = options.chaos_seed;
    chaos.max_faults_per_storm = options.chaos_max_faults;
    try {
      specs = scenario::expand_chaos(chaos);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 64;
    }
  }

  if (options.inject_hang_ms > 0) {
    // Test hook: the first scenario hangs on every attempt, so the watchdog
    // times it out, retries it and reports a structured error row while the
    // rest of the batch completes normally.
    specs.front().debug_hang_ms = options.inject_hang_ms;
    specs.front().debug_hang_attempts = INT_MAX;
  }
  if (!options.inject_crash_kind.empty()) {
    // Test hook: crash the selected scenarios inside their sandbox worker.
    // The supervisor classifies the death (kCrash / kResourceLimit),
    // respawns the worker and the rest of the batch completes normally.
    if (options.inject_crash_match.empty()) {
      specs.front().debug_crash = options.inject_crash_kind;
    } else {
      for (auto& spec : specs) {
        if (spec.name.find(options.inject_crash_match) != std::string::npos) {
          spec.debug_crash = options.inject_crash_kind;
        }
      }
    }
  }

  scenario::CampaignConfig config;
  config.journal_dir = options.journal_dir;
  config.resume = options.resume;
  config.jobs = options.jobs;
  config.stop = &g_stop;
  config.isolation.timeout_ms = options.timeout_ms;
  config.isolation.max_retries = options.retries;
  config.isolation.backoff_base_ms = options.backoff_ms;
  config.isolation.limits.mem_limit_mb = options.mem_limit_mb;
  config.isolation.limits.cpu_limit_s = options.cpu_limit_s;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  analysis::WallTimer timer;
  scenario::CampaignOutcome outcome;
  try {
    outcome = scenario::Campaign(config).run(specs);
  } catch (const scenario::JournalIoError& e) {
    // Disk fault (ENOSPC, EIO): the journal is fail-closed, nothing was
    // half-committed.  EX_IOERR distinguishes this from a usage error.
    std::cerr << "error: " << e.what() << "\n";
    return 74;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 64;
  }
  const double wall_ms = timer.elapsed_ms();
  const auto summary = scenario::summarize(outcome.results);

  // The per-scenario stream: stdout by default, --out FILE otherwise
  // (atomic, so a crash mid-write never leaves a torn artifact).
  try {
    if (options.out_path.empty()) {
      std::cout << outcome.jsonl();
    } else {
      analysis::write_file_atomic(options.out_path, outcome.jsonl());
    }
    // The health-event stream (recovery suites): same determinism contract
    // as the result stream -- spec order, then per-supervisor event order.
    if (!options.health_out_path.empty()) {
      analysis::write_file_atomic(options.health_out_path,
                                  outcome.health_jsonl);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 66;
  }

  std::vector<std::string> bundles;
  if (options.shrink) {
    bundles = shrink_failures(specs, outcome.results, options.journal_dir);
  }

  // The aggregate record is a BenchReport, so it (and only it) carries
  // schema_version, threads and wall time.
  ddl::analysis::BenchReport report("scenario_suite_" + options.suite);
  report.set("threads",
             static_cast<std::uint64_t>(
                 options.jobs ? options.jobs
                              : ddl::analysis::default_thread_count()));
  report.set("suite", options.suite);
  if (!options.filter.empty()) {
    report.set("filter", options.filter);
  }
  report.set("scenarios", static_cast<std::uint64_t>(summary.total));
  report.set("passed", static_cast<std::uint64_t>(summary.passed));
  report.set("failed",
             static_cast<std::uint64_t>(summary.total - summary.passed));
  report.set("locked", static_cast<std::uint64_t>(summary.locked));
  // One health line per event (the rebuilt `results` carry no events).
  report.set("health_events",
             static_cast<std::uint64_t>(std::count(
                 outcome.health_jsonl.begin(), outcome.health_jsonl.end(),
                 '\n')));
  // Campaign accounting: how the batch executed, not how it verdicted.
  report.set("executed", static_cast<std::uint64_t>(outcome.executed));
  report.set("resumed", static_cast<std::uint64_t>(outcome.resumed));
  report.set("retried", static_cast<std::uint64_t>(outcome.retried));
  report.set("timeouts", static_cast<std::uint64_t>(outcome.timeouts));
  report.set("exceptions", static_cast<std::uint64_t>(outcome.exceptions));
  report.set("skipped", static_cast<std::uint64_t>(outcome.skipped));
  report.set("interrupted", outcome.interrupted);
  report.set("isolation", "process");
  report.set("sandbox_crashes",
             static_cast<std::uint64_t>(outcome.sandbox_crashes));
  report.set("workers_respawned",
             static_cast<std::uint64_t>(outcome.workers_respawned));
  report.set("resource_kills",
             static_cast<std::uint64_t>(outcome.resource_kills));
  report.set("workers_lost",
             static_cast<std::uint64_t>(outcome.workers_lost));
  if (options.chaos_storms > 0) {
    report.set("chaos_storms",
               static_cast<std::uint64_t>(options.chaos_storms));
    report.set("chaos_seed", options.chaos_seed);
    report.set("replay_bundles", static_cast<std::uint64_t>(bundles.size()));
  }
  report.set("wall_ms", wall_ms);
  for (const auto& [reason, count] : summary.failures) {
    report.set("failures." + reason, static_cast<std::uint64_t>(count));
  }
  for (const auto& [family, counts] : summary.by_family) {
    report.set("family." + family + ".passed",
               static_cast<std::uint64_t>(counts.first));
    report.set("family." + family + ".total",
               static_cast<std::uint64_t>(counts.second));
  }
  // The aggregate stays OUT of the JSONL stream so the artifact is
  // byte-identical for any --jobs value: summary to stderr, plus the
  // standard BENCH_*.json file (DDL_BENCH_DIR) for CI collection.
  std::cerr << report.to_json() << "\n";
  report.write();

  if (outcome.interrupted) {
    std::cerr << "interrupted: " << outcome.skipped
              << " scenarios never started";
    if (!options.journal_dir.empty()) {
      std::cerr << "; resume with --resume " << options.journal_dir;
    }
    std::cerr << "\n";
    return 130;
  }
  const std::size_t failed = summary.total - summary.passed;
  return static_cast<int>(failed > 125 ? 125 : failed);
}
