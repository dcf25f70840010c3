// Tests for the process-level scenario sandbox: crash-taxonomy
// classification (SIGSEGV / SIGABRT / RLIMIT_AS / RLIMIT_CPU -> structured
// ScenarioError rows), worker respawn, byte-identity with the in-process
// ScenarioRunner, golden timeout rows, journaled crash rows replaying
// byte-identically on resume, cancel interrupts, and the unit engine's
// withdraw and stop rules.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ddl/scenario/campaign.h"
#include "ddl/scenario/engine.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/spec.h"

// RLIMIT_AS caps break sanitizer shadow mappings (ASan reserves terabytes
// of address space), so the allocation-pressure tests only run in plain
// builds.  RLIMIT_CPU and signal classification work under sanitizers.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DDL_SANDBOX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DDL_SANDBOX_SANITIZED 1
#endif
#endif

namespace {

namespace fs = std::filesystem;

using ddl::scenario::Campaign;
using ddl::scenario::CampaignConfig;
using ddl::scenario::DispatchUnit;
using ddl::scenario::ExecutedScenario;
using ddl::scenario::IsolationConfig;
using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioError;
using ddl::scenario::ScenarioExecutor;
using ddl::scenario::ScenarioRegistry;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;
using ddl::scenario::UnitEngine;

ScenarioSpec quick_spec(const std::string& variant, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "sandbox/proposed/typical/" + variant;
  spec.family = "sandbox";
  spec.seed = seed;
  spec.load = LoadSpec::constant(0.4);
  spec.periods = 900;
  spec.measure_from = 600;
  spec.allow_limit_cycling = true;
  spec.tolerance_v = 0.05;
  return spec;
}

ScenarioSpec crashing_spec(const std::string& kind) {
  ScenarioSpec spec = quick_spec("crash_" + kind, 99);
  spec.debug_crash = kind;
  return spec;
}

CampaignConfig process_config() {
  CampaignConfig config;
  config.jobs = 1;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sandbox_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string fingerprint_of_one(const ScenarioSpec& spec) {
  return ddl::scenario::content_fingerprint_of({spec});
}

// ---- Crash taxonomy -------------------------------------------------------

TEST(SandboxTest, SegvBecomesAStructuredCrashRowAndTheCampaignSurvives) {
  // The crash leads: the two clean scenarios share one closed-loop lane
  // unit, which dispatches after it.
  std::vector<ScenarioSpec> specs = {crashing_spec("segv"), quick_spec("a", 11),
                                     quick_spec("b", 12)};
  const auto outcome = Campaign(process_config()).run(specs);

  ASSERT_EQ(outcome.results.size(), 3u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kCrash);
  EXPECT_EQ(outcome.results[0].error_detail,
            "sandbox worker killed by SIGSEGV (spec " +
                fingerprint_of_one(specs[0]) + ")");
  EXPECT_EQ(outcome.results[0].failure_reason, "error:crash");
  EXPECT_EQ(outcome.results[0].attempts, 1);
  // The other scenarios completed on a respawned worker.
  EXPECT_TRUE(outcome.results[1].pass);
  EXPECT_TRUE(outcome.results[2].pass);
  EXPECT_EQ(outcome.executed, 3u);
  EXPECT_EQ(outcome.sandbox_crashes, 1u);
  EXPECT_GE(outcome.workers_respawned, 1u);
}

TEST(SandboxTest, AbortClassifiesAsCrash) {
  const std::vector<ScenarioSpec> specs = {crashing_spec("abort")};
  const auto outcome = Campaign(process_config()).run(specs);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kCrash);
  EXPECT_EQ(outcome.results[0].error_detail,
            "sandbox worker killed by SIGABRT (spec " +
                fingerprint_of_one(specs[0]) + ")");
  EXPECT_EQ(outcome.sandbox_crashes, 1u);
}

#if !defined(DDL_SANDBOX_SANITIZED)
TEST(SandboxTest, MemLimitKillClassifiesAsResourceLimit) {
  CampaignConfig config = process_config();
  config.isolation.limits.mem_limit_mb = 256;
  const std::vector<ScenarioSpec> specs = {crashing_spec("oom"),
                                           quick_spec("after_oom", 21)};
  const auto outcome = Campaign(config).run(specs);
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kResourceLimit);
  EXPECT_EQ(outcome.results[0].error_detail,
            "sandbox worker exceeded RLIMIT_AS (256 MiB): allocation failed");
  EXPECT_TRUE(outcome.results[1].pass);
  EXPECT_EQ(outcome.resource_kills, 1u);
  EXPECT_GE(outcome.workers_respawned, 1u);
}
#endif

TEST(SandboxTest, CpuLimitKillClassifiesAsResourceLimit) {
  CampaignConfig config = process_config();
  config.isolation.limits.cpu_limit_s = 1;
  // The RLIMIT must fire before the watchdog.
  config.isolation.timeout_ms = 60'000;
  const std::vector<ScenarioSpec> specs = {crashing_spec("spin")};
  const auto outcome = Campaign(config).run(specs);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kResourceLimit);
  EXPECT_EQ(outcome.results[0].error_detail,
            "sandbox worker exceeded RLIMIT_CPU (1 s): SIGXCPU");
  EXPECT_EQ(outcome.resource_kills, 1u);
}

// ---- Byte-identity with the in-process runner ------------------------------

TEST(SandboxTest, SandboxedCampaignStreamsMatchTheInProcessRunner) {
  std::vector<ScenarioSpec> specs = {quick_spec("a", 11), quick_spec("b", 12),
                                     quick_spec("c", 13)};
  const auto reference = ScenarioRunner(1).run(specs);
  for (const std::size_t jobs : {1u, 4u}) {
    CampaignConfig config = process_config();
    config.jobs = jobs;
    const auto outcome = Campaign(config).run(specs);
    EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference)) << jobs;
    EXPECT_EQ(outcome.health_jsonl, ScenarioRunner::health_jsonl(reference))
        << jobs;
  }
}

TEST(SandboxTest, TimeoutRowIsGolden) {
  ScenarioSpec hang = quick_spec("hang", 31);
  hang.debug_hang_ms = 30'000;
  hang.debug_hang_attempts = INT_MAX;
  CampaignConfig config = process_config();
  config.isolation.timeout_ms = 200;
  config.isolation.max_retries = 1;
  config.isolation.backoff_base_ms = 1;

  const auto outcome = Campaign(config).run({hang});
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].error, ScenarioError::kTimeout);
  EXPECT_EQ(outcome.results[0].error_detail,
            "watchdog: no completion within 200 ms after 2 attempt(s)");
  EXPECT_EQ(outcome.results[0].attempts, 2);
  EXPECT_EQ(outcome.timeouts, 1u);
}

// ---- Durability -----------------------------------------------------------

TEST(SandboxTest, JournaledCrashRowsResumeByteIdentically) {
  const std::string dir = fresh_dir("crash_resume");
  std::vector<ScenarioSpec> specs = {quick_spec("a", 11), crashing_spec("segv"),
                                     quick_spec("b", 12)};
  CampaignConfig first = process_config();
  first.journal_dir = dir;
  const auto original = Campaign(first).run(specs);
  EXPECT_EQ(original.sandbox_crashes, 1u);

  CampaignConfig second = first;
  second.resume = true;
  const auto resumed = Campaign(second).run(specs);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.resumed, specs.size());
  EXPECT_EQ(resumed.jsonl(), original.jsonl());
  EXPECT_EQ(resumed.health_jsonl, original.health_jsonl);
  // The crash row was replayed from the journal, not re-derived: the
  // resumed run forked no sandbox worker at all.
  EXPECT_EQ(resumed.sandbox_crashes, 0u);
  EXPECT_EQ(resumed.workers_respawned, 0u);
}

// ---- Dispatch units -------------------------------------------------------

TEST(SandboxTest, GroupCrashDegradesToPerScenarioRetries) {
  // A multi-spec unit ships whole into one sandbox worker.  With a
  // crashing member the worker dies mid-group; every member must come
  // back as its own row (crash for the guilty spec, results for the rest)
  // rather than being lost or duplicated.
  std::vector<ScenarioSpec> specs = ScenarioRegistry::builtin().expand("yield");
  ASSERT_GE(specs.size(), 2u);
  specs.resize(2);
  specs.push_back(crashing_spec("segv"));

  IsolationConfig isolation;
  ScenarioExecutor executor(isolation);
  std::vector<ExecutedScenario> runs = executor.run_unit(specs);
  ASSERT_EQ(runs.size(), specs.size());
  EXPECT_EQ(runs[2].result.error, ScenarioError::kCrash);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(runs[i].result.error, ScenarioError::kNone) << i;
    EXPECT_FALSE(runs[i].line.empty()) << i;
  }

  // The degraded rows byte-match a clean single-spec execution.
  ScenarioExecutor clean(isolation);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::vector<ExecutedScenario> alone = clean.run_unit({specs[i]});
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(runs[i].line, alone.front().line) << i;
  }
}

TEST(SandboxTest, InterruptWithdrawsTheInFlightUnit) {
  IsolationConfig isolation;
  isolation.timeout_ms = 30'000;
  ScenarioExecutor executor(isolation);

  ScenarioSpec hang = quick_spec("hang_for_cancel", 41);
  hang.debug_hang_ms = 30'000;
  hang.debug_hang_attempts = INT_MAX;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    executor.interrupt();
  });
  std::vector<ExecutedScenario> runs = executor.run_unit({hang});
  canceller.join();
  EXPECT_TRUE(runs.empty());
  EXPECT_TRUE(executor.interrupted());

  // A re-armed executor respawns its worker and runs normally.
  executor.clear_interrupt();
  const std::vector<ExecutedScenario> after =
      executor.run_unit({quick_spec("after", 42)});
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.front().result.error, ScenarioError::kNone);
  EXPECT_TRUE(after.front().result.pass);
}

TEST(SandboxTest, InterruptRacingTheWorkerSpawnStillWithdrawsTheUnit) {
  // A fresh executor forks its worker lazily inside run_unit, so an
  // interrupt swept across the first few milliseconds lands before, during
  // and after the fork.  Every landing must withdraw the unit promptly; a
  // lost interrupt would let the hang run its full 30 s instead.
  IsolationConfig isolation;
  isolation.timeout_ms = 60'000;
  ScenarioSpec hang = quick_spec("hang_for_spawn_race", 43);
  hang.debug_hang_ms = 30'000;
  hang.debug_hang_attempts = INT_MAX;
  for (int delay_us = 0; delay_us <= 3'000; delay_us += 100) {
    ScenarioExecutor executor(isolation);
    const auto start = std::chrono::steady_clock::now();
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      executor.interrupt();
    });
    const std::vector<ExecutedScenario> runs = executor.run_unit({hang});
    canceller.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(runs.empty()) << "interrupt after " << delay_us << " us";
    EXPECT_LT(elapsed, std::chrono::seconds(10))
        << "interrupt after " << delay_us << " us";
  }
}

// ---- Unit engine ----------------------------------------------------------

DispatchUnit unit_of(const std::string& job, const ScenarioSpec& spec) {
  return DispatchUnit{job, {0}, {spec}};
}

TEST(UnitEngineTest, WithdrawHandsBackQueuedUnitsAndKillsRunningOnes) {
  // One worker: job a's hung unit runs while a's second unit and b's unit
  // queue behind it.  withdraw("a") hands back what is queued of a, kills
  // what runs (it calls back with no rows), and b still runs.
  IsolationConfig isolation;
  isolation.timeout_ms = 60'000;
  ScenarioSpec hang = quick_spec("engine_hang", 51);
  hang.debug_hang_ms = 30'000;
  hang.debug_hang_attempts = INT_MAX;
  std::mutex mutex;
  std::map<std::string, std::size_t> rows_of;
  UnitEngine engine(1, isolation,
                    [&](const DispatchUnit& unit,
                        std::vector<ExecutedScenario> rows) {
                      std::lock_guard<std::mutex> lock(mutex);
                      rows_of[unit.specs.front().name] = rows.size();
                    });
  const auto start = std::chrono::steady_clock::now();
  engine.submit(unit_of("a", hang));
  engine.submit(unit_of("a", quick_spec("engine_a", 52)));
  engine.submit(unit_of("b", quick_spec("engine_b", 53)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::set<std::string> withdrawn;
  for (const DispatchUnit& unit : engine.withdraw("a")) {
    withdrawn.insert(unit.specs.front().name);
  }
  engine.wait();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  EXPECT_TRUE(engine.stop().empty());

  // Every unit of a is withdrawn exactly once: handed back while queued,
  // or called back empty after its worker was killed.
  for (const auto& [name, rows] : rows_of) {
    if (rows == 0) {
      EXPECT_TRUE(withdrawn.insert(name).second) << name;
    }
  }
  EXPECT_EQ(withdrawn, (std::set<std::string>{
                           hang.name, quick_spec("engine_a", 52).name}));
  EXPECT_EQ(rows_of[quick_spec("engine_b", 53).name], 1u);
}

TEST(UnitEngineTest, StopRuleClaimsNothingMoreAndHandsBackTheRestInOrder) {
  const std::vector<ScenarioSpec> specs = {
      quick_spec("engine_0", 61), quick_spec("engine_1", 62),
      quick_spec("engine_2", 63)};
  auto names = [](const std::vector<DispatchUnit>& units) {
    std::vector<std::string> out;
    for (const DispatchUnit& unit : units) {
      out.push_back(unit.specs.front().name);
    }
    return out;
  };

  // A raised stop flag: nothing is claimed, everything comes back in
  // submission order.
  {
    const std::atomic<bool> stop{true};
    std::size_t calls = 0;
    UnitEngine engine(
        2, IsolationConfig{},
        [&](const DispatchUnit&, std::vector<ExecutedScenario>) { ++calls; },
        &stop);
    for (const ScenarioSpec& spec : specs) {
      engine.submit(unit_of("", spec));
    }
    engine.wait();
    EXPECT_EQ(names(engine.stop()),
              (std::vector<std::string>{specs[0].name, specs[1].name,
                                        specs[2].name}));
    EXPECT_EQ(calls, 0u);
  }

  // A throwing callback halts claiming like a stop: wait() rethrows, and
  // with one worker the two units behind the first come back unclaimed.
  {
    UnitEngine engine(1, IsolationConfig{},
                      [](const DispatchUnit&, std::vector<ExecutedScenario>) {
                        throw std::runtime_error("callback failed");
                      });
    for (const ScenarioSpec& spec : specs) {
      engine.submit(unit_of("", spec));
    }
    EXPECT_THROW(engine.wait(), std::runtime_error);
    EXPECT_EQ(names(engine.stop()),
              (std::vector<std::string>{specs[1].name, specs[2].name}));
  }
}

TEST(UnitEngineTest, StopFlagRaisedAtAnyMomentStillEndsTheWait) {
  // A signal handler raises the stop flag without a notify.  Swept five
  // times across the first 50 us it lands before, between and after the
  // first claims -- also after wait() has gone to sleep with units queued
  // and none claimed yet.  wait() must return every time, and every unit
  // is either called back or handed back by stop().
  const std::vector<ScenarioSpec> specs = {
      quick_spec("engine_s0", 71), quick_spec("engine_s1", 72),
      quick_spec("engine_s2", 73), quick_spec("engine_s3", 74)};
  for (int sweep = 0; sweep < 250; ++sweep) {
    const int delay_us = sweep % 50;
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> calls{0};
    std::promise<void> returned;
    const auto raise_at = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(delay_us);
    std::thread raiser([&, done = returned.get_future()] {
      while (std::chrono::steady_clock::now() < raise_at) {
      }  // Spun, not slept: a sleep's timer slack would blur the sweep.
      stop.store(true);
      if (done.wait_for(std::chrono::seconds(20)) !=
          std::future_status::ready) {
        // Nothing can wake the stuck wait(), so the binary cannot go on.
        std::fprintf(stderr, "wait() hung: stop raised after %d us\n",
                     delay_us);
        std::abort();
      }
    });
    // Built after the raiser: a worker still starting up widens the window
    // between wait() going to sleep and the first claim check.
    UnitEngine engine(
        2, IsolationConfig{},
        [&](const DispatchUnit&, std::vector<ExecutedScenario>) { ++calls; },
        &stop);
    for (const ScenarioSpec& spec : specs) {
      engine.submit(unit_of("", spec));
    }
    engine.wait();
    returned.set_value();
    raiser.join();
    EXPECT_EQ(calls.load() + engine.stop().size(), specs.size())
        << "stop raised after " << delay_us << " us";
  }
}

}  // namespace
