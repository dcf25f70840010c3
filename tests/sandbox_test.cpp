// Tests for the process-level scenario sandbox: crash-taxonomy
// classification (SIGSEGV / SIGABRT / RLIMIT_AS / RLIMIT_CPU -> structured
// ScenarioError rows), worker respawn, byte-identity with the in-process
// ScenarioRunner, golden timeout rows, journaled crash rows replaying
// byte-identically on resume, cancel interrupts, and the journal writer's
// fail-closed disk-fault handling.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ddl/scenario/campaign.h"
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
using ddl::scenario::ExecutedScenario;
using ddl::scenario::IsolationConfig;
using ddl::scenario::JournalIoError;
using ddl::scenario::JournalWriter;
using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioError;
using ddl::scenario::ScenarioExecutor;
using ddl::scenario::ScenarioRegistry;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;

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
  config.limits.mem_limit_mb = 256;
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
  config.limits.cpu_limit_s = 1;
  config.timeout_ms = 60'000;  // The RLIMIT must fire before the watchdog.
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
  config.timeout_ms = 200;
  config.max_retries = 1;
  config.backoff_base_ms = 1;

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

// ---- Journal disk faults --------------------------------------------------

TEST(SandboxTest, JournalWriterSurfacesDiskFaultsAsStructuredErrors) {
  const std::string dir = fresh_dir("disk_fault");
  // /dev/full accepts opens and fails every write with ENOSPC -- the
  // classic full-disk stand-in.
  std::error_code ec;
  fs::create_symlink("/dev/full", ddl::scenario::journal_path(dir), ec);
  ASSERT_FALSE(ec) << ec.message();

  JournalWriter writer(dir, "fingerprint", 1, 0, /*append=*/false);
  try {
    writer.record("{\"name\": \"x\"}", {});
    FAIL() << "record() on a full disk must throw JournalIoError";
  } catch (const JournalIoError& e) {
    EXPECT_EQ(e.error_number(), ENOSPC);
    EXPECT_NE(std::string(e.what()).find("journal write failed"),
              std::string::npos)
        << e.what();
  }
}

TEST(SandboxTest, HealthJournalFaultsFailBeforeTheCommitRecord) {
  const std::string dir = fresh_dir("disk_fault_health");
  std::error_code ec;
  fs::create_symlink("/dev/full", ddl::scenario::health_journal_path(dir), ec);
  ASSERT_FALSE(ec) << ec.message();

  JournalWriter writer(dir, "fingerprint", 1, 0, /*append=*/false);
  EXPECT_THROW(writer.record("{\"name\": \"x\"}", {"{\"event\": \"y\"}"}),
               JournalIoError);
  // Fail-closed WAL ordering: the health append failed, so the commit
  // record must not exist -- no torn half-scenario on a later resume.
  EXPECT_TRUE(
      ddl::scenario::read_file(ddl::scenario::journal_path(dir)).empty());
}

}  // namespace
