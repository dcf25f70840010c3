// Tests for the crash-safe campaign engine and its chaos companion:
// journal/resume byte-identity (including torn-tail recovery), graceful
// stop points and journal disk faults, the job ledger's fail-closed
// commits, name rule and concurrent commits, watchdog isolation with
// bounded retry, structured error rows, seeded storm expansion, the
// delta-debugging shrinker, replay bundles, the flat-JSON parser / atomic
// writer they ride on, and the runner's CLI grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/spec.h"
#include "ddl/scenario/workspace.h"

namespace {

namespace fs = std::filesystem;

using ddl::scenario::Architecture;
using ddl::scenario::Campaign;
using ddl::scenario::CampaignConfig;
using ddl::scenario::ChaosCampaignSpec;
using ddl::scenario::ExecutedScenario;
using ddl::scenario::FaultSpec;
using ddl::scenario::JobLedger;
using ddl::scenario::JournalIoError;
using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioError;
using ddl::scenario::ScenarioRegistry;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;

ScenarioSpec quick_spec(const std::string& variant, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "test/proposed/typical/" + variant;
  spec.family = "test";
  spec.seed = seed;
  spec.load = LoadSpec::constant(0.4);
  spec.periods = 900;
  spec.measure_from = 600;
  spec.allow_limit_cycling = true;  // 6-bit DPWM vs the 10 mV ADC window.
  spec.tolerance_v = 0.05;
  return spec;
}

/// A supervised run with a mid-run fault, so the campaign has health events
/// to journal (no recovery expectations: the verdict stays independent).
ScenarioSpec supervised_spec() {
  ScenarioSpec spec = quick_spec("supervised", 7);
  spec.tolerance_v = 0.06;
  spec.load = LoadSpec::constant(0.5);
  spec.supervision.enabled = true;
  spec.faults = {FaultSpec::delay_cell(31, 10.0, 400)};
  return spec;
}

std::vector<ScenarioSpec> quick_batch() {
  return {quick_spec("a", 11), quick_spec("b", 12), supervised_spec(),
          quick_spec("c", 13)};
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Byte offsets of a journal's record boundaries: 0, then the end of each
/// commit record (its result line, the one carrying a verdict).
std::vector<std::size_t> record_ends(const std::string& journal) {
  std::vector<std::size_t> ends{0};
  for (std::size_t start = 0, end = 0;
       (end = journal.find('\n', start)) != std::string::npos;
       start = end + 1) {
    const auto fields = ddl::analysis::parse_flat_json_line(
        journal.substr(start, end - start));
    if (fields && fields->count("verdict") != 0) {
      ends.push_back(end + 1);
    }
  }
  return ends;
}

/// Crash points of a journal: every record boundary and, inside each
/// record, its result line torn half way or -- when the record has health
/// lines -- one complete health line without its commit (the orphan
/// case), and the same with the next line torn half way.
std::vector<std::size_t> crash_cuts(const std::string& journal) {
  const std::vector<std::size_t> ends = record_ends(journal);
  std::vector<std::size_t> cuts = ends;
  for (std::size_t r = 0; r + 1 < ends.size(); ++r) {
    const std::size_t first_end = journal.find('\n', ends[r]) + 1;
    if (first_end == ends[r + 1]) {
      cuts.push_back(ends[r] + (ends[r + 1] - ends[r]) / 2);
      continue;
    }
    const std::size_t next_end = journal.find('\n', first_end) + 1;
    cuts.push_back(first_end);
    cuts.push_back(first_end + (next_end - first_end) / 2);
  }
  return cuts;
}

// ---- Durability -----------------------------------------------------------

TEST(CampaignTest, MatchesThePlainRunnerStreamByteForByte) {
  const auto specs = quick_batch();
  const auto outcome = Campaign(CampaignConfig{}).run(specs);

  ScenarioRunner runner(2);
  const auto results = runner.run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(results));
  EXPECT_EQ(outcome.health_jsonl, ScenarioRunner::health_jsonl(results));
  EXPECT_EQ(outcome.executed, specs.size());
  EXPECT_EQ(outcome.resumed, 0u);
  EXPECT_FALSE(outcome.health_jsonl.empty());
}

TEST(CampaignTest, StreamIsIdenticalAcrossJobCounts) {
  const auto specs = quick_batch();
  CampaignConfig one;
  one.jobs = 1;
  CampaignConfig four;
  four.jobs = 4;
  const auto a = Campaign(one).run(specs);
  const auto b = Campaign(four).run(specs);
  EXPECT_EQ(a.jsonl(), b.jsonl());
  EXPECT_EQ(a.health_jsonl, b.health_jsonl);
}

TEST(CampaignTest, McYieldCampaignIsByteIdenticalAcrossJobsAndKernelPaths) {
  // The yield suite exercises the batched MC hot path; the supervised
  // runtime-fault rider must stay on the per-scenario scalar path.  The
  // stream may depend on neither sharding nor kernel choice.
  auto specs = ScenarioRegistry::builtin().expand("yield");
  specs.push_back(supervised_spec());

  CampaignConfig one;
  one.jobs = 1;
  CampaignConfig four;
  four.jobs = 4;
  const auto serial = Campaign(one).run(specs);
  const auto sharded = Campaign(four).run(specs);
  EXPECT_EQ(serial.jsonl(), sharded.jsonl());
  EXPECT_EQ(serial.health_jsonl, sharded.health_jsonl);

  // Forcing every scenario down the scalar kernel must not change a byte:
  // the 8-lane engine is an execution detail, not an output format.
  auto forced = specs;
  for (ScenarioSpec& spec : forced) {
    spec.mc_force_scalar = true;
  }
  const auto reference = Campaign(four).run(forced);
  EXPECT_EQ(serial.jsonl(), reference.jsonl());
  EXPECT_EQ(serial.health_jsonl, reference.health_jsonl);
}

TEST(CampaignTest, ResumeAfterTornJournalIsByteIdentical) {
  const auto specs = quick_batch();
  const std::string full_dir = fresh_dir("full");
  CampaignConfig config;
  config.journal_dir = full_dir;
  config.jobs = 2;
  const auto uninterrupted = Campaign(config).run(specs);

  // Simulate a kill mid-suite: two committed records survive, plus a torn
  // append (no trailing newline) the crash left behind.
  const std::string crash_dir = fresh_dir("crashed");
  const std::string journal = slurp(full_dir + "/journal.jsonl");
  const std::size_t end = record_ends(journal).at(2);
  spit(crash_dir + "/journal.jsonl",
       journal.substr(0, end) + R"({"schema_version": 2, "name": "test/pro)");
  spit(crash_dir + "/manifest.json", slurp(full_dir + "/manifest.json"));

  CampaignConfig resume = config;
  resume.journal_dir = crash_dir;
  resume.resume = true;
  resume.jobs = 3;  // Determinism must also hold across thread counts.
  const auto resumed = Campaign(resume).run(specs);

  EXPECT_EQ(resumed.jsonl(), uninterrupted.jsonl());
  EXPECT_EQ(resumed.health_jsonl, uninterrupted.health_jsonl);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.executed, specs.size() - 2);

  // The journal in the resumed directory is now complete: a second resume
  // runs nothing and still reproduces the stream.
  const auto replayed = Campaign(resume).run(specs);
  EXPECT_EQ(replayed.executed, 0u);
  EXPECT_EQ(replayed.resumed, specs.size());
  EXPECT_EQ(replayed.jsonl(), uninterrupted.jsonl());
  EXPECT_EQ(replayed.health_jsonl, uninterrupted.health_jsonl);
}

TEST(CampaignTest, ResumeRefusesAMismatchedScenarioList) {
  const auto specs = quick_batch();
  const std::string dir = fresh_dir("mismatch");
  CampaignConfig config;
  config.journal_dir = dir;
  Campaign(config).run(specs);

  config.resume = true;
  auto other = specs;
  other[0].name = "test/proposed/typical/renamed";
  EXPECT_THROW(Campaign(config).run(other), std::runtime_error);

  auto fewer = specs;
  fewer.pop_back();
  EXPECT_THROW(Campaign(config).run(fewer), std::runtime_error);
}

TEST(CampaignTest, ResumeWithoutAManifestThrows) {
  CampaignConfig config;
  config.journal_dir = fresh_dir("empty");
  config.resume = true;
  EXPECT_THROW(Campaign(config).run(quick_batch()), std::runtime_error);
}

/// The lines of a JSONL document, sorted: a completion-ordered journal
/// compared as the multiset of its records.
std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(CampaignCrashPointTest, EveryCutResumesToTheUninterruptedStreams) {
  // Property: a kill at any point of the journal -- on a record boundary,
  // after some of a record's health lines, or torn mid-line -- is followed
  // by resumes (1, 2 and 3 of them, at 1 and 3 jobs) that each reproduce
  // the uninterrupted streams and leave one commit record per scenario.
  // The two quick specs share one closed-loop lane unit, which journals
  // its members one record at a time.
  auto specs = ScenarioRegistry::builtin().expand("recovery");
  specs.push_back(quick_spec("lane-a", 41));
  specs.push_back(quick_spec("lane-b", 42));
  CampaignConfig config;
  config.journal_dir = fresh_dir("cut_full");
  config.jobs = 3;
  const auto full = Campaign(config).run(specs);
  const std::string journal = slurp(config.journal_dir + "/journal.jsonl");
  const std::string manifest = slurp(config.journal_dir + "/manifest.json");
  ASSERT_EQ(record_ends(journal).size(), specs.size() + 1);
  const std::vector<std::size_t> cuts = crash_cuts(journal);
  // Boundaries and one torn offset per record, plus one more cut for each
  // record with health lines: at least three of those.
  ASSERT_GE(cuts.size(), 2 * specs.size() + 1 + 3);

  for (const std::size_t cut : cuts) {
    for (const std::size_t jobs : {1u, 3u}) {
      CampaignConfig resume;
      resume.journal_dir = fresh_dir("cut");
      resume.resume = true;
      resume.jobs = jobs;
      spit(resume.journal_dir + "/journal.jsonl", journal.substr(0, cut));
      spit(resume.journal_dir + "/manifest.json", manifest);
      for (int round = 1; round <= 3; ++round) {
        const std::string where = "cut at byte " + std::to_string(cut) +
                                  ", jobs " + std::to_string(jobs) +
                                  ", resume " + std::to_string(round);
        const auto resumed = Campaign(resume).run(specs);
        EXPECT_EQ(resumed.jsonl(), full.jsonl()) << where;
        EXPECT_EQ(resumed.health_jsonl, full.health_jsonl) << where;
        EXPECT_EQ(resumed.executed + resumed.resumed, specs.size()) << where;
        EXPECT_EQ(sorted_lines(slurp(resume.journal_dir + "/journal.jsonl")),
                  sorted_lines(journal))
            << where;
      }
    }
  }
}

TEST(CampaignTest, DuplicateScenarioNamesAreRejected) {
  std::vector<ScenarioSpec> specs = {quick_spec("dup", 1),
                                     quick_spec("dup", 2)};
  EXPECT_THROW(Campaign(CampaignConfig{}).run(specs), std::invalid_argument);
}

// ---- Graceful stop and disk faults ----------------------------------------

/// Commit records (result lines) in the journal file at `path`.
std::size_t commits_in(const std::string& path) {
  return record_ends(slurp(path)).size() - 1;
}

TEST(CampaignStopTest, EveryStopPointResumesToTheUninterruptedStreams) {
  // Property: a graceful stop raised once the journal holds the commit
  // records of k dispatch units -- for every k from 0 to the number of
  // units, at 1 and 3 jobs -- skips only unstarted units, journals exactly
  // what it executed, and one resume reproduces the uninterrupted streams.
  // The regression suite plans into closed-loop lane streams, an MC-yield
  // group and scalar units.
  const auto specs = ScenarioRegistry::builtin().expand("regression");
  std::vector<std::size_t> boundaries{0};  // Commits after k units.
  {
    ddl::scenario::ScenarioWorkspace workspace;
    for (const auto& unit : ddl::scenario::dispatch_units(
             ddl::scenario::plan_batches(specs, workspace))) {
      boundaries.push_back(boundaries.back() + unit.size());
    }
  }
  const std::size_t units = boundaries.size() - 1;
  ASSERT_GE(units, 3u);
  CampaignConfig reference_config;
  reference_config.jobs = 3;
  const auto reference = Campaign(reference_config).run(specs);

  for (const std::size_t jobs : {1u, 3u}) {
    std::string reached;  // "k->executed" per stop point.
    for (std::size_t k = 0; k <= units; ++k) {
      const std::string where = "stop after " + std::to_string(k) +
                                " units, jobs " + std::to_string(jobs);
      std::atomic<bool> stop{k == 0};
      CampaignConfig config;
      config.journal_dir = fresh_dir("stop");
      config.jobs = jobs;
      config.stop = &stop;
      const std::string journal = config.journal_dir + "/journal.jsonl";
      std::atomic<bool> finished{false};
      std::thread watcher([&] {
        while (!finished.load() && !stop.load()) {
          if (commits_in(journal) >= boundaries[k]) {
            stop.store(true);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
      const auto stopped = Campaign(config).run(specs);
      finished.store(true);
      watcher.join();
      if (k == 0) {
        EXPECT_EQ(stopped.executed, 0u) << where;  // Raised before the run.
      }
      EXPECT_EQ(stopped.executed + stopped.skipped, specs.size()) << where;
      EXPECT_EQ(stopped.interrupted, stopped.skipped > 0) << where;
      EXPECT_EQ(commits_in(journal), stopped.executed) << where;
      reached += " " + std::to_string(k) + "->" +
                 std::to_string(stopped.executed);

      CampaignConfig resume = config;
      resume.resume = true;
      resume.stop = nullptr;
      const auto resumed = Campaign(resume).run(specs);
      EXPECT_EQ(resumed.jsonl(), reference.jsonl()) << where;
      EXPECT_EQ(resumed.health_jsonl, reference.health_jsonl) << where;
      EXPECT_EQ(resumed.resumed, stopped.executed) << where;
      EXPECT_FALSE(resumed.interrupted) << where;
    }
    // Which stop points the runs reached: units requested -> scenarios
    // executed before the stop took hold.
    std::printf("[ stop points, jobs %zu, %zu units ]%s\n", jobs, units,
                reached.c_str());
    ::testing::Test::RecordProperty("stop_points_jobs" + std::to_string(jobs),
                                    reached);
  }
}

TEST(CampaignTest, JournalDiskFaultReachesTheCallerAsJournalIoError) {
  // /dev/full fails every append with ENOSPC.  Records are appended on the
  // engine's worker threads; the error must still reach run()'s caller
  // (the runner CLI maps it to exit 74), and the run must return.
  for (const std::size_t jobs : {1u, 3u}) {
    CampaignConfig config;
    config.journal_dir = fresh_dir("disk_full" + std::to_string(jobs));
    config.jobs = jobs;
    std::error_code ec;
    fs::create_symlink("/dev/full", config.journal_dir + "/journal.jsonl",
                       ec);
    ASSERT_FALSE(ec) << ec.message();
    try {
      Campaign(config).run(quick_batch());
      ADD_FAILURE() << "a full disk must fail the campaign, jobs " << jobs;
    } catch (const ddl::scenario::JournalIoError& e) {
      EXPECT_EQ(e.error_number(), ENOSPC) << e.what();
    }
  }
}

// ---- Job ledger -----------------------------------------------------------

/// A committed row as a worker returns it: a flat-JSON result line that
/// carries its verdict, and its health lines.
ExecutedScenario row_of(const std::string& name, bool pass,
                        std::vector<std::string> health = {}) {
  ExecutedScenario row;
  row.result.name = name;
  row.result.pass = pass;
  row.line = "{\"name\": \"" + name + "\", \"verdict\": \"" +
             std::string(row.result.verdict()) + "\", \"pass\": " +
             (pass ? "true" : "false") + "}";
  row.health_lines = std::move(health);
  return row;
}

TEST(JobLedgerTest, DiskFaultThrowsOnceThenKeepsRowsWithoutAppending) {
  // /dev/full accepts opens and fails every write with ENOSPC -- the
  // classic full-disk stand-in.  A bare result line and a record with
  // health lines fail the same way: the record is one append.
  const std::vector<ScenarioSpec> specs = {quick_spec("x", 1),
                                           quick_spec("w", 2)};
  const std::vector<std::vector<std::string>> healths = {
      {}, {"{\"event\": \"y\"}", "{\"event\": \"z\"}"}};
  for (std::size_t i = 0; i < healths.size(); ++i) {
    const std::string dir = fresh_dir("ledger_disk_fault" + std::to_string(i));
    std::error_code ec;
    fs::create_symlink("/dev/full", ddl::scenario::journal_path(dir), ec);
    ASSERT_FALSE(ec) << ec.message();

    {
      JobLedger ledger(specs, dir, /*resume=*/false);
      const ExecutedScenario first = row_of(specs[0].name, true, healths[i]);
      try {
        ledger.commit(0, first);
        FAIL() << "commit() on a full disk must throw JournalIoError";
      } catch (const JournalIoError& e) {
        EXPECT_EQ(e.error_number(), ENOSPC);
        EXPECT_NE(std::string(e.what()).find("journal write failed"),
                  std::string::npos)
            << e.what();
      }
      // The failed commit still keeps its row.
      EXPECT_TRUE(ledger.done(0));
      EXPECT_EQ(ledger.line(0), first.line);
      EXPECT_EQ(ledger.health(0), healths[i]);
      // Fail-closed: a later commit appends nothing (an append to
      // /dev/full would fail and throw) and keeps its row too.
      EXPECT_NO_THROW(ledger.commit(1, row_of(specs[1].name, false)));
      EXPECT_TRUE(ledger.done(1));
      EXPECT_EQ(ledger.completed(), 2u);
      EXPECT_EQ(ledger.passed(), 1u);
    }

    // Space freed (the device kept no byte): a resume sees no commit.
    fs::remove(ddl::scenario::journal_path(dir));
    const JobLedger resumed(specs, dir, /*resume=*/true);
    EXPECT_EQ(resumed.restored(), 0u);
    EXPECT_FALSE(resumed.done(0));
    EXPECT_TRUE(resumed.health(0).empty());
  }
}

TEST(JobLedgerTest, DuplicateNamesAreRejectedBeforeTheJournalIsCreated) {
  const std::string dir = fresh_dir("ledger_dup") + "/journal";
  EXPECT_THROW(JobLedger({quick_spec("dup", 1), quick_spec("dup", 2)}, dir,
                         /*resume=*/false),
               std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir));
}

TEST(JobLedgerTest, ConcurrentCommitsEachJournalOneRecordAndResume) {
  // Engine workers commit concurrently (the TSan job runs this binary):
  // every row lands in memory and as one record, and a resume restores
  // each row byte for byte with the same counts.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 16;
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < kThreads * kPerThread; ++i) {
    specs.push_back(quick_spec("row" + std::to_string(i), i));
  }
  const auto health_of = [](std::size_t i) {
    return std::vector<std::string>(
        i % 3, "{\"event\": \"e" + std::to_string(i) + "\"}");
  };
  const std::string dir = fresh_dir("ledger_concurrent");
  {
    JobLedger ledger(specs, dir, /*resume=*/false);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < kPerThread; ++k) {
          const std::size_t i = k * kThreads + t;
          ledger.commit(i, row_of(specs[i].name, i % 2 == 0, health_of(i)));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(ledger.completed(), specs.size());
    EXPECT_EQ(ledger.passed(), specs.size() / 2);
    EXPECT_EQ(ledger.restored(), 0u);
  }
  EXPECT_EQ(commits_in(ddl::scenario::journal_path(dir)), specs.size());

  const JobLedger resumed(specs, dir, /*resume=*/true);
  EXPECT_EQ(resumed.restored(), specs.size());
  EXPECT_EQ(resumed.completed(), specs.size());
  EXPECT_EQ(resumed.passed(), specs.size() / 2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(resumed.line(i), row_of(specs[i].name, i % 2 == 0).line) << i;
    EXPECT_EQ(resumed.health(i), health_of(i)) << i;
    EXPECT_EQ(resumed.result(i).pass, i % 2 == 0) << i;
  }
}

// ---- Isolation ------------------------------------------------------------

TEST(CampaignIsolationTest, HungScenarioTimesOutAsStructuredErrorRow) {
  std::vector<ScenarioSpec> specs = quick_batch();
  specs[0].debug_hang_ms = 60'000;
  specs[0].debug_hang_attempts = INT_MAX;  // Every attempt hangs.

  CampaignConfig config;
  config.jobs = 2;
  // Generous deadline: healthy 900-period scenarios finish well inside it
  // even under sanitizer slowdown, while the hang never does.
  config.isolation.timeout_ms = 3000;
  config.isolation.max_retries = 1;
  config.isolation.backoff_base_ms = 1;
  const auto outcome = Campaign(config).run(specs);

  const auto& row = outcome.results[0];
  EXPECT_FALSE(row.pass);
  EXPECT_EQ(row.error, ScenarioError::kTimeout);
  EXPECT_EQ(row.verdict(), "error");
  EXPECT_EQ(row.failure_reason, "error:timeout");
  EXPECT_EQ(row.attempts, 2);
  EXPECT_EQ(outcome.timeouts, 1u);
  // The rest of the batch is unharmed.
  for (std::size_t i = 1; i < outcome.results.size(); ++i) {
    EXPECT_TRUE(outcome.results[i].pass) << outcome.results[i].name;
  }
}

TEST(CampaignIsolationTest, TransientHangSucceedsOnRetry) {
  std::vector<ScenarioSpec> specs = {quick_spec("flaky", 21)};
  specs[0].debug_hang_ms = 60'000;
  specs[0].debug_hang_attempts = 1;  // Only the first attempt hangs.

  CampaignConfig config;
  config.isolation.timeout_ms = 3000;
  config.isolation.max_retries = 1;
  config.isolation.backoff_base_ms = 1;
  const auto outcome = Campaign(config).run(specs);

  EXPECT_TRUE(outcome.results[0].pass) << outcome.results[0].failure_reason;
  EXPECT_EQ(outcome.results[0].attempts, 2);
  EXPECT_EQ(outcome.retried, 1u);
  EXPECT_EQ(outcome.timeouts, 0u);
}

TEST(CampaignIsolationTest, ThrowingScenarioBecomesAnExceptionRow) {
  std::vector<ScenarioSpec> specs = {quick_spec("boom", 31),
                                     quick_spec("fine", 32)};
  specs[0].debug_throw = true;

  const auto outcome = Campaign(CampaignConfig{}).run(specs);
  const auto& row = outcome.results[0];
  EXPECT_FALSE(row.pass);
  EXPECT_EQ(row.error, ScenarioError::kException);
  EXPECT_EQ(row.failure_reason, "error:exception");
  EXPECT_NE(row.error_detail.find("debug_throw"), std::string::npos);
  EXPECT_EQ(row.attempts, 1);  // Exceptions are deterministic: no retry.
  EXPECT_EQ(outcome.exceptions, 1u);
  EXPECT_TRUE(outcome.results[1].pass);
}

TEST(CampaignIsolationTest, ErrorRowsAreJournaledAndResumable) {
  std::vector<ScenarioSpec> specs = {quick_spec("boom", 41),
                                     quick_spec("fine", 42)};
  specs[0].debug_throw = true;

  CampaignConfig config;
  config.journal_dir = fresh_dir("errors");
  const auto first = Campaign(config).run(specs);
  EXPECT_EQ(first.exceptions, 1u);

  config.resume = true;
  const auto resumed = Campaign(config).run(specs);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.jsonl(), first.jsonl());
  EXPECT_EQ(resumed.results[0].error, ScenarioError::kException);
  EXPECT_EQ(resumed.results[0].failure_reason, "error:exception");
}

TEST(CampaignIsolationTest, AutoTimeoutScalesWithRunLength) {
  ScenarioSpec spec = quick_spec("auto", 1);
  spec.periods = 1000;
  EXPECT_EQ(ddl::scenario::auto_timeout_ms(spec), 30'000u);
  spec.periods = 10'000;
  EXPECT_EQ(ddl::scenario::auto_timeout_ms(spec), 210'000u);
}

// ---- Chaos ----------------------------------------------------------------

ChaosCampaignSpec quick_chaos() {
  ChaosCampaignSpec chaos;
  chaos.base = quick_spec("storm-base", 2026);
  chaos.base.tolerance_v = 0.06;
  chaos.base.load = LoadSpec::constant(0.5);
  chaos.storms = 6;
  chaos.seed = 99;
  return chaos;
}

TEST(ChaosTest, ExpansionIsSeededDeterministicAndValid) {
  const auto a = ddl::scenario::expand_chaos(quick_chaos());
  const auto b = ddl::scenario::expand_chaos(quick_chaos());
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a[0].name, "chaos/proposed/typical/storm-00");
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].family, "chaos");
    ASSERT_EQ(a[i].faults.size(), b[i].faults.size());
    EXPECT_GE(a[i].faults.size(), 1u);
    EXPECT_LE(a[i].faults.size(), 3u);
    for (std::size_t f = 0; f < a[i].faults.size(); ++f) {
      EXPECT_EQ(a[i].faults[f].kind, b[i].faults[f].kind);
      EXPECT_EQ(a[i].faults[f].victim_cell, b[i].faults[f].victim_cell);
      EXPECT_DOUBLE_EQ(a[i].faults[f].severity, b[i].faults[f].severity);
      EXPECT_EQ(a[i].faults[f].at_period, b[i].faults[f].at_period);
      EXPECT_EQ(a[i].faults[f].clear_period, b[i].faults[f].clear_period);
    }
    EXPECT_TRUE(ddl::scenario::validate(a[i]).empty());
  }

  auto reseeded = quick_chaos();
  reseeded.seed = 100;
  const auto c = ddl::scenario::expand_chaos(reseeded);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = a[i].faults.size() != c[i].faults.size() ||
                     a[i].faults[0].at_period != c[i].faults[0].at_period;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChaosTest, RejectsBasesThatCannotCarryStorms) {
  auto counter = quick_chaos();
  counter.base.architecture = Architecture::kCounter;
  EXPECT_THROW(ddl::scenario::expand_chaos(counter), std::invalid_argument);

  auto dvfs = quick_chaos();
  dvfs.base.dvfs = {{400, 0.9}};
  EXPECT_THROW(ddl::scenario::expand_chaos(dvfs), std::invalid_argument);

  auto faulted = quick_chaos();
  faulted.base.faults = {FaultSpec::delay_cell(0, 2.0)};
  EXPECT_THROW(ddl::scenario::expand_chaos(faulted), std::invalid_argument);
}

TEST(ChaosTest, SpecJsonRoundTripPreservesTheScenario) {
  ScenarioSpec spec = supervised_spec();
  spec.architecture = Architecture::kConventional;
  spec.dvfs = {{300, 0.9}, {600, 1.1}};
  spec.faults = {FaultSpec::delay_cell(3, 4.5, 100, 200),
                 FaultSpec::clock_period_step(1.25, 400)};
  spec.temp_ramp_c_per_us = 0.02;
  spec.supply_spike_v = -0.1;
  spec.spike_from_period = 50;
  spec.spike_until_period = 80;
  spec.expect_lock = false;
  spec.expect_min_lock_losses = 2;
  spec.expect_relock = true;

  const std::string line = ddl::scenario::spec_to_json(spec).to_json_line();
  const auto fields = ddl::analysis::parse_flat_json_line(line);
  ASSERT_TRUE(fields.has_value());
  const auto parse = ddl::scenario::spec_from_json_checked(*fields);
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  const ScenarioSpec& back = parse.spec;

  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.family, spec.family);
  EXPECT_EQ(back.architecture, spec.architecture);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.corner.corner, spec.corner.corner);
  EXPECT_DOUBLE_EQ(back.corner.supply_v, spec.corner.supply_v);
  EXPECT_DOUBLE_EQ(back.temp_ramp_c_per_us, spec.temp_ramp_c_per_us);
  EXPECT_DOUBLE_EQ(back.supply_spike_v, spec.supply_spike_v);
  EXPECT_EQ(back.spike_from_period, spec.spike_from_period);
  EXPECT_EQ(back.load.kind, spec.load.kind);
  EXPECT_DOUBLE_EQ(back.load.level_a, spec.load.level_a);
  ASSERT_EQ(back.dvfs.size(), 2u);
  EXPECT_EQ(back.dvfs[1].at_period, 600u);
  EXPECT_DOUBLE_EQ(back.dvfs[1].vref_v, 1.1);
  EXPECT_EQ(back.periods, spec.periods);
  EXPECT_EQ(back.measure_from, spec.measure_from);
  EXPECT_DOUBLE_EQ(back.tolerance_v, spec.tolerance_v);
  EXPECT_EQ(back.expect_lock, false);
  EXPECT_EQ(back.allow_limit_cycling, spec.allow_limit_cycling);
  EXPECT_TRUE(back.supervision.enabled);
  EXPECT_EQ(back.supervision.config.watchdog_periods,
            spec.supervision.config.watchdog_periods);
  EXPECT_EQ(back.expect_min_lock_losses, 2u);
  EXPECT_TRUE(back.expect_relock);
  ASSERT_EQ(back.faults.size(), 2u);
  EXPECT_EQ(back.faults[0].kind, FaultSpec::Kind::kDelayCell);
  EXPECT_EQ(back.faults[0].victim_cell, 3u);
  EXPECT_DOUBLE_EQ(back.faults[0].severity, 4.5);
  EXPECT_EQ(back.faults[0].at_period, 100u);
  EXPECT_EQ(back.faults[0].clear_period, 200u);
  EXPECT_EQ(back.faults[1].kind, FaultSpec::Kind::kClockPeriodStep);
  EXPECT_DOUBLE_EQ(back.faults[1].severity, 1.25);
}

TEST(ChaosTest, SpecFromJsonRejectsUnknownEnumValues) {
  // Rejected with or without allow_unknown: an unknown enum value is a
  // wrong value, not an unknown key.
  for (const bool allow_unknown : {false, true}) {
    std::map<std::string, std::string> fields{{"architecture", "analog"}};
    EXPECT_FALSE(
        ddl::scenario::spec_from_json_checked(fields, allow_unknown).ok());
    fields = {{"corner.process", "cryogenic"}};
    EXPECT_FALSE(
        ddl::scenario::spec_from_json_checked(fields, allow_unknown).ok());
    fields = {{"faults.count", "1"}, {"faults.0.kind", "gremlin"}};
    EXPECT_FALSE(
        ddl::scenario::spec_from_json_checked(fields, allow_unknown).ok());
  }
}

/// The shrinker's fixture: one genuinely harmful fault (a stuck tap inside
/// the locked range; found by the chaos fuzzer) buried among harmless
/// faults on cells beyond the lock point.
ScenarioSpec shrinkable_failure() {
  ScenarioSpec spec = quick_spec("shrink-me", 2026);
  spec.tolerance_v = 0.06;
  spec.load = LoadSpec::constant(0.5);
  spec.periods = 1600;
  spec.measure_from = 1100;
  spec.faults = {FaultSpec::delay_cell(200, 2.0, 300),
                 FaultSpec::stuck_tap(103, 602, 1283),
                 FaultSpec::delay_cell(210, 2.0, 500, 900)};
  return spec;
}

TEST(ChaosShrinkTest, ShrinksToTheSingleHarmfulFault) {
  const auto report = ddl::scenario::shrink_failure(shrinkable_failure());
  ASSERT_TRUE(report.failing);
  EXPECT_EQ(report.failure_reason, "regulation_error");
  ASSERT_EQ(report.minimal.faults.size(), 1u);
  EXPECT_EQ(report.minimal.faults[0].kind, FaultSpec::Kind::kStuckTap);
  EXPECT_EQ(report.minimal.faults[0].victim_cell, 103u);
  EXPECT_EQ(report.removed_faults, 2u);
  EXPECT_GE(report.runs, 3u);
  EXPECT_TRUE(ddl::scenario::validate(report.minimal).empty());
}

TEST(ChaosShrinkTest, PassingSpecIsReportedNotShrunk) {
  const auto report = ddl::scenario::shrink_failure(quick_spec("healthy", 3));
  EXPECT_FALSE(report.failing);
  EXPECT_EQ(report.runs, 1u);
  EXPECT_TRUE(report.failure_reason.empty());
}

TEST(ChaosShrinkTest, ReplayBundleRoundTripsAndReproduces) {
  const auto report = ddl::scenario::shrink_failure(shrinkable_failure());
  ASSERT_TRUE(report.failing);
  const std::string document = ddl::scenario::replay_bundle_json(report);

  const auto bundle = ddl::scenario::parse_replay_bundle(document);
  EXPECT_EQ(bundle.expected_failure_reason, report.failure_reason);
  ASSERT_EQ(bundle.spec.faults.size(), report.minimal.faults.size());
  EXPECT_EQ(bundle.spec.faults[0].victim_cell,
            report.minimal.faults[0].victim_cell);
  EXPECT_EQ(bundle.spec.periods, report.minimal.periods);

  const auto outcome = ddl::scenario::replay(bundle);
  EXPECT_TRUE(outcome.reproduced) << outcome.result.failure_reason;

  EXPECT_THROW(ddl::scenario::parse_replay_bundle("{\"bundle\": \"other\"}"),
               std::invalid_argument);
  EXPECT_THROW(ddl::scenario::parse_replay_bundle("not json"),
               std::invalid_argument);
}

// ---- Flat JSON + atomic writes -------------------------------------------

TEST(FlatJsonTest, ParsesLinesAndPrettyDocumentsAlike) {
  const auto line = ddl::analysis::parse_flat_json_line(
      R"({"name": "a/b", "pass": true, "x": 1.5, "n": -3, "esc": "q\"\n"})");
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->at("name"), "a/b");
  EXPECT_EQ(line->at("pass"), "true");
  EXPECT_EQ(line->at("x"), "1.5");
  EXPECT_EQ(line->at("n"), "-3");
  EXPECT_EQ(line->at("esc"), "q\"\n");

  // The manifest / bundle dialect is pretty-printed: same parser.
  const auto pretty = ddl::analysis::parse_flat_json_line(
      "{\n  \"a\": 1,\n  \"b\": \"two\"\n}\n");
  ASSERT_TRUE(pretty.has_value());
  EXPECT_EQ(pretty->at("b"), "two");

  EXPECT_TRUE(ddl::analysis::parse_flat_json_line("{}").has_value());
}

TEST(FlatJsonTest, RejectsTornAndMalformedLines) {
  using ddl::analysis::parse_flat_json_line;
  EXPECT_FALSE(parse_flat_json_line("").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"name": "torn)").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"a": 1,)").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"a" 1})").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"({"a": 1} trailing)").has_value());
  EXPECT_FALSE(parse_flat_json_line(R"([1, 2])").has_value());
}

TEST(AtomicWriteTest, WritesAndReplacesContent) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/report.json";
  ddl::analysis::write_file_atomic(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  ddl::analysis::write_file_atomic(path, "second\n");
  EXPECT_EQ(slurp(path), "second\n");
  // No temp litter left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_THROW(
      ddl::analysis::write_file_atomic(dir + "/no/such/dir/x.json", "x"),
      std::runtime_error);
}

// ---- CLI grammar ----------------------------------------------------------

TEST(CliTest, ParsesTheFullFlagSet) {
  const auto parsed = ddl::scenario::parse_runner_args(
      {"--suite", "regression", "--filter", "proposed", "--jobs", "4",
       "--out", "r.jsonl", "--health-out", "h.jsonl", "--journal", "dir",
       "--timeout-ms", "5000", "--retries", "3", "--backoff-ms", "10",
       "--chaos", "32", "--chaos-seed", "7", "--chaos-max-faults", "5",
       "--shrink", "--inject-hang", "250"});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto& options = parsed.options;
  EXPECT_EQ(options.suite, "regression");
  EXPECT_EQ(options.filter, "proposed");
  EXPECT_EQ(options.jobs, 4u);
  EXPECT_EQ(options.out_path, "r.jsonl");
  EXPECT_EQ(options.health_out_path, "h.jsonl");
  EXPECT_EQ(options.journal_dir, "dir");
  EXPECT_FALSE(options.resume);
  EXPECT_EQ(options.timeout_ms, 5000u);
  EXPECT_EQ(options.retries, 3);
  EXPECT_EQ(options.backoff_ms, 10u);
  EXPECT_EQ(options.chaos_storms, 32u);
  EXPECT_EQ(options.chaos_seed, 7u);
  EXPECT_EQ(options.chaos_max_faults, 5u);
  EXPECT_TRUE(options.shrink);
  EXPECT_EQ(options.inject_hang_ms, 250u);
}

TEST(CliTest, ResumeImpliesItsJournalDirectory) {
  const auto parsed =
      ddl::scenario::parse_runner_args({"--resume", "runs/nightly"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.options.resume);
  EXPECT_EQ(parsed.options.journal_dir, "runs/nightly");

  // Same directory twice is fine; diverging directories are not.
  EXPECT_TRUE(ddl::scenario::parse_runner_args(
                  {"--journal", "d", "--resume", "d"})
                  .ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--journal", "a", "--resume", "b"})
                   .ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--resume", "b", "--journal", "a"})
                   .ok());
}

TEST(CliTest, RejectsMalformedNumbers) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--jobs", "oops"},
        {"--jobs", "8oops"},
        {"--jobs", "-2"},
        {"--timeout-ms", "0"},
        {"--timeout-ms", "1e3"},
        {"--retries", "99999999999999999999"},
        {"--chaos", "0"},
        {"--chaos-max-faults", "0"},
        {"--inject-hang", "0"}}) {
    const auto parsed = ddl::scenario::parse_runner_args(args);
    EXPECT_FALSE(parsed.ok()) << args[0] << " " << args[1];
    EXPECT_FALSE(parsed.error.empty());
  }
}

TEST(CliTest, RejectsMissingValuesAndUnknownFlags) {
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--suite"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--jobs"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--replay"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args({"--frobnicate"}).ok());
}

TEST(CliTest, ReplayIsExclusiveWithBatchModes) {
  EXPECT_TRUE(ddl::scenario::parse_runner_args({"--replay", "b.json"}).ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--replay", "b.json", "--chaos", "4"})
                   .ok());
  EXPECT_FALSE(ddl::scenario::parse_runner_args(
                   {"--replay", "b.json", "--resume", "d"})
                   .ok());
  EXPECT_FALSE(
      ddl::scenario::parse_runner_args({"--replay", "b.json", "--list"})
          .ok());
}

TEST(CliTest, StrictNumericHelpers) {
  std::uint64_t u = 0;
  EXPECT_TRUE(ddl::scenario::parse_u64("007", u));
  EXPECT_EQ(u, 7u);
  EXPECT_TRUE(ddl::scenario::parse_u64("18446744073709551615", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("18446744073709551616", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("1 ", u));
  EXPECT_FALSE(ddl::scenario::parse_u64("+1", u));
  int n = 0;
  EXPECT_TRUE(ddl::scenario::parse_count("2147483647", n));
  EXPECT_EQ(n, 2147483647);
  EXPECT_FALSE(ddl::scenario::parse_count("2147483648", n));
}

// ---- spec_from_json_checked error paths (untrusted input never aborts) ---

TEST(SpecCheckedParseTest, CleanDocumentRoundTripsWithNoErrors) {
  ddl::scenario::ScenarioSpec spec;
  spec.name = "roundtrip/full";
  spec.family = "fault";
  spec.mc_dies = 64;
  spec.faults = {ddl::scenario::FaultSpec::delay_cell(3, 2.5, 100, 200)};
  spec.dvfs = {{500, 0.9}};
  spec.supervision.enabled = true;
  const std::string line =
      ddl::scenario::spec_to_json(spec).to_json_line();
  const auto fields = ddl::analysis::parse_flat_json_line(line);
  ASSERT_TRUE(fields.has_value());
  const auto parse = ddl::scenario::spec_from_json_checked(*fields);
  EXPECT_TRUE(parse.ok()) << parse.errors.front();
  EXPECT_EQ(parse.spec.name, spec.name);
  EXPECT_EQ(parse.spec.mc_dies, 64u);
  ASSERT_EQ(parse.spec.faults.size(), 1u);
  EXPECT_EQ(parse.spec.faults[0].clear_period, 200u);
}

TEST(SpecCheckedParseTest, MalformedAndTruncatedJsonFailTheLineParser) {
  // The parse layer in front of spec_from_json_checked: garbage and torn
  // documents come back as nullopt, never an abort or an exception.
  EXPECT_FALSE(ddl::analysis::parse_flat_json_line("not json").has_value());
  EXPECT_FALSE(ddl::analysis::parse_flat_json_line("{\"a\":1,").has_value());
  const std::string full = "{\"name\":\"x\",\"periods\":2500}";
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    const auto torn = ddl::analysis::parse_flat_json_line(full.substr(0, cut));
    if (torn.has_value()) {
      // The only prefix allowed to parse is one that is itself complete.
      EXPECT_EQ(cut, full.size());
    }
  }
}

TEST(SpecCheckedParseTest, UnknownKeysAreStructuredErrors) {
  std::map<std::string, std::string> fields{{"name", "x"},
                                            {"periosd", "2500"}};
  const auto parse = ddl::scenario::spec_from_json_checked(fields);
  ASSERT_EQ(parse.errors.size(), 1u);
  EXPECT_NE(parse.errors[0].find("periosd"), std::string::npos);
  EXPECT_NE(parse.errors[0].find("unknown key"), std::string::npos);
  // allow_unknown (sandbox worker frames carry their own frame keys)
  // ignores it and still decodes every spec key.
  const auto lenient = ddl::scenario::spec_from_json_checked(fields, true);
  EXPECT_TRUE(lenient.ok());
  EXPECT_EQ(lenient.spec.periods, 2500u);
}

TEST(SpecCheckedParseTest, WrongTypedFieldsCollectPerKeyErrors) {
  std::map<std::string, std::string> fields{
      {"name", "x"},
      {"periods", "abc"},          // not an unsigned integer
      {"clock_mhz", "1.5oops"},    // trailing garbage
      {"expect_lock", "yes"},      // not true/false
      {"architecture", "quantum"}, // unknown enum
      {"resolution_bits", "-3"},   // negative count
  };
  const auto parse = ddl::scenario::spec_from_json_checked(fields);
  ASSERT_EQ(parse.errors.size(), 5u);
  for (const char* key :
       {"periods", "clock_mhz", "expect_lock", "architecture",
        "resolution_bits"}) {
    bool found = false;
    for (const std::string& error : parse.errors) {
      found = found || error.find(key) == 0;
    }
    EXPECT_TRUE(found) << "no error mentions " << key;
  }
  // Failed fields keep their defaults; the parse never throws.
  EXPECT_EQ(parse.spec.periods, 2500u);
  EXPECT_EQ(parse.spec.clock_mhz, 1.0);
}

TEST(SpecCheckedParseTest, IndexedKeysBeyondTheirCountAreUnknown) {
  std::map<std::string, std::string> fields{
      {"name", "x"},
      {"faults.count", "1"},
      {"faults.0.kind", "delay_cell"},
      {"faults.0.victim_cell", "3"},
      {"faults.0.severity", "2.0"},
      {"faults.0.at_period", "0"},
      {"faults.0.clear_period", "0"},
      {"faults.1.kind", "delay_cell"},  // beyond faults.count
  };
  const auto parse = ddl::scenario::spec_from_json_checked(fields);
  ASSERT_EQ(parse.errors.size(), 1u);
  EXPECT_NE(parse.errors[0].find("faults.1.kind"), std::string::npos);
  EXPECT_EQ(parse.spec.faults.size(), 1u);
}

}  // namespace
