// Crash-safe campaign execution on top of the scenario runner.
//
// A Campaign adds three things a long-running batch service needs that the
// plain ScenarioRunner does not provide:
//
//   durability  a run's rows live in a JobLedger (journal.h), the daemon's
//               too: every completed scenario is appended to an on-disk
//               JSONL journal as one commit record (its health events, then
//               its result line, in one append) next to a manifest written
//               once, when the journal is created.  A killed campaign
//               resumes with `CampaignConfig::resume`: the journal is cut
//               back to its last commit, completed scenarios are skipped
//               and their journaled lines reused *byte-exactly*, so the
//               final stream is identical to an uninterrupted run.
//
//   isolation   each scenario attempt runs in a sandbox worker process
//               (sandbox.h) under a per-spec deadline (`isolation`'s
//               `timeout_ms`, or derived from the spec's period count).
//               Timeouts are classified transient and retried with
//               exponential backoff up to `max_retries`; an exhausted
//               scenario becomes a structured `verdict:"error"` row
//               (ScenarioError::kTimeout) and the batch keeps going.
//               Crashes and resource kills become error rows too.
//               Exceptions are captured per scenario by
//               `run_scenario_guarded` and are not retried (deterministic).
//               The pending specs are planned first (batch_plan.h): each
//               MC-yield group or closed-loop lane stream is one dispatch
//               unit.  Units run on the unit engine the daemon also uses
//               (engine.h), claimed FIFO by `jobs` workers, and each
//               member is committed to the ledger when its unit completes.
//
//   determinism the journal is completion-ordered (a durability log, not
//               the artifact); the final result and health streams are
//               re-emitted in spec order from deterministic per-scenario
//               content, so they are byte-identical for any `jobs` value
//               and across any interrupt/resume split.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"

namespace ddl::scenario {

struct CampaignConfig {
  /// Journal + manifest directory; empty disables durability
  /// (sandbox isolation still applies).  Created on demand.
  std::string journal_dir;
  /// Resume from an existing journal in `journal_dir`: the manifest must
  /// be journal format 3 and fingerprint-match the spec list; completed
  /// scenarios are skipped.
  bool resume = false;
  /// Worker threads; 0 resolves DDL_THREADS / hardware concurrency.
  std::size_t jobs = 0;
  /// Optional graceful-stop flag (SIGTERM/SIGINT): when it reads true, the
  /// campaign stops *starting* dispatch units (the unit engine's stop
  /// rule).  In-flight units finish and are journaled normally, so the
  /// journal stays resumable and non-torn; the scenarios of unstarted
  /// units are counted in CampaignOutcome::skipped.
  const std::atomic<bool>* stop = nullptr;
  /// Watchdog deadline, retries, backoff and RLIMIT caps of every sandbox
  /// attempt (shared with the daemon's ServiceConfig).
  IsolationConfig isolation;
};

/// Everything a campaign run produces.  `result_lines` (spec order, no
/// trailing newline) is the canonical byte-stable stream; `results` backs
/// summarize() -- every entry is reconstructed from its result line
/// (verdict fields only: metrics and health events stay empty, and the
/// health events are `health_jsonl`).
struct CampaignOutcome {
  std::vector<ScenarioResult> results;
  std::vector<std::string> result_lines;
  /// Health-event stream, spec order then event order (byte-stable).
  std::string health_jsonl;

  std::size_t executed = 0;   ///< Scenarios run in this process.
  std::size_t resumed = 0;    ///< Scenarios restored from the journal.
  std::size_t retried = 0;    ///< Scenarios that needed more than 1 attempt.
  std::size_t timeouts = 0;   ///< Scenarios exhausted as kTimeout errors.
  std::size_t exceptions = 0; ///< Scenarios captured as kException errors.
  std::size_t skipped = 0;    ///< Scenarios never started (graceful stop).
  std::size_t sandbox_crashes = 0;   ///< Workers killed by a fatal signal.
  std::size_t workers_respawned = 0; ///< Replacement sandbox workers spawned.
  std::size_t resource_kills = 0;    ///< Workers killed by RLIMIT caps.
  std::size_t workers_lost = 0;      ///< kWorkerLost rows.
  /// True when a graceful stop cut the run short: `skipped` scenarios have
  /// neither a result row nor a journal entry; resume picks them up.
  bool interrupted = false;

  /// The result stream as one JSONL document.
  std::string jsonl() const;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config) : config_(std::move(config)) {}

  /// Runs (or resumes) the campaign over `specs`.  Spec names must be
  /// unique (the journal is keyed by name); throws std::invalid_argument
  /// otherwise, and std::runtime_error when `resume` is set but the
  /// journal directory does not hold a matching format-3 manifest.
  CampaignOutcome run(const std::vector<ScenarioSpec>& specs) const;

  const CampaignConfig& config() const noexcept { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace ddl::scenario
