// Process-level scenario sandbox: crash containment for campaign workers.
//
// A ScenarioExecutor runs dispatch units for one worker thread of the unit
// engine (engine.h) that the Campaign and the campaign service daemon
// share.  It supervises a *worker process*, a fresh image of this program
// (posix_spawn of /proc/self/exe; see spawn_worker in sandbox.cpp) in its
// own process group, holding only stdio and its two pipe ends:
//
//   supervisor (this process)              worker (spawned image)
//   ----------------------------          ---------------------------
//   spec frames + go  ------------------>  spec_from_json_checked, run
//                     <------------------  health / row frames
//                     <------------------  unit_done
//   waitpid on death; classify; respawn
//
// Frames reuse the campaign service's checksummed wire framing
// (ddl/service/protocol.h) over a pipe pair, and rows travel as the exact
// JSONL line the runner would emit -- the same byte-identity trick the
// service uses on sockets -- so a sandboxed campaign's streams are
// byte-identical to the in-process ScenarioRunner's.
//
// The point of the worker: a scenario that segfaults, aborts, blows past
// an address-space or CPU-time cap (setrlimit inside the worker), or wedges
// beyond the watchdog deadline kills only the worker.  The supervisor
// reaps it (waitpid), classifies the exit status into a structured
// ScenarioError (kCrash / kResourceLimit / kWorkerLost / kTimeout),
// respawns the worker and -- for transient classes -- retries with
// exponential backoff.  Crash rows are deterministic (signal name + spec
// content fingerprint; never a pid or address), so a journaled crash row
// replays byte-identically on resume.
//
// Batch-plan dispatch units survive: a multi-spec unit ships whole into
// one worker (one batched kernel dispatch, threads=1).  If the worker
// dies mid-group the partial rows are discarded and every member degrades
// to a per-scenario guarded retry -- never a lost or duplicated row.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ddl/scenario/runner.h"

namespace ddl::scenario {

/// Per-worker resource caps, passed in the worker's argv and applied there
/// via setrlimit().
struct SandboxLimits {
  /// RLIMIT_AS cap in MiB; 0 leaves the address space unlimited.
  std::uint64_t mem_limit_mb = 0;
  /// RLIMIT_CPU cap in seconds; 0 leaves CPU time unlimited.
  std::uint64_t cpu_limit_s = 0;
};

/// Per-attempt supervision policy (the isolation slice of CampaignConfig).
struct IsolationConfig {
  /// Watchdog deadline per attempt in wall milliseconds; 0 derives a
  /// generous per-spec default from the period count (auto_timeout_ms).
  std::uint64_t timeout_ms = 0;
  /// Extra attempts granted to a transiently failed scenario (a timeout or
  /// an unattributable worker loss).
  int max_retries = 1;
  /// First retry backoff; doubles on every further retry.
  std::uint64_t backoff_base_ms = 50;
  /// Resource caps for the sandbox workers.
  SandboxLimits limits;
};

/// The derived watchdog deadline when `timeout_ms == 0`: generous enough
/// that only a genuine hang trips it (10 s floor + 20 ms per switching
/// period), and a pure function of the spec so error rows stay
/// deterministic.
std::uint64_t auto_timeout_ms(const ScenarioSpec& spec);

/// Shared sandbox telemetry, aggregated across every executor of a
/// campaign or server (plain atomics; hand the same instance to all).
struct SandboxCounters {
  /// Workers killed by a fatal signal (rows classified kCrash).
  std::atomic<std::size_t> crashes{0};
  /// Fresh workers spawned to replace a dead one (initial spawns excluded).
  std::atomic<std::size_t> respawns{0};
  /// Workers killed by their RLIMIT_AS / RLIMIT_CPU cap (kResourceLimit).
  std::atomic<std::size_t> resource_kills{0};
  /// Rows classified kWorkerLost (unattributable death, retries
  /// exhausted).
  std::atomic<std::size_t> workers_lost{0};
};

/// One executed scenario: the verdict plus its rendered JSONL line and
/// health-event lines.  The lines are rendered inside the worker and
/// shipped back byte-exact; `result` is the verdict slice reconstructed
/// from the row (same contract as a journal resume), or the full error row
/// the supervisor rendered for a worker death.
struct ExecutedScenario {
  ScenarioResult result;
  std::string line;
  std::vector<std::string> health_lines;
};

/// Executes dispatch units (one spec, or one batch-coalesced group) in a
/// sandbox worker process.  One executor per unit-engine worker thread
/// (engine.h); not itself thread-safe except interrupt(), which any thread
/// may call to kill the in-flight unit's worker process.
class ScenarioExecutor {
 public:
  /// `counters`, when given, must outlive the executor.
  explicit ScenarioExecutor(IsolationConfig config,
                            SandboxCounters* counters = nullptr);
  ~ScenarioExecutor();

  ScenarioExecutor(const ScenarioExecutor&) = delete;
  ScenarioExecutor& operator=(const ScenarioExecutor&) = delete;

  /// Runs one dispatch unit in spec order.  Never throws; every failure
  /// mode (crash, limit, timeout, lost worker) comes back as an error row.
  /// A single-spec unit follows the full watchdog/retry policy; a
  /// multi-spec unit is a planned batch (one worker, planned into batch
  /// groups there) whose members degrade to per-scenario retries if the
  /// group's worker dies.  Returns one entry per spec, in order -- or an
  /// empty vector when interrupt() withdrew the unit (check interrupted()).
  std::vector<ExecutedScenario> run_unit(const std::vector<ScenarioSpec>& specs);

  /// Kills the current worker's process group (cancel support).  The
  /// in-flight run_unit returns empty with interrupted() set; rows of the
  /// withdrawn unit are never emitted.  Safe from any thread.
  void interrupt();

  bool interrupted() const noexcept;

  /// Re-arms the executor after a withdrawn unit (the unit engine reuses
  /// each worker's executor across jobs).
  void clear_interrupt() noexcept;

  /// Implementation state (public so the supervisor's file-local helpers
  /// can take it by reference; the definition stays in sandbox.cpp).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace ddl::scenario
