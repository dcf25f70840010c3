// Synchronous client for the campaign service: connect (TCP loopback or
// Unix-domain socket), speak the hello handshake, submit jobs, and pump
// frames until `job_done` -- reassembling the result rows by index into
// the exact JSONL stream the one-shot runner would emit.
//
// The client is intentionally blocking and single-connection (the tool and
// the tests drive it from one thread); resilience lives one level up:
// `submit_*` reports backpressure as a retryable outcome, and a dropped
// connection surfaces as a failed wait() -- reconnecting and resubmitting
// the same job is idempotent by design (the server replays committed rows
// byte-exactly).  ResilientScenarioClient packages that recovery loop: a
// reconnect / exponential-backoff / resubmit state machine that drives a
// job to completion through resets, truncation, fuzzing and stalls (the
// chaos-proxy storms), converging on the same bytes a direct run yields.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/spec.h"
#include "ddl/service/protocol.h"

namespace ddl::service {

struct ClientConfig {
  std::string host = "127.0.0.1";
  int tcp_port = 0;        ///< Used when unix_path is empty.
  std::string unix_path;   ///< Preferred when set.
  std::string name = "client";  ///< Client identity (part of job identity).
  /// Total-silence budget: next_frame() fails once the server has sent
  /// nothing for this long; 0 blocks forever (the server's heartbeats
  /// keep a healthy connection from ever looking idle).
  std::uint64_t recv_timeout_ms = 0;
  /// Ping cadence while blocked waiting for frames (0 disables): the
  /// dead-peer pairing with the server's --dead-peer-timeout-ms -- a
  /// client wedged in a long wait keeps proving it is alive.
  std::uint64_t heartbeat_ms = 0;
};

class ScenarioClient {
 public:
  explicit ScenarioClient(ClientConfig config);
  ~ScenarioClient();

  ScenarioClient(const ScenarioClient&) = delete;
  ScenarioClient& operator=(const ScenarioClient&) = delete;

  /// Connects and completes the hello handshake.  False (with `*error`
  /// filled) on connect / handshake failure.
  bool connect(std::string* error = nullptr);

  bool connected() const noexcept { return fd_ >= 0; }

  /// Outcome of one submit attempt.
  struct Submission {
    bool accepted = false;
    bool backpressure = false;  ///< Over quota; retry after retry_ms.
    bool resumed = false;       ///< Attached to an existing job.
    std::string job_id;
    std::size_t scenarios = 0;
    std::uint64_t retry_ms = 0;
    std::string error_code;    ///< From an `error` frame (or transport).
    std::string error_detail;
  };

  /// Submits a registry suite (the server expands it).
  Submission submit_suite(const std::string& job_tag, const std::string& suite,
                          const std::string& filter = "");

  /// Submits explicit specs (flattened into the frame via spec_to_json).
  Submission submit_specs(const std::string& job_tag,
                          const std::vector<scenario::ScenarioSpec>& specs);

  /// Submits a chaos campaign (the server expands the storms).
  Submission submit_chaos(const std::string& job_tag,
                          const scenario::ChaosCampaignSpec& chaos);

  /// Submits a PR-5 chaos replay bundle as a one-scenario job; the
  /// job_done frame reports whether the expected failure reproduced.
  Submission submit_replay(const std::string& job_tag,
                           const scenario::ReplayBundle& bundle);

  /// Requests cooperative teardown of a job by tag.  The terminal
  /// `cancelled` frame surfaces through wait() (JobOutcome::cancelled)
  /// once nothing of the job is queued or running.  False on transport
  /// failure.
  bool cancel(const std::string& job_tag);

  /// Submits a raw pre-built frame (the error-path tests craft malformed
  /// submits with this; the typed submits route through it too).
  Submission submit_frame(const analysis::JsonObject& frame,
                          const std::string& job_tag);

  /// Everything wait() reassembles for one job.
  struct JobOutcome {
    bool done = false;  ///< job_done arrived; counters below are valid.
    bool cancelled = false;   ///< The `cancelled` terminal frame arrived.
    bool replay = false;      ///< job_done came from a replay job.
    bool reproduced = false;  ///< Replay jobs: expected verdict reproduced.
    std::string error_code;    ///< Transport or `error`-frame failure.
    std::string error_detail;
    std::vector<std::string> result_lines;  ///< By scenario index.
    std::vector<std::string> health_lines;  ///< Index order, then seq.
    std::size_t scenarios = 0;
    std::size_t passed = 0;
    std::size_t failed = 0;
    std::size_t executed = 0;
    std::size_t resumed = 0;
    std::size_t heartbeats = 0;  ///< Heartbeat frames seen while waiting.

    /// The reassembled stream: one row per line, trailing newline --
    /// byte-identical to the runner's --out file for the same specs.
    std::string jsonl() const;
    std::string health_jsonl() const;
  };

  /// Pumps frames until the job completes (or is cancelled), an error
  /// frame names it, or the connection drops.  Frames for other in-flight
  /// jobs are buffered, so several submitted jobs can be waited in any
  /// order.
  JobOutcome wait(const std::string& job_id);

  /// Round-trips a ping (liveness check).  False on transport failure.
  bool ping();

  /// Sends `bye` and closes.
  void bye();
  void close();

  // Low-level access (tests and tools): send one raw payload / read the
  // next frame regardless of type.
  bool send_payload(const std::string& payload);
  std::optional<std::map<std::string, std::string>> next_frame();

 private:
  Submission pump_for_submit_reply(const std::string& job_tag);
  void absorb(const std::map<std::string, std::string>& fields);
  void fill_done(JobOutcome& outcome,
                 const std::map<std::string, std::string>& fields);

  ClientConfig config_;
  int fd_ = -1;
  FrameReader reader_;
  /// Frames buffered per job while waiting for a different one.  Cleared
  /// on (re)connect: the server replays every committed row on
  /// resubmission, so per-connection stream state is always disposable.
  std::map<std::string, JobOutcome> inbox_;
};

/// Reconnect / backoff / resubmit policy for ResilientScenarioClient.
struct ResilientClientConfig {
  ClientConfig base;
  /// Transport-failure budget: connect failures and mid-stream drops
  /// count against it (backpressure waits do too, so a wedged server
  /// cannot spin the loop forever).
  std::size_t max_attempts = 16;
  std::uint64_t initial_backoff_ms = 25;  ///< Doubles per failure, capped.
  std::uint64_t max_backoff_ms = 1000;
};

/// Drives a job to completion through an adversarial transport: every
/// dropped connection (reset, truncation, poisoned reader after fuzzing)
/// triggers reconnect, exponential backoff and an idempotent resubmit --
/// the server's content-addressed job identity attaches the new
/// connection to the same job and replays committed rows byte-exactly,
/// so the final JobOutcome is identical to an undisturbed run.
class ResilientScenarioClient {
 public:
  explicit ResilientScenarioClient(ResilientClientConfig config);

  ScenarioClient::JobOutcome run_suite(const std::string& job_tag,
                                       const std::string& suite,
                                       const std::string& filter = "");
  ScenarioClient::JobOutcome run_specs(
      const std::string& job_tag,
      const std::vector<scenario::ScenarioSpec>& specs);
  ScenarioClient::JobOutcome run_chaos(
      const std::string& job_tag, const scenario::ChaosCampaignSpec& chaos);
  ScenarioClient::JobOutcome run_replay(const std::string& job_tag,
                                        const scenario::ReplayBundle& bundle);

  std::size_t reconnects() const noexcept { return reconnects_; }
  std::size_t resubmits() const noexcept { return resubmits_; }

 private:
  template <typename SubmitFn>
  ScenarioClient::JobOutcome run(SubmitFn&& submit);

  ResilientClientConfig config_;
  ScenarioClient client_;
  std::size_t reconnects_ = 0;
  std::size_t resubmits_ = 0;
};

}  // namespace ddl::service
