#include "ddl/service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ddl/analysis/bench_json.h"
#include "ddl/core/hash.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/cli.h"
#include "ddl/scenario/engine.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/spec.h"
#include "ddl/scenario/workspace.h"
#include "ddl/service/net_util.h"
#include "ddl/service/protocol.h"

namespace ddl::service {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using scenario::ScenarioSpec;

constexpr std::size_t kMaxSpecsPerSubmit = 4096;
constexpr std::size_t kMaxErrorDetail = 2000;
constexpr std::size_t kDefaultMaxOutboxBytes = std::size_t{32} << 20;
constexpr std::size_t kDefaultMaxFramesPerTick = 256;
constexpr std::size_t kMaxRxBytesPerTick = std::size_t{256} << 10;

/// Content-addressed job identity: same client, same tag, same spec bytes
/// -> same id, so resubmission after a crash or disconnect attaches to the
/// original job instead of running anything twice.  Rendered in the same
/// 16-hex-digit style the journal fingerprints use.
std::string job_id_of(const std::string& client, const std::string& tag,
                      const std::string& content_fingerprint) {
  return core::fnv1a64_hex(client + "\n" + tag + "\n" + content_fingerprint);
}

std::string clip(std::string text) {
  if (text.size() > kMaxErrorDetail) {
    text.resize(kMaxErrorDetail);
    text += "...";
  }
  return text;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) {
      out += "; ";
    }
    out += part;
  }
  return out;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// A finished dispatch unit as the engine hands it back, its rows already
/// rendered to JSONL on the worker thread, so the event loop only journals
/// and frames bytes.  No rows means a cancel withdrew the unit.
struct Completion {
  scenario::DispatchUnit unit;  ///< `job` is the job id.
  std::vector<scenario::ExecutedScenario> rows;
};

struct Job {
  /// Opens the job's ledger (scenario::JobLedger: `dir` empty keeps it in
  /// memory; `resume` reloads its journal, else creates it).
  Job(std::vector<ScenarioSpec> specs, const std::string& dir, bool resume)
      : ledger(std::move(specs), dir, resume), dispatched(ledger.size()) {}

  std::string id;
  std::string tag;
  std::string owner;  ///< Client name (job identity includes it).
  std::string content_fingerprint;  ///< job identity (every spec field)
  /// Specs, committed rows and their journal.
  scenario::JobLedger ledger;
  /// By index: queued or running on a worker.  Pending = neither this nor
  /// ledger.done().
  std::vector<bool> dispatched;
  int session_fd = -1;  ///< Attached session; -1 = orphan.
  bool cancelled = false;  ///< Cooperative teardown requested (durable).
  bool is_replay = false;  ///< Born from a submit_replay frame.
  std::string expected_failure_reason;  ///< Replay jobs: expected verdict.

  /// Scenarios queued or running on a worker; a cancelled job settles
  /// once none is left.
  std::size_t inflight = 0;

  bool done() const noexcept { return ledger.completed() == ledger.size(); }
};

/// Per-client-name scheduling state.  Slots persist across sessions (a
/// reconnecting client keeps its quota and its queue position) and across
/// restarts (recovery recreates the slot from job.json's client field).
struct ClientSlot {
  std::string name;
  std::vector<std::string> jobs;  ///< Incomplete job ids, submit order.
  std::size_t inflight = 0;       ///< Dispatched-but-not-completed count.
};

struct Session {
  int fd = -1;
  FrameReader reader;
  std::string outbox;
  std::size_t outbox_offset = 0;
  std::string client_name;
  bool said_hello = false;
  bool closing = false;  ///< Close as soon as the outbox drains.

  // --- Liveness tracking (dead-peer / slowloris timeouts) ---------------
  Clock::time_point last_rx;  ///< Last time recv() returned bytes.
  /// Start of the current stuck-mid-frame window: set when bytes sit
  /// buffered without a complete frame decoding, cleared on progress.
  Clock::time_point partial_since;
  bool partial_pending = false;
  std::size_t frames_seen = 0;  ///< reader.frames_decoded() snapshot.
};

}  // namespace

struct ScenarioServer::Impl {
  explicit Impl(ServiceConfig config) : config(std::move(config)) {}

  ServiceConfig config;

  // --- Listener / wakeup fds (created in start, owned by event loop) ----
  int tcp_listen_fd = -1;
  int unix_listen_fd = -1;
  int bound_tcp_port = 0;
  int wake_read_fd = -1;
  int wake_write_fd = -1;

  // --- Event-loop-owned state (no locks: single-threaded owner) ---------
  std::map<int, Session> sessions;
  std::map<std::string, Job> jobs;
  std::vector<ClientSlot> clients;
  std::size_t rr_cursor = 0;
  /// Event-loop-owned sizing cache backing batch-eligibility checks at
  /// dispatch time (single-threaded owner, like everything above).
  scenario::ScenarioWorkspace plan_workspace;

  // --- Execution --------------------------------------------------------
  std::thread event_thread;
  std::mutex completion_mutex;
  std::deque<Completion> completions;
  /// Runs dispatch units on the sandboxed workers (created in start();
  /// declared after `completions`, so its workers stop first).
  std::unique_ptr<scenario::UnitEngine> engine;

  // --- Cross-thread status ----------------------------------------------
  std::atomic<bool> stop_requested{false};
  bool started = false;
  bool stopped_joined = false;
  std::mutex lifecycle_mutex;
  std::mutex stopped_mutex;
  std::condition_variable stopped_cv;
  bool event_loop_exited = false;

  mutable std::mutex stats_mutex;
  ServiceStats stats_data;
  std::vector<std::string> dispatch_log_data;

  std::mutex jobs_done_mutex;
  std::condition_variable jobs_done_cv;
  std::size_t active_jobs = 0;  ///< Incomplete jobs (orphans included).

  // ----------------------------------------------------------------------

  void bump(std::size_t ServiceStats::* counter, std::size_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats_data.*counter += by;
  }

  void note_dispatch(const std::string& client) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    if (config.record_dispatch_log) {
      dispatch_log_data.push_back(client);
    }
  }

  void set_active_jobs_delta(long delta) {
    std::lock_guard<std::mutex> lock(jobs_done_mutex);
    active_jobs = static_cast<std::size_t>(
        static_cast<long>(active_jobs) + delta);
    if (active_jobs == 0) {
      jobs_done_cv.notify_all();
    }
  }

  ClientSlot& slot_of(const std::string& name) {
    for (ClientSlot& slot : clients) {
      if (slot.name == name) {
        return slot;
      }
    }
    clients.push_back(ClientSlot{name, {}, 0});
    return clients.back();
  }

  void wake() {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t wrote = ::write(wake_write_fd, &byte, 1);
  }

  // --- Frame output -----------------------------------------------------

  std::size_t max_outbox_bytes() const noexcept {
    return config.max_outbox_bytes == 0 ? kDefaultMaxOutboxBytes
                                        : config.max_outbox_bytes;
  }

  void send_frame(Session& session, const analysis::JsonObject& frame) {
    if (session.closing) {
      return;
    }
    session.outbox += encode_frame(frame);
    flush_outbox(session);
    // A peer that stops reading while frames accumulate is disconnected
    // rather than holding unbounded memory; its jobs continue as orphans
    // and a reconnect replays every committed row.
    if (session.outbox.size() - session.outbox_offset > max_outbox_bytes()) {
      session.outbox.clear();
      session.outbox_offset = 0;
      session.closing = true;
      bump(&ServiceStats::outbox_overflows);
    }
  }

  /// Nonblocking flush; leftover bytes wait for POLLOUT.  EINTR is a
  /// retry, never a peer-gone signal (net::retry_eintr) -- the bug class
  /// this helper exists to kill is a SIGCHLD from a sandbox worker
  /// tearing down an innocent session mid-send.
  void flush_outbox(Session& session) {
    while (session.outbox_offset < session.outbox.size()) {
      const ssize_t sent = net::retry_eintr([&] {
        return ::send(session.fd,
                      session.outbox.data() + session.outbox_offset,
                      session.outbox.size() - session.outbox_offset,
                      MSG_NOSIGNAL);
      });
      if (sent > 0) {
        session.outbox_offset += static_cast<std::size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      session.closing = true;  // Peer gone; reaped on the next poll pass.
      return;
    }
    session.outbox.clear();
    session.outbox_offset = 0;
  }

  void send_error(Session& session, const std::string& code,
                  const std::string& detail, const std::string& job_tag = "") {
    analysis::JsonObject frame = make_frame("error");
    frame.set("code", code);
    frame.set("detail", clip(detail));
    if (!job_tag.empty()) {
      frame.set("job", job_tag);
    }
    // Bump before the send: once the client has read the frame off the
    // socket, stats() is guaranteed to already reflect it.
    bump(&ServiceStats::error_frames);
    send_frame(session, frame);
  }

  // --- Job lifecycle ----------------------------------------------------

  std::string job_dir(const std::string& job_id) const {
    return config.state_dir + "/jobs/" + job_id;
  }

  /// Creates (and, with a state_dir, persists) a fresh job.  Throws
  /// std::runtime_error when the state directory is not writable.
  Job& create_job(const std::string& tag, const std::string& owner,
                  std::vector<ScenarioSpec> specs, bool is_replay,
                  const std::string& expected_failure_reason) {
    const std::string fingerprint = scenario::content_fingerprint_of(specs);
    const std::string id = job_id_of(owner, tag, fingerprint);
    std::string dir;
    if (!config.state_dir.empty()) {
      dir = job_dir(id);
      // Clears what a create cut short before its manifest left behind;
      // admit() refuses every directory that has one.
      fs::remove_all(dir);
      fs::create_directories(dir);
      analysis::JsonObject meta;
      meta.set("schema_version", analysis::kBenchJsonSchemaVersion);
      meta.set("record", "service_job");
      meta.set("job_id", id);
      meta.set("client", owner);
      meta.set("tag", tag);
      meta.set("scenarios", static_cast<std::uint64_t>(specs.size()));
      meta.set("fingerprint", fingerprint);
      if (is_replay) {
        meta.set("replay", true);
        meta.set("expected_failure_reason", expected_failure_reason);
      }
      std::string spec_lines;
      for (const ScenarioSpec& spec : specs) {
        spec_lines += scenario::spec_to_json(spec).to_json_line();
        spec_lines += "\n";
      }
      // Specs persist before the journal opens: a job directory always
      // holds enough to resume, even when the server dies immediately
      // after the accept.
      analysis::write_file_atomic(dir + "/specs.jsonl", spec_lines);
      analysis::write_file_atomic(dir + "/job.json", meta.to_json_line() + "\n");
    }

    Job& job = jobs.try_emplace(id, std::move(specs), dir, /*resume=*/false)
                   .first->second;
    job.id = id;
    job.tag = tag;
    job.owner = owner;
    job.content_fingerprint = fingerprint;
    job.is_replay = is_replay;
    job.expected_failure_reason = expected_failure_reason;
    slot_of(owner).jobs.push_back(id);
    set_active_jobs_delta(+1);
    bump(&ServiceStats::jobs_accepted);
    if (is_replay) {
      bump(&ServiceStats::replay_jobs);
    }
    return job;
  }

  void send_accepted(Session& session, const Job& job, bool resumed) {
    analysis::JsonObject frame = make_frame("accepted");
    frame.set("job", job.tag);
    frame.set("job_id", job.id);
    frame.set("scenarios", static_cast<std::uint64_t>(job.ledger.size()));
    frame.set("fingerprint", job.content_fingerprint);
    frame.set("resumed", resumed);
    frame.set("completed", static_cast<std::uint64_t>(job.ledger.completed()));
    send_frame(session, frame);
  }

  void send_result_frames(Session& session, const Job& job,
                          std::size_t index) {
    std::size_t seq = 0;
    for (const std::string& line : job.ledger.health(index)) {
      analysis::JsonObject frame = make_frame("health");
      frame.set("job_id", job.id);
      frame.set("index", static_cast<std::uint64_t>(index));
      frame.set("seq", static_cast<std::uint64_t>(seq++));
      frame.set("row", line);
      send_frame(session, frame);
    }
    analysis::JsonObject frame = make_frame("result");
    frame.set("job_id", job.id);
    frame.set("index", static_cast<std::uint64_t>(index));
    frame.set("row", job.ledger.line(index));
    send_frame(session, frame);
  }

  void send_progress(Session& session, const Job& job) {
    analysis::JsonObject frame = make_frame("progress");
    frame.set("job_id", job.id);
    frame.set("completed", static_cast<std::uint64_t>(job.ledger.completed()));
    frame.set("total", static_cast<std::uint64_t>(job.ledger.size()));
    send_frame(session, frame);
  }

  void send_job_done(Session& session, const Job& job) {
    analysis::JsonObject frame = make_frame("job_done");
    frame.set("job_id", job.id);
    frame.set("job", job.tag);
    const scenario::JobLedger& ledger = job.ledger;
    frame.set("scenarios", static_cast<std::uint64_t>(ledger.size()));
    frame.set("passed", static_cast<std::uint64_t>(ledger.passed()));
    frame.set("failed",
              static_cast<std::uint64_t>(ledger.completed() - ledger.passed()));
    frame.set("executed", static_cast<std::uint64_t>(ledger.completed() -
                                                     ledger.restored()));
    frame.set("resumed", static_cast<std::uint64_t>(ledger.restored()));
    if (job.is_replay) {
      // A replay job's one scenario, judged as `ddl_scenario_runner
      // --replay` judges it.
      frame.set("replay", true);
      frame.set("reproduced", scenario::reproduces(
                                  ledger.result(0),
                                  job.expected_failure_reason));
    }
    send_frame(session, frame);
  }

  void send_cancelled(Session& session, const Job& job) {
    analysis::JsonObject frame = make_frame("cancelled");
    frame.set("job_id", job.id);
    frame.set("job", job.tag);
    frame.set("completed", static_cast<std::uint64_t>(job.ledger.completed()));
    frame.set("total", static_cast<std::uint64_t>(job.ledger.size()));
    send_frame(session, frame);
  }

  /// Replays every committed row of `job` (byte-exact journal/journal-less
  /// lines) to a resubmitting session, then attaches it for live frames.
  void attach_and_replay(Session& session, Job& job) {
    job.session_fd = session.fd;
    send_accepted(session, job, /*resumed=*/true);
    for (std::size_t i = 0; i < job.ledger.size(); ++i) {
      if (job.ledger.done(i)) {
        send_result_frames(session, job, i);
      }
    }
    send_progress(session, job);
    if (job.done()) {
      send_job_done(session, job);
    } else if (job.cancelled && job.inflight == 0) {
      // A cancelled job never finishes; the resubmission learns its
      // terminal state immediately instead of waiting forever.
      send_cancelled(session, job);
    }
    bump(&ServiceStats::jobs_attached);
  }

  // --- Scheduling -------------------------------------------------------

  bool try_dispatch_one(ClientSlot& slot) {
    if (slot.inflight >= config.max_inflight_per_client) {
      return false;
    }
    for (const std::string& job_id : slot.jobs) {
      Job& job = jobs.at(job_id);
      if (job.cancelled) {
        continue;  // Pending specs of a cancelled job never dispatch.
      }
      const std::vector<ScenarioSpec>& specs = job.ledger.specs();
      const auto pending = [&job](std::size_t i) {
        return !job.dispatched[i] && !job.ledger.done(i);
      };
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!pending(i)) {
          continue;
        }
        // Coalesce: when the claimed scenario is batch-eligible (MC
        // yield) or lane-eligible (closed loop), the job's next pending
        // scenarios of the same kind join this dispatch unit (up to the
        // inflight quota, and up to the first pending scenario of another
        // kind, so a job still dispatches in spec order) and the worker
        // packs them into SoA kernel lanes or a plant-lane stream.  Still
        // one unit per rotation -- the extra entries spend quota the
        // client would have spent on later rotations, so cross-client
        // fairness is unchanged.
        bool (*eligible)(const scenario::ScenarioSpec&,
                         scenario::ScenarioWorkspace&) = nullptr;
        if (scenario::batch_eligible(specs[i], plan_workspace)) {
          eligible = &scenario::batch_eligible;
        } else if (scenario::lane_eligible(specs[i], plan_workspace)) {
          eligible = &scenario::lane_eligible;
        }
        scenario::DispatchUnit unit{job.id, {}, {}};
        for (std::size_t j = i; j < specs.size() &&
                                slot.inflight < config.max_inflight_per_client;
             ++j) {
          if (!pending(j)) {
            continue;
          }
          if (j > i &&
              (eligible == nullptr || !eligible(specs[j], plan_workspace))) {
            break;
          }
          job.dispatched[j] = true;
          job.inflight++;
          slot.inflight++;
          note_dispatch(slot.name);
          unit.indices.push_back(j);
          unit.specs.push_back(specs[j]);
        }
        if (unit.specs.size() > 1) {
          bump(&ServiceStats::batched_units);
        }
        engine->submit(std::move(unit));
        return true;
      }
    }
    return false;
  }

  /// Fair round-robin at dispatch-unit granularity: one unit per eligible
  /// client per rotation, until a full pass dispatches nothing (every
  /// client is at quota or out of work).
  void dispatch() {
    std::size_t barren = 0;
    while (barren < clients.size()) {
      ClientSlot& slot = clients[rr_cursor % clients.size()];
      rr_cursor = (rr_cursor + 1) % clients.size();
      if (try_dispatch_one(slot)) {
        barren = 0;
      } else {
        barren++;
      }
    }
  }

  /// Returns a unit's specs to pending and releases their quota (a
  /// cancelled job never re-dispatches them; a stopped server resumes them
  /// after a restart).
  void release(const scenario::DispatchUnit& unit) {
    Job& job = jobs.at(unit.job);
    ClientSlot& slot = slot_of(job.owner);
    for (const std::size_t index : unit.indices) {
      job.dispatched[index] = false;
      job.inflight--;
      if (slot.inflight > 0) {
        slot.inflight--;
      }
    }
  }

  void handle_completion(Completion&& done) {
    Job& job = jobs.at(done.unit.job);
    // The unit leaves flight: its quota returns, and each spec that came
    // back with a row is done.  A unit whose sandbox worker a cancel killed
    // comes back with no rows, so its specs stay pending.
    release(done.unit);
    for (std::size_t k = 0; k < done.rows.size(); ++k) {
      const std::size_t index = done.unit.indices[k];
      try {
        job.ledger.commit(index, std::move(done.rows[k]));
      } catch (const scenario::JournalIoError& e) {
        // Disk fault (ENOSPC/EIO): the ledger stops journaling the job
        // fail-closed -- no torn-commit ambiguity on a later resume -- and
        // keeps its rows in memory; tell the client once.
        bump(&ServiceStats::journal_io_errors);
        auto error_session = sessions.find(job.session_fd);
        if (error_session != sessions.end()) {
          send_error(error_session->second, "journal_io", e.what(), job.tag);
        }
      }
      bump(&ServiceStats::scenarios_executed);

      auto session_it = sessions.find(job.session_fd);
      if (session_it != sessions.end()) {
        send_result_frames(session_it->second, job, index);
        send_progress(session_it->second, job);
      }
    }
    settle(job);
  }

  /// Retires a job from scheduling once it is done, or cancelled with
  /// nothing of it queued or running: releases the client's job quota and
  /// sends the terminal frame.  The job stays in `jobs`, so a resubmission
  /// replays its committed rows (and re-learns `cancelled`).
  void settle(Job& job) {
    const bool finished = job.done();
    if (!finished && !(job.cancelled && job.inflight == 0)) {
      return;
    }
    std::erase(slot_of(job.owner).jobs, job.id);
    // Stats before the terminal frame: a client that has seen `job_done`
    // or `cancelled` must never read a stats snapshot that predates it.
    bump(finished ? &ServiceStats::jobs_completed
                  : &ServiceStats::jobs_cancelled);
    set_active_jobs_delta(-1);
    auto session_it = sessions.find(job.session_fd);
    if (session_it != sessions.end()) {
      if (finished) {
        send_job_done(session_it->second, job);
      } else {
        send_cancelled(session_it->second, job);
      }
    }
  }

  /// Persists the cancel decision the moment it is made (not when the
  /// teardown finishes): a server that dies with scenarios still in
  /// flight must reschedule nothing cancelled after restart.
  void persist_cancel_marker(const Job& job) {
    if (config.state_dir.empty()) {
      return;
    }
    analysis::JsonObject marker;
    marker.set("schema_version", analysis::kBenchJsonSchemaVersion);
    marker.set("record", "job_cancelled");
    marker.set("job_id", job.id);
    marker.set("completed", static_cast<std::uint64_t>(job.ledger.completed()));
    try {
      analysis::write_file_atomic(job_dir(job.id) + "/cancelled.json",
                                  marker.to_json_line() + "\n");
    } catch (const std::exception&) {
      // Best-effort durability: an unwritable marker degrades to the
      // pre-cancel behavior (the job resumes after a restart) instead
      // of failing the teardown.
    }
  }

  void handle_cancel(Session& session,
                     const std::map<std::string, std::string>& fields) {
    const auto tag_it = fields.find("job");
    if (tag_it == fields.end() || tag_it->second.empty()) {
      send_error(session, "missing_job", "cancel carries no 'job' tag");
      return;
    }
    const std::string& tag = tag_it->second;
    // A tag can name several content-distinct jobs over a session's life
    // (completed ones stay around for replay); cancel targets the live one.
    Job* target = nullptr;
    for (auto& [id, job] : jobs) {
      if (job.owner != session.client_name || job.tag != tag) {
        continue;
      }
      if (target == nullptr || (target->done() && !job.done())) {
        target = &job;
      }
    }
    if (target == nullptr) {
      send_error(session, "unknown_job",
                 "no job tagged '" + tag + "' for client '" +
                     session.client_name + "'",
                 tag);
      return;
    }
    Job& job = *target;
    if (job.done()) {
      send_error(session, "already_done",
                 "job '" + tag + "' already completed", tag);
      return;
    }
    job.session_fd = session.fd;
    if (job.cancelled) {
      // Idempotent: a repeated cancel re-announces the terminal state
      // once the teardown finished (otherwise the pending finalize will).
      if (job.inflight == 0) {
        send_cancelled(session, job);
      }
      return;
    }
    job.cancelled = true;
    persist_cancel_marker(job);
    // Queued units have no journal entry and never run.  Running units
    // lose their sandbox worker (a whole process group) and come back with
    // no rows -- no journal entry either, so the journal stays consistent.
    for (const scenario::DispatchUnit& unit : engine->withdraw(job.id)) {
      release(unit);
    }
    settle(job);
    dispatch();  // Withdrawn quota may unblock another client's work.
  }

  /// Runs a PR-5 chaos replay bundle -- expected_failure_reason plus
  /// flattened `spec.*` fields -- as a one-scenario job.  job_done gains
  /// `reproduced`, the same verdict `ddl_scenario_runner --replay` prints.
  void handle_submit_replay(Session& session,
                            const std::map<std::string, std::string>& fields) {
    const auto tag_it = fields.find("job");
    if (tag_it == fields.end() || tag_it->second.empty()) {
      send_error(session, "missing_job", "submit_replay carries no 'job' tag");
      return;
    }
    const std::string& tag = tag_it->second;
    const auto spec_fields = strip_prefix(fields, "spec.");
    if (spec_fields.empty()) {
      send_error(session, "invalid_replay",
                 "submit_replay carries no 'spec.*' bundle fields", tag);
      return;
    }
    scenario::SpecParse parsed = scenario::spec_from_json_checked(spec_fields);
    std::vector<std::string> errors = std::move(parsed.errors);
    if (errors.empty()) {
      for (std::string& message : scenario::validate(parsed.spec)) {
        errors.push_back(std::move(message));
      }
    }
    if (!errors.empty()) {
      send_error(session, "invalid_replay", join(errors), tag);
      return;
    }
    const auto expected_it = fields.find("expected_failure_reason");
    const std::string expected =
        expected_it == fields.end() ? "" : expected_it->second;

    std::vector<ScenarioSpec> specs;
    specs.push_back(std::move(parsed.spec));
    admit(session, tag, std::move(specs), /*is_replay=*/true, expected);
  }

  void drain_completions() {
    std::deque<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completion_mutex);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      handle_completion(std::move(done));
    }
  }

  // --- Submit path ------------------------------------------------------

  /// Extracts the sub-map under `prefix` (keys with the prefix stripped).
  static std::map<std::string, std::string> strip_prefix(
      const std::map<std::string, std::string>& fields,
      const std::string& prefix) {
    std::map<std::string, std::string> out;
    for (auto it = fields.lower_bound(prefix); it != fields.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) {
        break;
      }
      out.emplace(it->first.substr(prefix.size()), it->second);
    }
    return out;
  }

  /// Parses the spec list of a submit frame; empty return means an error
  /// frame was already sent.
  std::optional<std::vector<ScenarioSpec>> parse_submit_specs(
      Session& session, const std::map<std::string, std::string>& fields,
      const std::string& tag) {
    const auto suite_it = fields.find("suite");
    if (suite_it != fields.end()) {
      const auto filter_it = fields.find("filter");
      const std::string filter =
          filter_it == fields.end() ? "" : filter_it->second;
      const auto& registry = scenario::ScenarioRegistry::builtin();
      if (!registry.has_suite(suite_it->second)) {
        send_error(session, "unknown_suite",
                   "no suite named '" + suite_it->second + "'", tag);
        return std::nullopt;
      }
      auto specs = registry.expand_filtered(suite_it->second, filter);
      if (specs.empty()) {
        send_error(session, "empty_expansion",
                   "filter '" + filter + "' matches nothing in '" +
                       suite_it->second + "'",
                   tag);
        return std::nullopt;
      }
      return specs;
    }

    const auto count_it = fields.find("spec_count");
    std::uint64_t count = 0;
    if (count_it == fields.end() ||
        !scenario::parse_u64(count_it->second, count) || count == 0) {
      send_error(session, "invalid_submit",
                 "submit needs either 'suite' or a positive 'spec_count' "
                 "with flattened 'spec.<i>.*' fields",
                 tag);
      return std::nullopt;
    }
    if (count > kMaxSpecsPerSubmit) {
      send_error(session, "invalid_submit",
                 "spec_count " + std::to_string(count) + " exceeds the " +
                     std::to_string(kMaxSpecsPerSubmit) + " per-submit cap",
                 tag);
      return std::nullopt;
    }

    std::vector<ScenarioSpec> specs;
    std::vector<std::string> errors;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string prefix = "spec." + std::to_string(i) + ".";
      const auto sub = strip_prefix(fields, prefix);
      if (sub.empty()) {
        errors.push_back(prefix + "*: missing (spec_count says " +
                         std::to_string(count) + " specs)");
        continue;
      }
      scenario::SpecParse parsed = scenario::spec_from_json_checked(sub);
      for (const std::string& error : parsed.errors) {
        errors.push_back(prefix + error);
      }
      if (parsed.ok()) {
        for (std::string& message : scenario::validate(parsed.spec)) {
          errors.push_back(std::move(message));
        }
      }
      specs.push_back(std::move(parsed.spec));
    }
    if (!errors.empty()) {
      send_error(session, "invalid_spec", join(errors), tag);
      return std::nullopt;
    }
    std::map<std::string, std::size_t> names;
    for (const ScenarioSpec& spec : specs) {
      if (++names[spec.name] > 1) {
        send_error(session, "duplicate_names",
                   "scenario name '" + spec.name + "' appears twice", tag);
        return std::nullopt;
      }
    }
    return specs;
  }

  void handle_submit(Session& session,
                     const std::map<std::string, std::string>& fields,
                     bool chaos) {
    const auto tag_it = fields.find("job");
    if (tag_it == fields.end() || tag_it->second.empty()) {
      send_error(session, "missing_job", "submit carries no 'job' tag");
      return;
    }
    const std::string& tag = tag_it->second;

    std::vector<ScenarioSpec> specs;
    if (chaos) {
      const auto base_fields = strip_prefix(fields, "spec.");
      scenario::SpecParse parsed =
          scenario::spec_from_json_checked(base_fields);
      if (!parsed.ok()) {
        send_error(session, "invalid_spec", join(parsed.errors), tag);
        return;
      }
      scenario::ChaosCampaignSpec campaign;
      campaign.base = std::move(parsed.spec);
      std::uint64_t storms = 0;
      std::uint64_t max_faults = 0;
      const auto storms_it = fields.find("storms");
      if (storms_it != fields.end() &&
          scenario::parse_u64(storms_it->second, storms) && storms > 0) {
        campaign.storms = static_cast<std::size_t>(storms);
      }
      const auto seed_it = fields.find("chaos_seed");
      if (seed_it != fields.end()) {
        scenario::parse_u64(seed_it->second, campaign.seed);
      }
      const auto faults_it = fields.find("max_faults");
      if (faults_it != fields.end() &&
          scenario::parse_u64(faults_it->second, max_faults) &&
          max_faults > 0) {
        campaign.max_faults_per_storm = static_cast<std::size_t>(max_faults);
      }
      try {
        specs = scenario::expand_chaos(campaign);
      } catch (const std::exception& e) {
        send_error(session, "invalid_chaos", e.what(), tag);
        return;
      }
    } else {
      auto parsed = parse_submit_specs(session, fields, tag);
      if (!parsed) {
        return;
      }
      specs = std::move(*parsed);
    }

    admit(session, tag, std::move(specs));
  }

  /// The tail of every submit: attach to the job with this identity, or
  /// refuse, or answer quota backpressure, or create the job.
  void admit(Session& session, const std::string& tag,
             std::vector<ScenarioSpec> specs, bool is_replay = false,
             const std::string& expected_failure_reason = "") {
    const std::string id = job_id_of(
        session.client_name, tag, scenario::content_fingerprint_of(specs));
    auto existing = jobs.find(id);
    if (existing != jobs.end()) {
      // Idempotent resubmission (same client, tag and spec content):
      // attach and replay instead of counting against the job quota.
      attach_and_replay(session, existing->second);
      return;
    }
    std::error_code ec;
    if (!config.state_dir.empty() &&
        fs::exists(scenario::manifest_path(job_dir(id)), ec)) {
      // Recovery skipped this journaled directory (format 2, unreadable or
      // mismatched); it stays for inspection and the submit is refused,
      // final.  One without a manifest was never accepted: created over.
      send_error(session, "job_unrecoverable",
                 "job directory '" + job_dir(id) +
                     "' exists but could not be recovered; move it away "
                     "to run this job again",
                 tag);
      return;
    }

    ClientSlot& slot = slot_of(session.client_name);
    if (slot.jobs.size() >= config.max_pending_jobs_per_client) {
      // Explicit, retryable backpressure -- the quota contract is a frame,
      // never a disconnect.
      analysis::JsonObject frame = make_frame("backpressure");
      frame.set("job", tag);
      frame.set("reason", "job_quota");
      frame.set("active", static_cast<std::uint64_t>(slot.jobs.size()));
      frame.set("limit", static_cast<std::uint64_t>(
                             config.max_pending_jobs_per_client));
      frame.set("retry_ms", std::uint64_t{200});
      bump(&ServiceStats::backpressure_frames);  // Before the send: see
      send_frame(session, frame);                // send_error for why.
      return;
    }

    try {
      Job& job = create_job(tag, session.client_name, std::move(specs),
                            is_replay, expected_failure_reason);
      job.session_fd = session.fd;
      send_accepted(session, job, /*resumed=*/false);
    } catch (const std::exception& e) {
      send_error(session, "io_error", e.what(), tag);
      return;
    }
    dispatch();
  }

  // --- Frame dispatch ---------------------------------------------------

  void handle_frame(Session& session, const std::string& payload) {
    const auto fields = parse_frame_payload(payload);
    if (!fields) {
      send_error(session, "bad_frame",
                 "payload is not one flat JSON object");
      return;
    }
    const auto type_it = fields->find("frame");
    const std::string type =
        type_it == fields->end() ? "" : type_it->second;

    if (type == "hello") {
      std::uint64_t version = 0;
      const auto version_it = fields->find("protocol_version");
      if (version_it == fields->end() ||
          !scenario::parse_u64(version_it->second, version) ||
          version != static_cast<std::uint64_t>(kProtocolVersion)) {
        send_error(session, "protocol_mismatch",
                   "server speaks protocol_version " +
                       std::to_string(kProtocolVersion));
        session.closing = true;
        return;
      }
      const auto name_it = fields->find("client");
      session.client_name =
          (name_it == fields->end() || name_it->second.empty())
              ? ("anon-" + std::to_string(session.fd))
              : name_it->second;
      session.said_hello = true;
      analysis::JsonObject frame = make_frame("hello");
      frame.set("protocol_version", kProtocolVersion);
      frame.set("server", "ddl_scenario_server");
      frame.set("session", session.client_name);
      send_frame(session, frame);
      return;
    }
    if (type == "ping") {
      analysis::JsonObject frame = make_frame("pong");
      const auto nonce_it = fields->find("nonce");
      if (nonce_it != fields->end()) {
        frame.set("nonce", nonce_it->second);
      }
      send_frame(session, frame);
      return;
    }
    if (type == "bye") {
      session.closing = true;
      return;
    }
    if (!session.said_hello) {
      send_error(session, "hello_required",
                 "first frame must be 'hello' with protocol_version " +
                     std::to_string(kProtocolVersion));
      return;
    }
    if (type == "submit" || type == "submit_chaos") {
      handle_submit(session, *fields, type == "submit_chaos");
      return;
    }
    if (type == "submit_replay") {
      handle_submit_replay(session, *fields);
      return;
    }
    if (type == "cancel") {
      handle_cancel(session, *fields);
      return;
    }
    send_error(session, "unknown_frame", "unknown frame type '" + type + "'");
  }

  // --- Sessions ---------------------------------------------------------

  void accept_on(int listen_fd) {
    for (;;) {
      const int fd =
          net::retry_eintr([&] { return ::accept(listen_fd, nullptr, nullptr); });
      if (fd < 0) {
        return;  // EAGAIN (drained) or transient error; poll retries.
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      // Result frames are small and latency-sensitive; harmless ENOTSUP on
      // the unix-domain listener's connections.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Session session;
      session.fd = fd;
      session.last_rx = Clock::now();
      sessions.emplace(fd, std::move(session));
      bump(&ServiceStats::sessions_accepted);
    }
  }

  void close_session(int fd) {
    auto it = sessions.find(fd);
    if (it == sessions.end()) {
      return;
    }
    // Detach, never cancel: the job keeps executing (and journaling) as an
    // orphan, so a dropped client can reconnect and replay.
    for (auto& [id, job] : jobs) {
      if (job.session_fd == fd) {
        job.session_fd = -1;
      }
    }
    ::close(fd);
    sessions.erase(it);
    bump(&ServiceStats::sessions_closed);
  }

  /// Reads and handles one session's traffic within this pass's fairness
  /// budgets.  True when complete frames may still be buffered (the frame
  /// budget ran out) -- the caller polls again without sleeping.
  bool read_session(Session& session) {
    const std::size_t frame_budget = config.max_frames_per_tick == 0
                                         ? kDefaultMaxFramesPerTick
                                         : config.max_frames_per_tick;
    char chunk[4096];
    std::size_t read_bytes = 0;
    while (read_bytes < kMaxRxBytesPerTick) {
      const std::size_t want =
          std::min(sizeof(chunk), kMaxRxBytesPerTick - read_bytes);
      const ssize_t got = net::retry_eintr(
          [&] { return ::recv(session.fd, chunk, want, 0); });
      if (got > 0) {
        session.reader.feed(chunk, static_cast<std::size_t>(got));
        read_bytes += static_cast<std::size_t>(got);
        session.last_rx = Clock::now();
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      session.closing = true;  // EOF or hard error.
      break;
    }
    std::size_t handled = 0;
    while (handled < frame_budget) {
      auto payload = session.reader.next();
      if (!payload) {
        break;
      }
      handled++;
      handle_frame(session, *payload);
      if (session.closing) {
        break;
      }
    }
    if (session.reader.failed()) {
      send_error(session, "bad_frame", session.reader.error());
      session.closing = true;
    }
    // Slowloris tracking: bytes sitting buffered while no frame completes
    // opens (or continues) a stuck-mid-frame window; progress closes it.
    if (session.reader.frames_decoded() != session.frames_seen ||
        session.reader.buffered() == 0) {
      session.frames_seen = session.reader.frames_decoded();
      session.partial_pending = false;
    } else if (!session.partial_pending) {
      session.partial_pending = true;
      session.partial_since = Clock::now();
    }
    return !session.closing && handled == frame_budget &&
           session.reader.buffered() >= kFrameHeaderBytes;
  }

  /// Reaps sessions whose peer went silent (dead_peer_timeout_ms) or is
  /// trickling a partial frame (partial_frame_timeout_ms).  Jobs detach to
  /// orphans exactly as on any other close -- a timeout never loses work.
  void enforce_timeouts(Clock::time_point now) {
    for (auto& [fd, session] : sessions) {
      if (session.closing) {
        continue;
      }
      if (config.dead_peer_timeout_ms > 0 &&
          now - session.last_rx >
              std::chrono::milliseconds(config.dead_peer_timeout_ms)) {
        send_error(session, "dead_peer",
                   "no bytes received for " +
                       std::to_string(config.dead_peer_timeout_ms) + " ms");
        session.closing = true;
        bump(&ServiceStats::sessions_timed_out);
        continue;
      }
      if (config.partial_frame_timeout_ms > 0 && session.partial_pending &&
          now - session.partial_since >
              std::chrono::milliseconds(config.partial_frame_timeout_ms)) {
        send_error(session, "partial_frame_timeout",
                   "frame incomplete after " +
                       std::to_string(config.partial_frame_timeout_ms) +
                       " ms");
        session.closing = true;
        bump(&ServiceStats::sessions_timed_out);
      }
    }
  }

  void send_heartbeats() {
    for (auto& [fd, session] : sessions) {
      if (!session.said_hello || session.closing) {
        continue;
      }
      analysis::JsonObject frame = make_frame("heartbeat");
      frame.set("active_jobs", [&] {
        std::lock_guard<std::mutex> lock(jobs_done_mutex);
        return static_cast<std::uint64_t>(active_jobs);
      }());
      // Sandbox containment telemetry rides the heartbeat so a client can
      // watch crash/respawn counts without a dedicated stats request.
      const scenario::SandboxCounters& counters = engine->counters();
      const auto count = [](const std::atomic<std::size_t>& counter) {
        return static_cast<std::uint64_t>(counter.load());
      };
      frame.set("sandbox_crashes", count(counters.crashes));
      frame.set("workers_respawned", count(counters.respawns));
      frame.set("resource_kills", count(counters.resource_kills));
      frame.set("workers_lost", count(counters.workers_lost));
      send_frame(session, frame);
      bump(&ServiceStats::heartbeats);
    }
  }

  // --- Startup recovery -------------------------------------------------

  /// Reloads every job directory under state_dir: completed rows are
  /// byte-reused from the journal (scenarios_resumed), incomplete jobs
  /// resume executing as orphans.  A directory that cannot be reloaded is
  /// skipped (it stays on disk for inspection) rather than blocking start.
  void recover_jobs() {
    const fs::path root = fs::path(config.state_dir) / "jobs";
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      return;
    }
    std::vector<fs::path> dirs;
    for (const auto& entry : fs::directory_iterator(root, ec)) {
      if (entry.is_directory()) {
        dirs.push_back(entry.path());
      }
    }
    std::sort(dirs.begin(), dirs.end());  // Deterministic recovery order.
    for (const fs::path& dir : dirs) {
      try {
        recover_one(dir.string());
      } catch (const std::exception&) {
        // Unreadable, fingerprint-mismatched or format-2 directory: leave
        // it alone.
      }
    }
  }

  void recover_one(const std::string& dir) {
    const auto meta_fields = analysis::parse_flat_json_line(
        scenario::read_file(dir + "/job.json"));
    if (!meta_fields) {
      throw std::runtime_error("unreadable job.json");
    }
    const auto meta = [&](const char* key) {
      const auto it = meta_fields->find(key);
      return it == meta_fields->end() ? std::string() : it->second;
    };
    const std::string id = meta("job_id");
    const std::string tag = meta("tag");
    const std::string owner = meta("client");
    if (id.empty() || owner.empty() || jobs.count(id)) {
      throw std::runtime_error("bad or duplicate job identity");
    }

    std::vector<ScenarioSpec> specs;
    const std::string spec_doc = scenario::read_file(dir + "/specs.jsonl");
    std::size_t begin = 0;
    while (begin < spec_doc.size()) {
      std::size_t end = spec_doc.find('\n', begin);
      if (end == std::string::npos) {
        end = spec_doc.size();
      }
      const std::string line = spec_doc.substr(begin, end - begin);
      begin = end + 1;
      if (line.empty()) {
        continue;
      }
      const auto fields = analysis::parse_flat_json_line(line);
      if (!fields) {
        throw std::runtime_error("torn specs.jsonl");
      }
      scenario::SpecParse parsed = scenario::spec_from_json_checked(*fields);
      if (!parsed.ok()) {
        throw std::runtime_error("specs.jsonl: " + parsed.errors.front());
      }
      specs.push_back(std::move(parsed.spec));
    }
    if (specs.empty()) {
      throw std::runtime_error("empty spec list");
    }
    const std::string fingerprint = scenario::content_fingerprint_of(specs);
    if (id != job_id_of(owner, tag, fingerprint)) {
      throw std::runtime_error("job id does not match its content");
    }

    Job& job = jobs.try_emplace(id, std::move(specs), dir, /*resume=*/true)
                   .first->second;
    job.id = id;
    job.tag = tag;
    job.owner = owner;
    job.content_fingerprint = fingerprint;
    job.is_replay = meta("replay") == "true";
    job.expected_failure_reason = meta("expected_failure_reason");
    // A durable cancel marker outranks everything else in the directory:
    // the job loads (committed rows stay replayable) but never reschedules.
    std::error_code marker_ec;
    job.cancelled = fs::exists(dir + "/cancelled.json", marker_ec);
    if (!job.done() && !job.cancelled) {
      slot_of(owner).jobs.push_back(id);
      set_active_jobs_delta(+1);
    }
    bump(&ServiceStats::jobs_recovered);
    bump(&ServiceStats::scenarios_resumed, job.ledger.restored());
  }

  // --- Event thread -----------------------------------------------------

  void event_main() {
    dispatch();  // Recovered orphans start executing immediately.
    using Clock = std::chrono::steady_clock;
    const std::uint64_t heartbeat_ms =
        config.heartbeat_ms == 0 ? 1000 : config.heartbeat_ms;
    auto next_heartbeat =
        Clock::now() + std::chrono::milliseconds(heartbeat_ms);

    bool repoll_now = false;
    while (!stop_requested.load(std::memory_order_acquire)) {
      std::vector<pollfd> fds;
      fds.push_back(pollfd{wake_read_fd, POLLIN, 0});
      if (tcp_listen_fd >= 0) {
        fds.push_back(pollfd{tcp_listen_fd, POLLIN, 0});
      }
      if (unix_listen_fd >= 0) {
        fds.push_back(pollfd{unix_listen_fd, POLLIN, 0});
      }
      const std::size_t first_session = fds.size();
      for (auto& [fd, session] : sessions) {
        short events = POLLIN;
        if (session.outbox_offset < session.outbox.size()) {
          events |= POLLOUT;
        }
        fds.push_back(pollfd{fd, events, 0});
      }

      const auto now = Clock::now();
      long timeout_ms = static_cast<long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              next_heartbeat - now)
              .count());
      // Liveness timeouts fire between socket events, so the poll sleep
      // must stay shorter than their resolution.
      if ((config.dead_peer_timeout_ms > 0 ||
           config.partial_frame_timeout_ms > 0) &&
          !sessions.empty()) {
        timeout_ms = std::min(timeout_ms, long{50});
      }
      if (repoll_now || timeout_ms < 0) {
        timeout_ms = 0;  // Budget-deferred frames are still buffered.
      }
      const int ready =
          ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
      if (ready < 0 && errno != EINTR) {
        break;  // poll() itself failed; shut down rather than spin.
      }

      if (Clock::now() >= next_heartbeat) {
        send_heartbeats();
        next_heartbeat =
            Clock::now() + std::chrono::milliseconds(heartbeat_ms);
      }

      if (fds[0].revents & POLLIN) {
        char sink[64];
        while (net::retry_eintr([&] {
                 return ::read(wake_read_fd, sink, sizeof(sink));
               }) > 0) {
        }
      }
      drain_completions();

      for (std::size_t i = 1; i < first_session; ++i) {
        if (fds[i].revents & POLLIN) {
          accept_on(fds[i].fd);
        }
      }
      repoll_now = false;
      for (std::size_t i = first_session; i < fds.size(); ++i) {
        auto it = sessions.find(fds[i].fd);
        if (it == sessions.end()) {
          continue;
        }
        if (fds[i].revents & POLLOUT) {
          flush_outbox(it->second);
        }
        // Budget-deferred frames sit in the reader without new socket
        // bytes to raise POLLIN, so buffered sessions read too.
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) ||
            (!it->second.closing &&
             it->second.reader.buffered() >= kFrameHeaderBytes)) {
          repoll_now |= read_session(it->second);
        }
      }
      enforce_timeouts(Clock::now());
      // Reap sessions marked closing once their outbox drained (or the
      // peer is gone and the bytes cannot be delivered anyway).
      std::vector<int> doomed;
      for (auto& [fd, session] : sessions) {
        if (session.closing) {
          flush_outbox(session);
          doomed.push_back(fd);
        }
      }
      for (const int fd : doomed) {
        close_session(fd);
      }
      dispatch();
    }

    shutdown_gracefully();
    {
      std::lock_guard<std::mutex> lock(stopped_mutex);
      event_loop_exited = true;
    }
    stopped_cv.notify_all();
  }

  /// Graceful drain: the engine's stop -- unclaimed units return to
  /// pending (no journal entry, so a restart resumes them), in-flight
  /// units finish and are journaled -- then every session closes.
  void shutdown_gracefully() {
    for (const scenario::DispatchUnit& unit : engine->stop()) {
      release(unit);
    }
    drain_completions();

    std::vector<int> open_fds;
    for (auto& [fd, session] : sessions) {
      flush_outbox(session);
      open_fds.push_back(fd);
    }
    for (const int fd : open_fds) {
      close_session(fd);
    }
    if (tcp_listen_fd >= 0) {
      ::close(tcp_listen_fd);
      tcp_listen_fd = -1;
    }
    if (unix_listen_fd >= 0) {
      ::close(unix_listen_fd);
      unix_listen_fd = -1;
      if (!config.unix_path.empty()) {
        ::unlink(config.unix_path.c_str());
      }
    }
  }
};

ScenarioServer::ScenarioServer(ServiceConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

ScenarioServer::~ScenarioServer() { stop(); }

bool ScenarioServer::start(std::string* error) {
  Impl& impl = *impl_;
  auto fail = [&](const std::string& detail) {
    for (int* fd : {&impl.wake_read_fd, &impl.wake_write_fd,
                    &impl.tcp_listen_fd, &impl.unix_listen_fd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    if (error != nullptr) {
      *error = detail;
    }
    return false;
  };
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    if (impl.started) {
      return fail("server already started");
    }
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return fail("pipe() failed: " + std::string(std::strerror(errno)));
  }
  impl.wake_read_fd = pipe_fds[0];
  impl.wake_write_fd = pipe_fds[1];
  set_nonblocking(impl.wake_read_fd);
  set_nonblocking(impl.wake_write_fd);

  if (impl.config.enable_tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return fail("socket() failed: " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(impl.config.tcp_port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const std::string detail = std::strerror(errno);
      ::close(fd);
      return fail("tcp bind/listen failed: " + detail);
    }
    socklen_t length = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length);
    impl.bound_tcp_port = ntohs(addr.sin_port);
    set_nonblocking(fd);
    impl.tcp_listen_fd = fd;
  }

  if (!impl.config.unix_path.empty()) {
    sockaddr_un addr{};
    if (impl.config.unix_path.size() >= sizeof(addr.sun_path)) {
      return fail("unix socket path too long");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return fail("socket(AF_UNIX) failed: " +
                  std::string(std::strerror(errno)));
    }
    ::unlink(impl.config.unix_path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, impl.config.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const std::string detail = std::strerror(errno);
      ::close(fd);
      return fail("unix bind/listen failed: " + detail);
    }
    set_nonblocking(fd);
    impl.unix_listen_fd = fd;
  }

  if (!impl.config.state_dir.empty()) {
    std::error_code ec;
    fs::create_directories(fs::path(impl.config.state_dir) / "jobs", ec);
    if (ec) {
      return fail("cannot create state dir: " + ec.message());
    }
    impl.recover_jobs();
  }

  impl.engine = std::make_unique<scenario::UnitEngine>(
      impl.config.workers, impl.config.isolation,
      [&impl](scenario::DispatchUnit unit,
              std::vector<scenario::ExecutedScenario> rows) {
        {
          std::lock_guard<std::mutex> lock(impl.completion_mutex);
          impl.completions.push_back({std::move(unit), std::move(rows)});
        }
        impl.wake();
      });
  impl.event_thread = std::thread([this] { impl_->event_main(); });
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    impl.started = true;
  }
  return true;
}

void ScenarioServer::stop() {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.lifecycle_mutex);
    if (!impl.started || impl.stopped_joined) {
      return;
    }
    impl.stopped_joined = true;
  }
  request_stop();
  if (impl.event_thread.joinable()) {
    impl.event_thread.join();
  }
  if (impl.wake_read_fd >= 0) {
    ::close(impl.wake_read_fd);
    impl.wake_read_fd = -1;
  }
  if (impl.wake_write_fd >= 0) {
    ::close(impl.wake_write_fd);
    impl.wake_write_fd = -1;
  }
}

void ScenarioServer::request_stop() {
  Impl& impl = *impl_;
  impl.stop_requested.store(true, std::memory_order_release);
  if (impl.wake_write_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t wrote =
        ::write(impl.wake_write_fd, &byte, 1);
  }
}

void ScenarioServer::wait_stopped() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.stopped_mutex);
  impl.stopped_cv.wait(lock, [&impl] { return impl.event_loop_exited; });
}

int ScenarioServer::tcp_port() const noexcept { return impl_->bound_tcp_port; }

ServiceStats ScenarioServer::stats() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.stats_mutex);
  ServiceStats snapshot = impl.stats_data;
  if (impl.engine) {
    const scenario::SandboxCounters& counters = impl.engine->counters();
    snapshot.sandbox_crashes = counters.crashes.load();
    snapshot.workers_respawned = counters.respawns.load();
    snapshot.resource_kills = counters.resource_kills.load();
    snapshot.workers_lost = counters.workers_lost.load();
  }
  return snapshot;
}

std::vector<std::string> ScenarioServer::dispatch_log() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.stats_mutex);
  return impl.dispatch_log_data;
}

bool ScenarioServer::wait_all_jobs_done(std::uint64_t timeout_ms) {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.jobs_done_mutex);
  return impl.jobs_done_cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&impl] { return impl.active_jobs == 0; });
}

}  // namespace ddl::service
