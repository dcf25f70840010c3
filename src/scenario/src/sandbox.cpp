#include "ddl/scenario/sandbox.h"

#include <fcntl.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/spec.h"
#include "ddl/scenario/workspace.h"
#include "ddl/service/protocol.h"

namespace ddl::scenario {
namespace {

using Clock = std::chrono::steady_clock;

const std::string& field_of(const std::map<std::string, std::string>& fields,
                            const std::string& key) {
  static const std::string empty;
  const auto it = fields.find(key);
  return it == fields.end() ? empty : it->second;
}

std::size_t index_of(const std::map<std::string, std::string>& fields,
                     const std::string& key) {
  return static_cast<std::size_t>(
      std::strtoull(field_of(fields, key).c_str(), nullptr, 10));
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

/// Deterministic signal naming for error_detail (strsignal() is
/// locale/libc-dependent; rows must not be).
const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGTRAP: return "SIGTRAP";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    default: return nullptr;
  }
}

std::string describe_signal(int sig) {
  const char* name = signal_name(sig);
  return name != nullptr ? std::string(name)
                         : "signal " + std::to_string(sig);
}

std::string describe_status(int status) {
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return describe_signal(WTERMSIG(status));
  }
  return "unknown wait status";
}

/// Signals classified as a *crash* of the scenario itself (deterministic:
/// the same spec faults the same way on every host).  Everything else that
/// kills a worker is either a resource kill (SIGXCPU, the OOM exit code)
/// or an unattributable loss.
bool crash_signal(int sig) {
  return sig == SIGSEGV || sig == SIGABRT || sig == SIGBUS ||
         sig == SIGFPE || sig == SIGILL || sig == SIGTRAP;
}

// ---------------------------------------------------------------------------
// Worker (child) side.
// ---------------------------------------------------------------------------

/// The child's OOM exit code: std::set_new_handler fires on allocation
/// failure under RLIMIT_AS and the worker dies with this status, which the
/// supervisor classifies kResourceLimit -- distinct from a caught
/// bad_alloc (a structured kException row) and from a protocol error.
constexpr int kExitOom = 97;
/// The child's protocol-failure exit code (garbage frames, broken pipe).
constexpr int kExitProtocol = 98;

SandboxLimits g_child_limits;

void close_all_from(unsigned first) {
#ifdef SYS_close_range
  if (::syscall(SYS_close_range, first, ~0U, 0) == 0) {
    return;
  }
#endif
  const long open_max = ::sysconf(_SC_OPEN_MAX);
  const long cap = open_max > 0 ? open_max : 1024;
  for (long fd = first; fd < cap; ++fd) {
    ::close(static_cast<int>(fd));
  }
}

void emit_frame(int fd, const analysis::JsonObject& frame) {
  const std::string encoded = service::encode_frame(frame);
  if (!write_all(fd, encoded.data(), encoded.size())) {
    ::_exit(kExitProtocol);
  }
}

void emit_entry(int fd, std::size_t entry, const ScenarioResult& result) {
  for (const core::HealthEvent& event : result.health) {
    analysis::JsonObject frame = service::make_frame("health");
    frame.set("entry", static_cast<std::uint64_t>(entry));
    frame.set("row", health_to_json(result, event).to_json_line());
    emit_frame(fd, frame);
  }
  analysis::JsonObject frame = service::make_frame("row");
  frame.set("entry", static_cast<std::uint64_t>(entry));
  frame.set("row", to_json_line(result));
  emit_frame(fd, frame);
}

/// --inject-crash execution, inside the worker where the blast radius is
/// one process.  The fatal-signal kinds reset the disposition first so the
/// worker dies by the *real* signal even under a sanitizer runtime that
/// intercepts it.
[[noreturn]] void inject_crash(const std::string& kind) {
  if (kind == "segv") {
    std::signal(SIGSEGV, SIG_DFL);
    ::raise(SIGSEGV);
  } else if (kind == "abort") {
    std::signal(SIGABRT, SIG_DFL);
    std::abort();
  } else if (kind == "oom") {
    if (g_child_limits.mem_limit_mb == 0) {
      // No configured cap: self-impose one so the injection cannot eat the
      // host's memory before the new-handler fires.
      ::rlimit cap{};
      cap.rlim_cur = cap.rlim_max = std::uint64_t{512} << 20;
      ::setrlimit(RLIMIT_AS, &cap);
    }
    constexpr std::size_t kChunk = std::size_t{16} << 20;
    std::vector<char*> hog;
    for (;;) {
      char* chunk = new char[kChunk];  // exhaustion -> new_handler -> _exit(97)
      for (std::size_t off = 0; off < kChunk; off += 4096) {
        chunk[off] = 1;
      }
      hog.push_back(chunk);
    }
  } else {  // "spin": burn CPU until RLIMIT_CPU (SIGXCPU) or the watchdog.
    volatile std::uint64_t spin = 0;
    for (;;) {
      spin = spin + 1;
    }
  }
  ::_exit(kExitProtocol);  // Unreachable.
}

ScenarioResult child_run_single(const ScenarioSpec& spec, int attempt,
                                ScenarioWorkspace& workspace) {
  if (spec.debug_hang_ms > 0 && attempt < spec.debug_hang_attempts) {
    // Non-cooperative on purpose: the supervisor's deadline kill is the
    // recovery path under test.
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.debug_hang_ms));
  }
  if (!spec.debug_crash.empty()) {
    inject_crash(spec.debug_crash);
  }
  ScenarioResult result = run_scenario_guarded(spec, workspace).result;
  // Stamp the supervisor's attempt number so a retried-then-succeeded row
  // records how many attempts it took.
  result.attempts = attempt + 1;
  return result;
}

void child_run_unit(const std::vector<ScenarioSpec>& specs,
                    const std::vector<int>& attempts,
                    ScenarioWorkspace& workspace, int resp_fd) {
  const std::size_t count = specs.size();
  if (count == 1) {
    emit_entry(resp_fd, 0, child_run_single(specs[0], attempts[0], workspace));
  } else {
    // A batch-coalesced group: same execution shape as the service's
    // in-process unit runner -- one batched dispatch per planner group,
    // guarded scalar runs for the remainder.  threads=1 keeps the forked
    // child single-threaded (the analysis pool runs inline at 1).
    std::vector<ScenarioResult> results(count);
    const BatchPlan plan = plan_batches(specs, workspace);
    for (const BatchGroup& group : plan.groups) {
      run_batch_group(specs, group, workspace, /*threads=*/1, results);
    }
    for (const std::size_t index : plan.scalar) {
      results[index] = child_run_single(specs[index], attempts[index],
                                        workspace);
    }
    for (std::size_t i = 0; i < count; ++i) {
      emit_entry(resp_fd, i, results[i]);
    }
  }
  analysis::JsonObject done = service::make_frame("unit_done");
  done.set("entries", static_cast<std::uint64_t>(count));
  emit_frame(resp_fd, done);
}

[[noreturn]] void sandbox_child_main(int req_raw, int resp_raw,
                                     SandboxLimits limits) {
  // Own process group: the supervisor's deadline/cancel kill is
  // kill(-pid), sweeping anything the scenario itself spawned.
  ::setpgid(0, 0);

  // fd hygiene: park our two pipe ends on fixed fds 3/4, then close every
  // other inherited descriptor -- in particular *sibling* sandboxes' pipe
  // ends, which would otherwise keep their streams from ever reading EOF.
  const int req_parked = ::fcntl(req_raw, F_DUPFD, 64);
  const int resp_parked = ::fcntl(resp_raw, F_DUPFD, 64);
  if (req_parked < 0 || resp_parked < 0 || ::dup2(req_parked, 3) < 0 ||
      ::dup2(resp_parked, 4) < 0) {
    ::_exit(kExitProtocol);
  }
  const int req_fd = 3;
  const int resp_fd = 4;
  close_all_from(5);

  std::signal(SIGPIPE, SIG_IGN);
#ifdef __GLIBC__
  // A worker runs unit after unit, each allocating and freeing buffers of
  // tens to hundreds of KiB (a scalar run's loop history, the delay-line
  // systems of a lane stream's live members).  glibc
  // raises its mmap threshold past the first freed block, after which such
  // buffers come from the brk heap and fragment it, so the worker's peak
  // RSS creeps above its largest unit's live set.  A fixed threshold keeps
  // every buffer from 64 KiB up in its own mapping, returned on free.
  ::mallopt(M_MMAP_THRESHOLD, 64 * 1024);
#endif
  std::set_new_handler([] { ::_exit(kExitOom); });
  g_child_limits = limits;
  if (limits.mem_limit_mb > 0) {
    ::rlimit cap{};
    cap.rlim_cur = cap.rlim_max = limits.mem_limit_mb << 20;
    ::setrlimit(RLIMIT_AS, &cap);
  }
  if (limits.cpu_limit_s > 0) {
    // Soft limit delivers SIGXCPU (the classifiable death); the hard limit
    // sits one second above it because a soft==hard cap can SIGKILL the
    // worker before SIGXCPU is ever observable, which would classify as
    // kWorkerLost instead of kResourceLimit.
    ::rlimit cap{};
    cap.rlim_cur = limits.cpu_limit_s;
    cap.rlim_max = limits.cpu_limit_s + 1;
    ::setrlimit(RLIMIT_CPU, &cap);
  }

  ScenarioWorkspace workspace;  // Sizing cache persists across units.
  service::FrameReader reader;
  std::vector<ScenarioSpec> specs;
  std::vector<int> attempts;
  char buffer[65536];
  for (;;) {
    while (auto payload = reader.next()) {
      const auto fields = service::parse_frame_payload(*payload);
      if (!fields) {
        ::_exit(kExitProtocol);
      }
      const std::string& type = field_of(*fields, "frame");
      if (type == "spec") {
        if (index_of(*fields, "entry") != specs.size()) {
          ::_exit(kExitProtocol);
        }
        SpecParse parsed = spec_from_json_checked(*fields,
                                                  /*allow_unknown=*/true);
        if (!parsed.ok()) {
          ::_exit(kExitProtocol);
        }
        specs.push_back(std::move(parsed.spec));
        attempts.push_back(
            static_cast<int>(index_of(*fields, "attempt")));
      } else if (type == "go") {
        if (specs.empty() || index_of(*fields, "entries") != specs.size()) {
          ::_exit(kExitProtocol);
        }
        child_run_unit(specs, attempts, workspace, resp_fd);
        specs.clear();
        attempts.clear();
      } else {
        ::_exit(kExitProtocol);
      }
    }
    if (reader.failed()) {
      ::_exit(kExitProtocol);
    }
    const ssize_t n = ::read(req_fd, buffer, sizeof buffer);
    if (n == 0) {
      ::_exit(0);  // Clean shutdown: the supervisor closed its write end.
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::_exit(kExitProtocol);
    }
    reader.feed(buffer, static_cast<std::size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Supervisor (parent) side.
// ---------------------------------------------------------------------------

struct Sandbox {
  pid_t pid = -1;
  int req_fd = -1;   ///< Supervisor's write end (spec/go frames).
  int resp_fd = -1;  ///< Supervisor's read end (health/row/unit_done).
  service::FrameReader reader;

  bool alive() const noexcept { return pid > 0; }
};

enum class UnitWait { kDone, kDead, kDeadline };

struct UnitCollect {
  std::vector<std::string> rows;
  std::vector<std::vector<std::string>> health;
};

}  // namespace

struct ScenarioExecutor::Impl {
  IsolationConfig config;
  SandboxCounters* counters = nullptr;

  Sandbox box;
  /// Guards box.pid against interrupt() from another thread.
  std::mutex pid_mutex;
  std::atomic<bool> interrupted{false};
  /// Set when a worker died; the next spawn counts as a respawn.
  bool worker_died = false;

  std::uint64_t timeout_of(const ScenarioSpec& spec) const {
    return config.timeout_ms > 0 ? config.timeout_ms : auto_timeout_ms(spec);
  }
};

namespace {

void note_counters(SandboxCounters* counters, const ScenarioResult& result) {
  if (counters == nullptr) {
    return;
  }
  switch (result.error) {
    case ScenarioError::kCrash:
      counters->crashes.fetch_add(1, std::memory_order_relaxed);
      break;
    case ScenarioError::kResourceLimit:
      counters->resource_kills.fetch_add(1, std::memory_order_relaxed);
      break;
    case ScenarioError::kWorkerLost:
      counters->workers_lost.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

ExecutedScenario render_result(ScenarioResult result,
                               SandboxCounters* counters) {
  ExecutedScenario entry;
  entry.line = to_json_line(result);
  entry.health_lines.reserve(result.health.size());
  for (const core::HealthEvent& event : result.health) {
    entry.health_lines.push_back(
        health_to_json(result, event).to_json_line());
  }
  entry.result = std::move(result);
  note_counters(counters, entry.result);
  return entry;
}

ExecutedScenario from_child_row(std::string row,
                                std::vector<std::string> health,
                                SandboxCounters* counters) {
  ExecutedScenario entry;
  const auto fields = analysis::parse_flat_json_line(row);
  entry.result = fields ? reconstruct_result(*fields) : ScenarioResult{};
  entry.line = std::move(row);
  entry.health_lines = std::move(health);
  note_counters(counters, entry.result);
  return entry;
}

bool spawn_worker(ScenarioExecutor::Impl& impl) {
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { std::signal(SIGPIPE, SIG_IGN); });

  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  if (::pipe(req) != 0) {
    return false;
  }
  if (::pipe(resp) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(req[0]);
    ::close(req[1]);
    ::close(resp[0]);
    ::close(resp[1]);
    return false;
  }
  if (pid == 0) {
    sandbox_child_main(req[0], resp[1], impl.config.limits);
  }
  // Best-effort from this side too, closing the window where an immediate
  // kill(-pid) would miss a child that has not reached its own setpgid yet.
  ::setpgid(pid, pid);
  ::close(req[0]);
  ::close(resp[1]);
  {
    const std::lock_guard<std::mutex> lock(impl.pid_mutex);
    impl.box.pid = pid;
    // An interrupt() that landed during the fork saw no pid to kill; its
    // flag store precedes this lock, so the kill happens here instead and
    // the unit's wait sees a dead worker it then withdraws.
    if (impl.interrupted.load(std::memory_order_relaxed)) {
      ::kill(-pid, SIGKILL);
      ::kill(pid, SIGKILL);
    }
  }
  impl.box.req_fd = req[1];
  impl.box.resp_fd = resp[0];
  impl.box.reader = service::FrameReader{};
  if (impl.worker_died) {
    impl.worker_died = false;
    if (impl.counters != nullptr) {
      impl.counters->respawns.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

void kill_worker(ScenarioExecutor::Impl& impl) {
  const std::lock_guard<std::mutex> lock(impl.pid_mutex);
  if (impl.box.pid > 0) {
    ::kill(-impl.box.pid, SIGKILL);
    ::kill(impl.box.pid, SIGKILL);
  }
}

/// Reaps the (dead or dying) worker and returns its wait status.
int reap_worker(ScenarioExecutor::Impl& impl) {
  pid_t pid = -1;
  {
    const std::lock_guard<std::mutex> lock(impl.pid_mutex);
    pid = impl.box.pid;
    impl.box.pid = -1;
  }
  if (impl.box.req_fd >= 0) {
    ::close(impl.box.req_fd);
    impl.box.req_fd = -1;
  }
  if (impl.box.resp_fd >= 0) {
    ::close(impl.box.resp_fd);
    impl.box.resp_fd = -1;
  }
  int status = 0;
  if (pid > 0) {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    impl.worker_died = true;
  }
  return status;
}

/// Graceful worker shutdown (destructor path): EOF the request pipe, give
/// the worker a short window to _exit(0), then hard-kill.
void shutdown_worker(ScenarioExecutor::Impl& impl) {
  pid_t pid = -1;
  {
    const std::lock_guard<std::mutex> lock(impl.pid_mutex);
    pid = impl.box.pid;
    impl.box.pid = -1;
  }
  if (impl.box.req_fd >= 0) {
    ::close(impl.box.req_fd);
    impl.box.req_fd = -1;
  }
  if (pid > 0) {
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 200; ++i) {
      const pid_t done = ::waitpid(pid, &status, WNOHANG);
      if (done == pid || (done < 0 && errno != EINTR)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(-pid, SIGKILL);
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  if (impl.box.resp_fd >= 0) {
    ::close(impl.box.resp_fd);
    impl.box.resp_fd = -1;
  }
}

bool send_unit(ScenarioExecutor::Impl& impl,
               const std::vector<ScenarioSpec>& specs,
               const std::vector<int>& attempts) {
  std::string wire;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    analysis::JsonObject frame = service::make_frame("spec");
    frame.set("entry", static_cast<std::uint64_t>(i));
    frame.set("attempt", static_cast<std::uint64_t>(
                             std::max(0, attempts[i])));
    spec_to_json_into(frame, specs[i]);
    wire += service::encode_frame(frame);
  }
  analysis::JsonObject go = service::make_frame("go");
  go.set("entries", static_cast<std::uint64_t>(specs.size()));
  wire += service::encode_frame(go);
  return write_all(impl.box.req_fd, wire.data(), wire.size());
}

/// Spawn-if-needed + send, with one respawn-and-resend retry: a worker
/// that died quietly *between* units (its death is only discovered at the
/// next write) must not consume one of the scenario's attempts.
bool dispatch_unit(ScenarioExecutor::Impl& impl,
                   const std::vector<ScenarioSpec>& specs,
                   const std::vector<int>& attempts) {
  for (int tries = 0; tries < 2; ++tries) {
    if (!impl.box.alive() && !spawn_worker(impl)) {
      return false;
    }
    if (send_unit(impl, specs, attempts)) {
      return true;
    }
    reap_worker(impl);
  }
  return false;
}

UnitWait wait_unit(ScenarioExecutor::Impl& impl, std::size_t entries,
                   Clock::time_point deadline, UnitCollect& out) {
  out.rows.assign(entries, std::string());
  out.health.assign(entries, {});
  char buffer[65536];
  for (;;) {
    while (auto payload = impl.box.reader.next()) {
      const auto fields = service::parse_frame_payload(*payload);
      if (!fields) {
        kill_worker(impl);
        return UnitWait::kDead;
      }
      const std::string& type = field_of(*fields, "frame");
      if (type == "unit_done") {
        return UnitWait::kDone;
      }
      const std::size_t entry = index_of(*fields, "entry");
      if (entry >= entries) {
        kill_worker(impl);
        return UnitWait::kDead;
      }
      if (type == "health") {
        out.health[entry].push_back(field_of(*fields, "row"));
      } else if (type == "row") {
        out.rows[entry] = field_of(*fields, "row");
      }
      // Unknown frame types are skipped (forward compatibility).
    }
    if (impl.box.reader.failed()) {
      kill_worker(impl);
      return UnitWait::kDead;
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      return UnitWait::kDeadline;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    struct pollfd pfd {};
    pfd.fd = impl.box.resp_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<long long>(remaining, 60'000)));
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      kill_worker(impl);
      return UnitWait::kDead;
    }
    if (ready == 0) {
      continue;  // Re-check the deadline.
    }
    const ssize_t n = ::read(impl.box.resp_fd, buffer, sizeof buffer);
    if (n > 0) {
      impl.box.reader.feed(buffer, static_cast<std::size_t>(n));
    } else if (n == 0) {
      return UnitWait::kDead;
    } else if (errno != EINTR) {
      return UnitWait::kDead;
    }
  }
}

std::string spec_fingerprint(const ScenarioSpec& spec) {
  return content_fingerprint_of(std::vector<ScenarioSpec>{spec});
}

ExecutedScenario crash_row(ScenarioExecutor::Impl& impl,
                           const ScenarioSpec& spec, int attempt, int sig) {
  // Deterministic by construction: the signal and the spec's content
  // fingerprint -- never a pid or address -- so the row is a pure function
  // of (spec, config) and replays byte-identically from the journal.
  ScenarioResult result = make_error_result(
      spec, ScenarioError::kCrash,
      "sandbox worker killed by " + describe_signal(sig) + " (spec " +
          spec_fingerprint(spec) + ")");
  result.attempts = attempt + 1;
  return render_result(std::move(result), impl.counters);
}

ExecutedScenario limit_row(ScenarioExecutor::Impl& impl,
                           const ScenarioSpec& spec, int attempt, bool cpu) {
  std::string detail;
  if (cpu) {
    detail = "sandbox worker exceeded RLIMIT_CPU";
    if (impl.config.limits.cpu_limit_s > 0) {
      detail += " (" + std::to_string(impl.config.limits.cpu_limit_s) + " s)";
    }
    detail += ": SIGXCPU";
  } else {
    detail = "sandbox worker exceeded RLIMIT_AS";
    if (impl.config.limits.mem_limit_mb > 0) {
      detail +=
          " (" + std::to_string(impl.config.limits.mem_limit_mb) + " MiB)";
    }
    detail += ": allocation failed";
  }
  ScenarioResult result =
      make_error_result(spec, ScenarioError::kResourceLimit, detail);
  result.attempts = attempt + 1;
  return render_result(std::move(result), impl.counters);
}

ExecutedScenario run_one_process(ScenarioExecutor::Impl& impl,
                                 const ScenarioSpec& spec, bool& withdrawn) {
  const std::uint64_t timeout_ms = impl.timeout_of(spec);
  const int attempts_allowed = 1 + std::max(0, impl.config.max_retries);
  bool last_was_timeout = true;
  std::string last_lost_detail;
  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      const unsigned shift = std::min(attempt - 1, 10);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(impl.config.backoff_base_ms << shift));
    }
    if (impl.interrupted.load(std::memory_order_relaxed)) {
      withdrawn = true;
      return {};
    }
    if (!dispatch_unit(impl, {spec}, {attempt})) {
      last_was_timeout = false;
      last_lost_detail = "sandbox worker could not be spawned";
      continue;
    }
    UnitCollect collect;
    const UnitWait wait =
        wait_unit(impl, 1, Clock::now() + std::chrono::milliseconds(timeout_ms),
                  collect);
    if (wait == UnitWait::kDone) {
      if (collect.rows[0].empty()) {
        kill_worker(impl);
        reap_worker(impl);
        last_was_timeout = false;
        last_lost_detail = "sandbox worker completed without a result row";
        continue;
      }
      return from_child_row(std::move(collect.rows[0]),
                            std::move(collect.health[0]), impl.counters);
    }
    if (wait == UnitWait::kDeadline) {
      kill_worker(impl);
      reap_worker(impl);
      if (impl.interrupted.load(std::memory_order_relaxed)) {
        withdrawn = true;
        return {};
      }
      last_was_timeout = true;
      continue;
    }
    // Worker died mid-attempt: classify its exit status.
    const int status = reap_worker(impl);
    if (impl.interrupted.load(std::memory_order_relaxed)) {
      withdrawn = true;
      return {};
    }
    if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      if (sig == SIGXCPU) {
        return limit_row(impl, spec, attempt, /*cpu=*/true);
      }
      if (crash_signal(sig)) {
        return crash_row(impl, spec, attempt, sig);
      }
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == kExitOom) {
      return limit_row(impl, spec, attempt, /*cpu=*/false);
    }
    // SIGKILL we did not send (the kernel OOM killer), a stray exit, an
    // unknown signal: transient, retried like a timeout.
    last_was_timeout = false;
    last_lost_detail = "sandbox worker lost (" + describe_status(status) + ")";
  }
  ScenarioResult result =
      last_was_timeout
          ? make_error_result(
                spec, ScenarioError::kTimeout,
                "watchdog: no completion within " +
                    std::to_string(timeout_ms) + " ms after " +
                    std::to_string(attempts_allowed) + " attempt(s)")
          : make_error_result(
                spec, ScenarioError::kWorkerLost,
                last_lost_detail + " after " +
                    std::to_string(attempts_allowed) + " attempt(s)");
  result.attempts = attempts_allowed;
  return render_result(std::move(result), impl.counters);
}

std::vector<ExecutedScenario> run_group_process(
    ScenarioExecutor::Impl& impl, const std::vector<ScenarioSpec>& specs,
    bool& withdrawn) {
  std::uint64_t group_timeout_ms = 0;
  for (const ScenarioSpec& spec : specs) {
    group_timeout_ms += impl.timeout_of(spec);
  }
  const std::vector<int> attempts(specs.size(), 0);
  bool group_ok = false;
  UnitCollect collect;
  if (dispatch_unit(impl, specs, attempts)) {
    const UnitWait wait = wait_unit(
        impl, specs.size(),
        Clock::now() + std::chrono::milliseconds(group_timeout_ms), collect);
    if (wait == UnitWait::kDone) {
      group_ok = true;
      for (const std::string& row : collect.rows) {
        if (row.empty()) {
          group_ok = false;
        }
      }
      if (!group_ok) {
        kill_worker(impl);
      }
    } else if (wait == UnitWait::kDeadline) {
      kill_worker(impl);
    }
    if (!group_ok) {
      reap_worker(impl);
    }
  }
  if (impl.interrupted.load(std::memory_order_relaxed)) {
    withdrawn = true;
    return {};
  }
  std::vector<ExecutedScenario> out;
  out.reserve(specs.size());
  if (group_ok) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out.push_back(from_child_row(std::move(collect.rows[i]),
                                   std::move(collect.health[i]),
                                   impl.counters));
    }
    return out;
  }
  // Group worker died (or timed out): the partial rows are discarded and
  // every member degrades to the per-scenario guarded path with the full
  // retry policy -- byte-identical rows by the batch-equivalence contract.
  for (const ScenarioSpec& spec : specs) {
    bool entry_withdrawn = false;
    out.push_back(run_one_process(impl, spec, entry_withdrawn));
    if (entry_withdrawn) {
      withdrawn = true;
      return {};
    }
  }
  return out;
}

}  // namespace

std::uint64_t auto_timeout_ms(const ScenarioSpec& spec) {
  return 10'000 + 20 * spec.periods;
}

ScenarioExecutor::ScenarioExecutor(IsolationConfig config,
                                   SandboxCounters* counters)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  impl_->counters = counters;
}

ScenarioExecutor::~ScenarioExecutor() {
  shutdown_worker(*impl_);
}

std::vector<ExecutedScenario> ScenarioExecutor::run_unit(
    const std::vector<ScenarioSpec>& specs) {
  if (specs.empty() || impl_->interrupted.load(std::memory_order_relaxed)) {
    return {};
  }
  bool withdrawn = false;
  if (specs.size() == 1) {
    ExecutedScenario entry = run_one_process(*impl_, specs[0], withdrawn);
    if (withdrawn) {
      return {};
    }
    std::vector<ExecutedScenario> out;
    out.push_back(std::move(entry));
    return out;
  }
  std::vector<ExecutedScenario> out =
      run_group_process(*impl_, specs, withdrawn);
  if (withdrawn) {
    return {};
  }
  return out;
}

void ScenarioExecutor::interrupt() {
  impl_->interrupted.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(impl_->pid_mutex);
  if (impl_->box.pid > 0) {
    ::kill(-impl_->box.pid, SIGKILL);
    ::kill(impl_->box.pid, SIGKILL);
  }
}

bool ScenarioExecutor::interrupted() const noexcept {
  return impl_->interrupted.load(std::memory_order_relaxed);
}

void ScenarioExecutor::clear_interrupt() noexcept {
  impl_->interrupted.store(false, std::memory_order_relaxed);
}

}  // namespace ddl::scenario
