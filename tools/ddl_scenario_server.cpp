// ddl_scenario_server: the campaign service daemon.  Binds a loopback TCP
// port (and optionally a Unix-domain socket), accepts framed scenario /
// chaos submissions from ddl_scenario_client, runs them on the
// watchdog-isolated worker pool and streams results back -- journaling
// every completed scenario under --state-dir so a killed server resumes
// exactly where it stopped (see DESIGN.md "Campaign service").
//
//   ddl_scenario_server --port 0 --state-dir runs/service --workers 4
//   ddl_scenario_server --unix /tmp/ddl.sock --state-dir runs/service
//
// Prints one `listening ...` line to stdout once ready (scripts parse the
// ephemeral port from it).  SIGTERM / SIGINT trigger the graceful
// shutdown: in-flight scenarios finish and journal, sessions close; queued
// work stays pending for the next start.
// Exit status: 0 on clean shutdown, 64 usage error, 71 startup failure.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "ddl/scenario/cli.h"
#include "ddl/service/server.h"

namespace {

using namespace ddl;

struct ServerOptions {
  service::ServiceConfig config;
  bool help = false;
  std::string error;
  bool ok() const { return error.empty(); }
};

std::string usage() {
  return
      "usage: ddl_scenario_server [options]\n"
      "  --port N           loopback TCP port (default 0 = ephemeral)\n"
      "  --no-tcp           disable the TCP listener\n"
      "  --unix PATH        also listen on a Unix-domain socket\n"
      "  --state-dir DIR    journal every job under DIR (resume on restart)\n"
      "  --workers N        scenario worker threads (default 2)\n"
      "  --max-inflight N   per-client in-flight scenario quota (default 4)\n"
      "  --max-jobs N       per-client pending-job quota (default 4)\n"
      "  --heartbeat-ms N   idle heartbeat interval (default 1000)\n"
      "  --dead-peer-timeout-ms N\n"
      "                     close a session silent for N ms (default 30000,\n"
      "                     0 disables).  Must exceed the client's\n"
      "                     --heartbeat-ms ping cadence by a healthy margin\n"
      "  --partial-frame-timeout-ms N\n"
      "                     close a session stuck mid-frame for N ms -- the\n"
      "                     slowloris defense (default 10000, 0 disables)\n"
      "  --max-outbox-mb N  per-session outbox cap before disconnect\n"
      "                     (default 32; the job continues as an orphan)\n"
      "  --timeout-ms N     watchdog deadline per attempt (0 = per-spec)\n"
      "  --retries N        extra attempts for timed-out scenarios\n"
      "  --mem-limit-mb N   RLIMIT_AS cap per sandbox worker, in MiB\n"
      "                     (0 = unlimited)\n"
      "  --cpu-limit-s N    RLIMIT_CPU cap per sandbox worker, in seconds\n"
      "                     (0 = unlimited)\n"
      "  --help             this text\n";
}

ServerOptions parse_args(const std::vector<std::string>& args) {
  ServerOptions options;
  // The daemon defaults differ from the library's (which keep timeouts
  // off so embedded/test servers never reap a slow debugger session):
  // a long-running daemon wants dead-peer and slowloris defenses on.
  options.config.dead_peer_timeout_ms = 30'000;
  options.config.partial_frame_timeout_ms = 10'000;
  scenario::FlagReader flags(args, options.error);
  while (const std::string* flag = flags.next()) {
    const std::string& arg = *flag;
    std::uint64_t number = 0;
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--port") {
      flags.u64(number);
      if (options.ok() && number > 65535) {
        options.error = "--port: " + std::to_string(number) + " out of range";
      }
      options.config.tcp_port = static_cast<int>(number);
    } else if (arg == "--no-tcp") {
      options.config.enable_tcp = false;
    } else if (arg == "--unix") {
      if (const std::string* text = flags.value()) {
        options.config.unix_path = *text;
      }
    } else if (arg == "--state-dir") {
      if (const std::string* text = flags.value()) {
        options.config.state_dir = *text;
      }
    } else if (arg == "--workers") {
      flags.u64(number);
      options.config.workers = static_cast<std::size_t>(number);
    } else if (arg == "--max-inflight") {
      flags.u64(number);
      options.config.max_inflight_per_client =
          static_cast<std::size_t>(number);
    } else if (arg == "--max-jobs") {
      flags.u64(number);
      options.config.max_pending_jobs_per_client =
          static_cast<std::size_t>(number);
    } else if (arg == "--heartbeat-ms") {
      flags.u64(options.config.heartbeat_ms);
    } else if (arg == "--dead-peer-timeout-ms") {
      flags.u64(options.config.dead_peer_timeout_ms);
    } else if (arg == "--partial-frame-timeout-ms") {
      flags.u64(options.config.partial_frame_timeout_ms);
    } else if (arg == "--max-outbox-mb") {
      flags.u64(number);
      options.config.max_outbox_bytes =
          static_cast<std::size_t>(number) << 20;
    } else if (arg == "--timeout-ms") {
      flags.u64(options.config.isolation.timeout_ms);
    } else if (arg == "--retries") {
      flags.u64(number);
      options.config.isolation.max_retries = static_cast<int>(number);
    } else if (arg == "--mem-limit-mb") {
      flags.u64(options.config.isolation.limits.mem_limit_mb);
    } else if (arg == "--cpu-limit-s") {
      flags.u64(options.config.isolation.limits.cpu_limit_s);
    } else {
      options.error = "unknown flag '" + arg + "'";
    }
  }
  if (options.ok() && !options.config.enable_tcp &&
      options.config.unix_path.empty()) {
    options.error = "--no-tcp without --unix leaves nothing to listen on";
  }
  return options;
}

// The signal handler may only touch async-signal-safe state;
// request_stop() is exactly that (atomic store + self-pipe write).
service::ScenarioServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) {
    g_server->request_stop();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ServerOptions options = parse_args({argv + 1, argv + argc});
  if (!options.ok()) {
    std::cerr << "error: " << options.error << "\n" << usage();
    return 64;
  }
  if (options.help) {
    std::cout << usage();
    return 0;
  }

  service::ScenarioServer server(options.config);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 71;
  }
  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "listening tcp=" << server.tcp_port();
  if (!options.config.unix_path.empty()) {
    std::cout << " unix=" << options.config.unix_path;
  }
  const auto startup = server.stats();
  std::cout << " workers="
            << (options.config.workers == 0 ? 1 : options.config.workers)
            << " recovered=" << startup.jobs_recovered << std::endl;

  server.wait_stopped();
  server.stop();
  g_server = nullptr;

  const service::ServiceStats stats = server.stats();
  std::cerr << "shutdown: sessions=" << stats.sessions_accepted
            << " jobs_accepted=" << stats.jobs_accepted
            << " jobs_recovered=" << stats.jobs_recovered
            << " jobs_completed=" << stats.jobs_completed
            << " executed=" << stats.scenarios_executed
            << " resumed=" << stats.scenarios_resumed
            << " backpressure=" << stats.backpressure_frames
            << " errors=" << stats.error_frames
            << " cancelled=" << stats.jobs_cancelled
            << " timed_out=" << stats.sessions_timed_out
            << " sandbox_crashes=" << stats.sandbox_crashes
            << " workers_respawned=" << stats.workers_respawned
            << " resource_kills=" << stats.resource_kills
            << " workers_lost=" << stats.workers_lost
            << " journal_io_errors=" << stats.journal_io_errors << "\n";
  return 0;
}
