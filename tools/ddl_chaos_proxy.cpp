// ddl_chaos_proxy: a seeded TCP chaos proxy between ddl_scenario_client
// and ddl_scenario_server.  Every connection relayed through it is
// subjected to a splitmix64-scheduled fault storm -- resets, mid-frame
// truncation, byte fuzzing, duplicated writes, single-byte trickle,
// stalls -- so CI can prove the service endpoints converge to byte-exact
// campaign output through an adversarial network.
//
//   ddl_chaos_proxy --listen-port 0 --upstream-port 45123 --seed 7
//   ddl_chaos_proxy --upstream-port 45123 --profile heavy
//
// Prints one `listening ...` line to stdout once ready (scripts parse the
// ephemeral port from it).  SIGTERM / SIGINT stop the relay and print the
// fault accounting.  Exit status: 0 on clean shutdown, 64 usage error,
// 71 startup failure.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "ddl/scenario/cli.h"
#include "ddl/service/chaos_proxy.h"

namespace {

using namespace ddl;

struct ProxyOptions {
  service::ChaosProxyConfig config;
  bool help = false;
  std::string error;
  bool ok() const { return error.empty(); }
};

std::string usage() {
  return
      "usage: ddl_chaos_proxy [options]\n"
      "  --listen-port N     loopback listen port (default 0 = ephemeral)\n"
      "  --upstream-port N   the real server's port (required)\n"
      "  --upstream-host A   the real server's address (default 127.0.0.1)\n"
      "  --seed N            fault-schedule seed (default 1)\n"
      "  --profile NAME      fault mix: clean (forward only), light,\n"
      "                      default, heavy (roughly 2x default rates)\n"
      "  --reset N           per-chunk connection-reset permille\n"
      "  --truncate N        per-chunk mid-frame truncation permille\n"
      "  --fuzz N            per-chunk byte-fuzzing permille\n"
      "  --duplicate N       per-chunk duplicated-write permille\n"
      "  --trickle N         per-chunk slowloris-trickle permille\n"
      "  --stall N           per-chunk stall permille\n"
      "  --stall-ms N        stall duration (default 120)\n"
      "  --chunk-bytes N     relay read size (default 2048); smaller\n"
      "                      chunks mean more fault decision points\n"
      "  --help              this text\n";
}

void apply_profile(service::ChaosProxyConfig& config,
                   const std::string& name, std::string& error) {
  if (name == "default") {
    return;
  }
  if (name == "clean") {
    config.p_reset_permille = 0;
    config.p_truncate_permille = 0;
    config.p_fuzz_permille = 0;
    config.p_duplicate_permille = 0;
    config.p_trickle_permille = 0;
    config.p_stall_permille = 0;
    config.p_split_permille = 0;
    return;
  }
  if (name == "light") {
    config.p_reset_permille = 3;
    config.p_truncate_permille = 5;
    config.p_fuzz_permille = 6;
    config.p_duplicate_permille = 4;
    config.p_trickle_permille = 4;
    config.p_stall_permille = 4;
    return;
  }
  if (name == "heavy") {
    config.p_reset_permille = 16;
    config.p_truncate_permille = 24;
    config.p_fuzz_permille = 30;
    config.p_duplicate_permille = 20;
    config.p_trickle_permille = 20;
    config.p_stall_permille = 20;
    return;
  }
  error = "--profile: unknown profile '" + name + "'";
}

ProxyOptions parse_args(const std::vector<std::string>& args) {
  ProxyOptions options;
  scenario::FlagReader flags(args, options.error);
  auto permille_of = [&](const char* flag, std::uint32_t& out) {
    std::uint64_t number = 0;
    flags.u64(number);
    if (options.ok() && number > 1000) {
      options.error = std::string(flag) + ": " + std::to_string(number) +
                      " exceeds 1000 permille";
    }
    out = static_cast<std::uint32_t>(number);
  };
  while (const std::string* flag = flags.next()) {
    const std::string& arg = *flag;
    std::uint64_t number = 0;
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--listen-port") {
      flags.u64(number);
      options.config.listen_port = static_cast<int>(number);
    } else if (arg == "--upstream-port") {
      flags.u64(number);
      options.config.upstream_port = static_cast<int>(number);
    } else if (arg == "--upstream-host") {
      if (const std::string* text = flags.value()) {
        options.config.upstream_host = *text;
      }
    } else if (arg == "--seed") {
      flags.u64(options.config.seed);
    } else if (arg == "--profile") {
      if (const std::string* text = flags.value()) {
        apply_profile(options.config, *text, options.error);
      }
    } else if (arg == "--reset") {
      permille_of("--reset", options.config.p_reset_permille);
    } else if (arg == "--truncate") {
      permille_of("--truncate", options.config.p_truncate_permille);
    } else if (arg == "--fuzz") {
      permille_of("--fuzz", options.config.p_fuzz_permille);
    } else if (arg == "--duplicate") {
      permille_of("--duplicate", options.config.p_duplicate_permille);
    } else if (arg == "--trickle") {
      permille_of("--trickle", options.config.p_trickle_permille);
    } else if (arg == "--stall") {
      permille_of("--stall", options.config.p_stall_permille);
    } else if (arg == "--stall-ms") {
      flags.u64(options.config.stall_ms);
    } else if (arg == "--chunk-bytes") {
      flags.u64(number);
      if (options.ok() && number == 0) {
        options.error = "--chunk-bytes: must be positive";
      }
      options.config.chunk_bytes = static_cast<std::size_t>(number);
    } else {
      options.error = "unknown flag '" + arg + "'";
    }
  }
  if (options.ok() && options.config.upstream_port == 0) {
    options.error = "--upstream-port is required";
  }
  return options;
}

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const ProxyOptions options = parse_args({argv + 1, argv + argc});
  if (!options.ok()) {
    std::cerr << "error: " << options.error << "\n" << usage();
    return 64;
  }
  if (options.help) {
    std::cout << usage();
    return 0;
  }

  service::ChaosProxy proxy(options.config);
  std::string error;
  if (!proxy.start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 71;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "listening tcp=" << proxy.listen_port()
            << " upstream=" << options.config.upstream_host << ":"
            << options.config.upstream_port
            << " seed=" << options.config.seed << std::endl;

  while (g_stop == 0) {
    // The relay runs on its own thread; the main thread only waits for a
    // signal.  pause() returns on any handled signal.
    ::pause();
  }
  proxy.stop();

  const service::ChaosProxyStats stats = proxy.stats();
  std::cerr << "chaos: connections=" << stats.connections
            << " resets=" << stats.resets
            << " truncations=" << stats.truncations
            << " fuzzed=" << stats.fuzzed_chunks
            << " duplicated=" << stats.duplicated_chunks
            << " trickled=" << stats.trickled_chunks
            << " stalls=" << stats.stalls
            << " split=" << stats.split_chunks
            << " forwarded_bytes=" << stats.forwarded_bytes << "\n";
  return 0;
}
