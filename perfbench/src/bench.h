// Shared declarations of the repository benchmark (see ../README.md).
//
// The benchmark drives the system only through public library calls:
// scenario::Campaign for the two campaign workloads, an in-process
// service::ScenarioServer plus service::ScenarioClient connections for the
// service workload, and the modules' own public functions for the traced
// per-layer ladder.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ddl/core/hash.h"
#include "ddl/scenario/spec.h"
#include "trace.h"

namespace perfbench {

enum class Workload { kClosedLoopCampaign, kYieldCampaign, kServiceShortJobs };

/// The seed whose first round is pinned by the committed digests.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Concurrent sandbox workers of the service workload, and its clients.
inline constexpr std::size_t kServiceWorkers = 2;
inline constexpr std::size_t kServiceClients = 4;

struct Options {
  Workload workload = Workload::kClosedLoopCampaign;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Journals and server state; removed at exit.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Regenerates the inputs of one emitted batch (every input is a pure
/// function of the seed, so the check needs no copy of them).
using SpecSource = std::function<std::vector<ddl::scenario::ScenarioSpec>()>;

/// One batch of rows the system under test emitted, reduced to what the
/// end-of-run check needs: at the end every batch is re-run through the
/// in-process ScenarioRunner and its streams' digest compared.
struct Emitted {
  SpecSource specs;
  std::size_t rows = 0;
  std::uint64_t digest = 0;  ///< FNV-1a of the result + health streams.
  std::size_t error_rows = 0;
};

/// State of one benchmark run.
struct Context {
  explicit Context(Options opts) : options(std::move(opts)), tracer(false) {}

  Options options;
  Tracer tracer;
  std::map<std::string, Metric> metrics;  ///< Printed in key order.
  std::vector<Emitted> emitted;           ///< Checked against the runner.
  /// Streams of the seed-fixed first round (first job of every client),
  /// for the committed digest.
  ddl::core::Fnv1a64 pinned;
  std::size_t attempted = 0;    ///< Scenarios submitted.
  std::size_t refused = 0;      ///< Refused submits and failed jobs.

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Worker count every campaign uses: min(4, nproc).
std::size_t campaign_jobs();

// --- Seeded workload generation (workloads.cpp) -----------------------------

/// The specs of round `round` of a campaign workload: the suite's specs
/// with seeds re-derived from (seed, round, index) and names made unique
/// per round (the journal keys by name).
std::vector<ddl::scenario::ScenarioSpec> campaign_round(Workload workload,
                                                        std::uint64_t seed,
                                                        std::uint64_t round);

/// The single spec of job `job` on client `client` of the service
/// workload: a 600-period closed loop, seed derived from (seed, client, job).
ddl::scenario::ScenarioSpec service_spec(std::uint64_t seed,
                                         std::size_t client,
                                         std::size_t job);

// --- Output checks (workloads.cpp) ------------------------------------------

/// Records one emitted batch for the end-of-run check; `pin` adds its
/// streams to the digest-pinned slice.
void emit(Context& ctx, SpecSource specs, std::size_t rows,
          const std::string& results_jsonl, const std::string& health_jsonl,
          bool pin = false);

/// Re-runs every batch through the in-process ScenarioRunner and returns
/// the rows of batches whose streams differ, plus every error row.
std::size_t count_bad_rows(const std::vector<Emitted>& batches,
                           std::size_t threads);

/// The committed digest of the first round for the default seed.
std::string committed_digest(Workload workload);

// --- Workloads (workloads.cpp) ----------------------------------------------

/// Runs the workload and fills the end-to-end metrics.  In a traced run
/// the loop runs untraced and then traced, for half the time each, and
/// only the tracing overhead is reported.
void run_workload(Context& ctx);

/// The service workload's loop, traced, for `seconds`: fills the service.*
/// per-layer metrics.  `exec_ms` is the in-process time of the same spec.
void service_layer_probe(Context& ctx, double seconds, double exec_ms);

// --- Per-layer ladder (layers.cpp) ------------------------------------------

/// Times the public calls into analog, dpwm, control, core, analysis,
/// scenario and service, and fills every per-layer metric.
void run_layer_ladder(Context& ctx);

// --- Helpers (main.cpp) -----------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);
/// Peak resident set of this process so far, MiB.
double self_peak_rss_mb();
/// Peak resident set of the largest reaped child (a sandbox worker), MiB.
double child_peak_rss_mb();
/// Seconds since an arbitrary fixed origin (steady clock).
double now_s();
/// CPU seconds (user + system) of this process plus its reaped children,
/// less the host-speed probe's (hostspeed.h).  On a guest kernel with
/// paravirtual steal-time accounting this leaves out the time the host
/// stole from the vCPUs.
double cpu_s();
/// The host's stolen time on every vCPU so far, seconds (/proc/stat).
double steal_s();

}  // namespace perfbench
