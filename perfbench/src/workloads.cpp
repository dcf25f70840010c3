// The three workloads, their seeded inputs and the output check.
//
//   closed_loop_campaign  the regression suite's closed-loop specs through
//                         scenario::Campaign: the buck plant dominates, and
//                         2.5k- and 9k-period scenarios share the shards.
//   yield_campaign        the yield specs repeated to thousands of tiny
//                         scenarios through the same Campaign: sandbox IPC
//                         and journal appends dominate.  Too noisy on a
//                         shared VM to gate (see ../README.md).
//   service_short_jobs    four closed-loop clients against a two-worker
//                         ScenarioServer on loopback: wire, queue wait and
//                         streaming sit on every job's latency.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench.h"
#include "ddl/core/hash.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/service/client.h"
#include "ddl/service/server.h"
#include "hostspeed.h"

namespace perfbench {

namespace fs = std::filesystem;
using ddl::scenario::Campaign;
using ddl::scenario::CampaignConfig;
using ddl::scenario::CampaignOutcome;
using ddl::scenario::ScenarioSpec;

namespace {

/// Yield specs per campaign round: the suite's 4 specs, this many times.
constexpr std::uint64_t kYieldRepsPerRound = 64;
/// Completions per service throughput sample.
constexpr std::size_t kServiceBlock = 64;
/// Cold starts per run; setup_s is the median of their CPU time.
constexpr std::size_t kSetupRepeats = 15;
/// The service's own peak RSS is read when this many jobs have completed:
/// the server keeps every completed job for idempotent replay, so a peak
/// read at the end of the run would follow the run's throughput.
constexpr std::size_t kServiceRssJobs = 256;

/// A derived scenario seed in [1, 2^31]: spec seeds cross the wire as JSON
/// numbers, so they stay well inside the exactly representable range.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  const std::uint64_t mixed = ddl::core::splitmix64_mix(
      seed ^ ddl::core::splitmix64_mix((a << 24) ^ b ^ 0x5eedull));
  return 1 + (mixed >> 33);
}

std::vector<ScenarioSpec> closed_loop_suite() {
  std::vector<ScenarioSpec> specs =
      ddl::scenario::ScenarioRegistry::builtin().expand("regression");
  std::erase_if(specs, [](const ScenarioSpec& spec) {
    return spec.mc_dies > 0;
  });
  return specs;
}

std::size_t error_rows(std::string_view jsonl) {
  std::size_t rows = 0;
  for (std::size_t at = jsonl.find("\"verdict\":\"error\"");
       at != std::string_view::npos;
       at = jsonl.find("\"verdict\":\"error\"", at + 1)) {
    ++rows;
  }
  return rows;
}

/// The workloads' Campaign: journal on, default process isolation,
/// min(4, nproc) jobs.
CampaignConfig campaign_config(const std::string& journal_dir) {
  CampaignConfig config;
  config.journal_dir = journal_dir;
  config.jobs = campaign_jobs();
  return config;
}

std::string fresh_dir(const Context& ctx, const std::string& leaf) {
  const std::string dir = ctx.options.work_dir + "/" + leaf;
  fs::remove_all(dir);
  return dir;
}

// --- Campaign workloads ------------------------------------------------------

struct LoopStats {
  std::size_t scenarios = 0;
  /// CPU milliseconds per scenario -- this process plus its sandbox
  /// children -- of each campaign round, or of the whole service loop.
  std::vector<double> cpu_ms;
  /// Wall-clock figures, printed but not gated: on a shared host they
  /// follow the time stolen from the vCPUs (see ../README.md).
  std::vector<double> latency_ms;
  /// Scenarios per second of each campaign round, or of each block of
  /// consecutive service completions.
  std::vector<double> rates;
  /// This process's peak RSS at a fixed point of the run (service), or 0
  /// to read it at the end.
  double self_rss_mb = 0.0;

  double cpu_ms_per_scenario() const { return median(cpu_ms); }
};

/// The untimed warm-up round's number: far from the measured rounds, so
/// its scenario names are distinct and it is never digest-pinned.
constexpr std::uint64_t kWarmUpRound = 900'000;

/// The CPU and wall seconds of the cold starts of one run.
struct SetupTimes {
  std::vector<double> cpu;
  std::vector<double> wall;

  void add(double cpu0, double wall0) {
    cpu.push_back(cpu_s() - cpu0);
    wall.push_back(now_s() - wall0);
  }
  /// Prints both medians and returns the CPU one.
  double report() const {
    std::printf("setup: median %.2f ms wall, %.2f ms CPU over %zu cold "
                "starts\n",
                1e3 * median(wall), 1e3 * median(cpu), cpu.size());
    return median(cpu);
  }
};

/// Cold start to first committed row: expand and seed the suite, then run
/// a fresh one-scenario journaled Campaign (sandbox fork, sizing, lock,
/// the scenario itself, the journal commit, the sandbox's exit).  CPU
/// seconds, median of kSetupRepeats.
double campaign_setup_s(Context& ctx) {
  SetupTimes times;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const std::string dir = fresh_dir(ctx, "setup-" + std::to_string(k));
    const double c0 = cpu_s();
    const double t0 = now_s();
    std::vector<ScenarioSpec> specs =
        campaign_round(ctx.options.workload, ctx.options.seed, 0);
    ScenarioSpec first = specs[k % specs.size()];
    first.name = "setup" + std::to_string(k) + "/" + first.name;
    const std::vector<ScenarioSpec> one{first};
    const CampaignOutcome outcome = Campaign(campaign_config(dir)).run(one);
    times.add(c0, t0);
    fs::remove_all(dir);
    ctx.attempted += one.size();
    emit(ctx, [one] { return one; }, one.size(), outcome.jsonl(),
         outcome.health_jsonl);
  }
  return times.report();
}

struct RoundRun {
  std::size_t scenarios = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< Campaign::run reaps its sandboxes before return.
};

/// One journaled Campaign::run over round `r` of the workload; its rows
/// are checked at the end of the run.
RoundRun campaign_round_run(Context& ctx, std::uint64_t r) {
  const std::vector<ScenarioSpec> specs =
      campaign_round(ctx.options.workload, ctx.options.seed, r);
  const std::string dir = fresh_dir(ctx, "round-" + std::to_string(r));
  CampaignOutcome outcome;
  double wall_s = 0.0;
  double round_cpu_s = 0.0;
  {
    const auto span = ctx.tracer.span("scenario.campaign_run", r);
    const double c0 = cpu_s();
    const double t0 = now_s();
    outcome = Campaign(campaign_config(dir)).run(specs);
    wall_s = now_s() - t0;
    round_cpu_s = cpu_s() - c0;
  }
  fs::remove_all(dir);
  ctx.attempted += specs.size();
  const Workload workload = ctx.options.workload;
  const std::uint64_t seed = ctx.options.seed;
  emit(ctx, [workload, seed, r] { return campaign_round(workload, seed, r); },
       specs.size(), outcome.jsonl(), outcome.health_jsonl, r == 0);
  return {specs.size(), wall_s, round_cpu_s};
}

/// Campaign rounds until `seconds` of Campaign::run time have been
/// measured.  Rounds are numbered from `*round` on.
LoopStats campaign_loop(Context& ctx, double seconds, std::uint64_t* round) {
  LoopStats stats;
  double busy_s = 0.0;
  while (busy_s < seconds) {
    const RoundRun run = campaign_round_run(ctx, (*round)++);
    busy_s += run.wall_s;
    stats.scenarios += run.scenarios;
    stats.cpu_ms.push_back(1e3 * run.cpu_s /
                           static_cast<double>(run.scenarios));
    stats.latency_ms.push_back(1e3 * run.wall_s);
    stats.rates.push_back(static_cast<double>(run.scenarios) / run.wall_s);
  }
  return stats;
}

// --- Service workload ---------------------------------------------------------

ddl::service::ServiceConfig service_config(const std::string& state_dir) {
  ddl::service::ServiceConfig config;
  config.tcp_port = 0;  // Ephemeral loopback port.
  config.workers = kServiceWorkers;
  config.max_inflight_per_client = 4;
  config.max_pending_jobs_per_client = 4;
  config.heartbeat_ms = 60'000;
  config.state_dir = state_dir;
  return config;
}

ddl::service::ClientConfig client_config(int port, std::size_t client) {
  ddl::service::ClientConfig config;
  config.tcp_port = port;
  config.name = "perfbench-" + std::to_string(client);
  config.recv_timeout_ms = 60'000;
  return config;
}

struct ServiceRun {
  LoopStats stats;
  std::vector<double> submit_ms;
  std::vector<double> wait_ms;
  ddl::service::ServiceStats server;
};

/// Cold start to first result: start a fresh server (listener, worker
/// pool, state directory), connect, run one single-scenario job to
/// job_done, and stop the server (which reaps its sandbox).  CPU seconds,
/// median of kSetupRepeats.
double service_setup_s(Context& ctx) {
  SetupTimes times;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const std::string dir = fresh_dir(ctx, "setup-" + std::to_string(k));
    const ScenarioSpec spec =
        service_spec(ctx.options.seed, kServiceClients + k, 0);
    const double c0 = cpu_s();
    const double t0 = now_s();
    ddl::service::ScenarioServer server(service_config(dir));
    std::string error;
    if (!server.start(&error)) {
      throw std::runtime_error("server start failed: " + error);
    }
    ddl::service::ScenarioClient client(client_config(server.tcp_port(), k));
    ddl::service::ScenarioClient::JobOutcome outcome;
    ++ctx.attempted;
    if (client.connect()) {
      const auto sub = client.submit_specs("setup", {spec});
      if (sub.accepted) {
        outcome = client.wait(sub.job_id);
      }
    }
    client.bye();
    server.stop();
    times.add(c0, t0);
    fs::remove_all(dir);
    if (!outcome.done) {
      ++ctx.refused;
      continue;
    }
    emit(ctx, [spec] { return std::vector<ScenarioSpec>{spec}; }, 1,
         outcome.jsonl(), outcome.health_jsonl());
  }
  return times.report();
}

/// Four clients, each with one single-scenario job outstanding at a time
/// (a closed loop), until `seconds` have passed; jobs are numbered from
/// `first_job` on so every submission is a distinct job.
ServiceRun service_loop(Context& ctx, double seconds, std::size_t first_job,
                        const std::string& leaf) {
  const std::string dir = fresh_dir(ctx, leaf);
  const double cpu0 = cpu_s();
  ddl::service::ScenarioServer server(service_config(dir));
  std::string error;
  if (!server.start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }

  struct ClientLog {
    std::vector<double> latency_ms, submit_ms, wait_ms;
    std::vector<double> done_s;  ///< Completion times since the start.
    /// (job, result + health streams) of every completed job.
    std::vector<std::pair<std::size_t, std::string>> outputs;
    std::size_t attempted = 0;
    std::size_t refused = 0;
  };
  std::vector<ClientLog> logs(kServiceClients);
  std::atomic<std::size_t> completed{0};
  double self_rss_mb = 0.0;  // Written once, by the kServiceRssJobs-th job.
  const double start = now_s();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServiceClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      ddl::service::ScenarioClient client(client_config(server.tcp_port(), c));
      if (!client.connect()) {
        ++log.refused;
        return;
      }
      for (std::size_t job = first_job; now_s() < deadline; ++job) {
        const ScenarioSpec spec = service_spec(ctx.options.seed, c, job);
        const std::uint64_t key = (std::uint64_t{c} << 32) | job;
        const auto job_span = ctx.tracer.span("service.job", key);
        ++log.attempted;
        const double t0 = now_s();
        ddl::service::ScenarioClient::Submission sub;
        {
          const auto span = ctx.tracer.span("service.submit", key);
          sub = client.submit_specs("j" + std::to_string(job), {spec});
        }
        const double t1 = now_s();
        if (!sub.accepted) {
          ++log.refused;
          if (!sub.backpressure) {
            return;  // Transport or protocol error: this client is done.
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(sub.retry_ms));
          continue;
        }
        ddl::service::ScenarioClient::JobOutcome outcome;
        {
          const auto span = ctx.tracer.span("service.wait", key);
          outcome = client.wait(sub.job_id);
        }
        const double t2 = now_s();
        if (!outcome.done) {
          ++log.refused;
          return;
        }
        if (completed.fetch_add(1) + 1 == kServiceRssJobs) {
          self_rss_mb = self_peak_rss_mb();
        }
        log.latency_ms.push_back(1e3 * (t2 - t0));
        log.done_s.push_back(t2 - start);
        log.submit_ms.push_back(1e3 * (t1 - t0));
        log.wait_ms.push_back(1e3 * (t2 - t1));
        log.outputs.push_back({job, outcome.jsonl() + outcome.health_jsonl()});
      }
      client.bye();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ServiceRun run;
  const double wall_s = now_s() - start;
  run.server = server.stats();
  server.stop();  // Reaps the sandboxes, so their CPU time is counted.
  const double loop_cpu_s = cpu_s() - cpu0;
  run.stats.self_rss_mb = self_rss_mb;
  fs::remove_all(dir);

  for (ClientLog& log : logs) {
    run.stats.scenarios += log.latency_ms.size();
    run.stats.latency_ms.insert(run.stats.latency_ms.end(),
                                log.latency_ms.begin(), log.latency_ms.end());
    run.submit_ms.insert(run.submit_ms.end(), log.submit_ms.begin(),
                         log.submit_ms.end());
    run.wait_ms.insert(run.wait_ms.end(), log.wait_ms.begin(),
                       log.wait_ms.end());
    ctx.attempted += log.attempted;
    ctx.refused += log.refused;
  }
  // The first job of every client is fixed by the seed: that is the
  // digest-pinned slice of the stream.
  for (std::size_t c = 0; c < kServiceClients; ++c) {
    const std::uint64_t seed = ctx.options.seed;
    for (const auto& [job, streams] : logs[c].outputs) {
      emit(ctx,
           [seed, c, job] {
             return std::vector<ScenarioSpec>{service_spec(seed, c, job)};
           },
           1, streams, "", job == 0);
    }
  }
  // Throughput over blocks of kServiceBlock consecutive completions: a
  // stall slows only the blocks it falls in, and the median skips them.
  std::vector<double> done_s;
  for (const ClientLog& log : logs) {
    done_s.insert(done_s.end(), log.done_s.begin(), log.done_s.end());
  }
  std::sort(done_s.begin(), done_s.end());
  if (!done_s.empty()) {
    run.stats.cpu_ms.push_back(1e3 * loop_cpu_s /
                               static_cast<double>(done_s.size()));
  }
  for (std::size_t i = kServiceBlock; i < done_s.size(); i += kServiceBlock) {
    run.stats.rates.push_back(static_cast<double>(kServiceBlock) /
                              (done_s[i] - done_s[i - kServiceBlock]));
  }
  if (run.stats.rates.empty()) {
    run.stats.rates.push_back(static_cast<double>(done_s.size()) / wall_s);
  }
  return run;
}

/// Untraced-run form: the loop for the whole time.  CPU times are scaled
/// to the nominal host speed with the probe that sampled the set-up and
/// the loop.
template <typename Loop>
void report_end_to_end(Context& ctx, double setup_cpu_s, Loop loop,
                       const HostSpeedProbe& probe) {
  const double steal0 = steal_s();
  const double wall0 = now_s();
  const LoopStats stats = loop(ctx.options.seconds);
  const double steal = steal_s() - steal0;
  const double vcpu_s =
      std::max(1u, std::thread::hardware_concurrency()) * (now_s() - wall0);
  const double speed = probe.speed_factor();
  const std::vector<double> kernel_ms = probe.samples();
  std::printf("host speed: probe kernel median %.4f ms over %zu samples "
              "(nominal %.1f ms) -> factor %.4f; unscaled CPU: %.4f ms per "
              "scenario, set-up %.4f ms\n",
              median(kernel_ms), kernel_ms.size(),
              HostSpeedProbe::kNominalKernelMs, speed,
              stats.cpu_ms_per_scenario(), 1e3 * setup_cpu_s);
  ctx.set("setup_s", speed * setup_cpu_s, "s");
  ctx.set("norm_cpu_ms_per_scenario", speed * stats.cpu_ms_per_scenario(),
          "ms");
  const double self_mb =
      stats.self_rss_mb > 0.0 ? stats.self_rss_mb : self_peak_rss_mb();
  ctx.set("peak_rss_mb", self_mb + child_peak_rss_mb(), "MiB");
  // Wall-clock figures are printed, not gated: on a shared host they move
  // with the time the host steals from the vCPUs, which is printed beside
  // them, by more than any bound a gate may use.
  std::printf("wall clock (not gated): %.4g scenarios/s, latency p50 %.3f ms, "
              "p95 %.3f ms over %zu samples; host steal %.1f%% of vCPU "
              "time\n",
              median(stats.rates), percentile(stats.latency_ms, 0.50),
              percentile(stats.latency_ms, 0.95), stats.latency_ms.size(),
              100.0 * steal / vcpu_s);
  if (stats.latency_ms.size() <= 32) {
    std::printf("round latencies ms:");
    for (const double ms : stats.latency_ms) {
      std::printf(" %.1f", ms);
    }
    std::printf("\nround CPU ms per scenario:");
    for (const double ms : stats.cpu_ms) {
      std::printf(" %.2f", ms);
    }
    std::printf("\n");
  }
}

/// Traced-run form: the same loop untraced then traced, half the time
/// each; the difference in CPU time per scenario is the tracing overhead.
template <typename Loop>
void report_trace_overhead(Context& ctx, Loop loop) {
  const double half = ctx.options.seconds / 2.0;
  const LoopStats untraced = loop(half);
  ctx.tracer.set_enabled(true);
  const LoopStats traced = loop(half);
  ctx.tracer.set_enabled(false);
  const double base = untraced.cpu_ms_per_scenario();
  ctx.set("trace.overhead_frac",
          base > 0.0 ? traced.cpu_ms_per_scenario() / base - 1.0 : 0.0,
          "frac");
}

}  // namespace

std::size_t campaign_jobs() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, cores);
}

std::vector<ScenarioSpec> campaign_round(Workload workload, std::uint64_t seed,
                                         std::uint64_t round) {
  const std::string tag = "#s" + std::to_string(seed) + "r" +
                          std::to_string(round);
  std::vector<ScenarioSpec> specs;
  if (workload == Workload::kYieldCampaign) {
    const std::vector<ScenarioSpec> base =
        ddl::scenario::ScenarioRegistry::builtin().expand("yield");
    specs.reserve(base.size() * kYieldRepsPerRound);
    for (std::uint64_t rep = 0; rep < kYieldRepsPerRound; ++rep) {
      for (std::size_t i = 0; i < base.size(); ++i) {
        ScenarioSpec spec = base[i];
        spec.name += tag + "k" + std::to_string(rep);
        spec.seed = derive_seed(seed, round, rep * base.size() + i);
        specs.push_back(std::move(spec));
      }
    }
    return specs;
  }
  specs = closed_loop_suite();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name += tag;
    specs[i].seed = derive_seed(seed, round, i);
  }
  return specs;
}

ScenarioSpec service_spec(std::uint64_t seed, std::size_t client,
                          std::size_t job) {
  // The bench_server_throughput scenario: ~16 ms of in-process work, small
  // enough that the wire and queue show in its latency.
  ScenarioSpec spec;
  spec.name = "bench/proposed/typical/srv#s" + std::to_string(seed) + "c" +
              std::to_string(client) + "j" + std::to_string(job);
  spec.family = "bench";
  spec.seed = derive_seed(seed, 1'000'000 + client, job);
  spec.load = ddl::scenario::LoadSpec::constant(0.4);
  spec.periods = 600;
  spec.measure_from = 400;
  spec.allow_limit_cycling = true;
  spec.tolerance_v = 0.05;
  return spec;
}

void emit(Context& ctx, SpecSource specs, std::size_t rows,
          const std::string& results_jsonl, const std::string& health_jsonl,
          bool pin) {
  ddl::core::Fnv1a64 hash;
  hash.update(results_jsonl).update(health_jsonl);
  if (pin) {
    ctx.pinned.update(results_jsonl).update(health_jsonl);
  }
  ctx.emitted.push_back(
      {std::move(specs), rows, hash.value(), error_rows(results_jsonl)});
}

std::size_t count_bad_rows(const std::vector<Emitted>& batches,
                           std::size_t threads) {
  // Batches are re-run in chunks of about this many scenarios: large
  // enough to keep the runner's shards busy, small enough to bound memory.
  constexpr std::size_t kChunk = 2048;
  const ddl::scenario::ScenarioRunner runner(threads);
  std::size_t bad = 0;
  for (std::size_t first = 0; first < batches.size();) {
    std::vector<ScenarioSpec> specs;
    std::size_t last = first;
    for (; last < batches.size() && specs.size() < kChunk; ++last) {
      std::vector<ScenarioSpec> more = batches[last].specs();
      if (more.size() != batches[last].rows) {
        throw std::logic_error("regenerated inputs differ in size");
      }
      specs.insert(specs.end(), more.begin(), more.end());
    }
    const std::vector<ddl::scenario::ScenarioResult> expected =
        runner.run(specs);
    std::size_t offset = 0;
    for (std::size_t b = first; b < last; ++b) {
      const Emitted& batch = batches[b];
      const std::vector<ddl::scenario::ScenarioResult> slice(
          expected.begin() + static_cast<std::ptrdiff_t>(offset),
          expected.begin() + static_cast<std::ptrdiff_t>(offset + batch.rows));
      offset += batch.rows;
      ddl::core::Fnv1a64 hash;
      hash.update(ddl::scenario::ScenarioRunner::jsonl(slice))
          .update(ddl::scenario::ScenarioRunner::health_jsonl(slice));
      bad += (hash.value() != batch.digest ? batch.rows : 0) +
             batch.error_rows;
    }
    first = last;
  }
  return bad;
}

void run_workload(Context& ctx) {
  // Samples the host's speed from the first cold start to the end of the
  // measured loop.
  const HostSpeedProbe probe;
  if (ctx.options.workload == Workload::kServiceShortJobs) {
    const double setup_s = service_setup_s(ctx);
    std::size_t next_job = 0;
    std::size_t leg = 0;
    auto loop = [&](double seconds) {
      // Jobs run in client-major order; a later leg starts past any job
      // number an earlier leg could have reached.
      ServiceRun run = service_loop(ctx, seconds, next_job,
                                    "service-" + std::to_string(leg++));
      next_job += 1'000'000;
      return run.stats;
    };
    if (ctx.options.trace) {
      report_trace_overhead(ctx, loop);
    } else {
      report_end_to_end(ctx, setup_s, loop, probe);
    }
    return;
  }

  const double setup_s = campaign_setup_s(ctx);
  // The first multi-worker campaign of a process is sometimes ~50% slower
  // on a virtual machine whose idle vCPUs wake late; one untimed round
  // keeps that out of the measured rounds.
  std::printf("warm-up round: %.1f ms\n",
              1e3 * campaign_round_run(ctx, kWarmUpRound).wall_s);
  std::uint64_t round = 0;
  auto loop = [&](double seconds) {
    return campaign_loop(ctx, seconds, &round);
  };
  if (ctx.options.trace) {
    report_trace_overhead(ctx, loop);
  } else {
    report_end_to_end(ctx, setup_s, loop, probe);
  }
}

void service_layer_probe(Context& ctx, double seconds, double exec_ms) {
  const bool was_enabled = ctx.tracer.enabled();
  ctx.tracer.set_enabled(true);
  const ServiceRun run = service_loop(ctx, seconds, 2'000'000'000, "probe");
  ctx.tracer.set_enabled(was_enabled);
  ctx.set("service.submit_ms", median(run.submit_ms), "ms");
  ctx.set("service.wait_ms", median(run.wait_ms), "ms");
  ctx.set("service.overhead_ms",
          percentile(run.stats.latency_ms, 0.50) - exec_ms, "ms");
  ctx.set("service.backpressure_frames",
          static_cast<double>(run.server.backpressure_frames), "count");
  ctx.set("service.error_frames",
          static_cast<double>(run.server.error_frames), "count");
  ctx.set("service.jobs", static_cast<double>(run.stats.scenarios), "count");
}

std::string committed_digest(Workload workload) {
  // FNV-1a of the result + health streams of the default seed's first
  // round (campaigns) or of every client's first job (service).  Every run
  // prints the digest it computed; change these only together with a
  // change that is meant to alter the rows.
  switch (workload) {
    case Workload::kClosedLoopCampaign:
      return "8adffcce082467c6";
    case Workload::kYieldCampaign:
      return "a3d6ae72fb39e073";
    case Workload::kServiceShortJobs:
      return "f0344315a76ffdf2";
  }
  return {};
}

}  // namespace perfbench
