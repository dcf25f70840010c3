// ddl_perfbench: the repository benchmark's measuring program.
//
//   ddl_perfbench --workload <closed_loop_campaign|yield_campaign|
//                             service_short_jobs>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--trace-out <file>]
//
// Prints the environment labels, every metric by name and unit, the output
// check, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 when every emitted row matched the in-process ScenarioRunner (and,
// for the default seed, the committed digest), 1 on any mismatch, 2 on a
// usage or set-up error.  run.py builds this program and invokes it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "ddl/analysis/mc_batch.h"
#include "hostspeed.h"

namespace perfbench {

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double self_peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

double child_peak_rss_mb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(self.ru_utime) + seconds(self.ru_stime) +
         seconds(children.ru_utime) + seconds(children.ru_stime) -
         probe_cpu_s();
}

double steal_s() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) {
    return 0.0;
  }
  // The aggregate line: user nice system idle iowait irq softirq steal, in
  // USER_HZ (100 per second) ticks.
  unsigned long long v[8] = {};
  const int n =
      std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  return n == 8 ? static_cast<double>(v[7]) / 100.0 : 0.0;
}

namespace {

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kClosedLoopCampaign:
      return "closed_loop_campaign";
    case Workload::kYieldCampaign:
      return "yield_campaign";
    case Workload::kServiceShortJobs:
      return "service_short_jobs";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* workload) {
  for (const Workload w :
       {Workload::kClosedLoopCampaign, Workload::kYieldCampaign,
        Workload::kServiceShortJobs}) {
    if (name == workload_name(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "ddl_perfbench: %s\nusage: ddl_perfbench --workload "
               "<closed_loop_campaign|yield_campaign|service_short_jobs> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-out <file>]\n",
               message);
  return 2;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (!parse_workload(value, &options.workload)) {
        return usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return usage("bad --seed");
      }
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return usage("bad --trace");
      }
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || options.work_dir.empty()) {
    return usage("--workload and --work-dir are required");
  }

  namespace fs = std::filesystem;
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);

  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
              workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("env: mc_kernel=%s nproc=%u campaign_jobs=%zu build_type=%s "
              "compiler=%s\n",
              ddl::analysis::mc_batch_kernel_name(),
              std::thread::hardware_concurrency(), campaign_jobs(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::fflush(stdout);

  Context ctx(options);
  std::size_t bad_rows = 0;
  bool digest_ok = true;
  try {
    run_workload(ctx);
    if (options.trace) {
      run_layer_ladder(ctx);
      std::printf("trace: %zu spans\n", ctx.tracer.size());
      if (!trace_out.empty() && !ctx.tracer.write_chrome_json(trace_out)) {
        std::fprintf(stderr, "ddl_perfbench: cannot write %s\n",
                     trace_out.c_str());
      }
    }
    bad_rows = count_bad_rows(ctx.emitted, campaign_jobs());
    if (options.seed == kDefaultSeed) {
      const std::string digest = ddl::core::hex16(ctx.pinned.value());
      const std::string committed = committed_digest(options.workload);
      digest_ok = digest == committed;
      std::printf("first-round digest: %s (committed %s)\n", digest.c_str(),
                  committed.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ddl_perfbench: %s\n", error.what());
    fs::remove_all(options.work_dir);
    return 2;
  }
  fs::remove_all(options.work_dir);

  const std::size_t failed = bad_rows + ctx.refused + (digest_ok ? 0 : 1);
  const std::size_t attempted = std::max<std::size_t>(ctx.attempted, 1);
  std::printf("output check: %zu scenarios, %zu bad rows, %zu refused or "
              "failed submits, digest %s -> error_frac %.6g\n",
              ctx.attempted, bad_rows, ctx.refused,
              options.seed == kDefaultSeed ? (digest_ok ? "ok" : "MISMATCH")
                                           : "not pinned for this seed",
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (const auto& [name, metric] : ctx.metrics) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "ddl_perfbench: %s is not finite\n", name.c_str());
      return 2;
    }
  }
  print_json(failed == 0, attempted, failed, ctx.metrics);
  return failed == 0 ? 0 : 1;
}
