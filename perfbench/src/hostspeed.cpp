#include "hostspeed.h"

#include <atomic>
#include <ctime>

#include "bench.h"

namespace perfbench {

namespace {

std::atomic<double> g_probe_cpu_s{0.0};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A scalar floating-point recurrence with a serial dependency chain, like
/// the buck plant's per-period update; about 4 ms on a 2.1 GHz Xeon core.
double kernel() {
  constexpr long kIterations = 570'000;
  double x = 0.5;
  double i = 0.1;
  double v = 1.0;
  for (long j = 0; j < kIterations; ++j) {
    i += 1e-3 * (v - x);
    x += 1e-3 * i - 1e-4 * x;
    v = 1.0 + 1e-6 * static_cast<double>(j & 7);
  }
  return x + i;
}

void add_probe_cpu(double seconds) {
  double total = g_probe_cpu_s.load();
  while (!g_probe_cpu_s.compare_exchange_weak(total, total + seconds)) {
  }
}

}  // namespace

double probe_cpu_s() { return g_probe_cpu_s.load(); }

HostSpeedProbe::HostSpeedProbe() : thread_([this] { run(); }) {}

HostSpeedProbe::~HostSpeedProbe() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

std::vector<double> HostSpeedProbe::samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_ms_;
}

double HostSpeedProbe::speed_factor() const {
  const std::vector<double> ms = samples();
  return ms.empty() ? 1.0 : kNominalKernelMs / median(ms);
}

void HostSpeedProbe::run() {
  volatile double sink = 0.0;
  double counted = 0.0;  // This thread's CPU time already in the total.
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    const double c0 = thread_cpu_s();
    sink = sink + kernel();
    const double c1 = thread_cpu_s();
    add_probe_cpu(c1 - counted);
    counted = c1;
    lock.lock();
    samples_ms_.push_back(1e3 * (c1 - c0));
    wake_.wait_for(lock, kSamplePeriod, [this] { return stop_; });
  }
  lock.unlock();
  add_probe_cpu(thread_cpu_s() - counted);
}

}  // namespace perfbench
