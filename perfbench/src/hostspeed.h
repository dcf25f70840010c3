// Host-speed probe for the gated CPU-time metrics.
//
// The benchmark's hosts are shared virtual machines whose cores change
// speed by 15-20 % over minutes (clock frequency, load on sibling hardware
// threads), and CPU time follows that speed as wall time does.  While a
// workload runs, a background thread times a fixed floating-point kernel
// in its own CPU time every kSamplePeriod; a CPU time multiplied by
// speed_factor() is what it would have been at the speed at which the
// kernel takes kNominalKernelMs.  The thread's own CPU time is left out of
// cpu_s().
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class HostSpeedProbe {
 public:
  /// The kernel's CPU time at the speed normalised figures are quoted at.
  static constexpr double kNominalKernelMs = 4.0;
  static constexpr std::chrono::milliseconds kSamplePeriod{200};

  /// Starts sampling.
  HostSpeedProbe();
  /// Stops sampling and joins the thread.
  ~HostSpeedProbe();

  HostSpeedProbe(const HostSpeedProbe&) = delete;
  HostSpeedProbe& operator=(const HostSpeedProbe&) = delete;

  /// The kernel's CPU milliseconds, one per sample so far.
  std::vector<double> samples() const;
  /// kNominalKernelMs over the median sample (1 before the first sample).
  double speed_factor() const;

 private:
  void run();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;                ///< Guarded by mutex_.
  std::vector<double> samples_ms_;   ///< Guarded by mutex_.
  std::thread thread_;
};

/// CPU seconds every probe thread has used so far.
double probe_cpu_s();

}  // namespace perfbench
