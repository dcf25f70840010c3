// The complete digitally controlled buck converter of thesis Figure 15:
// plant -> window ADC -> PID compensator -> DPWM -> plant.
//
// The DPWM is injected through the dpwm::DpwmModel interface, so the same
// loop runs with the ideal counter DPWM, the hybrid, the proposed calibrated
// delay line, or the conventional one -- which is exactly the comparison the
// thesis motivates (DPWM time resolution becomes output-voltage resolution,
// Eqs 11/12).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "ddl/analog/adc.h"
#include "ddl/analog/buck.h"
#include "ddl/control/pid.h"
#include "ddl/dpwm/behavioral.h"

namespace ddl::control {

/// Per-switching-period telemetry.
struct LoopSample {
  std::uint64_t period_index = 0;
  double vout = 0.0;          ///< Sampled at the end of the period.
  double ripple_v = 0.0;      ///< vmax - vmin within the period.
  int error_code = 0;
  std::uint64_t duty_word = 0;
  double load_a = 0.0;
};

/// Summary statistics over a run (steady-state window).
struct LoopMetrics {
  double mean_vout = 0.0;
  double vout_stddev = 0.0;
  double max_ripple_v = 0.0;
  double mean_abs_error_v = 0.0;
  std::uint64_t distinct_duty_words = 0;  ///< > 2-3 suggests limit cycling.
  bool limit_cycling = false;
};

/// LoopMetrics over samples [from, to) of a loop's sample stream, built one
/// sample at a time: feed every sample from the first on, in period order.
/// A window reaching past the samples fed covers the ones that were; an
/// empty window yields all-zero metrics.  DigitallyControlledBuck::metrics
/// feeds its history through this, so the online and the history-based
/// results are the same bits.
class LoopMetricsAccumulator {
 public:
  /// `vref_v`: the reference the mean absolute error is measured from.
  LoopMetricsAccumulator(std::uint64_t from, std::uint64_t to, double vref_v);

  void add(const LoopSample& sample);
  LoopMetrics metrics() const;

 private:
  std::uint64_t from_;
  std::uint64_t to_;
  double vref_v_;
  std::uint64_t next_ = 0;  ///< Stream index of the next sample.
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double sum_abs_err_ = 0.0;
  double max_ripple_v_ = 0.0;
  std::set<std::uint64_t> duty_words_;
};

/// First stream index where |vout - vref| stayed within `band_v` for
/// `hold_periods` consecutive samples, built one sample at a time (the
/// online form of DigitallyControlledBuck::settling_period).
class SettleDetector {
 public:
  SettleDetector(double vref_v, double band_v,
                 std::uint64_t hold_periods = 20);

  void add(double vout);
  bool settled() const noexcept { return period_ != kNever; }
  /// The settling index, or ~0ULL while not settled.
  std::uint64_t period() const noexcept { return period_; }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  double vref_v_;
  double band_v_;
  std::uint64_t hold_periods_;
  std::uint64_t next_ = 0;
  std::uint64_t consecutive_ = 0;
  std::uint64_t period_ = kNever;
};

/// One switching period's controller output: what the pre-plant half of
/// DigitallyControlledBuck hands the plant, and the post-plant half records.
struct PeriodStep {
  std::uint64_t period_index = 0;
  double load_a = 0.0;
  int error_code = 0;
  std::uint64_t duty_word = 0;
  dpwm::PwmPeriod pwm;
};

/// Load profile: current demanded at a given switching period.
using LoadProfile = std::function<double(std::uint64_t period_index)>;

/// Constant-load helper.
LoadProfile constant_load(double amps);

/// Step-load helper: `before` amps, then `after` amps from `at_period` on.
LoadProfile step_load(double before, double after, std::uint64_t at_period);

/// Ramp-load helper: `from` amps until `start_period`, then a linear ramp
/// to `to` amps at `end_period`, holding `to` afterwards.  A degenerate
/// ramp (`end_period <= start_period`) behaves like step_load.
LoadProfile ramp_load(double from, double to, std::uint64_t start_period,
                      std::uint64_t end_period);

/// Bursty (two-state Markov) load: `idle_a` amps with per-period
/// probability `p_burst` of entering a burst of `burst_a` amps, which ends
/// with per-period probability `p_idle`.  Deterministic for a given seed.
/// Models a processor workload for power-management studies.
LoadProfile markov_load(std::uint64_t seed, double idle_a, double burst_a,
                        double p_burst = 0.01, double p_idle = 0.05);

class DigitallyControlledBuck {
 public:
  /// The DPWM model is borrowed (caller keeps ownership and may inspect its
  /// calibration state between runs).
  DigitallyControlledBuck(analog::BuckConverter plant, analog::WindowAdc adc,
                          PidController pid, dpwm::DpwmModel& dpwm);

  /// Runs `periods` switching periods against the load profile, recording
  /// one LoopSample each in history().  Each period is begin_period, the
  /// plant's run_period, then end_period.
  void run(std::uint64_t periods, const LoadProfile& load);

  /// The pre-plant half of the next period: load current, ADC sample, PID
  /// update and DPWM modulation.  The plant must then run `step.pwm` at
  /// `step.load_a` -- plant().run_period, or an analog::PlantLanes lane,
  /// which is bit-identical -- before end_period(step).
  PeriodStep begin_period(const LoadProfile& load);

  /// The post-plant half: builds the period's LoopSample from the plant's
  /// state, notifies the sample observer and returns it.  run() records it
  /// in history(); a caller driving the two halves itself keeps what it
  /// needs of it.
  LoopSample end_period(const PeriodStep& step);

  /// The samples run() recorded.
  const std::vector<LoopSample>& history() const noexcept { return history_; }
  const analog::BuckConverter& plant() const noexcept { return plant_; }
  analog::BuckConverter& plant() noexcept { return plant_; }

  /// Metrics over history periods [from, to), measured from the current
  /// reference (LoopMetricsAccumulator over the history).
  LoopMetrics metrics(std::uint64_t from, std::uint64_t to) const;

  /// First period index where |verr| stayed within `band_v` for
  /// `hold_periods` consecutive periods; returns ~0ULL if never settled
  /// (SettleDetector over the history).
  std::uint64_t settling_period(double band_v,
                                std::uint64_t hold_periods = 20) const;

  /// Changes the regulation target (DVFS mode change); takes effect on the
  /// next period's ADC sample.
  void set_reference_v(double vref);
  double reference_v() const noexcept { return adc_.params().vref; }

  /// Observer called once per period with the sample just recorded (after
  /// the plant ran the period).  A lock supervisor hooks its duty-error
  /// watchdog here; replaces any previous observer, empty disables.
  using SampleObserver = std::function<void(const LoopSample&)>;
  void set_sample_observer(SampleObserver observer);

 private:
  analog::BuckConverter plant_;
  analog::WindowAdc adc_;
  PidController pid_;
  dpwm::DpwmModel* dpwm_;
  std::vector<LoopSample> history_;
  std::uint64_t next_period_index_ = 0;
  SampleObserver observer_;
};

}  // namespace ddl::control
