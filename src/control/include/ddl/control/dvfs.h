// Dynamic voltage scaling on top of the closed loop -- the thesis's
// motivating use case (section 1.2: circuits with "a normal operation mode
// and a power saving mode", each needing its own supply value; intro ref
// [14]: fast per-core DVFS through on-chip regulators).
//
// A VoltageModeManager walks the loop through a schedule of reference-
// voltage changes and reports per-transition settling metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "ddl/control/closed_loop.h"

namespace ddl::control {

/// One scheduled operating mode.
struct VoltageMode {
  std::uint64_t at_period = 0;  ///< Switching period the mode takes effect.
  double vref_v = 1.0;          ///< Regulation target for the mode.
};

/// Outcome of one mode transition.
struct TransitionReport {
  VoltageMode mode;
  std::uint64_t settle_periods = 0;  ///< Periods to enter/hold the band.
  double overshoot_v = 0.0;          ///< Worst excursion beyond the target.
  bool settled = false;
};

/// Runs a closed loop through a voltage-mode schedule.
class VoltageModeManager {
 public:
  /// `band_v`: settling band around each target; `hold_periods`: how long
  /// the output must stay inside the band to count as settled.
  VoltageModeManager(std::vector<VoltageMode> schedule, double band_v = 0.02,
                     std::uint64_t hold_periods = 20);

  /// Runs `total_periods` of the loop, applying each mode at its period and
  /// measuring the transition.  Modes must be sorted by at_period.  Built
  /// from the resumable steps below: for every period p < run_length,
  /// apply_due(p) then one loop period; apply_due(run_length); reports.
  std::vector<TransitionReport> run(DigitallyControlledBuck& loop,
                                    std::uint64_t total_periods,
                                    const LoadProfile& load);

  /// Periods run() simulates: `total_periods`, or up to the last mode when
  /// the schedule reaches past it.
  std::uint64_t run_length(std::uint64_t total_periods) const noexcept;

  /// Applies every not-yet-applied mode with at_period <= `period` to the
  /// loop's reference, in schedule order.  Call before each period's
  /// pre-plant half, and once with run_length at the end.
  void apply_due(DigitallyControlledBuck& loop, std::uint64_t period);

  /// Per-transition reports over the loop's history from sample `base`
  /// on, once apply_due has applied every mode (a TransitionMeter fed the
  /// history).
  std::vector<TransitionReport> reports(const DigitallyControlledBuck& loop,
                                        std::uint64_t base,
                                        std::uint64_t total_periods) const;

  const std::vector<VoltageMode>& schedule() const noexcept {
    return schedule_;
  }
  double band_v() const noexcept { return band_v_; }
  std::uint64_t hold_periods() const noexcept { return hold_periods_; }

  /// The loop's reference just before each applied mode took effect, one
  /// per mode apply_due has applied so far, in schedule order.
  const std::vector<double>& previous_vrefs() const noexcept {
    return previous_vref_;
  }

 private:
  std::vector<VoltageMode> schedule_;
  double band_v_;
  std::uint64_t hold_periods_;
  /// The loop's reference just before each applied mode took effect.
  std::vector<double> previous_vref_;
};

/// The transition reports of one VoltageModeManager run, built one sample
/// at a time.  Mode i is measured over periods [at_period_i, until_i),
/// until_i being the next mode's at_period or, for the last mode,
/// `total_periods`; periods count from the run's first sample.  Feed the
/// loop's output for every period in ascending order, each after
/// apply_due(period) -- so the modes whose windows it opens are applied.
class TransitionMeter {
 public:
  /// `manager` must outlive the meter.
  TransitionMeter(const VoltageModeManager& manager,
                  std::uint64_t total_periods);

  void add(std::uint64_t period, double vout);

  /// One report per mode the manager has applied, schedule order.
  std::vector<TransitionReport> reports() const;

 private:
  const VoltageModeManager* manager_;
  std::uint64_t total_periods_;
  std::vector<TransitionReport> reports_;  ///< Modes measured so far.
  std::size_t entered_ = 0;  ///< Applied modes whose window has opened.
  std::uint64_t consecutive_ = 0;
};

}  // namespace ddl::control
