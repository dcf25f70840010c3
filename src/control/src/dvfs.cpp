#include "ddl/control/dvfs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ddl::control {

VoltageModeManager::VoltageModeManager(std::vector<VoltageMode> schedule,
                                       double band_v,
                                       std::uint64_t hold_periods)
    : schedule_(std::move(schedule)),
      band_v_(band_v),
      hold_periods_(hold_periods) {
  if (!std::is_sorted(schedule_.begin(), schedule_.end(),
                      [](const VoltageMode& a, const VoltageMode& b) {
                        return a.at_period < b.at_period;
                      })) {
    throw std::invalid_argument(
        "VoltageModeManager: schedule must be sorted by at_period");
  }
}

std::vector<TransitionReport> VoltageModeManager::run(
    DigitallyControlledBuck& loop, std::uint64_t total_periods,
    const LoadProfile& load) {
  const std::uint64_t base = loop.history().size();
  previous_vref_.clear();
  const std::uint64_t length = run_length(total_periods);
  for (std::uint64_t period = 0; period < length; ++period) {
    apply_due(loop, period);
    loop.run(1, load);
  }
  apply_due(loop, length);
  return reports(loop, base, total_periods);
}

std::uint64_t VoltageModeManager::run_length(
    std::uint64_t total_periods) const noexcept {
  return schedule_.empty()
             ? total_periods
             : std::max(total_periods, schedule_.back().at_period);
}

void VoltageModeManager::apply_due(DigitallyControlledBuck& loop,
                                   std::uint64_t period) {
  while (previous_vref_.size() < schedule_.size() &&
         schedule_[previous_vref_.size()].at_period <= period) {
    previous_vref_.push_back(loop.reference_v());
    loop.set_reference_v(schedule_[previous_vref_.size() - 1].vref_v);
  }
}

std::vector<TransitionReport> VoltageModeManager::reports(
    const DigitallyControlledBuck& loop, std::uint64_t base,
    std::uint64_t total_periods) const {
  std::vector<TransitionReport> reports;
  for (std::size_t i = 0; i < previous_vref_.size(); ++i) {
    const VoltageMode& mode = schedule_[i];
    const std::uint64_t until = i + 1 < schedule_.size()
                                    ? schedule_[i + 1].at_period
                                    : total_periods;

    // Measure the transition over [at_period, until).
    TransitionReport report;
    report.mode = mode;
    const double direction = mode.vref_v - previous_vref_[i];
    std::uint64_t consecutive = 0;
    for (std::uint64_t p = mode.at_period; p < until; ++p) {
      const double vout = loop.history()[base + p].vout;
      const double excursion =
          direction >= 0.0 ? vout - mode.vref_v : mode.vref_v - vout;
      report.overshoot_v = std::max(report.overshoot_v, excursion);
      if (std::abs(vout - mode.vref_v) <= band_v_) {
        if (++consecutive >= hold_periods_ && !report.settled) {
          report.settled = true;
          report.settle_periods = p + 1 - hold_periods_ - mode.at_period;
        }
      } else if (!report.settled) {
        consecutive = 0;
      }
    }
    reports.push_back(report);
  }
  return reports;
}

}  // namespace ddl::control
