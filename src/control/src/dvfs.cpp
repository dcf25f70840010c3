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
  TransitionMeter meter(*this, total_periods);
  const std::vector<LoopSample>& history = loop.history();
  for (std::uint64_t p = 0; base + p < history.size(); ++p) {
    meter.add(p, history[base + p].vout);
  }
  return meter.reports();
}

TransitionMeter::TransitionMeter(const VoltageModeManager& manager,
                                 std::uint64_t total_periods)
    : manager_(&manager), total_periods_(total_periods) {}

void TransitionMeter::add(std::uint64_t period, double vout) {
  const std::vector<VoltageMode>& schedule = manager_->schedule();
  const std::vector<double>& previous = manager_->previous_vrefs();
  // Windows are disjoint and ascending: `period` belongs to the last
  // applied mode at or before it, if it precedes that mode's end.
  while (entered_ < previous.size() &&
         schedule[entered_].at_period <= period) {
    ++entered_;
    consecutive_ = 0;
  }
  if (entered_ == 0) {
    return;
  }
  const std::size_t i = entered_ - 1;
  const std::uint64_t until =
      i + 1 < schedule.size() ? schedule[i + 1].at_period : total_periods_;
  if (period >= until) {
    return;
  }
  while (reports_.size() <= i) {
    reports_.push_back(TransitionReport{schedule[reports_.size()]});
  }
  TransitionReport& report = reports_[i];
  const VoltageMode& mode = report.mode;
  const double direction = mode.vref_v - previous[i];
  const double excursion =
      direction >= 0.0 ? vout - mode.vref_v : mode.vref_v - vout;
  report.overshoot_v = std::max(report.overshoot_v, excursion);
  if (std::abs(vout - mode.vref_v) <= manager_->band_v()) {
    if (++consecutive_ >= manager_->hold_periods() && !report.settled) {
      report.settled = true;
      report.settle_periods =
          period + 1 - manager_->hold_periods() - mode.at_period;
    }
  } else if (!report.settled) {
    consecutive_ = 0;
  }
}

std::vector<TransitionReport> TransitionMeter::reports() const {
  const std::vector<VoltageMode>& schedule = manager_->schedule();
  std::vector<TransitionReport> reports = reports_;
  while (reports.size() < manager_->previous_vrefs().size()) {
    reports.push_back(TransitionReport{schedule[reports.size()]});
  }
  return reports;
}

}  // namespace ddl::control
