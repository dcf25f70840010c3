#include "ddl/control/closed_loop.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

namespace ddl::control {

LoadProfile constant_load(double amps) {
  return [amps](std::uint64_t) { return amps; };
}

LoadProfile step_load(double before, double after, std::uint64_t at_period) {
  return [before, after, at_period](std::uint64_t period) {
    return period < at_period ? before : after;
  };
}

LoadProfile ramp_load(double from, double to, std::uint64_t start_period,
                      std::uint64_t end_period) {
  if (end_period <= start_period) {
    return step_load(from, to, start_period);
  }
  return [=](std::uint64_t period) {
    if (period <= start_period) {
      return from;
    }
    if (period >= end_period) {
      return to;
    }
    const double fraction = static_cast<double>(period - start_period) /
                            static_cast<double>(end_period - start_period);
    return from + (to - from) * fraction;
  };
}

LoadProfile markov_load(std::uint64_t seed, double idle_a, double burst_a,
                        double p_burst, double p_idle) {
  // State advances with the period index; the profile may be re-evaluated
  // for the same period, so state is cached per call index.
  auto state = std::make_shared<std::pair<std::uint64_t, bool>>(0, false);
  auto rng = std::make_shared<std::mt19937_64>(seed);
  return [=](std::uint64_t period) {
    auto& [next_period, bursting] = *state;
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    while (next_period <= period) {
      bursting = bursting ? uniform(*rng) >= p_idle
                          : uniform(*rng) < p_burst;
      ++next_period;
    }
    return bursting ? burst_a : idle_a;
  };
}

DigitallyControlledBuck::DigitallyControlledBuck(analog::BuckConverter plant,
                                                 analog::WindowAdc adc,
                                                 PidController pid,
                                                 dpwm::DpwmModel& dpwm)
    : plant_(std::move(plant)),
      adc_(std::move(adc)),
      pid_(std::move(pid)),
      dpwm_(&dpwm) {}

void DigitallyControlledBuck::run(std::uint64_t periods,
                                  const LoadProfile& load) {
  for (std::uint64_t i = 0; i < periods; ++i) {
    const PeriodStep step = begin_period(load);
    plant_.run_period(step.pwm, step.load_a);
    history_.push_back(end_period(step));
  }
}

PeriodStep DigitallyControlledBuck::begin_period(const LoadProfile& load) {
  PeriodStep step;
  step.period_index = next_period_index_++;
  step.load_a = load(step.period_index);

  // Sample -> quantize -> compensate: the duty word for *this* period is
  // computed from the previous period's output (one-cycle loop latency,
  // as in real digital controllers).
  step.error_code = adc_.sample(plant_.output_voltage());
  step.duty_word = pid_.update(step.error_code);

  // Modulate; the caller runs the power stage through the period.
  step.pwm = dpwm_->generate(
      static_cast<sim::Time>(step.period_index) * dpwm_->period_ps(),
      step.duty_word);
  return step;
}

LoopSample DigitallyControlledBuck::end_period(const PeriodStep& step) {
  LoopSample sample;
  sample.period_index = step.period_index;
  sample.vout = plant_.output_voltage();
  sample.ripple_v = plant_.last_period_vmax() - plant_.last_period_vmin();
  sample.error_code = step.error_code;
  sample.duty_word = step.duty_word;
  sample.load_a = step.load_a;
  if (observer_) {
    observer_(sample);
  }
  return sample;
}

void DigitallyControlledBuck::set_sample_observer(SampleObserver observer) {
  observer_ = std::move(observer);
}

LoopMetrics DigitallyControlledBuck::metrics(std::uint64_t from,
                                             std::uint64_t to) const {
  LoopMetricsAccumulator accumulator(from, to, adc_.params().vref);
  const std::uint64_t end = std::min<std::uint64_t>(to, history_.size());
  for (std::uint64_t i = 0; i < end; ++i) {
    accumulator.add(history_[i]);
  }
  return accumulator.metrics();
}

void DigitallyControlledBuck::set_reference_v(double vref) {
  analog::WindowAdcParams params = adc_.params();
  params.vref = vref;
  adc_ = analog::WindowAdc(params);
}

std::uint64_t DigitallyControlledBuck::settling_period(
    double band_v, std::uint64_t hold_periods) const {
  SettleDetector detector(adc_.params().vref, band_v, hold_periods);
  for (std::size_t i = 0; i < history_.size() && !detector.settled(); ++i) {
    detector.add(history_[i].vout);
  }
  return detector.period();
}

LoopMetricsAccumulator::LoopMetricsAccumulator(std::uint64_t from,
                                               std::uint64_t to,
                                               double vref_v)
    : from_(from), to_(to), vref_v_(vref_v) {}

void LoopMetricsAccumulator::add(const LoopSample& sample) {
  const std::uint64_t index = next_++;
  if (index < from_ || index >= to_) {
    return;
  }
  ++count_;
  sum_ += sample.vout;
  sum_sq_ += sample.vout * sample.vout;
  sum_abs_err_ += std::abs(sample.vout - vref_v_);
  max_ripple_v_ = std::max(max_ripple_v_, sample.ripple_v);
  duty_words_.insert(sample.duty_word);
}

LoopMetrics LoopMetricsAccumulator::metrics() const {
  LoopMetrics m;
  if (count_ == 0) {
    return m;
  }
  const double n = static_cast<double>(count_);
  m.mean_vout = sum_ / n;
  const double variance =
      std::max(0.0, sum_sq_ / n - m.mean_vout * m.mean_vout);
  m.vout_stddev = std::sqrt(variance);
  m.max_ripple_v = max_ripple_v_;
  m.mean_abs_error_v = sum_abs_err_ / n;
  m.distinct_duty_words = duty_words_.size();
  // Steady state should sit on at most two adjacent duty words; more means
  // the loop is hunting (limit cycle from DPWM resolution coarser than the
  // ADC window).
  m.limit_cycling = m.distinct_duty_words > 3;
  return m;
}

SettleDetector::SettleDetector(double vref_v, double band_v,
                               std::uint64_t hold_periods)
    : vref_v_(vref_v), band_v_(band_v), hold_periods_(hold_periods) {}

void SettleDetector::add(double vout) {
  const std::uint64_t index = next_++;
  if (settled()) {
    return;
  }
  if (std::abs(vout - vref_v_) <= band_v_) {
    if (++consecutive_ >= hold_periods_) {
      period_ = index + 1 - hold_periods_;
    }
  } else {
    consecutive_ = 0;
  }
}

}  // namespace ddl::control
