// Tests for the PID compensator and the closed-loop digitally controlled
// buck converter (thesis Figure 15).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <set>
#include <vector>

#include "ddl/control/closed_loop.h"
#include "ddl/control/dvfs.h"
#include "ddl/dpwm/behavioral.h"

namespace ddl::control {
namespace {

// ~1 MHz switching; a power of two so counter DPWMs divide it exactly.
constexpr sim::Time kPeriod = 1'048'576;

analog::BuckParams plant_params() {
  analog::BuckParams params;
  params.vin = 3.0;
  return params;
}

analog::WindowAdcParams adc_params() {
  return analog::WindowAdcParams{1.0, 10e-3, 7};
}

// A 10-bit DPWM: word for ~1 V out of 3 V is ~341.
PidController make_pid(std::uint64_t duty_max = 1023,
                       std::uint64_t duty_init = 341) {
  return PidController(PidParams{}, duty_max, duty_init);
}

TEST(Pid, RejectsBadRanges) {
  EXPECT_THROW(PidController(PidParams{}, 0, 0), std::invalid_argument);
  EXPECT_THROW(PidController(PidParams{}, 10, 11), std::invalid_argument);
}

TEST(Pid, ZeroErrorHoldsDuty) {
  auto pid = make_pid();
  const auto d0 = pid.update(0);
  EXPECT_EQ(d0, 341u);
  EXPECT_EQ(pid.update(0), d0);
}

TEST(Pid, PositiveErrorRaisesDuty) {
  auto pid = make_pid();
  EXPECT_GT(pid.update(3), 341u);
}

TEST(Pid, IntegratorAccumulatesPersistentError) {
  auto pid = make_pid();
  const auto first = pid.update(1);
  std::uint64_t last = first;
  // ki is small (~0.016), so give the integrator room to show.
  for (int i = 0; i < 300; ++i) {
    last = pid.update(1);
  }
  EXPECT_GT(last, first);
}

TEST(Pid, OutputClampsToRange) {
  auto pid = make_pid();
  for (int i = 0; i < 10'000; ++i) {
    pid.update(7);
  }
  EXPECT_EQ(pid.duty(), 1023u);
  pid.reset();
  for (int i = 0; i < 10'000; ++i) {
    pid.update(-7);
  }
  EXPECT_EQ(pid.duty(), 0u);
}

TEST(Pid, IntegratorSaturates) {
  PidParams params;
  params.integrator_max = 100;
  params.integrator_min = -100;
  PidController pid(params, 1023, 341);
  for (int i = 0; i < 1000; ++i) {
    pid.update(7);
  }
  EXPECT_EQ(pid.integrator(), 100);
}

TEST(Pid, ResetRestoresInitialState) {
  auto pid = make_pid();
  pid.update(5);
  pid.reset();
  EXPECT_EQ(pid.duty(), 341u);
  EXPECT_EQ(pid.integrator(), 0);
}

// ---- Closed loop -----------------------------------------------------------

TEST(ClosedLoop, SettlesToReferenceWithFineDpwm) {
  dpwm::CounterDpwm dpwm(10, kPeriod);  // ~3 mV DPWM LSB < 10 mV ADC LSB.
  DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                               analog::WindowAdc(adc_params()), make_pid(),
                               dpwm);
  loop.run(3000, constant_load(0.4));
  const auto metrics = loop.metrics(2000, 3000);
  EXPECT_NEAR(metrics.mean_vout, 1.0, 0.02);
  EXPECT_FALSE(metrics.limit_cycling);
  EXPECT_LT(loop.settling_period(0.03), 2500u);
}

TEST(ClosedLoop, CoarseDpwmLimitCycles) {
  // The resolution rule behind the whole thesis (section 2.2): if the DPWM
  // LSB (3 V / 16 = 187 mV) is far coarser than the ADC LSB (10 mV), no
  // duty word holds the output inside the zero bin and the loop hunts.
  dpwm::CounterDpwm coarse(4, kPeriod);
  DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                               analog::WindowAdc(adc_params()),
                               make_pid(15, 5), coarse);
  loop.run(3000, constant_load(0.4));
  const auto metrics = loop.metrics(2000, 3000);
  EXPECT_TRUE(metrics.limit_cycling);
  EXPECT_GT(metrics.vout_stddev, 0.005);
}

TEST(ClosedLoop, RecoversFromLoadStep) {
  dpwm::CounterDpwm dpwm(10, kPeriod);
  DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                               analog::WindowAdc(adc_params()), make_pid(),
                               dpwm);
  loop.run(2500, step_load(0.2, 1.0, 1500));
  // Transient droop right after the step...
  double min_after_step = 10.0;
  for (std::uint64_t i = 1500; i < 1700; ++i) {
    min_after_step = std::min(min_after_step, loop.history()[i].vout);
  }
  EXPECT_LT(min_after_step, 0.995);
  // ...but the loop pulls the output back.
  const auto metrics = loop.metrics(2300, 2500);
  EXPECT_NEAR(metrics.mean_vout, 1.0, 0.03);
}

TEST(ClosedLoop, HistoryRecordsEveryPeriod) {
  dpwm::CounterDpwm dpwm(10, kPeriod);
  DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                               analog::WindowAdc(adc_params()), make_pid(),
                               dpwm);
  loop.run(10, constant_load(0.1));
  loop.run(5, constant_load(0.1));
  ASSERT_EQ(loop.history().size(), 15u);
  EXPECT_EQ(loop.history()[14].period_index, 14u);
}

TEST(ClosedLoop, MetricsWindowIsHalfOpenAndClamped) {
  dpwm::CounterDpwm dpwm(10, kPeriod);
  DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                               analog::WindowAdc(adc_params()), make_pid(),
                               dpwm);
  loop.run(10, constant_load(0.1));
  EXPECT_EQ(loop.metrics(5, 5).distinct_duty_words, 0u);
  EXPECT_GT(loop.metrics(0, 100).distinct_duty_words, 0u);  // Clamped to 10.
}

TEST(ClosedLoop, SettlingNeverWhenBandImpossiblyTight) {
  dpwm::CounterDpwm dpwm(10, kPeriod);
  DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                               analog::WindowAdc(adc_params()), make_pid(),
                               dpwm);
  loop.run(100, constant_load(0.4));
  EXPECT_EQ(loop.settling_period(1e-9), ~std::uint64_t{0});
}

// ---- Online verdict accumulators -------------------------------------------
//
// The accumulators replace one-pass loops over a stored history.  Those
// loops are kept here verbatim as the reference: fed the same samples, the
// online results must be the same bits.

LoopMetrics history_metrics(const std::vector<LoopSample>& history,
                            std::uint64_t from, std::uint64_t to,
                            double vref) {
  LoopMetrics m;
  to = std::min<std::uint64_t>(to, history.size());
  if (from >= to) {
    return m;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  double sum_abs_err = 0.0;
  std::set<std::uint64_t> duty_words;
  for (std::uint64_t i = from; i < to; ++i) {
    const LoopSample& s = history[i];
    sum += s.vout;
    sum_sq += s.vout * s.vout;
    sum_abs_err += std::abs(s.vout - vref);
    m.max_ripple_v = std::max(m.max_ripple_v, s.ripple_v);
    duty_words.insert(s.duty_word);
  }
  const double n = static_cast<double>(to - from);
  m.mean_vout = sum / n;
  const double variance = std::max(0.0, sum_sq / n - m.mean_vout * m.mean_vout);
  m.vout_stddev = std::sqrt(variance);
  m.mean_abs_error_v = sum_abs_err / n;
  m.distinct_duty_words = duty_words.size();
  m.limit_cycling = m.distinct_duty_words > 3;
  return m;
}

std::uint64_t history_settling(const std::vector<LoopSample>& history,
                               double vref, double band_v,
                               std::uint64_t hold_periods) {
  std::uint64_t consecutive = 0;
  for (std::uint64_t i = 0; i < history.size(); ++i) {
    if (std::abs(history[i].vout - vref) <= band_v) {
      if (++consecutive >= hold_periods) {
        return i + 1 - hold_periods;
      }
    } else {
      consecutive = 0;
    }
  }
  return ~std::uint64_t{0};
}

std::vector<TransitionReport> history_reports(
    const std::vector<VoltageMode>& schedule,
    const std::vector<double>& previous_vref, const std::vector<double>& vout,
    double band_v, std::uint64_t hold_periods, std::uint64_t total_periods) {
  std::vector<TransitionReport> reports;
  for (std::size_t i = 0; i < previous_vref.size(); ++i) {
    const VoltageMode& mode = schedule[i];
    const std::uint64_t until = i + 1 < schedule.size()
                                    ? schedule[i + 1].at_period
                                    : total_periods;
    TransitionReport report;
    report.mode = mode;
    const double direction = mode.vref_v - previous_vref[i];
    std::uint64_t consecutive = 0;
    for (std::uint64_t p = mode.at_period; p < until; ++p) {
      const double excursion =
          direction >= 0.0 ? vout[p] - mode.vref_v : mode.vref_v - vout[p];
      report.overshoot_v = std::max(report.overshoot_v, excursion);
      if (std::abs(vout[p] - mode.vref_v) <= band_v) {
        if (++consecutive >= hold_periods && !report.settled) {
          report.settled = true;
          report.settle_periods = p + 1 - hold_periods - mode.at_period;
        }
      } else if (!report.settled) {
        consecutive = 0;
      }
    }
    reports.push_back(report);
  }
  return reports;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_bits(const LoopMetrics& a, const LoopMetrics& b) {
  EXPECT_EQ(bits(a.mean_vout), bits(b.mean_vout));
  EXPECT_EQ(bits(a.vout_stddev), bits(b.vout_stddev));
  EXPECT_EQ(bits(a.max_ripple_v), bits(b.max_ripple_v));
  EXPECT_EQ(bits(a.mean_abs_error_v), bits(b.mean_abs_error_v));
  EXPECT_EQ(a.distinct_duty_words, b.distinct_duty_words);
  EXPECT_EQ(a.limit_cycling, b.limit_cycling);
}

void expect_same_bits(const std::vector<TransitionReport>& a,
                      const std::vector<TransitionReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mode.at_period, b[i].mode.at_period) << "mode " << i;
    EXPECT_EQ(bits(a[i].mode.vref_v), bits(b[i].mode.vref_v)) << "mode " << i;
    EXPECT_EQ(a[i].settle_periods, b[i].settle_periods) << "mode " << i;
    EXPECT_EQ(bits(a[i].overshoot_v), bits(b[i].overshoot_v)) << "mode " << i;
    EXPECT_EQ(a[i].settled, b[i].settled) << "mode " << i;
  }
}

/// A seeded output trace around `vref`: a decaying excursion (so some
/// streams settle and some never do), noise, and occasional spikes out of
/// the band.
double noisy_vout(std::mt19937_64& rng, double vref, std::uint64_t age) {
  std::normal_distribution<double> noise(0.0, 0.01);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double excursion = 0.2 * std::exp(-static_cast<double>(age) / 40.0);
  const double spike = uniform(rng) < 0.02 ? 0.1 : 0.0;
  return vref + excursion + spike + noise(rng);
}

TEST(Accumulators, MetricsAndSettlingMatchTheHistoryLoopsBitForBit) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::uint64_t n = rng() % 400;
    const double vref = 0.8 + 0.05 * static_cast<double>(rng() % 8);
    std::vector<LoopSample> history(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      history[i].period_index = i;
      history[i].vout = noisy_vout(rng, vref, i);
      history[i].ripple_v = 1e-3 * static_cast<double>(rng() % 1000);
      history[i].duty_word = 300 + rng() % 6;
    }
    // Windows at the edges: all of it, empty at either end, reaching past
    // the history, inverted, and one at random.
    const std::uint64_t a = n == 0 ? 0 : rng() % n;
    const std::uint64_t b = n == 0 ? 0 : rng() % n;
    const std::pair<std::uint64_t, std::uint64_t> windows[] = {
        {0, n}, {0, 0}, {n, n}, {0, n + 17}, {n / 2, n + 1},
        {n + 3, n + 9}, {b, a}, {std::min(a, b), std::max(a, b)}};
    for (const auto& [from, to] : windows) {
      LoopMetricsAccumulator online(from, to, vref);
      for (const LoopSample& sample : history) {
        online.add(sample);
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " window [" +
                   std::to_string(from) + ", " + std::to_string(to) + ")");
      expect_same_bits(online.metrics(),
                       history_metrics(history, from, to, vref));
    }
    for (const std::uint64_t hold : {0u, 1u, 5u, 20u}) {
      SettleDetector online(vref, 0.02, hold);
      for (const LoopSample& sample : history) {
        online.add(sample.vout);
      }
      EXPECT_EQ(online.period(), history_settling(history, vref, 0.02, hold))
          << "seed " << seed << " hold " << hold;
    }
  }
}

TEST(Accumulators, TransitionMeterMatchesTheHistoryLoopBitForBit) {
  dpwm::CounterDpwm dpwm(10, kPeriod);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::uint64_t total = rng() % 300;
    // 0-4 modes, sorted, some at or past the run's end.
    std::vector<VoltageMode> schedule(rng() % 5);
    for (VoltageMode& mode : schedule) {
      mode.at_period = rng() % (total + 40);
      mode.vref_v = 0.7 + 0.1 * static_cast<double>(rng() % 6);
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const VoltageMode& x, const VoltageMode& y) {
                return x.at_period < y.at_period;
              });
    const std::uint64_t hold = 1 + rng() % 20;
    VoltageModeManager manager(schedule, 0.02, hold);
    DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                                 analog::WindowAdc(adc_params()), make_pid(),
                                 dpwm);
    // The online order of a run: apply_due(p), then period p's sample.
    TransitionMeter online(manager, total);
    const std::uint64_t length = manager.run_length(total);
    std::vector<double> vout;
    std::uint64_t since_change = 0;
    double reference = loop.reference_v();
    for (std::uint64_t p = 0; p < length; ++p) {
      manager.apply_due(loop, p);
      if (loop.reference_v() != reference) {
        reference = loop.reference_v();
        since_change = 0;
      }
      vout.push_back(noisy_vout(rng, reference, since_change++));
      online.add(p, vout.back());
    }
    manager.apply_due(loop, length);
    ASSERT_EQ(manager.previous_vrefs().size(), schedule.size());
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_bits(online.reports(),
                     history_reports(schedule, manager.previous_vrefs(), vout,
                                     0.02, hold, total));
  }
}

TEST(Accumulators, HistoryWrappersMatchTheHistoryLoops) {
  // metrics(), settling_period() and reports() feed a real run's stored
  // history through the accumulators.
  dpwm::CounterDpwm dpwm(10, kPeriod);
  DigitallyControlledBuck loop(analog::BuckConverter(plant_params()),
                               analog::WindowAdc(adc_params()), make_pid(),
                               dpwm);
  VoltageModeManager manager({{0, 0.9}, {250, 1.1}, {600, 0.8}}, 0.03);
  const auto reports = manager.run(loop, 500, step_load(0.2, 0.6, 100));
  const std::vector<LoopSample>& history = loop.history();
  ASSERT_EQ(history.size(), 600u);
  std::vector<double> vout;
  for (const LoopSample& sample : history) {
    vout.push_back(sample.vout);
  }
  expect_same_bits(reports, history_reports(manager.schedule(),
                                            manager.previous_vrefs(), vout,
                                            0.03, 20, 500));
  EXPECT_EQ(reports.size(), 3u);
  for (const auto& [from, to] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 600}, {450, 500},
        {600, 600}, {300, 900}}) {
    expect_same_bits(loop.metrics(from, to),
                     history_metrics(history, from, to, loop.reference_v()));
  }
  EXPECT_EQ(loop.settling_period(0.03),
            history_settling(history, loop.reference_v(), 0.03, 20));
}

}  // namespace
}  // namespace ddl::control
