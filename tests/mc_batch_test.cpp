// Tests for the batched Monte-Carlo die kernel (analysis/mc_batch.h).
//
// The engine's headline contract is *bit-identity*: every batched die must
// equal the scalar reference path -- which drives the real
// ProposedDelayLine / ProposedController / DutyMapper objects -- exactly,
// for any trial count, thread count, lane position and kernel variant.
// These tests cross-validate die-by-die, so a single diverging die fails
// with its index and both bit patterns.  ctest runs them on the dispatched
// kernel and again as base_kernel_mc_batch_test, and collects the offending
// seed as an artifact (DDL_MC_EQUIV_ARTIFACT below).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/mc_batch.h"
#include "ddl/analysis/monte_carlo.h"
#include "ddl/cells/batch_mismatch.h"
#include "ddl/core/proposed_controller.h"
#include "ddl/core/proposed_line.h"
#include "ddl/dpwm/behavioral.h"

namespace ddl::analysis {
namespace {

const cells::Technology& tech() {
  static const auto kTech = cells::Technology::i32nm_class();
  return kTech;
}

McBatchSpec fig50_spec() {
  McBatchSpec spec;
  spec.line = BatchLineSpec::from_technology(tech(), {256, 2});
  spec.clock_period_ps = 10'000.0;
  return spec;
}

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// When DDL_MC_EQUIV_ARTIFACT names a file, records the first diverging
/// die there (base seed, die index, both bit patterns) as the reproducer
/// artifact.
void report_divergence(std::uint64_t base_seed, std::size_t die,
                       std::size_t threads, double batched, double scalar) {
  const char* path = std::getenv("DDL_MC_EQUIV_ARTIFACT");
  if (path == nullptr) {
    return;
  }
  JsonObject record;
  record.set("base_seed", static_cast<std::uint64_t>(base_seed));
  record.set("die_index", static_cast<std::uint64_t>(die));
  record.set("die_seed", die_seed(base_seed, die));
  record.set("threads", static_cast<std::uint64_t>(threads));
  record.set("batched_value", batched);
  record.set("scalar_value", scalar);
  record.set("batched_bits", bits_of(batched));
  record.set("scalar_bits", bits_of(scalar));
  record.set("kernel", mc_batch_kernel_name());
  write_file_atomic(path, record.to_json() + "\n");
}

/// Element-wise cross-validation of one batched run against the scalar
/// reference; reports (and artifacts) the first diverging die.
void expect_matches_scalar(const McBatchSpec& spec, std::size_t trials,
                           std::uint64_t base_seed, std::size_t threads) {
  const auto batched =
      monte_carlo_batched_samples(spec, trials, base_seed, threads);
  ASSERT_EQ(batched.size(), trials);
  for (std::size_t i = 0; i < trials; ++i) {
    const double scalar = batch_die_inl_scalar(spec, i, die_seed(base_seed, i));
    if (bits_of(batched[i]) != bits_of(scalar)) {
      report_divergence(base_seed, i, threads, batched[i], scalar);
    }
    ASSERT_EQ(bits_of(batched[i]), bits_of(scalar))
        << "die " << i << " of " << trials << " diverged (base_seed "
        << base_seed << ", threads " << threads << "): batched " << batched[i]
        << " scalar " << scalar;
  }
}

// ---- Bit-identity with the scalar reference -------------------------------

TEST(McBatch, MatchesScalarAcrossSeedsAndThreadCounts) {
  const auto spec = fig50_spec();
  // 257 = 32 full blocks + a 1-die tail; {1, 3} covers serial and a pool
  // whose shard boundaries do not align with the 8-die blocks.
  for (std::uint64_t seed : {std::uint64_t{2024}, std::uint64_t{77},
                             std::uint64_t{0xdeadbeef}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      expect_matches_scalar(spec, 257, seed, threads);
    }
  }
}

TEST(McBatch, SingleDieBatchEqualsScalar) {
  expect_matches_scalar(fig50_spec(), 1, 2024, 1);
}

TEST(McBatch, TailShorterThanLaneWidthEqualsScalar) {
  // 13 dies: one full block + a 5-lane tail; the duplicated tail lanes'
  // outputs must be discarded, not returned.
  expect_matches_scalar(fig50_spec(), 13, 99, 1);
  expect_matches_scalar(fig50_spec(), kBatchLanes - 1, 99, 2);
}

TEST(McBatch, SamplesIdenticalAtEveryThreadCount) {
  const auto spec = fig50_spec();
  const auto serial = monte_carlo_batched_samples(spec, 201, 2024, 1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    EXPECT_EQ(serial, monte_carlo_batched_samples(spec, 201, 2024, threads))
        << "threads=" << threads;
  }
}

TEST(McBatch, SummaryBitIdenticalAcrossThreadCounts) {
  const auto spec = fig50_spec();
  const auto one = monte_carlo_batched(spec, 150, 7, 1);
  const auto four = monte_carlo_batched(spec, 150, 7, 4);
  EXPECT_EQ(bits_of(one.mean), bits_of(four.mean));
  EXPECT_EQ(bits_of(one.stddev), bits_of(four.stddev));
  EXPECT_EQ(bits_of(one.min), bits_of(four.min));
  EXPECT_EQ(bits_of(one.max), bits_of(four.max));
  EXPECT_EQ(bits_of(one.p05), bits_of(four.p05));
  EXPECT_EQ(bits_of(one.p50), bits_of(four.p50));
  EXPECT_EQ(bits_of(one.p95), bits_of(four.p95));
  EXPECT_EQ(one.count, four.count);
}

// ---- Divergence / fallback ------------------------------------------------

TEST(McBatch, FaultedDieFallsBackToScalarAndStillMatches) {
  auto spec = fig50_spec();
  // A 70x fault on one cell pushes that die's crossing tap past the full
  // period: the closed-form lock walk must refuse it and re-run the die on
  // the scalar path (real controller, fmod wrap and all).
  spec.faults.push_back({/*trial=*/3, /*cell=*/5, /*severity=*/70.0});
  McBatchStats stats;
  const auto batched = monte_carlo_batched_samples(spec, 20, 2024, 1, &stats);
  EXPECT_GT(stats.scalar_fallbacks, 0u)
      << "a 70x cell fault should leave the closed form's domain";
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(bits_of(batched[i]),
              bits_of(batch_die_inl_scalar(spec, i, die_seed(2024, i))))
        << "die " << i;
  }
  // The fault is frozen into die 3 only: every other die is bit-identical
  // to the fault-free run.
  const auto clean = monte_carlo_batched_samples(fig50_spec(), 20, 2024, 1);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (i != 3) {
      EXPECT_EQ(bits_of(batched[i]), bits_of(clean[i])) << "die " << i;
    }
  }
  EXPECT_NE(bits_of(batched[3]), bits_of(clean[3]));
}

TEST(McBatch, MultipleFaultsOnOneDieUseScalarPath) {
  auto spec = fig50_spec();
  // The kernel carries at most one fault per lane; two mild faults on the
  // same die must route it to the scalar path and still match the twin
  // (which applies both, in order).
  spec.faults.push_back({/*trial=*/0, /*cell=*/10, /*severity=*/1.2});
  spec.faults.push_back({/*trial=*/0, /*cell=*/11, /*severity=*/0.9});
  McBatchStats stats;
  const auto batched = monte_carlo_batched_samples(spec, 4, 5, 1, &stats);
  EXPECT_GT(stats.scalar_fallbacks, 0u);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(bits_of(batched[i]),
              bits_of(batch_die_inl_scalar(spec, i, die_seed(5, i))))
        << "die " << i;
  }
}

// ---- Explicit-die batching (the scenario planner's entry point) -----------

TEST(McBatchDies, MatchesTrialIndexedRunDieByDie) {
  auto spec = fig50_spec();
  spec.faults.push_back({/*trial=*/3, /*cell=*/5, /*severity=*/70.0});
  spec.faults.push_back({/*trial=*/6, /*cell=*/10, /*severity=*/1.2});
  spec.faults.push_back({/*trial=*/6, /*cell=*/11, /*severity=*/0.9});
  const auto reference = monte_carlo_batched_samples(spec, 21, 2024, 1);

  std::vector<BatchDie> dies(21);
  for (std::size_t i = 0; i < dies.size(); ++i) {
    dies[i].seed = die_seed(2024, i);
    for (const BatchFault& fault : spec.faults) {
      if (fault.trial == i) {
        dies[i].faults.push_back(fault);
      }
    }
  }
  auto dies_spec = spec;
  dies_spec.faults.clear();  // Explicit dies carry their own faults.
  McBatchStats stats;
  const auto samples = monte_carlo_batched_dies(dies_spec, dies, 1, &stats);
  ASSERT_EQ(samples.size(), reference.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(bits_of(samples[i]), bits_of(reference[i])) << "die " << i;
  }
  // Die 3's 70x fault and die 6's compound fault both leave the kernel.
  EXPECT_GE(stats.scalar_fallbacks, 2u);
}

TEST(McBatchDies, CrossScenarioLanePackingIsInvisible) {
  // Interleave dies from two "scenarios" (different base seeds, one with a
  // per-die fault) into one batch: each die must still equal its
  // home-scenario run, regardless of which lanes its neighbours came from.
  auto faulted = fig50_spec();
  for (std::size_t i = 0; i < 9; ++i) {
    faulted.faults.push_back({i, /*cell=*/31, /*severity=*/3.0});
  }
  const auto home_a = monte_carlo_batched_samples(fig50_spec(), 9, 801, 1);
  const auto home_b = monte_carlo_batched_samples(faulted, 9, 77, 1);

  std::vector<BatchDie> dies;
  for (std::size_t i = 0; i < 9; ++i) {
    dies.push_back({die_seed(801, i), {}});
    dies.push_back({die_seed(77, i), {{0, 31, 3.0}}});
  }
  const auto packed = monte_carlo_batched_dies(fig50_spec(), dies, 1);
  ASSERT_EQ(packed.size(), 18u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(bits_of(packed[2 * i]), bits_of(home_a[i])) << "a die " << i;
    EXPECT_EQ(bits_of(packed[2 * i + 1]), bits_of(home_b[i]))
        << "b die " << i;
  }
}

TEST(McBatchDies, IdenticalAtEveryThreadCount) {
  std::vector<BatchDie> dies(37);
  for (std::size_t i = 0; i < dies.size(); ++i) {
    dies[i].seed = die_seed(7, i);
  }
  const auto serial = monte_carlo_batched_dies(fig50_spec(), dies, 1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    EXPECT_EQ(serial, monte_carlo_batched_dies(fig50_spec(), dies, threads))
        << "threads=" << threads;
  }
}

TEST(McBatchDies, EmptyAndInvalidInputs) {
  EXPECT_TRUE(monte_carlo_batched_dies(fig50_spec(), {}).empty());
  std::vector<BatchDie> bad_cell{{1, {{0, /*cell=*/4096, 2.0}}}};
  EXPECT_THROW(monte_carlo_batched_dies(fig50_spec(), bad_cell),
               std::out_of_range);
  std::vector<BatchDie> bad_severity{{1, {{0, /*cell=*/0, 0.0}}}};
  EXPECT_THROW(monte_carlo_batched_dies(fig50_spec(), bad_severity),
               std::invalid_argument);
}

// ---- Kernel dispatch ------------------------------------------------------

TEST(McBatch, BaseKernelBitIdenticalToDispatchedKernel) {
  const auto spec = fig50_spec();
  const auto dispatched = monte_carlo_batched_samples(spec, 64, 2024, 1);
  const std::string default_name = mc_batch_kernel_name();
  // Restore the caller's setting afterwards: the suite also runs with the
  // base kernel forced from the environment.
  const char* caller = std::getenv("DDL_MC_BATCH_KERNEL");
  const std::optional<std::string> saved =
      caller != nullptr ? std::optional<std::string>(caller) : std::nullopt;
  ASSERT_EQ(setenv("DDL_MC_BATCH_KERNEL", "base", 1), 0);
  EXPECT_STREQ(mc_batch_kernel_name(), "base");
  const auto base = monte_carlo_batched_samples(spec, 64, 2024, 1);
  ASSERT_EQ(saved ? setenv("DDL_MC_BATCH_KERNEL", saved->c_str(), 1)
                  : unsetenv("DDL_MC_BATCH_KERNEL"),
            0);
  EXPECT_EQ(mc_batch_kernel_name(), default_name);
  EXPECT_EQ(base, dispatched)
      << "base and " << default_name << " kernels diverged";
}

// ---- Yield ----------------------------------------------------------------

TEST(McBatchYield, MatchesScalarTwinAndThreadCount) {
  BatchYieldSpec spec;
  // 128 cells at 100 MHz sits on the yield knee (~50 %), so both branches
  // of the pass predicate are exercised.
  spec.line = BatchLineSpec::from_technology(tech(), {128, 2});
  spec.clock_period_ps = 10'000.0;
  const std::size_t trials = 333;
  const double batched = monte_carlo_yield_batched(spec, trials, 77, 1);
  std::size_t passes = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    passes += batch_die_covers_period_scalar(spec, die_seed(77, i)) ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(batched, static_cast<double>(passes) /
                                static_cast<double>(trials));
  EXPECT_GT(batched, 0.2);
  EXPECT_LT(batched, 0.8);
  EXPECT_DOUBLE_EQ(batched, monte_carlo_yield_batched(spec, trials, 77, 3));
}

// ---- Corner sweep ---------------------------------------------------------

TEST(McBatchSweep, EachCornerEqualsStandaloneBatchedRun) {
  auto spec = fig50_spec();
  const std::vector<cells::OperatingPoint> corners = {
      cells::OperatingPoint::typical(),
      cells::OperatingPoint::slow_process_only(),
      cells::OperatingPoint::fast_process_only()};
  const auto swept = sweep_batched(corners, 19, 2024, spec, 3);
  ASSERT_EQ(swept.size(), corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    spec.op = corners[c];
    const auto standalone = monte_carlo_batched(spec, 19, 2024, 1);
    EXPECT_EQ(bits_of(swept[c].summary.mean), bits_of(standalone.mean))
        << "corner " << c;
    EXPECT_EQ(bits_of(swept[c].summary.min), bits_of(standalone.min));
    EXPECT_EQ(bits_of(swept[c].summary.max), bits_of(standalone.max));
    EXPECT_EQ(swept[c].summary.count, standalone.count);
  }
}

// ---- Statistical sanity ---------------------------------------------------

TEST(McBatch, InlDistributionAgreesWithEventDrivenModel) {
  // The batched model (per-cell Gaussian, sigma_buffer / sqrt(buffers))
  // and the event-driven per-buffer model are different samplers of the
  // same physics: their INL distributions must agree loosely.
  const auto spec = fig50_spec();
  const auto batched = monte_carlo_batched(spec, 200, 2024, 0);
  const auto event_driven = monte_carlo(
      200, 2024,
      [&](std::uint64_t seed) {
        const auto op = cells::OperatingPoint::slow_process_only();
        core::ProposedDelayLine line(tech(), {256, 2}, seed);
        core::ProposedController controller(line, 10'000.0);
        core::DutyMapper mapper(256);
        if (!controller.run_to_lock(op).has_value()) {
          return 0.0;
        }
        std::vector<double> curve;
        for (std::uint64_t w = 0; w < 256; ++w) {
          curve.push_back(
              line.tap_delay_ps(mapper.map(w, controller.tap_sel()), op));
        }
        double lo = curve.front();
        double hi = curve.back();
        double lsb = (hi - lo) / 255.0;
        double max_dev = 0.0;
        for (std::size_t w = 0; w < curve.size(); ++w) {
          max_dev = std::max(
              max_dev,
              std::abs(curve[w] - (lo + lsb * static_cast<double>(w))));
        }
        return max_dev / std::abs(lsb);
      },
      0);
  EXPECT_NEAR(batched.mean, event_driven.mean, 0.5);
  EXPECT_GT(batched.mean, 1.0);
}

// ---- Counter-based sampler ------------------------------------------------

TEST(McBatchSampler, InverseNormalCdfRoundTripsThroughErfc) {
  // Acklam's refined inverse CDF is accurate to ~1.15e-9 relative; verify
  // through the forward CDF Phi(z) = erfc(-z / sqrt(2)) / 2 on a grid
  // covering both tails and the central region.
  for (double p : {1e-12, 1e-6, 0.01, 0.0243, 0.3, 0.5, 0.7, 0.9758, 0.99,
                   1.0 - 1e-6}) {
    const double z = cells::batch_normal_icdf(p);
    const double round_trip = 0.5 * std::erfc(-z / std::sqrt(2.0));
    EXPECT_NEAR(round_trip, p, 1e-8 * std::max(p, 1.0 - p) + 1e-15)
        << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(cells::batch_normal_icdf(0.5), 0.0);
  EXPECT_LT(cells::batch_normal_icdf(0.01), 0.0);
  EXPECT_GT(cells::batch_normal_icdf(0.99), 0.0);
}

TEST(McBatchSampler, CounterDrawsAreDeterministicAndSeedSensitive) {
  std::vector<double> a(16), b(16), c(16);
  cells::batch_sample_cell_delays(42, 16, 80.0, 0.02, a.data());
  cells::batch_sample_cell_delays(42, 16, 80.0, 0.02, b.data());
  cells::batch_sample_cell_delays(43, 16, 80.0, 0.02, c.data());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (double d : a) {
    EXPECT_GE(d, 80.0 * 0.5);
    EXPECT_LE(d, 80.0 * 1.5);
  }
}

// ---- Validation -----------------------------------------------------------

TEST(McBatch, RejectsInvalidSpecs) {
  auto spec = fig50_spec();
  spec.line.num_cells = 100;  // Not a power of two.
  EXPECT_THROW(monte_carlo_batched_samples(spec, 8, 1), std::invalid_argument);
  spec = fig50_spec();
  spec.clock_period_ps = 0.0;
  EXPECT_THROW(monte_carlo_batched_samples(spec, 8, 1), std::invalid_argument);
  spec = fig50_spec();
  spec.faults.push_back({/*trial=*/0, /*cell=*/9999, /*severity=*/2.0});
  EXPECT_THROW(monte_carlo_batched_samples(spec, 8, 1), std::out_of_range);
}

// ---- The SoA tap view feeding other consumers -----------------------------

TEST(TapDelayView, BitIdenticalToOwningLineQueries) {
  core::ProposedDelayLine line(tech(), {256, 2}, /*seed=*/3);
  const auto op = cells::OperatingPoint::slow_process_only();
  const auto view = line.tap_view(op);
  ASSERT_EQ(view.size(), 256u);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(bits_of(view.at(i)), bits_of(line.tap_delay_ps(i, op)))
        << "tap " << i;
  }
}

TEST(TapDelayView, DpwmViewConstructorMatchesVectorConstructor) {
  core::ProposedDelayLine line(tech(), {256, 2}, /*seed=*/9);
  const auto op = cells::OperatingPoint::typical();
  dpwm::DelayLineDpwm from_vector(line.tap_delays_ps(op), 25'000);
  dpwm::DelayLineDpwm from_view(line.tap_view(op), 25'000);
  EXPECT_EQ(from_vector.tap_delays_ps(), from_view.tap_delays_ps());
  for (std::uint64_t duty : {std::uint64_t{0}, std::uint64_t{100},
                             std::uint64_t{255}}) {
    const auto a = from_vector.generate(0, duty);
    const auto b = from_view.generate(0, duty);
    EXPECT_EQ(a.high_ps, b.high_ps) << "duty " << duty;
    EXPECT_EQ(a.period_ps, b.period_ps);
  }
}

}  // namespace
}  // namespace ddl::analysis
