// Plant-lane kernel equivalence: every lane of analog::PlantLanes must
// leave its converter bit-identical to BuckConverter::run_period, period by
// period, at every lane position, with any neighbours, on every compiled
// kernel variant.  The random sequences mix period lengths, empty high,
// low and dead segments, and light loads that drive the inductor current
// negative so the dead-time diode clamp engages.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "ddl/analog/buck.h"
#include "ddl/analog/plant_lanes.h"

namespace {

using ddl::analog::BuckConverter;
using ddl::analog::BuckParams;
using ddl::analog::kPlantLanes;
using ddl::analog::PlantLanes;
using ddl::dpwm::PwmPeriod;

/// Long enough that a one-ulp slip in a small term (say x * (1 / C) in
/// place of x / C in the capacitor update) flips a rounding somewhere.
constexpr int kPeriods = 200;

/// Everything a converter exposes after a period, compared bit for bit.
struct Snapshot {
  double values[10];

  explicit Snapshot(const BuckConverter& c)
      : values{c.inductor_current_a(),
               c.capacitor_voltage(),
               c.output_voltage(),
               c.elapsed_s(),
               c.last_period_vmin(),
               c.last_period_vmax(),
               c.energy().input_j,
               c.energy().output_j,
               c.energy().conduction_loss_j,
               c.energy().switching_loss_j} {}

  bool operator==(const Snapshot& other) const {
    return std::memcmp(values, other.values, sizeof values) == 0;
  }
};

struct Sequence {
  BuckParams params;
  std::vector<PwmPeriod> pwm;
  std::vector<double> load;
  std::vector<Snapshot> reference;  ///< After each scalar run_period.
};

/// Sequence `index`: per-sequence plant parameters and period length, and
/// random duty/load draws, including the edge segments.
Sequence make_sequence(std::size_t index, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 1000 + index);
  Sequence seq;
  if (index % 4 == 3) {
    seq.params.dead_time_ps = 0.0;  // Both dead segments empty.
  }
  seq.params.inductance_h *= 1.0 + 0.1 * static_cast<double>(index % 3);
  const std::int64_t period_ps = 1'000'000 + 137'000 * (index % 3);
  for (int p = 0; p < kPeriods; ++p) {
    PwmPeriod pwm;
    pwm.period_ps = period_ps;
    switch (rng() % 8) {
      case 0:
        pwm.high_ps = 0;  // High segment empty (dead time swallows it).
        break;
      case 1:
        pwm.high_ps = period_ps;  // Low segment empty.
        break;
      default:
        pwm.high_ps = static_cast<std::int64_t>(rng() % (period_ps / 2));
        break;
    }
    seq.pwm.push_back(pwm);
    // Mostly light loads: the synchronous low switch pulls the inductor
    // current negative, and the dead time after it must clamp.
    seq.load.push_back(rng() % 4 == 0 ? 0.8 : 0.01 * (rng() % 5));
  }
  BuckConverter scalar(seq.params);
  for (int p = 0; p < kPeriods; ++p) {
    scalar.run_period(seq.pwm[p], seq.load[p]);
    seq.reference.emplace_back(scalar);
  }
  return seq;
}

/// Runs `sequences` on lanes `first + i` (mod kPlantLanes) and checks each
/// period against the scalar reference.  Returns the kernel variant name.
std::string check_lanes(const std::vector<Sequence>& sequences,
                        std::size_t first) {
  PlantLanes lanes;
  std::vector<BuckConverter> plants;
  for (const Sequence& seq : sequences) {
    plants.emplace_back(seq.params);
  }
  std::vector<int> done(sequences.size(), 0);
  const auto lane_of = [&](std::size_t i) { return (first + i) % kPlantLanes; };
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    lanes.start_period(lane_of(i), plants[i], sequences[i].pwm[0],
                       sequences[i].load[0]);
  }
  while (lanes.busy_mask() != 0) {
    const std::uint32_t finished = lanes.run();
    EXPECT_NE(finished, 0u);
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      if (((finished >> lane_of(i)) & 1u) == 0) {
        continue;
      }
      const int p = done[i]++;
      EXPECT_TRUE(Snapshot(plants[i]) == sequences[i].reference[p])
          << "sequence " << i << " on lane " << lane_of(i) << " of "
          << sequences.size() << ", period " << p << ", kernel "
          << lanes.kernel_name();
      if (done[i] < kPeriods) {
        lanes.start_period(lane_of(i), plants[i], sequences[i].pwm[done[i]],
                           sequences[i].load[done[i]]);
      }
    }
  }
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(done[i], kPeriods);
  }
  return lanes.kernel_name();
}

class PlantLanesTest : public ::testing::Test {
 protected:
  // A test that forces a kernel puts the caller's setting back: the suite
  // also runs with the base kernel forced from the environment.
  void SetUp() override {
    const char* caller = std::getenv("DDL_MC_BATCH_KERNEL");
    if (caller != nullptr) {
      saved_ = caller;
    }
  }
  void TearDown() override {
    if (saved_) {
      setenv("DDL_MC_BATCH_KERNEL", saved_->c_str(), 1);
    } else {
      unsetenv("DDL_MC_BATCH_KERNEL");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST_F(PlantLanesTest, SequencesExerciseTheDiodeClampAndEmptySegments) {
  // The property below is only meaningful if the edge cases occur: the
  // diode clamp leaves a period ending at exactly zero inductor current,
  // while the diode also conducts (positive current) elsewhere.
  int clamped = 0;
  int conducting = 0;
  for (std::size_t i = 0; i < kPlantLanes; ++i) {
    const Sequence seq = make_sequence(i, 1);
    for (const Snapshot& snap : seq.reference) {
      clamped += snap.values[0] == 0.0;
      conducting += snap.values[0] > 0.0;
    }
  }
  EXPECT_GT(clamped, 10);
  EXPECT_GT(conducting, 10);
}

TEST_F(PlantLanesTest, EveryLaneMatchesRunPeriodAtEveryPositionAndGroupSize) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    std::vector<Sequence> all;
    for (std::size_t i = 0; i < kPlantLanes; ++i) {
      all.push_back(make_sequence(i, seed));
    }
    for (std::size_t size = 1; size <= kPlantLanes; ++size) {
      const std::vector<Sequence> group(all.begin(), all.begin() + size);
      for (std::size_t first = 0; first < kPlantLanes; ++first) {
        check_lanes(group, first);
      }
    }
  }
}

TEST_F(PlantLanesTest, EveryKernelVariantMatchesRunPeriod) {
  std::vector<Sequence> all;
  for (std::size_t i = 0; i < kPlantLanes; ++i) {
    all.push_back(make_sequence(i, 3));
  }
  const std::string dispatched = check_lanes(all, 0);
  setenv("DDL_MC_BATCH_KERNEL", "base", 1);
  EXPECT_EQ(check_lanes(all, 0), "base");
  ::testing::Test::RecordProperty("dispatched_kernel", dispatched);
}

TEST_F(PlantLanesTest, EmptyPeriodFinishesWithoutAStep) {
  BuckParams params;
  params.dead_time_ps = 0.0;
  BuckConverter scalar(params);
  BuckConverter laned(params);
  PwmPeriod empty;  // Zero-length period: every segment is empty.
  scalar.run_period(empty, 0.3);
  PlantLanes lanes;
  lanes.start_period(5, laned, empty, 0.3);
  EXPECT_EQ(lanes.run(), 1u << 5);
  EXPECT_EQ(lanes.busy_mask(), 0u);
  EXPECT_TRUE(Snapshot(laned) == Snapshot(scalar));
  EXPECT_EQ(lanes.run(), 0u);
}

TEST_F(PlantLanesTest, StartingABusyLaneThrows) {
  BuckConverter a{BuckParams{}};
  BuckConverter b{BuckParams{}};
  PwmPeriod pwm;
  pwm.period_ps = 1'000'000;
  pwm.high_ps = 400'000;
  PlantLanes lanes;
  lanes.start_period(0, a, pwm, 0.4);
  EXPECT_THROW(lanes.start_period(0, b, pwm, 0.4), std::logic_error);
  EXPECT_THROW(lanes.start_period(kPlantLanes, b, pwm, 0.4),
               std::logic_error);
}

}  // namespace
