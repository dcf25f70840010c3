// Interleaved buck-plant lanes: up to kPlantLanes independent
// BuckConverters integrated in lockstep, one SIMD lane each.
//
// BuckConverter::run_period is a serial chain of ~1000 fixed 1 ns
// explicit-midpoint steps per switching period, two divides deep per step,
// so a single converter is latency-bound.  Several closed loops' plants
// share nothing, so their steps can run side by side in one vector: each
// lane keeps its own segment lengths and `remaining`/`dt` recurrence, its
// own switch state and dead-time diode clamp (as lane masks), and its own
// vmin/vmax/energy/elapsed accumulators.
//
// Contract: a lane is bit-identical to BuckConverter::run_period on the
// same converter -- every double the converter exposes afterwards is the
// one the scalar call would have produced, whatever the other lanes hold
// and whichever kernel variant runs.  The kernel TUs are compiled with
// -ffp-contract=off and evaluate the scalar step's operations in the
// scalar order; runtime dispatch picks the portable base kernel or the
// AVX2 one, and DDL_MC_BATCH_KERNEL=base (the cap shared with the
// Monte-Carlo kernel) forces base.  BuckConverter::run_period stays the
// reference and the paper model; this class is only a faster way to
// evaluate it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "ddl/analog/buck.h"
#include "ddl/dpwm/behavioral.h"

namespace ddl::analog {

/// Lanes integrated per vector step.
inline constexpr std::size_t kPlantLanes = 8;

namespace detail {
struct PlantLaneState;
}  // namespace detail

class PlantLanes {
 public:
  PlantLanes();
  ~PlantLanes();
  PlantLanes(const PlantLanes&) = delete;
  PlantLanes& operator=(const PlantLanes&) = delete;

  /// Starts one run_period(period, load_a) of `plant` on idle lane `lane`.
  /// The lane owns the converter until the period completes in run(); the
  /// caller must not touch it meanwhile.  A period with no positive
  /// segment completes at the next run() without a step.
  void start_period(std::size_t lane, BuckConverter& plant,
                    const dpwm::PwmPeriod& period, double load_a);

  /// Integrates every busy lane in lockstep until at least one finishes
  /// its period.  Finished lanes leave their converter exactly as
  /// run_period would have and go idle.  Returns them as a bitmask (bit i
  /// = lane i); 0 when no lane was busy.
  std::uint32_t run();

  bool busy(std::size_t lane) const noexcept {
    return (busy_mask_ >> lane) & 1u;
  }
  std::uint32_t busy_mask() const noexcept { return busy_mask_; }

  /// The dispatched kernel variant: "base" or "avx2".
  const char* kernel_name() const noexcept;

 private:
  struct Lane {
    BuckConverter* plant = nullptr;
    std::array<double, 4> seconds{};  ///< high, dead, low, dead.
    int next_segment = 0;
  };

  /// Enters lane `lane`'s next segment with a positive length, or finishes
  /// its period (writing the converter back and parking the lane) when none
  /// is left.  Returns true when the period finished.
  bool advance(std::size_t lane);
  void park(std::size_t lane);

  std::unique_ptr<detail::PlantLaneState> state_;
  std::array<Lane, kPlantLanes> lanes_{};
  std::uint32_t busy_mask_ = 0;       ///< Lanes owning a converter.
  std::uint32_t finished_early_ = 0;  ///< Empty periods awaiting run().
  int kernel_ = 0;
};

}  // namespace ddl::analog
