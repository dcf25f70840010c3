// Internal interface between PlantLanes (plant_lanes.cpp) and
// the lockstep step kernels (plant_lanes_kernel_{base,avx2}.cpp).
//
// The kernels live in their own translation units so the AVX2 variant's
// ISA flags never leak into code that runs before dispatch.
// Every TU here is compiled with -ffp-contract=off: the step must evaluate
// BuckConverter::integrate's multiplies and adds separately, in its order,
// for a lane to stay bit-identical to the scalar reference.
#pragma once

#include <cstdint>

#include "ddl/analog/plant_lanes.h"

namespace ddl::analog::detail {

/// Switch state per lane, as the kernel's masks read it.
inline constexpr std::int64_t kLaneHigh = 0;
inline constexpr std::int64_t kLaneLow = 1;
inline constexpr std::int64_t kLaneDead = 2;

/// Structure-of-arrays lane state (element [lane]).  An idle lane is
/// parked: zero state, unit L and C, `remaining` = +inf, so it steps
/// harmlessly and never reaches a segment boundary.
struct alignas(64) PlantLaneState {
  // Converter state and accumulators.
  double il[kPlantLanes];
  double vc[kPlantLanes];
  double e_in[kPlantLanes];
  double e_out[kPlantLanes];
  double e_cond[kPlantLanes];
  double vmin[kPlantLanes];
  double vmax[kPlantLanes];
  double elapsed[kPlantLanes];
  // Current segment.
  double remaining[kPlantLanes];
  std::int64_t state[kPlantLanes];
  double v_switch[kPlantLanes];  ///< High: vin; low: 0 (dead: per step).
  double r_path[kPlantLanes];
  // Per-period inputs and parameters.
  double load[kPlantLanes];
  double dt_max[kPlantLanes];
  double vin[kPlantLanes];
  double neg_vf[kPlantLanes];  ///< -diode_vf (exact negation).
  double inductance[kPlantLanes];
  double capacitance[kPlantLanes];
  double esr[kPlantLanes];
};

/// Steps every lane in lockstep until at least one lane's `remaining`
/// drops to <= 0 (its segment ended).  At least one lane must be busy.
using PlantStepFn = void (*)(PlantLaneState& s);

namespace plant_kernel_base {
void step_until_boundary(PlantLaneState& s);
}
#if defined(DDL_PLANT_LANES_HAS_AVX2)
namespace plant_kernel_avx2 {
void step_until_boundary(PlantLaneState& s);
}
#endif

}  // namespace ddl::analog::detail
