// PlantLanes: lane binding, segment sequencing and kernel dispatch
// around the lockstep step kernels.  Compiled with -ffp-contract=off like
// the kernels: it evaluates run_period's prologue and epilogue arithmetic
// (initial vmin/vmax, switching energy) for the lanes.
#include "ddl/analog/plant_lanes.h"

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "plant_lanes_kernel.h"

namespace ddl::analog {
namespace {

struct KernelVariant {
  detail::PlantStepFn step;
  const char* name;
};

constexpr KernelVariant kVariants[] = {
    {&detail::plant_kernel_base::step_until_boundary, "base"},
#if defined(DDL_PLANT_LANES_HAS_AVX2)
    {&detail::plant_kernel_avx2::step_until_boundary, "avx2"},
#endif
};

/// The widest compiled-in variant the CPU supports.  DDL_MC_BATCH_KERNEL
/// ("base") caps it exactly as it caps the Monte-Carlo kernel's dispatch;
/// every variant is bit-identical, the cap exists for cross-checking them.
int select_variant() {
#if defined(DDL_PLANT_LANES_HAS_AVX2)
  const char* force = std::getenv("DDL_MC_BATCH_KERNEL");
  if ((force == nullptr || std::string_view(force) != "base") &&
      __builtin_cpu_supports("avx2")) {
    return 1;
  }
#endif
  return 0;
}

}  // namespace

PlantLanes::PlantLanes()
    : state_(std::make_unique<detail::PlantLaneState>()),
      kernel_(select_variant()) {
  for (std::size_t lane = 0; lane < kPlantLanes; ++lane) {
    park(lane);
  }
}

PlantLanes::~PlantLanes() = default;

const char* PlantLanes::kernel_name() const noexcept {
  return kVariants[kernel_].name;
}

void PlantLanes::park(std::size_t lane) {
  detail::PlantLaneState& s = *state_;
  s.il[lane] = 0.0;
  s.vc[lane] = 0.0;
  s.e_in[lane] = 0.0;
  s.e_out[lane] = 0.0;
  s.e_cond[lane] = 0.0;
  s.vmin[lane] = 0.0;
  s.vmax[lane] = 0.0;
  s.elapsed[lane] = 0.0;
  s.remaining[lane] = std::numeric_limits<double>::infinity();
  s.state[lane] = detail::kLaneLow;
  s.v_switch[lane] = 0.0;
  s.r_path[lane] = 0.0;
  s.load[lane] = 0.0;
  s.dt_max[lane] = 1.0;
  s.vin[lane] = 0.0;
  s.neg_vf[lane] = 0.0;
  s.inductance[lane] = 1.0;
  s.capacitance[lane] = 1.0;
  s.esr[lane] = 0.0;
  lanes_[lane] = Lane{};
}

void PlantLanes::start_period(std::size_t lane, BuckConverter& plant,
                              const dpwm::PwmPeriod& period, double load_a) {
  if (lane >= kPlantLanes || busy(lane)) {
    throw std::logic_error("PlantLanes: lane out of range or busy");
  }
  // run_period's prologue: the ripple window opens at the current output.
  plant.last_vmin_ = plant.output_voltage();
  plant.last_vmax_ = plant.last_vmin_;
  const BuckConverter::Segments seg = plant.segments_of(period);

  detail::PlantLaneState& s = *state_;
  const BuckParams& p = plant.params_;
  s.il[lane] = plant.inductor_a_;
  s.vc[lane] = plant.cap_v_;
  s.e_in[lane] = plant.energy_.input_j;
  s.e_out[lane] = plant.energy_.output_j;
  s.e_cond[lane] = plant.energy_.conduction_loss_j;
  s.vmin[lane] = plant.last_vmin_;
  s.vmax[lane] = plant.last_vmax_;
  s.elapsed[lane] = plant.elapsed_s_;
  s.load[lane] = load_a;
  s.dt_max[lane] = plant.dt_s_;
  s.vin[lane] = p.vin;
  s.neg_vf[lane] = -p.diode_vf;
  s.inductance[lane] = p.inductance_h;
  s.capacitance[lane] = p.capacitance_f;
  s.esr[lane] = p.esr_ohm;

  lanes_[lane] =
      Lane{&plant, {seg.high_s, seg.dead_s, seg.low_s, seg.dead_s}, 0};
  busy_mask_ |= 1u << lane;
  // A period whose segments are all empty finishes without a step; the
  // next run() reports it.
  if (advance(lane)) {
    finished_early_ |= 1u << lane;
  }
}

bool PlantLanes::advance(std::size_t lane) {
  detail::PlantLaneState& s = *state_;
  Lane& l = lanes_[lane];
  // integrate()'s `while (remaining > 0.0)` skips an empty segment.
  while (l.next_segment < 4 && !(l.seconds[l.next_segment] > 0.0)) {
    ++l.next_segment;
  }
  if (l.next_segment == 4) {
    // run_period's epilogue, on the state the lane integrated.
    BuckConverter& plant = *l.plant;
    const BuckParams& p = plant.params_;
    plant.inductor_a_ = s.il[lane];
    plant.cap_v_ = s.vc[lane];
    plant.elapsed_s_ = s.elapsed[lane];
    plant.last_load_a_ = s.load[lane];
    plant.last_vmin_ = s.vmin[lane];
    plant.last_vmax_ = s.vmax[lane];
    plant.energy_.input_j = s.e_in[lane];
    plant.energy_.output_j = s.e_out[lane];
    plant.energy_.conduction_loss_j = s.e_cond[lane];
    plant.energy_.input_j += p.switch_energy_per_cycle_j;
    plant.energy_.switching_loss_j += p.switch_energy_per_cycle_j;
    park(lane);
    return true;
  }
  const BuckParams& p = l.plant->params_;
  const int segment = l.next_segment++;
  s.remaining[lane] = l.seconds[segment];
  switch (segment) {
    case 0:  // High switch on.
      s.state[lane] = detail::kLaneHigh;
      s.v_switch[lane] = p.vin;
      s.r_path[lane] = p.r_inductor_ohm + p.r_on_high_ohm;
      break;
    case 2:  // Low (synchronous) switch on.
      s.state[lane] = detail::kLaneLow;
      s.v_switch[lane] = 0.0;
      s.r_path[lane] = p.r_inductor_ohm + p.r_on_low_ohm;
      break;
    default:  // Dead time: body diode.
      s.state[lane] = detail::kLaneDead;
      s.v_switch[lane] = 0.0;
      s.r_path[lane] = p.r_inductor_ohm;
      break;
  }
  return false;
}

std::uint32_t PlantLanes::run() {
  std::uint32_t finished = finished_early_;
  finished_early_ = 0;
  detail::PlantLaneState& s = *state_;
  const detail::PlantStepFn step = kVariants[kernel_].step;
  // Every busy lane not already finished is inside a positive segment.
  while (finished == 0 && busy_mask_ != 0) {
    step(s);
    for (std::size_t lane = 0; lane < kPlantLanes; ++lane) {
      if (busy(lane) && !(s.remaining[lane] > 0.0) && advance(lane)) {
        finished |= 1u << lane;
      }
    }
  }
  busy_mask_ &= ~finished;
  return finished;
}

}  // namespace ddl::analog
