#include "ddl/analog/buck.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ddl::analog {

BuckConverter::BuckConverter(BuckParams params, double dt_s)
    : params_(params), dt_s_(dt_s) {
  if (dt_s <= 0.0 || params.inductance_h <= 0.0 || params.capacitance_f <= 0.0) {
    throw std::invalid_argument("BuckConverter: invalid parameters");
  }
}

double BuckConverter::output_voltage() const noexcept {
  // vout = vC + ESR * i_C; i_C = iL - i_load.
  return cap_v_ + params_.esr_ohm * (inductor_a_ - last_load_a_);
}

void BuckConverter::integrate(double seconds, SwitchState state,
                              double load_a) {
  last_load_a_ = load_a;
  double remaining = seconds;
  while (remaining > 0.0) {
    const double dt = std::min(dt_s_, remaining);
    remaining -= dt;

    // Switch-node voltage and conduction path.
    double v_switch = 0.0;
    double r_path = params_.r_inductor_ohm;
    double input_current = 0.0;
    switch (state) {
      case SwitchState::kHigh:
        v_switch = params_.vin;
        r_path += params_.r_on_high_ohm;
        input_current = inductor_a_;
        break;
      case SwitchState::kLow:
        v_switch = 0.0;
        r_path += params_.r_on_low_ohm;
        break;
      case SwitchState::kDeadTime:
        // Body diode of the low switch conducts while iL > 0.
        v_switch = inductor_a_ > 0.0 ? -params_.diode_vf : 0.0;
        break;
    }

    const double vout = cap_v_ + params_.esr_ohm * (inductor_a_ - load_a);
    // Explicit midpoint step on the two states.
    const double di1 = (v_switch - vout - r_path * inductor_a_) /
                       params_.inductance_h;
    const double dv1 = (inductor_a_ - load_a) / params_.capacitance_f;
    const double i_mid = inductor_a_ + 0.5 * dt * di1;
    const double v_mid = cap_v_ + 0.5 * dt * dv1;
    const double vout_mid = v_mid + params_.esr_ohm * (i_mid - load_a);
    const double di2 = (v_switch - vout_mid - r_path * i_mid) /
                       params_.inductance_h;
    const double dv2 = (i_mid - load_a) / params_.capacitance_f;
    inductor_a_ += dt * di2;
    cap_v_ += dt * dv2;

    // Synchronous converters allow negative inductor current; the body
    // diode path does not.
    if (state == SwitchState::kDeadTime && inductor_a_ < 0.0) {
      inductor_a_ = 0.0;
    }

    // Energy bookkeeping (Eqs 1-2).
    const double vload = cap_v_ + params_.esr_ohm * (inductor_a_ - load_a);
    energy_.input_j += params_.vin * input_current * dt;
    energy_.output_j += vload * load_a * dt;
    energy_.conduction_loss_j += inductor_a_ * inductor_a_ * r_path * dt;

    const double v_now = vload;
    last_vmin_ = std::min(last_vmin_, v_now);
    last_vmax_ = std::max(last_vmax_, v_now);
    elapsed_s_ += dt;
  }
}

BuckConverter::Segments BuckConverter::segments_of(
    const dpwm::PwmPeriod& period) const noexcept {
  Segments seg;
  seg.dead_s = params_.dead_time_ps * 1e-12;
  seg.high_s = std::max(0.0, sim::to_ps(period.high_ps) * 1e-12 - seg.dead_s);
  const double total_s = sim::to_ps(period.period_ps) * 1e-12;
  seg.low_s = std::max(0.0, total_s - seg.high_s - 2.0 * seg.dead_s);
  return seg;
}

void BuckConverter::run_period(const dpwm::PwmPeriod& period, double load_a) {
  last_vmin_ = output_voltage();
  last_vmax_ = last_vmin_;
  const Segments seg = segments_of(period);

  integrate(seg.high_s, SwitchState::kHigh, load_a);
  integrate(seg.dead_s, SwitchState::kDeadTime, load_a);
  integrate(seg.low_s, SwitchState::kLow, load_a);
  integrate(seg.dead_s, SwitchState::kDeadTime, load_a);

  // Fixed per-cycle switching loss, drawn from the input rail (gate charge
  // and V/I overlap of the two switch transitions).
  energy_.input_j += params_.switch_energy_per_cycle_j;
  energy_.switching_loss_j += params_.switch_energy_per_cycle_j;
}

void BuckConverter::run_static(double seconds, bool high_on, double load_a) {
  last_vmin_ = output_voltage();
  last_vmax_ = last_vmin_;
  integrate(seconds, high_on ? SwitchState::kHigh : SwitchState::kLow, load_a);
}

void BuckConverter::reset() {
  inductor_a_ = 0.0;
  cap_v_ = 0.0;
  elapsed_s_ = 0.0;
  last_load_a_ = 0.0;
  last_vmin_ = 0.0;
  last_vmax_ = 0.0;
  energy_ = EnergyAccount{};
}

}  // namespace ddl::analog
