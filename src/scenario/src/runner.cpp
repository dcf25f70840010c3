#include "ddl/scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include <cstdio>

#include "ddl/analog/adc.h"
#include "ddl/analog/buck.h"
#include "ddl/analysis/mc_batch.h"
#include "ddl/analysis/monte_carlo.h"
#include "ddl/analysis/parallel.h"
#include "ddl/cells/technology.h"
#include "ddl/control/pid.h"
#include "ddl/core/calibrated_dpwm.h"
#include "ddl/core/lock_supervisor.h"
#include "ddl/dpwm/behavioral.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/workspace.h"
#include "closed_loop_run.h"

namespace ddl::scenario {
namespace {

/// The system under test: whichever architecture the spec names, with the
/// delay line kept alive alongside the DPWM that borrows it.  The typed
/// pointers alias `dpwm` so fault lowering and supervision can reach the
/// scheme-specific hooks.
struct BuiltSystem {
  std::unique_ptr<core::ProposedDelayLine> proposed_line;
  std::unique_ptr<core::ConventionalDelayLine> conventional_line;
  std::unique_ptr<dpwm::DpwmModel> dpwm;
  core::ProposedDpwmSystem* proposed_sys = nullptr;
  core::ConventionalDpwmSystem* conventional_sys = nullptr;
  core::HybridCalibratedDpwm* hybrid_sys = nullptr;
  double base_period_ps = 0.0;  ///< Pre-fault clock period (clear target).
  bool locked = false;
  std::uint64_t lock_cycles = 0;
};

/// Lowers one fault onto the built system.  `engage` applies the fault;
/// false reverses it (delay multipliers divide back out, stuck selectors
/// release, the clock period returns to its base value).
void apply_fault(BuiltSystem& sys, const FaultSpec& fault, bool engage) {
  switch (fault.kind) {
    case FaultSpec::Kind::kDelayCell: {
      const double factor = engage ? fault.severity : 1.0 / fault.severity;
      if (sys.proposed_line) {
        sys.proposed_line->inject_cell_fault(fault.victim_cell, factor);
      } else if (sys.conventional_line) {
        sys.conventional_line->inject_cell_fault(fault.victim_cell, factor);
      }
      break;
    }
    case FaultSpec::Kind::kStuckTap: {
      if (sys.proposed_sys) {
        engage ? sys.proposed_sys->controller().force_tap(fault.victim_cell)
               : sys.proposed_sys->controller().release_forced_tap();
      } else if (sys.hybrid_sys) {
        engage ? sys.hybrid_sys->controller().force_tap(fault.victim_cell)
               : sys.hybrid_sys->controller().release_forced_tap();
      } else if (sys.conventional_sys) {
        sys.conventional_sys->controller().set_register_frozen(engage);
      }
      break;
    }
    case FaultSpec::Kind::kClockPeriodStep: {
      const double period =
          engage ? sys.base_period_ps * fault.severity : sys.base_period_ps;
      if (sys.proposed_sys) {
        sys.proposed_sys->set_clock_period_ps(period);
      } else if (sys.conventional_sys) {
        sys.conventional_sys->set_clock_period_ps(period);
      }
      break;
    }
  }
}

/// Faults present from power-on (injected before calibration).
void apply_power_on_faults(BuiltSystem& sys, const ScenarioSpec& spec) {
  for (const FaultSpec& fault : spec.faults) {
    if (fault.at_period == 0 && fault.active()) {
      apply_fault(sys, fault, true);
    }
  }
}

core::EnvironmentSchedule environment_for(const ScenarioSpec& spec,
                                          sim::Time period_ps) {
  core::EnvironmentSchedule env(spec.corner);
  if (spec.temp_ramp_c_per_us != 0.0) {
    env.with_temperature_ramp(spec.temp_ramp_c_per_us);
  }
  if (spec.supply_spike_v != 0.0 &&
      spec.spike_until_period > spec.spike_from_period) {
    env.with_voltage_spike(
        static_cast<sim::Time>(spec.spike_from_period) * period_ps,
        static_cast<sim::Time>(spec.spike_until_period) * period_ps,
        spec.supply_spike_v);
  }
  return env;
}

/// Rethrows an infeasible sizing as the memoized exception text, so rows
/// produced through the workspace cache match the uncached path's
/// error_detail byte-for-byte.
void throw_if_infeasible(const ScenarioWorkspace::Sizing& sizing) {
  if (!sizing.feasible) {
    throw std::runtime_error(sizing.error);
  }
}

BuiltSystem build_system(const ScenarioSpec& spec,
                         const cells::Technology& tech,
                         const ScenarioWorkspace::Sizing& sizing) {
  BuiltSystem sys;
  const double period_ps = 1e6 / spec.clock_mhz;

  switch (spec.architecture) {
    case Architecture::kCounter: {
      // Ideal digital baseline: corner-immune, nothing to calibrate.  The
      // period must divide into whole fast-clock ticks, so round the tick
      // and rebuild the period from it (a few ppm off the requested f_sw).
      const sim::Time tick = sim::from_ps(
          period_ps / static_cast<double>(std::uint64_t{1} << spec.resolution_bits));
      sys.dpwm = std::make_unique<dpwm::CounterDpwm>(spec.resolution_bits,
                                                     tick << spec.resolution_bits);
      sys.locked = true;
      return sys;
    }

    case Architecture::kProposed: {
      throw_if_infeasible(sizing);
      sys.proposed_line = std::make_unique<core::ProposedDelayLine>(
          tech, sizing.proposed_line, spec.seed);
      auto dpwm = std::make_unique<core::ProposedDpwmSystem>(
          *sys.proposed_line, period_ps);
      sys.proposed_sys = dpwm.get();
      sys.base_period_ps = period_ps;
      dpwm->set_environment(environment_for(spec, dpwm->period_ps()));
      apply_power_on_faults(sys, spec);
      if (const auto cycles = dpwm->calibrate()) {
        sys.locked = true;
        sys.lock_cycles = *cycles;
      }
      sys.dpwm = std::move(dpwm);
      return sys;
    }

    case Architecture::kConventional: {
      throw_if_infeasible(sizing);
      sys.conventional_line = std::make_unique<core::ConventionalDelayLine>(
          tech, sizing.conventional_line, spec.seed);
      auto dpwm = std::make_unique<core::ConventionalDpwmSystem>(
          *sys.conventional_line, period_ps);
      sys.conventional_sys = dpwm.get();
      sys.base_period_ps = period_ps;
      dpwm->set_environment(environment_for(spec, dpwm->period_ps()));
      apply_power_on_faults(sys, spec);
      if (const auto cycles = dpwm->calibrate()) {
        sys.locked = true;
        sys.lock_cycles = *cycles;
      }
      sys.dpwm = std::move(dpwm);
      return sys;
    }

    case Architecture::kHybrid: {
      throw_if_infeasible(sizing);
      sys.proposed_line = std::make_unique<core::ProposedDelayLine>(
          tech, sizing.proposed_line, spec.seed);
      // The switching period must divide into whole fast-clock ticks, so
      // round the tick and rebuild the period from it (a few ppm off the
      // requested f_sw, same as bench_hybrid_calibrated_13bit).
      const sim::Time fast_tick = sim::from_ps(
          period_ps / static_cast<double>(std::uint64_t{1} << spec.counter_bits));
      auto dpwm = std::make_unique<core::HybridCalibratedDpwm>(
          *sys.proposed_line, spec.counter_bits,
          spec.resolution_bits - spec.counter_bits,
          fast_tick << spec.counter_bits);
      sys.hybrid_sys = dpwm.get();
      sys.base_period_ps = period_ps;
      dpwm->set_environment(environment_for(spec, dpwm->period_ps()));
      apply_power_on_faults(sys, spec);
      if (const auto cycles = dpwm->calibrate()) {
        sys.locked = true;
        sys.lock_cycles = *cycles;
      }
      sys.dpwm = std::move(dpwm);
      return sys;
    }
  }
  return sys;
}

/// PID coefficients matched to the DPWM word width.  The fixed-point gains
/// are absolute duty LSBs per ADC error code, tuned for words up to ~9 bits;
/// at wider words the same coefficients move the duty by a vanishing
/// fraction of full scale and the loop crawls.  Shifting them up by
/// (bits - 9) keeps the proportional kick per error code just under one ADC
/// LSB in output volts (~9 mV here) for any word width, so loop dynamics
/// are resolution-independent.
control::PidParams pid_for(int duty_bits) {
  control::PidParams params;
  if (duty_bits > 9) {
    const int shift = duty_bits - 9;
    params.kp <<= shift;
    params.ki <<= shift;
    params.kd <<= shift;
  }
  return params;
}

/// Scenario-level Monte-Carlo yield: evaluate `mc_dies` mismatch-sampled
/// dies of the sized proposed line through the batched MC engine and turn
/// the max-|INL| distribution into a yield verdict.  The forced-scalar
/// test hook walks the per-die reference path instead; both paths are
/// bit-identical sample-by-sample (the mc_batch equivalence contract), so
/// the rendered row does not depend on the engine choice.  The kernel-spec
/// builder and the verdict finisher are shared with the cross-scenario
/// batch planner (batch_plan.h), which is what keeps the planned path's
/// rows byte-identical to this one.
void run_mc_yield(const ScenarioSpec& spec, ScenarioWorkspace& workspace,
                  ScenarioResult& result) {
  const ScenarioWorkspace::Sizing& sizing = workspace.sizing_for(spec);
  throw_if_infeasible(sizing);
  analysis::McBatchSpec mc = mc_yield_kernel_spec(spec, sizing);
  // Power-on delay-cell faults apply to *every* die (a frozen design
  // defect, not a per-die mismatch draw).  A severe fault pushes dies off
  // the closed form; the engine's per-die scalar fallback covers them.
  for (const FaultSpec& fault : spec.faults) {
    for (std::size_t die = 0; die < spec.mc_dies; ++die) {
      mc.faults.push_back({die, fault.victim_cell, fault.severity});
    }
  }

  // Sequential inside the scenario: the batch is one work item of an
  // already-parallel suite, so a nested pool would only oversubscribe.
  std::vector<double> samples;
  if (spec.mc_force_scalar) {
    samples.reserve(spec.mc_dies);
    for (std::size_t die = 0; die < spec.mc_dies; ++die) {
      samples.push_back(analysis::batch_die_inl_scalar(
          mc, die, analysis::die_seed(spec.seed, die)));
    }
  } else {
    samples = analysis::monte_carlo_batched_samples(mc, spec.mc_dies,
                                                    spec.seed, /*threads=*/1);
  }
  finish_mc_yield(spec, std::move(samples), result);
}

}  // namespace

analysis::McBatchSpec mc_yield_kernel_spec(
    const ScenarioSpec& spec, const ScenarioWorkspace::Sizing& sizing) {
  analysis::McBatchSpec mc;
  mc.line = sizing.batch_line;
  mc.clock_period_ps = 1e6 / spec.clock_mhz;
  mc.op = spec.corner;
  return mc;
}

void finish_mc_yield(const ScenarioSpec& spec, std::vector<double> samples,
                     ScenarioResult& result) {
  std::size_t passing = 0;
  for (const double inl : samples) {
    if (inl <= spec.mc_inl_limit_lsb) {
      ++passing;
    }
  }
  const analysis::Summary summary = analysis::summarize(std::move(samples));
  result.locked = true;  // The lock walk is part of every die's evaluation.
  result.mc_dies = spec.mc_dies;
  result.mc_yield =
      static_cast<double>(passing) / static_cast<double>(spec.mc_dies);
  result.mc_inl_mean_lsb = summary.mean;
  result.mc_inl_p95_lsb = summary.p95;
  result.mc_inl_max_lsb = summary.max;

  if (result.mc_yield >= spec.mc_min_yield) {
    result.pass = true;
  } else {
    result.failure_reason = "yield_below_min";
    char detail[96];
    std::snprintf(detail, sizeof(detail), "yield %.6f < min %.6f over %llu dies",
                  result.mc_yield, spec.mc_min_yield,
                  static_cast<unsigned long long>(spec.mc_dies));
    result.failure_detail = detail;
  }
}

ScenarioResult make_base_result(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.name = spec.name;
  result.family = spec.family;
  result.architecture = spec.architecture;
  result.corner = spec.corner;
  result.seed = spec.seed;
  result.periods = spec.periods;
  result.target_vref_v = spec.final_vref_v();
  return result;
}

ScenarioResult make_invalid_spec_result(
    const ScenarioSpec& spec, const std::vector<std::string>& problems) {
  ScenarioResult result = make_base_result(spec);
  result.failure_reason = "invalid_spec";
  if (!problems.empty()) {
    result.failure_detail = problems.front();
    for (std::size_t i = 1; i < problems.size(); ++i) {
      result.failure_detail += "; " + problems[i];
    }
  }
  return result;
}

ScenarioArtifacts run_scenario(const ScenarioSpec& spec) {
  ScenarioWorkspace workspace;
  return run_scenario(spec, workspace);
}

ScenarioArtifacts run_scenario(const ScenarioSpec& spec,
                               ScenarioWorkspace& workspace) {
  ScenarioArtifacts artifacts;
  ScenarioResult& result = artifacts.result;
  result = make_base_result(spec);

  // A malformed spec becomes a structured failure, not an exception from
  // deep inside the run (which would tear down the whole parallel batch).
  // The sizing the victim-range checks need comes from the arena, so a
  // retried or same-architecture scenario validates without re-running the
  // DesignCalculator.
  const ScenarioWorkspace::Sizing& sizing = workspace.sizing_for(spec);
  if (const auto problems = validate(spec, sizing.line_cells);
      !problems.empty()) {
    result = make_invalid_spec_result(spec, problems);
    return artifacts;
  }

  if (spec.mc_dies > 0) {
    run_mc_yield(spec, workspace, result);
    return artifacts;
  }

  ClosedLoopRun run(spec, workspace, /*keep_history=*/true);
  control::PeriodStep step;
  while (run.begin_period(step)) {
    run.plant().run_period(step.pwm, step.load_a);
    run.end_period(step);
  }
  return run.finish();
}

namespace {

/// Periods of loop history reserved up front at most (48 MiB of samples).
constexpr std::uint64_t kMaxReservedHistory = std::uint64_t{1} << 20;

/// Runtime fault schedule entry: an inject or clear instant.
struct FaultEvent {
  std::uint64_t period = 0;
  std::size_t index = 0;
  bool engage = false;
};

}  // namespace

struct ClosedLoopRun::State {
  const ScenarioSpec& spec;
  ScenarioArtifacts artifacts;
  BuiltSystem sys;
  std::unique_ptr<core::SupervisedSystem> adapter;
  std::unique_ptr<core::LockSupervisor> supervisor;
  std::unique_ptr<control::DigitallyControlledBuck> loop;
  std::vector<FaultEvent> fault_events;
  std::size_t next_event = 0;
  control::LoadProfile load;
  std::unique_ptr<control::VoltageModeManager> manager;
  // The verdict's inputs, fed one sample per period.
  std::optional<control::LoopMetricsAccumulator> metrics;
  std::optional<control::SettleDetector> settle;       ///< Without DVFS.
  std::optional<control::TransitionMeter> transitions;  ///< With DVFS.
  bool keep_history = false;  ///< Record artifacts.history.
  std::uint64_t period = 0;  ///< The next period to run.
  std::uint64_t length = 0;  ///< Periods the loop runs (0: it never runs).
  bool concluded = false;    ///< The verdict needs no loop telemetry.

  explicit State(const ScenarioSpec& s) : spec(s) {}
};

ClosedLoopRun::ClosedLoopRun(const ScenarioSpec& spec,
                             ScenarioWorkspace& workspace, bool keep_history)
    : state_(std::make_unique<State>(spec)) {
  State& st = *state_;
  ScenarioResult& result = st.artifacts.result;
  result = make_base_result(spec);

  st.sys = build_system(spec, workspace.technology(),
                        workspace.sizing_for(spec));
  BuiltSystem& sys = st.sys;
  result.locked = sys.locked;
  result.lock_cycles = sys.lock_cycles;

  // Scenarios that probe an infeasibility (the conventional slow-corner
  // blind spot) pass exactly when calibration fails; the loop never runs.
  if (!spec.expect_lock) {
    result.pass = !sys.locked;
    if (!result.pass) {
      result.failure_reason = "unexpected_lock";
    }
    st.concluded = true;
    return;
  }
  if (!sys.locked) {
    result.failure_reason = "no_lock";
    st.concluded = true;
    return;
  }

  // Supervision: wrap the calibrated system behind the supervisor so the
  // loop regulates *through* it; the watchdog taps the per-period sample.
  if (spec.supervision.enabled) {
    if (sys.proposed_sys) {
      st.adapter = core::make_supervised(*sys.proposed_sys);
    } else if (sys.conventional_sys) {
      st.adapter = core::make_supervised(*sys.conventional_sys);
    } else if (sys.hybrid_sys) {
      st.adapter = core::make_supervised(*sys.hybrid_sys);
    }
    st.supervisor = std::make_unique<core::LockSupervisor>(
        *st.adapter, spec.supervision.config);
    result.supervised = true;
  }
  dpwm::DpwmModel& modulator =
      st.supervisor ? static_cast<dpwm::DpwmModel&>(*st.supervisor)
                    : *sys.dpwm;

  const std::uint64_t full = (std::uint64_t{1} << sys.dpwm->bits()) - 1;
  st.loop = std::make_unique<control::DigitallyControlledBuck>(
      analog::BuckConverter(analog::BuckParams{}),
      analog::WindowAdc(analog::WindowAdcParams{spec.vref_v, 10e-3, 7}),
      control::PidController(pid_for(sys.dpwm->bits()), full, full / 3),
      modulator);
  // A known-length run keeping history reserves it once (capped, so an
  // absurd period count still fails the way it always did: by running).
  st.keep_history = keep_history;
  if (keep_history) {
    st.artifacts.history.reserve(
        static_cast<std::size_t>(std::min(spec.periods, kMaxReservedHistory)));
  }
  if (st.supervisor) {
    core::LockSupervisor* hook = st.supervisor.get();
    st.loop->set_sample_observer([hook](const control::LoopSample& sample) {
      hook->observe_error(sample.error_code);
    });
  }

  // Runtime fault schedule: inject/clear instants, period-ordered (ties
  // resolve in fault order, clears before re-injections at the same
  // instant).  An event at period p applies before period p runs; events
  // at or past the run's end apply after its last period.
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    if (!fault.active()) {
      continue;
    }
    if (fault.at_period > 0) {
      st.fault_events.push_back({fault.at_period, i, true});
    }
    if (fault.clear_period > 0) {
      st.fault_events.push_back({fault.clear_period, i, false});
    }
  }
  std::sort(st.fault_events.begin(), st.fault_events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.period != b.period) {
                return a.period < b.period;
              }
              if (a.engage != b.engage) {
                return !a.engage;  // Clears first.
              }
              return a.index < b.index;
            });

  st.load = spec.load.make(spec.seed);
  st.length = spec.periods;
  // Metrics are measured from the final reference: every mode is applied
  // by the end of the run.
  st.metrics.emplace(spec.measure_from, spec.periods, spec.final_vref_v());
  if (spec.dvfs.empty()) {
    st.settle.emplace(spec.vref_v, spec.settle_band_v);
  } else {
    // validate() rejects runtime faults combined with DVFS schedules.
    st.manager = std::make_unique<control::VoltageModeManager>(
        spec.dvfs, spec.settle_band_v);
    st.length = st.manager->run_length(spec.periods);
    st.transitions.emplace(*st.manager, spec.periods);
  }
}

ClosedLoopRun::~ClosedLoopRun() = default;

bool ClosedLoopRun::begin_period(control::PeriodStep& step) {
  State& st = *state_;
  if (st.concluded) {
    return false;
  }
  const std::uint64_t period = std::min(st.period, st.length);
  if (st.manager) {
    st.manager->apply_due(*st.loop, period);
  } else {
    const bool last = period == st.length;
    while (st.next_event < st.fault_events.size() &&
           (last || st.fault_events[st.next_event].period <= period)) {
      const FaultEvent& event = st.fault_events[st.next_event++];
      apply_fault(st.sys, st.spec.faults[event.index], event.engage);
    }
  }
  if (period == st.length) {
    return false;
  }
  step = st.loop->begin_period(st.load);
  return true;
}

analog::BuckConverter& ClosedLoopRun::plant() {
  return state_->loop->plant();
}

void ClosedLoopRun::end_period(const control::PeriodStep& step) {
  State& st = *state_;
  const control::LoopSample sample = st.loop->end_period(step);
  if (st.keep_history) {
    st.artifacts.history.push_back(sample);
  }
  st.metrics->add(sample);
  if (st.settle) {
    st.settle->add(sample.vout);
  } else {
    st.transitions->add(st.period, sample.vout);
  }
  ++st.period;
}

ScenarioArtifacts ClosedLoopRun::finish() {
  State& st = *state_;
  if (st.concluded) {
    return std::move(st.artifacts);
  }
  const ScenarioSpec& spec = st.spec;
  ScenarioArtifacts& artifacts = st.artifacts;
  ScenarioResult& result = artifacts.result;
  if (st.transitions) {
    artifacts.transitions = st.transitions->reports();
  }

  if (st.supervisor) {
    result.lock_losses = st.supervisor->lock_losses();
    result.relocks = st.supervisor->relocks();
    result.relock_latency_max = st.supervisor->max_relock_latency_periods();
    result.degradation_level = static_cast<int>(st.supervisor->degradation());
    result.health = st.supervisor->events();
  }

  result.metrics = st.metrics->metrics();
  result.efficiency = st.loop->plant().energy().efficiency();
  result.transitions_total = artifacts.transitions.size();
  for (const auto& transition : artifacts.transitions) {
    if (transition.settled) {
      ++result.transitions_settled;
    }
  }
  if (st.settle) {
    result.settle_period = st.settle->settled()
                               ? static_cast<std::int64_t>(st.settle->period())
                               : -1;
  }

  // Verdict: first failed check names the failure.  The recovery checks
  // lead -- a recovery scenario's point is the supervision story; the
  // regulation checks then hold it to post-degradation bounds.
  if (result.supervised && spec.expect_min_lock_losses > 0 &&
      result.lock_losses < spec.expect_min_lock_losses) {
    result.failure_reason = "lock_loss_undetected";
  } else if (result.supervised && spec.expect_relock && result.relocks == 0) {
    result.failure_reason = "no_recovery";
  } else if (result.supervised && spec.max_relock_latency_periods > 0 &&
             result.relock_latency_max > spec.max_relock_latency_periods) {
    result.failure_reason = "relock_too_slow";
  } else if (result.supervised &&
             result.degradation_level < spec.expect_min_degradation) {
    result.failure_reason = "insufficient_degradation";
  } else if (result.transitions_settled != result.transitions_total) {
    result.failure_reason = "transition_unsettled";
  } else if (std::abs(result.metrics.mean_vout - result.target_vref_v) >
             spec.tolerance_v) {
    result.failure_reason = "regulation_error";
  } else if (!spec.allow_limit_cycling && result.metrics.limit_cycling &&
             result.metrics.vout_stddev > spec.limit_cycle_stddev_v) {
    result.failure_reason = "limit_cycle";
  } else if (spec.dvfs.empty() && !spec.allow_limit_cycling &&
             result.settle_period < 0) {
    result.failure_reason = "never_settled";
  } else {
    result.pass = true;
  }

  return std::move(artifacts);
}

ScenarioResult make_error_result(const ScenarioSpec& spec, ScenarioError error,
                                 std::string detail) {
  ScenarioResult result = make_base_result(spec);
  result.error = error;
  result.error_detail = std::move(detail);
  result.failure_reason = "error:" + std::string(to_string(error));
  return result;
}

ScenarioArtifacts run_scenario_guarded(const ScenarioSpec& spec) {
  ScenarioWorkspace workspace;
  return run_scenario_guarded(spec, workspace);
}

ScenarioArtifacts run_scenario_guarded(const ScenarioSpec& spec,
                                       ScenarioWorkspace& workspace) {
  try {
    if (spec.debug_throw) {
      throw std::runtime_error("debug_throw test hook");
    }
    return run_scenario(spec, workspace);
  } catch (...) {
    ScenarioArtifacts artifacts;
    artifacts.result = make_exception_result(spec, std::current_exception());
    return artifacts;
  }
}

ScenarioResult make_exception_result(const ScenarioSpec& spec,
                                     std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::exception& e) {
    return make_error_result(spec, ScenarioError::kException, e.what());
  } catch (...) {
    return make_error_result(spec, ScenarioError::kException,
                             "non-standard exception");
  }
}

analysis::JsonObject to_json(const ScenarioResult& result) {
  analysis::JsonObject object;
  object.set("schema_version", analysis::kBenchJsonSchemaVersion);
  object.set("name", result.name);
  object.set("family", result.family);
  object.set("architecture", std::string(to_string(result.architecture)));
  object.set("corner", std::string(to_string(result.corner.corner)));
  object.set("supply_v", result.corner.supply_v);
  object.set("temperature_c", result.corner.temperature_c);
  object.set("seed", result.seed);
  object.set("periods", result.periods);
  object.set("locked", result.locked);
  object.set("lock_cycles", result.lock_cycles);
  object.set("pass", result.pass);
  object.set("failure_reason", result.failure_reason);
  object.set("failure_detail", result.failure_detail);
  object.set("verdict", std::string(result.verdict()));
  object.set("error_kind", std::string(to_string(result.error)));
  object.set("error_detail", result.error_detail);
  object.set("attempts", result.attempts);
  object.set("supervised", result.supervised);
  object.set("lock_losses", result.lock_losses);
  object.set("relocks", result.relocks);
  object.set("relock_latency_max", result.relock_latency_max);
  object.set("degradation_level", result.degradation_level);
  object.set("health_events", static_cast<std::uint64_t>(result.health.size()));
  object.set("target_vref_v", result.target_vref_v);
  object.set("mean_vout", result.metrics.mean_vout);
  object.set("vout_stddev", result.metrics.vout_stddev);
  object.set("max_ripple_v", result.metrics.max_ripple_v);
  object.set("mean_abs_error_v", result.metrics.mean_abs_error_v);
  object.set("distinct_duty_words", result.metrics.distinct_duty_words);
  object.set("limit_cycling", result.metrics.limit_cycling);
  object.set("settle_period", result.settle_period);
  object.set("transitions_settled",
             static_cast<std::uint64_t>(result.transitions_settled));
  object.set("transitions_total",
             static_cast<std::uint64_t>(result.transitions_total));
  object.set("efficiency", result.efficiency);
  if (result.mc_dies > 0) {
    // Yield rows only: the fields are absent (not zero) elsewhere, and the
    // engine choice (batched vs scalar fallback) is deliberately invisible
    // -- both paths must render byte-identical rows.
    object.set("mc_dies", result.mc_dies);
    object.set("mc_yield", result.mc_yield);
    object.set("mc_inl_mean_lsb", result.mc_inl_mean_lsb);
    object.set("mc_inl_p95_lsb", result.mc_inl_p95_lsb);
    object.set("mc_inl_max_lsb", result.mc_inl_max_lsb);
  }
  return object;
}

std::string to_json_line(const ScenarioResult& result) {
  return to_json(result).to_json_line();
}

analysis::JsonObject health_to_json(const ScenarioResult& result,
                                    const core::HealthEvent& event) {
  analysis::JsonObject object;
  object.set("schema_version", analysis::kBenchJsonSchemaVersion);
  object.set("scenario", result.name);
  object.set("family", result.family);
  object.set("architecture", std::string(to_string(result.architecture)));
  object.set("seed", result.seed);
  object.set("period", event.period);
  object.set("event", std::string(core::to_string(event.kind)));
  object.set("detail", event.detail);
  object.set("tap_position", event.tap_position);
  object.set("relock_latency_periods", event.relock_latency_periods);
  object.set("relock_cycles", event.relock_cycles);
  object.set("degradation", event.degradation);
  return object;
}

SuiteSummary summarize(const std::vector<ScenarioResult>& results) {
  SuiteSummary summary;
  summary.total = results.size();
  for (const ScenarioResult& result : results) {
    auto& family = summary.by_family[result.family];
    ++family.second;
    if (result.locked) {
      ++summary.locked;
    }
    if (result.pass) {
      ++summary.passed;
      ++family.first;
    } else {
      ++summary.failures[result.failure_reason];
    }
  }
  return summary;
}

std::vector<ScenarioResult> ScenarioRunner::run(
    const std::vector<ScenarioSpec>& specs) const {
  const std::size_t threads =
      threads_ ? threads_ : analysis::default_thread_count();

  // Partition first: batch-eligible scenarios group into shared kernel
  // dispatches (MC-yield dies, closed-loop plant lanes), everything else
  // takes the per-scenario guarded path.  Classification and grouping are
  // deterministic, and every row is placed by spec index, so the JSONL
  // stream stays byte-identical to the ungrouped runner for any thread
  // count.
  ScenarioWorkspace planner_workspace;
  const BatchPlan plan = plan_batches(specs, planner_workspace);
  std::vector<const BatchGroup*> lane_groups;
  std::vector<const BatchGroup*> mc_groups;
  for (const BatchGroup& group : plan.groups) {
    (group.kind == BatchGroup::Kind::kClosedLoop ? lane_groups : mc_groups)
        .push_back(&group);
  }

  // Pool items: each closed-loop lane stream (lockstep on one worker), then
  // each scalar spec.  Every item writes only its own members' rows, and
  // each worker keeps a workspace arena (sizing reused across its items).
  std::vector<ScenarioResult> results(specs.size());
  using Arena = std::shared_ptr<ScenarioWorkspace>;
  analysis::ThreadPool pool(threads);
  analysis::parallel_for_reduce<Arena>(
      pool, lane_groups.size() + plan.scalar.size(),
      [] { return std::make_shared<ScenarioWorkspace>(); },
      [&](std::size_t i, Arena& workspace) {
        if (i < lane_groups.size()) {
          run_batch_group(specs, *lane_groups[i], *workspace, 1, results);
          return;
        }
        // Guarded per scenario: an exception from one spec becomes its own
        // structured error row instead of tearing down the whole batch.
        const std::size_t index = plan.scalar[i - lane_groups.size()];
        results[index] = run_scenario_guarded(specs[index], *workspace).result;
      },
      [](Arena&, Arena&&) {});

  // MC groups: each is one explicit-die dispatch whose internal block
  // sharding uses the same thread budget.
  for (const BatchGroup* group : mc_groups) {
    run_batch_group(specs, *group, planner_workspace, threads, results);
  }
  return results;
}

std::string ScenarioRunner::jsonl(const std::vector<ScenarioResult>& results) {
  std::string out;
  for (const ScenarioResult& result : results) {
    out += to_json_line(result);
    out += '\n';
  }
  return out;
}

std::string ScenarioRunner::health_jsonl(
    const std::vector<ScenarioResult>& results) {
  std::string out;
  for (const ScenarioResult& result : results) {
    for (const core::HealthEvent& event : result.health) {
      out += health_to_json(result, event).to_json_line();
      out += '\n';
    }
  }
  return out;
}

}  // namespace ddl::scenario
