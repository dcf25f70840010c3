#include "ddl/scenario/spec.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "ddl/cells/technology.h"
#include "ddl/core/design_calculator.h"
#include "ddl/core/hybrid_calibrated.h"
#include "ddl/scenario/cli.h"

namespace ddl::scenario {
namespace {

// ---- Flat-spec enum decoding ---------------------------------------------

Architecture architecture_from_string(const std::string& text) {
  for (const Architecture architecture :
       {Architecture::kCounter, Architecture::kHybrid, Architecture::kProposed,
        Architecture::kConventional}) {
    if (text == to_string(architecture)) {
      return architecture;
    }
  }
  throw std::invalid_argument("unknown architecture '" + text + "'");
}

cells::ProcessCorner corner_from_string(const std::string& text) {
  for (const cells::ProcessCorner corner :
       {cells::ProcessCorner::kFast, cells::ProcessCorner::kTypical,
        cells::ProcessCorner::kSlow}) {
    if (text == cells::to_string(corner)) {
      return corner;
    }
  }
  throw std::invalid_argument("unknown process corner '" + text + "'");
}

LoadSpec::Kind load_kind_from_string(const std::string& text) {
  LoadSpec probe;
  for (const LoadSpec::Kind kind :
       {LoadSpec::Kind::kConstant, LoadSpec::Kind::kStep, LoadSpec::Kind::kRamp,
        LoadSpec::Kind::kMarkov}) {
    probe.kind = kind;
    if (text == probe.kind_name()) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown load kind '" + text + "'");
}

FaultSpec::Kind fault_kind_from_string(const std::string& text) {
  FaultSpec probe;
  for (const FaultSpec::Kind kind :
       {FaultSpec::Kind::kDelayCell, FaultSpec::Kind::kStuckTap,
        FaultSpec::Kind::kClockPeriodStep}) {
    probe.kind = kind;
    if (text == probe.kind_name()) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown fault kind '" + text + "'");
}

std::string indexed(const std::string& prefix, std::size_t i,
                    const char* field) {
  return prefix + "." + std::to_string(i) + "." + field;
}

// ---- Strict (checked) spec parsing ----------------------------------------

/// Full-string double parse: strtod must consume every character and stay
/// in range.  ("1.5oops" and "" are rejected, not truncated.)
bool parse_double_strict(const std::string& text, double& out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return false;
  }
  out = value;
  return true;
}

/// Typed, unknown-key-tracking view over a flat field map: every find()
/// marks its key consumed so the caller can flag leftovers, and every
/// typed take() records a structured error instead of silently defaulting.
struct CheckedFields {
  const std::map<std::string, std::string>& fields;
  std::vector<std::string>& errors;
  std::set<std::string> consumed;

  const std::string* find(const std::string& key) {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      return nullptr;
    }
    consumed.insert(key);
    return &it->second;
  }

  void fail(const std::string& key, const char* expected,
            const std::string& got) {
    errors.push_back(key + ": expected " + expected + ", got '" + got + "'");
  }

  void take(const std::string& key, std::string& out) {
    if (const std::string* value = find(key)) {
      out = *value;
    }
  }
  void take(const std::string& key, double& out) {
    if (const std::string* value = find(key)) {
      if (!parse_double_strict(*value, out)) {
        fail(key, "a number", *value);
      }
    }
  }
  void take(const std::string& key, std::uint64_t& out) {
    if (const std::string* value = find(key)) {
      if (!parse_u64(*value, out)) {
        fail(key, "an unsigned integer", *value);
      }
    }
  }
  void take(const std::string& key, int& out) {
    if (const std::string* value = find(key)) {
      if (!parse_count(*value, out)) {
        fail(key, "a non-negative integer", *value);
      }
    }
  }
  void take(const std::string& key, bool& out) {
    if (const std::string* value = find(key)) {
      if (*value == "true") {
        out = true;
      } else if (*value == "false") {
        out = false;
      } else {
        fail(key, "true or false", *value);
      }
    }
  }

  /// Enum fields: `parse` throws std::invalid_argument on unknown values;
  /// here that becomes a collected error.
  template <typename T, typename Parse>
  void take_enum(const std::string& key, T& out, Parse parse) {
    if (const std::string* value = find(key)) {
      try {
        out = parse(*value);
      } catch (const std::invalid_argument& e) {
        errors.push_back(key + ": " + e.what());
      }
    }
  }
};

}  // namespace


std::string_view to_string(Architecture architecture) noexcept {
  switch (architecture) {
    case Architecture::kCounter:
      return "counter";
    case Architecture::kHybrid:
      return "hybrid";
    case Architecture::kProposed:
      return "proposed";
    case Architecture::kConventional:
      return "conventional";
  }
  return "unknown";
}

std::string_view to_string(ScenarioError error) noexcept {
  switch (error) {
    case ScenarioError::kNone:
      return "none";
    case ScenarioError::kException:
      return "exception";
    case ScenarioError::kTimeout:
      return "timeout";
    case ScenarioError::kCrash:
      return "crash";
    case ScenarioError::kResourceLimit:
      return "resource_limit";
    case ScenarioError::kWorkerLost:
      return "worker_lost";
  }
  return "unknown";
}

LoadSpec LoadSpec::constant(double amps) {
  LoadSpec spec;
  spec.kind = Kind::kConstant;
  spec.level_a = amps;
  spec.level2_a = amps;
  return spec;
}

LoadSpec LoadSpec::step(double before, double after, std::uint64_t at_period) {
  LoadSpec spec;
  spec.kind = Kind::kStep;
  spec.level_a = before;
  spec.level2_a = after;
  spec.from_period = at_period;
  return spec;
}

LoadSpec LoadSpec::ramp(double from, double to, std::uint64_t start_period,
                        std::uint64_t end_period) {
  LoadSpec spec;
  spec.kind = Kind::kRamp;
  spec.level_a = from;
  spec.level2_a = to;
  spec.from_period = start_period;
  spec.until_period = end_period;
  return spec;
}

LoadSpec LoadSpec::burst(double idle_a, double burst_a, double p_burst,
                         double p_idle) {
  LoadSpec spec;
  spec.kind = Kind::kMarkov;
  spec.level_a = idle_a;
  spec.level2_a = burst_a;
  spec.p_burst = p_burst;
  spec.p_idle = p_idle;
  return spec;
}

control::LoadProfile LoadSpec::make(std::uint64_t seed) const {
  switch (kind) {
    case Kind::kConstant:
      return control::constant_load(level_a);
    case Kind::kStep:
      return control::step_load(level_a, level2_a, from_period);
    case Kind::kRamp:
      return control::ramp_load(level_a, level2_a, from_period, until_period);
    case Kind::kMarkov:
      return control::markov_load(seed, level_a, level2_a, p_burst, p_idle);
  }
  return control::constant_load(level_a);
}

std::string_view LoadSpec::kind_name() const noexcept {
  switch (kind) {
    case Kind::kConstant:
      return "constant";
    case Kind::kStep:
      return "step";
    case Kind::kRamp:
      return "ramp";
    case Kind::kMarkov:
      return "markov";
  }
  return "unknown";
}

std::string_view FaultSpec::kind_name() const noexcept {
  switch (kind) {
    case Kind::kDelayCell:
      return "delay_cell";
    case Kind::kStuckTap:
      return "stuck_tap";
    case Kind::kClockPeriodStep:
      return "clock_period_step";
  }
  return "unknown";
}

FaultSpec FaultSpec::delay_cell(std::size_t victim, double severity,
                                std::uint64_t at_period,
                                std::uint64_t clear_period) {
  FaultSpec fault;
  fault.kind = Kind::kDelayCell;
  fault.victim_cell = victim;
  fault.severity = severity;
  fault.at_period = at_period;
  fault.clear_period = clear_period;
  return fault;
}

FaultSpec FaultSpec::stuck_tap(std::size_t tap, std::uint64_t at_period,
                               std::uint64_t clear_period) {
  FaultSpec fault;
  fault.kind = Kind::kStuckTap;
  fault.victim_cell = tap;
  fault.at_period = at_period;
  fault.clear_period = clear_period;
  return fault;
}

FaultSpec FaultSpec::clock_period_step(double factor, std::uint64_t at_period,
                                       std::uint64_t clear_period) {
  FaultSpec fault;
  fault.kind = Kind::kClockPeriodStep;
  fault.severity = factor;
  fault.at_period = at_period;
  fault.clear_period = clear_period;
  return fault;
}

double ScenarioSpec::final_vref_v() const noexcept {
  return dvfs.empty() ? vref_v : dvfs.back().vref_v;
}

std::size_t ScenarioSpec::expected_line_cells() const {
  const auto tech = cells::Technology::i32nm_class();
  core::DesignCalculator calc(tech);
  try {
    switch (architecture) {
      case Architecture::kCounter:
        return 0;
      case Architecture::kHybrid:
        return core::size_hybrid_calibrated(tech, clock_mhz, resolution_bits,
                                            counter_bits)
            .line.num_cells;
      case Architecture::kProposed:
        return calc
            .size_proposed(core::DesignSpec{clock_mhz, resolution_bits})
            .line.num_cells;
      case Architecture::kConventional:
        return calc
            .size_conventional(core::DesignSpec{clock_mhz, resolution_bits})
            .line.num_cells;
    }
  } catch (const std::exception&) {
    // Infeasible sizing: the runner will surface that on its own terms;
    // victim-range validation simply has nothing to check against.
    return 0;
  }
  return 0;
}

std::vector<std::string> validate(const ScenarioSpec& spec) {
  return validate(spec, spec.expected_line_cells());
}

std::vector<std::string> validate(const ScenarioSpec& spec,
                                  std::size_t line_cells) {
  std::vector<std::string> errors;
  const auto error = [&](const std::string& message) {
    errors.push_back(spec.name + ": " + message);
  };

  if (!spec.debug_crash.empty() && spec.debug_crash != "segv" &&
      spec.debug_crash != "abort" && spec.debug_crash != "oom" &&
      spec.debug_crash != "spin") {
    error("debug_crash '" + spec.debug_crash +
          "' is not one of segv|abort|oom|spin");
  }

  const std::size_t cells = line_cells;
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    const std::string prefix =
        "fault " + std::to_string(i) + " (" + std::string(fault.kind_name()) +
        "): ";
    if (!(fault.severity > 0.0) || !std::isfinite(fault.severity)) {
      error(prefix + "severity must be a positive finite multiplier, got " +
            std::to_string(fault.severity));
    }
    if (spec.architecture == Architecture::kCounter) {
      error(prefix + "the counter baseline has no delay line to fault");
      continue;
    }
    switch (fault.kind) {
      case FaultSpec::Kind::kDelayCell:
        if (cells > 0 && fault.victim_cell >= cells) {
          error(prefix + "victim_cell " + std::to_string(fault.victim_cell) +
                " out of range for the " + std::to_string(cells) +
                "-cell line");
        }
        break;
      case FaultSpec::Kind::kStuckTap:
        // The conventional lowering freezes the whole register; the tap
        // index only addresses the proposed-family selector.
        if (spec.architecture != Architecture::kConventional && cells > 0 &&
            fault.victim_cell >= cells) {
          error(prefix + "stuck tap " + std::to_string(fault.victim_cell) +
                " out of range for the " + std::to_string(cells) +
                "-cell line");
        }
        break;
      case FaultSpec::Kind::kClockPeriodStep:
        if (spec.architecture == Architecture::kHybrid) {
          error(prefix +
                "clock-period steps are not supported on the hybrid (the "
                "period must stay an exact multiple of the counter tick)");
        }
        break;
    }
    if (fault.at_period >= spec.periods && fault.at_period != 0) {
      error(prefix + "at_period " + std::to_string(fault.at_period) +
            " is outside the " + std::to_string(spec.periods) + "-period run");
    }
    if (fault.clear_period != 0 && fault.clear_period <= fault.at_period) {
      error(prefix + "clear_period " + std::to_string(fault.clear_period) +
            " must be after at_period " + std::to_string(fault.at_period));
    }
    if (fault.runtime() && !spec.dvfs.empty()) {
      error(prefix +
            "runtime-scheduled faults cannot be combined with a DVFS "
            "schedule (the run cannot be segmented across mode changes)");
    }
  }

  if (spec.supervision.enabled) {
    if (spec.architecture == Architecture::kCounter) {
      error("supervision: the counter baseline has no lock to supervise");
    }
    const core::SupervisorConfig& config = spec.supervision.config;
    if (config.max_relock_attempts < 1) {
      error("supervision: max_relock_attempts must be >= 1, got " +
            std::to_string(config.max_relock_attempts));
    }
    if (config.coarse_resolution_loss_bits < 0 ||
        config.coarse_resolution_loss_bits >= spec.resolution_bits) {
      error("supervision: coarse_resolution_loss_bits " +
            std::to_string(config.coarse_resolution_loss_bits) +
            " out of range for a " + std::to_string(spec.resolution_bits) +
            "-bit word");
    }
  } else if (spec.expect_min_lock_losses > 0 || spec.expect_relock ||
             spec.max_relock_latency_periods > 0 ||
             spec.expect_min_degradation > 0) {
    error("recovery expectations require supervision.enabled");
  }

  if (spec.mc_dies > 0) {
    if (spec.architecture != Architecture::kProposed) {
      error("mc_dies: Monte-Carlo yield scenarios model the proposed line's "
            "mismatch statistics; architecture must be proposed");
    }
    if (!spec.dvfs.empty()) {
      error("mc_dies: a Monte-Carlo yield scenario has no closed loop to "
            "run a DVFS schedule on");
    }
    if (spec.supervision.enabled) {
      error("mc_dies: supervision does not apply to a Monte-Carlo yield "
            "scenario");
    }
    for (std::size_t i = 0; i < spec.faults.size(); ++i) {
      const FaultSpec& fault = spec.faults[i];
      if (fault.kind != FaultSpec::Kind::kDelayCell || fault.runtime()) {
        error("mc_dies: fault " + std::to_string(i) +
              " must be a power-on delay_cell fault (applied to every die)");
      }
    }
    if (!spec.expect_lock) {
      error("mc_dies: expect_lock=false has no meaning for a yield "
            "experiment (non-locking dies simply count against yield)");
    }
    if (!(spec.mc_inl_limit_lsb > 0.0)) {
      error("mc_dies: mc_inl_limit_lsb must be positive, got " +
            std::to_string(spec.mc_inl_limit_lsb));
    }
    if (spec.mc_min_yield < 0.0 || spec.mc_min_yield > 1.0) {
      error("mc_dies: mc_min_yield must be in [0, 1], got " +
            std::to_string(spec.mc_min_yield));
    }
  }

  if (spec.measure_from >= spec.periods) {
    error("measure_from " + std::to_string(spec.measure_from) +
          " leaves no steady-state window in a " +
          std::to_string(spec.periods) + "-period run");
  }
  return errors;
}

analysis::JsonObject spec_to_json(const ScenarioSpec& spec) {
  analysis::JsonObject object;
  spec_to_json_into(object, spec);
  return object;
}

void spec_to_json_into(analysis::JsonObject& object, const ScenarioSpec& spec) {
  object.set("name", spec.name);
  object.set("family", spec.family);
  object.set("architecture", std::string(to_string(spec.architecture)));
  object.set("clock_mhz", spec.clock_mhz);
  object.set("resolution_bits", spec.resolution_bits);
  object.set("counter_bits", spec.counter_bits);
  object.set("seed", spec.seed);
  object.set("corner.process",
             std::string(cells::to_string(spec.corner.corner)));
  object.set("corner.supply_v", spec.corner.supply_v);
  object.set("corner.temperature_c", spec.corner.temperature_c);
  object.set("temp_ramp_c_per_us", spec.temp_ramp_c_per_us);
  object.set("supply_spike_v", spec.supply_spike_v);
  object.set("spike_from_period", spec.spike_from_period);
  object.set("spike_until_period", spec.spike_until_period);
  object.set("vref_v", spec.vref_v);
  object.set("load.kind", std::string(spec.load.kind_name()));
  object.set("load.level_a", spec.load.level_a);
  object.set("load.level2_a", spec.load.level2_a);
  object.set("load.from_period", spec.load.from_period);
  object.set("load.until_period", spec.load.until_period);
  object.set("load.p_burst", spec.load.p_burst);
  object.set("load.p_idle", spec.load.p_idle);
  object.set("dvfs.count", static_cast<std::uint64_t>(spec.dvfs.size()));
  for (std::size_t i = 0; i < spec.dvfs.size(); ++i) {
    object.set(indexed("dvfs", i, "at_period"), spec.dvfs[i].at_period);
    object.set(indexed("dvfs", i, "vref_v"), spec.dvfs[i].vref_v);
  }
  object.set("periods", spec.periods);
  object.set("measure_from", spec.measure_from);
  object.set("tolerance_v", spec.tolerance_v);
  object.set("settle_band_v", spec.settle_band_v);
  object.set("expect_lock", spec.expect_lock);
  object.set("allow_limit_cycling", spec.allow_limit_cycling);
  object.set("limit_cycle_stddev_v", spec.limit_cycle_stddev_v);
  object.set("supervision.enabled", spec.supervision.enabled);
  if (spec.supervision.enabled) {
    const core::SupervisorConfig& config = spec.supervision.config;
    object.set("supervision.tap_drift_window",
               static_cast<std::uint64_t>(config.tap_drift_window));
    object.set("supervision.margin_floor_ps", config.margin_floor_ps);
    object.set("supervision.margin_periods", config.margin_periods);
    object.set("supervision.watchdog_error_code", config.watchdog_error_code);
    object.set("supervision.watchdog_periods", config.watchdog_periods);
    object.set("supervision.max_relock_attempts", config.max_relock_attempts);
    object.set("supervision.relock_backoff_periods",
               config.relock_backoff_periods);
    object.set("supervision.relock_stability_periods",
               config.relock_stability_periods);
    object.set("supervision.coarse_resolution_loss_bits",
               config.coarse_resolution_loss_bits);
    object.set("supervision.counter_fallback", config.counter_fallback);
  }
  object.set("expect_min_lock_losses", spec.expect_min_lock_losses);
  object.set("expect_relock", spec.expect_relock);
  object.set("max_relock_latency_periods", spec.max_relock_latency_periods);
  object.set("expect_min_degradation", spec.expect_min_degradation);
  object.set("mc_dies", spec.mc_dies);
  object.set("mc_inl_limit_lsb", spec.mc_inl_limit_lsb);
  object.set("mc_min_yield", spec.mc_min_yield);
  object.set("mc_force_scalar", spec.mc_force_scalar);
  object.set("faults.count", static_cast<std::uint64_t>(spec.faults.size()));
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    object.set(indexed("faults", i, "kind"), std::string(fault.kind_name()));
    object.set(indexed("faults", i, "victim_cell"),
               static_cast<std::uint64_t>(fault.victim_cell));
    object.set(indexed("faults", i, "severity"), fault.severity);
    object.set(indexed("faults", i, "at_period"), fault.at_period);
    object.set(indexed("faults", i, "clear_period"), fault.clear_period);
  }
  // Debug test hooks serialize only when set: every pre-existing spec keeps
  // its exact serialization (content fingerprints and replay bundles are
  // byte-stable), while hook-carrying specs survive the trip to a sandbox
  // worker process.
  if (spec.debug_hang_ms > 0) {
    object.set("debug_hang_ms", spec.debug_hang_ms);
    object.set("debug_hang_attempts", spec.debug_hang_attempts);
  }
  if (spec.debug_throw) {
    object.set("debug_throw", spec.debug_throw);
  }
  if (!spec.debug_crash.empty()) {
    object.set("debug_crash", spec.debug_crash);
  }
}

SpecParse spec_from_json_checked(
    const std::map<std::string, std::string>& fields) {
  SpecParse parse;
  ScenarioSpec& spec = parse.spec;
  CheckedFields in{fields, parse.errors, {}};

  in.take("name", spec.name);
  in.take("family", spec.family);
  in.take_enum("architecture", spec.architecture, architecture_from_string);
  in.take("clock_mhz", spec.clock_mhz);
  in.take("resolution_bits", spec.resolution_bits);
  in.take("counter_bits", spec.counter_bits);
  in.take("seed", spec.seed);
  in.take_enum("corner.process", spec.corner.corner, corner_from_string);
  in.take("corner.supply_v", spec.corner.supply_v);
  in.take("corner.temperature_c", spec.corner.temperature_c);
  in.take("temp_ramp_c_per_us", spec.temp_ramp_c_per_us);
  in.take("supply_spike_v", spec.supply_spike_v);
  in.take("spike_from_period", spec.spike_from_period);
  in.take("spike_until_period", spec.spike_until_period);
  in.take("vref_v", spec.vref_v);
  in.take_enum("load.kind", spec.load.kind, load_kind_from_string);
  in.take("load.level_a", spec.load.level_a);
  in.take("load.level2_a", spec.load.level2_a);
  in.take("load.from_period", spec.load.from_period);
  in.take("load.until_period", spec.load.until_period);
  in.take("load.p_burst", spec.load.p_burst);
  in.take("load.p_idle", spec.load.p_idle);
  std::size_t dvfs_count = 0;
  in.take("dvfs.count", dvfs_count);
  for (std::size_t i = 0; i < dvfs_count; ++i) {
    control::VoltageMode mode;
    in.take(indexed("dvfs", i, "at_period"), mode.at_period);
    in.take(indexed("dvfs", i, "vref_v"), mode.vref_v);
    spec.dvfs.push_back(mode);
  }
  in.take("periods", spec.periods);
  in.take("measure_from", spec.measure_from);
  in.take("tolerance_v", spec.tolerance_v);
  in.take("settle_band_v", spec.settle_band_v);
  in.take("expect_lock", spec.expect_lock);
  in.take("allow_limit_cycling", spec.allow_limit_cycling);
  in.take("limit_cycle_stddev_v", spec.limit_cycle_stddev_v);
  in.take("supervision.enabled", spec.supervision.enabled);
  {
    // Config keys type-check whether or not supervision is enabled, so a
    // disabled-but-present block still fails loudly on a typo'd value.
    core::SupervisorConfig& config = spec.supervision.config;
    in.take("supervision.tap_drift_window", config.tap_drift_window);
    in.take("supervision.margin_floor_ps", config.margin_floor_ps);
    in.take("supervision.margin_periods", config.margin_periods);
    in.take("supervision.watchdog_error_code", config.watchdog_error_code);
    in.take("supervision.watchdog_periods", config.watchdog_periods);
    in.take("supervision.max_relock_attempts", config.max_relock_attempts);
    in.take("supervision.relock_backoff_periods",
            config.relock_backoff_periods);
    in.take("supervision.relock_stability_periods",
            config.relock_stability_periods);
    in.take("supervision.coarse_resolution_loss_bits",
            config.coarse_resolution_loss_bits);
    in.take("supervision.counter_fallback", config.counter_fallback);
  }
  in.take("expect_min_lock_losses", spec.expect_min_lock_losses);
  in.take("expect_relock", spec.expect_relock);
  in.take("max_relock_latency_periods", spec.max_relock_latency_periods);
  in.take("expect_min_degradation", spec.expect_min_degradation);
  in.take("mc_dies", spec.mc_dies);
  in.take("mc_inl_limit_lsb", spec.mc_inl_limit_lsb);
  in.take("mc_min_yield", spec.mc_min_yield);
  in.take("mc_force_scalar", spec.mc_force_scalar);
  std::size_t fault_count = 0;
  in.take("faults.count", fault_count);
  for (std::size_t i = 0; i < fault_count; ++i) {
    FaultSpec fault;
    in.take_enum(indexed("faults", i, "kind"), fault.kind,
                 fault_kind_from_string);
    in.take(indexed("faults", i, "victim_cell"), fault.victim_cell);
    in.take(indexed("faults", i, "severity"), fault.severity);
    in.take(indexed("faults", i, "at_period"), fault.at_period);
    in.take(indexed("faults", i, "clear_period"), fault.clear_period);
    spec.faults.push_back(fault);
  }
  in.take("debug_hang_ms", spec.debug_hang_ms);
  in.take("debug_hang_attempts", spec.debug_hang_attempts);
  in.take("debug_throw", spec.debug_throw);
  in.take("debug_crash", spec.debug_crash);

  for (const auto& [key, value] : fields) {
    if (in.consumed.count(key) == 0) {
      parse.errors.push_back(key + ": unknown key");
    }
  }
  return parse;
}

}  // namespace ddl::scenario
