// Declarative scenario model: one `ScenarioSpec` value describes a complete
// closed-loop regulator experiment -- which DPWM architecture regulates,
// at which PVT corner, under which load / reference-voltage / drift / fault
// stimulus, with which seed -- without writing a bespoke main().
//
// A spec composes only things the library already models (DesignCalculator
// sizing, EnvironmentSchedule drift, LoadProfile workloads, VoltageModeManager
// DVFS schedules, ProposedDelayLine fault injection), so executing one is
// pure plumbing: see runner.h.  Specs are plain values -- copyable,
// comparable by name, and cheap to generate in bulk from the registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/cells/operating_point.h"
#include "ddl/control/closed_loop.h"
#include "ddl/control/dvfs.h"
#include "ddl/core/lock_supervisor.h"

namespace ddl::scenario {

/// Which DPWM family regulates the loop.
enum class Architecture {
  kCounter,       ///< Ideal counter DPWM (corner-immune digital baseline).
  kHybrid,        ///< Counter MSBs + calibrated proposed-line LSBs (ref [30]).
  kProposed,      ///< The paper's calibrated delay line.
  kConventional,  ///< The adjustable-cells delay line.
};

std::string_view to_string(Architecture architecture) noexcept;

/// Load stimulus, declaratively.  `make()` lowers it onto the closed-loop
/// LoadProfile helpers (constant_load / step_load / ramp_load / markov_load).
struct LoadSpec {
  enum class Kind { kConstant, kStep, kRamp, kMarkov };

  Kind kind = Kind::kConstant;
  double level_a = 0.4;       ///< Constant level / before / idle current.
  double level2_a = 0.4;      ///< After / ramp-end / burst current.
  std::uint64_t from_period = 0;   ///< Step instant / ramp start.
  std::uint64_t until_period = 0;  ///< Ramp end (ignored otherwise).
  double p_burst = 0.01;      ///< Markov: idle -> burst probability.
  double p_idle = 0.05;       ///< Markov: burst -> idle probability.

  static LoadSpec constant(double amps);
  static LoadSpec step(double before, double after, std::uint64_t at_period);
  static LoadSpec ramp(double from, double to, std::uint64_t start_period,
                       std::uint64_t end_period);
  static LoadSpec burst(double idle_a, double burst_a, double p_burst = 0.01,
                        double p_idle = 0.05);

  /// Lowers the spec to a runnable profile; `seed` feeds the Markov chain
  /// (ignored by the deterministic kinds).
  control::LoadProfile make(std::uint64_t seed) const;

  /// Short human/JSON tag: "constant", "step", "ramp", "markov".
  std::string_view kind_name() const noexcept;
};

/// One scheduled fault.  A scenario carries a *plan* (vector of these);
/// each fault names its kind, victim, strength, and when during the run it
/// strikes and (optionally) clears.
struct FaultSpec {
  enum class Kind {
    kDelayCell,        ///< Victim cell's delay multiplied by `severity`
                       ///< (resistive via / weak driver).  Clearing divides
                       ///< it back out.  All delay-line architectures.
    kStuckTap,         ///< Proposed/hybrid: tap selector stuck at
                       ///< `victim_cell`; conventional: shift register
                       ///< frozen in place.  Clearing releases the search.
    kClockPeriodStep,  ///< Reference clock period multiplied by `severity`
                       ///< (clock-tree fault / DVFS reference step the line
                       ///< must re-track).  Proposed and conventional only.
  };

  Kind kind = Kind::kDelayCell;
  std::size_t victim_cell = 0;  ///< Cell / stuck tap index (kind-dependent).
  double severity = 1.0;        ///< Delay or period multiplier.
  /// Switching period the fault strikes on; 0 = present from power-on
  /// (injected before calibration).
  std::uint64_t at_period = 0;
  /// Switching period the fault clears on; 0 = permanent.
  std::uint64_t clear_period = 0;

  bool active() const noexcept {
    return kind == Kind::kStuckTap || severity != 1.0;
  }
  bool runtime() const noexcept { return at_period > 0 || clear_period > 0; }
  std::string_view kind_name() const noexcept;

  static FaultSpec delay_cell(std::size_t victim, double severity,
                              std::uint64_t at_period = 0,
                              std::uint64_t clear_period = 0);
  static FaultSpec stuck_tap(std::size_t tap, std::uint64_t at_period,
                             std::uint64_t clear_period = 0);
  static FaultSpec clock_period_step(double factor, std::uint64_t at_period,
                                     std::uint64_t clear_period = 0);
};

/// Execution-error taxonomy: how a scenario *run* failed, as opposed to a
/// verdict failure (the scenario ran to completion but missed its bounds).
/// A non-kNone error renders as `verdict:"error"` in the JSONL stream so a
/// crashed or hung scenario is a structured row, never a lost batch.
enum class ScenarioError {
  kNone = 0,   ///< Ran to completion (verdict is pass/fail).
  kException,  ///< Spec execution threw; `error_detail` carries what().
  kTimeout,    ///< Watchdog deadline expired on every allowed attempt.
  kCrash,          ///< Sandbox worker died on a fatal signal (SIGSEGV,
                   ///< SIGABRT, ...); `error_detail` carries the signal and
                   ///< the faulting spec's content fingerprint.
  kResourceLimit,  ///< Sandbox worker hit its RLIMIT_AS / RLIMIT_CPU cap.
  kWorkerLost,     ///< Worker vanished for an unattributable reason (pipe
                   ///< EOF mid-scenario, external kill) -- transient, so it
                   ///< retries like a timeout.
};

std::string_view to_string(ScenarioError error) noexcept;

/// Lock supervision: when enabled the runner wraps the calibrated system in
/// a core::LockSupervisor (detection thresholds and recovery policy come
/// from `config`) and records its health events alongside the result.
struct SupervisionSpec {
  bool enabled = false;
  core::SupervisorConfig config;
};

/// The complete declarative scenario.
struct ScenarioSpec {
  std::string name;    ///< Unique id: "<family>/<arch>/<corner>/<variant>".
  std::string family;  ///< regulation | transient | dvfs | pvt | fault |
                       ///< recovery.

  // --- System under test -------------------------------------------------
  Architecture architecture = Architecture::kProposed;
  double clock_mhz = 1.0;    ///< Switching / calibration clock.
  int resolution_bits = 6;   ///< Guaranteed DPWM resolution (DesignSpec).
  int counter_bits = 7;      ///< Hybrid only: MSBs taken by the counter.
  std::uint64_t seed = 1;    ///< Die mismatch + workload seed.
  std::vector<FaultSpec> faults;  ///< Fault plan (power-on and scheduled).
  SupervisionSpec supervision;    ///< Lock supervision (recovery family).

  // --- Environment -------------------------------------------------------
  cells::OperatingPoint corner;
  double temp_ramp_c_per_us = 0.0;  ///< Drift: linear temperature ramp.
  double supply_spike_v = 0.0;      ///< Drift: rectangular supply spike...
  std::uint64_t spike_from_period = 0;   ///< ...during [from, until)
  std::uint64_t spike_until_period = 0;  ///< switching periods.

  // --- Stimulus ----------------------------------------------------------
  double vref_v = 1.0;  ///< Initial regulation target.
  LoadSpec load;
  /// Reference-voltage steps (DVFS schedule); empty = fixed reference.
  std::vector<control::VoltageMode> dvfs;

  // --- Run length & verdict criteria ------------------------------------
  std::uint64_t periods = 2500;       ///< Switching periods simulated.
  std::uint64_t measure_from = 1800;  ///< Steady-state window start.
  double tolerance_v = 0.03;    ///< |mean vout - target| bound.
  double settle_band_v = 0.03;  ///< Settling / DVFS transition band.
  bool expect_lock = true;      ///< False: calibration *must* fail (the
                                ///< conventional slow-corner blind spot).
  bool allow_limit_cycling = false;  ///< Coarse DPWMs limit-cycle by design
                                     ///< (Eq 11/12); true skips that check
                                     ///< and the settling check.
  /// A run only *fails* as a limit cycle when the loop hunts across duty
  /// words AND vout swings beyond this (one ADC LSB by default) -- Eq 11/12
  /// defines the limit cycle as an oscillation across the ADC window, so
  /// sub-LSB dither at fine word widths is not a failure.
  double limit_cycle_stddev_v = 0.010;

  // --- Recovery verdicts (checked only when supervision is enabled) ------
  /// The supervisor must have detected at least this many lock losses
  /// (0 = unchecked).  Fails as `lock_loss_undetected`.
  std::uint64_t expect_min_lock_losses = 0;
  /// At least one successful re-lock is required.  Fails as `no_recovery`.
  bool expect_relock = false;
  /// Worst observed re-lock latency must not exceed this many periods
  /// (0 = unchecked).  Fails as `relock_too_slow`.
  std::uint64_t max_relock_latency_periods = 0;
  /// Final degradation level must reach at least this rung (0 = unchecked;
  /// values are core::DegradationLevel).  Fails as
  /// `insufficient_degradation`.
  int expect_min_degradation = 0;

  // --- Monte-Carlo yield (scenario-level linearity/yield campaigns) ------
  /// When > 0 the scenario is a Monte-Carlo yield experiment instead of a
  /// closed-loop run: `mc_dies` mismatch-sampled dies of the proposed line
  /// are evaluated through the batched MC engine (analysis::mc_batch) where
  /// the closed form applies, with the scalar per-die path as automatic
  /// fallback.  Proposed architecture only; no DVFS/supervision, and only
  /// power-on delay-cell faults (applied to every die).
  std::uint64_t mc_dies = 0;
  /// A die passes when its transfer curve's max |INL| stays within this
  /// many duty LSBs.
  double mc_inl_limit_lsb = 0.5;
  /// Verdict threshold: pass iff passing-die fraction >= this.  Fails as
  /// `yield_below_min`.
  double mc_min_yield = 0.0;
  /// Test hook: force every die down the scalar reference path
  /// (batch_die_inl_scalar) -- the JSONL row must stay byte-identical to
  /// the batched path, which is what the equivalence test proves.
  bool mc_force_scalar = false;

  // --- Test hooks (exercised by the campaign isolation tests and the
  // runner's --inject-hang flag; no built-in suite sets them) -------------
  /// Hang: the sandbox worker sleeps this long before executing, so
  /// watchdog timeouts are testable without a real deadlock.  The
  /// in-process ScenarioRunner ignores it.
  std::uint64_t debug_hang_ms = 0;
  /// How many attempts hang; later attempts run normally (retry testing).
  int debug_hang_attempts = 1;
  /// The guarded runner throws instead of executing (exception capture).
  bool debug_throw = false;
  /// Crash injection (sandbox testing; the runner's --inject-crash flag): "segv" / "abort" raise the fatal signal inside
  /// the sandbox worker, "oom" allocates until the worker's RLIMIT_AS cap
  /// kills it, "spin" busy-loops until RLIMIT_CPU or the watchdog does.
  /// Empty = no injection.  Only honored by the sandbox worker: the
  /// in-process ScenarioRunner ignores it rather than crash the host
  /// process.
  std::string debug_crash;

  /// The regulation target the steady-state window is judged against: the
  /// last DVFS mode's vref, or `vref_v` when the schedule is empty.
  double final_vref_v() const noexcept;

  /// Delay-line cells the named architecture will be sized with (what
  /// fault victims are validated against) -- the same DesignCalculator
  /// sizing the runner uses.  0 when there is no line (counter baseline)
  /// or the sizing itself is infeasible.
  std::size_t expected_line_cells() const;
};

/// Cross-field validation the type system cannot express: fault victims in
/// range for the sized line, severities positive, schedules ordered and
/// inside the run, supervision knobs meaningful for the architecture.
/// Returns human-readable messages, each prefixed with the scenario name;
/// empty means valid.  The registry validates every built-in suite at
/// expansion; run_scenario() turns a non-empty result into a structured
/// `invalid_spec` failure instead of throwing mid-run.
std::vector<std::string> validate(const ScenarioSpec& spec);

/// Same checks with the sized line's cell count supplied by the caller
/// (must equal `spec.expected_line_cells()`), so a worker that already
/// holds the sizing -- the ScenarioWorkspace arena -- validates without
/// re-running the DesignCalculator.
std::vector<std::string> validate(const ScenarioSpec& spec,
                                  std::size_t line_cells);

// ---- Spec codec -------------------------------------------------------------
//
// The one flat-JSON dialect a spec travels in: job journals, sandbox
// worker frames, service submissions and chaos replay bundles.

/// Serializes a complete ScenarioSpec as a flat JsonObject (vectors are
/// flattened as `faults.<i>.<field>` / `dvfs.<i>.<field>`): the replay
/// bundle dialect, parseable by `analysis::parse_flat_json_line`.
analysis::JsonObject spec_to_json(const ScenarioSpec& spec);

/// Appends the same flat serialization onto an existing object (whose own
/// fields -- a frame type, a sequence number -- stay in front).  The
/// sandbox supervisor ships specs to its worker processes this way.
void spec_to_json_into(analysis::JsonObject& object, const ScenarioSpec& spec);

/// A strict parse attempt: the rebuilt spec plus every problem found.
/// `errors` uses the same human-readable shape as validate() messages
/// ("<key>: <what went wrong>"); the spec keeps defaults for every field
/// that failed to parse, so callers can still render context from it.
struct SpecParse {
  ScenarioSpec spec;
  std::vector<std::string> errors;
  bool ok() const noexcept { return errors.empty(); }
};

/// Rebuilds a spec from the flat dialect: the one spec decoder.  Missing
/// keys keep their defaults.  Never throws or aborts; collects an error for
/// every wrong-typed field (the whole value must parse -- "8oops" is
/// rejected, not truncated), every unparseable enum, and -- unless
/// `allow_unknown` -- every key outside the spec dialect (typo'd field
/// names fail loudly instead of silently keeping a default).  Sandbox
/// worker frames pass `allow_unknown` for their own frame keys.
SpecParse spec_from_json_checked(
    const std::map<std::string, std::string>& fields,
    bool allow_unknown = false);

}  // namespace ddl::scenario
