// Scenario execution: lower a ScenarioSpec onto the library (sizing ->
// line -> DPWM -> closed loop), run it, and classify the outcome into a
// structured ScenarioResult.
//
// Batch execution runs on the ddl::analysis thread pool with the layer's
// determinism contract: scenarios shard by contiguous index range, every
// scenario is self-contained (its own line, DPWM, plant -- the sim kernel
// threading rules of DESIGN.md apply), and per-shard result vectors merge
// in index order.  The JSONL stream and the suite summary are therefore
// *byte-identical for any thread count* -- per-scenario lines carry no
// wall-clock or thread-count fields by design.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/spec.h"

namespace ddl::scenario {

/// Structured outcome of one scenario run.
struct ScenarioResult {
  // Identity (copied from the spec so a result line is self-describing).
  std::string name;
  std::string family;
  Architecture architecture = Architecture::kProposed;
  cells::OperatingPoint corner;
  std::uint64_t seed = 0;
  std::uint64_t periods = 0;

  // Calibration.
  bool locked = false;
  std::uint64_t lock_cycles = 0;

  // Verdict.
  bool pass = false;
  std::string failure_reason;  ///< Empty when pass; else the first failed
                               ///< check: invalid_spec, no_lock,
                               ///< unexpected_lock, lock_loss_undetected,
                               ///< no_recovery, relock_too_slow,
                               ///< insufficient_degradation,
                               ///< transition_unsettled, regulation_error,
                               ///< limit_cycle, never_settled -- or
                               ///< error:exception / error:timeout when the
                               ///< run itself died (see `error`).
  std::string failure_detail;  ///< Extra context (invalid_spec messages).

  // Execution error (kNone unless the run itself threw or timed out; see
  // ScenarioError).  `attempts` counts watchdog attempts consumed -- 1 for
  // a clean first-try run, >1 after transient retries.
  ScenarioError error = ScenarioError::kNone;
  std::string error_detail;
  int attempts = 1;

  /// Three-way verdict rendered into every JSONL row: "error" when the run
  /// itself failed (exception/timeout), else "pass"/"fail" by the checks.
  std::string_view verdict() const noexcept {
    return error != ScenarioError::kNone ? "error" : pass ? "pass" : "fail";
  }

  // Supervision (zero/empty unless the spec enabled it).
  bool supervised = false;
  std::uint64_t lock_losses = 0;
  std::uint64_t relocks = 0;
  std::uint64_t relock_latency_max = 0;
  int degradation_level = 0;  ///< Final core::DegradationLevel.
  std::vector<core::HealthEvent> health;  ///< Full event stream.

  // Steady-state window metrics (zero when calibration failed).
  control::LoopMetrics metrics;
  double target_vref_v = 1.0;
  /// First period where vout held the settle band, or -1 if never (only
  /// measured for schedules without DVFS steps).
  std::int64_t settle_period = -1;
  std::size_t transitions_settled = 0;
  std::size_t transitions_total = 0;
  double efficiency = 0.0;

  // Monte-Carlo yield (zero unless the spec set mc_dies; see ScenarioSpec).
  // The JSONL row carries these only for yield scenarios, and deliberately
  // not the engine choice (batched vs forced-scalar) -- the two paths must
  // emit byte-identical rows.
  std::uint64_t mc_dies = 0;       ///< Dies evaluated.
  double mc_yield = 0.0;           ///< Fraction with |INL| <= the limit.
  double mc_inl_mean_lsb = 0.0;    ///< Max-|INL| distribution, in LSBs.
  double mc_inl_p95_lsb = 0.0;
  double mc_inl_max_lsb = 0.0;
};

/// Renders one result as a flat ordered JsonObject (the JSONL record
/// schema; see DESIGN.md "Scenario engine").  Health events appear only as
/// a count here; the full stream renders via `health_to_json`.
analysis::JsonObject to_json(const ScenarioResult& result);

/// One result as a single JSONL line (no trailing newline).
std::string to_json_line(const ScenarioResult& result);

/// One health event as a flat JsonObject, tagged with its scenario.
analysis::JsonObject health_to_json(const ScenarioResult& result,
                                    const core::HealthEvent& event);

/// Everything a single run produces -- the full telemetry for examples and
/// debugging, not just the verdict.
struct ScenarioArtifacts {
  ScenarioResult result;
  std::vector<control::LoopSample> history;
  std::vector<control::TransitionReport> transitions;
};

class ScenarioWorkspace;

/// Runs one scenario synchronously on the calling thread.
ScenarioArtifacts run_scenario(const ScenarioSpec& spec);

/// Like `run_scenario`, with a caller-owned workspace arena supplying the
/// cached sizing (see workspace.h).  Byte-identical output: sizing is pure,
/// so the arena only removes recomputation, never changes a row.
ScenarioArtifacts run_scenario(const ScenarioSpec& spec,
                               ScenarioWorkspace& workspace);

/// Like `run_scenario`, but never throws: any exception escaping spec
/// execution (infeasible sizing, allocation failure, a model bug) becomes a
/// structured `ScenarioError::kException` result carrying the exception
/// message, so one broken scenario cannot take down a whole batch.  Honors
/// the `debug_throw` test hook.
ScenarioArtifacts run_scenario_guarded(const ScenarioSpec& spec);

/// Guarded run with a caller-owned workspace arena.
ScenarioArtifacts run_scenario_guarded(const ScenarioSpec& spec,
                                       ScenarioWorkspace& workspace);

/// The identity prefix every result row shares (name, family, architecture,
/// corner, seed, periods, target), factored out so the batch planner and
/// the error/timeout synthesizers stamp rows with exactly the runner's
/// shape.
ScenarioResult make_base_result(const ScenarioSpec& spec);

/// The structured `invalid_spec` failure run_scenario produces for a spec
/// that fails validation, factored out so the campaign watchdog can
/// short-circuit validation once before the retry loop.
ScenarioResult make_invalid_spec_result(const ScenarioSpec& spec,
                                        const std::vector<std::string>& problems);

/// The error result `run_scenario_guarded` would produce, factored out so
/// the campaign watchdog can synthesize timeout rows with the same shape.
ScenarioResult make_error_result(const ScenarioSpec& spec, ScenarioError error,
                                 std::string detail);

/// Suite-level aggregate of a batch run.
struct SuiteSummary {
  std::size_t total = 0;
  std::size_t passed = 0;
  std::size_t locked = 0;
  /// Failure reason -> count, key-sorted (deterministic iteration).
  std::map<std::string, std::size_t> failures;
  /// Family -> {passed, total}, key-sorted.
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_family;
};

SuiteSummary summarize(const std::vector<ScenarioResult>& results);

/// Parallel batch runner.  `threads == 0` resolves the analysis layer's
/// default (DDL_THREADS / hardware concurrency); any value yields identical
/// results.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(std::size_t threads = 0) : threads_(threads) {}

  /// Runs every spec and returns results in spec order.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs) const;

  /// The results as a JSONL document (one object per line, spec order).
  static std::string jsonl(const std::vector<ScenarioResult>& results);

  /// The health-event streams of every supervised result as a JSONL
  /// document (spec order, then event order).  Same determinism contract
  /// as `jsonl`: byte-identical for any thread count.
  static std::string health_jsonl(const std::vector<ScenarioResult>& results);

  std::size_t threads() const noexcept { return threads_; }

 private:
  std::size_t threads_;
};

}  // namespace ddl::scenario
