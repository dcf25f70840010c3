// Chaos fault-schedule fuzzing with shrinking.
//
// A ChaosCampaignSpec expands one base scenario into N seeded random fault
// storms -- random delay_cell / stuck_tap / clock_period_step faults over
// random periods, valid by construction against FaultSpec validation -- to
// hammer the lock-supervision and re-calibration story the same way the
// DLL-hardening literature does with randomized fault campaigns.  Storm
// generation uses an internal splitmix64 stream, so the same (base, seed)
// always yields byte-identical specs on every platform and compiler.
//
// When a storm fails, a greedy delta-debugging shrinker re-runs the
// scenario with subsets of its fault plan until the plan is 1-minimal: no
// single fault can be removed (and no clear can be dropped) while keeping
// the same failure reason.  The result is rendered as a *replay bundle* --
// a flat JSON file carrying the complete minimal ScenarioSpec, its seed
// and the expected verdict -- reproducible on any checkout via
// `ddl_scenario_runner --replay <bundle>`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ddl/scenario/runner.h"
#include "ddl/scenario/spec.h"

namespace ddl::scenario {

/// One chaos campaign: `storms` seeded fault schedules over `base`.
struct ChaosCampaignSpec {
  /// The scenario each storm perturbs.  Must carry a delay line (not the
  /// counter baseline), no DVFS schedule (runtime faults cannot segment
  /// across mode changes) and no fault plan of its own.
  ScenarioSpec base;
  std::size_t storms = 8;
  std::uint64_t seed = 1;
  /// Faults per storm are drawn uniformly from [1, max_faults_per_storm].
  std::size_t max_faults_per_storm = 3;
};

/// Expands the campaign into its storm scenarios, named
/// `chaos/<arch>/<corner>/storm-<i>` with family "chaos".  Every spec
/// passes validate() by construction.  Throws std::invalid_argument when
/// the base cannot carry runtime faults (counter architecture, DVFS
/// schedule, infeasible sizing or a pre-existing fault plan).
std::vector<ScenarioSpec> expand_chaos(const ChaosCampaignSpec& chaos);

/// Outcome of shrinking one failing storm.
struct ShrinkReport {
  ScenarioSpec minimal;         ///< 1-minimal failing spec.
  std::string failure_reason;   ///< The preserved failure classification.
  ScenarioError error = ScenarioError::kNone;  ///< Preserved error kind.
  std::size_t runs = 0;           ///< Scenario executions spent shrinking.
  std::size_t removed_faults = 0; ///< Faults deleted from the plan.
  std::size_t simplified_faults = 0;  ///< Clears dropped (made permanent).
  bool failing = false;  ///< False when the input spec actually passes.
};

/// Greedy delta-debugging over the fault plan: repeatedly drop each fault,
/// then each clear_period, keeping any reduction that reproduces the same
/// `failure_reason`.  Deterministic (pure function of the spec).
ShrinkReport shrink_failure(const ScenarioSpec& failing);

/// Renders a shrink report as a replay bundle document (flat JSON:
/// expected verdict + `spec.`-prefixed minimal spec fields).
std::string replay_bundle_json(const ShrinkReport& report);

/// A parsed replay bundle.
struct ReplayBundle {
  ScenarioSpec spec;
  std::string expected_failure_reason;
};

/// Parses a bundle document.  Throws std::invalid_argument when the
/// content is not a bundle or its `spec.` fields fail the strict spec
/// parse (spec_from_json_checked).
ReplayBundle parse_replay_bundle(const std::string& content);

/// Re-runs a bundle's spec and checks the expected verdict reproduces.
struct ReplayOutcome {
  ScenarioResult result;
  bool reproduced = false;
};

ReplayOutcome replay(const ReplayBundle& bundle);

/// The replay rule, shared by replay() and the daemon's replay jobs: a run
/// reproduces an expected failure_reason by failing with exactly it, and
/// an empty expectation by passing.
bool reproduces(const ScenarioResult& result,
                const std::string& expected_failure_reason);

}  // namespace ddl::scenario
