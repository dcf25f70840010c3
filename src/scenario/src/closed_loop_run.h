// One closed-loop scenario as a resumable state machine (internal to the
// scenario library).
//
// run_scenario drives it one period at a time with the scalar plant; the
// batch planner's lane streams drive up to analog::kPlantLanes of them in
// lockstep, their plants integrated together by analog::PlantLanes.  Both
// paths share every step here -- build, lock, the fault/DVFS event
// schedule, the verdict -- so a scenario's row is the same bytes whichever
// path ran it.  The verdict's inputs (metrics, settle period, DVFS
// transitions) accumulate online, one sample per period, so a run needs
// no loop history; run_scenario keeps it only for its artifacts.
#pragma once

#include <exception>
#include <memory>

#include "ddl/analog/buck.h"
#include "ddl/control/closed_loop.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {

class ClosedLoopRun {
 public:
  /// Builds and locks the system of a valid closed-loop spec (validate()
  /// passed, mc_dies == 0).  Throws what run_scenario would throw.  `spec`
  /// and `workspace` must outlive the run.  `keep_history`: record the
  /// per-period LoopSample history for ScenarioArtifacts::history.
  ClosedLoopRun(const ScenarioSpec& spec, ScenarioWorkspace& workspace,
                bool keep_history);
  ~ClosedLoopRun();
  ClosedLoopRun(const ClosedLoopRun&) = delete;
  ClosedLoopRun& operator=(const ClosedLoopRun&) = delete;

  /// Applies the fault or DVFS events due before the next period and runs
  /// its pre-plant half into `step`.  Returns false, after applying the
  /// events due at the end of the run, once every period has run (at once
  /// when the loop never runs: no lock, or an expected lock failure).
  bool begin_period(control::PeriodStep& step);

  /// The converter `step` must run through before end_period.
  analog::BuckConverter& plant();

  /// The post-plant half of the period begin_period started.
  void end_period(const control::PeriodStep& step);

  /// The verdict, after begin_period returned false.  Moves the history
  /// (if kept) out; call once.
  ScenarioArtifacts finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The row run_scenario_guarded renders for an exception escaping a run.
ScenarioResult make_exception_result(const ScenarioSpec& spec,
                                     std::exception_ptr error);

}  // namespace ddl::scenario
