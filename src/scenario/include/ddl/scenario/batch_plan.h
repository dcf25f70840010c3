// Batch planner: routes a suite's scenarios through shared SIMD kernels
// *across* scenario boundaries.
//
// Two kinds of group:
//
//   MC yield     scenarios that differ only in seed, fault plan and verdict
//                thresholds share the 8-lane mc_batch kernel's parameters
//                (line geometry, mismatch sigma, clock period, corner);
//                their dies pack into shared kBatchLanes-wide blocks and
//                the whole group is one batched dispatch.
//   closed loop  a lane stream: closed-loop scenarios run in lockstep on
//                analog::kPlantLanes lanes, period by period, and a lane
//                freed by a finished scenario takes the next one.  Each
//                keeps its own line, ADC, PID, DPWM and supervisor, and
//                analog::PlantLanes integrates the live buck plants side
//                by side in one vector.
//
// Byte-identity contract: a kernel lane's output is a pure function of its
// own inputs -- lane position and neighbours are invisible -- so a grouped
// scenario produces exactly the row and health events of its solo
// run_scenario() for any --jobs value.  Scenarios the planner cannot prove
// safe (scalar-forced, debug hooks, anything failing validation or sizing)
// take the per-scenario guarded path unchanged.  See DESIGN.md "Batched
// scenario execution".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddl/analysis/mc_batch.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {

/// True when `spec` may be grouped into an MC-yield batch: a valid
/// MC-yield scenario (proposed line, power-on delay-cell faults only --
/// validate() enforces the rest) with no scalar-forcing or debug hooks.
/// Classification is deterministic, so every layer (runner, campaign,
/// service coalescer) routes a given spec the same way.
bool batch_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace);

/// True when `spec` may run in a closed-loop lane stream: a valid closed-
/// loop scenario (mc_dies == 0) with a feasible sizing and no debug hooks
/// -- the hang/throw/crash injections keep the per-scenario watchdog and
/// sandbox attempt path.
bool lane_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace);

/// The batched-kernel experiment for one MC-yield scenario, *without*
/// faults: the trial-indexed path expands spec faults per trial, the
/// planner attaches them per die.  `sizing` must be feasible (it is for
/// every batch-eligible spec).
analysis::McBatchSpec mc_yield_kernel_spec(
    const ScenarioSpec& spec, const ScenarioWorkspace::Sizing& sizing);

/// Turns one scenario's per-die max-|INL| samples (exactly spec.mc_dies of
/// them, die order) into its yield verdict fields on `result` -- the
/// shared tail of the per-scenario and planned paths, so both emit
/// byte-identical rows.
void finish_mc_yield(const ScenarioSpec& spec, std::vector<double> samples,
                     ScenarioResult& result);

/// One planner group: spec indices (ascending) that run as one batched
/// dispatch -- MC-yield scenarios sharing kernel parameters, or a closed-
/// loop lane stream whose members fit analog::kPlantLanes lanes of its
/// longest member's periods.
struct BatchGroup {
  enum class Kind { kMcYield, kClosedLoop };
  Kind kind = Kind::kMcYield;
  std::vector<std::size_t> members;
};

/// A suite partitioned for execution: batched groups plus the scalar
/// remainder (ascending spec indices; every index appears exactly once).
struct BatchPlan {
  std::vector<BatchGroup> groups;
  std::vector<std::size_t> scalar;
};

/// Classifies every spec and groups the eligible ones: MC-yield specs by
/// kernel parameters; closed-loop specs longest first into lane streams,
/// each taking the longest remaining spec L and packing kPlantLanes bins
/// of L periods (each spec into the least-loaded bin, specs that do not
/// fit wait for a later stream).  Re-planning one stream's members gives
/// back that one group.  A closed-loop spec left alone stays scalar.
/// Groups are ordered by first member; deterministic for a given spec
/// list.
BatchPlan plan_batches(const std::vector<ScenarioSpec>& specs,
                       ScenarioWorkspace& workspace);

/// What a plan's closed-loop lane streams cost: `periods` sums their
/// members' spec.periods, `vector_periods` each stream's longest member --
/// the vector steps of all kPlantLanes lanes a stream takes when every
/// freed lane refills at once.
struct LaneStreamCost {
  std::uint64_t periods = 0;
  std::uint64_t vector_periods = 0;
  /// periods / (kPlantLanes x vector_periods): the busy share of lanes.
  double fill() const noexcept;
};
LaneStreamCost lane_stream_cost(const std::vector<ScenarioSpec>& specs,
                                const BatchPlan& plan);

/// The plan as dispatch units: each group's members, and each scalar spec
/// on its own, ordered by first member.
std::vector<std::vector<std::size_t>> dispatch_units(const BatchPlan& plan);

/// Runs one planned group and writes each member's result into
/// `results[index]`.  An MC group is one monte_carlo_batched_dies dispatch
/// (`threads` as in mc_batch, 0 = default pool); a group-level failure
/// degrades every member to the per-scenario guarded path -- never a lost
/// row.  A closed-loop group streams its members, longest first, through
/// kPlantLanes lockstep lanes on the calling thread, refilling a lane as
/// soon as its member concludes; an exception in one member becomes that
/// member's guarded error row while the others run on.  Lane members keep
/// no loop history.
void run_batch_group(const std::vector<ScenarioSpec>& specs,
                     const BatchGroup& group, ScenarioWorkspace& workspace,
                     std::size_t threads, std::vector<ScenarioResult>& results);

}  // namespace ddl::scenario
