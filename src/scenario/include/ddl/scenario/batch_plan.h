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
//   closed loop  up to analog::kPlantLanes closed-loop scenarios run in
//                lockstep, period by period: each keeps its own line, ADC,
//                PID, DPWM and supervisor, and analog::PlantLanes
//                integrates their buck plants side by side in one vector.
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

/// Upper bound on the summed spec.periods of one closed-loop lane group.
/// A group keeps every member's loop history alive at once (one 48-byte
/// control::LoopSample per period, reserved up front), so this caps a
/// group's sample memory at what one 9000-period scenario alone peaked at
/// while its history still grew by doubling: 8192 + 16384 samples during
/// the last regrowth, ~1.2 MB.  A constant, not a knob: a partly filled
/// vector step costs about what a full one does.
inline constexpr std::uint64_t kLaneGroupMaxPeriods = 8192 + 16384;

/// True when `spec` may be grouped into an MC-yield batch: a valid
/// MC-yield scenario (proposed line, power-on delay-cell faults only --
/// validate() enforces the rest) with no scalar-forcing or debug hooks.
/// Classification is deterministic, so every layer (runner, campaign,
/// service coalescer) routes a given spec the same way.
bool batch_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace);

/// True when `spec` may run in a closed-loop lane group: a valid closed-
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
/// dispatch -- MC-yield scenarios sharing kernel parameters, or up to
/// analog::kPlantLanes closed-loop scenarios (summed periods at most
/// kLaneGroupMaxPeriods) in lockstep plant lanes.
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
/// kernel parameters, closed-loop specs packed longest first (so lanes
/// finish together) under the kPlantLanes / kLaneGroupMaxPeriods bounds.
/// A closed-loop spec left alone stays scalar.  Groups are ordered by
/// first member; deterministic for a given spec list.
BatchPlan plan_batches(const std::vector<ScenarioSpec>& specs,
                       ScenarioWorkspace& workspace);

/// The plan as dispatch units: each group's members, and each scalar spec
/// on its own, ordered by first member.
std::vector<std::vector<std::size_t>> dispatch_units(const BatchPlan& plan);

/// Runs one planned group and writes each member's result into
/// `results[index]`.  An MC group is one monte_carlo_batched_dies dispatch
/// (`threads` as in mc_batch, 0 = default pool); a group-level failure
/// degrades every member to the per-scenario guarded path -- never a lost
/// row.  A closed-loop group runs its members in lockstep on the calling
/// thread; an exception in one member becomes that member's guarded error
/// row while the others run on.
void run_batch_group(const std::vector<ScenarioSpec>& specs,
                     const BatchGroup& group, ScenarioWorkspace& workspace,
                     std::size_t threads, std::vector<ScenarioResult>& results);

}  // namespace ddl::scenario
