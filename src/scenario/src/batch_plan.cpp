#include "ddl/scenario/batch_plan.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "ddl/analog/plant_lanes.h"
#include "ddl/analysis/monte_carlo.h"
#include "closed_loop_run.h"

namespace ddl::scenario {
namespace {

/// Everything the batched kernel's arithmetic depends on, doubles keyed by
/// bit pattern: two scenarios grouped under one key produce bit-identical
/// per-die samples to their solo runs, by the kernel's lane-purity
/// contract.  Seeds, faults and verdict thresholds stay per-scenario.
using GroupKey = std::tuple<std::size_t, int, std::uint64_t, std::uint64_t,
                            std::uint64_t, int, std::uint64_t, std::uint64_t>;

GroupKey group_key(const ScenarioSpec& spec,
                   const ScenarioWorkspace::Sizing& sizing) {
  return {sizing.batch_line.num_cells,
          sizing.batch_line.buffers_per_cell,
          std::bit_cast<std::uint64_t>(sizing.batch_line.nominal_cell_ps),
          std::bit_cast<std::uint64_t>(sizing.batch_line.sigma_cell),
          std::bit_cast<std::uint64_t>(spec.clock_mhz),
          static_cast<int>(spec.corner.corner),
          std::bit_cast<std::uint64_t>(spec.corner.supply_v),
          std::bit_cast<std::uint64_t>(spec.corner.temperature_c)};
}

/// The shared half of both eligibility rules: no test hooks, a feasible
/// sizing (an infeasible one must surface as the guarded path's error row)
/// and a valid spec (an invalid one must render its invalid_spec row via
/// the scalar path).
bool plannable(const ScenarioSpec& spec, ScenarioWorkspace& workspace) {
  if (spec.debug_throw || spec.debug_hang_ms > 0 || !spec.debug_crash.empty()) {
    return false;
  }
  const ScenarioWorkspace::Sizing& sizing = workspace.sizing_for(spec);
  return sizing.feasible && validate(spec, sizing.line_cells).empty();
}

}  // namespace

bool batch_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace) {
  // validate() enforces the rest of the MC-yield shape: proposed
  // architecture, power-on delay-cell faults only, no DVFS/supervision.
  return spec.mc_dies > 0 && !spec.mc_force_scalar &&
         plannable(spec, workspace);
}

bool lane_eligible(const ScenarioSpec& spec, ScenarioWorkspace& workspace) {
  return spec.mc_dies == 0 && plannable(spec, workspace);
}

BatchPlan plan_batches(const std::vector<ScenarioSpec>& specs,
                       ScenarioWorkspace& workspace) {
  BatchPlan plan;
  std::map<GroupKey, std::size_t> group_index;
  std::vector<std::size_t> closed_loop;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    if (lane_eligible(spec, workspace)) {
      closed_loop.push_back(i);
      continue;
    }
    if (!batch_eligible(spec, workspace)) {
      plan.scalar.push_back(i);
      continue;
    }
    const GroupKey key = group_key(spec, workspace.sizing_for(spec));
    const auto [it, inserted] =
        group_index.emplace(key, plan.groups.size());
    if (inserted) {
      plan.groups.emplace_back();
    }
    plan.groups[it->second].members.push_back(i);
  }

  // Closed-loop lane streams: a unit's lanes run until its longest member
  // ends, and a lane freed by a finished member takes the next one.  So
  // each unit takes the longest remaining spec L and fills kPlantLanes
  // bins of capacity L in periods, longest first, each spec into the
  // least-loaded bin; specs that do not fit wait for a later unit.
  std::stable_sort(closed_loop.begin(), closed_loop.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].periods > specs[b].periods;
                   });
  while (!closed_loop.empty()) {
    const std::uint64_t capacity = specs[closed_loop.front()].periods;
    std::array<std::uint64_t, analog::kPlantLanes> bins{};
    BatchGroup unit{BatchGroup::Kind::kClosedLoop, {}};
    std::vector<std::size_t> rest;
    for (const std::size_t index : closed_loop) {
      std::uint64_t& bin = *std::min_element(bins.begin(), bins.end());
      if (bin + specs[index].periods <= capacity) {
        bin += specs[index].periods;
        unit.members.push_back(index);
      } else {
        rest.push_back(index);
      }
    }
    closed_loop = std::move(rest);
    if (unit.members.size() == 1) {
      plan.scalar.push_back(unit.members.front());
    } else {
      std::sort(unit.members.begin(), unit.members.end());
      plan.groups.push_back(std::move(unit));
    }
  }

  std::sort(plan.scalar.begin(), plan.scalar.end());
  std::sort(plan.groups.begin(), plan.groups.end(),
            [](const BatchGroup& a, const BatchGroup& b) {
              return a.members.front() < b.members.front();
            });
  return plan;
}

double LaneStreamCost::fill() const noexcept {
  return vector_periods == 0
             ? 0.0
             : static_cast<double>(periods) /
                   static_cast<double>(analog::kPlantLanes * vector_periods);
}

LaneStreamCost lane_stream_cost(const std::vector<ScenarioSpec>& specs,
                                const BatchPlan& plan) {
  LaneStreamCost cost;
  for (const BatchGroup& group : plan.groups) {
    if (group.kind != BatchGroup::Kind::kClosedLoop) {
      continue;
    }
    std::uint64_t longest = 0;
    for (const std::size_t index : group.members) {
      cost.periods += specs[index].periods;
      longest = std::max(longest, specs[index].periods);
    }
    cost.vector_periods += longest;
  }
  return cost;
}

std::vector<std::vector<std::size_t>> dispatch_units(const BatchPlan& plan) {
  std::vector<std::vector<std::size_t>> units;
  units.reserve(plan.groups.size() + plan.scalar.size());
  for (const BatchGroup& group : plan.groups) {
    units.push_back(group.members);
  }
  for (const std::size_t index : plan.scalar) {
    units.push_back({index});
  }
  std::sort(units.begin(), units.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.front() < b.front();
            });
  return units;
}

namespace {

/// A closed-loop lane stream: members queue longest first; each lane runs
/// one member's plant on an analog::PlantLanes lane while the member's
/// scalar pre-plant and post-plant halves run around it, and a lane whose
/// member concludes takes the next queued member at once.
void run_lane_group(const std::vector<ScenarioSpec>& specs,
                    const BatchGroup& group, ScenarioWorkspace& workspace,
                    std::vector<ScenarioResult>& results) {
  std::vector<std::size_t> queue = group.members;
  std::stable_sort(queue.begin(), queue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].periods > specs[b].periods;
                   });
  std::size_t next = 0;
  std::array<std::size_t, analog::kPlantLanes> member{};
  std::array<std::unique_ptr<ClosedLoopRun>, analog::kPlantLanes> runs;
  std::array<control::PeriodStep, analog::kPlantLanes> steps;
  analog::PlantLanes lanes;

  // The lane's member leaves with its verdict, or with the guarded path's
  // error row if anything it runs throws.
  const auto conclude = [&](std::size_t lane, std::exception_ptr error) {
    const ScenarioSpec& spec = specs[member[lane]];
    results[member[lane]] = error ? make_exception_result(spec, error)
                                  : runs[lane]->finish().result;
    runs[lane].reset();
  };
  // Starts the lane's next plant period, first concluding members that
  // have none left and refilling the lane from the queue; the lane idles
  // once the queue is empty.
  const auto next_period = [&](std::size_t lane) {
    for (;;) {
      if (!runs[lane]) {
        if (next == queue.size()) {
          return;
        }
        member[lane] = queue[next++];
        try {
          runs[lane] = std::make_unique<ClosedLoopRun>(
              specs[member[lane]], workspace, /*keep_history=*/false);
        } catch (...) {
          results[member[lane]] = make_exception_result(
              specs[member[lane]], std::current_exception());
          continue;
        }
      }
      try {
        if (runs[lane]->begin_period(steps[lane])) {
          lanes.start_period(lane, runs[lane]->plant(), steps[lane].pwm,
                             steps[lane].load_a);
          return;
        }
      } catch (...) {
        conclude(lane, std::current_exception());
        continue;
      }
      conclude(lane, nullptr);
    }
  };

  for (std::size_t lane = 0; lane < analog::kPlantLanes; ++lane) {
    next_period(lane);
  }
  while (lanes.busy_mask() != 0) {
    const std::uint32_t finished = lanes.run();
    for (std::size_t lane = 0; lane < analog::kPlantLanes; ++lane) {
      if (((finished >> lane) & 1u) == 0) {
        continue;
      }
      try {
        runs[lane]->end_period(steps[lane]);
      } catch (...) {
        conclude(lane, std::current_exception());
      }
      next_period(lane);
    }
  }
}

}  // namespace

void run_batch_group(const std::vector<ScenarioSpec>& specs,
                     const BatchGroup& group, ScenarioWorkspace& workspace,
                     std::size_t threads,
                     std::vector<ScenarioResult>& results) {
  if (group.kind == BatchGroup::Kind::kClosedLoop) {
    run_lane_group(specs, group, workspace, results);
    return;
  }
  const ScenarioSpec& first = specs[group.members.front()];
  const analysis::McBatchSpec mc =
      mc_yield_kernel_spec(first, workspace.sizing_for(first));

  // Scenario-major die order: member scenarios' dies pack back-to-back, so
  // each scenario's samples are one contiguous slice of the group result.
  std::vector<analysis::BatchDie> dies;
  std::size_t total = 0;
  for (const std::size_t index : group.members) {
    total += specs[index].mc_dies;
  }
  dies.reserve(total);
  for (const std::size_t index : group.members) {
    const ScenarioSpec& spec = specs[index];
    // Power-on delay-cell faults apply to every die of the scenario (same
    // expansion run_mc_yield performs, expressed per die).
    std::vector<analysis::BatchFault> faults;
    faults.reserve(spec.faults.size());
    for (const FaultSpec& fault : spec.faults) {
      faults.push_back({0, fault.victim_cell, fault.severity});
    }
    for (std::size_t die = 0; die < spec.mc_dies; ++die) {
      dies.push_back({analysis::die_seed(spec.seed, die), faults});
    }
  }

  try {
    const std::vector<double> samples =
        analysis::monte_carlo_batched_dies(mc, dies, threads);
    std::size_t offset = 0;
    for (const std::size_t index : group.members) {
      const ScenarioSpec& spec = specs[index];
      ScenarioResult result = make_base_result(spec);
      finish_mc_yield(
          spec,
          std::vector<double>(samples.begin() + offset,
                              samples.begin() + offset + spec.mc_dies),
          result);
      results[index] = std::move(result);
      offset += spec.mc_dies;
    }
  } catch (...) {
    // Group-level failure (allocation, a kernel invariant trip): every
    // member degrades to its own guarded run -- slower, never a lost row.
    for (const std::size_t index : group.members) {
      results[index] = run_scenario_guarded(specs[index], workspace).result;
    }
  }
}

}  // namespace ddl::scenario
