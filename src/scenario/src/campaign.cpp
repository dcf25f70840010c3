#include "ddl/scenario/campaign.h"

#include <algorithm>
#include <utility>

#include "ddl/analysis/parallel.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/engine.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {

std::string CampaignOutcome::jsonl() const {
  std::string out;
  for (const std::string& line : result_lines) {
    if (line.empty()) {
      continue;  // Scenario skipped by a graceful stop: no row.
    }
    out += line;
    out += '\n';
  }
  return out;
}

CampaignOutcome Campaign::run(const std::vector<ScenarioSpec>& specs) const {
  JobLedger ledger(specs, config_.journal_dir, config_.resume);

  // Plan the pending specs into dispatch units (a resume regroups what is
  // left): batch groups run as one unit each, in one sandbox worker.
  std::vector<std::size_t> pending;
  std::vector<ScenarioSpec> pending_specs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!ledger.done(i)) {
      pending.push_back(i);
      pending_specs.push_back(specs[i]);
    }
  }
  std::vector<std::vector<std::size_t>> units;
  {
    ScenarioWorkspace planner_workspace;
    units = dispatch_units(plan_batches(pending_specs, planner_workspace));
  }

  // Workers commit each unit's members as it completes (the journal is a
  // completion-ordered durability log).
  const std::size_t jobs =
      config_.jobs ? config_.jobs : analysis::default_thread_count();
  UnitEngine engine(
      std::min(jobs, units.size()), config_.isolation,
      [&](const DispatchUnit& unit, std::vector<ExecutedScenario> runs) {
        for (std::size_t k = 0; k < runs.size(); ++k) {
          ledger.commit(unit.indices[k], std::move(runs[k]));
        }
      },
      config_.stop);
  for (const std::vector<std::size_t>& unit : units) {
    DispatchUnit dispatch;
    for (const std::size_t member : unit) {
      dispatch.indices.push_back(pending[member]);
      dispatch.specs.push_back(std::move(pending_specs[member]));
    }
    engine.submit(std::move(dispatch));
  }
  engine.wait();

  CampaignOutcome outcome;
  for (const DispatchUnit& unit : engine.stop()) {
    outcome.skipped += unit.specs.size();
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    outcome.results.push_back(ledger.result(i));
    outcome.result_lines.push_back(ledger.line(i));
    for (const std::string& line : ledger.health(i)) {
      outcome.health_jsonl += line;
      outcome.health_jsonl += '\n';
    }
  }
  for (const std::size_t index : pending) {
    const ScenarioResult& result = outcome.results[index];
    if (result.error == ScenarioError::kTimeout) {
      ++outcome.timeouts;
    } else if (result.error == ScenarioError::kException) {
      ++outcome.exceptions;
    }
    // kCrash / kResourceLimit / kWorkerLost rows are accounted via the
    // engine's SandboxCounters below (the executor classifies them).
    if (result.attempts > 1) {
      ++outcome.retried;
    }
  }
  outcome.resumed = ledger.restored();
  outcome.executed = ledger.completed() - ledger.restored();
  const SandboxCounters& counters = engine.counters();
  outcome.sandbox_crashes = counters.crashes.load();
  outcome.workers_respawned = counters.respawns.load();
  outcome.resource_kills = counters.resource_kills.load();
  outcome.workers_lost = counters.workers_lost.load();
  outcome.interrupted = outcome.skipped > 0;
  return outcome;
}

}  // namespace ddl::scenario
