#include "ddl/scenario/campaign.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
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
  {
    std::set<std::string> names;
    for (const ScenarioSpec& spec : specs) {
      if (!names.insert(spec.name).second) {
        throw std::invalid_argument(
            "campaign: duplicate scenario name '" + spec.name +
            "' (the journal is keyed by name)");
      }
    }
  }

  const std::string fingerprint = fingerprint_of(specs);
  JournalState prior;
  std::unique_ptr<JournalWriter> writer;
  if (!config_.journal_dir.empty()) {
    std::filesystem::create_directories(config_.journal_dir);
    if (config_.resume) {
      prior = resume_journal(config_.journal_dir, fingerprint, specs.size());
    }
    writer = std::make_unique<JournalWriter>(
        config_.journal_dir, fingerprint, specs.size(),
        /*append=*/config_.resume);
  }

  RestoredRows rows = restore_rows(prior, specs);
  CampaignOutcome outcome;
  outcome.resumed = rows.restored;
  outcome.results = std::move(rows.results);
  outcome.result_lines = std::move(rows.lines);

  // Plan the pending specs into dispatch units (a resume regroups what is
  // left): batch groups run as one unit each, in one sandbox worker.
  std::vector<std::size_t> pending;
  std::vector<ScenarioSpec> pending_specs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (outcome.result_lines[i].empty()) {
      pending.push_back(i);
      pending_specs.push_back(specs[i]);
    }
  }
  std::vector<std::vector<std::size_t>> units;
  {
    ScenarioWorkspace planner_workspace;
    units = dispatch_units(plan_batches(pending_specs, planner_workspace));
  }

  // Workers journal each unit as it completes (a completion-ordered
  // durability log) and fill its members' distinct slots.
  const std::size_t jobs =
      config_.jobs ? config_.jobs : analysis::default_thread_count();
  UnitEngine engine(
      std::min(jobs, units.size()), config_.isolation(),
      [&](const DispatchUnit& unit, std::vector<ExecutedScenario> runs) {
        for (std::size_t k = 0; k < runs.size(); ++k) {
          const std::size_t index = unit.indices[k];
          if (writer) {
            writer->record(runs[k].line, runs[k].health_lines);
          }
          outcome.result_lines[index] = std::move(runs[k].line);
          rows.health[index] = std::move(runs[k].health_lines);
          outcome.results[index] = std::move(runs[k].result);
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
  for (const DispatchUnit& unit : engine.stop()) {
    outcome.skipped += unit.specs.size();
  }

  for (const std::size_t index : pending) {
    const ScenarioResult& result = outcome.results[index];
    if (outcome.result_lines[index].empty()) {
      continue;  // Skipped by a graceful stop.
    }
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
    ++outcome.executed;
  }
  for (const std::vector<std::string>& lines : rows.health) {
    for (const std::string& line : lines) {
      outcome.health_jsonl += line;
      outcome.health_jsonl += '\n';
    }
  }
  const SandboxCounters& counters = engine.counters();
  outcome.sandbox_crashes = counters.crashes.load();
  outcome.workers_respawned = counters.respawns.load();
  outcome.resource_kills = counters.resource_kills.load();
  outcome.workers_lost = counters.workers_lost.load();
  outcome.interrupted = outcome.skipped > 0;
  return outcome;
}

}  // namespace ddl::scenario
