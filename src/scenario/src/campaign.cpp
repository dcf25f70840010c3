#include "ddl/scenario/campaign.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/parallel.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/workspace.h"

namespace ddl::scenario {
namespace {

namespace fs = std::filesystem;

/// One executed scenario as the parallel reduction carries it: its spec
/// index, verdict row, rendered line and health lines.
struct Executed {
  std::size_t index = 0;
  ScenarioResult result;
  std::string line;
  std::vector<std::string> health_lines;
  bool skipped = false;
};

/// One worker shard's reduction state: its executed entries plus the
/// executor (this shard's sandbox worker process) that ran them.
struct Shard {
  std::vector<Executed> entries;
  std::unique_ptr<ScenarioExecutor> executor;
};

}  // namespace

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
    fs::create_directories(config_.journal_dir);
    if (config_.resume) {
      prior = resume_journal(config_.journal_dir, fingerprint, specs.size());
    }
    writer = std::make_unique<JournalWriter>(
        config_.journal_dir, fingerprint, specs.size(),
        /*append=*/config_.resume);
  }

  std::vector<std::size_t> pending;
  pending.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (prior.lines.count(specs[i].name) == 0) {
      pending.push_back(i);
    }
  }

  // Plan the pending specs into dispatch units (a resume regroups what is
  // left): batch groups run as one unit each, in one sandbox worker.
  std::vector<ScenarioSpec> pending_specs;
  pending_specs.reserve(pending.size());
  for (const std::size_t index : pending) {
    pending_specs.push_back(specs[index]);
  }
  std::vector<std::vector<std::size_t>> units;
  {
    ScenarioWorkspace planner_workspace;
    units = dispatch_units(plan_batches(pending_specs, planner_workspace));
  }

  const IsolationConfig isolation = config_.isolation();
  SandboxCounters counters;
  analysis::ThreadPool pool(config_.jobs ? config_.jobs
                                         : analysis::default_thread_count());
  auto executed = analysis::parallel_for_reduce<Shard>(
      pool, units.size(), [] { return Shard{}; },
      [&](std::size_t u, Shard& shard) {
        const std::vector<std::size_t>& unit = units[u];
        // A graceful stop gates *starting* units: anything already running
        // finishes and journals normally, so the journal stays resumable
        // and non-torn.
        if (config_.stop != nullptr &&
            config_.stop->load(std::memory_order_relaxed)) {
          for (const std::size_t member : unit) {
            Executed entry;
            entry.index = pending[member];
            entry.skipped = true;
            shard.entries.push_back(std::move(entry));
          }
          return;
        }
        if (!shard.executor) {
          shard.executor = std::make_unique<ScenarioExecutor>(
              isolation, &counters);
        }
        std::vector<ScenarioSpec> unit_specs;
        unit_specs.reserve(unit.size());
        for (const std::size_t member : unit) {
          unit_specs.push_back(pending_specs[member]);
        }
        std::vector<ExecutedScenario> runs =
            shard.executor->run_unit(unit_specs);
        for (std::size_t k = 0; k < runs.size(); ++k) {
          Executed entry;
          entry.index = pending[unit[k]];
          entry.result = std::move(runs[k].result);
          entry.line = std::move(runs[k].line);
          entry.health_lines = std::move(runs[k].health_lines);
          if (writer) {
            writer->record(entry.line, entry.health_lines);
          }
          shard.entries.push_back(std::move(entry));
        }
      },
      [](Shard& total, Shard&& part) {
        for (Executed& entry : part.entries) {
          total.entries.push_back(std::move(entry));
        }
        part.executor.reset();
      });

  CampaignOutcome outcome;
  outcome.results.resize(specs.size());
  outcome.result_lines.resize(specs.size());
  std::vector<std::vector<std::string>> health(specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = prior.lines.find(specs[i].name);
    if (it == prior.lines.end()) {
      continue;
    }
    outcome.result_lines[i] = it->second;
    const auto fields = analysis::parse_flat_json_line(it->second);
    outcome.results[i] =
        fields ? reconstruct_result(*fields) : ScenarioResult{};
    const auto health_it = prior.health.find(specs[i].name);
    if (health_it != prior.health.end()) {
      health[i] = health_it->second;
    }
    ++outcome.resumed;
  }
  for (Executed& entry : executed.entries) {
    if (entry.skipped) {
      ++outcome.skipped;
      continue;
    }
    if (entry.result.error == ScenarioError::kTimeout) {
      ++outcome.timeouts;
    } else if (entry.result.error == ScenarioError::kException) {
      ++outcome.exceptions;
    }
    // kCrash / kResourceLimit / kWorkerLost rows are accounted via the
    // shared SandboxCounters below (the executor classifies them).
    if (entry.result.attempts > 1) {
      ++outcome.retried;
    }
    outcome.result_lines[entry.index] = std::move(entry.line);
    health[entry.index] = std::move(entry.health_lines);
    outcome.results[entry.index] = std::move(entry.result);
    ++outcome.executed;
  }
  for (const std::vector<std::string>& lines : health) {
    for (const std::string& line : lines) {
      outcome.health_jsonl += line;
      outcome.health_jsonl += '\n';
    }
  }
  outcome.sandbox_crashes = counters.crashes.load();
  outcome.workers_respawned = counters.respawns.load();
  outcome.resource_kills = counters.resource_kills.load();
  outcome.workers_lost = counters.workers_lost.load();
  outcome.interrupted = outcome.skipped > 0;
  return outcome;
}

}  // namespace ddl::scenario
