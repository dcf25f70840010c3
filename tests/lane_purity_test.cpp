// Lane purity: a closed-loop scenario's result row and health events are
// the same bytes whether it runs alone or in a plant-lane group -- at any
// lane position, in groups of 1 to 8, beside any neighbours -- and through
// every execution layer: ScenarioRunner and the sandboxed Campaign at
// --jobs 1 and 3, a resume that regroups the pending specs, and a
// multi-spec job on the campaign service.
//
// The specs are every closed-loop spec of the `regression` suite plus
// seeded chaos storms (clock-period steps give lanes different period
// lengths; supervised recovery specs emit health events), with every
// period-valued field divided by kCompress so the sweep stays quick.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ddl/analog/plant_lanes.h"
#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/workspace.h"
#include "ddl/service/client.h"
#include "ddl/service/server.h"

namespace {

namespace fs = std::filesystem;
using ddl::scenario::BatchGroup;
using ddl::scenario::Campaign;
using ddl::scenario::CampaignConfig;
using ddl::scenario::FaultSpec;
using ddl::scenario::ScenarioResult;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;
using ddl::scenario::ScenarioWorkspace;

constexpr std::uint64_t kCompress = 16;

std::uint64_t compress(std::uint64_t period) {
  return period == 0 ? 0 : std::max<std::uint64_t>(1, period / kCompress);
}

/// The spec with every period-valued field divided by kCompress (instants
/// that were distinct stay distinct and ordered).
ScenarioSpec compressed(ScenarioSpec spec) {
  spec.periods = compress(spec.periods);
  spec.measure_from /= kCompress;
  spec.spike_from_period = compress(spec.spike_from_period);
  spec.spike_until_period = compress(spec.spike_until_period);
  spec.load.from_period = compress(spec.load.from_period);
  spec.load.until_period = compress(spec.load.until_period);
  for (FaultSpec& fault : spec.faults) {
    fault.at_period = compress(fault.at_period);
    if (fault.clear_period != 0) {
      fault.clear_period =
          std::max(compress(fault.clear_period), fault.at_period + 1);
    }
  }
  for (auto& mode : spec.dvfs) {
    mode.at_period = compress(mode.at_period);
  }
  return spec;
}

std::vector<ScenarioSpec> lane_specs() {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec :
       ddl::scenario::ScenarioRegistry::builtin().expand("regression")) {
    if (spec.mc_dies == 0) {
      specs.push_back(compressed(spec));
    }
  }
  ddl::scenario::ChaosCampaignSpec chaos;
  chaos.base =
      ddl::scenario::ScenarioRegistry::builtin().expand("chaos").front();
  chaos.base.faults.clear();
  chaos.base.name = "chaos/proposed/typical/storm";
  chaos.storms = 12;
  chaos.seed = 77;
  for (const ScenarioSpec& storm : ddl::scenario::expand_chaos(chaos)) {
    specs.push_back(compressed(storm));
  }
  return specs;
}

/// One scenario's bytes: its row, then its health lines.
std::string bytes_of(const ScenarioResult& result) {
  return ScenarioRunner::jsonl({result}) +
         ScenarioRunner::health_jsonl({result});
}

struct Reference {
  std::vector<ScenarioSpec> specs;
  std::vector<ScenarioResult> alone;  ///< run_scenario, one at a time.
  std::string jsonl;
  std::string health;
};

const Reference& reference() {
  static const Reference* ref = [] {
    auto* r = new Reference;
    r->specs = lane_specs();
    for (const ScenarioSpec& spec : r->specs) {
      r->alone.push_back(ddl::scenario::run_scenario(spec).result);
    }
    r->jsonl = ScenarioRunner::jsonl(r->alone);
    r->health = ScenarioRunner::health_jsonl(r->alone);
    return r;
  }();
  return *ref;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("lanes_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(LanePurityTest, SpecsCoverTheLaneEdgeCases) {
  const Reference& ref = reference();
  ScenarioWorkspace workspace;
  bool clock_step = false;
  bool supervised = false;
  bool dvfs = false;
  for (const ScenarioSpec& spec : ref.specs) {
    EXPECT_TRUE(ddl::scenario::lane_eligible(spec, workspace)) << spec.name;
    for (const FaultSpec& fault : spec.faults) {
      clock_step = clock_step ||
                   (fault.kind == FaultSpec::Kind::kClockPeriodStep &&
                    fault.runtime());
    }
    supervised = supervised || spec.supervision.enabled;
    dvfs = dvfs || !spec.dvfs.empty();
  }
  EXPECT_TRUE(clock_step);
  EXPECT_TRUE(supervised);
  EXPECT_TRUE(dvfs);
  EXPECT_FALSE(ref.health.empty());
  // And the planner really packs them into lane groups.
  const auto plan = ddl::scenario::plan_batches(ref.specs, workspace);
  std::size_t laned = 0;
  for (const BatchGroup& group : plan.groups) {
    ASSERT_EQ(group.kind, BatchGroup::Kind::kClosedLoop);
    EXPECT_LE(group.members.size(), ddl::analog::kPlantLanes);
    std::uint64_t periods = 0;
    for (const std::size_t index : group.members) {
      periods += ref.specs[index].periods;
    }
    EXPECT_LE(periods, ddl::scenario::kLaneGroupMaxPeriods);
    laned += group.members.size();
  }
  EXPECT_GE(laned, ref.specs.size() - 1);
}

TEST(LanePurityTest, EveryLanePositionInGroupsOfOneToEight) {
  // Sorted by length so each group's lanes finish close together; rotating
  // the window puts every spec at every lane position of every size.
  const Reference& ref = reference();
  const std::size_t n = ref.specs.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ref.specs[a].periods < ref.specs[b].periods;
                   });
  ScenarioWorkspace workspace;
  std::vector<ScenarioResult> results(n);
  for (std::size_t size = 1; size <= ddl::analog::kPlantLanes; ++size) {
    for (std::size_t start = 0; start < n; ++start) {
      BatchGroup group{BatchGroup::Kind::kClosedLoop, {}};
      for (std::size_t lane = 0; lane < size; ++lane) {
        group.members.push_back(order[(start + lane) % n]);
      }
      ddl::scenario::run_batch_group(ref.specs, group, workspace, 1, results);
      for (std::size_t lane = 0; lane < size; ++lane) {
        const std::size_t index = group.members[lane];
        ASSERT_EQ(bytes_of(results[index]), bytes_of(ref.alone[index]))
            << ref.specs[index].name << " on lane " << lane << " of "
            << size;
      }
    }
  }
}

TEST(LanePurityTest, RunnerAndCampaignAtJobsOneAndThree) {
  const Reference& ref = reference();
  for (const std::size_t jobs : {1u, 3u}) {
    const auto results = ScenarioRunner(jobs).run(ref.specs);
    EXPECT_EQ(ScenarioRunner::jsonl(results), ref.jsonl) << "runner " << jobs;
    EXPECT_EQ(ScenarioRunner::health_jsonl(results), ref.health);
    CampaignConfig config;
    config.jobs = jobs;
    const auto outcome = Campaign(config).run(ref.specs);
    EXPECT_EQ(outcome.jsonl(), ref.jsonl) << "campaign jobs " << jobs;
    EXPECT_EQ(outcome.health_jsonl, ref.health);
    EXPECT_EQ(outcome.executed, ref.specs.size());
  }
}

TEST(LanePurityTest, ResumeRegroupsThePendingSpecs) {
  const Reference& ref = reference();
  CampaignConfig config;
  config.journal_dir = fresh_dir("full");
  config.jobs = 3;
  const auto full = Campaign(config).run(ref.specs);
  ASSERT_EQ(full.jsonl(), ref.jsonl);

  // Cut the journal after k commits (plus a torn record), keep the whole
  // health journal -- events of uncommitted scenarios included, as a kill
  // between the health append and the commit leaves them -- and resume:
  // the pending specs regroup into different lane groups every time.
  const std::string journal = slurp(config.journal_dir + "/journal.jsonl");
  const std::size_t n = ref.specs.size();
  for (const std::size_t k : {std::size_t{1}, n / 3, n - 2}) {
    const std::string dir = fresh_dir("cut" + std::to_string(k));
    std::size_t end = 0;
    for (std::size_t lines = 0; lines < k; ++lines) {
      end = journal.find('\n', end) + 1;
    }
    spit(dir + "/journal.jsonl",
         journal.substr(0, end) + R"({"schema_version": 2, "name": "regr)");
    spit(dir + "/health_journal.jsonl",
         slurp(config.journal_dir + "/health_journal.jsonl"));
    spit(dir + "/manifest.json", slurp(config.journal_dir + "/manifest.json"));
    for (const std::size_t jobs : {1u, 3u}) {
      CampaignConfig resume = config;
      resume.journal_dir = dir;
      resume.resume = true;
      resume.jobs = jobs;
      const auto resumed = Campaign(resume).run(ref.specs);
      EXPECT_EQ(resumed.jsonl(), ref.jsonl) << "cut " << k << " jobs " << jobs;
      EXPECT_EQ(resumed.health_jsonl, ref.health)
          << "cut " << k << " jobs " << jobs;
    }
  }
}

TEST(LanePurityTest, MultiSpecServiceJobStreamsTheSameBytes) {
  const Reference& ref = reference();
  ddl::service::ServiceConfig config;
  config.tcp_port = 0;
  config.workers = 2;
  config.heartbeat_ms = 60'000;
  config.state_dir = fresh_dir("service");
  ddl::service::ScenarioServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ddl::service::ClientConfig client_config;
  client_config.tcp_port = server.tcp_port();
  client_config.name = "lanes";
  client_config.recv_timeout_ms = 60'000;
  ddl::service::ScenarioClient client(client_config);
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto submission = client.submit_specs("lanes", ref.specs);
  ASSERT_TRUE(submission.accepted)
      << submission.error_code << ": " << submission.error_detail;
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.jsonl(), ref.jsonl);
  // Health frames stream in completion order across the two workers;
  // restore spec order (events of one scenario arrive in order).
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < ref.specs.size(); ++i) {
    index_of[ref.specs[i].name] = i;
  }
  std::vector<std::string> health = outcome.health_lines;
  const auto scenario_index = [&](const std::string& line) {
    const auto fields = ddl::analysis::parse_flat_json_line(line);
    return fields ? index_of[fields->at("scenario")] : ref.specs.size();
  };
  std::stable_sort(health.begin(), health.end(),
                   [&](const std::string& a, const std::string& b) {
                     return scenario_index(a) < scenario_index(b);
                   });
  std::string health_jsonl;
  for (const std::string& line : health) {
    health_jsonl += line + "\n";
  }
  EXPECT_EQ(health_jsonl, ref.health);
  client.bye();
  server.stop();
}

}  // namespace
