// Lane purity: a closed-loop scenario's result row and health events are
// the same bytes whether it runs alone or in a plant-lane stream -- at any
// lane position, in streams of 1 to 16 (past 8, freed lanes refill), beside
// any neighbours, after members that never reach a plant period -- and through
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

/// True when `members`, longest first, each into the least-loaded of
/// kPlantLanes lanes, never load a lane past the longest member.
bool fits_lanes_of_longest(const std::vector<ScenarioSpec>& specs,
                           std::vector<std::size_t> members) {
  std::stable_sort(members.begin(), members.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].periods > specs[b].periods;
                   });
  const std::uint64_t capacity = specs[members.front()].periods;
  std::vector<std::uint64_t> lanes(ddl::analog::kPlantLanes, 0);
  for (const std::size_t index : members) {
    std::uint64_t& lane = *std::min_element(lanes.begin(), lanes.end());
    lane += specs[index].periods;
    if (lane > capacity) {
      return false;
    }
  }
  return true;
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
  // And the planner really streams them through lanes: each stream's
  // members fit kPlantLanes lanes of its longest member (least-loaded lane
  // first, longest first -- what the executor's refill does), and
  // re-planning one stream's members -- as a sandbox worker does with its
  // unit -- gives back exactly that stream.
  const auto plan = ddl::scenario::plan_batches(ref.specs, workspace);
  std::size_t laned = 0;
  for (const BatchGroup& group : plan.groups) {
    ASSERT_EQ(group.kind, BatchGroup::Kind::kClosedLoop);
    EXPECT_GE(group.members.size(), 2u);
    EXPECT_TRUE(fits_lanes_of_longest(ref.specs, group.members));
    std::vector<ScenarioSpec> unit;
    for (const std::size_t index : group.members) {
      unit.push_back(ref.specs[index]);
    }
    const auto replanned = ddl::scenario::plan_batches(unit, workspace);
    EXPECT_TRUE(replanned.scalar.empty());
    ASSERT_EQ(replanned.groups.size(), 1u);
    EXPECT_EQ(replanned.groups.front().members.size(), unit.size());
    laned += group.members.size();
  }
  EXPECT_GE(laned, ref.specs.size() - 1);
}

TEST(LanePurityTest, RegressionPlanCostIsPinned) {
  // The regression suite's 53 closed-loop specs (173,700 periods) stream
  // through 6 units costing 22,500 vector periods: fill 0.965 of 8 lanes.
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec :
       ddl::scenario::ScenarioRegistry::builtin().expand("regression")) {
    if (spec.mc_dies == 0) {
      specs.push_back(spec);
    }
  }
  ScenarioWorkspace workspace;
  const auto plan = ddl::scenario::plan_batches(specs, workspace);
  EXPECT_TRUE(plan.scalar.empty());
  EXPECT_EQ(plan.groups.size(), 6u);
  const auto cost = ddl::scenario::lane_stream_cost(specs, plan);
  EXPECT_EQ(cost.periods, 173'700u);
  EXPECT_EQ(cost.vector_periods, 22'500u);
  EXPECT_GE(cost.fill(), 0.96);
}

/// Spec indices sorted by length, shortest first (stable).
std::vector<std::size_t> length_order(const std::vector<ScenarioSpec>& specs) {
  std::vector<std::size_t> order(specs.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].periods < specs[b].periods;
                   });
  return order;
}

/// Runs the window of `size` specs from `start` of `order` (wrapping) as
/// one closed-loop group and checks every member's bytes.
void expect_window_matches(const Reference& ref,
                           const std::vector<std::size_t>& order,
                           std::size_t start, std::size_t size,
                           ScenarioWorkspace& workspace,
                           std::vector<ScenarioResult>& results) {
  BatchGroup group{BatchGroup::Kind::kClosedLoop, {}};
  for (std::size_t k = 0; k < size; ++k) {
    group.members.push_back(order[(start + k) % order.size()]);
  }
  ddl::scenario::run_batch_group(ref.specs, group, workspace, 1, results);
  for (std::size_t k = 0; k < size; ++k) {
    const std::size_t index = group.members[k];
    ASSERT_EQ(bytes_of(results[index]), bytes_of(ref.alone[index]))
        << ref.specs[index].name << " at window position " << k << " of "
        << size;
  }
}

TEST(LanePurityTest, EveryLanePositionInGroupsOfOneToEight) {
  // Sorted by length so each group's lanes finish close together; rotating
  // the window puts every spec at every lane position of every size.
  const Reference& ref = reference();
  const std::vector<std::size_t> order = length_order(ref.specs);
  ScenarioWorkspace workspace;
  std::vector<ScenarioResult> results(ref.specs.size());
  for (std::size_t size = 1; size <= ddl::analog::kPlantLanes; ++size) {
    for (std::size_t start = 0; start < order.size(); ++start) {
      expect_window_matches(ref, order, start, size, workspace, results);
    }
  }
}

TEST(LanePurityTest, StreamsOfNineToSixteenRefillFreedLanes) {
  // More members than lanes: the stream queues them longest first and a
  // lane whose member ends takes the next one.  Each window's shortest
  // size - 8 members enter refilled lanes, so rotating the window makes
  // every spec a refill, behind every mix of earlier lane occupants.
  const Reference& ref = reference();
  const std::vector<std::size_t> order = length_order(ref.specs);
  ScenarioWorkspace workspace;
  std::vector<ScenarioResult> results(ref.specs.size());
  for (std::size_t size = ddl::analog::kPlantLanes + 1;
       size <= 2 * ddl::analog::kPlantLanes; ++size) {
    for (std::size_t start = 0; start < order.size(); ++start) {
      expect_window_matches(ref, order, start, size, workspace, results);
    }
  }
}

TEST(LanePurityTest, StreamsRefillPastMembersWithoutAPlantPeriod) {
  // Members that conclude before their first plant period -- an expected
  // lock failure, an unexpected one, and a build that throws -- queue
  // mid-stream and hand their lane straight to the next member.
  const Reference& ref = reference();
  const std::vector<std::size_t> order = length_order(ref.specs);
  std::vector<ScenarioSpec> specs = ref.specs;
  std::vector<ScenarioResult> alone = ref.alone;
  BatchGroup group{BatchGroup::Kind::kClosedLoop, {}};
  for (std::size_t k = 0; k < 12; ++k) {
    group.members.push_back(order[order.size() / 2 + k]);
  }
  const std::uint64_t mid_queue =
      specs[order[order.size() / 2 + 3]].periods;  // Queue position ~8.
  ASSERT_LT(specs[order[order.size() / 2]].periods, mid_queue);
  ScenarioSpec no_lock =
      ddl::scenario::ScenarioRegistry::builtin().expand("regression").front();
  no_lock.name += "/no_lock";
  no_lock.architecture = ddl::scenario::Architecture::kConventional;
  no_lock.corner = ddl::cells::OperatingPoint::fast();
  no_lock.periods = mid_queue;
  no_lock.measure_from = 0;
  ScenarioSpec expected_no_lock = no_lock;
  expected_no_lock.name += "/expected";
  expected_no_lock.expect_lock = false;
  ScenarioSpec throws = no_lock;
  throws.name += "/throws";
  throws.architecture = ddl::scenario::Architecture::kHybrid;
  throws.corner = ddl::cells::OperatingPoint::typical();
  throws.clock_mhz = 1e5;  // Sizes, then the hybrid's build throws.
  for (const ScenarioSpec& edge : {no_lock, expected_no_lock, throws}) {
    group.members.push_back(specs.size());
    specs.push_back(edge);
    alone.push_back(ddl::scenario::run_scenario_guarded(edge).result);
  }
  EXPECT_EQ(alone[alone.size() - 3].failure_reason, "no_lock");
  EXPECT_TRUE(alone[alone.size() - 2].pass);
  EXPECT_EQ(alone.back().error, ddl::scenario::ScenarioError::kException);

  ScenarioWorkspace workspace;
  std::vector<ScenarioResult> results(specs.size());
  ddl::scenario::run_batch_group(specs, group, workspace, 1, results);
  for (const std::size_t index : group.members) {
    EXPECT_EQ(bytes_of(results[index]), bytes_of(alone[index]))
        << specs[index].name;
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

  // Cut the journal after k commit records (plus a torn record) and
  // resume: the pending specs regroup into different lane groups every
  // time.
  const std::string journal = slurp(config.journal_dir + "/journal.jsonl");
  const std::size_t n = ref.specs.size();
  for (const std::size_t k : {std::size_t{1}, n / 3, n - 2}) {
    const std::string dir = fresh_dir("cut" + std::to_string(k));
    std::size_t end = 0;
    for (std::size_t records = 0; records < k;) {
      const std::size_t next = journal.find('\n', end) + 1;
      const auto fields = ddl::analysis::parse_flat_json_line(
          journal.substr(end, next - 1 - end));
      records += fields && fields->count("verdict") != 0 ? 1 : 0;
      end = next;
    }
    spit(dir + "/journal.jsonl",
         journal.substr(0, end) + R"({"schema_version": 2, "name": "regr)");
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
  // The job's closed-loop specs coalesced into multi-spec lane units.
  EXPECT_GE(server.stats().batched_units, 1u);
  client.bye();
  server.stop();
}

}  // namespace
