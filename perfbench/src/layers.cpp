// The traced per-layer ladder: times the public calls into each module,
// with a span around every call, and derives each layer's metric from the
// spans' durations and self times.  The inputs come from the same seeded
// generators as the workloads; the round number kLadderRound keeps its
// scenario names apart from any workload round.
//
// Modules cells, sim and synth are on no workload's path (the behavioural
// scenarios never instantiate sim::Simulator), so they get no metric.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>

#include "bench.h"
#include "ddl/analog/adc.h"
#include "ddl/analog/buck.h"
#include "ddl/analysis/mc_batch.h"
#include "ddl/analysis/monte_carlo.h"
#include "ddl/control/closed_loop.h"
#include "ddl/control/pid.h"
#include "ddl/core/calibrated_dpwm.h"
#include "ddl/core/hybrid_calibrated.h"
#include "ddl/dpwm/behavioral.h"
#include "ddl/scenario/batch_plan.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/sandbox.h"
#include "ddl/scenario/workspace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace ddl;
using scenario::Architecture;
using scenario::ScenarioSpec;

constexpr std::uint64_t kLadderRound = 1'000'000;
/// Switching periods the closed-loop probe runs per architecture.
constexpr std::uint64_t kProbePeriods = 1000;
constexpr std::size_t kReplayPeriods = 100;
constexpr std::size_t kLockRepeats = 5;
constexpr std::size_t kExecRepeats = 5;
constexpr std::size_t kUnitRepeats = 15;
constexpr std::size_t kMcDies = 2048;
constexpr std::size_t kMcRepeats = 5;
constexpr std::size_t kJournalPairs = 3;
constexpr double kServiceProbeSeconds = 2.0;

double ms(double us) { return us / 1e3; }

/// Forwards to a real DPWM, with a span around every generate() call; keeps
/// the generated periods so the plant can be replayed on its own.
class TimedDpwm final : public dpwm::DpwmModel {
 public:
  TimedDpwm(dpwm::DpwmModel& inner, Tracer& tracer, std::string span_name)
      : inner_(&inner), tracer_(&tracer), name_(std::move(span_name)) {}

  sim::Time period_ps() const override { return inner_->period_ps(); }
  int bits() const override { return inner_->bits(); }
  dpwm::PwmPeriod generate(sim::Time start, std::uint64_t duty) override {
    dpwm::PwmPeriod period;
    {
      const auto span = tracer_->span(name_);
      period = inner_->generate(start, duty);
    }
    periods_.push_back(period);
    return period;
  }

  const std::vector<dpwm::PwmPeriod>& periods() const { return periods_; }

 private:
  dpwm::DpwmModel* inner_;
  Tracer* tracer_;
  std::string name_;
  std::vector<dpwm::PwmPeriod> periods_;
};

/// A spec's DPWM, built and locked the way the scenario runner does it.
struct BuiltDpwm {
  std::unique_ptr<core::ProposedDelayLine> proposed_line;
  std::unique_ptr<core::ConventionalDelayLine> conventional_line;
  std::unique_ptr<dpwm::DpwmModel> dpwm;
  bool locked = false;
};

template <typename System>
void lock(System& system, BuiltDpwm& built, Tracer& tracer,
          const std::string& span_name) {
  const auto span = tracer.span(span_name);
  built.locked = system.calibrate().has_value();
}

BuiltDpwm build_dpwm(const ScenarioSpec& spec,
                     scenario::ScenarioWorkspace& workspace, Tracer& tracer) {
  const auto& sizing = workspace.sizing_for(spec);
  const double period_ps = 1e6 / spec.clock_mhz;
  const std::string lock_span =
      "core.lock." + std::string(scenario::to_string(spec.architecture));
  BuiltDpwm built;
  switch (spec.architecture) {
    case Architecture::kCounter: {
      const sim::Time tick = sim::from_ps(
          period_ps /
          static_cast<double>(std::uint64_t{1} << spec.resolution_bits));
      built.dpwm = std::make_unique<dpwm::CounterDpwm>(
          spec.resolution_bits, tick << spec.resolution_bits);
      built.locked = true;
      break;
    }
    case Architecture::kProposed: {
      built.proposed_line = std::make_unique<core::ProposedDelayLine>(
          workspace.technology(), sizing.proposed_line, spec.seed);
      auto system = std::make_unique<core::ProposedDpwmSystem>(
          *built.proposed_line, period_ps);
      system->set_environment(core::EnvironmentSchedule(spec.corner));
      lock(*system, built, tracer, lock_span);
      built.dpwm = std::move(system);
      break;
    }
    case Architecture::kConventional: {
      built.conventional_line = std::make_unique<core::ConventionalDelayLine>(
          workspace.technology(), sizing.conventional_line, spec.seed);
      auto system = std::make_unique<core::ConventionalDpwmSystem>(
          *built.conventional_line, period_ps);
      system->set_environment(core::EnvironmentSchedule(spec.corner));
      lock(*system, built, tracer, lock_span);
      built.dpwm = std::move(system);
      break;
    }
    case Architecture::kHybrid: {
      built.proposed_line = std::make_unique<core::ProposedDelayLine>(
          workspace.technology(), sizing.proposed_line, spec.seed);
      const sim::Time fast_tick = sim::from_ps(
          period_ps /
          static_cast<double>(std::uint64_t{1} << spec.counter_bits));
      auto system = std::make_unique<core::HybridCalibratedDpwm>(
          *built.proposed_line, spec.counter_bits,
          spec.resolution_bits - spec.counter_bits,
          fast_tick << spec.counter_bits);
      system->set_environment(core::EnvironmentSchedule(spec.corner));
      lock(*system, built, tracer, lock_span);
      built.dpwm = std::move(system);
      break;
    }
  }
  return built;
}

/// The runner's word-width-matched PID gains.
control::PidParams pid_for(int duty_bits) {
  control::PidParams params;
  if (duty_bits > 9) {
    const int shift = duty_bits - 9;
    params.kp <<= shift;
    params.ki <<= shift;
    params.kd <<= shift;
  }
  return params;
}

/// The first typical-corner regulation spec of each architecture.
std::vector<ScenarioSpec> probe_specs(const std::vector<ScenarioSpec>& closed) {
  std::vector<ScenarioSpec> picked;
  for (const Architecture arch :
       {Architecture::kProposed, Architecture::kConventional,
        Architecture::kCounter, Architecture::kHybrid}) {
    for (const ScenarioSpec& spec : closed) {
      if (spec.family == "regulation" && spec.architecture == arch &&
          spec.name.find("/typical/") != std::string::npos) {
        picked.push_back(spec);
        break;
      }
    }
  }
  return picked;
}

/// The first kReplayPeriods periods (PWM and load) the closed-loop probe
/// ran, for timing the plant again next to each in-process scenario.
struct PlantReplay {
  std::vector<dpwm::PwmPeriod> periods;
  std::vector<double> loads;
};

/// analog, dpwm, control and core: lock each architecture's line, run the
/// closed loop one period per DigitallyControlledBuck::run call, and time
/// each period again on a standalone BuckConverter.
PlantReplay closed_loop_probe(Context& ctx,
                              const std::vector<ScenarioSpec>& closed) {
  Tracer& tracer = ctx.tracer;
  PlantReplay replay;
  scenario::ScenarioWorkspace workspace;
  std::vector<double> lock_us;
  for (const ScenarioSpec& spec : probe_specs(closed)) {
    const std::string arch(scenario::to_string(spec.architecture));
    for (std::size_t k = 1; k < kLockRepeats; ++k) {
      build_dpwm(spec, workspace, tracer);
    }
    const BuiltDpwm built = build_dpwm(spec, workspace, tracer);
    if (spec.architecture != Architecture::kCounter) {
      lock_us.push_back(median(tracer.durations_us("core.lock." + arch)));
    }
    if (!built.locked) {
      std::fprintf(stderr, "perfbench: %s did not lock\n", spec.name.c_str());
      continue;
    }
    TimedDpwm timed(*built.dpwm, tracer, "dpwm.generate." + arch);
    const std::uint64_t full = (std::uint64_t{1} << timed.bits()) - 1;
    control::DigitallyControlledBuck loop(
        analog::BuckConverter(analog::BuckParams{}),
        analog::WindowAdc(analog::WindowAdcParams{spec.vref_v, 10e-3, 7}),
        control::PidController(pid_for(timed.bits()), full, full / 3), timed);
    const control::LoadProfile load = spec.load.make(spec.seed);
    // Each loop period is followed by the same period on a standalone
    // plant (same PWM, same load, so the same integration steps): the two
    // are timed back to back, under the same conditions.
    analog::BuckConverter plant(analog::BuckParams{});
    for (std::uint64_t p = 0; p < kProbePeriods; ++p) {
      {
        const auto span = tracer.span("control.period", p);
        loop.run(1, load);
      }
      const auto span = tracer.span("analog.run_period", p);
      plant.run_period(timed.periods().back(), load(p));
      if (replay.periods.size() < kReplayPeriods) {
        replay.periods.push_back(timed.periods().back());
        replay.loads.push_back(load(p));
      }
    }
    ctx.set("dpwm.generate_ns." + arch,
            1e3 * median(tracer.durations_us("dpwm.generate." + arch)), "ns");
  }
  const double plant_us = median(tracer.durations_us("analog.run_period"));
  ctx.set("analog.run_period_us", plant_us, "us");
  ctx.set("control.period_us", median(tracer.durations_us("control.period")),
          "us");
  // Overhead per period: the loop's self time (its DPWM child removed)
  // minus the plant time of the same period, paired in recording order.
  const std::vector<double> loop_self = tracer.self_us("control.period");
  const std::vector<double> plant_alone =
      tracer.durations_us("analog.run_period");
  std::vector<double> overhead;
  for (std::size_t i = 0; i < loop_self.size() && i < plant_alone.size();
       ++i) {
    overhead.push_back(loop_self[i] - plant_alone[i]);
  }
  ctx.set("control.overhead_us", median(overhead), "us");
  ctx.set("core.lock_us",
          lock_us.empty() ? 0.0
                          : std::accumulate(lock_us.begin(), lock_us.end(),
                                            0.0) /
                                static_cast<double>(lock_us.size()),
          "us");
  return replay;
}

/// Outcome counters summed over the ladder's campaigns.
struct CampaignTotals {
  std::size_t retries = 0;
  std::size_t errors = 0;
  std::size_t crashes = 0;
  std::size_t respawns = 0;
  std::size_t resource_kills = 0;
  std::size_t workers_lost = 0;

  void add(const scenario::CampaignOutcome& outcome) {
    retries += outcome.retried;
    errors += outcome.timeouts + outcome.exceptions + outcome.sandbox_crashes +
              outcome.resource_kills + outcome.workers_lost;
    crashes += outcome.sandbox_crashes;
    respawns += outcome.workers_respawned;
    resource_kills += outcome.resource_kills;
    workers_lost += outcome.workers_lost;
  }
};

/// One probe campaign (journal on when `journal_dir` is set), checked like
/// the workload's rounds.  Returns its Campaign::run wall time in seconds.
double probe_campaign(Context& ctx, const std::vector<ScenarioSpec>& specs,
                      const std::string& journal_dir, CampaignTotals& totals) {
  scenario::CampaignConfig config;
  config.journal_dir = journal_dir;
  config.jobs = campaign_jobs();
  scenario::CampaignOutcome outcome;
  const double t0 = now_s();
  {
    const auto span = ctx.tracer.span("scenario.campaign_run");
    outcome = scenario::Campaign(config).run(specs);
  }
  const double wall_s = now_s() - t0;
  totals.add(outcome);
  ctx.attempted += specs.size();
  emit(ctx, [specs] { return specs; }, specs.size(), outcome.jsonl(),
       outcome.health_jsonl);
  return wall_s;
}

std::uintmax_t journal_bytes(const std::string& dir) {
  std::uintmax_t bytes = 0;
  for (const char* name : {"journal.jsonl", "health_journal.jsonl"}) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(fs::path(dir) / name, ec);
    bytes += ec ? 0 : size;
  }
  return bytes;
}

}  // namespace

void run_layer_ladder(Context& ctx) {
  Tracer& tracer = ctx.tracer;
  tracer.set_enabled(true);
  const std::uint64_t seed = ctx.options.seed;
  const std::vector<ScenarioSpec> closed =
      campaign_round(Workload::kClosedLoopCampaign, seed, kLadderRound);
  const std::vector<ScenarioSpec> yield =
      campaign_round(Workload::kYieldCampaign, seed, kLadderRound);

  const PlantReplay replay = closed_loop_probe(ctx, closed);

  // scenario: every closed-loop spec plus one copy of each yield spec, run
  // in process one at a time.  After each closed-loop spec the plant
  // replays kReplayPeriods periods, so analog.share compares plant and
  // scenario times taken seconds apart, not minutes.
  scenario::ScenarioWorkspace workspace;
  std::vector<ScenarioSpec> exec_specs = closed;
  const std::size_t yield_suite = 4;
  exec_specs.insert(exec_specs.end(), yield.begin(),
                    yield.begin() + yield_suite);
  std::map<std::string, std::vector<double>> exec_ms;
  double closed_exec_s = 0.0;
  double plant_s = 0.0;  ///< Estimated plant time inside closed_exec_s.
  std::uint64_t lock_cycles = 0;
  for (std::size_t i = 0; i < exec_specs.size(); ++i) {
    const ScenarioSpec& spec = exec_specs[i];
    scenario::ScenarioArtifacts artifacts;
    const double t0 = now_s();
    {
      const auto span = tracer.span("scenario.exec", i);
      artifacts = scenario::run_scenario(spec, workspace);
    }
    const double seconds = now_s() - t0;
    exec_ms[spec.family].push_back(1e3 * seconds);
    lock_cycles += artifacts.result.lock_cycles;
    if (spec.mc_dies == 0) {
      closed_exec_s += seconds;
      analog::BuckConverter plant(analog::BuckParams{});
      const double r0 = now_s();
      {
        const auto span = tracer.span("analog.replay", i);
        for (std::size_t p = 0; p < replay.periods.size(); ++p) {
          plant.run_period(replay.periods[p], replay.loads[p]);
        }
      }
      const double per_period_s =
          (now_s() - r0) / static_cast<double>(replay.periods.size());
      if (artifacts.result.locked && spec.expect_lock) {
        plant_s += per_period_s * static_cast<double>(spec.periods);
      }
    }
  }
  for (const auto& [family, samples] : exec_ms) {
    ctx.set("scenario.exec_ms." + family, median(samples), "ms");
  }
  ctx.set("core.lock_cycles", static_cast<double>(lock_cycles), "count");
  ctx.set("analog.share", plant_s / closed_exec_s, "frac");

  // The same closed-loop specs as one journaled campaign.
  CampaignTotals totals;
  const std::string dir = ctx.options.work_dir + "/ladder";
  fs::remove_all(dir);
  const double campaign_s =
      probe_campaign(ctx, closed, dir + "/closed", totals);
  ctx.set("scenario.parallel_efficiency",
          closed_exec_s / (static_cast<double>(campaign_jobs()) * campaign_s),
          "frac");

  // Journal tax and bytes: the yield round with the journal off and on,
  // alternating.
  std::vector<double> off_s, on_s;
  std::uintmax_t bytes = 0;
  for (std::size_t k = 0; k < kJournalPairs; ++k) {
    off_s.push_back(probe_campaign(ctx, yield, "", totals));
    const std::string journal = dir + "/yield-" + std::to_string(k);
    on_s.push_back(probe_campaign(ctx, yield, journal, totals));
    bytes += journal_bytes(journal);
  }
  ctx.set("scenario.journal_tax_frac", median(on_s) / median(off_s) - 1.0,
          "frac");
  ctx.set("scenario.journal_bytes",
          static_cast<double>(bytes) /
              static_cast<double>(kJournalPairs * yield.size()),
          "B");
  ctx.set("scenario.retries", static_cast<double>(totals.retries), "count");
  ctx.set("scenario.errors", static_cast<double>(totals.errors), "count");
  ctx.set("scenario.sandbox_crashes", static_cast<double>(totals.crashes),
          "count");
  ctx.set("scenario.workers_respawned", static_cast<double>(totals.respawns),
          "count");
  ctx.set("scenario.resource_kills",
          static_cast<double>(totals.resource_kills), "count");
  ctx.set("scenario.workers_lost", static_cast<double>(totals.workers_lost),
          "count");

  // Lane fill of the batch plan over the yield round: dies over the 8-lane
  // kernel blocks their groups occupy.
  {
    const scenario::BatchPlan plan = scenario::plan_batches(yield, workspace);
    std::uint64_t dies = 0;
    std::uint64_t blocks = 0;
    for (const scenario::BatchGroup& group : plan.groups) {
      std::uint64_t group_dies = 0;
      for (const std::size_t index : group.members) {
        group_dies += yield[index].mc_dies;
      }
      dies += group_dies;
      blocks += (group_dies + analysis::kBatchLanes - 1) / analysis::kBatchLanes;
    }
    ctx.set("scenario.batch_lane_fill",
            blocks ? static_cast<double>(dies) /
                         static_cast<double>(blocks * analysis::kBatchLanes)
                   : 0.0,
            "frac");
  }

  // Sandbox tax: one yield scenario per dispatch unit through a sandbox
  // worker, against the same scenario in process.
  {
    scenario::ScenarioExecutor executor(scenario::IsolationConfig{});
    const std::vector<ScenarioSpec> unit{yield.front()};
    scenario::ExecutedScenario last;
    executor.run_unit(unit);  // Forks the worker.
    for (std::size_t k = 0; k < kUnitRepeats; ++k) {
      {
        const auto span = tracer.span("scenario.sandbox_unit", k);
        last = executor.run_unit(unit).front();
      }
      const auto span = tracer.span("scenario.inprocess_unit", k);
      scenario::run_scenario(unit.front(), workspace);
    }
    // Paired per repeat, like the control overhead: each sandboxed unit
    // is followed by the same unit in process.
    const std::vector<double> boxed =
        tracer.durations_us("scenario.sandbox_unit");
    const std::vector<double> bare =
        tracer.durations_us("scenario.inprocess_unit");
    std::vector<double> tax_us;
    for (std::size_t k = 0; k < boxed.size() && k < bare.size(); ++k) {
      tax_us.push_back(boxed[k] - bare[k]);
    }
    ctx.set("scenario.sandbox_tax_ms", ms(median(tax_us)), "ms");
    std::string health;
    for (const std::string& line : last.health_lines) {
      health += line + "\n";
    }
    ++ctx.attempted;
    emit(ctx, [unit] { return unit; }, 1, last.line + "\n", health);
  }

  // analysis: the batched Monte-Carlo kernel at one thread.
  {
    const ScenarioSpec& spec = yield.front();
    const analysis::McBatchSpec mc =
        scenario::mc_yield_kernel_spec(spec, workspace.sizing_for(spec));
    std::vector<analysis::BatchDie> dies;
    for (std::size_t d = 0; d < kMcDies; ++d) {
      dies.push_back({analysis::die_seed(spec.seed, d), {}});
    }
    for (std::size_t k = 0; k < kMcRepeats; ++k) {
      const auto span = tracer.span("analysis.mc_batch", k);
      analysis::monte_carlo_batched_dies(mc, dies, 1);
    }
    ctx.set("analysis.mc_dies_per_s",
            1e6 * static_cast<double>(kMcDies) /
                median(tracer.durations_us("analysis.mc_batch")),
            "1/s");
  }

  // service: the service workload's shape for a short traced loop; its
  // overhead is measured against the same spec run in process.
  {
    const ScenarioSpec spec = service_spec(seed, 0, 0);
    for (std::size_t k = 0; k < kExecRepeats; ++k) {
      const auto span = tracer.span("scenario.service_spec_exec", k);
      scenario::run_scenario(spec, workspace);
    }
    service_layer_probe(
        ctx, kServiceProbeSeconds,
        ms(median(tracer.durations_us("scenario.service_spec_exec"))));
  }
  fs::remove_all(dir);
  tracer.set_enabled(false);
}

}  // namespace perfbench
