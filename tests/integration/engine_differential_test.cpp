// Differential acceptance for the compiled cycle engine (DESIGN.md §12):
// the compiled and interpreted walks must be observationally identical —
// byte-identical trace CSVs and RunStats — across schemes, fault
// models, structural faults, the online monitor, and sweep parallelism.
// Speed is allowed to differ; behaviour is not.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "fault/structural.hpp"
#include "run_fixtures.hpp"
#include "sim/trace.hpp"

namespace coeff::core {
namespace {

struct EngineRun {
  ExperimentResult result;
  std::string csv;
};

EngineRun run_with_engine(ExperimentConfig config, SchemeKind scheme,
                          flexray::EngineMode engine) {
  sim::Trace trace;
  config.engine = engine;
  config.trace = &trace;
  EngineRun run;
  run.result = run_experiment(config, scheme);
  run.csv = trace_csv(trace);
  return run;
}

void expect_identical(const EngineRun& compiled, const EngineRun& interpreted) {
  // Byte-identical trace CSV is the strongest check: every wire event,
  // verdict, failover and rebuild at the same timestamp with the same
  // tags.
  EXPECT_EQ(compiled.csv, interpreted.csv);
  const ExperimentResult& c = compiled.result;
  const ExperimentResult& i = interpreted.result;
  EXPECT_EQ(c.run.summary(), i.run.summary());
  EXPECT_EQ(c.run.overall_miss_ratio(), i.run.overall_miss_ratio());
  EXPECT_EQ(c.run.statics.copies_corrupted, i.run.statics.copies_corrupted);
  EXPECT_EQ(c.run.retransmission_copies_sent, i.run.retransmission_copies_sent);
  EXPECT_EQ(c.run.slack_slots_stolen, i.run.slack_slots_stolen);
  EXPECT_EQ(c.run.plan_swaps, i.run.plan_swaps);
  EXPECT_EQ(c.run.failovers, i.run.failovers);
  EXPECT_EQ(c.run.frames_lost, i.run.frames_lost);
  EXPECT_EQ(c.run.running_time.ns(), i.run.running_time.ns());
  EXPECT_EQ(c.cycles_run, i.cycles_run);
  EXPECT_EQ(c.drained, i.drained);
  EXPECT_EQ(c.final_plan.copies, i.final_plan.copies);
  // And the comparison must not be vacuous.
  EXPECT_GT(c.compiled_cycles, 0);
  EXPECT_EQ(i.compiled_cycles, 0);
}

TEST(EngineDifferentialTest, SchemeByFaultModelGridIsByteIdentical) {
  for (const auto scheme :
       {SchemeKind::kCoEfficient, SchemeKind::kFspec, SchemeKind::kHosa}) {
    for (const auto kind :
         {fault::FaultModelKind::kIid, fault::FaultModelKind::kGilbertElliott,
          fault::FaultModelKind::kCommonMode,
          fault::FaultModelKind::kIidCounter}) {
      SCOPED_TRACE(std::string(to_string(scheme)) + " x " +
                   fault::to_string(kind));
      ExperimentConfig config = grid_config();
      config.fault_model.kind = kind;
      config.fault_model.common_fraction = 0.5;
      config.fault_model.gilbert_elliott.p_good_to_bad = 0.02;
      const auto compiled =
          run_with_engine(config, scheme, flexray::EngineMode::kCompiled);
      const auto interpreted =
          run_with_engine(config, scheme, flexray::EngineMode::kInterpreted);
      expect_identical(compiled, interpreted);
      // Clean topology: every cycle took the compiled path.
      EXPECT_EQ(compiled.result.compiled_cycles,
                compiled.result.cycles_run);
    }
  }
}

TEST(EngineDifferentialTest, MonitorAndBerStepStayIdentical) {
  ExperimentConfig config = grid_config();
  config.batch_window = sim::millis(200);
  config.ber = 1e-7;
  config.ber_step_at = sim::millis(60);
  config.ber_step = 1e-4;
  config.enable_monitor = true;
  config.monitor.window_cycles = 50;
  config.monitor.min_window_frames = 200;
  config.monitor.cooldown_cycles = 50;
  const auto compiled = run_with_engine(config, SchemeKind::kCoEfficient,
                                        flexray::EngineMode::kCompiled);
  const auto interpreted = run_with_engine(config, SchemeKind::kCoEfficient,
                                           flexray::EngineMode::kInterpreted);
  expect_identical(compiled, interpreted);
  // The scenario actually re-planned, so the kPlanSwap -> template
  // rebuild path was exercised, not just the steady state.
  EXPECT_GT(compiled.result.run.plan_swaps, 0);
}

// Structural faults force the compiled engine back onto the interpreted
// path in exactly the cycles a wire-level fault could touch; the
// failover/voting semantics of the fault-domain layer must survive the
// mode switches byte for byte.
TEST(EngineDifferentialTest, StructuralFaultFallbackStaysIdentical) {
  for (const auto scheme : {SchemeKind::kCoEfficient, SchemeKind::kFspec}) {
    SCOPED_TRACE(to_string(scheme));
    ExperimentConfig config = grid_config();
    config.ber = 1e-6;
    config.structural.blackouts.push_back(
        {flexray::ChannelId::kA, sim::millis(5), sim::millis(20)});
    config.structural.crashes.push_back(
        {units::NodeId{1}, sim::millis(10), sim::millis(30)});
    fault::BabbleWindow babble;
    babble.babbler = units::NodeId{2};
    babble.slot = units::SlotId{2};
    babble.channel = flexray::ChannelId::kB;
    babble.at = sim::millis(8);
    babble.until = sim::millis(12);
    config.structural.babbles.push_back(babble);
    config.vote_replicas = scheme == SchemeKind::kCoEfficient ? 3 : 0;
    const auto compiled =
        run_with_engine(config, scheme, flexray::EngineMode::kCompiled);
    const auto interpreted =
        run_with_engine(config, scheme, flexray::EngineMode::kInterpreted);
    EXPECT_EQ(compiled.csv, interpreted.csv);
    EXPECT_EQ(compiled.result.run.summary(), interpreted.result.run.summary());
    EXPECT_EQ(compiled.result.run.failovers, interpreted.result.run.failovers);
    EXPECT_EQ(compiled.result.run.membership_replans,
              interpreted.result.run.membership_replans);
    EXPECT_EQ(compiled.result.cycles_run, interpreted.result.cycles_run);
    // Babble window inside [8,12) ms: those cycles must have fallen
    // back, the rest must have compiled.
    EXPECT_GT(compiled.result.compiled_cycles, 0);
    EXPECT_LT(compiled.result.compiled_cycles, compiled.result.cycles_run);
  }
}

// Sweep parallelism on top of the compiled engine: jobs=1 and jobs=4
// must agree with each other and with the interpreted engine.
TEST(EngineDifferentialTest, SweepJobsOneVsFourMatchAcrossEngines) {
  std::vector<SweepCell> compiled_cells;
  std::vector<SweepCell> interpreted_cells;
  for (const auto scheme : {SchemeKind::kCoEfficient, SchemeKind::kFspec}) {
    for (const std::uint64_t seed : {11ULL, 29ULL}) {
      ExperimentConfig config = grid_config();
      config.seed = seed;
      const std::string label =
          std::string(to_string(scheme)) + "/seed=" + std::to_string(seed);
      config.engine = flexray::EngineMode::kCompiled;
      compiled_cells.push_back({config, scheme, label});
      config.engine = flexray::EngineMode::kInterpreted;
      interpreted_cells.push_back({config, scheme, label});
    }
  }
  const SweepReport serial = SweepRunner(1).run(compiled_cells);
  const SweepReport parallel = SweepRunner(4).run(compiled_cells);
  const SweepReport reference = SweepRunner(4).run(interpreted_cells);
  ASSERT_EQ(serial.cells.size(), compiled_cells.size());
  for (std::size_t i = 0; i < compiled_cells.size(); ++i) {
    SCOPED_TRACE(compiled_cells[i].label);
    const ExperimentResult& a = serial.cells[i].result;
    const ExperimentResult& b = parallel.cells[i].result;
    const ExperimentResult& r = reference.cells[i].result;
    EXPECT_EQ(a.run.summary(), b.run.summary());
    EXPECT_EQ(a.run.summary(), r.run.summary());
    EXPECT_EQ(a.cycles_run, b.cycles_run);
    EXPECT_EQ(a.cycles_run, r.cycles_run);
    EXPECT_EQ(a.run.overall_miss_ratio(), r.run.overall_miss_ratio());
    EXPECT_GT(a.compiled_cycles, 0);
    EXPECT_EQ(r.compiled_cycles, 0);
  }
}

}  // namespace
}  // namespace coeff::core
