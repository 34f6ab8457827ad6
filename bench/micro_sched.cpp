// Micro-benchmarks of the scheduling, reliability and analysis kernels:
// the costs that bound how fast the offline configuration step, the
// per-slot online decisions and the analytic verifier run.
#include <benchmark/benchmark.h>

#include "analysis/pmf.hpp"
#include "campaign/scenario.hpp"
#include "core/coefficient.hpp"
#include "core/experiment.hpp"
#include "core/instance.hpp"
#include "fault/reliability.hpp"
#include "net/workloads.hpp"
#include "sched/periodic_schedule.hpp"
#include "sched/rta.hpp"
#include "sched/schedule_table.hpp"
#include "sched/slack_stealer.hpp"
#include "sched/slack_table.hpp"
#include "sim/random.hpp"

namespace {

using namespace coeff;

sched::TaskSet make_task_set(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<sched::PeriodicTask> tasks;
  for (int i = 0; i < n; ++i) {
    sched::PeriodicTask t;
    t.id = i;
    t.period = sim::millis(rng.uniform_int(1, 10) * 5);
    t.wcet = sim::micros(rng.uniform_int(10, 60));
    t.deadline = t.period;
    t.offset = sim::micros(rng.uniform_int(0, 999));
    tasks.push_back(t);
  }
  return sched::TaskSet(std::move(tasks));
}

net::MessageSet make_statics(std::size_t n) {
  sim::Rng rng(17);
  net::SyntheticStaticOptions opt;
  opt.count = n;
  return net::synthetic_static(opt, rng);
}

void BM_ResponseTimeAnalysis(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::response_time_analysis(set));
  }
}
BENCHMARK(BM_ResponseTimeAnalysis)->Arg(10)->Arg(50)->Arg(200);

void BM_PeriodicScheduleSimulation(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 5);
  const auto horizon = set.hyperperiod() * 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::simulate_periodic(set, horizon));
  }
}
BENCHMARK(BM_PeriodicScheduleSimulation)->Arg(10)->Arg(50)->Arg(200);

void BM_SlackTableBuild(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    sched::SlackTable table(set);
    benchmark::DoNotOptimize(table.schedulable());
  }
}
BENCHMARK(BM_SlackTableBuild)->Arg(10)->Arg(50)->Arg(200);

void BM_SlackQuery(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 9);
  const sched::SlackTable table(set);
  sim::Rng rng(1);
  std::int64_t t_us = 0;
  for (auto _ : state) {
    t_us += rng.uniform_int(1, 500);
    benchmark::DoNotOptimize(table.slack_at(sim::micros(t_us)));
  }
}
BENCHMARK(BM_SlackQuery)->Arg(10)->Arg(50)->Arg(200);

void BM_SlackStealerGrant(benchmark::State& state) {
  const auto set = make_task_set(50, 11);
  sched::SlackStealer stealer(set);
  std::int64_t t_us = 0;
  for (auto _ : state) {
    t_us += 40;
    benchmark::DoNotOptimize(
        stealer.try_steal(sim::micros(t_us), sim::micros(5)));
  }
}
BENCHMARK(BM_SlackStealerGrant);

void BM_DifferentiatedSolver(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  fault::SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::solve_differentiated(set, opt));
  }
}
BENCHMARK(BM_DifferentiatedSolver)->Arg(20)->Arg(100)->Arg(200);

void BM_UniformSolver(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  fault::SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::solve_uniform(set, opt));
  }
}
BENCHMARK(BM_UniformSolver)->Arg(20)->Arg(100)->Arg(200);

void BM_ScheduleTableBuild(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  auto cfg = flexray::ClusterConfig::static_suite(80);
  cfg.bus_bit_rate = 50'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::StaticScheduleTable::build(set, cfg));
  }
}
BENCHMARK(BM_ScheduleTableBuild)->Arg(20)->Arg(100)->Arg(200);

void BM_ReliabilityEvaluation(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  const std::vector<int> copies(set.size(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::log_set_reliability(set, copies, 1e-7, sim::seconds(3600)));
  }
}
BENCHMARK(BM_ReliabilityEvaluation)->Arg(20)->Arg(200);

// The analytic verifier's interference fold: a unit mass at zero
// convolved with `range(0)` Bernoulli slot demands on the default
// 4096-bin, 50 us grid.
void BM_PmfConvolveBernoulli(benchmark::State& state) {
  const sim::Time quantum = sim::micros(50);
  analysis::Pmf bern(quantum, 4096);
  bern.add_mass(sim::Time::zero(), 0.99);
  bern.add_mass(sim::micros(300), 0.01);
  for (auto _ : state) {
    analysis::Pmf acc = analysis::Pmf::delta(sim::Time::zero(), quantum, 4096);
    for (std::int64_t i = 0; i < state.range(0); ++i) acc = acc.convolve(bern);
    benchmark::DoNotOptimize(acc.overflow());
  }
}
BENCHMARK(BM_PmfConvolveBernoulli)->Arg(8)->Arg(64);

// The dynamic verifier's geometric slip operator at its defaults: 4096
// bins, 64 slips, a 3-bin first-opportunity distribution.
void BM_WithCycleSlips(benchmark::State& state) {
  analysis::Pmf first(sim::micros(50), 4096);
  first.add_mass(sim::micros(100), 0.5);
  first.add_mass(sim::micros(150), 0.3);
  first.add_mass(sim::micros(200), 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::with_cycle_slips(first, 0.3, sim::millis(1), 64));
  }
}
BENCHMARK(BM_WithCycleSlips);

/// A static set as the verifier's guaranteed-service model sees it: one
/// task per message at wire speed.
sched::TaskSet wire_tasks(const flexray::ClusterConfig& cluster,
                          const net::MessageSet& statics) {
  std::vector<sched::PeriodicTask> tasks;
  for (const net::Message& m : statics.messages()) {
    sched::PeriodicTask t;
    t.id = m.id;
    t.wcet = cluster.transmission_time(m.size_bits);
    t.period = m.period;
    t.offset = m.offset;
    t.deadline = m.deadline;
    tasks.push_back(t);
  }
  return sched::TaskSet(std::move(tasks));
}

// Guaranteed idle per cycle. Arg 0: the apps (bbw + acc) wire set on the
// 1 ms app cluster. Arg 1: cell 1595 of the 2000-cell campaign
// `campaign run --cells 2000 --seed 2026 --window-ms 25`, its costliest
// cross-checked (CoEfficient, no structural fault) cell.
void BM_MinIdleInWindow(benchmark::State& state) {
  flexray::ClusterConfig cluster = core::paper_cluster_apps(25);
  net::MessageSet statics =
      net::brake_by_wire().merged_with(net::adaptive_cruise());
  if (state.range(0) == 1) {
    campaign::ScenarioDistribution dist;
    dist.schemes = {core::SchemeKind::kCoEfficient, core::SchemeKind::kFspec,
                    core::SchemeKind::kHosa};
    dist.window_ms = 25;
    const campaign::ScenarioGenerator generator(2026, dist);
    const core::ExperimentConfig config =
        generator.config(generator.spec(1595));
    cluster = config.cluster;
    statics = config.statics;
  }
  const sched::TaskSet set = wire_tasks(cluster, statics);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::min_idle_in_window(set, cluster.cycle_duration()));
  }
}
BENCHMARK(BM_MinIdleInWindow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Instance-slab churn in the shape of one loaded cycle: one release per
// message (180 messages, as statics + dynamics of the loaded config),
// k handle lookups per live instance (outcome accounting, CHI overwrite
// checks), then the settlement sweep. Arg: k.
void BM_InstanceChurn(benchmark::State& state) {
  constexpr std::size_t kMessages = 180;
  std::vector<int> ids(kMessages);
  for (std::size_t p = 0; p < kMessages; ++p) ids[p] = static_cast<int>(p) + 1;
  core::InstanceStore store(ids);
  std::vector<std::uint64_t> keys(kMessages);
  const std::int64_t finds = state.range(0);
  std::int64_t index = 0;
  for (auto _ : state) {
    for (std::size_t p = 0; p < kMessages; ++p) {
      keys[p] = store.create(p, index).key;
    }
    for (std::int64_t j = 0; j < finds; ++j) {
      for (const std::uint64_t key : keys) ++store.find(key)->copies_sent;
    }
    store.settle_if([](const core::Instance& inst) {
      return inst.copies_sent > 0;
    });
    ++index;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMessages));
}
BENCHMARK(BM_InstanceChurn)->Arg(1)->Arg(4);

// The static release path of one 5 ms cycle of a 100-message synthetic
// set on the loaded cluster: release what falls due (slab create, CHI
// buffer overwrite check and write), then the sweep. No wire walk: an
// unsent value is cancelled when the next release overwrites it and
// settles at its deadline, so the live set stays bounded.
void BM_StaticRelease(benchmark::State& state) {
  const flexray::ClusterConfig cluster = core::paper_cluster_dynamic_suite(50);
  core::CoEfficientScheduler sched(cluster, make_statics(100), {},
                                   sim::seconds(1'000'000),
                                   core::CoEfficientOptions{});
  const sim::Time cycle = cluster.cycle_duration();
  std::int64_t c = 0;
  for (auto _ : state) {
    sched.on_cycle_start(units::CycleIndex{c}, cycle * c);
    ++c;
  }
  state.SetItemsProcessed(sched.stats().statics.released);
}
BENCHMARK(BM_StaticRelease);

}  // namespace

BENCHMARK_MAIN();
