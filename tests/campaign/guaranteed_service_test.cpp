// Guaranteed idle per cycle, the service the static verifier credits
// slack-stolen copies against (sched::min_idle_in_window), pinned in ns
// on the paper workloads and on campaign generator cells, plus a bound
// on the heap the analytic path keeps across cells in one process.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/prob_wcrt.hpp"
#include "campaign/cross_check.hpp"
#include "campaign/scenario.hpp"
#include "core/experiment.hpp"
#include "net/workloads.hpp"
#include "sched/periodic_schedule.hpp"

namespace coeff::campaign {
namespace {

/// The static set as the verifier models it: one task per message, run
/// at wire speed.
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
  return sched::TaskSet{std::move(tasks)};
}

std::int64_t idle_per_cycle_ns(const flexray::ClusterConfig& cluster,
                               const net::MessageSet& statics) {
  return sched::min_idle_in_window(wire_tasks(cluster, statics),
                                   cluster.cycle_duration())
      .ns();
}

TEST(GuaranteedService, PaperWorkloadPins) {
  const flexray::ClusterConfig cluster = core::paper_cluster_apps(25);
  EXPECT_EQ(idle_per_cycle_ns(cluster, net::brake_by_wire()), 645260);
  EXPECT_EQ(idle_per_cycle_ns(cluster, net::adaptive_cruise()), 631360);
  EXPECT_EQ(idle_per_cycle_ns(cluster, net::brake_by_wire().merged_with(
                                           net::adaptive_cruise())),
            276620);
}

TEST(GuaranteedService, GeneratorCellPins) {
  constexpr std::int64_t kPins[] = {3593360, 3142140, 3170060, 4678720,
                                    3820820, 4358340, 4283460, 3181480,
                                    3113080, 3726560, 4022040, 4670820};
  const ScenarioGenerator generator(42, ScenarioDistribution{});
  std::int64_t cell = 0;
  for (const std::int64_t pin : kPins) {
    SCOPED_TRACE("cell " + std::to_string(cell));
    const core::ExperimentConfig config =
        generator.config(generator.spec(cell++));
    EXPECT_EQ(idle_per_cycle_ns(config.cluster, config.statics), pin);
  }
}

double heap_in_use_mb() {
  return static_cast<double>(::mallinfo2().uordblks) / (1024.0 * 1024.0);
}

// The analytic path keeps nothing across cells: heap in use stays flat
// over 100 campaign cells analysed back to back in one process. (A
// sanitizer build replaces the allocator; mallinfo2 then sees little.)
TEST(GuaranteedService, AnalysisHeapStaysBoundedOverHundredCells) {
  const ScenarioGenerator generator(42, ScenarioDistribution{});
  const double heap0 = heap_in_use_mb();
  for (std::int64_t cell = 0; cell < 100; ++cell) {
    const ScenarioSpec spec = generator.spec(cell);
    const auto setup = make_prob_setup(generator.config(spec), spec.scheme,
                                       analysis::ProbWcrtOptions{});
    (void)analysis::analyze_prob_wcrt(setup->input);
    ASSERT_LT(heap_in_use_mb() - heap0, 64.0) << "after cell " << cell;
  }
}

}  // namespace
}  // namespace coeff::campaign
