// Coprime message periods: the table period is the product of the
// distinct primes, so it explodes (9,699,690 cycles for the primes up
// to 19) and overflows int64 from the 16th prime on. Nothing that runs
// may depend on it: the cycle template sizes each slot by its own
// period, the table period saturates instead of overflowing, and the
// occupancy is computed slot by slot.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/experiment.hpp"
#include "core/hosa.hpp"
#include "net/message.hpp"
#include "sched/schedule_table.hpp"

namespace coeff::core {
namespace {

constexpr std::int64_t kPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23,
                                    29, 31, 37, 41, 43, 47, 53, 59};

/// One static message per prime, period = prime × the cluster's cycle.
net::MessageSet prime_statics(const flexray::ClusterConfig& cluster,
                              std::size_t count) {
  net::MessageSet set;
  for (std::size_t i = 0; i < count; ++i) {
    net::Message m;
    m.id = static_cast<int>(i) + 1;
    m.node = static_cast<int>(i) % cluster.num_nodes;
    m.kind = net::MessageKind::kStatic;
    m.period = cluster.cycle_duration() * kPrimes[i];
    m.deadline = m.period;
    m.size_bits = 64;
    set.add(m);
  }
  return set;
}

TEST(CoprimePeriodsTest, EightPrimesRunOnASmallTemplate) {
  ExperimentConfig config;
  config.cluster = paper_cluster_apps(25);
  config.statics = prime_statics(config.cluster, 8);
  config.batch_window = sim::millis(50);
  config.ber = 1e-7;

  const HosaScheduler sched(config.cluster, config.statics, {},
                            config.batch_window);
  EXPECT_EQ(sched.table().table_period_cycles(), 9'699'690);
  // One ring per slot: the eight primes (sum 77) plus seven idle slots.
  EXPECT_EQ(sched.cycle_template().cells(), 77u + 7u);

  const ExperimentResult result = run_experiment(config, SchemeKind::kHosa);
  EXPECT_GE(result.cycles_run, 50);
  EXPECT_GT(result.run.statics.released, 0);
}

TEST(CoprimePeriodsTest, SeventeenPrimesSaturateThePeriodAndStillRun) {
  ExperimentConfig config;
  config.cluster = paper_cluster_dynamic_suite(50);
  config.statics = prime_statics(config.cluster, 17);
  config.batch_window = sim::millis(300);
  config.ber = 1e-7;

  const auto table =
      sched::StaticScheduleTable::build(config.statics, config.cluster);
  ASSERT_TRUE(table.unplaced().empty());
  EXPECT_EQ(table.table_period_cycles(),
            std::numeric_limits<std::int64_t>::max());
  // Coprime repetitions never share a slot, so each prime owns one
  // slot once every p cycles: occupancy = (sum of 1/p) / slots.
  double closed_form = 0.0;
  for (const std::int64_t p : kPrimes) {
    closed_form += 1.0 / static_cast<double>(p);
  }
  closed_form /= static_cast<double>(config.cluster.g_number_of_static_slots);
  EXPECT_NEAR(table.occupancy(), closed_form, 1e-12);

  for (const auto scheme :
       {SchemeKind::kCoEfficient, SchemeKind::kFspec, SchemeKind::kHosa}) {
    SCOPED_TRACE(to_string(scheme));
    const ExperimentResult result = run_experiment(config, scheme);
    EXPECT_GE(result.cycles_run, 60);
    EXPECT_GT(result.run.statics.released, 0);
  }
}

}  // namespace
}  // namespace coeff::core
