// CycleTemplate: the flattened schedule must agree with the
// StaticScheduleTable it compiles at every (slot, cycle) — including
// warm-up cycles before a placement's base cycle, which are idle in the
// table and must stay idle in the template even though the steady-state
// pattern is baked per cycle-in-period.
#include "core/cycle_template.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>

#include "bench_common.hpp"
#include "campaign/scenario.hpp"
#include "net/message.hpp"
#include "sched/schedule_table.hpp"

namespace coeff::core {
namespace {

net::MessageSet four_statics() {
  net::MessageSet set;
  for (int i = 1; i <= 4; ++i) {
    net::Message m;
    m.id = i;
    m.node = i + 10;
    m.kind = net::MessageKind::kStatic;
    m.period = sim::millis(1);
    m.deadline = sim::millis(1);
    m.size_bits = 100 * i;
    set.add(m);
  }
  return set;
}

/// Three slots: slot 1 owned every cycle; slot 2 cycle-multiplexed
/// between two phases of repetition 2; slot 3 owned every cycle but
/// only from cycle 3 on (offset warm-up: base >= table period, the
/// regression that once baked FSPEC exclusive slots permanently idle).
sched::StaticScheduleTable make_table() {
  std::vector<sched::SlotAssignment> assignments;
  assignments.push_back({1, units::SlotId{1}, units::CycleIndex{0}, 1, {}});
  assignments.push_back({2, units::SlotId{2}, units::CycleIndex{1}, 2, {}});
  assignments.push_back({3, units::SlotId{2}, units::CycleIndex{2}, 2, {}});
  assignments.push_back({4, units::SlotId{3}, units::CycleIndex{3}, 1, {}});
  return sched::StaticScheduleTable::from_assignments(std::move(assignments),
                                                      /*num_slots=*/3);
}

TEST(CycleTemplateTest, AgreesWithTableEverywhereIncludingWarmUp) {
  const auto statics = four_statics();
  const auto table = make_table();
  CycleTemplate tpl;
  tpl.rebuild(table, statics, nullptr, /*num_slots=*/3);
  EXPECT_EQ(tpl.period_cycles(), table.table_period_cycles());
  EXPECT_FALSE(tpl.empty());

  for (std::int64_t cycle = 0; cycle < 16; ++cycle) {
    for (std::int64_t slot = 1; slot <= 3; ++slot) {
      const units::SlotId s{slot};
      const units::CycleIndex c{cycle};
      SCOPED_TRACE("slot=" + std::to_string(slot) +
                   " cycle=" + std::to_string(cycle));
      const auto expected = table.message_at(s, c);
      if (expected.has_value()) {
        const net::Message* m = tpl.message_at(s, c);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->id, *expected);
        EXPECT_EQ(tpl.node_at(s, c), m->node);
        EXPECT_EQ(tpl.payload_bits_at(s, c), m->size_bits);
      } else {
        EXPECT_EQ(tpl.message_at(s, c), nullptr);
        EXPECT_EQ(tpl.node_at(s, c), -1);
        EXPECT_EQ(tpl.payload_bits_at(s, c), 0);
      }
    }
  }
  // The warm-up shape itself, spelled out: slot 3 idle before cycle 3.
  EXPECT_EQ(tpl.message_at(units::SlotId{3}, units::CycleIndex{0}), nullptr);
  EXPECT_EQ(tpl.message_at(units::SlotId{3}, units::CycleIndex{2}), nullptr);
  ASSERT_NE(tpl.message_at(units::SlotId{3}, units::CycleIndex{3}), nullptr);
  ASSERT_NE(tpl.message_at(units::SlotId{3}, units::CycleIndex{9}), nullptr);
  EXPECT_EQ(tpl.message_at(units::SlotId{3}, units::CycleIndex{9})->id, 4);
}

TEST(CycleTemplateTest, BudgetColumnFollowsThePlanAndGatesOnWarmUp) {
  const auto statics = four_statics();
  const auto table = make_table();
  const std::unordered_map<int, int> budget = {{1, 3}, {4, 2}};
  CycleTemplate tpl;
  tpl.rebuild(table, statics, &budget, 3);
  EXPECT_EQ(tpl.budget_at(units::SlotId{1}, units::CycleIndex{0}), 3);
  // Unbudgeted occupant -> 0.
  EXPECT_EQ(tpl.budget_at(units::SlotId{2}, units::CycleIndex{1}), 0);
  // Budgeted occupant still warming up -> 0, active -> its k_z.
  EXPECT_EQ(tpl.budget_at(units::SlotId{3}, units::CycleIndex{1}), 0);
  EXPECT_EQ(tpl.budget_at(units::SlotId{3}, units::CycleIndex{4}), 2);
}

TEST(CycleTemplateTest, IdsOutsideTheMessageSetStayIdle) {
  net::MessageSet statics = four_statics();
  std::vector<sched::SlotAssignment> assignments;
  assignments.push_back({1, units::SlotId{1}, units::CycleIndex{0}, 1, {}});
  // A pre-planned clone id (99) with no Message behind it: the template
  // must leave the occurrence idle for the subclass to resolve.
  assignments.push_back({99, units::SlotId{2}, units::CycleIndex{0}, 1, {}});
  const auto table = sched::StaticScheduleTable::from_assignments(
      std::move(assignments), 2);
  CycleTemplate tpl;
  tpl.rebuild(table, statics, nullptr, 2);
  EXPECT_NE(tpl.message_at(units::SlotId{1}, units::CycleIndex{0}), nullptr);
  EXPECT_EQ(tpl.message_at(units::SlotId{2}, units::CycleIndex{0}), nullptr);
}

TEST(CycleTemplateTest, VersionAdvancesPerRebuild) {
  const auto statics = four_statics();
  const auto table = make_table();
  CycleTemplate tpl;
  EXPECT_EQ(tpl.version(), 0);
  EXPECT_TRUE(tpl.empty());
  tpl.rebuild(table, statics, nullptr, 3);
  EXPECT_EQ(tpl.version(), 1);
  tpl.rebuild(table, statics, nullptr, 3);
  EXPECT_EQ(tpl.version(), 2);
}

/// Probes every (slot, cycle) with cycle in [0, cycles) and returns the
/// number of cells where the template disagrees with the table; the
/// first disagreement is described in `first`.
std::int64_t disagreements(const CycleTemplate& tpl,
                           const sched::StaticScheduleTable& table,
                           const net::MessageSet& statics,
                           std::int64_t num_slots, std::int64_t cycles,
                           std::string& first) {
  std::int64_t bad = 0;
  for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
    for (std::int64_t slot = 1; slot <= num_slots; ++slot) {
      const units::SlotId s{slot};
      const units::CycleIndex c{cycle};
      const auto expected = table.message_at(s, c);
      const net::Message* m =
          expected.has_value() ? statics.find(*expected) : nullptr;
      const bool agrees =
          m != nullptr
              ? tpl.message_at(s, c) == m && tpl.node_at(s, c) == m->node &&
                    tpl.payload_bits_at(s, c) == m->size_bits
              : tpl.message_at(s, c) == nullptr &&
                    tpl.node_at(s, c) == -1 &&
                    tpl.payload_bits_at(s, c) == 0;
      if (!agrees && bad++ == 0) {
        first = "slot=" + std::to_string(slot) +
                " cycle=" + std::to_string(cycle);
      }
    }
  }
  return bad;
}

/// Sum over slots of the LCM of the slot's repetitions (1 when idle),
/// straight from the assignment list.
std::int64_t sum_of_slot_periods(const sched::StaticScheduleTable& table,
                                 std::int64_t num_slots) {
  std::vector<std::int64_t> period(static_cast<std::size_t>(num_slots), 1);
  for (const auto& a : table.assignments()) {
    auto& p = period[static_cast<std::size_t>(a.slot.value() - 1)];
    p = std::lcm(p, a.repetition);
  }
  return std::accumulate(period.begin(), period.end(), std::int64_t{0});
}

std::int64_t max_base(const sched::StaticScheduleTable& table) {
  std::int64_t last = 0;
  for (const auto& a : table.assignments()) {
    last = std::max(last, a.base_cycle.value());
  }
  return last;
}

// The figures' loaded config: 100 statics multiplexed onto 80 slots, a
// 2520-cycle table. Every cell of a full table period past the last
// warm-up agrees, yet the template holds a few hundred cells rather
// than 2520 x 80.
TEST(CycleTemplateTest, LoadedTableAgreesOverAFullHyperperiod) {
  const auto cluster = paper_cluster_dynamic_suite(50);
  const auto statics = bench::synthetic_statics(100, 42);
  const auto table = sched::StaticScheduleTable::build(statics, cluster);
  const std::int64_t slots = cluster.g_number_of_static_slots;
  ASSERT_EQ(table.table_period_cycles(), 2520);
  CycleTemplate tpl;
  tpl.rebuild(table, statics, nullptr, slots);
  std::string first;
  EXPECT_EQ(disagreements(tpl, table, statics, slots,
                          max_base(table) + table.table_period_cycles(),
                          first),
            0)
      << "first disagreement at " << first;
  EXPECT_EQ(static_cast<std::int64_t>(tpl.cells()),
            sum_of_slot_periods(table, slots));
  EXPECT_LT(tpl.cells(), 1024u);
}

// Coprime repetitions (2 and 3 sharing slot 1, 5 alone in slot 2) with
// warm-up bases: the slot rings are 6 and 5 cells long, the table
// period 30, and the two stay in agreement through every warm-up cycle.
TEST(CycleTemplateTest, CoprimeSlotPeriodsAgreeThroughWarmUp) {
  const auto statics = four_statics();
  std::vector<sched::SlotAssignment> assignments;
  assignments.push_back({1, units::SlotId{1}, units::CycleIndex{1}, 2, {}});
  assignments.push_back({2, units::SlotId{1}, units::CycleIndex{4}, 3, {}});
  assignments.push_back({3, units::SlotId{2}, units::CycleIndex{7}, 5, {}});
  const auto table = sched::StaticScheduleTable::from_assignments(
      std::move(assignments), /*num_slots=*/3);
  CycleTemplate tpl;
  tpl.rebuild(table, statics, nullptr, 3);
  EXPECT_EQ(tpl.period_cycles(), 30);
  std::string first;
  EXPECT_EQ(disagreements(tpl, table, statics, 3, 7 + 30, first), 0)
      << "first disagreement at " << first;
  EXPECT_EQ(static_cast<std::int64_t>(tpl.cells()),
            sum_of_slot_periods(table, 3));
  EXPECT_EQ(tpl.cells(), 6u + 5u + 1u);
  // Slot 2 warms up until cycle 7 although cycle 2 is in its phase.
  EXPECT_EQ(tpl.message_at(units::SlotId{2}, units::CycleIndex{2}), nullptr);
  ASSERT_NE(tpl.message_at(units::SlotId{2}, units::CycleIndex{7}), nullptr);
  EXPECT_EQ(tpl.message_at(units::SlotId{2}, units::CycleIndex{7})->id, 3);
}

// Memory stays bounded on what the campaign generator draws: the
// templates of the first 200 cells of the `coeffctl campaign` population
// (seed 42, all three schemes) each fit in 1024 cells.
TEST(CycleTemplateTest, CampaignCellTemplatesStaySmall) {
  campaign::ScenarioDistribution dist;
  dist.schemes = {SchemeKind::kCoEfficient, SchemeKind::kFspec,
                  SchemeKind::kHosa};
  const campaign::ScenarioGenerator generator(42, dist);
  for (std::int64_t cell = 0; cell < 200; ++cell) {
    SCOPED_TRACE("cell " + std::to_string(cell));
    const campaign::ScenarioSpec spec = generator.spec(cell);
    const ExperimentConfig config = generator.config(spec);
    sched::TableBuildOptions options;
    options.exclusive_slots = spec.scheme == SchemeKind::kFspec;
    const auto table = sched::StaticScheduleTable::build(
        config.statics, config.cluster, options);
    CycleTemplate tpl;
    tpl.rebuild(table, config.statics, nullptr,
                config.cluster.g_number_of_static_slots);
    EXPECT_EQ(static_cast<std::int64_t>(tpl.cells()),
              sum_of_slot_periods(table,
                                  config.cluster.g_number_of_static_slots));
    EXPECT_LE(tpl.cells(), 1024u);
  }
}

}  // namespace
}  // namespace coeff::core
