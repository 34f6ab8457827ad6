#include "sched/slack_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/random.hpp"

namespace coeff::sched {
namespace {

PeriodicTask task(int id, int wcet_ms, int period_ms, int deadline_ms = 0,
                  int offset_ms = 0) {
  PeriodicTask t;
  t.id = id;
  t.wcet = sim::millis(wcet_ms);
  t.period = sim::millis(period_ms);
  t.deadline = deadline_ms > 0 ? sim::millis(deadline_ms)
                               : sim::millis(period_ms);
  t.offset = sim::millis(offset_ms);
  return t;
}

TEST(SlackTableTest, SchedulableFlag) {
  EXPECT_TRUE(SlackTable(TaskSet({task(1, 2, 10)})).schedulable());
  EXPECT_FALSE(
      SlackTable(TaskSet({task(1, 3, 4), task(2, 3, 8, 8)})).schedulable());
}

TEST(SlackTableTest, SingleTaskSlackIsDeadlineMinusWcet) {
  // Task: C=2, T=D=10. At t=0 the job must finish by 10; the level-0
  // idle before that deadline is 10 - 2 = 8 ms.
  SlackTable table(TaskSet({task(1, 2, 10)}));
  EXPECT_EQ(table.level_slack(0, sim::Time::zero()), sim::millis(8));
}

TEST(SlackTableTest, SlackShrinksBeforeDeadline) {
  SlackTable table(TaskSet({task(1, 2, 10)}));
  // After the job finished (t=2), idle accrues until d=10: slack at t=5
  // is idle in (5, 10] = 5 ... but the *next* job (d=20) allows more; the
  // min over future deadlines governs.
  const auto s5 = table.level_slack(0, sim::millis(5));
  EXPECT_EQ(s5, sim::millis(5));
  const auto s9 = table.level_slack(0, sim::millis(9));
  EXPECT_EQ(s9, sim::millis(1));
}

TEST(SlackTableTest, CumulativeIdleMatchesSchedule) {
  SlackTable table(TaskSet({task(1, 2, 10)}));
  EXPECT_EQ(table.cumulative_idle(0, sim::millis(2)), sim::Time::zero());
  EXPECT_EQ(table.cumulative_idle(0, sim::millis(10)), sim::millis(8));
  EXPECT_EQ(table.cumulative_idle(0, sim::millis(12)), sim::millis(8));
  EXPECT_EQ(table.cumulative_idle(0, sim::millis(20)), sim::millis(16));
}

TEST(SlackTableTest, IdleBetween) {
  SlackTable table(TaskSet({task(1, 2, 10)}));
  EXPECT_EQ(table.idle_between(0, sim::millis(0), sim::millis(10)),
            sim::millis(8));
  EXPECT_EQ(table.idle_between(0, sim::millis(1), sim::millis(2)),
            sim::Time::zero());
  EXPECT_EQ(table.idle_between(0, sim::millis(5), sim::millis(5)),
            sim::Time::zero());
}

TEST(SlackTableTest, PeriodicExtensionBeyondTable) {
  // Queries far beyond 3H must extend periodically.
  SlackTable table(TaskSet({task(1, 2, 10)}));
  const auto far = table.cumulative_idle(0, sim::millis(1000));
  EXPECT_EQ(far, sim::millis(800));
  EXPECT_EQ(table.level_slack(0, sim::millis(1005)), sim::millis(5));
}

TEST(SlackTableTest, FullUtilizationHasZeroSlack) {
  SlackTable table(TaskSet({task(1, 1, 2), task(2, 2, 4)}));
  ASSERT_TRUE(table.schedulable());
  for (int t_ms : {0, 1, 2, 3, 5, 40, 400}) {
    EXPECT_EQ(table.slack_at(sim::millis(t_ms)), sim::Time::zero())
        << "t=" << t_ms;
  }
}

TEST(SlackTableTest, SlackAtIsMinOverLevels) {
  SlackTable table(TaskSet({task(1, 1, 5), task(2, 1, 10)}));
  const auto t = sim::Time::zero();
  const auto s = table.slack_at(t);
  EXPECT_LE(s, table.level_slack(0, t));
  EXPECT_LE(s, table.level_slack(1, t));
  // From level 1 only, the higher level's constraint drops out.
  EXPECT_GE(table.slack_at(t, 1), s);
}

TEST(SlackTableTest, TwoTaskKnownSlack) {
  // C=(1,2), T=D=(5,10). Level-1 busy: [0,3) (1ms task1 + 2ms task2).
  // Level-1 idle before d=10: (3,5)u(6,10) minus task1's second job at
  // [5,6) -> idle = 2 + 4 = 6. Level-0 idle before d=5: (1,5) = 4.
  SlackTable table(TaskSet({task(1, 1, 5), task(2, 2, 10)}));
  EXPECT_EQ(table.level_slack(0, sim::Time::zero()), sim::millis(4));
  EXPECT_EQ(table.level_slack(1, sim::Time::zero()), sim::millis(6));
  EXPECT_EQ(table.slack_at(sim::Time::zero()), sim::millis(4));
}

TEST(SlackTableTest, OffsetsShiftSlackWindows) {
  SlackTable table(TaskSet({task(1, 2, 10, 10, 3)}));
  // First job at [3,5), deadline 13. At t=0 the idle before 13 is
  // [0,3) + [5,13) = 3 + 8 = 11.
  EXPECT_EQ(table.level_slack(0, sim::Time::zero()), sim::millis(11));
}

TEST(SlackTableTest, SlackNeverNegative) {
  sim::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PeriodicTask> tasks;
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n; ++i) {
      const int period = static_cast<int>(rng.uniform_int(1, 5)) * 10;
      tasks.push_back(task(i, static_cast<int>(rng.uniform_int(1, 3)),
                           period, 0,
                           static_cast<int>(rng.uniform_int(0, 5))));
    }
    SlackTable table{TaskSet(tasks)};
    if (!table.schedulable()) continue;
    for (int q = 0; q < 50; ++q) {
      const auto t = sim::millis(rng.uniform_int(0, 500));
      EXPECT_GE(table.slack_at(t), sim::Time::zero());
    }
  }
}

TEST(SlackTableTest, MergedFastPathMatchesPerLevelMin) {
  // slack_at(t, 0) is served from the precomputed merged curve; it must
  // agree exactly with the definition min_i level_slack(i, t) at
  // arbitrary instants, including far beyond the table window.
  sim::Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<PeriodicTask> tasks;
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n; ++i) {
      const int period = static_cast<int>(rng.uniform_int(1, 5)) * 10;
      tasks.push_back(task(i, static_cast<int>(rng.uniform_int(1, 3)),
                           period, 0,
                           static_cast<int>(rng.uniform_int(0, 7))));
    }
    SlackTable table{TaskSet(tasks)};
    if (!table.schedulable()) continue;
    for (int q = 0; q < 200; ++q) {
      // Mix fine-grained early times with instants many hyperperiods out.
      const sim::Time t =
          q % 3 == 0 ? table.hyperperiod() * rng.uniform_int(2, 1000) +
                           sim::micros(rng.uniform_int(0, 100'000))
                     : sim::micros(rng.uniform_int(0, 300'000));
      sim::Time expected = sim::Time::max();
      for (std::size_t level = 0; level < table.levels(); ++level) {
        expected = std::min(expected, table.level_slack(level, t));
      }
      EXPECT_EQ(table.slack_at(t, 0), expected) << "t=" << t.ns() << "ns";
    }
  }
}

TEST(SlackTableTest, CumulativeIdleSteadyStateFarBeyondTable) {
  // At t = kH + eps for large k, cumulative idle must equal the folded
  // value plus whole-hyperperiod increments — no drift, no overflow of
  // the fold for k in the millions.
  SlackTable table(TaskSet({task(1, 2, 10), task(2, 3, 20, 20, 3)}));
  ASSERT_TRUE(table.schedulable());
  const sim::Time h = table.hyperperiod();
  for (std::size_t level = 0; level < table.levels(); ++level) {
    const sim::Time per_h =
        table.cumulative_idle(level, h * 2) - table.cumulative_idle(level, h);
    for (const std::int64_t k : {3LL, 7LL, 1000LL, 1'000'000LL}) {
      for (const sim::Time eps : {sim::Time::zero(), sim::micros(1),
                                  sim::millis(4), h - sim::micros(1)}) {
        EXPECT_EQ(table.cumulative_idle(level, h * k + eps),
                  table.cumulative_idle(level, h + eps) + per_h * (k - 1))
            << "level=" << level << " k=" << k << " eps=" << eps.ns();
      }
    }
  }
}

TEST(SlackTableTest, LevelSlackPeriodicInSteadyState) {
  // level_slack and slack_at fold queries at t and t + kH (t >= H) to
  // the same instant, for arbitrarily large k.
  SlackTable table(TaskSet({task(1, 1, 5), task(2, 2, 10, 10, 2)}));
  ASSERT_TRUE(table.schedulable());
  const sim::Time h = table.hyperperiod();
  for (const std::int64_t k : {1LL, 5LL, 12'345LL, 10'000'000LL}) {
    for (const sim::Time eps :
         {sim::Time::zero(), sim::micros(250), sim::millis(3),
          sim::millis(7) + sim::micros(999)}) {
      const sim::Time t = h + eps;
      for (std::size_t level = 0; level < table.levels(); ++level) {
        EXPECT_EQ(table.level_slack(level, t + h * k),
                  table.level_slack(level, t))
            << "level=" << level << " k=" << k << " eps=" << eps.ns();
      }
      EXPECT_EQ(table.slack_at(t + h * k), table.slack_at(t));
    }
  }
}

TEST(SlackTableTest, NegativeTimeThrows) {
  SlackTable table(TaskSet({task(1, 2, 10)}));
  EXPECT_THROW((void)table.level_slack(0, sim::millis(-1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace coeff::sched
