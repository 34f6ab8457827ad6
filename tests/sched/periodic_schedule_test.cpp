#include "sched/periodic_schedule.hpp"

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

TEST(PeriodicScheduleTest, SingleTaskRunsImmediately) {
  TaskSet set({task(1, 2, 10)});
  const auto result = simulate_periodic(set, sim::millis(20));
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].release, sim::Time::zero());
  EXPECT_EQ(result.jobs[0].finish, sim::millis(2));
  EXPECT_EQ(result.jobs[1].release, sim::millis(10));
  EXPECT_EQ(result.jobs[1].finish, sim::millis(12));
  EXPECT_FALSE(result.any_deadline_missed);
}

TEST(PeriodicScheduleTest, TimelineCoversHorizonContiguously) {
  TaskSet set({task(1, 2, 10), task(2, 3, 20)});
  const auto result = simulate_periodic(set, sim::millis(40));
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_EQ(result.timeline.front().start, sim::Time::zero());
  EXPECT_EQ(result.timeline.back().end, sim::millis(40));
  for (std::size_t i = 1; i < result.timeline.size(); ++i) {
    EXPECT_EQ(result.timeline[i].start, result.timeline[i - 1].end);
  }
}

TEST(PeriodicScheduleTest, PreemptionByHigherPriority) {
  // Low-priority (period 20) starts at 0; high-priority releases at 1
  // and preempts.
  TaskSet set({task(1, 2, 5, 5, 1), task(2, 4, 20)});
  const auto result = simulate_periodic(set, sim::millis(10));
  // Task 2 (level 1) runs [0,1), preempted [1,3), resumes [3,6).
  EXPECT_EQ(result.finish_of(1, 0), sim::millis(6));
  // Task 1 job 0 runs [1,3).
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(3));
}

TEST(PeriodicScheduleTest, ExecutionConservation) {
  // Total busy time per level equals jobs finished x wcet.
  TaskSet set({task(1, 1, 4), task(2, 2, 8), task(3, 3, 16)});
  const auto result = simulate_periodic(set, sim::millis(32));
  std::vector<sim::Time> busy(3, sim::Time::zero());
  for (const auto& seg : result.timeline) {
    if (seg.level >= 0 && seg.level < 3) {
      busy[static_cast<std::size_t>(seg.level)] += seg.end - seg.start;
    }
  }
  EXPECT_EQ(busy[0], sim::millis(8 * 1));   // 8 jobs of 1 ms
  EXPECT_EQ(busy[1], sim::millis(4 * 2));   // 4 jobs of 2 ms
  EXPECT_EQ(busy[2], sim::millis(2 * 3));   // 2 jobs of 3 ms
}

TEST(PeriodicScheduleTest, DeadlineMissDetected) {
  TaskSet set({task(1, 3, 4), task(2, 3, 8, 8)});
  const auto result = simulate_periodic(set, sim::millis(16));
  EXPECT_TRUE(result.any_deadline_missed);
}

TEST(PeriodicScheduleTest, OffsetsDelayFirstRelease) {
  TaskSet set({task(1, 1, 10, 10, 4)});
  const auto result = simulate_periodic(set, sim::millis(20));
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].release, sim::millis(4));
  EXPECT_EQ(result.jobs[0].finish, sim::millis(5));
  EXPECT_EQ(result.jobs[1].release, sim::millis(14));
}

TEST(PeriodicScheduleTest, LevelIdleAccounting) {
  TaskSet set({task(1, 2, 10)});
  const auto result = simulate_periodic(set, sim::millis(10));
  // Level 0 idle = 8 ms of the 10 ms horizon.
  EXPECT_EQ(result.level_idle(0, sim::Time::zero(), sim::millis(10)),
            sim::millis(8));
  // Restricted window.
  EXPECT_EQ(result.level_idle(0, sim::millis(1), sim::millis(3)),
            sim::millis(1));
}

TEST(PeriodicScheduleTest, InsertedBlockRunsAboveEverything) {
  TaskSet set({task(1, 2, 10)});
  const std::vector<InsertedBlock> blocks{{sim::Time::zero(), sim::millis(1)}};
  const auto result = simulate_periodic(set, sim::millis(10), blocks);
  // The periodic job is displaced by 1 ms.
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(3));
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_EQ(result.timeline.front().level, kInsertedLevel);
}

TEST(PeriodicScheduleTest, InsertedBlockInIdleTimeHarmless) {
  TaskSet set({task(1, 2, 10)});
  const std::vector<InsertedBlock> blocks{{sim::millis(5), sim::millis(2)}};
  const auto result = simulate_periodic(set, sim::millis(20), blocks);
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(2));   // untouched
  EXPECT_EQ(result.finish_of(0, 1), sim::millis(12));  // untouched
  EXPECT_FALSE(result.any_deadline_missed);
}

TEST(PeriodicScheduleTest, UnsortedInsertedBlocksRejected) {
  TaskSet set({task(1, 2, 10)});
  const std::vector<InsertedBlock> blocks{{sim::millis(5), sim::millis(1)},
                                          {sim::millis(2), sim::millis(1)}};
  EXPECT_THROW((void)simulate_periodic(set, sim::millis(10), blocks),
               std::invalid_argument);
}

TEST(PeriodicScheduleTest, EqualPriorityIsFifoWithinLevel) {
  // Same deadline -> one level each, ordered by id; but FIFO applies to
  // jobs of the same task across releases.
  TaskSet set({task(1, 6, 10, 10)});
  const auto result = simulate_periodic(set, sim::millis(30));
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(6));
  EXPECT_EQ(result.finish_of(0, 1), sim::millis(16));
  EXPECT_EQ(result.finish_of(0, 2), sim::millis(26));
}

TEST(PeriodicScheduleTest, UnfinishedJobsReportMax) {
  TaskSet set({task(1, 5, 10)});
  const auto result = simulate_periodic(set, sim::millis(12));
  // Second job released at 10 ms cannot finish by 12 ms.
  EXPECT_EQ(result.finish_of(0, 1), sim::Time::max());
}

TEST(PeriodicScheduleTest, BusyHorizonFullyPacked) {
  // Utilization exactly 1 with harmonic periods: no idle at the lowest
  // level.
  TaskSet set({task(1, 1, 2), task(2, 2, 4)});
  const auto result = simulate_periodic(set, sim::millis(40));
  EXPECT_EQ(result.level_idle(1, sim::Time::zero(), sim::millis(40)),
            sim::Time::zero());
  EXPECT_FALSE(result.any_deadline_missed);
}

TEST(PeriodicScheduleTest, MinIdleInWindowSingleTask) {
  // 2 ms of work every 10 ms.
  TaskSet set({task(1, 2, 10)});
  EXPECT_EQ(min_idle_in_window(set, sim::millis(10)), sim::millis(8));
  EXPECT_EQ(min_idle_in_window(set, sim::millis(5)), sim::millis(3));
  EXPECT_EQ(min_idle_in_window(set, sim::millis(1)), sim::Time::zero());
  // Longer than the hyperperiod: [0, 25) holds three 2 ms jobs.
  EXPECT_EQ(min_idle_in_window(set, sim::millis(25)), sim::millis(19));
  EXPECT_EQ(min_idle_in_window(set, sim::Time::zero()), sim::Time::zero());
}

TEST(PeriodicScheduleTest, MinIdleInWindowEdgeCases) {
  EXPECT_EQ(min_idle_in_window(TaskSet{}, sim::millis(7)), sim::millis(7));
  EXPECT_EQ(min_idle_in_window(TaskSet({task(1, 1, 2), task(2, 2, 4)}),
                               sim::millis(4)),
            sim::Time::zero());
  EXPECT_THROW(
      (void)min_idle_in_window(TaskSet({task(1, 3, 2)}), sim::millis(4)),
      std::invalid_argument);
}

// Oracle: every integer start in the steady-state hyperperiod [H, 2H),
// measured directly on a schedule that covers the last window. All
// parameters are whole milliseconds, so every breakpoint of the window
// idle is too.
sim::Time brute_min_idle(const TaskSet& set, sim::Time w) {
  const sim::Time h = set.hyperperiod();
  const auto schedule = simulate_periodic(set, h * 2 + w);
  sim::Time best = sim::Time::max();
  for (sim::Time a = h; a < h * 2; a += sim::millis(1)) {
    best = std::min(best, schedule.level_idle(set.size() - 1, a, a + w));
  }
  return best;
}

// Windows shorter than, longer than and a whole multiple of H, and sets
// where a task with period H starts at offset H (releasing nothing in
// the transient hyperperiod).
TEST(PeriodicScheduleTest, MinIdleInWindowMatchesBruteForce) {
  sim::Rng rng(7);
  int checked = 0;
  int longer = 0;
  int multiple = 0;
  int offset_h = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<PeriodicTask> tasks;
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n; ++i) {
      const int period = static_cast<int>(rng.uniform_int(1, 5)) * 10;
      tasks.push_back(task(i, static_cast<int>(rng.uniform_int(1, 3)),
                           period, 0,
                           static_cast<int>(rng.uniform_int(0, 5))));
    }
    const TaskSet set(tasks);
    if (set.utilization() >= 1.0) continue;
    const sim::Time h = set.hyperperiod();
    const auto schedule = simulate_periodic(set, h * 3);
    if (schedule.any_deadline_missed) continue;
    for (const std::int64_t w_ms : {1, 5, 10, 25}) {
      const sim::Time w = sim::millis(w_ms);
      if (w > h) continue;
      EXPECT_EQ(min_idle_in_window(set, w), brute_min_idle(set, w))
          << "trial=" << trial << " window=" << w_ms << "ms";
      ++checked;
    }
    for (const sim::Time w : {h + sim::millis(7), h * 2 + sim::millis(3)}) {
      EXPECT_EQ(min_idle_in_window(set, w), brute_min_idle(set, w))
          << "trial=" << trial << " window=" << w.ns() << "ns";
      ++longer;
    }
    for (const std::int64_t k : {1, 2, 3}) {
      EXPECT_EQ(min_idle_in_window(set, h * k), brute_min_idle(set, h * k))
          << "trial=" << trial << " window=" << k << "H";
      ++multiple;
    }
    std::vector<PeriodicTask> late = tasks;
    bool moved = false;
    for (PeriodicTask& t : late) {
      if (t.period != h) continue;
      t.offset = h;
      moved = true;
    }
    if (!moved) continue;
    const TaskSet late_set(late);
    for (const sim::Time w :
         {sim::millis(5), sim::millis(25), h, h + sim::millis(3)}) {
      EXPECT_EQ(min_idle_in_window(late_set, w), brute_min_idle(late_set, w))
          << "trial=" << trial << " offset=H window=" << w.ns() << "ns";
      ++offset_h;
    }
  }
  EXPECT_GT(checked, 40);
  EXPECT_GT(longer, 20);
  EXPECT_GT(multiple, 30);
  EXPECT_GT(offset_h, 10);
}

}  // namespace
}  // namespace coeff::sched
