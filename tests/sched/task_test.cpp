#include "sched/task.hpp"

#include <gtest/gtest.h>

namespace coeff::sched {
namespace {

PeriodicTask task(int id, int wcet_us, int period_ms, int deadline_ms = 0,
                  int offset_us = 0) {
  PeriodicTask t;
  t.id = id;
  t.wcet = sim::micros(wcet_us);
  t.period = sim::millis(period_ms);
  t.deadline = deadline_ms > 0 ? sim::millis(deadline_ms)
                               : sim::millis(period_ms);
  t.offset = sim::micros(offset_us);
  return t;
}

TEST(TaskSetTest, DeadlineMonotonicOrdering) {
  TaskSet set({task(1, 10, 50), task(2, 10, 5), task(3, 10, 20)});
  EXPECT_EQ(set.at_level(0).id, 2);
  EXPECT_EQ(set.at_level(1).id, 3);
  EXPECT_EQ(set.at_level(2).id, 1);
}

TEST(TaskSetTest, TieBreakById) {
  TaskSet set({task(9, 10, 5), task(3, 10, 5)});
  EXPECT_EQ(set.at_level(0).id, 3);
  EXPECT_EQ(set.at_level(1).id, 9);
}

TEST(TaskSetTest, AddKeepsOrder) {
  TaskSet set({task(1, 10, 50)});
  set.add(task(2, 10, 5));
  EXPECT_EQ(set.at_level(0).id, 2);
}

TEST(TaskSetTest, Utilization) {
  // 1ms/10ms + 2ms/20ms = 0.2
  TaskSet set({task(1, 1000, 10), task(2, 2000, 20)});
  EXPECT_NEAR(set.utilization(), 0.2, 1e-12);
}

TEST(TaskSetTest, Hyperperiod) {
  TaskSet set({task(1, 10, 8), task(2, 10, 12)});
  EXPECT_EQ(set.hyperperiod(), sim::millis(24));
}

// 17 prime periods in microseconds. The first nine keep the running
// lcm at 2.2e11 ns, well under the one-hour cap; the 41,356,607 us
// prime (sorted tenth by its deadline) then multiplies it past
// INT64_MAX in a single step. The fold must saturate into the
// domain_error; an unchecked one wraps and ends on a negative
// hyperperiod without ever tripping the cap.
TEST(TaskSetTest, SeventeenPrimePeriodsExceedTheHourWithoutOverflow) {
  constexpr std::int64_t kPrimesUs[] = {2,  3,  5,  7,  11, 13,
                                        17, 19, 23, 41'356'607,
                                        29, 31, 37, 41, 43, 47, 53};
  std::vector<PeriodicTask> tasks;
  for (const std::int64_t p : kPrimesUs) {
    PeriodicTask t;
    t.id = static_cast<int>(tasks.size()) + 1;
    t.wcet = sim::micros(1);
    t.period = sim::micros(p);
    t.deadline = sim::micros(p < 100 ? p : 24);
    tasks.push_back(t);
  }
  const TaskSet set(std::move(tasks));
  ASSERT_EQ(set.at_level(9).period, sim::micros(41'356'607));
  EXPECT_THROW((void)set.hyperperiod(), std::domain_error);
}

TEST(TaskSetTest, ValidationCatchesBadTasks) {
  {
    TaskSet set({task(1, 10, 5), task(1, 10, 8)});
    EXPECT_THROW(set.validate(), std::invalid_argument);  // duplicate id
  }
  {
    auto t = task(1, 10, 5);
    t.wcet = sim::Time::zero();
    EXPECT_THROW(TaskSet({t}).validate(), std::invalid_argument);
  }
  {
    auto t = task(1, 10, 5);
    t.wcet = sim::millis(6);  // wcet > period
    EXPECT_THROW(TaskSet({t}).validate(), std::invalid_argument);
  }
  {
    auto t = task(1, 10, 5, 6);  // deadline > period
    EXPECT_THROW(TaskSet({t}).validate(), std::invalid_argument);
  }
  {
    auto t = task(1, 10, 5);
    t.offset = sim::millis(6);  // offset > period
    EXPECT_THROW(TaskSet({t}).validate(), std::invalid_argument);
  }
}

TEST(TaskSetTest, ValidSetPasses) {
  TaskSet set({task(1, 100, 5, 3, 500), task(2, 200, 10)});
  EXPECT_NO_THROW(set.validate());
}

}  // namespace
}  // namespace coeff::sched
