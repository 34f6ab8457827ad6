// Runtime slack stealing (§III-B, §III-C).
//
// Wraps the static SlackTable with the runtime state the paper's
// dispatcher keeps: how much stolen (top-priority aperiodic) work is
// still displacing the periodic schedule, and how much previously
// admitted hard-aperiodic work is still queued (the theta accumulator).
//
// Invariant maintained: a steal of x at time t at level k is granted
// only if, for every level i >= k,
//     debt_i + x <= S_i(t)
// where S_i(t) comes from the static table and debt_i is the displaced
// work not yet re-absorbed by level-i idle time. Debt absorption follows
// the schedule's own idle curve: as wall-clock passes a level-i idle
// span of length delta, debt_i decreases by delta (the displaced work
// executes there). This keeps every periodic deadline safe (exactly the
// idle-absorption argument of static slack stealing).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/slack_table.hpp"
#include "sched/task.hpp"
#include "sim/time.hpp"

namespace coeff::sched {

class SlackStealer {
 public:
  explicit SlackStealer(const TaskSet& set);

  /// Largest steal grantable at `t` at priority `level` (0 = above all
  /// periodics). Advances internal time to `t`.
  [[nodiscard]] sim::Time available(sim::Time t, std::size_t level = 0);

  /// Attempt to steal `x` processing at time `t`, priority `level`.
  /// Returns false (and changes nothing) if any deadline would be put at
  /// risk. Time must be non-decreasing across calls.
  bool try_steal(sim::Time t, sim::Time x, std::size_t level = 0);

  // --- Hard-aperiodic admission (retransmitted segments, §III-C) -------

  /// Admission test for a hard aperiodic job arriving at `t` needing `p`
  /// processing by absolute deadline `d`. Accounts for the already
  /// admitted, not yet completed hard backlog (served FIFO at the top
  /// priority). On success the job is admitted: backlog grows by `p`
  /// and the slack debt is charged immediately.
  bool admit_hard(sim::Time t, sim::Time p, sim::Time d);

  /// Record that `x` of the admitted hard backlog has executed.
  void on_hard_executed(sim::Time x);

  [[nodiscard]] sim::Time hard_backlog() const { return hard_backlog_; }
  [[nodiscard]] const SlackTable& table() const { return table_; }
  [[nodiscard]] sim::Time debt(std::size_t level) const {
    return debt_.at(level);
  }
  [[nodiscard]] sim::Time now() const { return now_; }

 private:
  void advance_to(sim::Time t);

  SlackTable table_;
  std::vector<sim::Time> debt_;
  // Count of levels with nonzero debt. While zero (the common steady
  // state), `available` is a single O(log) table query instead of a
  // per-level scan.
  std::size_t levels_in_debt_ = 0;
  sim::Time now_ = sim::Time::zero();
  sim::Time hard_backlog_ = sim::Time::zero();
};

}  // namespace coeff::sched
