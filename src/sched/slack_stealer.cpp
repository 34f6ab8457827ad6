#include "sched/slack_stealer.hpp"

#include <algorithm>
#include <stdexcept>

namespace coeff::sched {

SlackStealer::SlackStealer(const TaskSet& set)
    : table_(set), debt_(set.size(), sim::Time::zero()) {
  if (!table_.schedulable()) {
    throw std::invalid_argument(
        "SlackStealer: the periodic set alone misses deadlines; there is no "
        "slack to steal");
  }
}

void SlackStealer::advance_to(sim::Time t) {
  if (t < now_) {
    throw std::invalid_argument("SlackStealer: time moved backwards");
  }
  if (t == now_ || levels_in_debt_ == 0) {
    now_ = t;
    return;
  }
  for (std::size_t level = 0; level < debt_.size(); ++level) {
    if (debt_[level] == sim::Time::zero()) continue;
    const sim::Time absorbed = table_.idle_between(level, now_, t);
    debt_[level] = std::max(debt_[level] - absorbed, sim::Time::zero());
    if (debt_[level] == sim::Time::zero()) --levels_in_debt_;
  }
  now_ = t;
}

sim::Time SlackStealer::available(sim::Time t, std::size_t level) {
  advance_to(t);
  if (levels_in_debt_ == 0) {
    // No outstanding displaced work: the answer is the static table's
    // min-folded suffix query (O(log) when level == 0).
    return table_.slack_at(t, level);
  }
  sim::Time avail = sim::Time::max();
  for (std::size_t i = level; i < debt_.size(); ++i) {
    const sim::Time s = table_.level_slack(i, t);
    if (s == sim::Time::max()) continue;
    avail = std::min(avail, std::max(s - debt_[i], sim::Time::zero()));
  }
  return avail;
}

bool SlackStealer::try_steal(sim::Time t, sim::Time x, std::size_t level) {
  if (x < sim::Time::zero()) {
    throw std::invalid_argument("SlackStealer: negative steal");
  }
  if (available(t, level) < x) return false;
  if (x == sim::Time::zero()) return true;
  for (std::size_t i = level; i < debt_.size(); ++i) {
    if (debt_[i] == sim::Time::zero()) ++levels_in_debt_;
    debt_[i] += x;
  }
  return true;
}

bool SlackStealer::admit_hard(sim::Time t, sim::Time p, sim::Time d) {
  if (p <= sim::Time::zero()) {
    throw std::invalid_argument("SlackStealer: non-positive hard work");
  }
  advance_to(t);
  // The job is served FIFO behind the existing hard backlog at the top
  // priority, so it completes at t + backlog + p.
  if (t + hard_backlog_ + p > d) return false;
  if (!try_steal(t, p, 0)) return false;
  hard_backlog_ += p;
  return true;
}

void SlackStealer::on_hard_executed(sim::Time x) {
  if (x < sim::Time::zero() || x > hard_backlog_) {
    throw std::invalid_argument(
        "SlackStealer: executed more hard work than was admitted");
  }
  hard_backlog_ -= x;
}

}  // namespace coeff::sched
