#include "sched/periodic_schedule.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

namespace coeff::sched {

sim::Time ScheduleResult::level_idle(std::size_t level, sim::Time from,
                                     sim::Time to) const {
  sim::Time idle = sim::Time::zero();
  for (const auto& seg : timeline) {
    if (seg.end <= from) continue;
    if (seg.start >= to) break;
    // Level-i idle: the running level is strictly lower priority (larger
    // index) than i, i.e. neither a task of level <= i nor an inserted
    // block occupies the processor.
    if (seg.level != kInsertedLevel &&
        seg.level > static_cast<int>(level)) {
      const sim::Time lo = std::max(seg.start, from);
      const sim::Time hi = std::min(seg.end, to);
      idle += hi - lo;
    }
  }
  return idle;
}

sim::Time ScheduleResult::finish_of(std::size_t level,
                                    std::int64_t index) const {
  for (const auto& job : jobs) {
    if (job.level == level && job.index == index) return job.finish;
  }
  return sim::Time::max();
}

ScheduleResult simulate_periodic(const TaskSet& set, sim::Time horizon,
                                 const std::vector<InsertedBlock>& inserted) {
  set.validate();
  for (std::size_t i = 1; i < inserted.size(); ++i) {
    if (inserted[i].at < inserted[i - 1].at) {
      throw std::invalid_argument("simulate_periodic: inserted blocks must be "
                                  "sorted by insertion time");
    }
  }

  const auto& tasks = set.tasks();
  const std::size_t n = tasks.size();

  struct PendingJob {
    std::size_t job_slot;  ///< index into result.jobs
    sim::Time remaining;
  };

  ScheduleResult result;
  std::vector<std::deque<PendingJob>> pending(n);  // per level, FIFO
  std::deque<PendingJob> inserted_pending;
  std::vector<std::int64_t> next_release_index(n, 0);
  std::size_t next_inserted = 0;

  auto task_next_release = [&](std::size_t level) {
    return tasks[level].offset + tasks[level].period * next_release_index[level];
  };

  auto release_due = [&](sim::Time now) {
    // Release every task job and inserted block with release time <= now.
    for (std::size_t level = 0; level < n; ++level) {
      while (task_next_release(level) <= now &&
             task_next_release(level) < horizon) {
        const sim::Time release = task_next_release(level);
        JobRecord job;
        job.task_id = tasks[level].id;
        job.level = level;
        job.index = next_release_index[level];
        job.release = release;
        job.abs_deadline = release + tasks[level].deadline;
        job.finish = sim::Time::max();
        result.jobs.push_back(job);
        pending[level].push_back({result.jobs.size() - 1, tasks[level].wcet});
        ++next_release_index[level];
      }
    }
    while (next_inserted < inserted.size() &&
           inserted[next_inserted].at <= now) {
      // Inserted blocks are bookkept as jobs of a pseudo task (id -1).
      JobRecord job;
      job.task_id = -1;
      job.level = static_cast<std::size_t>(-1);
      job.index = static_cast<std::int64_t>(next_inserted);
      job.release = inserted[next_inserted].at;
      job.abs_deadline = sim::Time::max();
      job.finish = sim::Time::max();
      result.jobs.push_back(job);
      inserted_pending.push_back(
          {result.jobs.size() - 1, inserted[next_inserted].length});
      ++next_inserted;
    }
  };

  auto next_release_time = [&]() {
    sim::Time next = sim::Time::max();
    for (std::size_t level = 0; level < n; ++level) {
      const sim::Time r = task_next_release(level);
      if (r < horizon) next = std::min(next, r);
    }
    if (next_inserted < inserted.size()) {
      next = std::min(next, inserted[next_inserted].at);
    }
    return next;
  };

  auto highest_pending = [&]() -> int {
    if (!inserted_pending.empty()) return kInsertedLevel;
    for (std::size_t level = 0; level < n; ++level) {
      if (!pending[level].empty()) return static_cast<int>(level);
    }
    return kIdleLevel;
  };

  auto emit_segment = [&](sim::Time start, sim::Time end, int level) {
    if (end <= start) return;
    if (!result.timeline.empty() && result.timeline.back().level == level &&
        result.timeline.back().end == start) {
      result.timeline.back().end = end;  // coalesce
    } else {
      result.timeline.push_back({start, end, level});
    }
  };

  sim::Time now = sim::Time::zero();
  release_due(now);
  while (now < horizon) {
    const int level = highest_pending();
    const sim::Time next_rel = next_release_time();
    if (level == kIdleLevel) {
      const sim::Time until = std::min(next_rel, horizon);
      emit_segment(now, until, kIdleLevel);
      now = until;
      release_due(now);
      continue;
    }
    PendingJob& job = (level == kInsertedLevel)
                          ? inserted_pending.front()
                          : pending[static_cast<std::size_t>(level)].front();
    const sim::Time completion = now + job.remaining;
    const sim::Time until = std::min({completion, next_rel, horizon});
    emit_segment(now, until, level);
    job.remaining -= until - now;
    now = until;
    if (job.remaining == sim::Time::zero()) {
      result.jobs[job.job_slot].finish = now;
      if (level == kInsertedLevel) {
        inserted_pending.pop_front();
      } else {
        pending[static_cast<std::size_t>(level)].pop_front();
      }
    }
    release_due(now);
  }

  for (const auto& job : result.jobs) {
    if (job.task_id >= 0 && job.missed()) {
      result.any_deadline_missed = true;
      break;
    }
  }
  return result;
}

sim::Time min_idle_in_window(const TaskSet& set, sim::Time window) {
  if (window <= sim::Time::zero()) return sim::Time::zero();
  if (set.empty()) return window;  // no tasks: all time is idle
  set.validate();
  // [0, H) carries the offset-induced transient. From H on the idle
  // pattern repeats every H (offsets are at most one period, so the
  // releases repeat, and the backlog at 2H equals the backlog at H), so
  // every window start folds into [H, 2H) and each whole hyperperiod of
  // the window adds one steady-state hyperperiod's idle.
  const sim::Time h = set.hyperperiod();
  const std::int64_t wraps = window / h;
  const sim::Time rest = window % h;
  const sim::Time hi = h * 2;
  const sim::Time end = hi + rest;

  // Idle segments of [H, 2H + rest) as alternating start/end bounds.
  // Any work-conserving order idles exactly when no released work is
  // left, so a sweep of the total backlog over the releases of [0, 2H +
  // rest) in time order yields the idle segments of the fixed-priority
  // timeline without scheduling a single job. Consecutive idle segments
  // are split by at least one release, so bounds strictly increase.
  std::vector<sim::Time> bounds;
  sim::Time idle_per_h = sim::Time::zero();
  const auto idle = [&](sim::Time from, sim::Time to) {
    from = std::max(from, h);
    if (from >= to) return;
    bounds.push_back(from);
    bounds.push_back(to);
    if (from < hi) idle_per_h += std::min(to, hi) - from;
  };
  const auto& tasks = set.tasks();
  using Release = std::pair<sim::Time, std::size_t>;  // (at, task index)
  std::priority_queue<Release, std::vector<Release>, std::greater<>> releases;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].offset < end) releases.emplace(tasks[i].offset, i);
  }
  sim::Time now = sim::Time::zero();
  sim::Time backlog = sim::Time::zero();
  while (!releases.empty()) {
    const auto [at, i] = releases.top();
    releases.pop();
    if (now + backlog < at) {
      idle(now + backlog, at);
      backlog = sim::Time::zero();
    } else {
      backlog -= at - now;
    }
    now = at;
    backlog += tasks[i].wcet;
    if (at + tasks[i].period < end) {
      releases.emplace(at + tasks[i].period, i);
    }
  }
  idle(now + backlog, end);
  if (rest == sim::Time::zero()) return idle_per_h * wraps;

  // g(a) = idle in [a, a + rest) is piecewise linear in a with slope
  // +1 while the leading edge a + rest is idle and -1 while the
  // trailing edge a is; its minimum over [H, 2H] sits where either edge
  // meets a bound. Sweep both edges across the bounds once. `trail` and
  // `lead` count the bounds at or before each edge, so an odd count
  // means that edge is inside an idle segment.
  sim::Time g = sim::Time::zero();
  for (std::size_t k = 0; k < bounds.size(); k += 2) {
    g += std::max(sim::Time::zero(),
                  std::min(bounds[k + 1], h + rest) - bounds[k]);
  }
  const auto passed = [&](sim::Time edge) {
    return static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), edge) -
        bounds.begin());
  };
  std::size_t trail = passed(h);
  std::size_t lead = passed(h + rest);
  sim::Time best = g;
  for (sim::Time a = h; a < hi;) {
    const sim::Time next_trail =
        trail < bounds.size() ? bounds[trail] : sim::Time::max();
    const sim::Time next_lead =
        lead < bounds.size() ? bounds[lead] - rest : sim::Time::max();
    const sim::Time next = std::min({next_trail, next_lead, hi});
    const std::int64_t slope = static_cast<std::int64_t>(lead % 2) -
                               static_cast<std::int64_t>(trail % 2);
    g += (next - a) * slope;
    a = next;
    best = std::min(best, g);
    if (next_trail == a) ++trail;
    if (next_lead == a) ++lead;
  }
  return idle_per_h * wraps + best;
}

}  // namespace coeff::sched
