#include "sched/periodic_schedule.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

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
  // [0, H) carries the offset-induced transient; [H, 3H) repeats, and
  // every window start folds into [H, 2H).
  const sim::Time h = set.hyperperiod();
  const sim::Time hi = h * 2;
  const sim::Time end = h * 3;
  const std::vector<TimelineSegment> timeline =
      simulate_periodic(set, end).timeline;

  // cum[k]: idle in [0, timeline[k].start); cum.back(): idle in [0, 3H).
  std::vector<sim::Time> cum(timeline.size() + 1, sim::Time::zero());
  for (std::size_t k = 0; k < timeline.size(); ++k) {
    cum[k + 1] = cum[k];
    if (timeline[k].level == kIdleLevel) {
      cum[k + 1] += timeline[k].end - timeline[k].start;
    }
  }
  // Cumulative idle at t in [0, 3H].
  const auto cum_folded = [&](sim::Time t) {
    if (t <= sim::Time::zero()) return sim::Time::zero();
    if (t >= end) return cum.back();
    const auto it = std::upper_bound(
        timeline.begin(), timeline.end(), t,
        [](sim::Time v, const TimelineSegment& seg) { return v < seg.start; });
    const std::size_t k =
        static_cast<std::size_t>(std::distance(timeline.begin(), it)) - 1;
    sim::Time c = cum[k];
    if (timeline[k].level == kIdleLevel) c += t - timeline[k].start;
    return c;
  };
  const sim::Time idle_per_h = cum_folded(hi) - cum_folded(h);
  // Beyond 2H: the folded point plus one steady-state hyperperiod's
  // idle per whole wrap.
  const auto cumulative = [&](sim::Time t) {
    if (t <= hi) return cum_folded(t);
    const sim::Time folded = h + ((t - h) % h);
    return cum_folded(folded) + idle_per_h * ((t - folded) / h);
  };

  // g(a) = idle in [a, a+window) is piecewise linear in a with slopes
  // in {-1, 0, 1}; its minima sit where either end of the window meets
  // a segment boundary. g is H-periodic over the steady state, so
  // folding the trailing-edge candidates into [H, 2H) loses nothing.
  sim::Time best = sim::Time::max();
  const auto consider = [&](sim::Time a) {
    if (a < h) a += h * ((h - a) / h + 1);
    a = h + ((a - h) % h);
    best = std::min(best, cumulative(a + window) - cumulative(a));
  };
  for (const TimelineSegment& seg : timeline) {
    for (const sim::Time b : {seg.start, seg.end}) {
      if (b < h || b >= end) continue;
      consider(b);
      consider(b - window);
    }
  }
  consider(h);
  return best;
}

}  // namespace coeff::sched
