// Measurement plumbing for the benchmark program: the host-speed
// calibration kernel, peak-RSS bookkeeping, span tracing, sample series,
// pass/fail accounting, and forked child processes that report back
// through a pipe.
//
// Children exist because the analytic layer memoizes slack tables in a
// process-global cache that never evicts. A user's `coeffctl campaign
// run` or `report --analyze` starts from an empty cache, so every timed
// analysis and every measured set-up runs in a process forked from one
// whose cache is still empty.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile (q in (0, 100]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// A fixed unit of work shaped like the simulator's inner loop and built
/// from no project code: a heap of timed events, a hash map of live
/// instances that std::function handlers release and settle, and a
/// vector of latency samples. On a shared host, other tenants' cache
/// and memory traffic can slow every timing here by up to 2x for
/// minutes at a time, and CPU time slows with it; the benchmark scales its
/// timings by this kernel's median in the same run so that a reading
/// follows the program, not the neighbours. It runs on the calling
/// thread: a kernel in a child on another CPU tracks the workload worse.
inline double calibration_ms() {
  struct Event {
    std::int64_t at;
    std::uint64_t id;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  const std::int64_t t0 = now_ns();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint64_t, std::int64_t> live;
  std::vector<double> latencies;
  latencies.reserve(std::size_t{1} << 17);
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::int64_t>(x >> 1);
  };
  std::uint64_t next_id = 0;
  const std::function<void(const Event&)> release = [&](const Event& e) {
    live.emplace(e.id, e.at);
    events.push({e.at + next() % 5000, e.id});
    events.push({e.at + next() % 20000, next_id++});
  };
  const std::function<void(const Event&)> settle = [&](const Event& e) {
    const auto it = live.find(e.id);
    latencies.push_back(static_cast<double>(e.at - it->second));
    live.erase(it);
  };
  for (int i = 0; i < 4096; ++i) events.push({next() % 100000, next_id++});
  for (int step = 0; step < 150000; ++step) {
    const Event e = events.top();
    events.pop();
    (live.count(e.id) != 0 ? settle : release)(e);
  }
  std::nth_element(latencies.begin(), latencies.begin() + static_cast<std::ptrdiff_t>(latencies.size() / 2),
                   latencies.end());
  static volatile double sink = 0.0;
  sink = sink + latencies[latencies.size() / 2] + static_cast<double>(live.size());
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Peak resident set of this process so far (VmHWM), in MB.
inline double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Reset VmHWM to the current resident set, so a transient the benchmark
/// itself caused (the calibration table) leaves no mark on later peaks.
inline void reset_vm_hwm() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// list (-1 at top level); `id` is the run, cell or iteration the span
/// belongs to, shared by every span of that unit of work.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t id = 0;
};

/// Everything one process measured. A forked child serializes its
/// Results into a pipe and the parent merges them, so spans, samples
/// and failures from every process end up in one place.
class Results {
 public:
  bool tracing = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<double>> samples;
  std::vector<Span> spans;

  void add(const std::string& key, double value) { samples[key].push_back(value); }

  /// Count one operation; a false `ok` makes it a failure.
  void attempt(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  /// Record a failure of an operation already counted as attempted.
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }

  /// Open a span (no-op with tracing off). Spans nest by call order:
  /// the innermost open span is the parent.
  int begin(const std::string& name, std::int64_t id) {
    if (!tracing) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans.push_back({name, now_ns(), 0, parent, id});
    open_.push_back(static_cast<int>(spans.size()) - 1);
    return open_.back();
  }
  void end(int index) {
    if (index < 0) return;
    spans[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Span duration minus the time its direct children cover, per name,
  /// summed over all spans of that name (ms).
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns > 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end_ns == 0) continue;
      out[spans[i].name] += static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// Line protocol: `A attempted failed`, `E error`, `S key value`,
  /// `P name start end parent id`. Names and keys carry no spaces.
  void serialize(std::FILE* out) const {
    std::fprintf(out, "A %lld %lld\n", static_cast<long long>(attempted), static_cast<long long>(failed));
    for (const std::string& e : errors) std::fprintf(out, "E %s\n", e.c_str());
    for (const auto& [key, values] : samples) {
      for (const double v : values) std::fprintf(out, "S %s %.17g\n", key.c_str(), v);
    }
    for (const Span& s : spans) {
      std::fprintf(out, "P %s %lld %lld %d %lld\n", s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, static_cast<long long>(s.id));
    }
  }

  void merge(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    const int base = static_cast<int>(spans.size());
    const int parent = open_.empty() ? -1 : open_.back();
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (tag == "A") {
        std::int64_t a = 0;
        std::int64_t f = 0;
        ls >> a >> f;
        attempted += a;
        failed += f;
      } else if (tag == "E") {
        if (errors.size() < 20) errors.push_back(line.substr(2));
      } else if (tag == "S") {
        std::string key;
        double v = 0.0;
        ls >> key >> v;
        samples[key].push_back(v);
      } else if (tag == "P") {
        Span s;
        ls >> s.name >> s.start_ns >> s.end_ns >> s.parent >> s.id;
        s.parent = s.parent < 0 ? parent : s.parent + base;
        spans.push_back(std::move(s));
      }
    }
  }

 private:
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Results& r, const std::string& name, std::int64_t id) : r_(r), index_(r.begin(name, id)) {}
  ~Scope() { r_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Results& r_;
  int index_;
};

/// Run `body` in a forked child with a fresh Results (tracing as in
/// `parent`), then merge what it measured into `parent`. A child that
/// throws, crashes or exits non-zero counts as one failed operation.
inline void in_child(Results& parent, const std::string& what, const std::function<void(Results&)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    Results mine;
    mine.tracing = parent.tracing;
    int code = 0;
    try {
      body(mine);
    } catch (const std::exception& e) {
      mine.attempt(false, what + ": " + e.what());
      code = 1;
    }
    std::FILE* out = ::fdopen(fds[1], "w");
    if (out == nullptr) ::_exit(3);
    mine.serialize(out);
    std::fclose(out);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  parent.merge(text);
  if (!WIFEXITED(status) || (WEXITSTATUS(status) != 0 && WEXITSTATUS(status) != 1)) {
    parent.attempt(false, what + ": child process died");
  }
}

/// Guards the two ways the process-global slack-table cache could leak
/// hits into a measurement: a campaign forked from a process that has
/// already filled it, and a cell analysed twice in one process. Every
/// analytic call and every campaign launch in the benchmark goes through
/// these checks; a violation throws and so counts as a failure.
class CacheLedger {
 public:
  void require_cold(const char* what) const {
    if (warm_) throw std::logic_error(std::string(what) + " launched from a process with a warm slack-table cache");
  }
  /// Record an analysis about to run in this process (it warms the cache).
  void note_analysed(std::uint64_t campaign_seed, std::int64_t cell) {
    warm_ = true;
    if (!analysed_.emplace(campaign_seed, cell).second) {
      throw std::logic_error("cell " + std::to_string(cell) + " analysed twice in one process");
    }
  }

 private:
  bool warm_ = false;
  std::set<std::pair<std::uint64_t, std::int64_t>> analysed_;
};

}  // namespace perfbench
