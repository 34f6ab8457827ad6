// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each binary regenerates one table/figure of the paper's evaluation
// (§IV) and prints the series as aligned text rows; EXPERIMENTS.md maps
// binaries to figures and records paper-vs-measured values.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "net/workloads.hpp"
#include "sim/parse_number.hpp"

namespace coeff::bench {

/// BBW + ACC merged, as released by the paper's application scenarios.
inline net::MessageSet app_statics() {
  return net::brake_by_wire().merged_with(net::adaptive_cruise());
}

/// Synthetic static suite of `count` messages (§IV-A parameters).
inline net::MessageSet synthetic_statics(std::size_t count,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  net::SyntheticStaticOptions opt;
  opt.count = count;
  return net::synthetic_static(opt, rng);
}

/// SAE-style aperiodic set (30 messages, 50 ms) for a cluster with the
/// given number of static slots. `heavy` enlarges the messages so the
/// dynamic segment is contended, which the running-time experiments
/// need (the paper's SAE class-C set includes multi-frame payloads).
inline net::MessageSet sae_dynamics(int static_slots, std::uint64_t seed,
                                    bool heavy = false) {
  sim::Rng rng(seed);
  net::SaeAperiodicOptions opt;
  opt.static_slots = static_slots;
  if (heavy) {
    opt.min_bits = 256;
    opt.max_bits = 2000;  // within one frame (254 bytes)
  }
  return net::sae_aperiodic(opt, rng);
}

/// The loaded synthetic configuration the dynamic-segment figures use:
/// 100 static messages (more than FSPEC's 80 exclusive slots can hold)
/// and bursty aperiodic arrivals (interrupt-driven SAE traffic arrives
/// in clumps), which is what exposes FTDMA priority starvation.
inline void apply_loaded_defaults(core::ExperimentConfig& config) {
  config.statics = synthetic_statics(100, 42);
  config.dynamics = sae_dynamics(80, 7, /*heavy=*/true);
  config.arrivals.process = net::ArrivalProcess::kBursty;
  config.arrivals.burst = 3;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::millis(2000);
  config.seed = 42;
}

/// The paper pairs each BER with a reliability goal ("BER = 1e-7 and
/// 1e-9 ... correspond to different reliability goals"): 1e-7 with the
/// SIL3 budget, 1e-9 with the stricter SIL4 budget.
inline fault::Sil sil_for_ber(double ber) {
  return ber < 1e-8 ? fault::Sil::kSil4 : fault::Sil::kSil3;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Monotonic stopwatch shared by the figure reporter and the cycle
/// microbenchmark; wraps steady_clock so no binary rolls its own.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Median of a sample set (destructive on a copy). The microbenchmark
/// and the perf gate both report medians: a background-load spike can
/// only shift one repetition, not the reported number.
inline double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 != 0
             ? samples[mid]
             : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Command-line options shared by every figure binary. Figure rows on
/// stdout are byte-identical for any `--jobs` value; timing lives on
/// stderr and in the JSON report.
struct BenchOptions {
  int jobs = 0;  // 0 = COEFF_JOBS env var, else hardware concurrency
  std::string sweep_json = "BENCH_sweep.json";
};

/// The value of numeric flag `flag` for program `argv0`; exits 2 when
/// sim::parse_number rejects it (junk, a trailing character, out of
/// range).
template <typename T>
T number_arg(const char* argv0, const char* flag, const char* text) {
  const auto value = sim::parse_number<T>(text);
  if (!value.has_value()) {
    std::fprintf(stderr, "%s: bad %s value '%s'\n", argv0, flag, text);
    std::exit(2);
  }
  return *value;
}

inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs" || arg == "-j") {
      opt.jobs = number_arg<int>(argv[0], "--jobs", next("--jobs"));
    } else if (arg == "--sweep-json") {
      opt.sweep_json = next("--sweep-json");
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--jobs N] [--sweep-json PATH]\n"
          "  --jobs N          parallel sweep workers (default: COEFF_JOBS\n"
          "                    env var, else hardware concurrency)\n"
          "  --sweep-json PATH per-cell wall-time report; empty string\n"
          "                    disables it (default: BENCH_sweep.json)\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Run the cell grid through SweepRunner, emit the timing JSON, and
/// print a one-line summary to stderr.
inline core::SweepReport run_sweep(const std::string& suite,
                                   const std::vector<core::SweepCell>& cells,
                                   const BenchOptions& opt) {
  int jobs = 0;
  try {
    jobs = core::SweepRunner::resolve_jobs(opt.jobs);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", suite.c_str(), e.what());
    std::exit(2);  // a usage error, like a bad --jobs value
  }
  const core::SweepRunner runner(jobs);
  core::SweepReport report = runner.run(cells);
  if (!opt.sweep_json.empty()) {
    // A bad report path must not discard a finished sweep: warn and
    // still print the figure.
    try {
      core::write_sweep_json(report, suite, opt.sweep_json);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[sweep] warning: %s\n", e.what());
    }
  }
  const std::string sink =
      opt.sweep_json.empty() ? std::string() : " -> " + opt.sweep_json;
  std::fprintf(stderr,
               "[sweep] %s: %zu cells, jobs=%d, wall=%.3fs, serial=%.3fs "
               "(%.2fx)%s\n",
               suite.c_str(), report.cells.size(), report.jobs,
               report.total_wall_seconds, report.serial_estimate_seconds,
               report.speedup_estimate(), sink.c_str());
  return report;
}

/// Shared prologue of every figure binary: parse the common flags, run
/// the grid through the sweep reporter, and print the figure banner.
/// Keeps the six binaries down to "build cells, format rows".
inline core::SweepReport run_figure(int argc, char** argv,
                                    const std::string& suite,
                                    const std::string& title,
                                    const std::vector<core::SweepCell>& cells) {
  const BenchOptions opt = parse_bench_args(argc, argv);
  core::SweepReport report = run_sweep(suite, cells, opt);
  std::printf("%s\n", title.c_str());
  return report;
}

/// The Fig.5 grid — minislots × BER × scheme, in print order. Shared
/// with the sweep determinism test, which replays the full grid under
/// different job counts and requires identical results.
inline std::vector<core::SweepCell> fig5_cells() {
  std::vector<core::SweepCell> cells;
  for (std::int64_t minislots : {25, 50, 75, 100}) {
    for (double ber : {1e-7, 1e-9}) {
      core::ExperimentConfig config;
      config.cluster = core::paper_cluster_dynamic_suite(minislots);
      apply_loaded_defaults(config);
      config.ber = ber;
      config.sil = sil_for_ber(ber);
      for (const auto scheme :
           {core::SchemeKind::kCoEfficient, core::SchemeKind::kFspec}) {
        cells.push_back({config, scheme,
                         "minislots=" + std::to_string(minislots) +
                             "/ber=" + (ber < 1e-8 ? "1e-9" : "1e-7") + "/" +
                             core::to_string(scheme)});
      }
    }
  }
  return cells;
}

}  // namespace coeff::bench
