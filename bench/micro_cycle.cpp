// Cycle-walk microbenchmark: simulated communication cycles per
// wall-clock second, for each scheme under both engines.
//
// This is the tentpole number for the compiled cycle engine: the same
// loaded baseline_comparison workload (synthetic statics + bursty SAE
// aperiodics, 50 minislots, BER=1e-7) is replayed with --engine
// compiled and --engine interpreted, and the ratio is the speedup the
// flat CycleTemplate walk buys over the slot-by-slot table
// interpretation. The workload window is fixed, so the cycle count per
// run is deterministic; each (scheme, engine) cell reports the median
// of N repetitions, taken alternately with the other engine's, which
// makes the ratio stable enough to gate CI on (tools/bench_gate.py).
//
// Output: a human table on stdout, a JSON report (default
// BENCH_cycle.json; bench/BENCH_cycle.json holds the committed
// baseline), and optionally one appended JSON line per invocation to a
// trajectory log for tracking the number across commits.
#include <cassert>
#include <fstream>

#include "bench_common.hpp"

namespace coeff::bench {
namespace {

struct MicroOptions {
  int reps = 5;
  std::int64_t window_ms = 400;
  std::string json = "BENCH_cycle.json";
  std::string trajectory;  // empty = no trajectory append
  std::string suite;       // empty = all suites
  std::string engine;      // empty = both engines
};

MicroOptions parse_micro_args(int argc, char** argv) {
  MicroOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--reps") {
      opt.reps = number_arg<int>(argv[0], "--reps", next("--reps"));
      if (opt.reps < 1) opt.reps = 1;
    } else if (arg == "--window-ms") {
      opt.window_ms =
          number_arg<std::int64_t>(argv[0], "--window-ms", next("--window-ms"));
    } else if (arg == "--json") {
      opt.json = next("--json");
    } else if (arg == "--trajectory") {
      opt.trajectory = next("--trajectory");
    } else if (arg == "--suite") {
      opt.suite = next("--suite");
    } else if (arg == "--engine") {
      opt.engine = next("--engine");
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--reps N] [--window-ms W] [--json PATH]\n"
          "          [--trajectory PATH]\n"
          "  --reps N          repetitions per cell; the median is\n"
          "                    reported (default: 5)\n"
          "  --window-ms W     release window; fixes the cycle count\n"
          "                    per run (default: 400)\n"
          "  --json PATH       JSON report; empty disables\n"
          "                    (default: BENCH_cycle.json)\n"
          "  --trajectory PATH append one JSON line per invocation\n"
          "                    (default: off)\n"
          "  --suite NAME      run only the named suite (loaded|sparse;\n"
          "                    default: all)\n"
          "  --engine NAME     run only one engine (compiled|interpreted;\n"
          "                    default: both, with speedup ratios)\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// The baseline_comparison workload, with the batch window overridden
/// so the run length (and hence the benchmarked cycle count) is a
/// command-line knob instead of the figure's 2 s default.
core::ExperimentConfig micro_config(std::int64_t window_ms) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(50);
  apply_loaded_defaults(config);
  config.ber = 1e-7;
  config.batch_window = sim::millis(window_ms);
  return config;
}

/// Steady-state workload: long-period statics and an empty dynamic
/// segment, so most slots and all minislots are idle. The loaded suite
/// is transmission-bound (the per-frame bookkeeping is identical under
/// both engines and dominates, so the engine ratio saturates near 1);
/// this suite is walk-bound and isolates the overhead the compiled
/// engine removes — per-slot virtual dispatch, per-minislot event-queue
/// probing, idle-minislot stepping.
core::ExperimentConfig sparse_config(std::int64_t window_ms) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(50);
  // Hand-rolled long-period set: power-of-two multiples of the 5 ms
  // cycle keep the template hyperperiod at 64 rows (random multiples
  // would make the lcm — and the template — explode).
  constexpr std::int64_t kPeriodsMs[] = {40, 80, 160, 320};
  sim::Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    net::Message m;
    m.id = i + 1;
    m.name = "sparse" + std::to_string(i + 1);
    m.node = i % net::kPaperNodeCount;
    m.kind = net::MessageKind::kStatic;
    m.period = sim::millis(kPeriodsMs[i % 4]);
    m.deadline = sim::millis(kPeriodsMs[i % 4] / 2);
    m.size_bits = rng.uniform_int(256, 1280);
    config.statics.add(m);
  }
  config.ber = 1e-7;
  config.batch_window = sim::millis(window_ms);
  return config;
}

struct Suite {
  const char* name;
  const char* title;
  core::ExperimentConfig (*config)(std::int64_t window_ms);
};

constexpr Suite kSuites[] = {
    {"loaded", "loaded synthetic + SAE aperiodics, 50 minislots, BER=1e-7",
     micro_config},
    {"sparse", "steady-state: 40 long-period statics, idle dynamic segment",
     sparse_config},
};

struct CellResult {
  const char* suite = "loaded";
  core::SchemeKind scheme;
  flexray::EngineMode engine;
  std::int64_t cycles = 0;
  double median_seconds = 0.0;
  [[nodiscard]] double cycles_per_second() const {
    return median_seconds > 0.0
               ? static_cast<double>(cycles) / median_seconds
               : 0.0;
  }
};

const char* engine_name(flexray::EngineMode engine) {
  return engine == flexray::EngineMode::kCompiled ? "compiled"
                                                  : "interpreted";
}

/// One scheme under each of `engines`. Repetitions alternate between
/// the engines, so a change in host speed during the run (a noisy
/// neighbour, frequency scaling) slows both sides of the ratio alike
/// instead of whichever engine happened to be running.
std::vector<CellResult> run_cells(
    const MicroOptions& opt, const Suite& suite, core::SchemeKind scheme,
    const std::vector<flexray::EngineMode>& engines) {
  std::vector<core::ExperimentConfig> configs;
  std::vector<CellResult> cells;
  for (const flexray::EngineMode engine : engines) {
    configs.push_back(suite.config(opt.window_ms));
    configs.back().engine = engine;
    cells.push_back(CellResult{suite.name, scheme, engine, 0, 0.0});
  }
  std::vector<std::vector<double>> seconds(engines.size());
  std::vector<double> miss_ratio(engines.size(), 0.0);
  for (int rep = 0; rep < opt.reps; ++rep) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      CellResult& cell = cells[e];
      const core::ExperimentResult result =
          core::run_experiment(configs[e], scheme);
      // Time only the cycle walk: scheduler construction and plan
      // solving are engine-independent setup and would dilute the
      // engine ratio.
      seconds[e].push_back(result.walk_seconds);
      if (cell.engine == flexray::EngineMode::kCompiled &&
          result.compiled_cycles != result.cycles_run) {
        std::fprintf(stderr,
                     "micro_cycle: %s compiled run fell back to interpreted "
                     "(%lld/%lld cycles compiled) — not measuring the fast "
                     "path, refusing to report\n",
                     core::to_string(scheme),
                     static_cast<long long>(result.compiled_cycles),
                     static_cast<long long>(result.cycles_run));
        std::exit(1);
      }
      // Deterministic workload: every repetition (and both engines)
      // must replay the exact same simulation, or the throughput
      // comparison is measuring different work.
      if (rep == 0) {
        cell.cycles = result.cycles_run;
        miss_ratio[e] = result.run.overall_miss_ratio();
      } else if (result.cycles_run != cell.cycles ||
                 result.run.overall_miss_ratio() != miss_ratio[e]) {
        std::fprintf(stderr,
                     "micro_cycle: %s/%s repetition diverged (cycles %lld vs "
                     "%lld) — engine bug, refusing to report\n",
                     core::to_string(scheme), engine_name(cell.engine),
                     static_cast<long long>(result.cycles_run),
                     static_cast<long long>(cell.cycles));
        std::exit(1);
      }
    }
  }
  for (std::size_t e = 0; e < engines.size(); ++e) {
    cells[e].median_seconds = median_of(seconds[e]);
  }
  return cells;
}

void write_json(const MicroOptions& opt, const std::vector<CellResult>& cells,
                const std::string& path, bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "micro_cycle: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  char buf[256];
  std::string body;
  body += "{\"bench\":\"micro_cycle\",";
  std::snprintf(buf, sizeof buf, "\"window_ms\":%lld,\"repetitions\":%d,",
                static_cast<long long>(opt.window_ms), opt.reps);
  body += buf;
  body += "\"results\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    if (i != 0) body += ',';
    std::snprintf(buf, sizeof buf,
                  "{\"suite\":\"%s\",\"scheme\":\"%s\",\"engine\":\"%s\","
                  "\"cycles\":%lld,\"median_seconds\":%.6f,"
                  "\"cycles_per_second\":%.1f}",
                  c.suite, core::to_string(c.scheme), engine_name(c.engine),
                  static_cast<long long>(c.cycles), c.median_seconds,
                  c.cycles_per_second());
    body += buf;
  }
  body += "]}";
  out << body << '\n';
}

}  // namespace
}  // namespace coeff::bench

int main(int argc, char** argv) {
  using namespace coeff::bench;
  const MicroOptions opt = parse_micro_args(argc, argv);

  constexpr coeff::core::SchemeKind kSchemes[] = {
      coeff::core::SchemeKind::kCoEfficient, coeff::core::SchemeKind::kFspec,
      coeff::core::SchemeKind::kHosa};
  std::vector<coeff::flexray::EngineMode> engines;
  for (const auto engine : {coeff::flexray::EngineMode::kCompiled,
                            coeff::flexray::EngineMode::kInterpreted}) {
    if (opt.engine.empty() || opt.engine == engine_name(engine)) {
      engines.push_back(engine);
    }
  }
  const bool both_engines = engines.size() == 2;

  std::vector<CellResult> cells;
  std::printf("micro_cycle — cycle-walk throughput, %lld ms window, "
              "median of %d\n",
              static_cast<long long>(opt.window_ms), opt.reps);
  for (const Suite& suite : kSuites) {
    if (!opt.suite.empty() && opt.suite != suite.name) continue;
    const std::size_t first = cells.size();
    for (const auto scheme : kSchemes) {
      for (const CellResult& cell : run_cells(opt, suite, scheme, engines)) {
        cells.push_back(cell);
      }
    }
    print_header(suite.title);
    std::printf("%-12s %-12s | %9s %12s %14s\n", "scheme", "engine", "cycles",
                "median[s]", "cycles/s");
    for (std::size_t i = first; i < cells.size(); ++i) {
      const CellResult& c = cells[i];
      std::printf("%-12s %-12s | %9lld %12.4f %14.0f\n",
                  coeff::core::to_string(c.scheme), engine_name(c.engine),
                  static_cast<long long>(c.cycles), c.median_seconds,
                  c.cycles_per_second());
    }
    if (!both_engines) continue;  // ratios need both sides
    std::printf("\nspeedup (compiled / interpreted), %s:\n", suite.name);
    for (std::size_t i = first; i + 1 < cells.size(); i += 2) {
      const CellResult& compiled = cells[i];
      const CellResult& interpreted = cells[i + 1];
      // Same workload must mean same cycle count across engines; a
      // mismatch would make cycles/s incomparable.
      if (compiled.cycles != interpreted.cycles) {
        std::fprintf(stderr, "micro_cycle: %s cycle count differs by engine\n",
                     coeff::core::to_string(compiled.scheme));
        return 1;
      }
      std::printf("  %-12s %.2fx\n", coeff::core::to_string(compiled.scheme),
                  interpreted.cycles_per_second() > 0.0
                      ? compiled.cycles_per_second() /
                            interpreted.cycles_per_second()
                      : 0.0);
    }
  }

  if (!opt.json.empty()) write_json(opt, cells, opt.json, /*append=*/false);
  if (!opt.trajectory.empty()) {
    write_json(opt, cells, opt.trajectory, /*append=*/true);
  }
  return 0;
}
