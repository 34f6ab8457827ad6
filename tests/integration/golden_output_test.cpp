// Golden outputs: FNV-1a 64 hashes of RunStats::summary() and of the
// full trace CSV, pinned for every scheme on two workloads and checked
// under both cycle engines. The engine differential suite compares the
// two engines with each other, so a defect in something both read (the
// compiled cycle template, the schedule table) moves both sides
// together and passes there; these pins catch it.
//
// A pin may only change together with a deliberate behaviour change,
// recorded as such.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "flexray/cluster.hpp"
#include "run_fixtures.hpp"
#include "sim/trace.hpp"

namespace coeff::core {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// The loaded synthetic configuration of figures 3-5 (100 statics on 80
/// slots, a 2520-cycle multiplexed table) cut to a 100 ms window.
ExperimentConfig loaded_config() {
  ExperimentConfig config;
  config.cluster = paper_cluster_dynamic_suite(50);
  bench::apply_loaded_defaults(config);
  config.batch_window = sim::millis(100);
  config.ber = 1e-7;
  return config;
}

struct Pin {
  const char* workload;
  SchemeKind scheme;
  std::uint64_t summary;
  std::uint64_t trace;
};

constexpr Pin kPins[] = {
    {"grid", SchemeKind::kCoEfficient, 0x5cf99ddbab2224f5ULL,
     0xf8120fbda0a11bccULL},
    {"grid", SchemeKind::kFspec, 0xb85af36e9e9c7fa5ULL,
     0x642b40bdd6e678a1ULL},
    {"grid", SchemeKind::kHosa, 0xf5dac6a59b3b6c4dULL,
     0x0b8378c45384f2dcULL},
    {"loaded", SchemeKind::kCoEfficient, 0xde99feb255d8bf03ULL,
     0xe91a6c458703cdacULL},
    {"loaded", SchemeKind::kFspec, 0x42369575a754d375ULL,
     0x4b88acfc0d4d6d46ULL},
    {"loaded", SchemeKind::kHosa, 0x977b492416df19b6ULL,
     0x2121814e96f28e9aULL},
};

TEST(GoldenOutputTest, SummaryAndTraceHashesMatchThePins) {
  for (const Pin& pin : kPins) {
    ExperimentConfig config =
        std::string_view(pin.workload) == "grid" ? grid_config()
                                                 : loaded_config();
    for (const auto engine :
         {flexray::EngineMode::kCompiled, flexray::EngineMode::kInterpreted}) {
      SCOPED_TRACE(std::string(pin.workload) + "/" + to_string(pin.scheme) +
                   "/" + flexray::to_string(engine));
      sim::Trace trace;
      config.engine = engine;
      config.trace = &trace;
      const ExperimentResult result = run_experiment(config, pin.scheme);
      EXPECT_GT(trace.records().size(), 0u);
      EXPECT_EQ(hex(fnv1a(result.run.summary())), hex(pin.summary));
      EXPECT_EQ(hex(fnv1a(trace_csv(trace))), hex(pin.trace));
    }
  }
}

}  // namespace
}  // namespace coeff::core
