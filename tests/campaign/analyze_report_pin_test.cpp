// Byte pins of the analytic verifier's reports on the paper workloads:
// FNV-1a of the static plus dynamic text report of `coeffctl analyze
// --prob --workload bbw|acc|apps`, built exactly as the end-to-end
// benchmark (perfbench/main.cpp, analyse_app_sets) builds and hashes
// it. A Pmf or guaranteed-idle kernel that drifts by one ulp in any
// printed figure changes these digests.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "analysis/dyn_wcrt.hpp"
#include "analysis/prob_wcrt.hpp"
#include "campaign/cross_check.hpp"
#include "core/experiment.hpp"
#include "net/workloads.hpp"
#include "sim/random.hpp"

namespace coeff::campaign {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// `coeffctl analyze --prob --workload <set>` at its defaults.
core::ExperimentConfig app_config(const std::string& set) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_apps(25);
  config.statics = set == "bbw"   ? net::brake_by_wire()
                   : set == "acc" ? net::adaptive_cruise()
                                  : net::brake_by_wire().merged_with(
                                        net::adaptive_cruise());
  sim::Rng rng(config.seed ^ 0x5DEECE66DULL);
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(config.cluster.g_number_of_static_slots);
  config.dynamics = net::sae_aperiodic(sae, rng);
  config.ber = 1e-7;
  return config;
}

std::string report_digest(const std::string& set) {
  const auto setup = make_prob_setup(
      app_config(set), core::SchemeKind::kCoEfficient, analysis::ProbWcrtOptions{});
  std::string text = analysis::render_prob_text(
      setup->input, analysis::analyze_prob_wcrt(setup->input));
  if (setup->has_dynamics) {
    text += analysis::render_dyn_text(
        setup->dyn_input, analysis::analyze_dyn_wcrt(setup->dyn_input));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, fnv1a(text));
  return hex;
}

TEST(AnalyzeReportPin, PaperWorkloads) {
  EXPECT_EQ(report_digest("bbw"), "837ce545614f776c");
  EXPECT_EQ(report_digest("acc"), "2656cec15f154b01");
  EXPECT_EQ(report_digest("apps"), "7fe3b42bf14cf867");
}

}  // namespace
}  // namespace coeff::campaign
