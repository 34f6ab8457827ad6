// Shared fixtures for the whole-run integration tests: the trace CSV
// renderer both the engine differential and the golden-output tests
// compare, and the workload the differential grid runs.
#pragma once

#include <string>

#include "core/experiment.hpp"
#include "net/workloads.hpp"
#include "sim/trace.hpp"

namespace coeff::core {

/// Render a trace as CSV. Assertions compare (or hash) these strings
/// wholesale, so any drift in record order, timestamps, tags or notes
/// fails loudly.
inline std::string trace_csv(const sim::Trace& trace) {
  std::string out = "at_ns,kind,a,b,c,d,note\n";
  for (const auto& r : trace.records()) {
    out += std::to_string(r.at.ns());
    out += ',';
    out += sim::to_string(r.kind);
    out += ',';
    out += std::to_string(r.a);
    out += ',';
    out += std::to_string(r.b);
    out += ',';
    out += std::to_string(r.c);
    out += ',';
    out += std::to_string(r.d);
    out += ',';
    out += r.note;
    out += '\n';
  }
  return out;
}

/// The differential grid's workload: BBW statics + SAE aperiodics on the
/// 1 ms application cluster, hot enough BER that fault verdicts matter.
inline ExperimentConfig grid_config() {
  ExperimentConfig config;
  config.cluster = paper_cluster_apps();
  config.statics = net::brake_by_wire();
  sim::Rng rng(3);
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(config.cluster.g_number_of_static_slots);
  sae.count = 20;
  config.dynamics = net::sae_aperiodic(sae, rng);
  config.ber = 1e-5;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::millis(60);
  config.seed = 11;
  return config;
}

}  // namespace coeff::core
