// Whole-run properties of the index-addressed instance slab
// (DESIGN.md §17): message ids are opaque labels, settlement order is
// (message id, release index), and slab memory depends on deadlines
// and backlog, not on the run window.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/instance.hpp"
#include "run_fixtures.hpp"
#include "sim/trace.hpp"

namespace coeff::core {
namespace {

constexpr SchemeKind kSchemes[] = {SchemeKind::kCoEfficient,
                                   SchemeKind::kFspec, SchemeKind::kHosa};

/// The loaded configuration of figures 3-5 (100 statics with ids 1..100
/// on 80 slots, 30 SAE dynamics with ids 1000..1029).
ExperimentConfig loaded_config(sim::Time window) {
  ExperimentConfig config;
  config.cluster = paper_cluster_dynamic_suite(50);
  bench::apply_loaded_defaults(config);
  config.batch_window = window;
  config.ber = 1e-7;
  return config;
}

net::MessageSet relabelled(const net::MessageSet& set,
                           const std::function<int(int)>& label) {
  net::MessageSet out;
  for (net::Message m : set.messages()) {
    m.id = label(m.id);
    out.add(m);
  }
  return out;
}

// Static ids 1..n relabelled to start at 0, to start at -5, and shifted
// to 1000+i (which, on the loaded config, collides with the dynamic
// ids). Every relabelling preserves the id order, so the table builder's
// id tie-break places every message identically; nothing else may read
// an id, so summary() must not move by one byte.
TEST(InstanceSlab, MessageIdsAreOpaqueLabels) {
  const std::function<int(int)> labels[] = {
      [](int id) { return id - 1; },
      [](int id) { return id - 6; },
      [](int id) { return 1000 + id; },
  };
  for (const bool loaded : {false, true}) {
    const ExperimentConfig base =
        loaded ? loaded_config(sim::millis(100)) : grid_config();
    for (const SchemeKind scheme : kSchemes) {
      const std::string want = run_experiment(base, scheme).run.summary();
      for (std::size_t l = 0; l < std::size(labels); ++l) {
        ExperimentConfig config = base;
        config.statics = relabelled(base.statics, labels[l]);
        EXPECT_EQ(run_experiment(config, scheme).run.summary(), want)
            << (loaded ? "loaded" : "grid") << ' ' << to_string(scheme)
            << " relabelling " << l;
      }
    }
  }
}

// The only output settlement order reaches is the order of
// kVoteResolved records emitted inside one sweep: they share the sweep's
// timestamp, a cycle boundary. Within such a group the records must come
// out by message id (field a; instances of one message follow in release
// order, which the trace cannot show). At BER 1e-7 every vote passes on
// the wire; 1e-5 makes sweeps reject a hundred of them.
TEST(InstanceSlab, SweepSettlesVotesInMessageIdOrder) {
  ExperimentConfig config = loaded_config(sim::millis(100));
  config.vote_replicas = 3;
  config.ber = 1e-5;
  sim::Trace trace;
  config.trace = &trace;
  (void)run_experiment(config, SchemeKind::kCoEfficient);
  const std::int64_t cycle_ns = config.cluster.cycle_duration().ns();

  std::vector<const sim::TraceRecord*> votes;
  for (const auto& r : trace.records()) {
    if (r.kind == sim::TraceKind::kVoteResolved) votes.push_back(&r);
  }
  std::size_t grouped = 0;
  for (std::size_t i = 1; i < votes.size(); ++i) {
    if (votes[i]->at != votes[i - 1]->at ||
        votes[i]->at.ns() % cycle_ns != 0) {
      continue;
    }
    ++grouped;
    EXPECT_LE(votes[i - 1]->a, votes[i]->a) << "at " << votes[i]->at.ns();
  }
  // The property is only shown if sweeps do settle several votes at once.
  EXPECT_GT(grouped, 10u);
}

// ROADMAP item 4's "memory stays flat": the run's high-water slab
// capacity is a function of deadlines and backlog, so a 20x longer
// window must not allocate one more cell.
TEST(InstanceSlab, HighWaterIsFlatAcrossRunWindows) {
  for (const SchemeKind scheme : kSchemes) {
    const ExperimentResult brief =
        run_experiment(loaded_config(sim::millis(100)), scheme);
    const ExperimentResult longer =
        run_experiment(loaded_config(sim::millis(2000)), scheme);
    EXPECT_GT(longer.cycles_run, 10 * brief.cycles_run);
    EXPECT_EQ(longer.instance_capacity, brief.instance_capacity)
        << to_string(scheme);
  }
}

// Drain runs keep expired dynamic entries queued, so under FSPEC's
// starved dynamic segment (25 minislots, mirrored) one message can have
// many releases in flight: its ring must grow past the initial cells
// rather than drop or alias them, and the run must still account for
// every release.
TEST(InstanceSlab, RingsGrowInDrainMode) {
  ExperimentConfig config = loaded_config(sim::millis(200));
  config.cluster = paper_cluster_dynamic_suite(25);
  const std::size_t initial =
      (config.statics.size() + config.dynamics.size()) *
      InstanceStore::kInitialRing;
  const ExperimentResult dropping = run_experiment(config, SchemeKind::kFspec);
  config.drain_batch = true;
  const ExperimentResult draining = run_experiment(config, SchemeKind::kFspec);
  EXPECT_EQ(dropping.instance_capacity, initial);
  EXPECT_GT(draining.instance_capacity, initial);
  EXPECT_EQ(draining.run.dynamics.released, dropping.run.dynamics.released);
  EXPECT_EQ(draining.run.dynamics.delivered + draining.run.dynamics.missed,
            draining.run.dynamics.released);
}

}  // namespace
}  // namespace coeff::core
