#include "flexray/cluster.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

namespace coeff::flexray {
namespace {

using units::CycleIndex;
using units::MinislotId;
using units::SlotId;

/// Scripted policy for driving the cluster in tests.
class ScriptedPolicy : public TransmissionPolicy {
 public:
  std::function<std::optional<TxRequest>(ChannelId, CycleIndex, SlotId)>
      on_static;
  std::function<std::optional<TxRequest>(ChannelId, CycleIndex, SlotId,
                                         MinislotId, std::int64_t)>
      on_dynamic;

  std::vector<TxOutcome> outcomes;
  std::vector<std::int64_t> cycles_started;
  std::vector<std::int64_t> cycles_ended;
  std::vector<TxRequest> declined;
  std::vector<Arrival> arrivals;  ///< delivered, in delivery order

  /// Opt into the compiled walk (scripted decisions never read outcomes).
  bool compiled = false;
  /// Report the dynamic segment idle until the first arrival, so the
  /// compiled walk skips idle minislots up to it.
  bool idle_until_arrival = false;

  [[nodiscard]] bool compiled_capable() const override { return compiled; }
  [[nodiscard]] std::int64_t dynamic_next_frame(
      ChannelId, std::int64_t min_frame) const override {
    return idle_until_arrival && arrivals.empty() ? kNoDynamicFrame
                                                  : min_frame;
  }
  void on_dynamic_arrival(int message_id, sim::Time at) override {
    arrivals.push_back({at, message_id});
  }
  void on_cycle_start(CycleIndex cycle, sim::Time) override {
    cycles_started.push_back(cycle.value());
  }
  std::optional<TxRequest> static_slot(ChannelId channel, CycleIndex cycle,
                                       SlotId slot) override {
    return on_static ? on_static(channel, cycle, slot) : std::nullopt;
  }
  std::optional<TxRequest> dynamic_slot(ChannelId channel, CycleIndex cycle,
                                        SlotId counter, MinislotId minislot,
                                        std::int64_t remaining) override {
    return on_dynamic ? on_dynamic(channel, cycle, counter, minislot, remaining)
                      : std::nullopt;
  }
  void on_tx_complete(const TxOutcome& outcome) override {
    outcomes.push_back(outcome);
  }
  void on_dynamic_declined(ChannelId, CycleIndex,
                           const TxRequest& request) override {
    declined.push_back(request);
  }
  void on_cycle_end(CycleIndex cycle, sim::Time) override {
    cycles_ended.push_back(cycle.value());
  }
};

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};
  cfg.g_number_of_static_slots = 4;
  cfg.gd_static_slot = units::Macroticks{40};
  cfg.g_number_of_minislots = 20;
  cfg.gd_minislot = units::Macroticks{8};
  cfg.num_nodes = 2;
  cfg.validate();
  return cfg;
}

TxRequest req(FrameId id, std::int64_t bits, std::uint64_t instance = 1) {
  TxRequest r;
  r.instance = instance;
  r.frame_id = id;
  r.sender = units::NodeId{0};
  r.payload_bits = bits;
  return r;
}

constexpr EngineMode kModes[] = {EngineMode::kInterpreted,
                                 EngineMode::kCompiled};

TEST(ClusterTest, RunsCycleLifecycle) {
  ScriptedPolicy policy;
  Cluster cluster(small_config(), policy, nullptr);
  EXPECT_EQ(cluster.now(), sim::Time::zero());
  cluster.run_cycles(3);
  EXPECT_EQ(policy.cycles_started, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(policy.cycles_ended, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(cluster.cycles_run(), 3);
  EXPECT_EQ(cluster.now(), sim::millis(3));
}

TEST(ClusterTest, StaticSlotTransmissionTimesAndSegments) {
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId channel, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (channel == ChannelId::kA && slot == SlotId{2}) {
      return req(FrameId{2}, 100);
    }
    return std::nullopt;
  };
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_cycles(2);
  ASSERT_EQ(policy.outcomes.size(), 2u);
  EXPECT_EQ(policy.outcomes[0].start, sim::micros(40));  // slot 2 of cycle 0
  EXPECT_EQ(policy.outcomes[0].end, sim::micros(80));    // full slot duration
  EXPECT_EQ(policy.outcomes[0].segment, Segment::kStatic);
  EXPECT_EQ(policy.outcomes[1].start, sim::millis(1) + sim::micros(40));
  EXPECT_EQ(policy.outcomes[0].channel, ChannelId::kA);
}

TEST(ClusterTest, BothChannelsOfferedEachStaticSlot) {
  ScriptedPolicy policy;
  int offers_a = 0, offers_b = 0;
  policy.on_static = [&](ChannelId channel, CycleIndex,
                         SlotId) -> std::optional<TxRequest> {
    (channel == ChannelId::kA ? offers_a : offers_b)++;
    return std::nullopt;
  };
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_cycles(1);
  EXPECT_EQ(offers_a, 4);
  EXPECT_EQ(offers_b, 4);
}

TEST(ClusterTest, StaticFrameIdMustMatchSlot) {
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId, CycleIndex,
                        SlotId) -> std::optional<TxRequest> {
    // Wrong id for every slot except 7 (doesn't exist).
    return req(FrameId{7}, 100);
  };
  Cluster cluster(small_config(), policy, nullptr);
  EXPECT_THROW(cluster.run_cycles(1), std::logic_error);
}

TEST(ClusterTest, StaticPayloadBeyondCapacityRejected) {
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (slot == SlotId{1}) return req(FrameId{1}, 1'000'000);
    return std::nullopt;
  };
  Cluster cluster(small_config(), policy, nullptr);
  EXPECT_THROW(cluster.run_cycles(1), std::logic_error);
}

TEST(ClusterTest, DynamicSlotCountersStartAfterStaticSlots) {
  ScriptedPolicy policy;
  std::vector<std::int64_t> counters;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId counter,
                          MinislotId,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel == ChannelId::kA) counters.push_back(counter.value());
    return std::nullopt;
  };
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_cycles(1);
  // 20 empty minislots -> counters 5..24 on channel A.
  ASSERT_EQ(counters.size(), 20u);
  EXPECT_EQ(counters.front(), 5);
  EXPECT_EQ(counters.back(), 24);
}

TEST(ClusterTest, DynamicTransmissionConsumesMinislots) {
  ScriptedPolicy policy;
  std::vector<std::int64_t> minislots;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId counter,
                          MinislotId minislot,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel != ChannelId::kA) return std::nullopt;
    minislots.push_back(minislot.value());
    if (counter == SlotId{5}) {
      // 10 Mb/s, 8 us minislot = 80 bits; 160 bits -> 2 + 1 idle = 3.
      return req(FrameId{5}, 160);
    }
    return std::nullopt;
  };
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_cycles(1);
  // First slot consumed 3 minislots, so the second offer is at minislot 3.
  ASSERT_GE(minislots.size(), 2u);
  EXPECT_EQ(minislots[0], 0);
  EXPECT_EQ(minislots[1], 3);
}

TEST(ClusterTest, DynamicRespectsLatestTx) {
  auto cfg = small_config();
  cfg.p_latest_tx = MinislotId{5};
  ScriptedPolicy policy;
  int granted = 0;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId, MinislotId,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel != ChannelId::kA) return std::nullopt;
    return req(FrameId{0}, 80);  // frame id irrelevant for dynamic
  };
  Cluster cluster(cfg, policy, nullptr);
  cluster.run_cycles(1);
  granted = static_cast<int>(policy.outcomes.size());
  // Starts allowed only in minislots 0..4 -> with 2-minislot slots at
  // most 3 transmissions, and declines reported afterwards.
  EXPECT_LE(granted, 3);
  EXPECT_FALSE(policy.declined.empty());
}

TEST(ClusterTest, DynamicTooLargeForRemainderIsDeclined) {
  ScriptedPolicy policy;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId, MinislotId,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel != ChannelId::kA) return std::nullopt;
    return req(FrameId{0}, 100'000);  // larger than the whole dynamic segment
  };
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_cycles(1);
  EXPECT_TRUE(policy.outcomes.empty());
  EXPECT_EQ(policy.declined.size(), 20u);  // every minislot walks past it
}

TEST(ClusterTest, CorruptionHookControlsOutcomes) {
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId channel, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (slot == SlotId{1} && channel == ChannelId::kA) {
      return req(FrameId{1}, 100);
    }
    return std::nullopt;
  };
  int verdicts = 0;
  auto corrupt_all = [&](const TxRequest&, ChannelId, sim::Time) {
    ++verdicts;
    return true;
  };
  Cluster cluster(small_config(), policy, corrupt_all);
  cluster.run_cycles(2);
  EXPECT_EQ(verdicts, 2);
  for (const auto& out : policy.outcomes) EXPECT_TRUE(out.corrupted);
  EXPECT_EQ(cluster.channel(ChannelId::kA).stats().corrupted_frames, 2);
}

TEST(ClusterTest, ChannelStatsAccumulate) {
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId channel, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (slot.value() <= 2 && channel == ChannelId::kA) {
      auto r = req(units::to_frame_id(slot), 100);
      r.retransmission = slot == SlotId{2};
      return r;
    }
    return std::nullopt;
  };
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_cycles(5);
  const auto& stats = cluster.channel(ChannelId::kA).stats();
  EXPECT_EQ(stats.frames, 10);
  EXPECT_EQ(stats.retransmission_frames, 5);
  EXPECT_EQ(stats.payload_bits, 1000);
  EXPECT_EQ(stats.busy_static, sim::micros(40) * 10);
  EXPECT_EQ(cluster.channel(ChannelId::kB).stats().frames, 0);
}

TEST(ClusterTest, EngineEventsDeliveredAtSlotBoundaries) {
  // An arrival mid-slot-2 (slots start every 40 us) reaches the policy
  // after slot 2's decision and before slot 3's, with its own time.
  for (const EngineMode mode : kModes) {
    SCOPED_TRACE(to_string(mode));
    ScriptedPolicy policy;
    policy.compiled = true;
    std::vector<std::size_t> seen_at_slot;  // deliveries seen, channel A
    policy.on_static = [&](ChannelId channel, CycleIndex,
                           SlotId) -> std::optional<TxRequest> {
      if (channel == ChannelId::kA) {
        seen_at_slot.push_back(policy.arrivals.size());
      }
      return std::nullopt;
    };
    Cluster cluster(small_config(), policy, nullptr);
    cluster.set_engine_mode(mode);
    cluster.set_arrivals({{sim::micros(50), 7}});
    cluster.run_cycles(1);
    ASSERT_EQ(policy.arrivals.size(), 1u);
    EXPECT_EQ(policy.arrivals[0].at, sim::micros(50));
    EXPECT_EQ(policy.arrivals[0].message_id, 7);
    EXPECT_EQ(seen_at_slot, (std::vector<std::size_t>{0, 0, 1, 1}));
  }
}

TEST(ClusterTest, EqualTimeArrivalsKeepTheirOrder) {
  for (const EngineMode mode : kModes) {
    SCOPED_TRACE(to_string(mode));
    ScriptedPolicy policy;
    policy.compiled = true;
    Cluster cluster(small_config(), policy, nullptr);
    cluster.set_engine_mode(mode);
    // Enough arrivals that an unstable sort would reorder the ties:
    // ids 0..47 spread over three times in shuffled order.
    std::vector<Arrival> arrivals;
    for (int id = 0; id < 48; ++id) {
      arrivals.push_back({sim::micros(50 - 20 * ((id * 7) % 3)), id});
    }
    std::vector<int> expected;
    for (const std::int64_t us : {10, 30, 50}) {
      for (const Arrival& a : arrivals) {
        if (a.at == sim::micros(us)) expected.push_back(a.message_id);
      }
    }
    cluster.set_arrivals(std::move(arrivals));
    cluster.run_cycles(1);
    std::vector<int> ids;
    for (const Arrival& a : policy.arrivals) ids.push_back(a.message_id);
    EXPECT_EQ(ids, expected);
  }
}

TEST(ClusterTest, ArrivalAtSlotStartPrecedesThatSlotsDecision) {
  for (const EngineMode mode : kModes) {
    SCOPED_TRACE(to_string(mode));
    ScriptedPolicy policy;
    policy.compiled = true;
    std::vector<std::size_t> seen_at_slot;
    policy.on_static = [&](ChannelId channel, CycleIndex,
                           SlotId) -> std::optional<TxRequest> {
      if (channel == ChannelId::kA) {
        seen_at_slot.push_back(policy.arrivals.size());
      }
      return std::nullopt;
    };
    Cluster cluster(small_config(), policy, nullptr);
    cluster.set_engine_mode(mode);
    const sim::Time slot3 =
        cluster.timing().static_slot_start(CycleIndex{0}, SlotId{3});
    cluster.set_arrivals({{slot3, 1}});
    cluster.run_cycles(1);
    EXPECT_EQ(seen_at_slot, (std::vector<std::size_t>{0, 0, 1, 1}));
  }
}

TEST(ClusterTest, DynamicSegmentArrivalDeliveredOnceBeforeNextMinislot) {
  for (const EngineMode mode : kModes) {
    SCOPED_TRACE(to_string(mode));
    ScriptedPolicy policy;
    policy.compiled = true;
    policy.idle_until_arrival = true;
    // (minislot, deliveries seen) per dynamic decision, per channel.
    std::vector<std::pair<std::int64_t, std::size_t>> seen_a, seen_b;
    policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId,
                            MinislotId minislot,
                            std::int64_t) -> std::optional<TxRequest> {
      (channel == ChannelId::kA ? seen_a : seen_b)
          .emplace_back(minislot.value(), policy.arrivals.size());
      return std::nullopt;
    };
    Cluster cluster(small_config(), policy, nullptr);
    cluster.set_engine_mode(mode);
    // Halfway into minislot 3: due before minislot 4's decision.
    const sim::Time at =
        cluster.timing().minislot_start(CycleIndex{0}, MinislotId{3}) +
        sim::micros(4);
    cluster.set_arrivals({{at, 5}});
    cluster.run_cycles(1);
    ASSERT_EQ(policy.arrivals.size(), 1u);
    EXPECT_EQ(policy.arrivals[0].at, at);
    ASSERT_FALSE(seen_a.empty());
    bool saw_minislot_4 = false;
    for (const auto& [minislot, seen] : seen_a) {
      EXPECT_EQ(seen, minislot < 4 ? 0u : 1u) << "minislot " << minislot;
      saw_minislot_4 = saw_minislot_4 || minislot == 4;
    }
    EXPECT_TRUE(saw_minislot_4);
    // Channel B walks the same segment after A: already delivered.
    ASSERT_EQ(seen_b.size(), 20u);
    for (const auto& [minislot, seen] : seen_b) EXPECT_EQ(seen, 1u);
  }
}

TEST(ClusterTest, ArrivalsPastTheLastCycleAreNeverDelivered) {
  for (const EngineMode mode : kModes) {
    SCOPED_TRACE(to_string(mode));
    ScriptedPolicy policy;
    policy.compiled = true;
    Cluster cluster(small_config(), policy, nullptr);
    cluster.set_engine_mode(mode);
    // The end of cycle 1 is still cycle 1's boundary; 1 ns later is not.
    cluster.set_arrivals({{sim::millis(2) + sim::nanos(1), 2},
                          {sim::millis(2), 1}});
    cluster.run_cycles(2);
    ASSERT_EQ(policy.arrivals.size(), 1u);
    EXPECT_EQ(policy.arrivals[0].message_id, 1);
    EXPECT_EQ(cluster.now(), sim::millis(2));
    cluster.run_cycles(1);  // the cursor resumes where it stopped
    ASSERT_EQ(policy.arrivals.size(), 2u);
    EXPECT_EQ(policy.arrivals[1].message_id, 2);
  }
}

TEST(ClusterTest, SetArrivalsAfterACycleThrows) {
  ScriptedPolicy policy;
  Cluster cluster(small_config(), policy, nullptr);
  cluster.set_arrivals({{sim::micros(10), 1}});  // before any cycle: fine
  cluster.run_cycles(1);
  EXPECT_THROW(cluster.set_arrivals({{sim::millis(5), 1}}), std::logic_error);
  EXPECT_EQ(policy.arrivals.size(), 1u);
}

TEST(ClusterTest, RunUntilCoversWholeCycles) {
  ScriptedPolicy policy;
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_until(sim::micros(1500));  // 1.5 cycles -> runs cycles 0 and 1
  EXPECT_EQ(cluster.cycles_run(), 2);
}

TEST(ClusterTest, ElapsedCapacityCounters) {
  ScriptedPolicy policy;
  Cluster cluster(small_config(), policy, nullptr);
  cluster.run_cycles(3);
  EXPECT_EQ(cluster.static_slots_elapsed(), 3 * 4 * 2);
  EXPECT_EQ(cluster.dynamic_minislots_elapsed(), 3 * 20 * 2);
}

}  // namespace
}  // namespace coeff::flexray
