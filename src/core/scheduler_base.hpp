// Shared machinery for the CoEfficient and FSPEC transmission policies:
// instance release, CHI plumbing, deadline bookkeeping, and metric
// accumulation. The derived classes implement only what differs — how
// slots are filled and how redundant copies are produced.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cycle_template.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "flexray/chi.hpp"
#include "flexray/policy.hpp"
#include "net/message.hpp"
#include "sched/schedule_table.hpp"
#include "sim/trace.hpp"

namespace coeff::core {

class SchedulerBase : public flexray::TransmissionPolicy {
 public:
  /// `batch_window`: static instances are released for all release times
  /// in [0, batch_window); dynamic arrivals are injected externally
  /// (add_dynamic_arrival) and should respect the same window.
  /// `table` lets a subclass install a table built from an expanded set
  /// (FSPEC's pre-planned redundancy); by default the table is built
  /// from `statics` directly.
  SchedulerBase(const flexray::ClusterConfig& cfg, net::MessageSet statics,
                net::MessageSet dynamics, sim::Time batch_window,
                std::optional<sched::StaticScheduleTable> table = std::nullopt);
  ~SchedulerBase() override = default;

  /// When false, dynamic queue entries survive their deadline and are
  /// still transmitted (running-time experiments drain the full batch);
  /// misses are recorded either way. Default: true (drop expired).
  void set_drop_expired_dynamics(bool drop) { drop_expired_dynamics_ = drop; }

  /// Inject one dynamic arrival (typically delivered by the Cluster
  /// through on_dynamic_arrival): creates the instance and enqueues it
  /// in the producing node's CHI dynamic queue.
  void add_dynamic_arrival(int message_id, sim::Time at);

  /// True while the scheme still owes wire transmissions for the batch.
  [[nodiscard]] bool work_remaining() const { return owed_copies_ > 0; }

  /// Settle every instance still live at end of run (records misses for
  /// undelivered ones whose deadline passed or will pass unserved).
  void finalize(sim::Time now);

  /// End time of the last wire transmission (the batch makespan).
  [[nodiscard]] sim::Time last_activity() const { return last_activity_; }

  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] RunStats& stats() { return stats_; }

  /// Optional structured-trace sink for scheduler-level events (plan
  /// swaps, load shedding). May be nullptr; the trace must outlive the
  /// scheduler. Typically the same Trace the Cluster records into.
  void set_trace(sim::Trace* trace) { trace_ = trace; }
  [[nodiscard]] const sched::StaticScheduleTable& table() const {
    return table_;
  }
  [[nodiscard]] const net::MessageSet& static_messages() const {
    return statics_;
  }
  [[nodiscard]] const net::MessageSet& dynamic_messages() const {
    return dynamics_;
  }
  /// The instance slab (live instances and its high-water capacity).
  [[nodiscard]] const InstanceStore& instances() const { return instances_; }

  /// The compiled (table × plan) lookup the hot paths read from.
  [[nodiscard]] const CycleTemplate& cycle_template() const { return tpl_; }

  // --- TransmissionPolicy (shared parts) -------------------------------
  /// All SchedulerBase schemes satisfy the compiled-walk contract: slot
  /// decisions read only decide-side state (CHI buffers, queues, plans)
  /// and never state written by same-cycle on_tx_complete calls, which
  /// do pure outcome accounting read at cycle boundaries.
  [[nodiscard]] bool compiled_capable() const override { return true; }
  void on_dynamic_arrival(int message_id, sim::Time at) override {
    add_dynamic_arrival(message_id, at);
  }
  void on_cycle_start(units::CycleIndex cycle, sim::Time at) override;
  void on_cycle_end(units::CycleIndex cycle, sim::Time at) override;
  void on_dynamic_declined(flexray::ChannelId channel, units::CycleIndex cycle,
                           const flexray::TxRequest& request) override;
  /// Shared topology-state bookkeeping for all schemes: a crash powers
  /// the node's CHI off and settles its undelivered instances as
  /// source-lost (a dead producer is a node failure, not a scheduling
  /// miss); a restart reintegrates the node with empty buffers; channel
  /// events track availability. Subclasses refine recovery through the
  /// on_node_down/on_node_up/on_channel_down/on_channel_up hooks.
  void on_topology_event(const flexray::TopologyEvent& event,
                         units::CycleIndex cycle, sim::Time at) override;

  // --- Topology state ---------------------------------------------------
  [[nodiscard]] bool node_alive(int node) const;
  [[nodiscard]] bool channel_available(flexray::ChannelId channel) const {
    return !channel_down_[static_cast<std::size_t>(channel)];
  }
  [[nodiscard]] int channels_available() const;

 protected:
  /// Scheme-level recovery hooks, called after the base bookkeeping for
  /// the corresponding topology event. Defaults: no reaction.
  virtual void on_node_down(units::NodeId /*node*/, units::CycleIndex /*cycle*/,
                            sim::Time /*at*/) {}
  virtual void on_node_up(units::NodeId /*node*/, units::CycleIndex /*cycle*/,
                          sim::Time /*at*/) {}
  virtual void on_channel_down(flexray::ChannelId /*channel*/,
                               units::CycleIndex /*cycle*/, sim::Time /*at*/) {}
  virtual void on_channel_up(flexray::ChannelId /*channel*/,
                             units::CycleIndex /*cycle*/, sim::Time /*at*/) {}
  /// Subclass hook invoked from on_cycle_start after releases/sweeps.
  virtual void on_cycle_start_hook(units::CycleIndex /*cycle*/,
                                   sim::Time /*at*/) {}

  /// Called for every newly released static instance. The subclass must
  /// register the copies it owes (add_copies) and stage the primary
  /// transmission (e.g. write the CHI static buffer).
  virtual void on_static_release(Instance& inst, const net::Message& m) = 0;

  /// Called for every dynamic arrival. The subclass must register owed
  /// copies and enqueue `pending` where its dispatch logic will find it.
  virtual void on_dynamic_release(Instance& inst, const net::Message& m,
                                  const flexray::PendingMessage& pending) = 0;

  /// Record a wire transmission outcome against its instance: updates
  /// copy counts, delivery state, latency, and owed-work accounting.
  void account_outcome(const flexray::TxOutcome& outcome);

  /// Reduce an instance's owed copies (cancelled retransmission or
  /// expired queue entry) keeping the global owed counter consistent.
  void cancel_copies(Instance& inst, int copies);

  /// Add owed copies to an instance (planned redundancy).
  void add_copies(Instance& inst, int copies);

  [[nodiscard]] SegmentMetrics& segment(net::MessageKind kind) {
    return kind == net::MessageKind::kStatic ? stats_.statics
                                             : stats_.dynamics;
  }

  /// Slab position of a static message (an element of statics_):
  /// statics occupy positions [0, statics_.size()), dynamics follow.
  [[nodiscard]] std::size_t static_position(const net::Message& m) const {
    return static_cast<std::size_t>(&m - statics_.messages().data());
  }
  /// The table placement of a static message (an element of statics_),
  /// or nullptr when it is unplaced. Resolved once at construction.
  [[nodiscard]] const sched::SlotAssignment* assignment_for(
      const net::Message& m) const {
    return static_assignment_[static_position(m)];
  }

  /// The node that owns a dynamic frame id, or nullptr. Flat-array
  /// lookup (built once: the dynamic set never changes at runtime).
  [[nodiscard]] const net::Message* dynamic_message_for_frame(
      int frame_id) const {
    const auto idx = static_cast<std::size_t>(frame_id);
    return frame_id >= 0 && idx < dynamic_frame_lut_.size()
               ? dynamic_frame_lut_[idx]
               : nullptr;
  }

  /// Smallest frame id >= `min_frame` queued in any node's CHI dynamic
  /// queue, or flexray::kNoDynamicFrame. Shared building block for the
  /// schemes' dynamic_next_frame overrides (channel-A semantics).
  [[nodiscard]] std::int64_t queued_dynamic_next_frame(
      std::int64_t min_frame) const;

  /// The per-message retransmission budget baked into the template
  /// (k_z by message id), or nullptr when the scheme plans none.
  [[nodiscard]] virtual const std::unordered_map<int, int>*
  retransmission_budget() const {
    return nullptr;
  }

  /// Recompute the cycle template from (table_, statics_,
  /// retransmission_budget()) and emit the kTemplateRebuild marker
  /// (a=cycle, b=version, c=why) the trace linter checks invalidation
  /// against. Call after ANY input of the template changed.
  void rebuild_template(TemplateRebuildWhy why, units::CycleIndex cycle,
                        sim::Time at);

  flexray::ClusterConfig cfg_;
  net::MessageSet statics_;
  net::MessageSet dynamics_;
  sched::StaticScheduleTable table_;
  sim::Time batch_window_;
  sim::Time cycle_duration_;

  InstanceStore instances_;
  std::vector<flexray::Node> nodes_;
  CycleTemplate tpl_;
  std::vector<const net::Message*> dynamic_frame_lut_;  ///< by frame id
  std::int64_t owed_copies_ = 0;
  sim::Time last_activity_;
  bool drop_expired_dynamics_ = true;
  RunStats stats_;
  sim::Trace* trace_ = nullptr;
  std::vector<char> node_down_;  ///< indexed by node, 1 = crashed
  std::array<bool, flexray::kNumChannels> channel_down_{};

 private:
  bool tpl_announced_ = false;  ///< initial kTemplateRebuild emitted
  /// Next release index by slab position (statics, then dynamics).
  std::vector<std::int64_t> next_index_;
  /// Table placement by static position (nullptr = unplaced).
  std::vector<const sched::SlotAssignment*> static_assignment_;
  /// (message id, dynamic position) sorted by id: arrivals name their
  /// message by id.
  std::vector<std::pair<int, std::size_t>> dynamic_by_id_;
  /// Earliest not-yet-released static instance, maintained by
  /// release_statics_until so cycles with nothing due skip the full
  /// static scan. Starts at zero (= before any cap) so the first call
  /// always scans; exact thereafter because the static set and the
  /// per-message indices only change inside that function.
  sim::Time next_static_release_;
  void release_statics_until(sim::Time until);
  void sweep(sim::Time now);
  /// Settle every live instance of a crashed producer as source-lost and
  /// cancel its outstanding copies (its CHI is gone; nothing more will
  /// be sent). Queue entries referencing the erased instances are
  /// purged lazily by the subclasses' stale-entry checks.
  void settle_source_loss(int node);
  /// Resolve a replica vote (kVoteResolved trace + counters); idempotent
  /// per instance.
  void settle_vote(Instance& inst, bool accepted, sim::Time at);
};

}  // namespace coeff::core
