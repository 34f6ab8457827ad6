// The cluster: drives the FlexRay cycle structure over both channels.
//
// The Cluster owns the two channels and the cycle walk; scheduling
// decisions are delegated to the installed TransmissionPolicy and fault
// verdicts to the CorruptionFn. Slot-level timing is computed
// arithmetically (CycleTiming). The only input from outside the static
// schedule is the time-ordered list of dynamic-message arrivals
// (set_arrivals); the walk delivers every arrival due at or before a
// slot/minislot boundary to the policy before that boundary's decision.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flexray/bus.hpp"
#include "flexray/fault_domain.hpp"
#include "flexray/policy.hpp"
#include "flexray/timing.hpp"
#include "sim/arena.hpp"
#include "sim/trace.hpp"

namespace coeff::flexray {

/// How the Cluster walks a cycle. Both engines produce byte-identical
/// traces, outcomes, and fault-verdict streams (DESIGN.md §12); the
/// compiled engine is the default and the interpreted one is kept as
/// the reference for differential testing.
enum class EngineMode : std::uint8_t {
  /// Slot-by-slot reference walk: one arrival-delivery check and one
  /// policy callback round-trip per slot/minislot.
  kInterpreted,
  /// Phased walk: static-slot decisions are batched into arrival-free
  /// chunks, fault verdicts drawn per chunk (BatchCorruptionFn), idle
  /// dynamic minislots skipped in one jump, and arrival-delivery checks
  /// elided until the next arrival is due. Requires the policy to report
  /// compiled_capable(); falls back to the interpreted walk per cycle
  /// when it does not, or when the structural fault provider reports
  /// possible wire-level faults in the cycle's window.
  kCompiled,
};

[[nodiscard]] constexpr const char* to_string(EngineMode m) {
  switch (m) {
    case EngineMode::kInterpreted:
      return "interpreted";
    case EngineMode::kCompiled:
      return "compiled";
  }
  return "unknown";
}

/// One dynamic-message release, delivered to the policy through
/// TransmissionPolicy::on_dynamic_arrival.
struct Arrival {
  sim::Time at;
  int message_id = 0;
};

class Cluster {
 public:
  /// `trace` may be nullptr to disable tracing.
  Cluster(const ClusterConfig& cfg, TransmissionPolicy& policy,
          CorruptionFn corruption, sim::Trace* trace = nullptr);

  /// Install the dynamic-message arrivals of the run. Must be called
  /// before the first cycle (throws std::logic_error afterwards). The
  /// list is stable-sorted by time, so equal-time arrivals are delivered
  /// in the order given. Each arrival reaches the policy once, at the
  /// first slot/minislot/cycle boundary at or after its time; arrivals
  /// past the last executed cycle are never delivered.
  void set_arrivals(std::vector<Arrival> arrivals);

  /// Install a structural fault provider (node/channel topology faults).
  /// Must outlive the cluster; nullptr detaches. Transitions are drained
  /// at every cycle boundary, traced (kNodeCrash/kNodeRestart/
  /// kChannelDown/kChannelUp) and forwarded to the policy.
  void set_fault_provider(StructuralFaultProvider* provider) {
    faults_ = provider;
  }
  [[nodiscard]] const StructuralFaultProvider* fault_provider() const {
    return faults_;
  }

  /// Select the cycle walk (default: compiled). The interpreted walk is
  /// the differential-testing reference; both produce identical results.
  void set_engine_mode(EngineMode mode) { mode_ = mode; }
  [[nodiscard]] EngineMode engine_mode() const { return mode_; }

  /// Install the batched-verdict hook used by the compiled walk's
  /// static segment. Must draw from the same underlying model as the
  /// per-frame CorruptionFn (fault::FaultModel::as_batch_fn does), or
  /// the two verdict streams desynchronise. Optional: without it the
  /// compiled walk draws per frame through the CorruptionFn.
  void set_batch_corruption(BatchCorruptionFn fn) {
    batch_corruption_ = std::move(fn);
  }

  /// Cycles executed by the compiled fast path vs. interpreted (either
  /// by mode, by policy capability, or by structural-fault fallback).
  [[nodiscard]] std::int64_t compiled_cycles() const {
    return compiled_cycles_;
  }
  [[nodiscard]] std::int64_t interpreted_cycles() const {
    return next_cycle_.value() - compiled_cycles_;
  }

  /// Execute the next `n` communication cycles.
  void run_cycles(std::int64_t n);

  /// Execute whole cycles until the cycle containing `t` has completed.
  void run_until(sim::Time t);

  [[nodiscard]] std::int64_t cycles_run() const { return next_cycle_.value(); }
  /// Simulated time reached: the end of the last executed cycle.
  [[nodiscard]] sim::Time now() const {
    return timing_.cycle_start(next_cycle_);
  }
  [[nodiscard]] const Channel& channel(ChannelId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const CycleTiming& timing() const { return timing_; }
  [[nodiscard]] const ClusterConfig& config() const {
    return timing_.config();
  }

  /// Total wire capacity of the dynamic segment so far (minislots
  /// elapsed across both channels), for utilization metrics.
  [[nodiscard]] std::int64_t dynamic_minislots_elapsed() const {
    return next_cycle_.value() * config().g_number_of_minislots * kNumChannels;
  }
  /// Total static slots elapsed across both channels.
  [[nodiscard]] std::int64_t static_slots_elapsed() const {
    return next_cycle_.value() * config().g_number_of_static_slots *
           kNumChannels;
  }

 private:
  void execute_cycle(units::CycleIndex cycle);
  /// Deliver every pending arrival with time <= `t`, in list order.
  void deliver_arrivals(sim::Time t);
  /// Time of the next undelivered arrival, or Time::max() when none.
  [[nodiscard]] sim::Time next_arrival_time() const {
    return next_arrival_ < arrivals_.size() ? arrivals_[next_arrival_].at
                                            : sim::Time::max();
  }
  void apply_topology_events(units::CycleIndex cycle, sim::Time at);
  void execute_static_segment(units::CycleIndex cycle);
  void execute_dynamic_segment(units::CycleIndex cycle, ChannelId channel);
  /// Phased static walk: decide → batched verdicts → commit, chunked at
  /// pending arrivals so they land between the same slots as in the
  /// interpreted walk.
  void execute_static_segment_compiled(units::CycleIndex cycle);
  /// Dynamic walk with delivery-check elision and idle-minislot skipping.
  void execute_dynamic_segment_compiled(units::CycleIndex cycle,
                                        ChannelId channel);
  /// True when this cycle may run the compiled walk (mode, policy
  /// capability, structural-fault quiescence over [start, end)).
  [[nodiscard]] bool compiled_cycle_allowed(sim::Time start,
                                            sim::Time end) const;

  /// Forced-corruption verdict for a frame that did reach the wire:
  /// babbling-idiot collision in its slot or an out-of-sync sender.
  [[nodiscard]] bool structural_corruption(const TxRequest& req,
                                           units::SlotId slot,
                                           ChannelId channel,
                                           sim::Time at) const;

  CycleTiming timing_;
  TransmissionPolicy& policy_;
  std::array<Channel, kNumChannels> channels_;
  sim::Trace* trace_;
  StructuralFaultProvider* faults_ = nullptr;
  units::CycleIndex next_cycle_{0};
  EngineMode mode_ = EngineMode::kCompiled;
  BatchCorruptionFn batch_corruption_;
  sim::Arena arena_;  ///< per-cycle transients (decisions, verdicts)
  std::vector<Arrival> arrivals_;  ///< sorted by time (set_arrivals)
  std::size_t next_arrival_ = 0;   ///< first undelivered arrival
  std::int64_t compiled_cycles_ = 0;
};

}  // namespace coeff::flexray
