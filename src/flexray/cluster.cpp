#include "flexray/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace coeff::flexray {

Cluster::Cluster(const ClusterConfig& cfg, TransmissionPolicy& policy,
                 CorruptionFn corruption, sim::Trace* trace)
    : timing_(cfg),
      policy_(policy),
      channels_{Channel{ChannelId::kA, corruption},
                Channel{ChannelId::kB, corruption}},
      trace_(trace) {}

void Cluster::set_arrivals(std::vector<Arrival> arrivals) {
  if (next_cycle_.value() > 0) {
    throw std::logic_error("Cluster::set_arrivals: a cycle has already run");
  }
  std::stable_sort(
      arrivals.begin(), arrivals.end(),
      [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  arrivals_ = std::move(arrivals);
  next_arrival_ = 0;
}

void Cluster::deliver_arrivals(sim::Time t) {
  while (next_arrival_ < arrivals_.size() &&
         arrivals_[next_arrival_].at <= t) {
    const Arrival& a = arrivals_[next_arrival_++];
    policy_.on_dynamic_arrival(a.message_id, a.at);
  }
}

void Cluster::run_cycles(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    execute_cycle(next_cycle_);
    ++next_cycle_;
  }
}

void Cluster::run_until(sim::Time t) {
  while (timing_.cycle_start(next_cycle_) < t) {
    execute_cycle(next_cycle_);
    ++next_cycle_;
  }
}

bool Cluster::compiled_cycle_allowed(sim::Time start, sim::Time end) const {
  if (mode_ != EngineMode::kCompiled) return false;
  if (!policy_.compiled_capable()) return false;
  // The phased walk never computes per-slot structural corruption, so
  // it only runs through cycles where no babble/drift window can touch
  // the wire; availability (dark channels) changes only at cycle
  // boundaries and is handled by both walks identically.
  if (faults_ != nullptr && faults_->wire_faults_possible(start, end)) {
    return false;
  }
  return true;
}

void Cluster::execute_cycle(units::CycleIndex cycle) {
  const sim::Time start = timing_.cycle_start(cycle);
  deliver_arrivals(start);  // arrivals due before this cycle
  if (trace_) trace_->emit(start, sim::TraceKind::kCycleStart, cycle.value());
  policy_.on_cycle_start(cycle, start);
  apply_topology_events(cycle, start);

  const sim::Time end = timing_.cycle_start(cycle + 1);
  if (compiled_cycle_allowed(start, end)) {
    ++compiled_cycles_;
    arena_.reset();
    execute_static_segment_compiled(cycle);
    execute_dynamic_segment_compiled(cycle, ChannelId::kA);
    execute_dynamic_segment_compiled(cycle, ChannelId::kB);
  } else {
    execute_static_segment(cycle);
    execute_dynamic_segment(cycle, ChannelId::kA);
    execute_dynamic_segment(cycle, ChannelId::kB);
  }

  deliver_arrivals(end);
  policy_.on_cycle_end(cycle, end);
}

void Cluster::apply_topology_events(units::CycleIndex cycle, sim::Time at) {
  if (faults_ == nullptr) return;
  for (const TopologyEvent& ev : faults_->poll(at)) {
    switch (ev.kind) {
      case TopologyEventKind::kChannelDown:
        channels_[static_cast<std::size_t>(ev.channel)].set_available(false);
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kChannelDown,
                       static_cast<std::int64_t>(ev.channel), cycle.value());
        }
        break;
      case TopologyEventKind::kChannelUp:
        channels_[static_cast<std::size_t>(ev.channel)].set_available(true);
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kChannelUp,
                       static_cast<std::int64_t>(ev.channel), cycle.value());
        }
        break;
      case TopologyEventKind::kNodeCrash:
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kNodeCrash, ev.node.value(),
                       cycle.value());
        }
        break;
      case TopologyEventKind::kNodeRestart:
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kNodeRestart, ev.node.value(),
                       cycle.value());
        }
        break;
    }
    policy_.on_topology_event(ev, cycle, at);
  }
}

bool Cluster::structural_corruption(const TxRequest& req, units::SlotId slot,
                                    ChannelId channel, sim::Time at) const {
  if (faults_ == nullptr) return false;
  return faults_->slot_jammed(slot, channel, at) ||
         faults_->node_out_of_sync(req.sender, at);
}

void Cluster::execute_static_segment(units::CycleIndex cycle) {
  const ClusterConfig& cfg = config();
  for (units::SlotId slot{1};
       slot.value() <= cfg.g_number_of_static_slots; ++slot) {
    const sim::Time slot_start = timing_.static_slot_start(cycle, slot);
    deliver_arrivals(slot_start);
    for (auto& channel : channels_) {
      auto req = policy_.static_slot(channel.id(), cycle, slot);
      if (!req) continue;
      if (req->frame_id != units::to_frame_id(slot)) {
        throw std::logic_error(
            "Cluster: static frame id " +
            std::to_string(req->frame_id.value()) + " does not match slot " +
            std::to_string(slot.value()));
      }
      if (req->payload_bits > cfg.static_slot_capacity_bits()) {
        throw std::logic_error("Cluster: static payload exceeds slot capacity");
      }
      if (!channel.available()) {
        // Blackout: the frame never reaches the wire. The outcome is
        // still reported so the scheduler settles the copy instead of
        // waiting forever for a channel that cannot answer; nothing is
        // traced (receivers observe silence, not a corrupted frame).
        policy_.on_tx_complete(channel.lose(*req, slot_start,
                                            cfg.static_slot_duration(), cycle,
                                            slot, Segment::kStatic));
        continue;
      }
      // A static slot always occupies its full fixed duration on the wire.
      const TxOutcome out =
          channel.transmit(*req, slot_start, cfg.static_slot_duration(), cycle,
                           slot, Segment::kStatic,
                           structural_corruption(*req, slot, channel.id(),
                                                 slot_start));
      if (trace_) {
        trace_->emit(slot_start,
                     out.corrupted ? sim::TraceKind::kTxCorrupted
                                   : sim::TraceKind::kTxSuccess,
                     req->sender.value(), req->frame_id.value(),
                     static_cast<std::int64_t>(channel.id()),
                     req->payload_bits, req->retransmission ? "retx" : "");
        if (req->failover) {
          trace_->emit(slot_start, sim::TraceKind::kFailover,
                       req->sender.value(), slot.value(),
                       static_cast<std::int64_t>(channel.id()),
                       req->payload_bits);
        }
      }
      policy_.on_tx_complete(out);
    }
  }
}

void Cluster::execute_dynamic_segment(units::CycleIndex cycle, ChannelId cid) {
  const ClusterConfig& cfg = config();
  Channel& channel = channels_[static_cast<std::size_t>(cid)];
  units::MinislotId minislot{0};
  units::SlotId slot_counter{cfg.g_number_of_static_slots + 1};

  while (minislot.value() < cfg.g_number_of_minislots) {
    const sim::Time at = timing_.minislot_start(cycle, minislot);
    deliver_arrivals(at);
    const std::int64_t remaining =
        cfg.g_number_of_minislots - minislot.value();
    auto req =
        policy_.dynamic_slot(cid, cycle, slot_counter, minislot, remaining);
    bool sent = false;
    if (req) {
      const std::int64_t need = cfg.minislots_for(req->payload_bits);
      // FTDMA rule: a transmission may start only at or before pLatestTx
      // and must complete within the dynamic segment.
      const bool starts_in_time = minislot + 1 <= cfg.latest_tx_minislot();
      if (starts_in_time && need <= remaining) {
        const sim::Time tx_start =
            at + units::to_time(cfg.gd_minislot_action_point_offset,
                                cfg.gd_macrotick);
        if (!channel.available()) {
          // Blackout: the sender clocks its frame into a dark wire —
          // FTDMA timing advances exactly as for a real send, but the
          // frame is lost and nothing is traced or charged to stats.
          policy_.on_tx_complete(
              channel.lose(*req, tx_start,
                           cfg.transmission_time(req->payload_bits), cycle,
                           slot_counter, Segment::kDynamic));
          minislot = minislot + need;
          sent = true;
          ++slot_counter;
          continue;
        }
        const TxOutcome out =
            channel.transmit(*req, tx_start,
                             cfg.transmission_time(req->payload_bits), cycle,
                             slot_counter, Segment::kDynamic,
                             structural_corruption(*req, slot_counter,
                                                   channel.id(), tx_start));
        channel.account_minislots(need);
        if (trace_) {
          trace_->emit(tx_start,
                       out.corrupted ? sim::TraceKind::kTxCorrupted
                                     : sim::TraceKind::kTxSuccess,
                       req->sender.value(), req->frame_id.value(),
                       static_cast<std::int64_t>(cid), req->payload_bits,
                       req->retransmission ? "retx" : "");
        }
        policy_.on_tx_complete(out);
        minislot = minislot + need;
        sent = true;
      } else {
        policy_.on_dynamic_declined(cid, cycle, *req);
      }
    }
    if (!sent) {
      ++minislot;  // empty dynamic slot consumes exactly one minislot
    }
    ++slot_counter;
  }
}

// --- Compiled cycle walk (DESIGN.md §12) --------------------------------
//
// Equivalence argument, in brief: a compiled_capable() policy promises
// its slot decisions never read state written by same-cycle
// on_tx_complete calls, so a run of static-slot decisions can be taken
// before any of their outcomes commit as long as (a) decisions keep the
// interpreted call order (slot-major, channel A before B), (b) commits
// keep that same order, and (c) no arrival is delivered inside the run —
// arrivals do mutate decision state, so a pending arrival bounds the
// chunk and is delivered at exactly the sequence point the interpreted
// walk would deliver it (between the previous slot's commit and the
// next slot's decision). Verdicts are drawn per chunk in wire
// order through the batch hook, which walks the same model the
// CorruptionFn wraps — an identical verdict stream.

void Cluster::execute_static_segment_compiled(units::CycleIndex cycle) {
  const ClusterConfig& cfg = config();
  const std::int64_t nslots = cfg.g_number_of_static_slots;
  const sim::Time slot_duration = cfg.static_slot_duration();

  /// One honoured static-slot request, staged between decision and
  /// commit. Trivially destructible: lives in the per-cycle arena.
  struct Decision {
    TxRequest req;
    sim::Time slot_start;
    std::int64_t slot;
    std::uint8_t channel;
    bool lost;  ///< channel dark: lose() instead of transmit()
  };
  Decision* decisions =
      arena_.allocate<Decision>(static_cast<std::size_t>(2 * nslots));

  std::int64_t slot = 1;
  // Slot starts form an arithmetic sequence; one anchor lookup replaces
  // a per-slot timing call (same value: static_slot_start(c, s) =
  // anchor + duration * (s - 1)).
  const sim::Time seg_base = timing_.static_slot_start(cycle, units::SlotId{1});
  // The arrival cursor only moves inside deliver_arrivals, so the next
  // arrival time is re-read only after a delivery, not once per slot.
  sim::Time next_arrival = next_arrival_time();
  while (slot <= nslots) {
    // Chunk = maximal run of slots strictly before the next arrival; an
    // arrival due at or before this slot's start is delivered first,
    // exactly as the interpreted walk's per-slot delivery would.
    const sim::Time slot_start = seg_base + slot_duration * (slot - 1);
    if (next_arrival <= slot_start) {
      deliver_arrivals(slot_start);
      next_arrival = next_arrival_time();
    }
    // Largest s with seg_base + duration * (s - 1) < next_arrival; the
    // subtraction cannot underflow because slot_start < next_arrival.
    std::int64_t chunk_end =
        1 + ((next_arrival - seg_base).ns() - 1) / slot_duration.ns();
    if (chunk_end > nslots) chunk_end = nslots;

    // Decide phase: interpreted call order, no commits yet. The policy
    // may serve the whole chunk from its batched fast path; the sink
    // re-applies the per-request validation the interpreted walk does.
    struct DecisionSink final : TransmissionPolicy::StaticChunkSink {
      Cluster* cluster;
      units::CycleIndex cycle;
      sim::Time seg_base;
      sim::Time slot_duration;
      std::int64_t capacity_bits;
      Decision* decisions;
      std::size_t n_decisions = 0;
      std::size_t n_wire = 0;
      void stage(units::SlotId slot, ChannelId channel,
                 const TxRequest& req) override {
        if (req.frame_id != units::to_frame_id(slot)) {
          throw std::logic_error(
              "Cluster: static frame id " +
              std::to_string(req.frame_id.value()) +
              " does not match slot " + std::to_string(slot.value()));
        }
        if (req.payload_bits > capacity_bits) {
          throw std::logic_error(
              "Cluster: static payload exceeds slot capacity");
        }
        Decision& d = decisions[n_decisions++];
        d.req = req;
        d.slot_start = seg_base + slot_duration * (slot.value() - 1);
        d.slot = slot.value();
        d.channel = static_cast<std::uint8_t>(channel);
        d.lost = !cluster->channels_[static_cast<std::size_t>(channel)]
                      .available();
        if (!d.lost) ++n_wire;
      }
    };
    DecisionSink sink;
    sink.cluster = this;
    sink.cycle = cycle;
    sink.seg_base = seg_base;
    sink.slot_duration = slot_duration;
    sink.capacity_bits = cfg.static_slot_capacity_bits();
    sink.decisions = decisions;
    policy_.decide_static_chunk(cycle, slot, chunk_end, sink);
    const std::size_t n_decisions = sink.n_decisions;
    const std::size_t n_wire = sink.n_wire;

    // Verdict phase: one batched draw over the chunk's wire frames, in
    // wire order. Falls back to per-frame draws at commit when no batch
    // hook is installed.
    bool* verdicts = nullptr;
    if (batch_corruption_ && n_wire > 0) {
      VerdictQuery* queries = arena_.allocate<VerdictQuery>(n_wire);
      verdicts = arena_.allocate<bool>(n_wire);
      std::size_t qi = 0;
      for (std::size_t i = 0; i < n_decisions; ++i) {
        if (decisions[i].lost) continue;
        queries[qi].request = &decisions[i].req;
        queries[qi].channel = static_cast<ChannelId>(decisions[i].channel);
        queries[qi].start = decisions[i].slot_start;
        ++qi;
      }
      batch_corruption_(queries, n_wire, verdicts);
    }

    // Commit phase: same order as the decisions; traces and policy
    // callbacks land exactly where the interpreted walk puts them.
    std::size_t vi = 0;
    for (std::size_t i = 0; i < n_decisions; ++i) {
      const Decision& d = decisions[i];
      Channel& channel = channels_[d.channel];
      if (d.lost) {
        policy_.on_tx_complete(channel.lose(d.req, d.slot_start, slot_duration,
                                            cycle, units::SlotId{d.slot},
                                            Segment::kStatic));
        continue;
      }
      // No structural corruption here: the compiled walk only runs
      // through wire-fault-quiescent cycles (compiled_cycle_allowed).
      const TxOutcome out =
          verdicts != nullptr
              ? channel.transmit_with_verdict(
                    d.req, d.slot_start, slot_duration, cycle,
                    units::SlotId{d.slot}, Segment::kStatic, verdicts[vi++])
              : channel.transmit(d.req, d.slot_start, slot_duration, cycle,
                                 units::SlotId{d.slot}, Segment::kStatic);
      if (trace_) {
        trace_->emit(d.slot_start,
                     out.corrupted ? sim::TraceKind::kTxCorrupted
                                   : sim::TraceKind::kTxSuccess,
                     d.req.sender.value(), d.req.frame_id.value(),
                     static_cast<std::int64_t>(d.channel), d.req.payload_bits,
                     d.req.retransmission ? "retx" : "");
        if (d.req.failover) {
          trace_->emit(d.slot_start, sim::TraceKind::kFailover,
                       d.req.sender.value(), d.slot,
                       static_cast<std::int64_t>(d.channel),
                       d.req.payload_bits);
        }
      }
      policy_.on_tx_complete(out);
    }

    slot = chunk_end + 1;
  }
}

void Cluster::execute_dynamic_segment_compiled(units::CycleIndex cycle,
                                               ChannelId cid) {
  const ClusterConfig& cfg = config();
  Channel& channel = channels_[static_cast<std::size_t>(cid)];
  const std::int64_t nminislots = cfg.g_number_of_minislots;
  const sim::Time minislot_duration = cfg.minislot_duration();
  units::MinislotId minislot{0};
  units::SlotId slot_counter{cfg.g_number_of_static_slots + 1};

  // Same caching as the static walk: one re-read per delivery replaces
  // one per minislot.
  sim::Time next_arrival = next_arrival_time();
  while (minislot.value() < nminislots) {
    const sim::Time at = timing_.minislot_start(cycle, minislot);
    if (next_arrival <= at) {
      deliver_arrivals(at);
      next_arrival = next_arrival_time();
    }
    const std::int64_t remaining = nminislots - minislot.value();
    auto req =
        policy_.dynamic_slot(cid, cycle, slot_counter, minislot, remaining);
    bool sent = false;
    if (req) {
      const std::int64_t need = cfg.minislots_for(req->payload_bits);
      const bool starts_in_time = minislot + 1 <= cfg.latest_tx_minislot();
      if (starts_in_time && need <= remaining) {
        const sim::Time tx_start =
            at + units::to_time(cfg.gd_minislot_action_point_offset,
                                cfg.gd_macrotick);
        if (!channel.available()) {
          policy_.on_tx_complete(
              channel.lose(*req, tx_start,
                           cfg.transmission_time(req->payload_bits), cycle,
                           slot_counter, Segment::kDynamic));
          minislot = minislot + need;
          sent = true;
          ++slot_counter;
          continue;
        }
        const TxOutcome out = channel.transmit(
            *req, tx_start, cfg.transmission_time(req->payload_bits), cycle,
            slot_counter, Segment::kDynamic);
        channel.account_minislots(need);
        if (trace_) {
          trace_->emit(tx_start,
                       out.corrupted ? sim::TraceKind::kTxCorrupted
                                     : sim::TraceKind::kTxSuccess,
                       req->sender.value(), req->frame_id.value(),
                       static_cast<std::int64_t>(cid), req->payload_bits,
                       req->retransmission ? "retx" : "");
        }
        policy_.on_tx_complete(out);
        minislot = minislot + need;
        sent = true;
      } else {
        policy_.on_dynamic_declined(cid, cycle, *req);
      }
    }
    if (!sent) {
      // Idle (or declined) minislot. When the policy can prove the next
      // possible transmission sits at a higher slot counter, skip the
      // idle minislots in one jump — each skipped decision would have
      // been a side-effect-free nullopt. Arrivals bound the jump: a
      // pending arrival may enqueue a frame for any counter, so no
      // minislot at or past its timestamp is skipped.
      std::int64_t extra = 0;
      if (!req) {
        const std::int64_t next_frame =
            policy_.dynamic_next_frame(cid, slot_counter.value() + 1);
        std::int64_t by_frame =
            next_frame == kNoDynamicFrame
                ? nminislots - 1 - minislot.value()
                : next_frame - slot_counter.value() - 1;
        if (next_arrival < sim::Time::max()) {
          // Largest i with minislot_start(minislot + i) < next_arrival.
          const std::int64_t gap_ns = (next_arrival - at).ns() - 1;
          const std::int64_t by_arrival =
              gap_ns < 0 ? 0 : gap_ns / minislot_duration.ns();
          if (by_arrival < by_frame) by_frame = by_arrival;
        }
        if (by_frame > 0) extra = by_frame;
      }
      minislot = minislot + (1 + extra);
      slot_counter = slot_counter + extra;
    }
    ++slot_counter;
  }
}

}  // namespace coeff::flexray
