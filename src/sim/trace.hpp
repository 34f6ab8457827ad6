// Structured trace recorder.
//
// Components emit typed records (transmission outcome, retransmission,
// plan swap, structural fault, ...) tagged with the simulated timestamp. Tests
// and benches filter the log to assert on protocol-level behaviour
// without coupling to component internals. Recording can be disabled
// for long benchmark runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace coeff::sim {

enum class TraceKind : std::uint8_t {
  kCycleStart,
  kTxSuccess,
  kTxCorrupted,
  kRetransmissionScheduled,
  kDeadlineMiss,
  kBerDrift,   ///< monitor detected BER drift; a=cycle, note carries estimate
  kPlanSwap,   ///< online re-plan swapped in; a=cycle, b=total copies, c=degraded
  kLoadShed,   ///< degraded mode shed a dynamic frame; a=message id, b=node
  // Structural fault domain (node/channel topology). All four state
  // transitions are applied at cycle boundaries, so `at` must coincide
  // with the enclosing kCycleStart timestamp (trace.structural-boundary).
  kNodeCrash,     ///< ECU went down; a=node, b=cycle
  kNodeRestart,   ///< ECU reintegrated; a=node, b=cycle
  kChannelDown,   ///< channel blackout began; a=channel, b=cycle
  kChannelUp,     ///< channel recovered; a=channel, b=cycle
  kFailover,      ///< static frame re-homed to surviving channel; a=node,
                  ///< b=slot, c=carrying channel, d=payload bits
  kVoteResolved,  ///< replica vote settled; a=message, b=accepted(0/1),
                  ///< c=clean replicas, d=replica count k
  kTemplateRebuild,  ///< compiled cycle template rebuilt; a=cycle,
                     ///< b=template version, c=trigger (see TemplateRebuildWhy)
  // Mixed-criticality mode-change protocol. Mode swaps happen only at
  // cycle boundaries (trace.mode-change-boundary); sheds only in a
  // degraded mode (trace.shed-outside-degraded); match-up re-admission
  // only after the recovery window has elapsed back in NORMAL
  // (trace.matchup-before-recovery).
  kModeChange,  ///< criticality mode swapped; a=from, b=to, c=cycle,
                ///< d=recovery window (cycles), note carries drift ratio
  kShedByMode,  ///< degraded mode shed a dynamic frame by criticality;
                ///< a=message id, b=node, c=current mode, d=criticality
  kMatchUp,     ///< shed traffic re-admitted after recovery; a=message id,
                ///< b=node, c=cycle, d=criticality
  kInfo,
};

/// Number of TraceKind enumerators (kInfo is last). Keep in sync when
/// adding kinds; the exhaustive-switch test in trace_test.cpp and the
/// trace linter both iterate [0, kTraceKindCount).
inline constexpr int kTraceKindCount = static_cast<int>(TraceKind::kInfo) + 1;

[[nodiscard]] const char* to_string(TraceKind k);

struct TraceRecord {
  Time at;
  TraceKind kind;
  // Generic integer tags; meaning depends on kind (documented at the
  // emission site): typically node id, frame/message id, channel, and
  // (for transmissions) payload bits in `d`.
  std::int64_t a = -1;
  std::int64_t b = -1;
  std::int64_t c = -1;
  std::int64_t d = -1;
  std::string note;
};

class Trace {
 public:
  /// Recording defaults to on; long benchmark runs disable it.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void emit(Time at, TraceKind kind, std::int64_t a = -1, std::int64_t b = -1,
            std::int64_t c = -1, std::int64_t d = -1, std::string note = {});

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t count(TraceKind kind) const;
  void clear() { records_.clear(); }

  /// Render the whole trace, one line per record (debugging aid).
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<TraceRecord> records_;
  bool enabled_ = true;
};

}  // namespace coeff::sim
