// Message-instance lifecycle tracking shared by all schemes.
//
// Instances live in an index-addressed slab (DESIGN.md §17): one ring
// per message *position* (the scheduler resolves a message to its
// position once, at construction), addressed by an opaque handle that
// packs (position, release index). A lookup is an index computation and
// one liveness compare — no hashing on the per-cycle paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace coeff::core {

/// One released instance (job) of a message and the transmissions the
/// active scheme still owes for it.
struct Instance {
  /// Slab handle (InstanceStore::make_key); 0 once settled — a live
  /// instance never carries 0.
  std::uint64_t key = 0;
  std::int64_t index = 0;  ///< k-th release of its message
  std::int64_t size_bits = 0;
  sim::Time release;
  sim::Time abs_deadline;
  sim::Time delivered_at;
  int message_id = 0;
  int node = 0;
  /// Total wire transmissions owed (scheme-specific: primaries, planned
  /// retransmission copies, mirror rounds). May be reduced if copies are
  /// cancelled (no slack before the deadline / queue expiry).
  int copies_required = 1;
  int copies_sent = 0;
  // --- NMR replica voting (0 = plain first-success acceptance) ---------
  /// Number of replicas in the vote; delivery requires a strict majority
  /// (vote_k / 2 + 1) of uncorrupted replicas instead of a single
  /// success.
  int vote_k = 0;
  int vote_ok = 0;              ///< uncorrupted replicas observed so far
  net::MessageKind kind = net::MessageKind::kStatic;
  bool delivered = false;       ///< an uncorrupted copy landed in time
  bool miss_recorded = false;   ///< deadline passed undelivered (counted)
  bool vote_settled = false;    ///< kVoteResolved emitted for this instance
};

/// Slab of live instances: one power-of-two ring per message position.
///
/// A ring holds the release indices [head, tail) of its message, where
/// head is the oldest live one; index i sits in cell i mod capacity. A
/// ring grows (doubling) only when one message has more instances
/// between its oldest live one and the newest than it has cells — a
/// function of deadlines and queue backlog, not of the run window.
/// Rings never shrink, so capacity() is the run's high water.
class InstanceStore {
 public:
  /// Low handle bits carry the release index, the rest position + 1.
  static constexpr int kIndexBits = 40;
  static constexpr std::uint64_t kIndexMask =
      (std::uint64_t{1} << kIndexBits) - 1;
  /// Cells per ring at construction. Eight covers every message of the
  /// loaded figure configuration when expired dynamics are dropped
  /// (bursts of three stack up to eight live releases of one dynamic
  /// message under FSPEC/HOSA), so those runs never re-seat a ring.
  static constexpr std::size_t kInitialRing = 8;

  InstanceStore() = default;
  /// One ring per position; `message_ids[p]` is the id of the message at
  /// position p. Settlement walks the rings in ascending (message id,
  /// position) order.
  explicit InstanceStore(const std::vector<int>& message_ids)
      : ids_(message_ids), rings_(message_ids.size()) {
    for (Ring& r : rings_) r.cells.resize(kInitialRing);
    capacity_ = rings_.size() * kInitialRing;
    order_.resize(ids_.size());
    for (std::size_t p = 0; p < order_.size(); ++p) order_[p] = p;
    std::stable_sort(order_.begin(), order_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return ids_[a] < ids_[b];
                     });
  }

  /// Handle of release `index` at `position`. Never 0, the "no
  /// instance" value CHI entries and round trains use.
  [[nodiscard]] static std::uint64_t make_key(std::size_t position,
                                              std::int64_t index) {
    return (static_cast<std::uint64_t>(position + 1) << kIndexBits) |
           (static_cast<std::uint64_t>(index) & kIndexMask);
  }
  /// Position a handle was issued for (SIZE_MAX for handle 0).
  [[nodiscard]] static std::size_t position_of(std::uint64_t key) {
    return static_cast<std::size_t>(key >> kIndexBits) - 1;
  }

  /// Start tracking release `index` of the message at `position`.
  /// Indices of one position must be created in increasing order (gaps
  /// are fine: an index that is never created is simply not live).
  Instance& create(std::size_t position, std::int64_t index) {
    Ring& r = rings_.at(position);
    if (index < r.tail || static_cast<std::uint64_t>(index) > kIndexMask) {
      throw std::logic_error("InstanceStore::create: index out of order");
    }
    if (r.live == 0) r.head = index;
    if (static_cast<std::uint64_t>(index - r.head) >= r.cells.size()) {
      grow(r, position, index - r.head + 1);
    }
    r.tail = index + 1;
    ++r.live;
    ++live_;
    Instance& inst = r.cells[cell(r, index)];
    inst = Instance{};
    inst.key = make_key(position, index);
    inst.message_id = ids_[position];
    inst.index = index;
    return inst;
  }

  /// The live instance behind `key`, or nullptr when it was settled,
  /// its cell has been reused by a later release, or it never existed.
  [[nodiscard]] Instance* find(std::uint64_t key) {
    const std::size_t position = position_of(key);
    if (position >= rings_.size()) return nullptr;
    Ring& r = rings_[position];
    Instance& inst =
        r.cells[cell(r, static_cast<std::int64_t>(key & kIndexMask))];
    return inst.key == key ? &inst : nullptr;
  }

  /// Visit every live instance in settlement order — rings by ascending
  /// (message id, position), each ring by release index — and settle
  /// (drop) those for which `settle` returns true. `settle` must not
  /// create instances.
  template <typename F>
  void settle_if(F&& settle) {
    for (const std::size_t position : order_) {
      Ring& r = rings_[position];
      if (r.live == 0) continue;
      std::int64_t oldest = r.tail;
      for (std::int64_t i = r.head; i < r.tail; ++i) {
        Instance& inst = r.cells[cell(r, i)];
        if (inst.key != make_key(position, i)) continue;
        if (settle(inst)) {
          inst.key = 0;
          --r.live;
          --live_;
        } else if (oldest == r.tail) {
          oldest = i;
        }
      }
      r.head = oldest;
    }
  }

  /// Live instances.
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Ring cells allocated over all positions: the run's high water.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Ring {
    std::vector<Instance> cells;  ///< power-of-two size
    std::int64_t head = 0;  ///< oldest live index (== tail when empty)
    std::int64_t tail = 0;  ///< one past the newest created index
    std::size_t live = 0;
  };

  [[nodiscard]] static std::size_t cell(const Ring& r, std::int64_t index) {
    return static_cast<std::size_t>(index) & (r.cells.size() - 1);
  }

  /// Re-seat the live window [head, tail) into a ring of at least
  /// `span` cells.
  void grow(Ring& r, std::size_t position, std::int64_t span) {
    std::size_t size = r.cells.size();
    while (size < static_cast<std::size_t>(span)) size *= 2;
    std::vector<Instance> cells(size);
    for (std::int64_t i = r.head; i < r.tail; ++i) {
      const Instance& inst = r.cells[cell(r, i)];
      if (inst.key == make_key(position, i)) {
        cells[static_cast<std::size_t>(i) & (size - 1)] = inst;
      }
    }
    capacity_ += size - r.cells.size();
    r.cells = std::move(cells);
  }

  std::vector<int> ids_;             ///< message id by position
  std::vector<Ring> rings_;          ///< by position
  std::vector<std::size_t> order_;   ///< positions in settlement order
  std::size_t live_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace coeff::core
