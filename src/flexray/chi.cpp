#include "flexray/chi.hpp"

#include <algorithm>
#include <stdexcept>

namespace coeff::flexray {

void StaticBufferSet::add_slot(units::SlotId slot) {
  if (slot.value() < 0) {
    throw std::invalid_argument("StaticBufferSet::add_slot: negative slot");
  }
  const auto idx = static_cast<std::size_t>(slot.value());
  if (idx >= buffers_.size()) buffers_.resize(idx + 1);
  buffers_[idx].owned = true;
}

bool StaticBufferSet::owns(units::SlotId slot) const {
  const auto idx = static_cast<std::size_t>(slot.value());
  return slot.value() >= 0 && idx < buffers_.size() && buffers_[idx].owned;
}

StaticBufferSet::Buffer* StaticBufferSet::owned_buffer(units::SlotId slot) {
  return owns(slot) ? &buffers_[static_cast<std::size_t>(slot.value())]
                    : nullptr;
}

bool StaticBufferSet::write(units::SlotId slot, PendingMessage msg) {
  Buffer* b = owned_buffer(slot);
  if (b == nullptr) {
    throw std::invalid_argument("StaticBufferSet::write: slot not owned");
  }
  const bool overwritten = b->full;
  b->msg = std::move(msg);
  b->full = true;
  return overwritten;
}

void StaticBufferSet::clear(units::SlotId slot) {
  if (Buffer* b = owned_buffer(slot)) b->full = false;
}

std::vector<units::SlotId> StaticBufferSet::owned_slots() const {
  std::vector<units::SlotId> slots;
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i].owned) {
      slots.push_back(units::SlotId{static_cast<std::int64_t>(i)});
    }
  }
  return slots;
}

std::vector<PendingMessage> StaticBufferSet::clear_all() {
  std::vector<PendingMessage> dropped;
  for (Buffer& b : buffers_) {  // ascending slot order
    if (b.full) {
      dropped.push_back(b.msg);
      b.full = false;
    }
  }
  return dropped;
}

std::size_t StaticBufferSet::pending_count() const {
  return static_cast<std::size_t>(
      std::count_if(buffers_.begin(), buffers_.end(),
                    [](const Buffer& b) { return b.full; }));
}

void DynamicQueue::push(PendingMessage msg) {
  const std::uint64_t seq = arrival_seq_++;
  // Insert before the first strictly-lower-urgency entry; equal
  // priorities stay FIFO.
  std::size_t pos = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].priority > msg.priority) {
      pos = i;
      break;
    }
  }
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(msg));
  ++version_;
  seqs_.insert(seqs_.begin() + static_cast<std::ptrdiff_t>(pos), seq);
}

std::optional<PendingMessage> DynamicQueue::peek(FrameId id) const {
  for (const auto& msg : queue_) {
    if (msg.frame_id == id) return msg;
  }
  return std::nullopt;
}

std::optional<PendingMessage> DynamicQueue::peek_head() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.front();
}

bool DynamicQueue::pop(std::uint64_t instance) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].instance == instance) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      seqs_.erase(seqs_.begin() + static_cast<std::ptrdiff_t>(i));
      ++version_;
      return true;
    }
  }
  return false;
}

std::vector<PendingMessage> DynamicQueue::drop_expired(sim::Time now) {
  return drop_if(
      [now](const PendingMessage& m) { return m.deadline < now; });
}

std::vector<PendingMessage> DynamicQueue::drop_if(
    const std::function<bool(const PendingMessage&)>& pred) {
  std::vector<PendingMessage> dropped;
  for (std::size_t i = 0; i < queue_.size();) {
    if (pred(queue_[i])) {
      dropped.push_back(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      seqs_.erase(seqs_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (!dropped.empty()) ++version_;
  return dropped;
}

std::vector<PendingMessage> Node::shutdown() {
  up_ = false;
  std::vector<PendingMessage> dropped = static_buffers_.clear_all();
  std::vector<PendingMessage> dyn =
      dynamic_queue_.drop_if([](const PendingMessage&) { return true; });
  dropped.insert(dropped.end(), dyn.begin(), dyn.end());
  return dropped;
}

}  // namespace coeff::flexray
