// Channel-B replay staging for the plain-mirroring schemes (FSPEC,
// HOSA): what channel A carried in the dynamic segment this cycle, in a
// flat array indexed by dynamic slot counter. The cluster walks A's
// dynamic segment before B's, so B replays what A staged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "flexray/bus.hpp"
#include "flexray/policy.hpp"
#include "units/units.hpp"

namespace coeff::core {

class DynamicMirror {
 public:
  DynamicMirror() = default;
  /// `frames`: one past the largest dynamic frame id A can send in.
  explicit DynamicMirror(std::size_t frames)
      : requests_(frames), staged_(frames, 0) {}

  /// Channel A sent `req` in dynamic slot `slot_counter`.
  void stage(units::SlotId slot_counter, const flexray::TxRequest& req) {
    const auto i = static_cast<std::size_t>(slot_counter.value());
    requests_[i] = req;
    if (staged_[i] == 0) ++count_;
    staged_[i] = 1;
  }

  /// The request staged for `slot_counter`, removed; nullopt if none.
  std::optional<flexray::TxRequest> take(units::SlotId slot_counter) {
    const auto i = static_cast<std::size_t>(slot_counter.value());
    if (slot_counter.value() < 0 || i >= staged_.size() || staged_[i] == 0) {
      return std::nullopt;
    }
    staged_[i] = 0;
    --count_;
    return requests_[i];
  }

  /// Smallest staged slot counter >= `min_frame`, or
  /// flexray::kNoDynamicFrame.
  [[nodiscard]] std::int64_t next_frame(std::int64_t min_frame) const {
    if (count_ == 0) return flexray::kNoDynamicFrame;
    for (auto i = static_cast<std::size_t>(std::max<std::int64_t>(min_frame, 0));
         i < staged_.size(); ++i) {
      if (staged_[i] != 0) return static_cast<std::int64_t>(i);
    }
    return flexray::kNoDynamicFrame;
  }

  /// Unstage every request for which `pred` returns true.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    if (count_ == 0) return;
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      if (staged_[i] != 0 && pred(requests_[i])) {
        staged_[i] = 0;
        --count_;
      }
    }
  }

 private:
  std::vector<flexray::TxRequest> requests_;  ///< by slot counter
  std::vector<char> staged_;                  ///< 1 = requests_[i] pending
  std::size_t count_ = 0;
};

}  // namespace coeff::core
