#include "core/cycle_template.hpp"

#include <limits>
#include <stdexcept>

namespace coeff::core {

void CycleTemplate::rebuild(const sched::StaticScheduleTable& table,
                            const net::MessageSet& statics,
                            const std::unordered_map<int, int>* budget,
                            std::int64_t num_slots) {
  period_ = table.table_period_cycles();
  const auto slots = static_cast<std::size_t>(num_slots);
  slot_begin_.assign(slots, 0);
  slot_period_.assign(slots, 1);
  std::int64_t n = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    slot_begin_[s] = static_cast<std::size_t>(n);
    slot_period_[s] = table.slot_period_cycles(
        units::SlotId{static_cast<std::int64_t>(s) + 1});
    // A saturated slot period must fail the allocation, not wrap n.
    if (slot_period_[s] > std::numeric_limits<std::int64_t>::max() - n) {
      throw std::length_error("CycleTemplate: slot periods overflow");
    }
    n += slot_period_[s];
  }
  const auto cells = static_cast<std::size_t>(n);
  message_.assign(cells, nullptr);
  node_.assign(cells, -1);
  payload_bits_.assign(cells, 0);
  budget_.assign(cells, 0);
  first_cycle_.assign(cells, 0);

  for (std::int64_t slot = 1; slot <= num_slots; ++slot) {
    const units::SlotId id{slot};
    const std::int64_t period =
        slot_period_[static_cast<std::size_t>(slot - 1)];
    // A slot's occupancy only becomes periodic once every occupant's
    // phase has started (cycle >= its base). Sample the table at the
    // slot's steady-state horizon — the first multiple of its period at
    // or past its last base — and remember each placement's base as the
    // cell's first active cycle.
    const std::int64_t horizon =
        (table.slot_last_base(id).value() + period - 1) / period * period;
    for (std::int64_t row = 0; row < period; ++row) {
      const auto occupant =
          table.message_at(id, units::CycleIndex{horizon + row});
      if (!occupant.has_value()) continue;
      // Table entries whose ids are outside the base set (e.g. a
      // subclass's pre-planned clones) stay idle here; the subclass
      // resolves them through its own mapping.
      const net::Message* m = statics.find(*occupant);
      if (m == nullptr) continue;
      const std::size_t i = index(id, units::CycleIndex{row});
      message_[i] = m;
      node_[i] = m->node;
      payload_bits_[i] = m->size_bits;
      const sched::SlotAssignment* a = table.assignment_of(*occupant);
      first_cycle_[i] = a != nullptr ? a->base_cycle.value() : 0;
      if (budget != nullptr) {
        auto it = budget->find(m->id);
        if (it != budget->end()) budget_[i] = it->second;
      }
    }
  }
  ++version_;
}

}  // namespace coeff::core
