#include "runtime/membership.h"

#include <algorithm>

#include "common/check.h"

namespace driftsync::runtime {

std::size_t MembershipTable::lower_bound(ProcId peer) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), peer,
      [this](std::uint32_t slot, ProcId p) { return slots_[slot].peer < p; });
  return static_cast<std::size_t>(it - index_.begin());
}

PeerState* MembershipTable::find_any(ProcId peer) {
  const std::size_t pos = lower_bound(peer);
  if (pos == index_.size() || slots_[index_[pos]].peer != peer) return nullptr;
  return &slots_[index_[pos]];
}

const PeerState* MembershipTable::find_any(ProcId peer) const {
  const std::size_t pos = lower_bound(peer);
  if (pos == index_.size() || slots_[index_[pos]].peer != peer) return nullptr;
  return &slots_[index_[pos]];
}

PeerState& MembershipTable::admit(ProcId peer, bool* newly_active) {
  DS_CHECK(peer != kInvalidProc);
  const std::size_t pos = lower_bound(peer);
  if (pos < index_.size() && slots_[index_[pos]].peer == peer) {
    PeerState& s = slots_[index_[pos]];
    if (s.active) {
      if (newly_active != nullptr) *newly_active = false;
      return s;  // idempotent join
    }
    // Reactivation: the journaled wire frontier survives, health does not.
    s.active = true;
    s.reset_health();
    ++active_;
    if (newly_active != nullptr) *newly_active = true;
    return s;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  PeerState& s = slots_.emplace_back();
  s.peer = peer;
  s.active = true;
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(pos), slot);
  ++active_;
  if (newly_active != nullptr) *newly_active = true;
  return s;
}

bool MembershipTable::retire(ProcId peer) {
  PeerState* s = find_any(peer);
  if (s == nullptr || !s->active) return false;
  s->active = false;
  DS_CHECK(active_ > 0);
  --active_;
  return true;
}

}  // namespace driftsync::runtime
