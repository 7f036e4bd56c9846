#include "membership/partial_view.h"

#include <algorithm>

#include "common/assert.h"

namespace gocast::membership {

PartialView::PartialView(NodeId self, std::size_t capacity, Rng rng,
                         std::shared_ptr<LandmarkStore> store)
    : self_(self),
      capacity_(capacity),
      rng_(std::move(rng)),
      store_(store != nullptr ? std::move(store)
                              : std::make_shared<LandmarkStore>()) {
  GOCAST_ASSERT(capacity_ >= 1);
  // Exact-fit, once: gossip fills every view to capacity in any warmed
  // deployment, so reserving the final size up front costs the same bytes
  // the view ends at anyway — while the doubling path would leave each
  // node's outgrown buffers (~half the final footprint) stranded in the
  // allocator as fragmentation no large run ever gets back.
  entries_.reserve(capacity_);
  // Table sized for capacity_ entries at <= 7/8 load, fixed for the view's
  // lifetime.
  std::size_t slots = 4;
  while (slots * 7 < (capacity_ + 1) * 8) slots <<= 1;
  index_.assign(slots, kEmptySlot);
  index_mask_ = slots - 1;
}

std::uint32_t PartialView::lookup(NodeId id) const {
  std::size_t i = probe_start(id);
  for (;;) {
    std::uint32_t s = index_[i];
    if (s == kEmptySlot) return kEmptySlot;
    if (s != kDeadSlot && entries_[s].id == id) return s;
    i = (i + 1) & index_mask_;
  }
}

void PartialView::index_insert(NodeId id, std::uint32_t pos) {
  if ((entries_.size() + index_dead_ + 1) * 8 > index_.size() * 7) {
    index_rebuild();
  }
  std::size_t i = probe_start(id);
  for (;;) {
    std::uint32_t s = index_[i];
    if (s == kEmptySlot || s == kDeadSlot) {
      if (s == kDeadSlot) --index_dead_;
      index_[i] = pos;
      return;
    }
    if (entries_[s].id == id) {
      // Already mapped: the eviction path overwrites the victim entry
      // before re-indexing it, so a rebuild triggered just above has
      // indexed the new id already. Inserting again would leave a
      // duplicate slot that later turns into a stale alias.
      index_[i] = pos;
      return;
    }
    i = (i + 1) & index_mask_;
  }
}

void PartialView::index_erase(NodeId id) {
  std::size_t i = probe_start(id);
  for (;;) {
    std::uint32_t s = index_[i];
    if (s == kEmptySlot) return;
    if (s != kDeadSlot && entries_[s].id == id) {
      index_[i] = kDeadSlot;
      ++index_dead_;
      return;
    }
    i = (i + 1) & index_mask_;
  }
}

void PartialView::index_update(NodeId id, std::uint32_t pos) {
  std::size_t i = probe_start(id);
  for (;;) {
    std::uint32_t s = index_[i];
    GOCAST_ASSERT(s != kEmptySlot);
    if (s != kDeadSlot && entries_[s].id == id) {
      index_[i] = pos;
      return;
    }
    i = (i + 1) & index_mask_;
  }
}

void PartialView::index_rebuild() {
  std::fill(index_.begin(), index_.end(), kEmptySlot);
  index_dead_ = 0;
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    std::size_t i = probe_start(entries_[pos].id);
    while (index_[i] != kEmptySlot) i = (i + 1) & index_mask_;
    index_[i] = pos;
  }
}

PartialView::~PartialView() {
  if (store_ == nullptr) return;  // moved-from
  for (const CompactEntry& e : entries_) store_->release(e.lm);
}

void PartialView::insert(const MemberEntry& entry) {
  if (entry.id == self_ || entry.id == kInvalidNode) return;

  std::uint32_t pos = lookup(entry.id);
  if (pos != kEmptySlot) {
    CompactEntry& existing = entries_[pos];
    if (entry.heard_at >= existing.heard_at) {
      // Intern before releasing: a refresh with the same vector just bumps
      // and drops the refcount instead of recycling the slot.
      LandmarkStore::Handle lm = store_->intern(entry.landmark_rtt);
      store_->release(existing.lm);
      existing.lm = lm;
      existing.heard_at = std::max(existing.heard_at, entry.heard_at);
    }
    return;
  }

  if (entries_.size() >= capacity_) {
    // Uniform random eviction keeps the view an (approximately) uniform
    // sample of the membership stream. The index erase must precede the
    // slot overwrite: probes resolve ids through the entry they point at.
    std::size_t victim = static_cast<std::size_t>(rng_.next_below(entries_.size()));
    if (join_defense_) first_advertiser_.erase(entries_[victim].id);
    index_erase(entries_[victim].id);
    store_->release(entries_[victim].lm);
    entries_[victim] = CompactEntry{entry.id, store_->intern(entry.landmark_rtt),
                                    entry.heard_at};
    index_insert(entry.id, static_cast<std::uint32_t>(victim));
    return;
  }

  index_insert(entry.id, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(CompactEntry{entry.id, store_->intern(entry.landmark_rtt),
                                  entry.heard_at});
}

void PartialView::integrate(std::span<const MemberEntry> entries) {
  for (const MemberEntry& e : entries) insert(e);
}

void PartialView::integrate_from(NodeId from,
                                 std::span<const MemberEntry> entries) {
  if (!join_defense_) {
    integrate(entries);
    return;
  }
  std::size_t budget = kMaxNewPerSource;
  for (const MemberEntry& e : entries) {
    if (e.id == self_ || e.id == kInvalidNode) continue;
    if (lookup(e.id) == kEmptySlot) {
      if (budget == 0) continue;  // diversity cap: this advertiser is done
      --budget;
      // First sighting: remember who vouched. (A node advertising itself
      // counts as its own first voucher — corroboration needs a second,
      // distinct one.)
      first_advertiser_.try_emplace(e.id, from);
    } else {
      auto it = first_advertiser_.find(e.id);
      if (it != first_advertiser_.end() && it->second != from) {
        first_advertiser_.erase(it);  // second distinct voucher
      }
    }
    insert(e);
  }
}

void PartialView::remove(NodeId id) {
  if (join_defense_) first_advertiser_.erase(id);
  std::uint32_t pos = lookup(id);
  if (pos == kEmptySlot) return;
  std::uint32_t last = static_cast<std::uint32_t>(entries_.size() - 1);
  store_->release(entries_[pos].lm);
  index_erase(id);
  if (pos != last) {
    NodeId moved = entries_[last].id;
    entries_[pos] = entries_[last];
    index_update(moved, pos);
  }
  entries_.pop_back();
  if (cursor_ > entries_.size()) cursor_ = 0;
}

bool PartialView::contains(NodeId id) const {
  return lookup(id) != kEmptySlot;
}

std::optional<MemberEntry> PartialView::find(NodeId id) const {
  std::uint32_t pos = lookup(id);
  if (pos == kEmptySlot) return std::nullopt;
  return entry_at(pos);
}

MemberEntry PartialView::entry_at(std::size_t pos) const {
  const CompactEntry& e = entries_[pos];
  MemberEntry out;
  out.id = e.id;
  out.landmark_rtt = store_->get(e.lm);
  out.heard_at = e.heard_at;
  return out;
}

NodeId PartialView::random_member() {
  if (entries_.empty()) return kInvalidNode;
  return entries_[static_cast<std::size_t>(rng_.next_below(entries_.size()))].id;
}

std::vector<MemberEntry> PartialView::sample(std::size_t k) {
  // Reservoir-sample positions over the compact slots — the draw sequence
  // depends only on (size, k), so it matches the pre-interning sample()
  // byte for byte — then materialize the winners.
  std::vector<CompactEntry> picked = rng_.sample(entries_, k);
  std::vector<MemberEntry> out;
  out.reserve(picked.size());
  for (const CompactEntry& e : picked) {
    MemberEntry m;
    m.id = e.id;
    m.landmark_rtt = store_->get(e.lm);
    m.heard_at = e.heard_at;
    out.push_back(m);
  }
  return out;
}

NodeId PartialView::next_round_robin() {
  if (entries_.empty()) return kInvalidNode;
  if (cursor_ >= entries_.size()) cursor_ = 0;
  return entries_[cursor_++].id;
}

std::size_t PartialView::memory_bytes() const {
  return entries_.capacity() * sizeof(CompactEntry) +
         index_.capacity() * sizeof(std::uint32_t) +
         first_advertiser_.memory_bytes();
}

}  // namespace gocast::membership
