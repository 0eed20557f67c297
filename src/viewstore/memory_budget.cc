#include "src/viewstore/memory_budget.h"

#include <utility>

#include "src/observability/metrics.h"
#include "src/util/check.h"

namespace svx {

/// Budget-side state of one residency. All fields are guarded by the owning
/// budget's mu_ (the struct is only touched inside MemoryBudget methods).
struct MemoryBudget::Slot {
  TablePtr table;
  int64_t bytes = 0;
  int64_t compressed_bytes = 0;
  bool linked = false;
  std::list<Slot*>::iterator lru_pos;
};

int64_t MemoryBudget::resident_bytes() const {
  MutexLock lock(&mu_);
  return resident_;
}

void MemoryBudget::NoteReload(int64_t us) {
  reloads_.fetch_add(1, std::memory_order_relaxed);
  metrics::ExtentReloads()->Add(1);
  metrics::ExtentReloadUs()->Observe(us);
}

TablePtr MemoryBudget::Lookup(Slot* slot) {
  MutexLock lock(&mu_);
  if (slot->table != nullptr && slot->linked) {
    lru_.splice(lru_.begin(), lru_, slot->lru_pos);
    slot->lru_pos = lru_.begin();
  }
  return slot->table;
}

TablePtr MemoryBudget::Install(Slot* slot, TablePtr table, int64_t bytes) {
  SVX_DCHECK(table != nullptr);
  MutexLock lock(&mu_);
  if (slot->table != nullptr) {
    // First wins: keep the already-installed table so references handed out
    // by earlier callers stay stable; just touch it.
    if (slot->linked) {
      lru_.splice(lru_.begin(), lru_, slot->lru_pos);
      slot->lru_pos = lru_.begin();
    }
    return slot->table;
  }
  slot->table = std::move(table);
  slot->bytes = bytes;
  lru_.push_front(slot);
  slot->lru_pos = lru_.begin();
  slot->linked = true;
  resident_ += bytes;
  metrics::ExtentResidentBytes()->Add(bytes);
  EnforceLocked(slot);
  return slot->table;
}

void MemoryBudget::Detach(Slot* slot) {
  TablePtr release;  // freed outside the lock
  {
    MutexLock lock(&mu_);
    if (slot->table != nullptr) {
      resident_ -= slot->bytes;
      metrics::ExtentResidentBytes()->Add(-slot->bytes);
      if (slot->linked) {
        lru_.erase(slot->lru_pos);
        slot->linked = false;
      }
      release = std::move(slot->table);
    }
  }
  if (slot->compressed_bytes != 0) {
    metrics::ExtentCompressedBytes()->Add(-slot->compressed_bytes);
    slot->compressed_bytes = 0;
  }
}

void MemoryBudget::EnforceLocked(const Slot* exempt) {
  if (limit_ <= 0) return;
  // Walk cold-to-hot, skipping the slot being installed right now (its
  // caller may be about to hand out a reference).
  auto it = lru_.end();
  while (resident_ > limit_ && it != lru_.begin()) {
    --it;
    Slot* victim = *it;
    if (victim == exempt) continue;
    it = lru_.erase(it);
    victim->linked = false;
    resident_ -= victim->bytes;
    metrics::ExtentResidentBytes()->Add(-victim->bytes);
    victim->table.reset();
    victim->bytes = 0;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    metrics::ExtentEvictions()->Add(1);
  }
}

ExtentResidency::ExtentResidency(std::shared_ptr<MemoryBudget> budget)
    : budget_(std::move(budget)), slot_(new MemoryBudget::Slot()) {
  SVX_CHECK(budget_ != nullptr);
}

ExtentResidency::~ExtentResidency() { budget_->Detach(slot_.get()); }

TablePtr ExtentResidency::Get() const { return budget_->Lookup(slot_.get()); }

TablePtr ExtentResidency::Install(TablePtr table, int64_t bytes) const {
  return budget_->Install(slot_.get(), std::move(table), bytes);
}

void ExtentResidency::SetCompressedBytes(int64_t bytes) const {
  metrics::ExtentCompressedBytes()->Add(bytes - slot_->compressed_bytes);
  slot_->compressed_bytes = bytes;
}

}  // namespace svx
