// Pooled arena allocation for mega-swarm per-node protocol state.
//
// At 10^5 members the per-node std::map peer tables dominate RSS: every entry
// is its own malloc (red-black node header + allocator metadata per peer), and
// the allocator never returns freed nodes to a shared pool. PooledArena hands
// out stable typed slots from geometrically growing slabs with a free list, so
// a node's peer table costs a handful of slab allocations however often peers
// churn and owns few slots while it holds few peers, and an ArenaCounter
// aggregates live/peak bytes across every node for the memory telemetry the
// harness reports (WorkloadResult::arena_peak_bytes).

#ifndef SRC_SIM_SCALE_ARENA_H_
#define SRC_SIM_SCALE_ARENA_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace bullet {

// Live/peak byte counter shared by many arenas (one per node-state container).
// Atomic because the partitioned parallel engine mutates protocol state from
// worker threads; updates happen only on slab/table growth, not per operation.
class ArenaCounter {
 public:
  void Add(int64_t delta) {
    const int64_t now = current_.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  int64_t current_bytes() const { return current_.load(std::memory_order_relaxed); }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
};

// Slab-growing typed arena: stable addresses (slabs never move), freed slots
// reused LIFO. Slabs grow geometrically — 2, 4, 8, 16 entries, then
// kMaxSlabEntries each — so a table that never holds more than k entries owns
// at most 2k + 2 slots (most peer tables stay small), while a large table
// still grows in full-size slabs. The owner destroys live objects (Delete)
// before the arena dies; the arena only reclaims slab memory.
template <typename T, size_t kMaxSlabEntries = 32>
class PooledArena {
  static_assert(kMaxSlabEntries >= 2, "the first slab holds two entries");

 public:
  explicit PooledArena(ArenaCounter* counter = nullptr) : counter_(counter) {}
  PooledArena(PooledArena&&) = default;
  PooledArena& operator=(PooledArena&&) = default;
  ~PooledArena() {
    if (counter_ != nullptr) {
      counter_->Add(-static_cast<int64_t>(allocated_bytes()));
    }
  }

  template <typename... Args>
  T* New(Args&&... args) {
    if (free_.empty()) {
      Grow();
    }
    T* slot = free_.back();
    free_.pop_back();
    return new (slot) T(std::forward<Args>(args)...);
  }

  void Delete(T* p) {
    p->~T();
    // The free list can outgrow the capacity reserved at Grow time (slots
    // handed out earlier all coming back at once, e.g. clear()); count that
    // growth too so the counter balances to zero at teardown.
    const size_t before = free_.capacity();
    free_.push_back(p);
    if (counter_ != nullptr && free_.capacity() != before) {
      counter_->Add(static_cast<int64_t>((free_.capacity() - before) * sizeof(T*)));
    }
  }

  // Entry slots owned (live + free), across every slab.
  size_t slot_capacity() const {
    size_t slots = 0;
    for (size_t i = 0; i < slabs_.size(); ++i) {
      slots += SlabEntries(i);
    }
    return slots;
  }
  size_t allocated_bytes() const {
    return slot_capacity() * sizeof(Slot) + free_.capacity() * sizeof(T*);
  }

 private:
  struct Slot {
    alignas(alignof(T)) unsigned char bytes[sizeof(T)];
  };

  // Entries in slab `index`: 2 << index, capped at kMaxSlabEntries.
  static size_t SlabEntries(size_t index) {
    size_t entries = 2;
    for (size_t i = 0; i < index && entries < kMaxSlabEntries; ++i) {
      entries *= 2;
    }
    return std::min(entries, kMaxSlabEntries);
  }

  void Grow() {
    const size_t entries = SlabEntries(slabs_.size());
    const size_t before = free_.capacity() * sizeof(T*);
    slabs_.push_back(std::unique_ptr<Slot[]>(new Slot[entries]));
    Slot* base = slabs_.back().get();
    free_.reserve(free_.size() + entries);
    // Push in reverse so slots are handed out front-to-back within a slab.
    for (size_t i = entries; i-- > 0;) {
      free_.push_back(reinterpret_cast<T*>(base[i].bytes));
    }
    if (counter_ != nullptr) {
      counter_->Add(static_cast<int64_t>(entries * sizeof(Slot)) +
                    static_cast<int64_t>(free_.capacity() * sizeof(T*) - before));
    }
  }

  ArenaCounter* counter_ = nullptr;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<T*> free_;
};

}  // namespace bullet

#endif  // SRC_SIM_SCALE_ARENA_H_
