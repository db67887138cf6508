// StableFlatMap must be observationally identical to the std::map peer tables
// it replaced in the protocols: same ascending-key iteration order, same
// find/erase/emplace results, iterators that survive the protocols' usage
// patterns (held-iterator erase, conns snapshots), plus the arena properties
// std::map cannot give — stable entry addresses and exact live/peak byte
// telemetry that balances to zero at teardown and does not ratchet under
// churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/scale/stable_flat_map.h"

namespace bullet {
namespace {

void ExpectSameContents(StableFlatMap<uint64_t, int>& map,
                        const std::map<uint64_t, int>& reference) {
  ASSERT_EQ(map.size(), reference.size());
  auto it = map.begin();
  for (const auto& [key, value] : reference) {
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->first, key);
    EXPECT_EQ(it->second, value);
    ++it;
  }
  EXPECT_EQ(it, map.end());
}

TEST(StableFlatMap, RandomizedOpsMatchStdMap) {
  Rng rng(4242);
  ArenaCounter counter;
  StableFlatMap<uint64_t, int> map(&counter);
  std::map<uint64_t, int> reference;
  for (int op = 0; op < 20000; ++op) {
    // Structured keys on purpose: high bits carry a "partition id" the way
    // ConnIds do, stressing the hash mix rather than identity-friendly keys.
    const uint64_t key = (static_cast<uint64_t>(rng.UniformInt(0, 7)) << 56) |
                         static_cast<uint64_t>(rng.UniformInt(0, 400));
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind < 5) {
      const auto [it, inserted] = map.emplace(key, op);
      const auto [ref_it, ref_inserted] = reference.emplace(key, op);
      EXPECT_EQ(inserted, ref_inserted);
      EXPECT_EQ(it->first, ref_it->first);
      EXPECT_EQ(it->second, ref_it->second);
    } else if (kind < 8) {
      EXPECT_EQ(map.erase(key), reference.erase(key));
    } else {
      const auto it = map.find(key);
      const auto ref_it = reference.find(key);
      ASSERT_EQ(it == map.end(), ref_it == reference.end()) << key;
      if (ref_it != reference.end()) {
        EXPECT_EQ(it->second, ref_it->second);
        EXPECT_EQ(map.at(key), ref_it->second);
      }
      EXPECT_EQ(map.count(key), reference.count(key));
    }
    if (op % 1000 == 0) {
      ExpectSameContents(map, reference);
    }
  }
  ExpectSameContents(map, reference);
}

TEST(StableFlatMap, IterationIsAscendingByKey) {
  StableFlatMap<uint64_t, std::string> map;
  for (const uint64_t key : {9u, 2u, 14u, 5u, 0u, 7u}) {
    map.emplace(key, std::to_string(key));
  }
  std::vector<uint64_t> keys;
  for (const auto& [key, value] : map) {
    keys.push_back(key);
    EXPECT_EQ(value, std::to_string(key));
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 2, 5, 7, 9, 14}));
}

TEST(StableFlatMap, HeldIteratorEraseAndReturnValue) {
  // The protocols scan for a victim, hold the iterator, then erase it
  // (DisconnectSender); erase must return the successor like std::map.
  StableFlatMap<uint64_t, int> map;
  for (uint64_t key = 0; key < 10; ++key) {
    map.emplace(key, static_cast<int>(key * key));
  }
  auto it = map.begin();
  while (it != map.end() && it->first != 4) {
    ++it;
  }
  ASSERT_NE(it, map.end());
  it = map.erase(it);
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->first, 5u);
  EXPECT_EQ(map.size(), 9u);
  EXPECT_EQ(map.count(4), 0u);
}

TEST(StableFlatMap, EntryAddressesAreStableAcrossGrowth) {
  StableFlatMap<uint64_t, int> map;
  map.emplace(1, 100);
  int* first = &map.at(1);
  for (uint64_t key = 2; key < 600; ++key) {
    map.emplace(key, static_cast<int>(key));
  }
  // Hundreds of inserts later (several slab and table growths), the original
  // entry has not moved.
  EXPECT_EQ(&map.at(1), first);
  EXPECT_EQ(*first, 100);
}

TEST(StableFlatMap, CounterTracksGrowthAndBalancesToZero) {
  ArenaCounter counter;
  {
    StableFlatMap<uint64_t, int> a(&counter);
    StableFlatMap<uint64_t, int> b(&counter);
    EXPECT_EQ(counter.current_bytes(), 0);
    for (uint64_t key = 0; key < 200; ++key) {
      a.emplace(key, 1);
      b.emplace(key * 3, 2);
    }
    EXPECT_GT(counter.current_bytes(), 0);
    EXPECT_GE(counter.peak_bytes(), counter.current_bytes());
    const int64_t peak = counter.peak_bytes();
    for (uint64_t key = 0; key < 200; ++key) {
      a.erase(key);
    }
    a.clear();
    EXPECT_GE(counter.peak_bytes(), peak);  // peak never decays
  }
  // Every byte the two maps charged was returned at destruction.
  EXPECT_EQ(counter.current_bytes(), 0);
  EXPECT_GT(counter.peak_bytes(), 0);
}

TEST(StableFlatMap, ChurnDoesNotRatchetMemory) {
  // Steady-state churn (the mega-swarm peer tables' life story): repeatedly
  // filling and draining the same working set must converge — tombstone
  // pressure triggers same-size rehashes, not doubling.
  ArenaCounter counter;
  StableFlatMap<uint64_t, int> map(&counter);
  Rng rng(99);
  int64_t settled = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      map.emplace(static_cast<uint64_t>(rng.UniformInt(0, 1u << 20)), i);
    }
    while (!map.empty()) {
      map.erase(map.begin());
    }
    if (cycle == 5) {
      settled = counter.current_bytes() + map.SideBytes();
    }
  }
  EXPECT_EQ(counter.current_bytes() + map.SideBytes(), settled);
}

TEST(PooledArena, SlabsFollowTheGeometricSchedule) {
  // Slabs of 2, 4, 8, 16, then 32 entries: the slot total after each growth.
  ArenaCounter counter;
  {
    PooledArena<uint64_t> arena(&counter);
    EXPECT_EQ(arena.slot_capacity(), 0u);
    const size_t expected_after_growth[] = {2, 6, 14, 30, 62, 94, 126, 158};
    std::vector<uint64_t*> live;
    size_t growths = 0;
    for (int i = 0; i < 150; ++i) {
      const size_t before = arena.slot_capacity();
      live.push_back(arena.New(static_cast<uint64_t>(i)));
      if (arena.slot_capacity() != before) {
        ASSERT_LT(growths, sizeof(expected_after_growth) / sizeof(expected_after_growth[0]));
        EXPECT_EQ(arena.slot_capacity(), expected_after_growth[growths]) << "growth " << growths;
        // A slab is added only when every slot is taken.
        EXPECT_EQ(before, live.size() - 1);
        ++growths;
      }
    }
    EXPECT_EQ(growths, 8u);  // 150 entries fit in 158 slots
    EXPECT_EQ(static_cast<size_t>(counter.current_bytes()), arena.allocated_bytes());
    // Freed slots are reused LIFO and never add a slab.
    uint64_t* last = live.back();
    arena.Delete(last);
    EXPECT_EQ(arena.New(uint64_t{7}), last);
    EXPECT_EQ(arena.slot_capacity(), 158u);
    for (uint64_t* p : live) {
      arena.Delete(p);
    }
  }
  EXPECT_EQ(counter.current_bytes(), 0);
}

TEST(PooledArena, MovedFromArenaReleasesNothing) {
  // Slabs move with the arena; only the arena that owns them uncharges them.
  ArenaCounter counter;
  {
    PooledArena<uint64_t> source(&counter);
    std::vector<uint64_t*> live;
    for (int i = 0; i < 40; ++i) {
      live.push_back(source.New(static_cast<uint64_t>(i)));
    }
    PooledArena<uint64_t> moved(std::move(source));
    EXPECT_EQ(moved.slot_capacity(), 62u);
    EXPECT_EQ(static_cast<size_t>(counter.current_bytes()), moved.allocated_bytes());
    for (uint64_t* p : live) {
      moved.Delete(p);
    }
  }
  EXPECT_EQ(counter.current_bytes(), 0);
}

TEST(StableFlatMap, TableOwnsAtMostTwicePeakEntriesPlusTwo) {
  // A table whose size never exceeded k owns at most 2k + 2 entry slots, under
  // any mix of inserts and erases (peer sets churn far below their cap).
  Rng rng(17);
  for (size_t cap = 0; cap <= 70; ++cap) {
    StableFlatMap<uint64_t, int> map;
    size_t peak = 0;
    for (int op = 0; op < 400; ++op) {
      if (map.size() < cap && rng.Bernoulli(0.6)) {
        map.emplace(static_cast<uint64_t>(rng.UniformInt(0, 1000)), op);
      } else if (!map.empty()) {
        map.erase(map.begin());
      }
      peak = std::max(peak, map.size());
      ASSERT_LE(map.slot_capacity(), 2 * peak + 2) << "cap " << cap << " op " << op;
    }
  }
}

}  // namespace
}  // namespace bullet
