#include "src/core/request_strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace bullet {
namespace {

const CandidateSet::ValidFn kAlwaysValid = [](uint32_t) { return true; };
const CandidateSet::RarityFn kFlatRarity = [](uint32_t) { return 1; };

constexpr RequestStrategy kAllStrategies[] = {
    RequestStrategy::kFirstEncountered, RequestStrategy::kRandom, RequestStrategy::kRarest,
    RequestStrategy::kRarestRandom};

TEST(CandidateSet, EmptyPicksNothing) {
  Rng rng(1);
  for (const auto strategy : kAllStrategies) {
    CandidateSet cs;  // a set serves one strategy
    EXPECT_FALSE(cs.Pick(strategy, kAlwaysValid, kFlatRarity, rng).has_value());
  }
}

TEST(CandidateSet, FirstEncounteredPreservesDiscoveryOrder) {
  CandidateSet cs;
  Rng rng(2);
  for (const uint32_t id : {5u, 3u, 9u, 1u}) {
    cs.Add(id);
  }
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 5u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 3u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 9u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 1u);
}

TEST(CandidateSet, FirstEncounteredSkipsInvalid) {
  CandidateSet cs;
  Rng rng(3);
  for (uint32_t id = 0; id < 10; ++id) {
    cs.Add(id);
  }
  const auto odd_only = [](uint32_t id) { return id % 2 == 1; };
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, odd_only, kFlatRarity, rng), 1u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, odd_only, kFlatRarity, rng), 3u);
}

TEST(CandidateSet, RandomCoversAllCandidates) {
  CandidateSet cs;
  Rng rng(4);
  std::set<uint32_t> expected;
  for (uint32_t id = 0; id < 20; ++id) {
    cs.Add(id);
    expected.insert(id);
  }
  std::set<uint32_t> picked;
  while (true) {
    const auto p = cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng);
    if (!p.has_value()) {
      break;
    }
    EXPECT_TRUE(picked.insert(*p).second) << "duplicate pick";
  }
  EXPECT_EQ(picked, expected);
}

TEST(CandidateSet, RandomIsActuallyRandom) {
  // First pick across many fresh sets should not always be the same id.
  std::map<uint32_t, int> first_pick;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 10; ++id) {
      cs.Add(id);
    }
    first_pick[*cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng)]++;
  }
  EXPECT_GT(first_pick.size(), 3u);
}

TEST(CandidateSet, RarestPicksMinimumRarity) {
  CandidateSet cs;
  Rng rng(5);
  for (uint32_t id = 0; id < 30; ++id) {
    cs.Add(id);
  }
  const auto rarity = [](uint32_t id) { return id == 17 ? 1 : 5; };
  EXPECT_EQ(cs.Pick(RequestStrategy::kRarest, kAlwaysValid, rarity, rng), 17u);
}

TEST(CandidateSet, RarestBreaksTiesDeterministically) {
  // All equal rarity: plain rarest always picks the lowest id — the deterministic
  // herd behaviour the paper calls out as a flaw.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (const uint32_t id : {7u, 3u, 12u, 9u}) {
      cs.Add(id);
    }
    EXPECT_EQ(cs.Pick(RequestStrategy::kRarest, kAlwaysValid, kFlatRarity, rng), 3u);
  }
}

TEST(CandidateSet, RarestRandomBreaksTiesRandomly) {
  std::map<uint32_t, int> first_pick;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 10; ++id) {
      cs.Add(id);
    }
    first_pick[*cs.Pick(RequestStrategy::kRarestRandom, kAlwaysValid, kFlatRarity, rng)]++;
  }
  EXPECT_GT(first_pick.size(), 3u);
}

TEST(CandidateSet, RarestRandomStillPrefersRarity) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 50; ++id) {
      cs.Add(id);
    }
    const auto rarity = [](uint32_t id) { return id == 23 || id == 31 ? 1 : 4; };
    const auto pick = cs.Pick(RequestStrategy::kRarestRandom, kAlwaysValid, rarity, rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(*pick == 23 || *pick == 31) << *pick;
  }
}

TEST(CandidateSet, StaleEntriesEventuallyCompacted) {
  CandidateSet cs;
  Rng rng(6);
  for (uint32_t id = 0; id < 500; ++id) {
    cs.Add(id);
  }
  // Invalidate everything except one needle; the sampled strategies must find it.
  const auto only_250 = [](uint32_t id) { return id == 250; };
  const auto pick = cs.Pick(RequestStrategy::kRarestRandom, only_250, kFlatRarity, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 250u);
  EXPECT_FALSE(cs.Pick(RequestStrategy::kRarestRandom, only_250, kFlatRarity, rng).has_value());
}

TEST(CandidateSet, RunningDry) {
  CandidateSet cs;
  EXPECT_TRUE(cs.RunningDry(1, kAlwaysValid));
  for (uint32_t id = 0; id < 5; ++id) {
    cs.Add(id);
  }
  EXPECT_FALSE(cs.RunningDry(5, kAlwaysValid));
  EXPECT_TRUE(cs.RunningDry(6, kAlwaysValid));
  const auto none_valid = [](uint32_t) { return false; };
  EXPECT_TRUE(cs.RunningDry(1, none_valid));
}

TEST(CandidateSet, ReaddMakesPickableAgain) {
  CandidateSet cs;
  Rng rng(7);
  cs.Add(42);
  EXPECT_EQ(cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng), 42u);
  EXPECT_FALSE(cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng).has_value());
  cs.Readd(42);
  EXPECT_EQ(cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng), 42u);
}

TEST(CandidateSet, StaleOnlySampleCompactsAndRetries) {
  // Large set where valid entries are vanishingly rare: a sampled round can
  // draw only stale entries, which must trigger a Compact + retry on the
  // cleaned set rather than reporting nothing to request.
  Rng rng(9);
  const auto only_19999 = [](uint32_t id) { return id == 19999; };
  for (const auto strategy : {RequestStrategy::kRarest, RequestStrategy::kRarestRandom}) {
    CandidateSet cs;  // a set serves one strategy
    for (uint32_t id = 0; id < 20000; ++id) {
      cs.Add(id);
    }
    const auto pick = cs.Pick(strategy, only_19999, kFlatRarity, rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 19999u);
  }
}

TEST(CandidateSet, RunningDryThresholds) {
  CandidateSet cs;
  for (uint32_t id = 0; id < 100; ++id) {
    cs.Add(id);
  }
  // Only ids >= 90 are still valid: exactly 10 candidates remain.
  const auto last_ten = [](uint32_t id) { return id >= 90; };
  EXPECT_FALSE(cs.RunningDry(1, last_ten));
  EXPECT_FALSE(cs.RunningDry(10, last_ten));
  EXPECT_TRUE(cs.RunningDry(11, last_ten));
  EXPECT_TRUE(cs.RunningDry(100, last_ten));
}

TEST(CandidateSet, WindowedFirstEncounteredRetainsIneligible) {
  // Ineligible (outside the playback window) candidates must survive the pick
  // for a later window; invalid (already held) ones must be dropped.
  CandidateSet cs;
  Rng rng(10);
  for (const uint32_t id : {4u, 1u, 7u, 2u}) {
    cs.Add(id);
  }
  const auto not_4 = [](uint32_t id) { return id != 4; };  // 4 already held
  const auto window_lo = [](uint32_t id) { return id <= 2; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_lo, kFlatRarity, rng),
            1u);
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_lo, kFlatRarity, rng),
            2u);
  // Nothing eligible left, but 7 stays queued for when the window advances.
  EXPECT_FALSE(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_lo, kFlatRarity,
                               rng)
                   .has_value());
  const auto window_hi = [](uint32_t id) { return id >= 5; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_hi, kFlatRarity, rng),
            7u);
}

TEST(CandidateSet, WindowedRarestPicksWithinWindowOnly) {
  CandidateSet cs;
  Rng rng(11);
  for (uint32_t id = 0; id < 20; ++id) {
    cs.Add(id);
  }
  // Id 15 is globally rarest but outside the window; 3 is the rarest inside.
  const auto rarity = [](uint32_t id) { return id == 15 ? 1 : (id == 3 ? 2 : 5); };
  const auto window = [](uint32_t id) { return id < 8; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, kAlwaysValid, window, rarity, rng), 3u);
  // The out-of-window rare block is still there once the window reaches it.
  const auto all = [](uint32_t) { return true; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, kAlwaysValid, all, rarity, rng), 15u);
}

TEST(CandidateSet, WindowedRarestTieBreaksMatchBulkSemantics) {
  // kRarest: deterministic lowest-id tie-break; kRarestRandom: spread.
  const auto window = [](uint32_t id) { return id < 10; };
  for (uint64_t seed = 0; seed < 10; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (const uint32_t id : {9u, 2u, 6u, 14u}) {
      cs.Add(id);
    }
    EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, kAlwaysValid, window, kFlatRarity, rng),
              2u);
  }
  std::map<uint32_t, int> first_pick;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 10; ++id) {
      cs.Add(id);
    }
    first_pick[*cs.PickWindowed(RequestStrategy::kRarestRandom, kAlwaysValid, window, kFlatRarity,
                                rng)]++;
  }
  EXPECT_GT(first_pick.size(), 3u);
}

TEST(CandidateSet, WindowedCompactsInvalidEntries) {
  // PickWindowed drops invalid entries as it scans — observable via RunningDry
  // before any successful pick.
  CandidateSet cs;
  Rng rng(12);
  for (uint32_t id = 0; id < 50; ++id) {
    cs.Add(id);
  }
  const auto only_49 = [](uint32_t id) { return id == 49; };
  const auto nothing_eligible = [](uint32_t) { return false; };
  EXPECT_FALSE(
      cs.PickWindowed(RequestStrategy::kRarest, only_49, nothing_eligible, kFlatRarity, rng)
          .has_value());
  EXPECT_TRUE(cs.RunningDry(2, kAlwaysValid)) << "invalid entries were not compacted";
  EXPECT_FALSE(cs.RunningDry(1, kAlwaysValid)) << "the one valid entry was dropped";
  const auto all = [](uint32_t) { return true; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, only_49, all, kFlatRarity, rng), 49u);
}

TEST(CandidateSet, WindowedRandomCoversEligibleSet) {
  CandidateSet cs;
  Rng rng(13);
  std::set<uint32_t> expected;
  for (uint32_t id = 0; id < 16; ++id) {
    cs.Add(id);
    if (id < 8) {
      expected.insert(id);
    }
  }
  const auto window = [](uint32_t id) { return id < 8; };
  std::set<uint32_t> picked;
  while (true) {
    const auto p = cs.PickWindowed(RequestStrategy::kRandom, kAlwaysValid, window, kFlatRarity, rng);
    if (!p.has_value()) {
      break;
    }
    EXPECT_TRUE(picked.insert(*p).second) << "duplicate pick";
  }
  EXPECT_EQ(picked, expected);
}

TEST(CandidateSet, LargeSetSampledRarestFindsRareBlocks) {
  // With 10k candidates the sampled strategies still find low-rarity blocks with
  // high probability when they are not vanishingly rare.
  CandidateSet cs;
  Rng rng(8);
  for (uint32_t id = 0; id < 10000; ++id) {
    cs.Add(id);
  }
  // 5% of blocks are rare.
  const auto rarity = [](uint32_t id) { return id % 20 == 0 ? 1 : 9; };
  int rare_hits = 0;
  for (int i = 0; i < 100; ++i) {
    const auto pick = cs.Pick(RequestStrategy::kRarestRandom, kAlwaysValid, rarity, rng);
    ASSERT_TRUE(pick.has_value());
    if (*pick % 20 == 0) {
      ++rare_hits;
    }
  }
  EXPECT_GT(rare_hits, 90);
}

// --- oracle: the former two-store CandidateSet ---
//
// The set as it was before it kept one store: every Add appended to both a
// discovery-order deque (read only by kFirstEncountered) and a vector (read
// by the sampled strategies, RunningDry and RawSize). Kept verbatim as the
// reference the one-store set must match pick for pick, RNG draw for draw.
class TwoStoreCandidateSet {
 public:
  using ValidFn = CandidateSet::ValidFn;
  using RarityFn = CandidateSet::RarityFn;

  void Add(uint32_t id);
  void Readd(uint32_t id) { Add(id); }
  size_t RawSize() const { return vec_.size(); }
  std::optional<uint32_t> Pick(RequestStrategy strategy, const ValidFn& valid,
                               const RarityFn& rarity, Rng& rng);
  std::optional<uint32_t> PickWindowed(RequestStrategy strategy, const ValidFn& valid,
                                       const ValidFn& eligible, const RarityFn& rarity, Rng& rng);
  bool RunningDry(size_t threshold, const ValidFn& valid) const;

  static constexpr size_t kRaritySample = CandidateSet::kRaritySample;

 private:
  std::optional<uint32_t> PickFirst(const ValidFn& valid);
  std::optional<uint32_t> PickRandom(const ValidFn& valid, Rng& rng);
  std::optional<uint32_t> PickRarest(const ValidFn& valid, const RarityFn& rarity, Rng& rng,
                                     bool random_tie);
  void RemoveAt(size_t index);
  void Compact(const ValidFn& valid);

  std::deque<uint32_t> fifo_;
  std::vector<uint32_t> vec_;
};

void TwoStoreCandidateSet::Add(uint32_t id) {
  fifo_.push_back(id);
  vec_.push_back(id);
}

std::optional<uint32_t> TwoStoreCandidateSet::Pick(RequestStrategy strategy, const ValidFn& valid,
                                           const RarityFn& rarity, Rng& rng) {
  switch (strategy) {
    case RequestStrategy::kFirstEncountered:
      return PickFirst(valid);
    case RequestStrategy::kRandom:
      return PickRandom(valid, rng);
    case RequestStrategy::kRarest:
      return PickRarest(valid, rarity, rng, /*random_tie=*/false);
    case RequestStrategy::kRarestRandom:
      return PickRarest(valid, rarity, rng, /*random_tie=*/true);
  }
  return std::nullopt;
}

std::optional<uint32_t> TwoStoreCandidateSet::PickWindowed(RequestStrategy strategy, const ValidFn& valid,
                                                   const ValidFn& eligible, const RarityFn& rarity,
                                                   Rng& rng) {
  if (strategy == RequestStrategy::kFirstEncountered) {
    // Walk discovery order: drop invalid entries, retain ineligible ones, take
    // the first valid + eligible candidate.
    for (auto it = fifo_.begin(); it != fifo_.end();) {
      const uint32_t id = *it;
      if (!valid(id)) {
        it = fifo_.erase(it);
        continue;
      }
      if (eligible(id)) {
        fifo_.erase(it);
        return id;
      }
      ++it;
    }
    return std::nullopt;
  }

  // One pass over vec_: invalid entries are compacted away, ineligible ones
  // kept for a later window, and the best eligible entry picked under the
  // strategy (uniform reservoir for kRandom; rarity with deterministic or
  // reservoir tie-break for the rarest strategies).
  size_t write = 0;
  size_t best_index = SIZE_MAX;
  uint32_t best_id = 0;
  int best_rarity = INT32_MAX;
  int ties = 0;
  for (size_t read = 0; read < vec_.size(); ++read) {
    const uint32_t id = vec_[read];
    if (!valid(id)) {
      continue;
    }
    vec_[write] = id;
    const size_t index = write++;
    if (!eligible(id)) {
      continue;
    }
    bool better = false;
    if (strategy == RequestStrategy::kRandom) {
      ++ties;
      better = rng.UniformInt(1, ties) == 1;
    } else {
      const int r = rarity(id);
      if (r < best_rarity) {
        better = true;
        best_rarity = r;
        ties = 1;
      } else if (r == best_rarity) {
        ++ties;
        better = strategy == RequestStrategy::kRarestRandom ? rng.UniformInt(1, ties) == 1
                                                            : id < best_id;
      }
    }
    if (better) {
      best_index = index;
      best_id = id;
    }
  }
  vec_.resize(write);
  if (best_index == SIZE_MAX) {
    return std::nullopt;
  }
  const uint32_t id = vec_[best_index];
  RemoveAt(best_index);
  return id;
}

std::optional<uint32_t> TwoStoreCandidateSet::PickFirst(const ValidFn& valid) {
  while (!fifo_.empty()) {
    const uint32_t id = fifo_.front();
    fifo_.pop_front();
    if (valid(id)) {
      return id;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> TwoStoreCandidateSet::PickRandom(const ValidFn& valid, Rng& rng) {
  while (!vec_.empty()) {
    const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(vec_.size()) - 1));
    const uint32_t id = vec_[i];
    RemoveAt(i);
    if (valid(id)) {
      return id;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> TwoStoreCandidateSet::PickRarest(const ValidFn& valid, const RarityFn& rarity,
                                                 Rng& rng, bool random_tie) {
  while (!vec_.empty()) {
    // Examine a bounded random sample (or everything, if small).
    const size_t sample = std::min(vec_.size(), kRaritySample);
    int best_rarity = INT32_MAX;
    size_t best_index = SIZE_MAX;
    uint32_t best_id = 0;
    int ties = 0;
    bool found_stale = false;
    const bool exhaustive = vec_.size() <= kRaritySample;
    // Non-exhaustive sampling draws indices with replacement; a re-drawn index
    // must not be *selectable* twice — its second reservoir win chance biased
    // the tie-break toward duplicated entries. The dedup is draw-preserving:
    // a duplicate keeps consuming the exact RNG draws it did pre-fix (its
    // index draw and, on a rarity tie, its reservoir draw), so every other
    // sampled candidate sees an identical random sequence; only the
    // duplicate's own second win is discarded.
    size_t sampled[kRaritySample];
    size_t num_sampled = 0;
    for (size_t s = 0; s < sample; ++s) {
      const size_t i =
          exhaustive
              ? s
              : static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(vec_.size()) - 1));
      bool duplicate = false;
      if (!exhaustive) {
        for (size_t k = 0; k < num_sampled; ++k) {
          if (sampled[k] == i) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          sampled[num_sampled++] = i;
        }
      }
      const uint32_t id = vec_[i];
      if (!valid(id)) {
        found_stale = true;
        continue;
      }
      const int r = rarity(id);
      bool better = false;
      if (r < best_rarity) {
        better = true;
        ties = 1;
      } else if (r == best_rarity) {
        ++ties;
        if (random_tie) {
          // Reservoir sampling among ties.
          better = rng.UniformInt(1, ties) == 1;
        } else {
          better = id < best_id;  // Deterministic tie-break: the plain-rarest flaw.
        }
      }
      // A duplicate never re-wins: its first examination already competed.
      // (Under the deterministic tie-break this is a no-op — `id < best_id`
      // can only fail for an id that already won — so only the reservoir
      // path changes, and only where a duplicate's second draw had won.)
      if (better && !duplicate) {
        best_rarity = r;
        best_index = i;
        best_id = id;
      }
    }
    if (best_index != SIZE_MAX) {
      const uint32_t id = vec_[best_index];
      RemoveAt(best_index);
      return id;
    }
    if (!exhaustive && found_stale) {
      // The sample hit only stale entries; compact and retry on the cleaned set.
      Compact(valid);
      continue;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

bool TwoStoreCandidateSet::RunningDry(size_t threshold, const ValidFn& valid) const {
  size_t found = 0;
  // Scan from the back (most recently discovered, most likely still valid).
  for (size_t i = vec_.size(); i-- > 0;) {
    if (valid(vec_[i])) {
      ++found;
      if (found >= threshold) {
        return false;
      }
    }
  }
  return true;
}

void TwoStoreCandidateSet::RemoveAt(size_t index) {
  vec_[index] = vec_.back();
  vec_.pop_back();
}

void TwoStoreCandidateSet::Compact(const ValidFn& valid) {
  vec_.erase(std::remove_if(vec_.begin(), vec_.end(), [&](uint32_t id) { return !valid(id); }),
             vec_.end());
}

// The number of valid entries RunningDry sees: one less than the smallest
// threshold it reports dry for (RunningDry is monotone in the threshold).
template <typename Set>
size_t DryCount(const Set& set, const CandidateSet::ValidFn& valid) {
  size_t lo = 1;
  size_t hi = set.RawSize() + 1;  // always dry: at most RawSize() valid entries
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (set.RunningDry(mid, valid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo - 1;
}

// A random Add/Readd/Pick/PickWindowed/RunningDry script run against both
// sets in lockstep over shared block state: picked blocks become requested,
// some get completed (held) or released back (re-queued with Readd), rarities
// drift in a narrow band so ties are common, and a playback window slides.
// Both sets draw from identically seeded Rngs; every pick, RawSize and
// RunningDry answer must agree, and so must the Rng state at the end.
// `mode`: 0 bulk picks only, 1 windowed picks only, 2 both.
void RunOracleScript(RequestStrategy strategy, uint64_t seed, int mode) {
  constexpr uint32_t kBlocks = 600;
  constexpr uint32_t kWindow = 96;
  std::vector<char> have(kBlocks, 0);
  std::vector<char> requested(kBlocks, 0);
  std::vector<int> rarity(kBlocks, 0);
  uint32_t window_lo = 0;
  const CandidateSet::ValidFn valid = [&](uint32_t id) { return !have[id] && !requested[id]; };
  const CandidateSet::ValidFn eligible = [&](uint32_t id) {
    return id >= window_lo && id < window_lo + kWindow;
  };
  const CandidateSet::RarityFn rarity_of = [&](uint32_t id) { return rarity[id]; };

  Rng script(seed);
  for (uint32_t id = 0; id < kBlocks; ++id) {
    rarity[id] = static_cast<int>(script.UniformInt(0, 3));
  }
  Rng ref_rng(seed ^ 0x5eedu);
  Rng one_rng(seed ^ 0x5eedu);
  TwoStoreCandidateSet ref;
  CandidateSet one;
  for (int step = 0; step < 1200; ++step) {
    const int64_t op = script.UniformInt(0, 99);
    const uint32_t id = static_cast<uint32_t>(script.UniformInt(0, kBlocks - 1));
    if (op < 30) {
      // A burst of availability news, as one diff or have-map update brings.
      const int64_t burst = script.UniformInt(1, 12);
      for (int64_t k = 0; k < burst; ++k) {
        const uint32_t a = static_cast<uint32_t>(script.UniformInt(0, kBlocks - 1));
        ref.Add(a);
        one.Add(a);
      }
    } else if (op < 36) {
      ref.Readd(id);
      one.Readd(id);
    } else if (op < 62) {
      const bool windowed = mode == 1 || (mode == 2 && script.Bernoulli(0.5));
      const auto want = windowed
                            ? ref.PickWindowed(strategy, valid, eligible, rarity_of, ref_rng)
                            : ref.Pick(strategy, valid, rarity_of, ref_rng);
      const auto got = windowed
                           ? one.PickWindowed(strategy, valid, eligible, rarity_of, one_rng)
                           : one.Pick(strategy, valid, rarity_of, one_rng);
      ASSERT_EQ(want, got) << "step " << step;
      if (got.has_value()) {
        requested[*got] = 1;
      }
    } else if (op < 70) {
      have[id] = 1;  // block arrived from some sender
    } else if (op < 78) {
      if (requested[id] != 0) {  // the sender failed: re-queue the block
        requested[id] = 0;
        if (script.Bernoulli(0.7)) {
          ref.Readd(id);
          one.Readd(id);
        }
      }
    } else if (op < 86) {
      rarity[id] = static_cast<int>(script.UniformInt(0, 3));
    } else if (op < 95) {
      const size_t threshold = static_cast<size_t>(script.UniformInt(1, 40));
      ASSERT_EQ(ref.RunningDry(threshold, valid), one.RunningDry(threshold, valid))
          << "step " << step;
      ASSERT_EQ(DryCount(ref, valid), DryCount(one, valid)) << "step " << step;
    } else {
      window_lo = static_cast<uint32_t>(script.UniformInt(0, kBlocks - kWindow));
    }
    ASSERT_EQ(ref.RawSize(), one.RawSize()) << "step " << step;
  }
  for (int k = 0; k < 4; ++k) {
    ASSERT_EQ(ref_rng.Next(), one_rng.Next()) << "Rng state diverged";
  }
}

void RunOracle(RequestStrategy strategy) {
  for (uint64_t seed = 1; seed <= 210; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    RunOracleScript(strategy, seed, static_cast<int>(seed % 3));
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CandidateSetOracle, FirstEncounteredMatchesTwoStoreSet) {
  RunOracle(RequestStrategy::kFirstEncountered);
}
TEST(CandidateSetOracle, RandomMatchesTwoStoreSet) { RunOracle(RequestStrategy::kRandom); }
TEST(CandidateSetOracle, RarestMatchesTwoStoreSet) { RunOracle(RequestStrategy::kRarest); }
TEST(CandidateSetOracle, RarestRandomMatchesTwoStoreSet) {
  RunOracle(RequestStrategy::kRarestRandom);
}

TEST(CandidateSetDeathTest, MixingStrategiesOnOneSetIsACheckedError) {
  CandidateSet cs;
  Rng rng(3);
  cs.Add(1);
  cs.Add(2);
  EXPECT_TRUE(cs.Pick(RequestStrategy::kRarestRandom, kAlwaysValid, kFlatRarity, rng).has_value());
  EXPECT_DEATH(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng),
               "one request strategy");
}

}  // namespace
}  // namespace bullet
