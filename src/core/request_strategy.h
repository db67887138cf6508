// Per-sender candidate tracking and the four request-ordering strategies of
// Section 3.3.2. A candidate is a block id known to be available at a sender and not
// yet held or requested by us; validity is checked lazily at pick time through a
// caller-supplied predicate, so a block obtained from another peer silently
// invalidates stale candidates everywhere.
//
// The rarest strategies examine either the full candidate set (exact mode) or a
// bounded random sample (default, sample size 128): with thousands of candidates the
// sampled minimum is statistically indistinguishable from the true minimum while
// keeping per-request cost constant. kRarest breaks ties deterministically (lowest
// block id); kRarestRandom breaks them uniformly at random — exactly the distinction
// the paper evaluates in Fig. 6.

#ifndef SRC_CORE_REQUEST_STRATEGY_H_
#define SRC_CORE_REQUEST_STRATEGY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/config.h"

namespace bullet {

class CandidateSet {
 public:
  using ValidFn = std::function<bool(uint32_t)>;
  using RarityFn = std::function<int(uint32_t)>;

  // Discovery-order append (duplicates allowed; validity filtering handles them).
  // Ids must stay below 2^31 (the top bit marks consumed entries, see vec_).
  void Add(uint32_t id);
  // Re-adds an id (e.g. a request re-queued after a sender failed).
  void Readd(uint32_t id) { Add(id); }

  size_t RawSize() const { return vec_.size(); }
  bool RawEmpty() const { return vec_.empty(); }

  // Picks the next block to request under `strategy`, or nullopt if no valid
  // candidate remains. Picked and stale entries are removed as encountered.
  // A set serves one strategy: the first Pick/PickWindowed fixes it, and a
  // later call with another strategy is a checked error.
  std::optional<uint32_t> Pick(RequestStrategy strategy, const ValidFn& valid,
                               const RarityFn& rarity, Rng& rng);

  // Sliding-window pick (streaming mode): as Pick, but candidates failing
  // `eligible` are *skipped and retained* — a block outside the playback
  // window becomes requestable once the window slides over it, so it must not
  // be dropped the way invalid (held/requested) entries are. The configured
  // strategy applies within the eligible subset (rarest-random for Bullet').
  // Scans the whole set (no sampling): eligibility partitions the candidates,
  // and the window bounds how many entries can be eligible at once.
  std::optional<uint32_t> PickWindowed(RequestStrategy strategy, const ValidFn& valid,
                                       const ValidFn& eligible, const RarityFn& rarity, Rng& rng);

  // True if fewer than `threshold` valid candidates remain (used to trigger diff
  // requests). May scan up to threshold entries.
  bool RunningDry(size_t threshold, const ValidFn& valid) const;

  static constexpr size_t kRaritySample = 128;

 private:
  // PickRarest's sampled-index dedup table: 2^kSeenBits slots, twice the
  // sample size.
  static constexpr int kSeenBits = 8;
  static constexpr size_t kSeenSlots = size_t{1} << kSeenBits;
  static_assert(kSeenSlots >= 2 * kRaritySample);

  std::optional<uint32_t> PickFirst(const ValidFn& valid);
  std::optional<uint32_t> PickRandom(const ValidFn& valid, Rng& rng);
  std::optional<uint32_t> PickRarest(const ValidFn& valid, const RarityFn& rarity, Rng& rng,
                                     bool random_tie);
  void RemoveAt(size_t index);
  void Compact(const ValidFn& valid);

  void BindStrategy(RequestStrategy strategy);

  // Top bit of a vec_ entry: consumed by a kFirstEncountered pick.
  static constexpr uint32_t kConsumed = uint32_t{1} << 31;

  // One store for every strategy, in discovery order; may contain stale
  // entries. The sampled strategies remove entries (swap-with-back). Under
  // kFirstEncountered nothing is removed: picks consume entries in order from
  // head_ (a windowed pick may consume one past ineligible entries, which
  // keeps it in place with the kConsumed bit), and every entry still counts
  // toward RawSize and RunningDry — as with the former discovery-order queue
  // kept beside a never-shrinking vector.
  std::vector<uint32_t> vec_;
  size_t head_ = 0;  // kFirstEncountered: every entry before head_ is consumed
  std::optional<RequestStrategy> strategy_;  // fixed by the first pick
};

}  // namespace bullet

#endif  // SRC_CORE_REQUEST_STRATEGY_H_
