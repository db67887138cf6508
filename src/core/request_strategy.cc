#include "src/core/request_strategy.h"

#include <algorithm>

#include "src/common/logging.h"

namespace bullet {

void CandidateSet::Add(uint32_t id) {
  BULLET_CHECK(id < kConsumed && "CandidateSet: block id collides with the consumed bit");
  vec_.push_back(id);
}

void CandidateSet::BindStrategy(RequestStrategy strategy) {
  if (!strategy_.has_value()) {
    strategy_ = strategy;
  }
  BULLET_CHECK(strategy == *strategy_ && "CandidateSet: one set serves one request strategy");
}

std::optional<uint32_t> CandidateSet::Pick(RequestStrategy strategy, const ValidFn& valid,
                                           const RarityFn& rarity, Rng& rng) {
  BindStrategy(strategy);
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

std::optional<uint32_t> CandidateSet::PickWindowed(RequestStrategy strategy, const ValidFn& valid,
                                                   const ValidFn& eligible, const RarityFn& rarity,
                                                   Rng& rng) {
  BindStrategy(strategy);
  if (strategy == RequestStrategy::kFirstEncountered) {
    // Walk discovery order: consume invalid entries, retain ineligible ones,
    // take the first valid + eligible candidate.
    std::optional<uint32_t> pick;
    for (size_t i = head_; i < vec_.size(); ++i) {
      const uint32_t id = vec_[i];
      if ((id & kConsumed) != 0) {
        continue;
      }
      if (!valid(id)) {
        vec_[i] = id | kConsumed;
        continue;
      }
      if (eligible(id)) {
        vec_[i] = id | kConsumed;
        pick = id;
        break;
      }
    }
    while (head_ < vec_.size() && (vec_[head_] & kConsumed) != 0) {
      ++head_;
    }
    return pick;
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

std::optional<uint32_t> CandidateSet::PickFirst(const ValidFn& valid) {
  while (head_ < vec_.size()) {
    const uint32_t id = vec_[head_++];
    if ((id & kConsumed) == 0 && valid(id)) {
      return id;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> CandidateSet::PickRandom(const ValidFn& valid, Rng& rng) {
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

std::optional<uint32_t> CandidateSet::PickRarest(const ValidFn& valid, const RarityFn& rarity,
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

bool CandidateSet::RunningDry(size_t threshold, const ValidFn& valid) const {
  size_t found = 0;
  // Scan from the back (most recently discovered, most likely still valid).
  // Consumed entries count too: they are ids, like any stale entry.
  for (size_t i = vec_.size(); i-- > 0;) {
    if (valid(vec_[i] & ~kConsumed)) {
      ++found;
      if (found >= threshold) {
        return false;
      }
    }
  }
  return true;
}

void CandidateSet::RemoveAt(size_t index) {
  vec_[index] = vec_.back();
  vec_.pop_back();
}

void CandidateSet::Compact(const ValidFn& valid) {
  vec_.erase(std::remove_if(vec_.begin(), vec_.end(), [&](uint32_t id) { return !valid(id); }),
             vec_.end());
}

}  // namespace bullet
