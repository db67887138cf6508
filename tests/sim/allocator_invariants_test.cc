// Property-style invariant layer over the max-min allocator pair (reference
// AllocateMaxMin vs hot-path IncrementalMaxMin), randomized over ~200 seeded
// instances. Locks down the contracts the network's incremental tick relies on:
//
//  1. feasibility      — no link oversubscribed, no flow above its cap;
//  2. max-min justice  — every flow is cap-limited or crosses a saturated link
//                        on which it has a maximal rate;
//  3. monotonicity     — removing a flow never decreases a survivor's rate;
//  4. bit-exactness    — IncrementalMaxMin (with its scratch reused across many
//                        epochs, including tie-heavy uniform instances) produces
//                        rates bit-identical to a fresh AllocateMaxMin;
//  5. sharded rounds   — AllocateParallel on a real worker pool, over rows wide
//                        enough to shard, repeats bitwise, stays feasible, and
//                        matches Allocate() bitwise at power-of-two capacities.
//
// Run standalone with `ctest -L invariants`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/bandwidth_allocator.h"
#include "src/sim/engine_parallel.h"

namespace bullet {
namespace {

constexpr double kUnlimited = 1e12;

struct Instance {
  std::vector<double> capacity;
  std::vector<FlowSpec> flows;
};

// Uniform instances produce exact FP ties (equal capacities, equal shares) —
// the adversarial case for bit-exactness; mixed instances cover the general
// case. Flows cross 1-3 links; ~30% are cap-limited.
Instance MakeInstance(Rng& rng, bool uniform) {
  Instance inst;
  const int num_links = static_cast<int>(rng.UniformInt(1, 40));
  const int num_flows = static_cast<int>(rng.UniformInt(1, 120));
  const double uniform_cap = rng.UniformDouble(0.5e6, 20e6);
  for (int l = 0; l < num_links; ++l) {
    inst.capacity.push_back(uniform ? uniform_cap : rng.UniformDouble(0.5e6, 20e6));
  }
  for (int i = 0; i < num_flows; ++i) {
    FlowSpec f;
    const int nlinks = static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < nlinks; ++l) {
      f.links[l] = static_cast<int32_t>(rng.UniformInt(0, num_links - 1));
    }
    if (rng.Bernoulli(0.3)) {
      // Duplicate cap values (uniform case) stress equal-cap tie handling.
      f.cap_bps = uniform ? uniform_cap / 4.0 : rng.UniformDouble(0.1e6, 5e6);
    } else {
      f.cap_bps = kUnlimited;
    }
    inst.flows.push_back(f);
  }
  return inst;
}

std::vector<double> ReferenceRates(const Instance& inst) {
  std::vector<FlowSpec> flows = inst.flows;
  AllocateMaxMin(flows, inst.capacity);
  std::vector<double> rates;
  rates.reserve(flows.size());
  for (const FlowSpec& f : flows) {
    rates.push_back(f.rate_bps);
  }
  return rates;
}

std::vector<double> IncrementalRates(IncrementalMaxMin& alloc, const Instance& inst) {
  alloc.BeginEpoch();
  for (const double c : inst.capacity) {
    alloc.AddLink(c);
  }
  for (const FlowSpec& f : inst.flows) {
    alloc.AddFlow(f.links[0], f.links[1], f.links[2], f.cap_bps);
  }
  alloc.Allocate();
  return alloc.rates();
}

void CheckFeasibilityAndJustice(const Instance& inst, const std::vector<double>& rates) {
  const size_t num_links = inst.capacity.size();
  std::vector<double> used(num_links, 0.0);
  for (size_t i = 0; i < inst.flows.size(); ++i) {
    EXPECT_GE(rates[i], 0.0);
    EXPECT_LE(rates[i], inst.flows[i].cap_bps * (1.0 + 1e-9));
    for (const int32_t l : inst.flows[i].links) {
      if (l >= 0) {
        used[static_cast<size_t>(l)] += rates[i];
      }
    }
  }
  for (size_t l = 0; l < num_links; ++l) {
    EXPECT_LE(used[l], inst.capacity[l] * (1.0 + 1e-6)) << "link " << l << " oversubscribed";
  }

  // Max-min justice: a flow below its cap must cross a saturated link on which
  // no other flow holds a strictly higher rate (else its rate could be raised).
  constexpr double kTol = 1.0;  // 1 bps
  for (size_t i = 0; i < inst.flows.size(); ++i) {
    if (rates[i] >= inst.flows[i].cap_bps - kTol) {
      continue;  // cap-limited
    }
    bool justified = false;
    for (const int32_t l : inst.flows[i].links) {
      if (l < 0 || justified) {
        continue;
      }
      const size_t li = static_cast<size_t>(l);
      if (used[li] < inst.capacity[li] - kTol) {
        continue;  // not saturated
      }
      bool is_max = true;
      for (size_t j = 0; j < inst.flows.size(); ++j) {
        bool on_link = false;
        for (const int32_t gl : inst.flows[j].links) {
          on_link |= gl == l;
        }
        if (on_link && rates[j] > rates[i] + kTol) {
          is_max = false;
          break;
        }
      }
      justified = is_max;
    }
    EXPECT_TRUE(justified) << "flow " << i << " (rate " << rates[i]
                           << ") is neither cap-limited nor bottleneck-justified";
  }
}

class AllocatorInvariants : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorInvariants, RandomizedEpochs) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 1);
  const bool uniform = seed % 3 == 0;

  // One allocator across all epochs of the case: scratch reuse is part of what
  // is under test (stale state from epoch k must not leak into epoch k+1).
  IncrementalMaxMin alloc;

  Instance inst = MakeInstance(rng, uniform);
  for (int epoch = 0; epoch < 4; ++epoch) {
    const std::vector<double> reference = ReferenceRates(inst);
    const std::vector<double> incremental = IncrementalRates(alloc, inst);
    ASSERT_EQ(reference.size(), incremental.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      // Bit-exact, not approximate: the network reuses cached rates across
      // quanta, which is only sound if recomputation is exactly reproducible.
      EXPECT_EQ(reference[i], incremental[i]) << "flow " << i << " epoch " << epoch;
    }
    CheckFeasibilityAndJustice(inst, reference);

    // Mutate into the next epoch: drop a flow, add a flow, or change a capacity
    // (the three kinds of change the network's dirty-tracking reacts to).
    switch (rng.UniformInt(0, 2)) {
      case 0:
        if (inst.flows.size() > 1) {
          inst.flows.erase(inst.flows.begin() +
                           static_cast<long>(rng.UniformInt(0, static_cast<int64_t>(
                                                                   inst.flows.size() - 1))));
        }
        break;
      case 1: {
        FlowSpec f;
        f.links[0] =
            static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(inst.capacity.size()) - 1));
        f.cap_bps = rng.Bernoulli(0.5) ? rng.UniformDouble(0.1e6, 5e6) : kUnlimited;
        inst.flows.push_back(f);
        break;
      }
      default: {
        const size_t l =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(inst.capacity.size()) - 1));
        inst.capacity[l] *= rng.Bernoulli(0.5) ? 0.5 : 2.0;
        break;
      }
    }
  }
}

TEST_P(AllocatorInvariants, RemovingAFlowNeverHurtsSurvivorsLexicographically) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 17);
  Instance inst = MakeInstance(rng, seed % 4 == 0);
  const std::vector<double> before = ReferenceRates(inst);

  // Departure monotonicity. Note the naive per-survivor claim ("no survivor's
  // rate decreases") is FALSE for multi-link max-min: with L1=10 shared by
  // {A, B} and L2=4 shared by {B, C}, rates are A=8, B=2, C=2 — removing C
  // lifts B to 4 on L2, which costs A on L1 (A drops to 6). The true theorem:
  // the old survivor allocation stays feasible after a departure, and max-min
  // lexicographically maximizes the sorted rate vector over feasible
  // allocations, so the sorted survivor rates never decrease lexicographically
  // (in particular, the worst-off survivor never gets worse).
  const size_t removed =
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(inst.flows.size()) - 1));
  Instance reduced = inst;
  reduced.flows.erase(reduced.flows.begin() + static_cast<long>(removed));
  const std::vector<double> after = ReferenceRates(reduced);

  std::vector<double> old_sorted;
  for (size_t i = 0; i < before.size(); ++i) {
    if (i != removed) {
      old_sorted.push_back(before[i]);
    }
  }
  std::vector<double> new_sorted = after;
  std::sort(old_sorted.begin(), old_sorted.end());
  std::sort(new_sorted.begin(), new_sorted.end());
  ASSERT_EQ(old_sorted.size(), new_sorted.size());
  constexpr double kTol = 1.0;  // 1 bps, covers FP re-association
  for (size_t k = 0; k < new_sorted.size(); ++k) {
    if (std::abs(new_sorted[k] - old_sorted[k]) <= kTol) {
      continue;  // tied at this position; compare the next one
    }
    EXPECT_GT(new_sorted[k], old_sorted[k])
        << "sorted survivor rates decreased lexicographically at position " << k;
    break;
  }
  EXPECT_GE(new_sorted.front(), old_sorted.front() - kTol) << "worst-off survivor got worse";
}

INSTANTIATE_TEST_SUITE_P(RandomizedInstances, AllocatorInvariants, ::testing::Range(0, 100));

// --- sharded water-fill (the partitioned engine's AllocateParallel) ---

// Power-of-two capacities and flow counts chosen so every share and every
// freeze subtraction is exact, with one strict bottleneck per round:
//   round 1  link 0 (2^29, 1024 flows) freezes its whole row at 2^19;
//   round 2  the 256 capped flows of link 1 freeze at their 2^20 cap;
//   round 3  link 1 (2^30, 512 flows) freezes the rest at 3 * 2^20.
// Links 0 and 1 both carry rows of >= 512 flows, so on a pool of two or more
// workers rounds 1 and 3 take the sharded path.
struct WideEpoch {
  std::vector<double> capacity;
  std::vector<std::vector<int32_t>> links;  // per flow
  std::vector<double> cap;                  // per flow
};

WideEpoch MakeWideEpoch() {
  WideEpoch e;
  e.capacity = {536870912.0, 1073741824.0, 2147483648.0};  // 2^29, 2^30, 2^31
  for (int k = 0; k < 8; ++k) {
    e.capacity.push_back(268435456.0);  // links 3..10: 2^28, 128 flows each
  }
  for (int k = 0; k < 4; ++k) {
    e.capacity.push_back(2147483648.0);  // links 11..14: 2^31, 128 flows each
  }
  for (int32_t i = 0; i < 1024; ++i) {
    std::vector<int32_t> links = {0, 3 + i % 8};
    if (i % 4 == 0) {
      links.push_back(2);  // shared with every flow of the second group
    }
    e.links.push_back(links);
    e.cap.push_back(kUnlimited);
  }
  for (int32_t j = 0; j < 512; ++j) {
    e.links.push_back({1, 2, 11 + j % 4});
    e.cap.push_back(j % 2 == 0 ? 1048576.0 : kUnlimited);  // 2^20 cap on half
  }
  return e;
}

void LoadEpoch(const WideEpoch& e, IncrementalMaxMin* alloc) {
  alloc->BeginEpoch();
  for (const double c : e.capacity) {
    alloc->AddLink(c);
  }
  for (size_t f = 0; f < e.links.size(); ++f) {
    alloc->AddFlowPath(e.links[f].data(), e.links[f].size(), e.cap[f]);
  }
}

TEST(AllocatorSharded, WideRowsRepeatAndMatchSerialBitwise) {
  const WideEpoch epoch = MakeWideEpoch();
  IncrementalMaxMin serial;
  LoadEpoch(epoch, &serial);
  serial.Allocate();
  const std::vector<double> expected = serial.rates();
  // The instance does what its comment claims.
  EXPECT_EQ(expected[0], 524288.0);
  EXPECT_EQ(expected[1024], 1048576.0);
  EXPECT_EQ(expected[1025], 3145728.0);

  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    WorkerPool pool(threads, nullptr);
    IncrementalMaxMin sharded;
    LoadEpoch(epoch, &sharded);
    sharded.AllocateParallel(&pool);
    const std::vector<double> first = sharded.rates();
    // A second epoch over the same inputs reuses every piece of shard scratch.
    LoadEpoch(epoch, &sharded);
    sharded.AllocateParallel(&pool);
    ASSERT_EQ(first.size(), expected.size());
    ASSERT_EQ(sharded.rates().size(), expected.size());
    for (size_t f = 0; f < expected.size(); ++f) {
      ASSERT_EQ(first[f], sharded.rates()[f]) << "flow " << f << " repeat";
      ASSERT_EQ(first[f], expected[f]) << "flow " << f << " vs Allocate()";
    }
    std::vector<double> used(epoch.capacity.size(), 0.0);
    for (size_t f = 0; f < first.size(); ++f) {
      EXPECT_LE(first[f], epoch.cap[f]);
      for (const int32_t l : epoch.links[f]) {
        used[static_cast<size_t>(l)] += first[f];
      }
    }
    for (size_t l = 0; l < used.size(); ++l) {
      EXPECT_LE(used[l], epoch.capacity[l]) << "link " << l << " oversubscribed";
    }
  }
}

}  // namespace
}  // namespace bullet
