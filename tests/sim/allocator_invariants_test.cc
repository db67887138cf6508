// Property-style invariant layer over the max-min allocator pair (reference
// AllocateMaxMin vs hot-path IncrementalMaxMin), randomized over ~200 seeded
// instances. Locks down the contracts the network's incremental tick relies on:
//
//  1. feasibility      — no link oversubscribed, no flow above its cap;
//  2. max-min justice  — every flow is cap-limited or crosses a saturated link
//                        on which it has a maximal rate;
//  3. monotonicity     — removing a flow never decreases a survivor's rate;
//  4. bit-exactness    — IncrementalMaxMin's persistent table, driven through
//                        flow adds and removes, cap changes and capacity
//                        changes (tie-heavy instances included), produces
//                        rates bit-identical to a fresh AllocateMaxMin after
//                        every epoch;
//  5. sharded rounds   — Allocate(pool) on a real worker pool, over rows wide
//                        enough to shard, repeats bitwise, stays feasible, and
//                        matches Allocate() and the reference bitwise, at any
//                        capacities and whatever history ordered the rows.
//
// Run standalone with `ctest -L invariants`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
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

// An Instance mirrored into a persistent table: link i has order i, flow i of
// the instance lives in slot flows[i].
struct Table {
  IncrementalMaxMin alloc;
  std::vector<int32_t> links;  // per instance link: slot
  std::vector<int32_t> flows;  // per instance flow: slot

  explicit Table(const Instance& inst) {
    for (size_t l = 0; l < inst.capacity.size(); ++l) {
      links.push_back(alloc.AddLink(static_cast<int64_t>(l), inst.capacity[l]));
    }
    for (const FlowSpec& f : inst.flows) {
      AddFlow(f);
    }
  }
  void AddFlow(const FlowSpec& f) {
    int32_t slots[3];
    for (int k = 0; k < 3; ++k) {
      slots[k] = f.links[k] < 0 ? -1 : links[static_cast<size_t>(f.links[k])];
    }
    flows.push_back(alloc.AddFlow(slots, 3, f.cap_bps));
  }
  std::vector<double> Rates() {
    alloc.Allocate();
    std::vector<double> rates;
    for (const int32_t f : flows) {
      rates.push_back(alloc.rate(f));
    }
    return rates;
  }
};

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

  // One table across all epochs of the case: its persistent state is part of
  // what is under test (stale state from epoch k must not leak into k+1).
  Instance inst = MakeInstance(rng, uniform);
  Table table(inst);
  for (int epoch = 0; epoch < 4; ++epoch) {
    const std::vector<double> reference = ReferenceRates(inst);
    const std::vector<double> incremental = table.Rates();
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
          const long k = static_cast<long>(
              rng.UniformInt(0, static_cast<int64_t>(inst.flows.size() - 1)));
          inst.flows.erase(inst.flows.begin() + k);
          table.alloc.RemoveFlow(table.flows[static_cast<size_t>(k)]);
          table.flows.erase(table.flows.begin() + k);
        }
        break;
      case 1: {
        FlowSpec f;
        f.links[0] =
            static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(inst.capacity.size()) - 1));
        f.cap_bps = rng.Bernoulli(0.5) ? rng.UniformDouble(0.1e6, 5e6) : kUnlimited;
        inst.flows.push_back(f);
        table.AddFlow(f);
        break;
      }
      default: {
        const size_t l =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(inst.capacity.size()) - 1));
        inst.capacity[l] *= rng.Bernoulli(0.5) ? 0.5 : 2.0;
        table.alloc.SetCapacity(table.links[l], inst.capacity[l]);
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

// --- the persistent table against the reference, change by change ---

// Random change scripts over a small link set, so links move between zero,
// one and several flows and the single-flow order is exercised. Links are
// registered in a shuffled slot order (slot != order) and some are removed
// and re-added while idle; the reference sees the live flows, in a shuffled
// order, over a capacity vector indexed by link order. After every epoch the
// rates must match bitwise.
struct ScriptFlow {
  std::vector<int32_t> links;  // link orders; -1 entries are unused slots
  double cap;
  int32_t slot;
};

// Uniform index in [0, n).
size_t Draw(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t k = v.size(); k > 1; --k) {
    std::swap(v[k - 1], v[Draw(rng, k)]);
  }
}

double DrawCapacity(Rng& rng, int regime) {
  switch (regime) {
    case 0:  // tie-heavy: a handful of values, equal fair shares everywhere
      return 1e6 * static_cast<double>(rng.UniformInt(1, 4));
    case 1:  // non-power-of-two, inexact shares
      return rng.UniformDouble(0.3e6, 9e6);
    default:  // mixed, with zero-capacity links
      return rng.Bernoulli(0.1) ? 0.0 : 3e6 / static_cast<double>(rng.UniformInt(1, 7));
  }
}

double DrawCap(Rng& rng, int regime) {
  const int64_t kind = rng.UniformInt(0, 9);
  if (kind < 4) {
    return kUnlimited;
  }
  if (kind < 5) {
    return std::numeric_limits<double>::infinity();
  }
  return regime == 0 ? 0.5e6 * static_cast<double>(rng.UniformInt(1, 4))
                     : rng.UniformDouble(0.1e6, 6e6);
}

class PersistentTable : public ::testing::TestWithParam<int> {};

TEST_P(PersistentTable, MatchesReferenceAfterEveryChange) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 0x2545f4914f6cdd1dULL + 3);
  const int regime = seed % 3;
  const int num_links = static_cast<int>(rng.UniformInt(2, 14));

  std::vector<double> capacity(static_cast<size_t>(num_links));
  for (double& c : capacity) {
    c = DrawCapacity(rng, regime);
  }
  // Shuffled registration: slot k holds some other order.
  std::vector<int32_t> orders(static_cast<size_t>(num_links));
  for (int32_t l = 0; l < num_links; ++l) {
    orders[static_cast<size_t>(l)] = l;
  }
  Shuffle(orders, rng);
  IncrementalMaxMin alloc;
  std::vector<int32_t> slot_of(static_cast<size_t>(num_links), -1);
  for (const int32_t o : orders) {
    slot_of[static_cast<size_t>(o)] = alloc.AddLink(o, capacity[static_cast<size_t>(o)]);
  }

  std::vector<ScriptFlow> flows;
  auto add_flow = [&] {
    ScriptFlow f;
    const int64_t len = rng.UniformInt(1, 4);
    for (int64_t k = 0; k < len; ++k) {
      // Mostly distinct links per flow; an occasional -1 slot.
      f.links.push_back(rng.Bernoulli(0.1) ? -1 : static_cast<int32_t>(Draw(rng, num_links)));
    }
    f.cap = DrawCap(rng, regime);
    std::vector<int32_t> slots;
    for (const int32_t l : f.links) {
      slots.push_back(l < 0 ? -1 : slot_of[static_cast<size_t>(l)]);
    }
    f.slot = alloc.AddFlow(slots.data(), slots.size(), f.cap);
    flows.push_back(std::move(f));
  };
  const int64_t initial = rng.UniformInt(0, 2 * num_links);
  for (int64_t k = 0; k < initial; ++k) {
    add_flow();
  }

  for (int epoch = 0; epoch < 40; ++epoch) {
    const int64_t changes = rng.UniformInt(0, 4);
    for (int64_t c = 0; c < changes; ++c) {
      const int64_t op = rng.UniformInt(0, 9);
      if (op < 3) {
        add_flow();
      } else if (op < 6 && !flows.empty()) {
        const size_t k = Draw(rng, flows.size());
        alloc.RemoveFlow(flows[k].slot);
        flows.erase(flows.begin() + static_cast<long>(k));
      } else if (op < 8 && !flows.empty()) {
        ScriptFlow& f = flows[Draw(rng, flows.size())];
        f.cap = DrawCap(rng, regime);
        alloc.SetFlowCap(f.slot, f.cap);
      } else if (op < 9) {
        const size_t l = Draw(rng, num_links);
        capacity[l] = DrawCapacity(rng, regime);
        alloc.SetCapacity(slot_of[l], capacity[l]);
      } else {
        // Re-register an idle link under a fresh slot, as the network does
        // for interior links between uses.
        const size_t l = Draw(rng, num_links);
        if (alloc.flows_on_link(slot_of[l]) == 0) {
          alloc.RemoveLink(slot_of[l]);
          slot_of[l] = alloc.AddLink(static_cast<int64_t>(l), capacity[l]);
        }
      }
    }
    alloc.Allocate();

    std::vector<size_t> perm(flows.size());
    for (size_t k = 0; k < perm.size(); ++k) {
      perm[k] = k;
    }
    Shuffle(perm, rng);
    std::vector<PathFlowSpec> ref(flows.size());
    for (size_t k = 0; k < perm.size(); ++k) {
      ref[k].links = flows[perm[k]].links;
      ref[k].cap_bps = flows[perm[k]].cap;
    }
    AllocateMaxMinPaths(ref, capacity);
    ASSERT_EQ(alloc.num_flows(), flows.size());
    for (size_t k = 0; k < perm.size(); ++k) {
      ASSERT_EQ(alloc.rate(flows[perm[k]].slot), ref[k].rate_bps)
          << "epoch " << epoch << " flow " << perm[k];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChangeScripts, PersistentTable, ::testing::Range(0, 150));

// --- sharded water-fill (the partitioned engine's wide rounds) ---

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

// Link k gets order k and slot k; flow f gets slot f.
void LoadEpoch(const WideEpoch& e, IncrementalMaxMin* alloc) {
  for (size_t l = 0; l < e.capacity.size(); ++l) {
    alloc->AddLink(static_cast<int64_t>(l), e.capacity[l]);
  }
  for (size_t f = 0; f < e.links.size(); ++f) {
    alloc->AddFlow(e.links[f].data(), e.links[f].size(), e.cap[f]);
  }
}

std::vector<double> Rates(const IncrementalMaxMin& alloc) {
  std::vector<double> rates;
  for (size_t f = 0; f < alloc.num_flows(); ++f) {
    rates.push_back(alloc.rate(static_cast<int32_t>(f)));
  }
  return rates;
}

TEST(AllocatorSharded, WideRowsRepeatAndMatchSerialBitwise) {
  const WideEpoch epoch = MakeWideEpoch();
  IncrementalMaxMin serial;
  LoadEpoch(epoch, &serial);
  serial.Allocate();
  const std::vector<double> expected = Rates(serial);
  // The instance does what its comment claims.
  EXPECT_EQ(expected[0], 524288.0);
  EXPECT_EQ(expected[1024], 1048576.0);
  EXPECT_EQ(expected[1025], 3145728.0);

  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    WorkerPool pool(threads, nullptr);
    IncrementalMaxMin sharded;
    LoadEpoch(epoch, &sharded);
    sharded.Allocate(&pool);
    const std::vector<double> first = Rates(sharded);
    // A second epoch over the same table reuses every piece of shard scratch.
    sharded.Allocate(&pool);
    const std::vector<double> second = Rates(sharded);
    ASSERT_EQ(first.size(), expected.size());
    ASSERT_EQ(second.size(), expected.size());
    for (size_t f = 0; f < expected.size(); ++f) {
      ASSERT_EQ(first[f], second[f]) << "flow " << f << " repeat";
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

// Wide rows at inexact capacities: the sharded rounds must give the serial
// bits and the reference's, however the table's history ordered the rows.
// Link 0 carries 600 flows and saturates first at an inexact share; each of
// its flows also crosses one of links 1..3, which keep 50 flows of their own
// whose rates come from what the wide round left on those links — so any
// grouping of the round's subtractions other than the serial one shows.
WideEpoch MakeInexactWideEpoch(Rng& rng) {
  WideEpoch e;
  e.capacity.push_back(600.0 * rng.UniformDouble(1e6, 2e6));
  for (int k = 0; k < 3; ++k) {
    e.capacity.push_back(250.0 * rng.UniformDouble(4e6, 8e6));
  }
  for (int32_t i = 0; i < 600; ++i) {
    e.links.push_back({0, 1 + i % 3});
    e.cap.push_back(kUnlimited);
  }
  for (int32_t j = 0; j < 150; ++j) {
    e.links.push_back({1 + j % 3});
    e.cap.push_back(kUnlimited);
  }
  return e;
}

// One table over `epoch`, its flows added in `order` with, when `decoys`, a
// capped decoy added before some flows and all decoys removed afterwards —
// so rows hold their flows in another order and flow slots differ. Returns
// each epoch flow's slot.
std::vector<int32_t> LoadInOrder(const WideEpoch& epoch, const std::vector<size_t>& order,
                                 bool decoys, Rng& rng, IncrementalMaxMin* alloc) {
  for (size_t l = 0; l < epoch.capacity.size(); ++l) {
    alloc->AddLink(static_cast<int64_t>(l), epoch.capacity[l]);
  }
  std::vector<int32_t> slot(order.size());
  std::vector<int32_t> added;
  for (const size_t f : order) {
    if (decoys && rng.Bernoulli(0.3)) {
      added.push_back(alloc->AddFlow(epoch.links[f].data(), epoch.links[f].size(), 1e6));
    }
    slot[f] = alloc->AddFlow(epoch.links[f].data(), epoch.links[f].size(), epoch.cap[f]);
  }
  for (const int32_t d : added) {
    alloc->RemoveFlow(d);
  }
  return slot;
}

TEST(AllocatorSharded, WideRowsAtInexactCapacitiesMatchReferenceInAnyHistory) {
  Rng rng(77);
  for (int instance = 0; instance < 4; ++instance) {
    const WideEpoch epoch = MakeInexactWideEpoch(rng);
    std::vector<PathFlowSpec> ref(epoch.links.size());
    for (size_t f = 0; f < ref.size(); ++f) {
      ref[f].links = epoch.links[f];
      ref[f].cap_bps = epoch.cap[f];
    }
    AllocateMaxMinPaths(ref, epoch.capacity);

    for (const bool shuffled : {false, true}) {
      std::vector<size_t> order(epoch.links.size());
      for (size_t f = 0; f < order.size(); ++f) {
        order[f] = f;
      }
      if (shuffled) {
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1],
                    order[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
        }
      }
      for (const int threads : {1, 2, 3}) {
        SCOPED_TRACE(testing::Message() << "instance " << instance << " shuffled " << shuffled
                                        << " threads " << threads);
        IncrementalMaxMin alloc;
        const std::vector<int32_t> slot = LoadInOrder(epoch, order, shuffled, rng, &alloc);
        std::unique_ptr<WorkerPool> pool;
        if (threads > 1) {
          pool = std::make_unique<WorkerPool>(threads, nullptr);
        }
        alloc.Allocate(pool.get());
        for (size_t f = 0; f < ref.size(); ++f) {
          ASSERT_EQ(alloc.rate(slot[f]), ref[f].rate_bps) << "flow " << f;
        }
      }
    }
  }
}

// A pool without a wide row leaves every round on the calling thread, so
// Allocate(pool) must equal Allocate() bitwise on any capacities — here
// non-power-of-two ones, where per-round batching of heap updates used to
// resolve share ties differently.
TEST(AllocatorSharded, PoolWithoutWideRowsMatchesSerialBitwise) {
  WorkerPool pool(2, nullptr);
  Rng rng(4242);
  for (int instance = 0; instance < 300; ++instance) {
    const Instance inst = MakeInstance(rng, instance % 3 == 0);
    Table serial(inst);
    Table pooled(inst);
    const std::vector<double> want = serial.Rates();
    pooled.alloc.Allocate(&pool);
    const std::vector<double> reference = ReferenceRates(inst);
    for (size_t f = 0; f < want.size(); ++f) {
      ASSERT_EQ(pooled.alloc.rate(pooled.flows[f]), want[f]) << "instance " << instance;
      ASSERT_EQ(reference[f], want[f]) << "instance " << instance;
    }
  }
}

}  // namespace
}  // namespace bullet
