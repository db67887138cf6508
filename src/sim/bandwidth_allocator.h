// Max-min fair bandwidth allocation with per-flow rate caps.
//
// Each active flow traverses an arbitrary list of links — on the legacy mesh that
// is (sender uplink, receiver downlink, core link); on a routed topology it is the
// access links plus every interior link of the flow's route — and may additionally
// be capped by its TCP model. Progressive filling computes the unique max-min
// allocation: repeatedly find the most constrained link, freeze its flows at the
// fair share, and redistribute. Flows whose cap is below the current water level
// are frozen at their cap first.
//
// Two implementations share the algorithm:
//
//  * AllocateMaxMin / AllocateMaxMinPaths — the stateless reference. Builds every
//    auxiliary structure per call; kept as the ground truth the property tests
//    compare against and as the pre-PR "full recompute every quantum" network
//    mode. AllocateMaxMin is the historical fixed-3-link entry point; Paths takes
//    a variable-length link list per flow. Both funnel into one reference body,
//    and a 3-link flow performs the identical arithmetic through either.
//
//  * IncrementalMaxMin — the hot-path engine. All scratch (per-link flow lists as
//    a CSR array, the saturation heap, the cap-sorted index, freeze flags)
//    persists across allocation epochs, so a recompute performs zero heap
//    allocations after warm-up. Callers dirty-track their flow set and simply
//    skip Allocate() when nothing changed: the previous rates are, by
//    determinism, exactly what a recompute would produce.
//
// Bit-exactness contract: for the same sequence of links and flows (same link
// ids, same per-flow link order), IncrementalMaxMin::Allocate() produces rates
// bit-identical to the reference. This is load-bearing — the max-min water level
// is a chain of FP subtractions whose low-order bits depend on freeze order, and
// freeze order depends on flow and link numbering (sort and heap tie-breaks).
// Both implementations therefore perform the identical operation sequence (same
// sort call, same heap algorithm, same update arithmetic), and the network feeds
// them flows in the identical order. Equal-cap flows may be permuted by the sort:
// they freeze at equal rates, and subtracting equal values commutes bitwise, so
// such permutations are harmless. Partial recomputation of "affected bottleneck
// groups" cannot meet this contract (restricting the heap to a subgraph changes
// tie resolution), which is why incrementality here means exact result reuse
// plus allocation-free rebuild rather than subgraph water-filling.
//
// Thread-safety: the free functions are safe to call concurrently on disjoint
// arguments (they touch only their parameters); an IncrementalMaxMin instance
// is single-threaded — its persistent scratch belongs to one Network.
// AllocateParallel() is still driven from that single owning thread; it only
// fans work out through a WorkerPool whose barrier brackets every shared
// access, so no concurrent calls into the instance ever occur.
//
// AllocateParallel() determinism: results depend on the pool's worker count
// but never on thread scheduling — workers fill disjoint flow ranges and the
// coordinator merges their per-link deltas in worker-index order. It is NOT
// bit-identical to Allocate() in general: freezes within a saturation round
// are subtracted from each link as per-worker partial sums rather than one at
// a time, and the reduced heap traffic can resolve exact FP share ties between
// different links in a different order. On capacity sets where the arithmetic
// is exact (e.g. power-of-two capacities) and ties are between equal shares,
// both effects vanish and the two entry points agree bitwise — the invariants
// tests pin this on such a network.
//
// Profiling: the water-filling body runs under a `water_fill` timed scope
// (src/common/profiler.h) — distinct from the network's enclosing
// `allocator_epoch` phase so nesting never double-counts. The scope is a no-op
// unless built with -DBULLET_PROFILE=ON and never affects the computed rates.

#ifndef SRC_SIM_BANDWIDTH_ALLOCATOR_H_
#define SRC_SIM_BANDWIDTH_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace bullet {

class WorkerPool;

struct FlowSpec {
  // Link indices into the capacity vector; -1 means unused slot.
  int32_t links[3] = {-1, -1, -1};
  // Per-flow rate cap in bits/second (TCP model); use a large value for "unlimited".
  double cap_bps = 0.0;
  // Output: allocated rate in bits/second.
  double rate_bps = 0.0;
};

// Variable-length counterpart of FlowSpec for routed paths: a flow crosses every
// link id in `links` (negative entries are ignored, mirroring FlowSpec's -1).
struct PathFlowSpec {
  std::vector<int32_t> links;
  double cap_bps = 0.0;
  double rate_bps = 0.0;  // output
};

// Computes the allocation in place. `link_capacity_bps[i]` is the capacity of link i.
// Runs in O(F log F + saturation events * log L).
void AllocateMaxMin(std::vector<FlowSpec>& flows, const std::vector<double>& link_capacity_bps);

// As AllocateMaxMin, for flows that cross arbitrary-length link lists. A flow
// whose `links` holds exactly three entries allocates bit-identically to the
// same flow through AllocateMaxMin.
void AllocateMaxMinPaths(std::vector<PathFlowSpec>& flows,
                         const std::vector<double>& link_capacity_bps);

// Reusable-scratch max-min engine. Usage per allocation epoch:
//
//   alloc.BeginEpoch();
//   for each link (fixed ids first, discovered ones after): alloc.AddLink(capacity);
//   for each flow in the caller's canonical order:
//     alloc.AddFlow(l0, l1, l2, cap);            // legacy fixed-3 form, or
//     alloc.AddFlowPath(ids, num_ids, cap);      // routed variable-length form
//   alloc.Allocate();
//   ... alloc.rate(i) ...
//
// Results stay valid until the next BeginEpoch(), which lets callers reuse rates
// across quanta in which the flow set, caps, and capacities are all unchanged.
class IncrementalMaxMin {
 public:
  // Resets the flow/link set for a new epoch; previously returned rates are
  // invalidated. Scratch capacity is retained. The first `keep_links` link
  // capacities survive into the new epoch (callers pass the count of fixed
  // access links when they verified those capacities did not change, skipping
  // 2n AddLink calls per epoch); pass 0 to start from an empty link set.
  void BeginEpoch(size_t keep_links = 0);

  // Registers the next link; ids are assigned densely in call order.
  int32_t AddLink(double capacity_bps);

  // Registers the next flow (index = number of AddFlow* calls so far this epoch).
  // Unused link slots are -1.
  void AddFlow(int32_t l0, int32_t l1, int32_t l2, double cap_bps);

  // Registers the next flow crossing `num_ids` links (negative ids are ignored).
  void AddFlowPath(const int32_t* ids, size_t num_ids, double cap_bps);

  // Water-fills the current epoch. Bit-identical to the stateless reference over
  // the same links/flows sequence.
  void Allocate();

  // Water-fills the current epoch with the parallel engine's variant: heap
  // pushes are batched per saturation round (one push per touched link instead
  // of one per freeze), and rounds whose bottleneck row is wide are sharded
  // across `pool`'s workers (disjoint rate writes; per-link demand deltas
  // reduced in worker-index order). `pool` may be null, which keeps every
  // round on the calling thread but retains the batched-push arithmetic. See
  // the header comment for the determinism contract relative to Allocate().
  void AllocateParallel(WorkerPool* pool);

  size_t num_flows() const { return cap_.size(); }
  size_t num_links() const { return capacity_.size(); }
  double rate(size_t flow_index) const { return rate_[flow_index]; }
  const std::vector<double>& rates() const { return rate_; }

  // Number of flows the last Allocate() saw on `link` (CSR row width). Valid
  // until the next BeginEpoch(); used by the network's shared-bottleneck
  // introspection.
  int32_t flows_on_link(size_t link) const {
    return static_cast<int32_t>(link_off_[link + 1] - link_off_[link]);
  }

 private:
  // Rebuilds the per-epoch scratch (remaining capacities, CSR link->flow rows,
  // ascending-cap order, frozen flags, zeroed rates) from the epoch inputs.
  // Pure data movement shared by Allocate() and AllocateParallel().
  void BuildEpochScratch();

  struct HeapEntry {
    double share;
    int32_t link;
    uint32_t stamp;
    bool operator>(const HeapEntry& o) const { return share > o.share; }
  };
  // std::priority_queue with a drainable underlying container, so the heap's
  // storage survives across epochs. Same element order semantics as the
  // reference implementation's priority_queue.
  struct ReusableHeap
      : std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>> {
    void clear() { c.clear(); }
    void reserve(size_t n) { c.reserve(n); }
  };

  // Epoch inputs. Flows are stored CSR-style: flow i crosses
  // flow_links_[flow_off_[i] .. flow_off_[i+1]).
  std::vector<double> capacity_;     // per link
  std::vector<int32_t> flow_links_;  // CSR payload (may contain negative = unused)
  std::vector<uint32_t> flow_off_;   // CSR offsets, size F+1
  std::vector<double> cap_;          // per flow
  std::vector<double> rate_;         // per flow (output)

  // Scratch reused across epochs.
  std::vector<double> remaining_;
  std::vector<int32_t> nflows_;
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> link_off_;    // CSR offsets, size L+1
  std::vector<uint32_t> link_flow_;   // CSR payload: flow indices per link, flow order
  std::vector<uint32_t> fill_cursor_;
  std::vector<std::pair<double, uint32_t>> sort_buf_;  // (cap, flow) pairs
  std::vector<size_t> by_cap_;
  std::vector<char> frozen_;
  ReusableHeap heap_;

  // AllocateParallel scratch. round_id_ is monotonically increasing across
  // epochs and never reset, so the stamp arrays need no per-epoch clearing:
  // a stale stamp from any earlier round or epoch simply compares unequal.
  uint64_t round_id_ = 1;
  std::vector<uint64_t> round_stamp_;   // per link: round that last touched it
  std::vector<int32_t> round_touched_;  // links touched this round, first-touch order
  struct ShardScratch {
    std::vector<uint64_t> stamp;   // per link: round of last accumulation
    std::vector<double> delta;     // per link: demand frozen by this worker
    std::vector<int32_t> dcount;   // per link: flows frozen by this worker
    std::vector<int32_t> touched;  // links this worker accumulated into
    size_t frozen = 0;
  };
  std::vector<ShardScratch> shards_;
};

}  // namespace bullet

#endif  // SRC_SIM_BANDWIDTH_ALLOCATOR_H_
