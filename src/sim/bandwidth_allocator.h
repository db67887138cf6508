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
//    auxiliary structure per call over a lazy-deletion heap; kept as the ground
//    truth the property tests compare against and as the network's
//    full-recompute-every-quantum mode. AllocateMaxMin is the historical
//    fixed-3-link entry point; Paths takes a variable-length link list per flow.
//    Both funnel into one reference body.
//
//  * IncrementalMaxMin — the hot-path engine over a persistent flow table. The
//    caller tells it what changed between epochs (a flow added or removed, a
//    flow's cap, a link's capacity) instead of re-feeding the whole flow set;
//    the per-link flow rows, the ascending-cap order and the order of
//    single-flow links are kept across epochs and repaired, not rebuilt.
//    Callers dirty-track their flow set and skip Allocate() when nothing
//    changed: the previous rates are exactly what a recompute would produce.
//
// Canonical order, and the bit-exactness contract. The most constrained link is
// the minimum by (share, link order), where a link's order is its index into
// the capacity vector for the reference and the `order` key given to AddLink()
// for the incremental engine. Under that order the result is a pure function of
// the inputs — the link capacities and orders, and the multiset of flows (link
// list, cap) — and does not depend on flow numbering, on the order of a link's
// flow row, or on how ties between equal caps are sorted: flows frozen in one
// step freeze at one value, and subtracting equal values commutes bitwise.
// IncrementalMaxMin::Allocate() therefore produces rates bit-identical to the
// reference over the same links and flows, whatever sequence of changes built
// its table, with or without a worker pool.
//
// How the engine does less work for the same result:
//  * an indexed binary heap holds only the links that carry two or more flows
//    at the start of the epoch, with no stale entries. A freeze that lowers a
//    link's share (FP wobble) updates its key eagerly; a freeze that raises it
//    (the normal case) is applied lazily: the top's share is recomputed and
//    sifted down before the top is used, so every stored key is at most the
//    link's true share and a refreshed top is the true minimum;
//  * a link with exactly one flow never enters the heap. Its share is its
//    capacity until that flow freezes, so these links sit in one list sorted by
//    (capacity, order), and each step compares the heap top against the head of
//    that list — the step the reference's heap would take, without the heap
//    traffic. On the mesh most private core links carry a single flow.
//
// Parallel rounds: with a WorkerPool of two or more threads, a saturation round
// whose bottleneck row holds kShardMinRow or more flows is split into
// contiguous per-worker ranges of its unfrozen flows. Each worker writes its
// flows' rates (disjoint) and counts, per link, the flows it froze there; the
// caller applies each count as that many subtractions of the round's one
// rate. Every flow of the round freezes at that rate, so the per-link results
// are the serial loop's bits whatever the row order or the split:
// Allocate(pool) equals Allocate(nullptr) bitwise, and both are the pure
// function above.
//
// Thread-safety: the free functions are safe to call concurrently on disjoint
// arguments (they touch only their parameters); an IncrementalMaxMin instance
// is single-threaded — its persistent state belongs to one Network. A wide
// round fans work out through the pool, whose barrier brackets every shared
// access, so no concurrent calls into the instance ever occur.
//
// Profiling: the water-filling body runs under a `water_fill` timed scope
// (src/common/profiler.h) — distinct from the network's enclosing
// `allocator_epoch` phase so nesting never double-counts. The scope is a no-op
// unless built with -DBULLET_PROFILE=ON and never affects the computed rates.

#ifndef SRC_SIM_BANDWIDTH_ALLOCATOR_H_
#define SRC_SIM_BANDWIDTH_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
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

// Computes the allocation in place. `link_capacity_bps[i]` is the capacity of link
// i, and i is its canonical order. Runs in O(F log F + saturation events * log L).
void AllocateMaxMin(std::vector<FlowSpec>& flows, const std::vector<double>& link_capacity_bps);

// As AllocateMaxMin, for flows that cross arbitrary-length link lists. A flow
// whose `links` holds exactly three entries allocates bit-identically to the
// same flow through AllocateMaxMin.
void AllocateMaxMinPaths(std::vector<PathFlowSpec>& flows,
                         const std::vector<double>& link_capacity_bps);

// Persistent-table max-min engine. Links and flows live in slots that stay
// valid until removed; freed slots are reused last-in first-out, so the slot
// sequence is deterministic for a given call sequence.
//
//   int32_t l = alloc.AddLink(order, capacity);   // once per link
//   int32_t f = alloc.AddFlow(links, n, cap);      // when a flow starts
//   alloc.SetFlowCap(f, cap);                       // when its cap moves
//   alloc.SetCapacity(l, capacity);                 // when a link changes
//   alloc.RemoveFlow(f);                            // when it ends
//   alloc.Allocate();  ... alloc.rate(f) ...
class IncrementalMaxMin {
 public:
  // Registers a link and returns its slot. `order` is the link's canonical
  // tie-break key: non-negative and unique among live links.
  int32_t AddLink(int64_t order, double capacity_bps);
  // Frees a link slot. No flow may cross it.
  void RemoveLink(int32_t link);
  void SetCapacity(int32_t link, double capacity_bps);

  // Bound on link slot ids (live and free); a slot is live iff link_order >= 0.
  size_t link_slots() const { return order_.size(); }
  int64_t link_order(int32_t link) const { return order_[static_cast<size_t>(link)]; }
  double capacity(int32_t link) const { return capacity_[static_cast<size_t>(link)]; }
  // Flows crossing `link` (a flow listing it twice counts twice).
  int32_t flows_on_link(int32_t link) const {
    return row_size_[static_cast<size_t>(link)];
  }

  // Registers a flow crossing `num_links` link slots (negative ids are
  // ignored) and returns its slot. A flow that crosses no link is allocated
  // its cap.
  int32_t AddFlow(const int32_t* links, size_t num_links, double cap_bps);
  void RemoveFlow(int32_t flow);
  void SetFlowCap(int32_t flow, double cap_bps);

  // Water-fills the current table. With a pool of two or more workers, wide
  // saturation rounds are sharded across it (see the header comment).
  void Allocate(WorkerPool* pool = nullptr);

  // Rate of a live flow as of the last Allocate() that saw it.
  double rate(int32_t flow) const { return rate_[static_cast<size_t>(flow)]; }
  size_t num_flows() const { return live_flows_; }
  // Heap sifts and removals the last Allocate() performed (work counter).
  uint64_t heap_updates() const { return heap_updates_; }

 private:
  // Below this row width a sharded round's barrier cost outweighs the work.
  static constexpr size_t kShardMinRow = 512;

  static constexpr uint32_t kNoEntry = UINT32_MAX;
  // One (flow, link) pair: an entry of the flow's link list, threaded into
  // the link's row — a doubly linked list through link_pool_.
  struct FlowLink {
    int32_t link;
    int32_t flow;
    uint32_t prev;  // row neighbours, kNoEntry at the ends
    uint32_t next;
  };
  struct HeapNode {
    double key;  // at most the link's current share (increases apply lazily)
    int32_t link;
  };
  bool Before(const HeapNode& a, const HeapNode& b) const {
    return a.key < b.key ||
           (a.key == b.key && order_[static_cast<size_t>(a.link)] <
                                  order_[static_cast<size_t>(b.link)]);
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void HeapRemove(size_t i);
  // Applies a lowered remaining capacity / flow count to heap link `l`:
  // removes it once no unfrozen flow crosses it, else lowers its key if the
  // share dropped.
  void UpdateHeapLink(int32_t l);
  void MarkReorder(int32_t flow);
  // Records a flow entering or leaving `link`'s row: keeps the multi-flow
  // link list current and marks the link for the single-flow order repair.
  void RowChanged(int32_t link, size_t old_width);
  void MarkSideDirty(int32_t link);
  // The one flow on the single-flow link side_[i].
  int32_t SideFlow(size_t i) const {
    return link_pool_[row_head_[static_cast<size_t>(side_[i])]].flow;
  }

  // Links (per slot).
  std::vector<double> capacity_;
  std::vector<int64_t> order_;  // -1 for a free slot
  std::vector<uint32_t> row_head_;  // first entry of the link's row
  std::vector<int32_t> row_size_;
  std::vector<uint8_t> side_dirty_;
  std::vector<int32_t> side_dirty_list_;
  // Links whose row holds two or more entries (the heap's candidates), any
  // order; multi_pos_[l] is l's index there, -1 when absent.
  std::vector<int32_t> multi_;
  std::vector<int32_t> multi_pos_;
  std::vector<int32_t> free_links_;

  // Flows (per slot). Flow f crosses link_pool_[flow_off_[f] ..
  // flow_off_[f] + flow_len_[f]); a removed flow's block goes to
  // free_blocks_[len] for the next flow of that length.
  std::vector<FlowLink> link_pool_;
  std::vector<uint32_t> flow_off_;
  std::vector<uint32_t> flow_len_;
  std::vector<std::vector<uint32_t>> free_blocks_;
  std::vector<double> cap_;
  std::vector<double> rate_;
  std::vector<uint8_t> reorder_;
  std::vector<int32_t> reorder_list_;
  std::vector<int32_t> free_flows_;
  size_t live_flows_ = 0;
  size_t linked_flows_ = 0;  // live flows crossing at least one link

  // Orders kept across epochs and repaired at each Allocate() from the flows
  // and links changed since: linked flows by ascending cap; single-flow links
  // by ascending (capacity, order).
  std::vector<int32_t> by_cap_;
  std::vector<int32_t> side_;
  std::vector<int32_t> fresh_;        // repair scratch
  std::vector<int32_t> row_scratch_;  // a wide row's flows, for the workers

  // Per-epoch state. A flow is frozen in this epoch iff frozen_[f] == epoch_.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> frozen_;
  std::vector<double> remaining_;  // per link, valid while in the heap
  std::vector<int32_t> unfrozen_;  // per link, valid while in the heap
  std::vector<int32_t> pos_;       // per link: heap index, -1 when absent
  std::vector<HeapNode> heap_;
  uint64_t heap_updates_ = 0;

  // Sharded-round scratch. round_id_ only grows, so a stale stamp from any
  // earlier round compares unequal and the arrays need no clearing.
  uint64_t round_id_ = 0;
  struct ShardScratch {
    std::vector<uint64_t> stamp;   // per link: round of last count
    std::vector<int32_t> dcount;   // per link: flows frozen by this worker
    std::vector<int32_t> touched;  // links this worker accumulated into
    size_t frozen = 0;
  };
  std::vector<ShardScratch> shards_;
};

}  // namespace bullet

#endif  // SRC_SIM_BANDWIDTH_ALLOCATOR_H_
