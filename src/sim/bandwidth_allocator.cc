#include "src/sim/bandwidth_allocator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <queue>

#include "src/common/logging.h"
#include "src/common/profiler.h"
#include "src/sim/engine_parallel.h"

namespace bullet {

namespace {

struct HeapEntry {
  double share;
  int32_t link;
  uint32_t stamp;
  // The canonical order: least share first, ties to the lower link index.
  bool operator>(const HeapEntry& o) const {
    return share > o.share || (share == o.share && link > o.link);
  }
};

// The stateless reference body shared by AllocateMaxMin and AllocateMaxMinPaths.
// Flows arrive CSR-style: flow i crosses flow_links[flow_off[i] .. flow_off[i+1])
// (negative entries are skipped). Every auxiliary structure is built fresh per
// call, and every link carries a heap entry per change (stale ones are skipped
// by stamp); IncrementalMaxMin::Allocate() takes the same steps over its
// persistent table, and the invariants tests compare the two bitwise.
void ReferenceMaxMin(const std::vector<int32_t>& flow_links, const std::vector<uint32_t>& flow_off,
                     const std::vector<double>& cap, const std::vector<double>& link_capacity_bps,
                     std::vector<double>& rate) {
  const size_t num_links = link_capacity_bps.size();
  const size_t num_flows = cap.size();
  std::vector<double> remaining(link_capacity_bps);
  std::vector<int32_t> nflows(num_links, 0);
  std::vector<uint32_t> stamp(num_links, 0);
  rate.assign(num_flows, 0.0);

  std::vector<std::vector<uint32_t>> link_flows(num_links);
  for (size_t i = 0; i < num_flows; ++i) {
    for (uint32_t off = flow_off[i]; off < flow_off[i + 1]; ++off) {
      const int32_t l = flow_links[off];
      if (l >= 0) {
        ++nflows[static_cast<size_t>(l)];
        link_flows[static_cast<size_t>(l)].push_back(static_cast<uint32_t>(i));
      }
    }
  }

  // Flow indices ordered by ascending cap, so cap-limited flows freeze cheaply.
  // Equal-cap flows may land in any order: they freeze at equal rates, and
  // subtracting equal values commutes bitwise, so the permutation is harmless.
  std::vector<std::pair<double, uint32_t>> sort_buf(num_flows);
  for (size_t i = 0; i < num_flows; ++i) {
    sort_buf[i] = {cap[i], static_cast<uint32_t>(i)};
  }
  std::sort(sort_buf.begin(), sort_buf.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<size_t> by_cap(num_flows);
  for (size_t i = 0; i < num_flows; ++i) {
    by_cap[i] = sort_buf[i].second;
  }
  size_t cap_cursor = 0;

  std::vector<char> frozen(num_flows, 0);
  size_t frozen_count = 0;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>> heap;
  auto push_link = [&](int32_t l) {
    const size_t li = static_cast<size_t>(l);
    if (nflows[li] > 0) {
      heap.push(HeapEntry{remaining[li] / nflows[li], l, stamp[li]});
    }
  };
  for (size_t l = 0; l < num_links; ++l) {
    push_link(static_cast<int32_t>(l));
  }

  // Freeze one flow at `r`, removing its demand from its links.
  auto freeze = [&](size_t fi, double r) {
    rate[fi] = std::max(r, 0.0);
    frozen[fi] = 1;
    ++frozen_count;
    for (uint32_t off = flow_off[fi]; off < flow_off[fi + 1]; ++off) {
      const int32_t l = flow_links[off];
      if (l < 0) {
        continue;
      }
      const size_t li = static_cast<size_t>(l);
      remaining[li] = std::max(0.0, remaining[li] - rate[fi]);
      --nflows[li];
      ++stamp[li];
      push_link(l);
    }
  };

  // Flows that traverse no links are bounded only by their cap.
  for (size_t i = 0; i < num_flows; ++i) {
    bool has_link = false;
    for (uint32_t off = flow_off[i]; off < flow_off[i + 1]; ++off) {
      has_link |= flow_links[off] >= 0;
    }
    if (!has_link && !frozen[i]) {
      frozen[i] = 1;
      ++frozen_count;
      rate[i] = cap[i];
    }
  }

  while (frozen_count < num_flows) {
    // Find the currently most constrained link (skip stale heap entries).
    double min_share = -1.0;
    int32_t min_link = -1;
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      const size_t li = static_cast<size_t>(top.link);
      if (top.stamp != stamp[li] || nflows[li] <= 0) {
        heap.pop();
        continue;
      }
      min_share = top.share;
      min_link = top.link;
      break;
    }
    if (min_link < 0) {
      // No constrained link remains; all unfrozen flows get their caps.
      for (size_t i = 0; i < num_flows; ++i) {
        if (!frozen[i]) {
          frozen[i] = 1;
          ++frozen_count;
          rate[i] = cap[i];
        }
      }
      break;
    }

    // First freeze any flow whose cap is at or below the water level: it cannot use
    // a full fair share anywhere (min_share is the global minimum share).
    bool froze_capped = false;
    while (cap_cursor < by_cap.size()) {
      const size_t fi = by_cap[cap_cursor];
      if (frozen[fi]) {
        ++cap_cursor;
        continue;
      }
      if (cap[fi] <= min_share) {
        freeze(fi, cap[fi]);
        ++cap_cursor;
        froze_capped = true;
      } else {
        break;
      }
    }
    if (froze_capped) {
      continue;  // Water level may have risen; recompute.
    }

    // Saturate the bottleneck link: freeze all its unfrozen flows at the fair share.
    const size_t li = static_cast<size_t>(min_link);
    for (uint32_t fi : link_flows[li]) {
      if (!frozen[fi]) {
        freeze(fi, min_share);
      }
    }
    ++stamp[li];  // Invalidate stale entries for the saturated link.
  }
}

}  // namespace

void AllocateMaxMin(std::vector<FlowSpec>& flows, const std::vector<double>& link_capacity_bps) {
  // Fixed-3 flows become CSR rows of exactly three entries (-1 slots included and
  // skipped inside, matching the historical behaviour bit for bit).
  std::vector<int32_t> flow_links;
  flow_links.reserve(3 * flows.size());
  std::vector<uint32_t> flow_off(flows.size() + 1, 0);
  std::vector<double> cap(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    for (int32_t l : flows[i].links) {
      flow_links.push_back(l);
    }
    flow_off[i + 1] = static_cast<uint32_t>(flow_links.size());
    cap[i] = flows[i].cap_bps;
  }
  std::vector<double> rate;
  {
    BULLET_PROFILE_SCOPE(ProfilePhase::kWaterFill);
    ReferenceMaxMin(flow_links, flow_off, cap, link_capacity_bps, rate);
  }
  for (size_t i = 0; i < flows.size(); ++i) {
    flows[i].rate_bps = rate[i];
  }
}

void AllocateMaxMinPaths(std::vector<PathFlowSpec>& flows,
                         const std::vector<double>& link_capacity_bps) {
  std::vector<int32_t> flow_links;
  std::vector<uint32_t> flow_off(flows.size() + 1, 0);
  std::vector<double> cap(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    flow_links.insert(flow_links.end(), flows[i].links.begin(), flows[i].links.end());
    flow_off[i + 1] = static_cast<uint32_t>(flow_links.size());
    cap[i] = flows[i].cap_bps;
  }
  std::vector<double> rate;
  {
    BULLET_PROFILE_SCOPE(ProfilePhase::kWaterFill);
    ReferenceMaxMin(flow_links, flow_off, cap, link_capacity_bps, rate);
  }
  for (size_t i = 0; i < flows.size(); ++i) {
    flows[i].rate_bps = rate[i];
  }
}

int32_t IncrementalMaxMin::AddLink(int64_t order, double capacity_bps) {
  BULLET_CHECK(order >= 0 && "link order keys are non-negative");
  int32_t l;
  if (free_links_.empty()) {
    l = static_cast<int32_t>(order_.size());
    capacity_.push_back(0.0);
    order_.push_back(-1);
    row_head_.push_back(kNoEntry);
    row_size_.push_back(0);
    side_dirty_.push_back(0);
    multi_pos_.push_back(-1);
    remaining_.push_back(0.0);
    unfrozen_.push_back(0);
    pos_.push_back(-1);
  } else {
    l = free_links_.back();
    free_links_.pop_back();
  }
  capacity_[static_cast<size_t>(l)] = capacity_bps;
  order_[static_cast<size_t>(l)] = order;
  return l;
}

void IncrementalMaxMin::RemoveLink(int32_t link) {
  BULLET_CHECK(row_size_[static_cast<size_t>(link)] == 0 && "removing a link that flows cross");
  order_[static_cast<size_t>(link)] = -1;
  free_links_.push_back(link);
}

void IncrementalMaxMin::SetCapacity(int32_t link, double capacity_bps) {
  const size_t l = static_cast<size_t>(link);
  if (capacity_[l] == capacity_bps) {
    return;
  }
  capacity_[l] = capacity_bps;
  if (row_size_[l] == 1) {
    MarkSideDirty(link);  // its place in the single-flow order moved
  }
}

int32_t IncrementalMaxMin::AddFlow(const int32_t* links, size_t num_links, double cap_bps) {
  int32_t f;
  if (free_flows_.empty()) {
    f = static_cast<int32_t>(cap_.size());
    flow_off_.push_back(0);
    flow_len_.push_back(0);
    cap_.push_back(0.0);
    rate_.push_back(0.0);
    reorder_.push_back(0);
    frozen_.push_back(0);
  } else {
    f = free_flows_.back();
    free_flows_.pop_back();
  }
  const size_t fi = static_cast<size_t>(f);
  // The flow's link list takes a pooled block of its exact length.
  uint32_t len = 0;
  for (size_t k = 0; k < num_links; ++k) {
    len += links[k] >= 0 ? 1 : 0;
  }
  if (free_blocks_.size() <= len) {
    free_blocks_.resize(len + 1);
  }
  uint32_t off;
  if (free_blocks_[len].empty()) {
    off = static_cast<uint32_t>(link_pool_.size());
    link_pool_.resize(link_pool_.size() + len);
  } else {
    off = free_blocks_[len].back();
    free_blocks_[len].pop_back();
  }
  flow_off_[fi] = off;
  flow_len_[fi] = len;
  for (size_t k = 0; k < num_links; ++k) {
    const int32_t l = links[k];
    if (l < 0) {
      continue;
    }
    // Push the entry onto the front of the link's row.
    const size_t li = static_cast<size_t>(l);
    const uint32_t next = row_head_[li];
    link_pool_[off] = FlowLink{l, f, kNoEntry, next};
    if (next != kNoEntry) {
      link_pool_[next].prev = off;
    }
    row_head_[li] = off++;
    ++row_size_[li];
    RowChanged(l, static_cast<size_t>(row_size_[li] - 1));
  }
  cap_[fi] = cap_bps;
  rate_[fi] = len == 0 ? cap_bps : 0.0;
  ++live_flows_;
  if (len != 0) {
    ++linked_flows_;
    MarkReorder(f);
  }
  return f;
}

void IncrementalMaxMin::RemoveFlow(int32_t flow) {
  const size_t fi = static_cast<size_t>(flow);
  const uint32_t off = flow_off_[fi];
  const uint32_t len = flow_len_[fi];
  // Unlink this flow's entry from each row; row order is immaterial.
  for (uint32_t k = off; k < off + len; ++k) {
    const FlowLink& e = link_pool_[k];
    const size_t li = static_cast<size_t>(e.link);
    if (e.prev != kNoEntry) {
      link_pool_[e.prev].next = e.next;
    } else {
      row_head_[li] = e.next;
    }
    if (e.next != kNoEntry) {
      link_pool_[e.next].prev = e.prev;
    }
    --row_size_[li];
    RowChanged(e.link, static_cast<size_t>(row_size_[li] + 1));
  }
  if (len != 0) {
    --linked_flows_;
    MarkReorder(flow);
  }
  free_blocks_[len].push_back(off);
  flow_len_[fi] = 0;
  --live_flows_;
  free_flows_.push_back(flow);
}

void IncrementalMaxMin::SetFlowCap(int32_t flow, double cap_bps) {
  const size_t fi = static_cast<size_t>(flow);
  if (cap_[fi] == cap_bps) {
    return;
  }
  cap_[fi] = cap_bps;
  if (flow_len_[fi] == 0) {
    rate_[fi] = cap_bps;
  } else {
    MarkReorder(flow);
  }
}

void IncrementalMaxMin::MarkReorder(int32_t flow) {
  if (reorder_[static_cast<size_t>(flow)] == 0) {
    reorder_[static_cast<size_t>(flow)] = 1;
    reorder_list_.push_back(flow);
  }
}

void IncrementalMaxMin::RowChanged(int32_t link, size_t old_width) {
  const size_t li = static_cast<size_t>(link);
  const size_t width = static_cast<size_t>(row_size_[li]);
  if (old_width < 2 && width >= 2) {
    multi_pos_[li] = static_cast<int32_t>(multi_.size());
    multi_.push_back(link);
  } else if (old_width >= 2 && width < 2) {
    const int32_t p = multi_pos_[li];
    multi_[static_cast<size_t>(p)] = multi_.back();
    multi_pos_[static_cast<size_t>(multi_.back())] = p;
    multi_.pop_back();
    multi_pos_[li] = -1;
  }
  if (old_width == 1 || width == 1) {
    MarkSideDirty(link);
  }
}

void IncrementalMaxMin::MarkSideDirty(int32_t link) {
  if (side_dirty_[static_cast<size_t>(link)] == 0) {
    side_dirty_[static_cast<size_t>(link)] = 1;
    side_dirty_list_.push_back(link);
  }
}

namespace {

// Restores the sorted `order` after the entries listed in `dirty` (each with
// its `flag` set) changed: drops their old positions, then merges back, sorted
// by `less`, those that `belongs` accepts now. O(order + dirty log dirty).
template <typename Belongs, typename Less>
void RepairOrder(std::vector<int32_t>& order, std::vector<uint8_t>& flag,
                 std::vector<int32_t>& dirty, std::vector<int32_t>& fresh, Belongs belongs,
                 Less less) {
  if (dirty.empty()) {
    return;
  }
  size_t kept = 0;
  for (const int32_t x : order) {
    if (flag[static_cast<size_t>(x)] == 0) {
      order[kept++] = x;
    }
  }
  fresh.clear();
  for (const int32_t x : dirty) {
    flag[static_cast<size_t>(x)] = 0;
    if (belongs(x)) {
      fresh.push_back(x);
    }
  }
  dirty.clear();
  std::sort(fresh.begin(), fresh.end(), less);
  // Merge back to front, in place.
  order.resize(kept + fresh.size());
  size_t i = kept;
  size_t j = fresh.size();
  size_t k = order.size();
  while (j > 0) {
    if (i > 0 && less(fresh[j - 1], order[i - 1])) {
      order[--k] = order[--i];
    } else {
      order[--k] = fresh[--j];
    }
  }
}

}  // namespace

void IncrementalMaxMin::SiftUp(size_t i) {
  const HeapNode node = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(node, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    pos_[static_cast<size_t>(heap_[i].link)] = static_cast<int32_t>(i);
    i = parent;
  }
  heap_[i] = node;
  pos_[static_cast<size_t>(node.link)] = static_cast<int32_t>(i);
}

void IncrementalMaxMin::SiftDown(size_t i) {
  const HeapNode node = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], node)) {
      break;
    }
    heap_[i] = heap_[child];
    pos_[static_cast<size_t>(heap_[i].link)] = static_cast<int32_t>(i);
    i = child;
  }
  heap_[i] = node;
  pos_[static_cast<size_t>(node.link)] = static_cast<int32_t>(i);
}

void IncrementalMaxMin::HeapRemove(size_t i) {
  pos_[static_cast<size_t>(heap_[i].link)] = -1;
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    heap_[i] = last;
    if (i > 0 && Before(last, heap_[(i - 1) / 2])) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }
}

void IncrementalMaxMin::UpdateHeapLink(int32_t l) {
  const size_t li = static_cast<size_t>(l);
  const size_t p = static_cast<size_t>(pos_[li]);
  if (unfrozen_[li] == 0) {
    HeapRemove(p);
    ++heap_updates_;
    return;
  }
  // A raised share waits until the link reaches the top.
  const double share = remaining_[li] / unfrozen_[li];
  if (share < heap_[p].key) {
    heap_[p].key = share;
    SiftUp(p);
    ++heap_updates_;
  }
}

// The reference's steps over the persistent table. Each step finds the least
// (share, order) among the live links — the refreshed heap top or the head of
// the single-flow list — then either freezes the cap-limited flows at or below
// that share, or saturates that link.
void IncrementalMaxMin::Allocate(WorkerPool* pool) {
  BULLET_PROFILE_SCOPE(ProfilePhase::kWaterFill);
  // Linked flows by ascending cap. Equal caps may land in any relative order:
  // they freeze in one cap step at one value, so any permutation of an
  // equal-cap run gives the same bits. A removed flow's link list is empty, so
  // it drops out like an unlinked one.
  RepairOrder(
      by_cap_, reorder_, reorder_list_, fresh_,
      [this](int32_t f) { return flow_len_[static_cast<size_t>(f)] != 0; },
      [this](int32_t a, int32_t b) {
        return cap_[static_cast<size_t>(a)] < cap_[static_cast<size_t>(b)];
      });
  // Single-flow links by ascending (capacity, order).
  RepairOrder(
      side_, side_dirty_, side_dirty_list_, fresh_,
      [this](int32_t l) {
        return order_[static_cast<size_t>(l)] >= 0 && row_size_[static_cast<size_t>(l)] == 1;
      },
      [this](int32_t a, int32_t b) {
        return Before(HeapNode{capacity_[static_cast<size_t>(a)], a},
                      HeapNode{capacity_[static_cast<size_t>(b)], b});
      });
  ++epoch_;
  heap_updates_ = 0;

  heap_.clear();
  for (const int32_t link : multi_) {
    const size_t l = static_cast<size_t>(link);
    const int32_t width = row_size_[l];
    remaining_[l] = capacity_[l];
    unfrozen_[l] = width;
    pos_[l] = static_cast<int32_t>(heap_.size());
    heap_.push_back(HeapNode{capacity_[l] / width, link});
  }
  for (size_t i = heap_.size() / 2; i-- > 0;) {
    SiftDown(i);
  }

  const uint32_t epoch = epoch_;
  size_t left = linked_flows_;
  auto freeze = [&](int32_t f, double r) {
    const size_t fi = static_cast<size_t>(f);
    const double rate = std::max(r, 0.0);
    rate_[fi] = rate;
    frozen_[fi] = epoch;
    --left;
    const FlowLink* links = link_pool_.data() + flow_off_[fi];
    for (uint32_t k = 0; k < flow_len_[fi]; ++k) {
      const FlowLink& fl = links[k];
      const size_t li = static_cast<size_t>(fl.link);
      if (pos_[li] < 0) {
        continue;  // a single-flow link, or one no unfrozen flow crosses
      }
      remaining_[li] = std::max(0.0, remaining_[li] - rate);
      --unfrozen_[li];
      UpdateHeapLink(fl.link);
    }
  };

  size_t cap_cursor = 0;
  size_t side_cursor = 0;
  while (left > 0) {
    while (!heap_.empty()) {
      HeapNode& top = heap_[0];
      const size_t li = static_cast<size_t>(top.link);
      const double share = remaining_[li] / unfrozen_[li];
      if (!(share > top.key)) {
        break;
      }
      top.key = share;
      SiftDown(0);
      ++heap_updates_;
    }
    while (side_cursor < side_.size() &&
           frozen_[static_cast<size_t>(SideFlow(side_cursor))] == epoch) {
      ++side_cursor;
    }
    bool from_side = false;
    double min_share = 0.0;
    if (side_cursor < side_.size()) {
      const size_t sl = static_cast<size_t>(side_[side_cursor]);
      from_side = heap_.empty() || Before(HeapNode{capacity_[sl], side_[side_cursor]}, heap_[0]);
      min_share = capacity_[sl];
    }
    BULLET_CHECK((from_side || !heap_.empty()) && "unfrozen flows but no live link");
    if (!from_side) {
      min_share = heap_[0].key;
    }

    // Flows whose cap is at or below the water level cannot use a full fair
    // share anywhere (min_share is the global minimum share).
    bool froze_capped = false;
    while (cap_cursor < by_cap_.size()) {
      const int32_t f = by_cap_[cap_cursor];
      if (frozen_[static_cast<size_t>(f)] == epoch) {
        ++cap_cursor;
        continue;
      }
      if (cap_[static_cast<size_t>(f)] <= min_share) {
        freeze(f, cap_[static_cast<size_t>(f)]);
        ++cap_cursor;
        froze_capped = true;
      } else {
        break;
      }
    }
    if (froze_capped) {
      continue;  // the water level may have risen; find the minimum again
    }

    if (from_side) {
      freeze(SideFlow(side_cursor), min_share);
      ++side_cursor;
      continue;
    }

    // Saturate the bottleneck: freeze all its unfrozen flows at the fair share.
    // It leaves the heap first, so the freezes skip its own bookkeeping.
    const size_t bottleneck = static_cast<size_t>(heap_[0].link);
    HeapRemove(0);
    ++heap_updates_;
    if (pool == nullptr || pool->num_threads() < 2 ||
        static_cast<size_t>(row_size_[bottleneck]) < kShardMinRow) {
      for (uint32_t e = row_head_[bottleneck]; e != kNoEntry; e = link_pool_[e].next) {
        const int32_t f = link_pool_[e].flow;
        if (frozen_[static_cast<size_t>(f)] != epoch) {
          freeze(f, min_share);
        }
      }
      continue;
    }
    // Wide round: the workers freeze contiguous ranges of the row and count,
    // per link, the flows they froze on it. Every one of those flows freezes
    // at the same rate, so applying each link's count as that many clamped
    // subtractions gives the bits the serial loop gives, whatever the row
    // order and however the row is split.
    // A flow that lists the bottleneck twice enters the row once.
    row_scratch_.clear();
    for (uint32_t e = row_head_[bottleneck]; e != kNoEntry; e = link_pool_[e].next) {
      const int32_t f = link_pool_[e].flow;
      const uint32_t first = flow_off_[static_cast<size_t>(f)];
      bool repeat = false;
      for (uint32_t k = first; k < e && !repeat; ++k) {
        repeat = link_pool_[k].link == static_cast<int32_t>(bottleneck);
      }
      if (!repeat && frozen_[static_cast<size_t>(f)] != epoch) {
        row_scratch_.push_back(f);
      }
    }
    const std::vector<int32_t>& row = row_scratch_;
    const double rate = std::max(min_share, 0.0);
    const int nw = pool->num_threads();
    if (shards_.size() < static_cast<size_t>(nw)) {
      shards_.resize(static_cast<size_t>(nw));
    }
    const uint64_t round = ++round_id_;
    const size_t num_links = order_.size();
    const uint64_t width = row.size();
    pool->RunOnAll([&](int w) {
      ShardScratch& s = shards_[static_cast<size_t>(w)];
      if (s.stamp.size() < num_links) {
        s.stamp.resize(num_links, 0);
        s.dcount.resize(num_links, 0);
      }
      s.touched.clear();
      s.frozen = 0;
      const size_t lo = static_cast<size_t>(width * static_cast<uint64_t>(w) / nw);
      const size_t hi = static_cast<size_t>(width * (static_cast<uint64_t>(w) + 1) / nw);
      for (size_t k = lo; k < hi; ++k) {
        const size_t fi = static_cast<size_t>(row[k]);
        rate_[fi] = rate;
        frozen_[fi] = epoch;
        ++s.frozen;
        const FlowLink* links = link_pool_.data() + flow_off_[fi];
        for (uint32_t k = 0; k < flow_len_[fi]; ++k) {
          const FlowLink& fl = links[k];
          const size_t lj = static_cast<size_t>(fl.link);
          if (pos_[lj] < 0) {
            continue;
          }
          if (s.stamp[lj] != round) {
            s.stamp[lj] = round;
            s.dcount[lj] = 0;
            s.touched.push_back(fl.link);
          }
          ++s.dcount[lj];
        }
      }
    });
    for (int w = 0; w < nw; ++w) {
      ShardScratch& s = shards_[static_cast<size_t>(w)];
      left -= s.frozen;
      for (const int32_t l : s.touched) {
        const size_t lj = static_cast<size_t>(l);
        for (int32_t k = 0; k < s.dcount[lj]; ++k) {
          remaining_[lj] = std::max(0.0, remaining_[lj] - rate);
        }
        unfrozen_[lj] -= s.dcount[lj];
        UpdateHeapLink(l);
      }
    }
  }
  // Every linked flow froze, so every heap link lost its last unfrozen flow.
  BULLET_CHECK(heap_.empty() && "heap links outlived their flows");
}

}  // namespace bullet
