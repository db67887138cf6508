#include "src/sim/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/profiler.h"

namespace bullet {

void Network::MsgRing::push_back(QueuedMsg qm) {
  if (size_ == buf_.size()) {
    // Grow to the next power of two, unrolling the ring into natural order.
    const size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<QueuedMsg> grown;
    grown.reserve(new_cap);
    for (size_t i = 0; i < size_; ++i) {
      grown.push_back(std::move(buf_[(head_ + i) & (buf_.size() - 1)]));
    }
    grown.resize(new_cap);
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(qm);
  ++size_;
}

void Network::MsgRing::pop_front() {
  buf_[head_] = QueuedMsg{};  // release the message now, not at overwrite time
  head_ = (head_ + 1) & (buf_.size() - 1);
  --size_;
}

void Network::MsgRing::clear_and_release() {
  buf_.clear();
  buf_.shrink_to_fit();
  head_ = 0;
  size_ = 0;
}

Network::Network(std::unique_ptr<Topology> topology, NetworkConfig config, uint64_t seed)
    : topology_(std::move(topology)),
      config_(config),
      rng_(seed),
      handlers_(static_cast<size_t>(topology_->num_nodes()), nullptr),
      tx_bytes_(static_cast<size_t>(topology_->num_nodes()), 0),
      rx_bytes_(static_cast<size_t>(topology_->num_nodes()), 0),
      failed_(static_cast<size_t>(topology_->num_nodes()), 0) {
  interior_link_id_.assign(static_cast<size_t>(topology_->interior_id_limit()), -1);
  BuildPartitions();
}

void Network::SetHandler(NodeId node, NetHandler* handler) {
  handlers_[static_cast<size_t>(node)] = handler;
}

Network::Conn* Network::GetConn(ConnId id) {
  if (id < 0) {
    return nullptr;
  }
  const int32_t store = static_cast<int32_t>(id >> kConnStoreShift);
  if (store == 0) {
    if (static_cast<size_t>(id) >= conns_.size()) {
      return nullptr;
    }
    return &conns_[static_cast<size_t>(id)];
  }
  if (static_cast<size_t>(store) > partitions_.size()) {
    return nullptr;
  }
  ConnStore& cs = partitions_[static_cast<size_t>(store - 1)]->conns;
  const size_t idx = static_cast<size_t>(id & kConnIndexMask);
  if (idx >= cs.size_acquire()) {
    return nullptr;
  }
  return &cs.at(idx);
}

const Network::Conn* Network::GetConn(ConnId id) const {
  return const_cast<Network*>(this)->GetConn(id);
}

int Network::EndpointIndex(const Conn& c, NodeId node) {
  if (c.node[0] == node) {
    return 0;
  }
  if (c.node[1] == node) {
    return 1;
  }
  return -1;
}

// Fills one direction's PathCache from the topology and appends its interior
// route to `pool`. Coordinator-context only (topology queries).
void Network::FillPathCache(Conn& c, int i, std::vector<int32_t>& pool) {
  const NodeId src = c.node[i];
  const NodeId dst = c.node[1 - i];
  PathCache& path = c.body->path[i];
  {
    BULLET_PROFILE_SCOPE(ProfilePhase::kTopologyMetrics);
    path.path_delay = topology_->PathDelay(src, dst);
    path.rtt = topology_->Rtt(src, dst);
    path.loss = topology_->PathLoss(src, dst);
  }
  {
    BULLET_PROFILE_SCOPE(ProfilePhase::kPathLookup);
    const Topology::PathView route = topology_->InteriorPath(src, dst);
    path.interior_off = static_cast<uint32_t>(pool.size());
    path.interior_len = route.size;
    pool.insert(pool.end(), route.begin(), route.end());
  }
}

Network::ConnBody* Network::AcquireBody() {
  if (free_bodies_.empty()) {
    bodies_.push_back(std::make_unique<ConnBody>());
    return bodies_.back().get();
  }
  ConnBody* body = free_bodies_.back();
  free_bodies_.pop_back();
  *body = ConnBody{};
  return body;
}

// Establishment instant: TCP handshake done, directions with queued bytes go
// busy, both handlers hear OnConnUp. Runs on the global queue.
void Network::RunEstablishment(ConnId id) {
  Conn* c = GetConn(id);
  if (c == nullptr || c->closed) {
    return;
  }
  c->established = true;
  for (int i = 0; i < 2; ++i) {
    Direction& dir = c->body->dir[i];
    if (!dir.queue.empty()) {
      dir.tcp.OnBecameActive(now(), config_.tcp);
      ActivateDirection(*c, i);
    } else {
      c->idle_since[i] = now();
    }
  }
  for (int i = 0; i < 2; ++i) {
    NetHandler* h = handlers_[static_cast<size_t>(c->node[i])];
    if (h != nullptr) {
      h->OnConnUp(id, c->node[1 - i], /*initiator=*/i == 0);
    }
  }
}

ConnId Network::Connect(NodeId from, NodeId to) {
  if (from == to || IsNodeFailed(from) || IsNodeFailed(to)) {
    return -1;
  }
  if (parallel_) {
    const int p = CurrentPartitionIndex();
    if (p >= 0) {
      return ConnectInWorker(p, from, to);
    }
  }
  const ConnId id = static_cast<ConnId>(conns_.size());
  Conn& c = conns_.emplace_back();
  c.id = id;
  c.node[0] = from;
  c.node[1] = to;
  c.body = AcquireBody();
  for (int i = 0; i < 2; ++i) {
    FillPathCache(c, i, path_pool_);
  }
  conn_busy_mask_.push_back(0);
  open_conns_.push_back(id);

  // TCP three-way handshake plus the first application-level write.
  const SimTime established_at = now() + topology_->Rtt(from, to) * 3 / 2;
  queue_.Schedule(established_at, [this, id] { RunEstablishment(id); });
  return id;
}

// Worker-context Connect: allocate the connection in the partition's stable
// store so the caller gets a usable id immediately (it can Send right away —
// the bytes queue, exactly as on a not-yet-established serial connection), and
// stage a kConnect; the coordinator fills the path caches, registers the
// connection, and schedules establishment at the barrier.
ConnId Network::ConnectInWorker(int partition, NodeId from, NodeId to) {
  Partition& part = *partitions_[static_cast<size_t>(partition)];
  const size_t idx = part.conns.size_relaxed();
  const ConnId id =
      (static_cast<ConnId>(partition + 1) << kConnStoreShift) | static_cast<ConnId>(idx);
  Conn& c = part.conns.NewSlot();
  c.id = id;
  c.store = partition + 1;
  c.node[0] = from;
  c.node[1] = to;
  part.conns.Publish();
  StagedCmd cmd;
  cmd.kind = StagedCmd::Kind::kConnect;
  cmd.at = part.queue.now();
  cmd.conn = id;
  part.staged.push_back(std::move(cmd));
  return id;
}

void Network::Close(ConnId conn_id) {
  if (parallel_) {
    const int p = CurrentPartitionIndex();
    if (p >= 0) {
      Partition& part = *partitions_[static_cast<size_t>(p)];
      StagedCmd cmd;
      cmd.kind = StagedCmd::Kind::kClose;
      cmd.at = part.queue.now();
      cmd.conn = conn_id;
      part.staged.push_back(std::move(cmd));
      return;
    }
  }
  CloseAt(conn_id, queue_.now());
}

void Network::CloseAt(ConnId conn_id, SimTime at) {
  Conn* c = GetConn(conn_id);
  if (c == nullptr || c->closed) {
    return;
  }
  c->closed = true;
  for (int i = 0; i < 2; ++i) {
    Direction& dir = c->body->dir[i];
    if (c->established && !dir.queue.empty()) {
      --active_dirs_;
    }
    UntrackFlow(*c, i);
    dir.queue.clear_and_release();
    dir.queued_bytes = 0;
    dir.rate_bps = 0.0;
  }
  BusyByte(*c) = 0;
  // The next quantum boundary compacts this entry out of open_conns_ (doing it
  // right here would reorder the list differently from one batched pass and
  // change the order transmissions advance in; see CompactOpenConns).
  ++pending_close_;
  alloc_dirty_ = true;
  // Notify both ends asynchronously; the remote end hears after one path delay.
  // CloseAt runs only in coordinator context, so the topology query is safe.
  for (int i = 0; i < 2; ++i) {
    const NodeId endpoint = c->node[i];
    const NodeId peer = c->node[1 - i];
    const SimTime t = i == 0 ? at : at + topology_->PathDelay(c->node[0], c->node[1]);
    queue_.Schedule(t, [this, conn_id, endpoint, peer] {
      NetHandler* h = handlers_[static_cast<size_t>(endpoint)];
      if (h != nullptr) {
        h->OnConnDown(conn_id, peer);
      }
    });
  }
}

bool Network::IsOpen(ConnId conn_id) const {
  const Conn* c = GetConn(conn_id);
  return c != nullptr && !c->closed;
}

bool Network::Send(ConnId conn_id, NodeId from, std::unique_ptr<Message> msg) {
  if (parallel_) {
    const int p = CurrentPartitionIndex();
    if (p >= 0) {
      // Validate against barrier-stable state (closes and endpoint identity
      // only change at barriers), then stage. A connection closed by another
      // partition in the same window still accepts the send here; the merge
      // drops it, exactly as a serial send racing a close would.
      Conn* c = GetConn(conn_id);
      if (c == nullptr || c->closed || msg == nullptr || EndpointIndex(*c, from) < 0) {
        return false;
      }
      Partition& part = *partitions_[static_cast<size_t>(p)];
      StagedCmd cmd;
      cmd.kind = StagedCmd::Kind::kSend;
      cmd.at = part.queue.now();
      cmd.conn = conn_id;
      cmd.from = from;
      cmd.msg = std::move(msg);
      part.staged.push_back(std::move(cmd));
      return true;
    }
  }
  return SendAt(conn_id, from, std::move(msg), queue_.now());
}

bool Network::SendAt(ConnId conn_id, NodeId from, std::unique_ptr<Message> msg, SimTime at) {
  Conn* c = GetConn(conn_id);
  if (c == nullptr || c->closed || msg == nullptr) {
    return false;
  }
  const int idx = EndpointIndex(*c, from);
  if (idx < 0) {
    return false;
  }
  Direction& dir = c->body->dir[idx];
  if (dir.queue.empty() && c->established) {
    dir.tcp.OnBecameActive(at, config_.tcp);
    ActivateDirection(*c, idx);
  }
  dir.queued_bytes += msg->wire_bytes;
  const double bytes = static_cast<double>(std::max<int64_t>(msg->wire_bytes, 1));
  dir.queue.push_back(QueuedMsg{std::move(msg), bytes});
  return true;
}

// Idle -> busy transition of an established direction: restart cap tracking and
// mark the flow set dirty so the next quantum re-water-fills.
void Network::ActivateDirection(Conn& c, int dir_idx) {
  c.body->dir[dir_idx].cap_steady = false;
  BusyByte(c) |= static_cast<uint8_t>(1 << dir_idx);
  ++active_dirs_;
  alloc_dirty_ = true;
  if (config_.allocator_mode == NetworkConfig::AllocatorMode::kIncremental) {
    TrackFlow(c, dir_idx);
  }
}

// The flow's allocator link list: uplink, downlink, then the interior links in
// path order. Its cap is set by the next rebuild (a new flow's cap is never
// steady yet).
void Network::TrackFlow(Conn& c, int i) {
  const Topology& topo = *topology_;
  const int n = topo.num_nodes();
  if (alloc_.link_slots() == 0) {
    // First flow of the run: the access links take slots 0 .. 2n-1, equal to
    // their canonical order (uplink i is i, downlink i is n + i), before any
    // interior link takes a slot.
    for (NodeId k = 0; k < n; ++k) {
      RegisterLink(k, topo.uplink(k));
    }
    for (NodeId k = 0; k < n; ++k) {
      RegisterLink(n + k, topo.downlink(k));
    }
  }
  flow_link_scratch_.clear();
  flow_link_scratch_.push_back(c.node[i]);
  flow_link_scratch_.push_back(n + c.node[1 - i]);
  const PathCache& path = c.body->path[i];
  for (const int32_t* it = PathInteriorBegin(c, path); it != PathInteriorEnd(c, path); ++it) {
    const size_t key = static_cast<size_t>(*it);
    // The slot table was sized from interior_id_limit() at construction; a
    // topology that grew interior links afterwards would index past it.
    BULLET_CHECK(key < interior_link_id_.size() &&
                 "topology gained interior links after the network was built");
    if (interior_link_id_[key] < 0) {
      interior_link_id_[key] = RegisterLink(int64_t{2} * n + *it, topo.interior_link(*it));
    }
    flow_link_scratch_.push_back(interior_link_id_[key]);
  }
  Direction& dir = c.body->dir[i];
  dir.flow = alloc_.AddFlow(flow_link_scratch_.data(), flow_link_scratch_.size(), dir.cap_cache);
}

int32_t Network::RegisterLink(int64_t order, const LinkParams& params) {
  const int32_t slot = alloc_.AddLink(order, params.bandwidth_bps);
  if (slot_params_.size() <= static_cast<size_t>(slot)) {
    slot_params_.resize(static_cast<size_t>(slot) + 1, nullptr);
  }
  slot_params_[static_cast<size_t>(slot)] = &params;
  return slot;
}

void Network::UntrackFlow(Conn& c, int i) {
  Direction& dir = c.body->dir[i];
  if (dir.flow < 0) {
    return;
  }
  alloc_.RemoveFlow(dir.flow);
  dir.flow = -1;
  const PathCache& path = c.body->path[i];
  for (const int32_t* it = PathInteriorBegin(c, path); it != PathInteriorEnd(c, path); ++it) {
    int32_t& slot = interior_link_id_[static_cast<size_t>(*it)];
    if (slot >= 0 && alloc_.flows_on_link(slot) == 0) {
      alloc_.RemoveLink(slot);
      slot_params_[static_cast<size_t>(slot)] = nullptr;
      slot = -1;
    }
  }
}

// The introspection calls answer a bodyless connection (not yet registered,
// or closed and recycled) as an empty direction — what its body would say.
size_t Network::QueuedMessages(ConnId conn_id, NodeId from) const {
  const Conn* c = GetConn(conn_id);
  if (c == nullptr || c->body == nullptr) {
    return 0;
  }
  const int idx = EndpointIndex(*c, from);
  return idx < 0 ? 0 : c->body->dir[idx].queue.size();
}

int64_t Network::QueuedBytes(ConnId conn_id, NodeId from) const {
  const Conn* c = GetConn(conn_id);
  if (c == nullptr || c->body == nullptr) {
    return 0;
  }
  const int idx = EndpointIndex(*c, from);
  return idx < 0 ? 0 : c->body->dir[idx].queued_bytes;
}

SimTime Network::IdleTime(ConnId conn_id, NodeId from) const {
  const Conn* c = GetConn(conn_id);
  if (c == nullptr) {
    return 0;
  }
  const int idx = EndpointIndex(*c, from);
  if (idx < 0 || (c->body != nullptr && !c->body->dir[idx].queue.empty())) {
    return 0;
  }
  return now() - c->idle_since[idx];
}

double Network::CurrentRateBps(ConnId conn_id, NodeId from) const {
  const Conn* c = GetConn(conn_id);
  if (c == nullptr || c->body == nullptr) {
    return 0.0;
  }
  const int idx = EndpointIndex(*c, from);
  return idx < 0 ? 0.0 : c->body->dir[idx].rate_bps;
}

int Network::CountFlowsOnInteriorLink(int32_t link_id) const {
  int flows = 0;
  for (const ConnId id : open_conns_) {
    const Conn* c = GetConn(id);
    if (c == nullptr || !c->established || c->closed) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      const PathCache& path = c->body->path[i];
      if (c->body->dir[i].queued_bytes <= 0) {
        continue;
      }
      for (const int32_t* it = PathInteriorBegin(*c, path); it != PathInteriorEnd(*c, path);
           ++it) {
        if (*it == link_id) {
          ++flows;
          break;
        }
      }
    }
  }
  return flows;
}

double Network::InteriorLinkAllocatedBps(int32_t link_id) const {
  double bps = 0.0;
  for (const ConnId id : open_conns_) {
    const Conn* c = GetConn(id);
    if (c == nullptr || !c->established || c->closed) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      const PathCache& path = c->body->path[i];
      if (c->body->dir[i].queued_bytes <= 0) {
        continue;
      }
      for (const int32_t* it = PathInteriorBegin(*c, path); it != PathInteriorEnd(*c, path);
           ++it) {
        if (*it == link_id) {
          bps += c->body->dir[i].rate_bps;
          break;
        }
      }
    }
  }
  return bps;
}

void Network::FailNode(NodeId node) {
  if (IsNodeFailed(node)) {
    return;
  }
  failed_[static_cast<size_t>(node)] = 1;
  for (const ConnId id : open_conns_) {
    const Conn* c = GetConn(id);
    if (c != nullptr && !c->closed && (c->node[0] == node || c->node[1] == node)) {
      Close(id);
    }
  }
}

// Removes closed connections in one ascending-position swap-with-back pass — the
// exact pass the pre-PR tick ran every quantum. Batch shape matters: the
// resulting permutation is the order AdvanceTransmissions serves flows in, and
// so the order same-time deliveries are scheduled in; closes are therefore
// compacted per quantum boundary rather than one by one at Close() time. A
// dropped connection's body goes to the free list; its header keeps answering
// queries (see Conn).
void Network::CompactOpenConns() {
  for (size_t i = 0; i < open_conns_.size();) {
    Conn* c = GetConn(open_conns_[i]);
    if (c == nullptr || c->closed) {
      if (c != nullptr && c->body != nullptr) {
        free_bodies_.push_back(c->body);
        c->body = nullptr;
      }
      open_conns_[i] = open_conns_.back();
      open_conns_.pop_back();
    } else {
      ++i;
    }
  }
  pending_close_ = 0;
}

void Network::Tick() {
  AllocatorTick();
  queue_.ScheduleAfter(config_.quantum, [this] { Tick(); });
}

void Network::AllocatorTick() {
  const double dt_sec = SimToSec(queue_.now() - last_tick_);
  last_tick_ = queue_.now();

  if (pending_close_ > 0) {
    CompactOpenConns();
  }

  if (config_.allocator_mode == NetworkConfig::AllocatorMode::kFullRecompute) {
    TickFullRecompute(dt_sec);
    return;
  }

  if (active_dirs_ > 0) {
    const bool caps_changed = SyncCapacities();
    if (alloc_dirty_ || caps_changed) {
      RebuildAndAllocate();
    }
    AdvanceTransmissions(dt_sec);
  }
}

// Covers all access links plus the interior links that busy flows cross;
// links without flows cannot influence the allocation.
bool Network::SyncCapacities() {
  // Every capacity change goes through mutable topology access, which
  // advances the version; the network reads links through const access only.
  const uint64_t version = topology_->link_version();
  if (version == synced_link_version_) {
    return false;
  }
  synced_link_version_ = version;
  bool changed = false;
  for (size_t l = 0; l < slot_params_.size(); ++l) {
    const LinkParams* params = slot_params_[l];
    const int32_t link = static_cast<int32_t>(l);
    if (params != nullptr && params->bandwidth_bps != alloc_.capacity(link)) {
      alloc_.SetCapacity(link, params->bandwidth_bps);
      changed = true;
    }
  }
  return changed;
}

// Evaluates the busy flows' TCP caps and re-runs water-filling over the
// allocator's table. The scan over open_conns_ also lists the busy flows in
// the order AdvanceTransmissions serves them. The TCP-cap evaluation touches
// only per-flow state, so under the parallel engine it may shard over the
// worker pool without changing a bit.
void Network::RebuildAndAllocate() {
  BULLET_PROFILE_SCOPE(ProfilePhase::kAllocatorEpoch);
  ++allocator_epochs_;
  const int n = topology_->num_nodes();
  cached_flows_.clear();
  ramping_flows_ = 0;

  // TCP-cap evaluation of one busy direction; returns 1 while its cap is
  // still ramping. It writes only that direction's cap_cache/cap_steady, so
  // any grouping of the evaluations gives the same caps and ramping total.
  const SimTime tick_now = queue_.now();
  auto eval_cap = [this, tick_now](Conn& c, int i) -> size_t {
    Direction& dir = c.body->dir[i];
    if (dir.cap_steady) {
      return 0;
    }
    bool steady = false;
    const PathCache& path = c.body->path[i];
    dir.cap_cache = TcpRateCapDetail(dir.tcp, tick_now, path.rtt, path.loss, config_.tcp, &steady);
    dir.cap_steady = steady;
    return steady ? 0 : 1;
  };

  // Partitioned engine with a wide flow set: the caps are evaluated up front,
  // sharded over the pool by contiguous open-connection ranges; each worker
  // counts its ramping flows into its own slot, folded in worker-index order.
  // Below the threshold the pool's dispatch+join costs more than the cap math
  // it would spread, and the scan below evaluates each cap as it goes.
  constexpr size_t kCapShardMinFlows = 2048;
  const bool shard_caps = pool_ != nullptr && active_dirs_ >= kCapShardMinFlows;
  if (shard_caps) {
    const size_t nc = open_conns_.size();
    const size_t nw = static_cast<size_t>(pool_->num_threads());
    shard_ramping_.assign(nw, 0);
    pool_->RunOnAll([this, nc, nw, &eval_cap](int w) {
      size_t ramping = 0;
      for (size_t k = nc * static_cast<size_t>(w) / nw;
           k < nc * (static_cast<size_t>(w) + 1) / nw; ++k) {
        Conn& c = *GetConn(open_conns_[k]);
        const uint8_t busy = BusyByte(c);
        for (int i = 0; i < 2; ++i) {
          if ((busy & (1 << i)) != 0) {
            ramping += eval_cap(c, i);
          }
        }
      }
      shard_ramping_[static_cast<size_t>(w)] = ramping;
    });
    for (const size_t r : shard_ramping_) {
      ramping_flows_ += r;
    }
  }

  // The busy-flow scan (serial). Main-table connections are filtered by their
  // flat busy byte before the Conn is touched (most connections are idle in
  // any given quantum).
  for (const ConnId id : open_conns_) {
    Conn* c;
    uint8_t busy;
    if ((id >> kConnStoreShift) == 0) {
      busy = conn_busy_mask_[static_cast<size_t>(id)];
      if (busy == 0) {
        continue;
      }
      c = &conns_[static_cast<size_t>(id)];
    } else {
      c = GetConn(id);
      busy = c->busy;
    }
    for (int i = 0; i < 2; ++i) {
      if ((busy & (1 << i)) == 0) {
        continue;
      }
      if (!shard_caps) {
        ramping_flows_ += eval_cap(*c, i);
      }
      const Direction& dir = c->body->dir[i];
      alloc_.SetFlowCap(dir.flow, dir.cap_cache);
      cached_flows_.push_back(CachedFlow{c, i});
    }
  }

  alloc_.Allocate(parallel_ ? pool_.get() : nullptr);
  // Shared-bottleneck introspection: widest interior link of this epoch (the
  // access links hold slots 0 .. 2n-1; live slots past them are interior).
  for (size_t l = static_cast<size_t>(2 * n); l < alloc_.link_slots(); ++l) {
    const int32_t link = static_cast<int32_t>(l);
    if (alloc_.link_order(link) >= 0) {
      max_interior_link_flows_ = std::max(max_interior_link_flows_, alloc_.flows_on_link(link));
    }
  }
  // Ramping caps change next quantum, which changes the allocation; otherwise the
  // cached result stays exact until an activation/drain/close/capacity change.
  alloc_dirty_ = ramping_flows_ > 0;
}

void Network::AdvanceTransmissions(double dt_sec) {
  for (const CachedFlow& cf : cached_flows_) {
    Conn* c = cf.conn;
    const int dir_idx = cf.dir_idx;
    if (c->closed) {
      continue;
    }
    Direction& dir = c->body->dir[dir_idx];
    if (dir.queue.empty()) {
      continue;
    }
    dir.rate_bps = alloc_.rate(dir.flow);
    dir.tcp.last_busy = now();
    double budget = dir.rate_bps / 8.0 * dt_sec;
    while (!dir.queue.empty() && budget >= dir.queue.front().remaining_bytes) {
      QueuedMsg qm = std::move(dir.queue.front());
      dir.queue.pop_front();
      budget -= qm.remaining_bytes;
      dir.queued_bytes -= qm.msg->wire_bytes;
      tx_bytes_[static_cast<size_t>(c->node[dir_idx])] += qm.msg->wire_bytes;
      // Delivery is scheduled, not synchronous, so no reentrancy happens here.
      EnqueueDelivery(c->id, *c, dir_idx, std::move(qm.msg));
    }
    if (!dir.queue.empty()) {
      dir.queue.front().remaining_bytes -= budget;
    } else {
      c->idle_since[dir_idx] = now();
      dir.rate_bps = 0.0;
      BusyByte(*c) &= static_cast<uint8_t>(~(1 << dir_idx));
      --active_dirs_;
      alloc_dirty_ = true;
      UntrackFlow(*c, dir_idx);
    }
  }
}

// The pre-PR tick body: rebuild every auxiliary structure and recompute all
// rates each quantum. Kept as the A/B reference for the perf_core_scale
// benchmark and the determinism tests.
void Network::TickFullRecompute(double dt_sec) {
  // Build the active flow set. Link ids follow the canonical order the
  // incremental table uses: uplink(i) = i, downlink(i) = n + i, then the
  // interior links in ascending topology id, numbered densely.
  const int n = topology_->num_nodes();
  std::vector<PathFlowSpec> flows;
  std::vector<std::pair<ConnId, int>> flow_dirs;
  std::vector<double> capacities(static_cast<size_t>(2 * n));
  for (NodeId i = 0; i < n; ++i) {
    capacities[static_cast<size_t>(i)] = topology_->uplink(i).bandwidth_bps;
    capacities[static_cast<size_t>(n + i)] = topology_->downlink(i).bandwidth_bps;
  }
  std::vector<int32_t> interior_ids;  // topology ids the flows cross
  for (const ConnId id : open_conns_) {
    Conn* c = GetConn(id);
    if (!c->established) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      Direction& dir = c->body->dir[i];
      if (dir.queue.empty()) {
        dir.rate_bps = 0.0;
        continue;
      }
      const NodeId src = c->node[i];
      const NodeId dst = c->node[1 - i];
      const PathCache& path = c->body->path[i];
      PathFlowSpec flow;
      flow.links.reserve(2 + path.interior_len);
      flow.links.push_back(src);
      flow.links.push_back(static_cast<int32_t>(n) + dst);
      for (const int32_t* pi = PathInteriorBegin(*c, path); pi != PathInteriorEnd(*c, path);
           ++pi) {
        flow.links.push_back(*pi);  // renumbered below
        interior_ids.push_back(*pi);
      }
      // The PathCache snapshot equals the live Rtt/PathLoss lookups the pre-PR
      // code performed here: delay and loss are static for a run's lifetime.
      flow.cap_bps = TcpRateCapBps(dir.tcp, now(), path.rtt, path.loss, config_.tcp);
      flows.push_back(std::move(flow));
      flow_dirs.emplace_back(id, i);
    }
  }

  std::sort(interior_ids.begin(), interior_ids.end());
  interior_ids.erase(std::unique(interior_ids.begin(), interior_ids.end()), interior_ids.end());
  for (const int32_t id : interior_ids) {
    capacities.push_back(topology_->interior_link(id).bandwidth_bps);
  }
  for (PathFlowSpec& flow : flows) {
    for (size_t k = 2; k < flow.links.size(); ++k) {
      const auto it = std::lower_bound(interior_ids.begin(), interior_ids.end(), flow.links[k]);
      flow.links[k] = 2 * n + static_cast<int32_t>(it - interior_ids.begin());
    }
  }

  ++allocator_epochs_;
  {
    BULLET_PROFILE_SCOPE(ProfilePhase::kAllocatorEpoch);
    AllocateMaxMinPaths(flows, capacities);
  }
  // Shared-bottleneck introspection, mirroring RebuildAndAllocate: interior
  // link ids start at 2n; count per-link flows directly from the flow lists.
  if (capacities.size() > static_cast<size_t>(2 * n)) {
    std::vector<int32_t> interior_flow_counts(capacities.size() - static_cast<size_t>(2 * n), 0);
    for (const PathFlowSpec& flow : flows) {
      for (const int32_t l : flow.links) {
        if (l >= 2 * n) {
          ++interior_flow_counts[static_cast<size_t>(l - 2 * n)];
        }
      }
    }
    for (const int32_t count : interior_flow_counts) {
      max_interior_link_flows_ = std::max(max_interior_link_flows_, count);
    }
  }

  // Advance transmissions.
  for (size_t fi = 0; fi < flows.size(); ++fi) {
    const auto [conn_id, dir_idx] = flow_dirs[fi];
    Conn* c = GetConn(conn_id);
    if (c == nullptr || c->closed) {
      continue;
    }
    Direction& dir = c->body->dir[dir_idx];
    dir.rate_bps = flows[fi].rate_bps;
    dir.tcp.last_busy = now();
    double budget = dir.rate_bps / 8.0 * dt_sec;
    while (!dir.queue.empty() && budget >= dir.queue.front().remaining_bytes) {
      QueuedMsg qm = std::move(dir.queue.front());
      dir.queue.pop_front();
      budget -= qm.remaining_bytes;
      dir.queued_bytes -= qm.msg->wire_bytes;
      tx_bytes_[static_cast<size_t>(c->node[dir_idx])] += qm.msg->wire_bytes;
      EnqueueDelivery(conn_id, *c, dir_idx, std::move(qm.msg));
    }
    if (!dir.queue.empty()) {
      dir.queue.front().remaining_bytes -= budget;
    } else {
      c->idle_since[dir_idx] = now();
      dir.rate_bps = 0.0;
      conn_busy_mask_[static_cast<size_t>(conn_id)] &= static_cast<uint8_t>(~(1 << dir_idx));
      --active_dirs_;
      alloc_dirty_ = true;
    }
  }
}

void Network::EnqueueDelivery(ConnId conn_id, Conn& c, int sender_idx, std::unique_ptr<Message> msg) {
  const PathCache& path = c.body->path[sender_idx];
  Direction& dir = c.body->dir[sender_idx];

  SimTime delivered_at = now() + path.path_delay;
  if (config_.loss_latency) {
    const double p = path.loss;
    if (p > 0.0) {
      const double packets =
          std::max(1.0, std::ceil(static_cast<double>(msg->wire_bytes) / config_.tcp.mss_bytes));
      const double p_msg = 1.0 - std::pow(1.0 - p, packets);
      if (rng_.Bernoulli(p_msg)) {
        // Fast retransmit in the common case; occasionally a full RTO.
        const SimTime rtt = path.rtt;
        SimTime penalty = rtt + rtt / 2;
        if (rng_.Bernoulli(0.2)) {
          penalty = std::max<SimTime>(MsToSim(200), 2 * rtt);
        }
        delivered_at += penalty;
      }
    }
  }
  delivered_at = std::max(delivered_at, dir.delivery_floor);
  dir.delivery_floor = delivered_at;

  const int receiver_idx = 1 - sender_idx;
  // Delivery executes on the receiver's queue: the node's partition queue
  // under the parallel engine (delivered_at is past the current barrier, since
  // this runs at barrier time and path delays are positive), the global queue
  // otherwise — where node_queue() is exactly queue_.
  node_queue(c.node[receiver_idx])
      .Schedule(delivered_at, [this, conn_id, receiver_idx, msg = std::move(msg)]() mutable {
        DeliverMessage(conn_id, receiver_idx, std::move(msg));
      });
}

void Network::DeliverMessage(ConnId conn_id, int receiver_idx, std::unique_ptr<Message> msg) {
  Conn* c = GetConn(conn_id);
  if (c == nullptr || c->closed || msg == nullptr) {
    return;
  }
  const NodeId receiver = c->node[receiver_idx];
  const NodeId sender = c->node[1 - receiver_idx];
  rx_bytes_[static_cast<size_t>(receiver)] += msg->wire_bytes;
  NetHandler* h = handlers_[static_cast<size_t>(receiver)];
  if (h != nullptr) {
    BULLET_PROFILE_SCOPE(ProfilePhase::kProtocolLogic);
    h->OnMessage(conn_id, sender, std::move(msg));
  }
}

int64_t Network::total_bytes_sent() const {
  int64_t total = 0;
  for (const int64_t b : tx_bytes_) {
    total += b;
  }
  return total;
}

size_t Network::route_cache_bytes() const {
  const RoutedTopology* routed = topology_->AsRouted();
  return routed != nullptr ? routed->route_cache_bytes() : 0;
}

size_t Network::path_pool_bytes() const {
  size_t bytes = path_pool_.capacity() * sizeof(int32_t);
  for (const auto& part : partitions_) {
    bytes += part->path_pool.capacity() * sizeof(int32_t);
  }
  return bytes;
}

size_t Network::conn_state_bytes() const {
  size_t headers = conns_.size();
  for (const auto& part : partitions_) {
    headers += part->conns.size_relaxed();
  }
  return headers * sizeof(Conn) + bodies_.size() * sizeof(ConnBody);
}

void Network::Stop() {
  if (parallel_) {
    stop_flag_.store(true, std::memory_order_relaxed);
    const int p = CurrentPartitionIndex();
    if (p >= 0) {
      // Stop the caller's own window early (its remaining window events are
      // deterministically elided); the engine exits at the barrier.
      partitions_[static_cast<size_t>(p)]->queue.Stop();
      return;
    }
  }
  queue_.Stop();
}

void Network::ScheduleGlobal(SimTime at, EventQueue::Callback fn) {
  if (parallel_) {
    const int p = CurrentPartitionIndex();
    if (p >= 0) {
      Partition& part = *partitions_[static_cast<size_t>(p)];
      StagedCmd cmd;
      cmd.kind = StagedCmd::Kind::kGlobal;
      cmd.at = at;
      cmd.fn = std::move(fn);
      part.staged.push_back(std::move(cmd));
      return;
    }
  }
  queue_.Schedule(at, std::move(fn));
}

// Computes the partition plan: nodes grouped by their stub domain's transit
// router, transit routers grouped contiguously into partitions, the whole plan
// validated against the conservative-sync lookahead (minimum cross-partition
// path delay must cover one quantum). Falls back to the serial engine — by
// leaving parallel_ false — whenever the preconditions fail.
void Network::BuildPartitions() {
  if (config_.num_threads <= 1 ||
      config_.allocator_mode != NetworkConfig::AllocatorMode::kIncremental) {
    return;
  }
  const RoutedTopology* routed = topology_->AsRouted();
  if (routed == nullptr) {
    return;
  }
  const RoutedTopology::TransitStubInfo* ts = routed->transit_stub_info();
  if (ts == nullptr || ts->num_transit_routers < 2) {
    return;
  }
  const int n = topology_->num_nodes();
  if (n == 0) {
    return;
  }

  // Access-link delay floors (every overlay path crosses one uplink and one
  // downlink), shared by every candidate plan.
  SimTime min_up = std::numeric_limits<SimTime>::max();
  SimTime min_down = std::numeric_limits<SimTime>::max();
  for (NodeId i = 0; i < n; ++i) {
    min_up = std::min(min_up, topology_->uplink(i).delay);
    min_down = std::min(min_down, topology_->downlink(i).delay);
  }

  // Node -> transit router, via attach router -> stub domain.
  std::vector<int32_t> node_transit(static_cast<size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const int domain = ts->stub_domain_of_router(routed->attach(i));
    BULLET_CHECK(domain >= 0 && "overlay node attached to a transit router");
    node_transit[static_cast<size_t>(i)] = ts->transit_router(domain);
  }

  int np = std::min(config_.num_threads, ts->num_transit_routers);
  std::vector<int32_t> plan;  // node -> partition for the candidate np
  while (np > 1) {
    plan.resize(static_cast<size_t>(n));
    // Per-partition attach-router sets for the lookahead Dijkstras.
    std::vector<std::vector<int32_t>> part_routers(static_cast<size_t>(np));
    std::vector<char> seen(static_cast<size_t>(routed->num_routers()) * static_cast<size_t>(np),
                           0);
    for (NodeId i = 0; i < n; ++i) {
      const int p = node_transit[static_cast<size_t>(i)] * np / ts->num_transit_routers;
      plan[static_cast<size_t>(i)] = p;
      const int32_t r = routed->attach(i);
      char& s = seen[static_cast<size_t>(p) * static_cast<size_t>(routed->num_routers()) +
                     static_cast<size_t>(r)];
      if (s == 0) {
        s = 1;
        part_routers[static_cast<size_t>(p)].push_back(r);
      }
    }
    // Minimum cross-partition interior delay: from each partition's attach
    // routers (multi-source) to every other partition's attach routers.
    SimTime min_interior = std::numeric_limits<SimTime>::max();
    bool nonempty = true;
    for (int p = 0; p < np; ++p) {
      if (part_routers[static_cast<size_t>(p)].empty()) {
        nonempty = false;
        break;
      }
    }
    if (nonempty) {
      for (int p = 0; p < np; ++p) {
        const std::vector<SimTime> dist =
            routed->RouterDistancesFrom(part_routers[static_cast<size_t>(p)]);
        for (int q = 0; q < np; ++q) {
          if (q == p) {
            continue;
          }
          for (const int32_t r : part_routers[static_cast<size_t>(q)]) {
            const SimTime d = dist[static_cast<size_t>(r)];
            if (d >= 0) {
              min_interior = std::min(min_interior, d);
            }
          }
        }
      }
      if (min_interior != std::numeric_limits<SimTime>::max()) {
        const SimTime lookahead = min_up + min_interior + min_down;
        if (lookahead >= config_.quantum) {
          lookahead_ = lookahead;
          break;  // plan accepted
        }
      }
    }
    --np;  // fewer partitions merge the closest domains; retry
  }
  if (np <= 1) {
    return;  // no multi-partition plan covers the quantum: serial engine
  }

  node_partition_ = std::move(plan);
  partitions_.reserve(static_cast<size_t>(np));
  for (int p = 0; p < np; ++p) {
    partitions_.push_back(std::make_unique<Partition>());
  }
  for (NodeId i = 0; i < n; ++i) {
    partitions_[static_cast<size_t>(node_partition_[static_cast<size_t>(i)])]->nodes.push_back(i);
  }
  // All route state the coordinator will query is built up front; after this,
  // workers never touch the topology (see topology.h's thread-safety note).
  routed->PrewarmRoutes();
  parallel_ = true;
}

void Network::EnsurePool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(static_cast<int>(partitions_.size()),
                                         PhaseProfiler::Current());
  }
}

// Applies every staged worker command in the documented deterministic merge
// order: ascending partition id, then staging order (the source partition's
// own event order). Runs at the barrier, before the global queue catches up,
// so queue_.now() (the previous barrier) never exceeds any staged timestamp
// and Schedule's past-clamp stays inert.
void Network::MergeStaged() {
  BULLET_PROFILE_SCOPE(ProfilePhase::kMerge);
  for (auto& part_ptr : partitions_) {
    Partition& part = *part_ptr;
    for (StagedCmd& cmd : part.staged) {
      switch (cmd.kind) {
        case StagedCmd::Kind::kSend:
          SendAt(cmd.conn, cmd.from, std::move(cmd.msg), cmd.at);
          break;
        case StagedCmd::Kind::kClose:
          CloseAt(cmd.conn, cmd.at);
          break;
        case StagedCmd::Kind::kConnect: {
          Conn* c = GetConn(cmd.conn);
          c->body = AcquireBody();
          for (int i = 0; i < 2; ++i) {
            FillPathCache(*c, i, part.path_pool);
          }
          open_conns_.push_back(cmd.conn);
          const ConnId id = cmd.conn;
          queue_.Schedule(cmd.at + c->body->path[0].rtt * 3 / 2,
                          [this, id] { RunEstablishment(id); });
          break;
        }
        case StagedCmd::Kind::kGlobal:
          queue_.Schedule(cmd.at, std::move(cmd.fn));
          break;
      }
    }
    part.staged.clear();
  }
}

// The barrier-time counterpart of Tick(). The parallel engine has no tick
// *event*: the allocator runs here, at each anchor + k*quantum barrier, which
// is the identical cadence.
void Network::TickParallel() { AllocatorTick(); }

// The superstep loop. Each iteration: run every partition's window in
// parallel up to the next quantum-grid barrier, merge staged commands, catch
// the global queue up, then execute the allocator tick at the barrier.
void Network::ParallelRun(SimTime until) {
  EnsurePool();
  if (!tick_scheduled_) {
    // No tick event exists under the parallel engine; the barriers fire on the
    // same anchor + k*quantum grid the serial tick would.
    tick_scheduled_ = true;
    tick_anchor_ = queue_.now() + config_.quantum;
    last_tick_ = queue_.now();
  }
  stop_flag_.store(false, std::memory_order_relaxed);
  while (queue_.now() < until) {
    const SimTime t = queue_.now();
    const SimTime grid =
        t < tick_anchor_
            ? tick_anchor_
            : tick_anchor_ + ((t - tick_anchor_) / config_.quantum + 1) * config_.quantum;
    const SimTime window_end = std::min(grid, until);
    pool_->RunOnAll([this, window_end](int w) {
      PartitionScope scope(w);
      Partition& part = *partitions_[static_cast<size_t>(w)];
      part.window_events = part.queue.RunWindow(window_end);
    });
    for (const auto& part : partitions_) {
      events_executed_ += part->window_events;
    }
    MergeStaged();
    events_executed_ += queue_.RunUntil(window_end);
    if (queue_.stopped() || stop_flag_.load(std::memory_order_relaxed)) {
      // Mirror the serial engine: Stop() leaves the clock at the last executed
      // event rather than advancing to the barrier.
      break;
    }
    queue_.SyncNow(window_end);
    if (window_end == grid) {
      TickParallel();
      ++events_executed_;  // the serial engine's tick event, executed inline
    }
  }
}

void Network::Run(SimTime until) {
  if (parallel_) {
    ParallelRun(until);
  } else {
    if (!tick_scheduled_) {
      tick_scheduled_ = true;
      queue_.ScheduleAfter(config_.quantum, [this] { Tick(); });
    }
    events_executed_ += queue_.RunUntil(until);
  }
  // Publish the deltas since the last publication into the harness's installed
  // per-run counters (if any); several networks may feed one run's totals.
  // Parallel mode publishes here too — on the coordinator, after the final
  // barrier — so counters are only ever written by the thread calling Run().
  if (RunCounters* rc = RunCounters::Current()) {
    rc->events_executed += events_executed_ - rc_published_events_;
    rc->allocator_epochs += allocator_epochs_ - published_epochs_;
    const int64_t bytes = total_bytes_sent();
    rc->sim_bytes_sent += static_cast<uint64_t>(bytes - published_bytes_);
    rc_published_events_ = events_executed_;
    published_epochs_ = allocator_epochs_;
    published_bytes_ = bytes;
  }
}

}  // namespace bullet
