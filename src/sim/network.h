// The emulated network: reliable, ordered, byte-accounted connections between overlay
// nodes, with bandwidth shared max-min across all concurrently active flows and TCP
// behaviour approximated per flow (see tcp_model.h).
//
// Protocols interact with the network exclusively through:
//   Connect / Close  — connection lifecycle (establishment costs 1.5 RTT, like TCP
//                      handshake plus first application write),
//   Send             — enqueue a typed message on a connection,
//   NetHandler       — callbacks for connection up/down and message delivery.
//
// Every `quantum` of simulated time the network recomputes flow rates (a flow is a
// connection direction with queued bytes) and advances transmissions. Completed
// messages are delivered after the path's propagation delay, plus a retransmission
// penalty drawn from the path loss rate; deliveries on one direction are in order.
//
// Topology generality (PR 4). A flow crosses its sender's uplink, its receiver's
// downlink, and the interior links of the topology's s->d path — one private
// core link on the legacy mesh, a shared multi-hop route on RoutedTopology.
// Interior routes are snapshotted per direction at Connect() (propagation delay
// and loss are static; only link bandwidth is dynamic).
//
// The allocator keeps a persistent flow table (bandwidth_allocator.h): a busy
// direction is added as a flow when it activates and removed when it drains or
// its connection closes. Every link has a stable canonical order — uplink i is
// i, downlink i is n + i, interior link k is 2n + k — that breaks max-min ties;
// access links hold fixed allocator slots, interior links get a slot while a
// flow crosses them.
//
// Hot-path architecture (PR 3). The tick is event-driven in its *work*, not its
// schedule: a tick event still fires every quantum (keeping the event-sequence
// numbering — and therefore same-time tie-breaking — identical to the original
// fixed-quantum loop), but the expensive stages only run when something changed:
//
//   * compaction of closed connections runs only on quanta that saw a Close();
//   * the flow set is re-water-filled only when dirty — a direction became busy
//     or idle, a connection closed, a flow's TCP cap is still ramping, or a link
//     capacity changed (detected by comparing the allocator's capacities against
//     the topology: every access link, and every interior link a flow crosses);
//   * on clean quanta the cached rates are reused — by determinism they are
//     exactly what a recompute would produce — and only transmission advancement
//     runs;
//   * a fully idle network (no queued bytes anywhere) ticks in O(1).
//
// Per-flow TCP caps are cached once the slow-start ramp reaches its steady ceiling
// (tcp_model.h), message queues are ring buffers that recycle their storage, and
// delivery events capture their message directly in the event-queue closure, so
// steady-state message handling performs no per-message allocation.
//
// NetworkConfig::allocator_mode selects the legacy full-recompute-every-quantum
// tick (the pre-PR behaviour, kept as a reference and for A/B benchmarking).
//
// Parallel engine (PR 9). NetworkConfig::num_threads > 1 on a transit-stub
// RoutedTopology runs a partitioned conservative-synchronization engine:
//
//   * Nodes are partitioned by transit-stub domain (each stub domain maps to
//     its transit router; transit routers are grouped contiguously into
//     num_threads partitions). Every partition owns a private EventQueue that
//     carries its nodes' protocol timers and message deliveries.
//   * All partitions advance in lockstep over windows of one quantum. Within a
//     window, workers execute only partition-local state transitions; every
//     observable shared structure (connection table, open-connection list,
//     busy masks, the global queue, the topology's route caches) is read-only.
//     Worker-context Network calls that would mutate shared state — Send,
//     Close, Connect registration, ScheduleGlobal — are appended to the
//     partition's staged-command log with their issue-time timestamps.
//   * At the window barrier the coordinator drains the staged logs in the
//     documented deterministic merge order — ascending partition id, then
//     staging order (which is the source partition's event order) — then runs
//     the global queue up to the barrier (establishment and conn-down
//     notifications, joins, departures, dynamics), then executes the
//     allocator tick: one global IncrementalMaxMin epoch whose TCP-cap
//     evaluation is sharded across the workers and whose water-fill shards
//     wide saturation rounds over the pool (see bandwidth_allocator.h).
//     Transmissions advance and
//     deliveries are scheduled onto the receiver partitions' queues exactly as
//     the serial tick would.
//   * The partition plan is validated against the conservative-sync lookahead:
//     the minimum cross-partition path delay (derived from the router graph)
//     must cover one quantum, so a message sent in window k physically cannot
//     be delivered before the k+1 barrier at which the engine schedules it.
//     If the lookahead is too small the engine reduces the partition count and
//     rechecks; mesh topologies, kFullRecompute mode, and plans that collapse
//     to one partition all fall back to the serial engine.
//
// num_threads == 1 *is* the serial engine — bit-identical behaviour and BENCH
// output to previous releases. num_threads > 1 is run-to-run deterministic for
// a fixed thread count (merge order and worker-order reductions never depend
// on thread scheduling) but diverges from the serial schedule in documented,
// deterministic ways: staged worker commands apply at the barrier (a
// cross-partition Close becomes visible to IsOpen at the next barrier; a Send
// issued after its connection established in the same window anchors its TCP
// ramp at the establishment instant); worker Connects register in merge order
// rather than global time order; Stop() takes effect at the next barrier.
//
// Thread-safety contract: Network's public API may be called from protocol
// code in worker context (the engine routes such calls through the staging
// paths) and from the coordinator between windows. It must never be called
// from threads outside the engine while Run() executes. RunCounters are
// published only by the thread calling Run().

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/bandwidth_allocator.h"
#include "src/sim/engine_parallel.h"
#include "src/sim/event_queue.h"
#include "src/sim/scale/arena.h"
#include "src/sim/tcp_model.h"
#include "src/sim/time.h"
#include "src/sim/topology.h"

namespace bullet {

using ConnId = int64_t;

// Base class for all protocol messages. `wire_bytes` must include the protocol's own
// header estimate; the network charges exactly this many bytes of link bandwidth.
struct Message {
  virtual ~Message() = default;
  int type = 0;
  int64_t wire_bytes = 0;
};

class NetHandler {
 public:
  virtual ~NetHandler() = default;
  // `initiator` is true at the node that called Connect().
  virtual void OnConnUp(ConnId /*conn*/, NodeId /*peer*/, bool /*initiator*/) {}
  virtual void OnConnDown(ConnId /*conn*/, NodeId /*peer*/) {}
  virtual void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) = 0;
};

struct NetworkConfig {
  SimTime quantum = MsToSim(10);
  TcpModelParams tcp;
  // Model the extra delivery latency of messages that suffer packet loss (TCP
  // retransmission + head-of-line blocking). Throughput loss is modelled separately
  // via the Mathis cap; this term affects message latency, which is what makes
  // availability information stale on lossy paths (Section 4.3).
  bool loss_latency = true;

  enum class AllocatorMode {
    kIncremental,    // dirty-tracked allocation with cached rates (default)
    kFullRecompute,  // pre-PR behaviour: rebuild + water-fill every quantum
  };
  AllocatorMode allocator_mode = AllocatorMode::kIncremental;

  // > 1 requests the partitioned parallel engine (see the header comment).
  // Effective only on transit-stub routed topologies in kIncremental mode; the
  // engine may use fewer threads than requested (at most one per transit
  // router, fewer if the lookahead check demands it) and silently falls back
  // to the serial engine when no valid multi-partition plan exists.
  int num_threads = 1;
};

class Network {
 public:
  Network(std::unique_ptr<Topology> topology, NetworkConfig config, uint64_t seed);
  // Convenience: wrap a concrete topology value (MeshTopology, RoutedTopology).
  template <typename TopologyType,
            typename = std::enable_if_t<std::is_base_of_v<Topology, std::decay_t<TopologyType>>>>
  Network(TopologyType topology, NetworkConfig config, uint64_t seed)
      : Network(std::make_unique<std::decay_t<TopologyType>>(std::move(topology)), config, seed) {
  }

  EventQueue& queue() { return queue_; }
  // The queue protocol code on `n` should schedule its timers on: the node's
  // partition queue under the parallel engine, the global queue otherwise.
  EventQueue& node_queue(NodeId n) {
    if (parallel_) {
      return partitions_[static_cast<size_t>(node_partition_[static_cast<size_t>(n)])]->queue;
    }
    return queue_;
  }
  // Context-aware simulated time: the executing partition's clock inside a
  // worker window, the global clock otherwise. In serial mode this is always
  // the global clock.
  SimTime now() const {
    if (parallel_) {
      const int p = CurrentPartitionIndex();
      if (p >= 0) {
        return partitions_[static_cast<size_t>(p)]->queue.now();
      }
    }
    return queue_.now();
  }
  Topology& topology() { return *topology_; }
  Rng& rng() { return rng_; }
  int num_nodes() const { return topology_->num_nodes(); }

  void SetHandler(NodeId node, NetHandler* handler);
  // True once SetHandler installed a protocol for the node — i.e. the node has
  // joined its session. Messages delivered before that are silently dropped,
  // so membership-aware overlays (SplitStream's static stripe forest) defer
  // handshakes to not-yet-joined peers instead of losing them.
  bool NodeJoined(NodeId node) const { return handlers_[static_cast<size_t>(node)] != nullptr; }

  // Opens a connection from `from` to `to`. Both ends receive OnConnUp after
  // establishment. Messages may be sent immediately; they queue until established.
  ConnId Connect(NodeId from, NodeId to);

  // Closes the connection. The remote end receives OnConnDown after one path delay;
  // all queued and in-flight messages are dropped.
  void Close(ConnId conn);
  bool IsOpen(ConnId conn) const;

  // Enqueues a message from `from` on the connection. Returns false (and drops) if
  // the connection is closed or `from` is not an endpoint.
  bool Send(ConnId conn, NodeId from, std::unique_ptr<Message> msg);

  // Fails the node: every connection touching it closes (peers learn through
  // OnConnDown after the usual delay) and future Connect() calls involving it are
  // refused. Used by churn experiments; a failed node's protocol object survives but
  // is cut off. Idempotent.
  void FailNode(NodeId node);
  bool IsNodeFailed(NodeId node) const { return failed_[static_cast<size_t>(node)] != 0; }

  // Introspection used by protocol flow control (Bullet' measures its send queue to
  // report `in_front` and `wasted`, Section 3.3.3).
  size_t QueuedMessages(ConnId conn, NodeId from) const;
  int64_t QueuedBytes(ConnId conn, NodeId from) const;
  // Time since this direction last transmitted its final queued byte; 0 if busy.
  SimTime IdleTime(ConnId conn, NodeId from) const;
  // Most recent allocated rate for this direction, bits/second.
  double CurrentRateBps(ConnId conn, NodeId from) const;

  // Per-node totals (all message kinds), counted at transmission completion.
  int64_t node_bytes_sent(NodeId n) const { return tx_bytes_[static_cast<size_t>(n)]; }
  int64_t node_bytes_received(NodeId n) const { return rx_bytes_[static_cast<size_t>(n)]; }

  // Entries in the open-connection list. Closed connections are compacted out on
  // the next quantum boundary after their Close(), so this may transiently exceed
  // the number of live connections by the closes of the current quantum (tests
  // use it to pin down that bound; see network_test.cc).
  size_t open_conn_entries() const { return open_conns_.size(); }
  // Directions currently holding queued bytes on established connections.
  size_t active_directions() const { return active_dirs_; }
  // Peak number of flows the allocator saw sharing one interior link in any
  // allocation epoch so far. On the mesh an interior link is private to an
  // ordered pair (its two-or-more flows are parallel connections of that pair);
  // on routed topologies this is the shared-bottleneck width — the
  // fig16_shared_bottleneck scenario asserts it exceeds 1.
  int32_t max_interior_link_flows() const { return max_interior_link_flows_; }

  // Live probes over one interior link (a topology link id, e.g. a transit-stub
  // gateway uplink): the number of busy established flows currently routed
  // across it, and the total bandwidth the last allocation granted them. Rates
  // reflect the most recent allocation epoch (at most one quantum stale), which
  // is exactly the sampling granularity the emulator allocates at anyway.
  int CountFlowsOnInteriorLink(int32_t link_id) const;
  double InteriorLinkAllocatedBps(int32_t link_id) const;

  // Deterministic run counters (always on, seed-reproducible; the perf gate
  // normalizes them by wall time — see docs/PERFORMANCE.md). Run() also adds
  // the same deltas to the thread-locally installed RunCounters, if any, so a
  // harness can total them across the several networks one scenario may build.
  uint64_t events_executed() const { return events_executed_; }   // queue callbacks fired
  uint64_t allocator_epochs() const { return allocator_epochs_; } // water-fill recomputes
  int64_t total_bytes_sent() const;  // wire bytes transmitted, all nodes

  // --- mega-swarm memory telemetry (deterministic byte counters; see
  // docs/ARCHITECTURE.md "Mega-swarm memory model"). The harness surfaces
  // these per run and the megaswarm sweep gates them against a committed
  // ceiling baseline (bytes <= baseline; bench_check bullet-ceilings-v1).
  // Routing state held by the topology (0 on mesh topologies).
  size_t route_cache_bytes() const;
  // Pooled per-connection interior-route slices, every store (main +
  // partition pools).
  size_t path_pool_bytes() const;
  // Connection state held: the header of every connection ever opened (all
  // stores) plus every body, attached or on the free list. Headers grow with
  // connections opened; bodies with the peak of open_conn_entries().
  size_t conn_state_bytes() const;
  // Connection bodies held, attached or free; never more than the run's peak
  // open_conn_entries().
  size_t conn_bodies_held() const { return bodies_.size(); }
  // Protocol node-state arenas registered via arena_counter(): live bytes now
  // and the run's peak.
  int64_t arena_current_bytes() const { return arena_counter_.current_bytes(); }
  int64_t arena_peak_bytes() const { return arena_counter_.peak_bytes(); }
  // The counter protocol node-state containers (StableFlatMap) register with.
  ArenaCounter* arena_counter() { return &arena_counter_; }

  // Runs the simulation until `until` or Stop().
  void Run(SimTime until);
  // Serial engine: stops after the current event. Parallel engine: stops at
  // the next superstep barrier (window granularity; see the header comment).
  void Stop();

  // Schedules a callback on the global queue from any engine context. Worker
  // context stages the request into the partition's command log (applied in
  // merge order at the barrier); elsewhere this is queue().Schedule. Harness
  // code whose callbacks may fire from protocol context (e.g. completion
  // observers) must use this instead of queue().Schedule.
  void ScheduleGlobal(SimTime at, EventQueue::Callback fn);

  // Partition count of the active parallel plan; 0 when the serial engine
  // runs. The plan is fixed at construction.
  int parallel_partitions() const { return parallel_ ? static_cast<int>(partitions_.size()) : 0; }
  // Minimum cross-partition path delay the active plan was validated against
  // (>= quantum); 0 in serial mode.
  SimTime parallel_lookahead() const { return lookahead_; }

 private:
  struct QueuedMsg {
    std::unique_ptr<Message> msg;
    double remaining_bytes = 0.0;
  };

  // FIFO of queued messages backed by a recycled power-of-two ring, replacing a
  // per-direction std::deque: no node allocations per message, and the buffer is
  // released when the connection closes.
  class MsgRing {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    QueuedMsg& front() { return buf_[head_]; }
    void push_back(QueuedMsg qm);
    void pop_front();
    void clear_and_release();

   private:
    std::vector<QueuedMsg> buf_;  // power-of-two capacity, index masked
    size_t head_ = 0;
    size_t size_ = 0;
  };

  struct Direction {
    MsgRing queue;
    int64_t queued_bytes = 0;
    double rate_bps = 0.0;
    TcpFlowState tcp;
    SimTime delivery_floor = 0;  // enforces in-order delivery

    // TCP-cap cache for the incremental tick. Once `cap_steady`, `cap_cache` is
    // the exact value TcpRateCapBps would return for the rest of the busy
    // period, so the rebuild skips the transcendental-heavy recomputation.
    double cap_cache = 0.0;
    bool cap_steady = false;
    // Allocator flow slot while the direction is busy (incremental mode), -1
    // otherwise.
    int32_t flow = -1;
  };

  // Per-direction path parameters snapshotted at Connect(). Propagation delay,
  // loss and the interior route are static during a run (only link *bandwidth*
  // is dynamic — see dynamics.h), so these are the exact values the per-message
  // topology lookups would produce, without re-walking the topology per message
  // or per allocation epoch.
  //
  // The interior route lives as an (offset, length) slice of path_pool_ rather
  // than a per-direction vector: one contiguous pool drops two vector
  // allocations per Connect, and the route walks when a flow enters or leaves
  // the allocator's table read it sequentially. The pool only grows, so slices
  // stay valid for the connection's lifetime.
  struct PathCache {
    SimTime path_delay = 0;
    SimTime rtt = 0;
    double loss = 0.0;
    uint32_t interior_off = 0;  // slice of path_pool_: interior link ids, path order
    uint32_t interior_len = 0;
  };

  // The state only an open connection needs. A body is attached while the
  // connection sits in open_conns_ and is recycled through free_bodies_ once
  // compaction drops the closed connection from that list, so bodies held
  // track the peak of open connections, not every connection ever opened.
  // Only the coordinator attaches, mutates and recycles bodies (worker sends
  // are staged), so recycling happens at quantum boundaries / barriers.
  struct ConnBody {
    Direction dir[2];   // dir[i] carries node[i] -> node[1-i]
    PathCache path[2];  // path[i] describes node[i] -> node[1-i]
  };

  // Connection header: identity and everything a closed connection still
  // answers (IsOpen, Send, the queue introspection calls). Headers are never
  // freed or reused, so a ConnId stays valid for the run.
  struct Conn {
    ConnId id = -1;
    NodeId node[2] = {-1, -1};
    // Per direction: when its queue last drained (valid while it is empty).
    SimTime idle_since[2] = {0, 0};
    // Set for every connection in open_conns_, which is every open one the
    // coordinator can reach (a worker's Connect registers at the barrier,
    // before any command that names the new id). Null before that
    // registration, when every query answers as an empty direction, and
    // after compaction recycled a closed connection's body (its queues were
    // emptied at Close, so the answers do not change).
    ConnBody* body = nullptr;
    // Which backing store holds this connection: 0 = the main conns_ table,
    // p + 1 = partition p's ConnStore (worker-opened under the parallel
    // engine). Selects the path pool and the busy-byte location.
    int32_t store = 0;
    bool established = false;
    bool closed = false;
    // Busy-direction bits for store != 0 connections (the conn_busy_mask_
    // flat vector only spans the main table). Mutated only at barriers.
    uint8_t busy = 0;
  };

  // Stable-address growable Conn storage for worker-opened connections. The
  // owning worker appends mid-window while other threads may concurrently read
  // previously published entries (a peer learns the id via OnConnUp after a
  // barrier), so growth must never move existing Conns: storage is a fixed
  // table of chunk slots filled on demand. Single-writer (the owning worker
  // mid-window, the coordinator at barriers); NewSlot() returns the next slot
  // without publishing it, Publish() release-stores the new size after the
  // caller finished writing fields, and readers acquire-load `size` before
  // indexing — the release/acquire pair makes the fields visible.
  class ConnStore {
   public:
    static constexpr int kChunkBits = 10;  // 1024 conns per chunk
    static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
    static constexpr size_t kMaxChunks = 4096;  // 4M conns per partition

    ConnStore() : chunks_(kMaxChunks) {}

    size_t size_acquire() const { return size_.load(std::memory_order_acquire); }
    size_t size_relaxed() const { return size_.load(std::memory_order_relaxed); }
    Conn& at(size_t i) {
      return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
    }
    const Conn& at(size_t i) const {
      return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
    }
    // Slot for index size_relaxed(); allocates its chunk if needed. The slot is
    // invisible to readers until Publish().
    Conn& NewSlot() {
      const size_t i = size_relaxed();
      auto& chunk = chunks_[i >> kChunkBits];
      if (!chunk) {
        chunk = std::make_unique<Conn[]>(kChunkSize);
      }
      return chunk[i & (kChunkSize - 1)];
    }
    void Publish() { size_.fetch_add(1, std::memory_order_release); }

   private:
    std::vector<std::unique_ptr<Conn[]>> chunks_;  // fixed-size slot table
    std::atomic<size_t> size_{0};
  };

  // One worker-context Network call recorded mid-window, applied by the
  // coordinator at the barrier. Logs are drained in ascending partition id,
  // then staging order — the engine's documented deterministic merge order.
  struct StagedCmd {
    enum class Kind : uint8_t { kSend, kClose, kConnect, kGlobal };
    Kind kind;
    SimTime at = 0;            // partition-local issue time
    ConnId conn = -1;          // kSend / kClose / kConnect
    NodeId from = -1;          // kSend
    std::unique_ptr<Message> msg;  // kSend
    EventQueue::Callback fn;       // kGlobal
  };

  struct Partition {
    EventQueue queue;
    std::vector<NodeId> nodes;      // members, ascending
    ConnStore conns;                // worker-opened connections
    std::vector<int32_t> path_pool; // interior routes of those connections
    std::vector<StagedCmd> staged;  // drained at each barrier
    uint64_t window_events = 0;     // events the last window executed
  };

  // Encoded ConnId layout: low 40 bits index into the store, bits above select
  // it (0 = conns_, p + 1 = partition p). Store-0 ids are numerically the
  // plain index, so serial-mode ids — and their serialized appearance in BENCH
  // output — are unchanged.
  static constexpr int kConnStoreShift = 40;
  static constexpr ConnId kConnIndexMask = (ConnId{1} << kConnStoreShift) - 1;

  Conn* GetConn(ConnId id);
  const Conn* GetConn(ConnId id) const;
  // Returns 0 or 1: which endpoint `node` is; -1 if neither.
  static int EndpointIndex(const Conn& c, NodeId node);

  // Pool holding the interior-route slices of `c`'s PathCaches: the main
  // path_pool_ for store-0 connections, the owning partition's pool otherwise.
  const std::vector<int32_t>& PathPoolOf(const Conn& c) const {
    return c.store == 0 ? path_pool_ : partitions_[static_cast<size_t>(c.store - 1)]->path_pool;
  }
  // First interior link id of the path's pooled route slice. `path` must be
  // one of `c`'s two PathCaches.
  const int32_t* PathInteriorBegin(const Conn& c, const PathCache& path) const {
    return PathPoolOf(c).data() + path.interior_off;
  }
  const int32_t* PathInteriorEnd(const Conn& c, const PathCache& path) const {
    return PathPoolOf(c).data() + path.interior_off + path.interior_len;
  }

  // Busy-direction bits of the connection: the flat conn_busy_mask_ entry for
  // main-table connections (serial layout unchanged), the Conn's own busy byte
  // for partition-store ones.
  uint8_t& BusyByte(Conn& c) {
    return c.store == 0 ? conn_busy_mask_[static_cast<size_t>(c.id & kConnIndexMask)] : c.busy;
  }

  // The serial engine's tick event: AllocatorTick(), then the next tick.
  void Tick();
  // One quantum boundary, shared by both engines: close compaction, then (when
  // dirty) rebuild + water-fill, then transmission advance.
  void AllocatorTick();
  void TickFullRecompute(double dt_sec);
  void CompactOpenConns();
  // A reset body from the free list, or a new one when the list is empty.
  ConnBody* AcquireBody();
  // Copies every allocator link's topology capacity into the allocator;
  // returns true if any changed.
  bool SyncCapacities();
  // Gives a topology link an allocator slot under canonical order `order`.
  int32_t RegisterLink(int64_t order, const LinkParams& params);
  // Registers / removes direction `i` of `c` as an allocator flow (its
  // interior links take or release their slots with it).
  void TrackFlow(Conn& c, int i);
  void UntrackFlow(Conn& c, int i);
  void RebuildAndAllocate();
  void AdvanceTransmissions(double dt_sec);

  // --- parallel engine (see the header comment) ---
  // Computes the partition plan at construction; leaves parallel_ false when
  // no valid multi-partition plan exists.
  void BuildPartitions();
  // Lazily builds the worker pool on the first parallel Run().
  void EnsurePool();
  // The superstep loop: window / merge / global-queue / allocator-tick.
  void ParallelRun(SimTime until);
  // Drains staged command logs in merge order at a barrier.
  void MergeStaged();
  // The barrier-time counterpart of Tick(): AllocatorTick() with no event.
  void TickParallel();
  // Worker-context Connect: allocates the conn in the partition store and
  // stages a kConnect for the coordinator to complete at the barrier.
  ConnId ConnectInWorker(int partition, NodeId from, NodeId to);
  // Establishment instant of connection `id`: flips established, activates
  // queued directions, fires OnConnUp. Shared by serial Connect and the merge.
  void RunEstablishment(ConnId id);
  // Snapshots direction `i`'s path parameters and interior route into `pool`.
  void FillPathCache(Conn& c, int i, std::vector<int32_t>& pool);
  // Send/Close bodies parameterized on the action's simulated time; the public
  // entry points pass now(), the merge passes the staged timestamps.
  bool SendAt(ConnId conn, NodeId from, std::unique_ptr<Message> msg, SimTime at);
  void CloseAt(ConnId conn, SimTime at);
  void ActivateDirection(Conn& c, int dir_idx);
  void DeliverMessage(ConnId conn_id, int receiver_idx, std::unique_ptr<Message> msg);
  void EnqueueDelivery(ConnId conn_id, Conn& c, int sender_idx, std::unique_ptr<Message> msg);

  std::unique_ptr<Topology> topology_;
  NetworkConfig config_;
  Rng rng_;
  EventQueue queue_;

  std::vector<NetHandler*> handlers_;
  // Store-0 headers, indexed by ConnId, never reused. push_back never moves
  // a deque's elements, so cached_flows_ may point at them.
  std::deque<Conn> conns_;
  // Every body ever made (stable addresses) and the free ones among them.
  std::vector<std::unique_ptr<ConnBody>> bodies_;
  std::vector<ConnBody*> free_bodies_;
  // Pooled PathCache interior routes (see PathCache); append-only.
  std::vector<int32_t> path_pool_;
  std::vector<ConnId> open_conns_;            // compacted on quantum boundaries
  // Bit i set when conn->dir[i] is established with queued bytes. Lets the
  // rebuild scan skip idle connections with one flat byte load instead of a
  // pointer chase (most connections are idle in any given quantum).
  std::vector<uint8_t> conn_busy_mask_;  // indexed by ConnId

  std::vector<int64_t> tx_bytes_;
  std::vector<int64_t> rx_bytes_;
  std::vector<char> failed_;

  // --- incremental tick state ---
  IncrementalMaxMin alloc_;
  // Live/peak bytes of protocol node-state arenas (see arena_counter()).
  ArenaCounter arena_counter_;
  // (conn, direction) per busy flow, in open_conns_ order: the order
  // AdvanceTransmissions serves them in. Valid until the next rebuild. Conn
  // headers never move, so
  // raw pointers stay valid. A body is recycled only for a closed connection,
  // and every close marks the allocation dirty, so the list is rebuilt before
  // AdvanceTransmissions reads a flow whose body may have gone back.
  struct CachedFlow {
    Conn* conn;
    int dir_idx;
  };
  std::vector<CachedFlow> cached_flows_;
  // Allocator slot of each topology interior link while a flow crosses it,
  // -1 otherwise.
  std::vector<int32_t> interior_link_id_;
  // The topology link behind each live allocator slot, null for a free slot.
  // Topology link storage never moves once routes are pinned, which happens
  // before the first flow registers.
  std::vector<const LinkParams*> slot_params_;
  // Topology link_version() as of the last SyncCapacities scan.
  uint64_t synced_link_version_ = UINT64_MAX;
  // Per-flow allocator link-slot assembly buffer (uplink, downlink, interior...).
  std::vector<int32_t> flow_link_scratch_;

  size_t active_dirs_ = 0;    // established directions with queued bytes
  size_t pending_close_ = 0;  // closes since the last compaction pass
  bool alloc_dirty_ = true;   // cached rates/flows invalid; rebuild on next tick
  size_t ramping_flows_ = 0;  // flows whose TCP cap was not yet steady at rebuild
  int32_t max_interior_link_flows_ = 0;

  // Always-on deterministic counters (see the public accessors). Run() pushes
  // deltas into the installed RunCounters; published_* track what was pushed.
  uint64_t events_executed_ = 0;
  uint64_t allocator_epochs_ = 0;
  uint64_t rc_published_events_ = 0;
  uint64_t published_epochs_ = 0;
  int64_t published_bytes_ = 0;

  SimTime last_tick_ = 0;
  SimTime tick_anchor_ = 0;  // parallel engine's first barrier; the grid is anchor + k*quantum
  bool tick_scheduled_ = false;

  // --- parallel engine state (empty/unused in serial mode) ---
  bool parallel_ = false;
  SimTime lookahead_ = 0;  // validated min cross-partition path delay
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<int32_t> node_partition_;  // node -> partition index
  std::atomic<bool> stop_flag_{false};   // Stop() under the parallel engine
  std::vector<size_t> shard_ramping_;    // per-worker ramping-flow counts
  // Declared last: the destructor joins the workers while every structure
  // they may still reference (partitions, allocator scratch) is alive.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace bullet

#endif  // SRC_SIM_NETWORK_H_
