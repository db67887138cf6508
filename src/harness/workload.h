// Workload harness: wires a topology, a network, and N *sessions* — each with its
// own file, source, member set, join schedule, protocol (picked by name from the
// ProtocolRegistry) and metrics — and runs them to completion or deadline.
//
// This is the generalization of the single-session Experiment (experiment.h,
// now a thin wrapper): sessions may start staggered (flash crowds, late
// joiners), run concurrently over shared links, and mix protocols in one
// network. The two pieces of machinery that make that correct:
//
//   * per-session completion. Every session owns a RunMetrics whose completion
//     policy targets the session's *own* receiver count; a session finishing
//     never stops the network unless it was the last live session. (The old
//     AcceptBlock rule — stop at num_nodes()-1 completions — is kept only as
//     the fallback for bare protocols without an installed policy.)
//   * join-time instantiation off the event queue. Members with join time 0
//     are created and started before the event loop, exactly like the old
//     Experiment::Run start loop (this keeps all legacy runs byte-identical);
//     later joiners are created, registered and started by events at their
//     join times, grouped per (session, time) bucket — create-all-then-
//     start-all within a bucket, mirroring the two-phase time-zero path.
//
// Constraints (BULLET_CHECK-enforced at AddSession): sessions' member sets are
// pairwise disjoint (one node runs at most one protocol instance), the source
// is a member and joins no later than any other member (it roots the session's
// control tree; RandomStaged only attaches joiners under already-joined
// parents), and every session has at least two members.

#ifndef SRC_HARNESS_WORKLOAD_H_
#define SRC_HARNESS_WORKLOAD_H_

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/harness/churn.h"
#include "src/overlay/control_tree.h"
#include "src/overlay/protocol_registry.h"
#include "src/overlay/session.h"
#include "src/sim/metrics.h"
#include "src/sim/network.h"

namespace bullet {

// Network-level knobs shared by every session (see ExperimentParams for the
// field-by-field rationale; sessions carry the per-transfer state).
struct WorkloadParams {
  uint64_t seed = 1;
  SimTime quantum = MsToSim(10);
  SimTime deadline = SecToSim(3600.0);
  bool record_arrivals = false;
  // Run the network's pre-PR tick loop (full flow rebuild + water-fill every
  // quantum) instead of the incremental allocator. A/B reference for the
  // perf_core_scale benchmark and the determinism tests.
  bool full_recompute_allocator = false;
  // > 1 requests the partitioned parallel engine (NetworkConfig::num_threads);
  // effective only on transit-stub routed topologies in the incremental
  // allocator mode, serial fallback otherwise. 1 is bit-identical to the
  // serial engine.
  int num_threads = 1;
};

struct SessionResult {
  std::string name;      // spec.name, defaulting to the protocol's display name
  std::string protocol;  // registry key; empty for caller-supplied factories
  // Per receiver, in member order with the source excluded. Absolute sim time;
  // receivers that never completed report the deadline. Receivers that
  // *departed* mid-run without completing are excluded (they are counted in
  // `departed`/`departed_incomplete` instead): a member that left at t=80s of
  // a 3600s run did not "take 3600s to download".
  std::vector<double> completion_sec;
  // Same order: completion relative to the receiver's own join time (the
  // number a late joiner's user experiences).
  std::vector<double> download_sec;
  // Streaming mode only (SessionSpec::streaming); same order and the same
  // departed-exclusion rule as completion_sec. Rebuffer time and positions
  // late against the fixed playback schedule, per receiver.
  std::vector<double> stall_sec;
  std::vector<int> missed_deadline;
  double total_stall_sec = 0.0;
  int total_missed_deadline = 0;
  // Receivers whose playback consumed every required position before the
  // run deadline (streaming mode only).
  int playback_finished = 0;
  double duplicate_fraction = 0.0;
  double control_overhead = 0.0;
  int completed = 0;
  int receivers = 0;
  // Mid-run departures (lifetime draws, seeder departures, churn events).
  int departed = 0;
  // Departed receivers that never completed; the completion policy credits
  // them so the session still terminates.
  int departed_incomplete = 0;
  double start_sec = 0.0;      // session epoch
  double last_join_sec = 0.0;  // latest member join time
  // When every receiver finished: absolute sim seconds; -1 if the deadline hit.
  double completed_at_sec = -1.0;
};

struct WorkloadResult {
  std::vector<SessionResult> sessions;
  int sessions_completed = 0;
  // Peak flows sharing one interior link across the whole run (all sessions).
  int32_t max_shared_link_flows = 0;
  // Mid-run departures across all sessions (lifetimes + churn).
  int total_departures = 0;
  // The churn model's schedule as drawn for this run (empty without a model).
  std::vector<ChurnEvent> churn_events;
  // Deterministic run counters from the network (seed-reproducible; the perf
  // gate divides them by wall time — see docs/PERFORMANCE.md).
  uint64_t events_executed = 0;
  uint64_t allocator_epochs = 0;
  uint64_t sim_bytes_sent = 0;
  // Memory telemetry at the end of the run (deterministic byte counters, not
  // RSS): routed-topology route cache, flow path pools, connection headers
  // and bodies, and the peak of the arena-backed per-node protocol state. See
  // docs/ARCHITECTURE.md "Mega-swarm memory model"; the megaswarm sweep gates
  // ceilings on these.
  uint64_t route_cache_bytes = 0;
  uint64_t path_pool_bytes = 0;
  uint64_t conn_state_bytes = 0;
  uint64_t arena_peak_bytes = 0;
};

// Registers the four built-in systems (bullet-prime, bullet, bittorrent,
// splitstream) into ProtocolRegistry::Global(). Idempotent and cheap; the
// harness calls it before any registry lookup so the linker can never drop
// the registrations with the translation units that define them.
void EnsureBuiltinProtocolsRegistered();

class WorkloadExperiment {
 public:
  WorkloadExperiment(std::unique_ptr<Topology> topology, const WorkloadParams& params);
  // Convenience: wrap a concrete topology value (MeshTopology, RoutedTopology).
  template <typename TopologyType,
            typename = std::enable_if_t<std::is_base_of_v<Topology, std::decay_t<TopologyType>>>>
  WorkloadExperiment(TopologyType topology, const WorkloadParams& params)
      : WorkloadExperiment(std::make_unique<std::decay_t<TopologyType>>(std::move(topology)),
                           params) {}

  // Adds a session whose protocol is resolved by name through
  // ProtocolRegistry::Global(). Returns the session index.
  int AddSession(const SessionSpec& spec);
  // Adds a session driven by a caller-supplied per-node factory (the legacy
  // Experiment wrapper and tests); spec.protocol is ignored. A null factory
  // defers the choice — install one with SetSessionFactory before Run.
  int AddSession(const SessionSpec& spec, ProtocolRegistry::NodeFactory factory);
  void SetSessionFactory(int session, ProtocolRegistry::NodeFactory factory);

  // Installs a churn model whose schedule is drawn at Run() over every session
  // (WorkloadSpec::churn; RunScenarioWorkload forwards it automatically).
  void SetChurnModel(std::shared_ptr<const ChurnModel> churn);

  // Executes every session's join schedule and runs the simulation until all
  // sessions complete or the deadline passes. Call once.
  WorkloadResult Run();

  Network& net() { return *net_; }
  const WorkloadParams& params() const { return params_; }

  int num_sessions() const { return static_cast<int>(sessions_.size()); }
  // The normalized spec (members/offsets expanded, seed resolved into seed).
  const SessionSpec& session_spec(int session) const { return at(session).spec; }
  uint64_t session_seed(int session) const { return at(session).seed; }
  const ControlTree& session_tree(int session) const { return at(session).tree; }
  RunMetrics& session_metrics(int session) { return *at(session).metrics; }
  // nullptr before the node's join time (or for non-members).
  Protocol* session_protocol(int session, NodeId node);
  // Absolute join time; -1 for non-members.
  SimTime session_join_time(int session, NodeId node) const;
  bool session_complete(int session) const { return at(session).complete; }

 private:
  struct JoinBucket {
    SimTime at = 0;                    // absolute join time
    std::vector<size_t> member_idx;    // indices into spec.members, join order
  };

  struct Session {
    SessionSpec spec;  // normalized
    uint64_t seed = 0;
    std::string display_name;
    std::string protocol_key;
    ControlTree tree;
    std::unique_ptr<RunMetrics> metrics;
    ProtocolRegistry::NodeFactory factory;       // declared before protocols_:
    std::vector<std::unique_ptr<Protocol>> protocols;  // destroyed first
    std::vector<SimTime> join_at;                // absolute, parallel to members
    std::vector<int> member_slot;                // NodeId -> member index, -1 otherwise
    std::vector<JoinBucket> buckets;             // ascending join time
    std::vector<SimTime> depart_at;              // lifetime departures; -1 = never
    bool complete = false;
  };

  Session& at(int session) { return sessions_.at(static_cast<size_t>(session)); }
  const Session& at(int session) const { return sessions_.at(static_cast<size_t>(session)); }

  int AddSessionImpl(SessionSpec spec, const ProtocolRegistry::Entry* entry,
                     ProtocolRegistry::NodeFactory factory);
  void ExecuteJoinBucket(int session, size_t bucket);
  void OnSessionComplete(int session);
  // Fails `node` on the network and credits its session's completion policy;
  // idempotent, and the source is never departed.
  void DepartNode(int session, NodeId node);
  void ScheduleDynamics();  // lifetime departures + churn schedule, pre-Run
  SessionResult AssembleSessionResult(const Session& s) const;

  WorkloadParams params_;
  std::unique_ptr<Network> net_;
  // Serializes OnSessionComplete: under the parallel engine, sessions on
  // different partitions can complete in the same superstep window, and the
  // completion hook fires on whichever worker recorded the last completion.
  // Its effects (flags, counter, the final Stop()) are value-deterministic
  // regardless of which thread runs it first; the mutex only makes the
  // read-modify-writes atomic.
  std::mutex complete_mu_;
  // deque: Session addresses must stay stable — protocols hold pointers to
  // their session's tree and metrics across AddSession calls.
  std::deque<Session> sessions_;
  std::vector<char> member_claimed_;  // disjointness across sessions
  std::shared_ptr<const ChurnModel> churn_;
  std::vector<ChurnEvent> churn_events_;  // as drawn at Run()
  int total_departures_ = 0;
  int sessions_completed_ = 0;
  bool ran_ = false;
};

}  // namespace bullet

#endif  // SRC_HARNESS_WORKLOAD_H_
