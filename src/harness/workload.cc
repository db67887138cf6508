#include "src/harness/workload.h"

#include <algorithm>
#include <mutex>

#include "src/baselines/bittorrent.h"
#include "src/baselines/bullet_legacy.h"
#include "src/baselines/splitstream.h"
#include "src/common/logging.h"
#include "src/core/bullet_prime.h"
#include "src/harness/workload_gen.h"

namespace bullet {

void EnsureBuiltinProtocolsRegistered() {
  // Explicit calls (not static initializers in the libraries): a registration
  // living only in a static-library object file would be dropped by the linker
  // once nothing else references that object.
  static std::once_flag once;
  std::call_once(once, [] {
    RegisterBulletPrimeProtocol();
    RegisterBulletLegacyProtocol();
    RegisterBitTorrentProtocol();
    RegisterSplitStreamProtocol();
  });
}

namespace {

// Decorrelated per-session seed stream (SplitMix64 over base + index), used
// when a SessionSpec does not pin its own seed.
uint64_t DeriveSessionSeed(uint64_t base, int index) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

WorkloadExperiment::WorkloadExperiment(std::unique_ptr<Topology> topology,
                                       const WorkloadParams& params)
    : params_(params) {
  NetworkConfig net_config;
  net_config.quantum = params.quantum;
  net_config.allocator_mode = params.full_recompute_allocator
                                  ? NetworkConfig::AllocatorMode::kFullRecompute
                                  : NetworkConfig::AllocatorMode::kIncremental;
  net_config.num_threads = params.num_threads;
  net_ = std::make_unique<Network>(std::move(topology), net_config, params.seed ^ 0x9e3779b9ULL);
  member_claimed_.assign(static_cast<size_t>(net_->num_nodes()), 0);
}

int WorkloadExperiment::AddSession(const SessionSpec& spec) {
  EnsureBuiltinProtocolsRegistered();
  const ProtocolRegistry::Entry* entry = ProtocolRegistry::Global().Find(spec.protocol);
  BULLET_CHECK(entry != nullptr && "unknown protocol name (see ProtocolRegistry)");
  return AddSessionImpl(spec, entry, nullptr);
}

int WorkloadExperiment::AddSession(const SessionSpec& spec,
                                   ProtocolRegistry::NodeFactory factory) {
  return AddSessionImpl(spec, nullptr, std::move(factory));
}

void WorkloadExperiment::SetSessionFactory(int session, ProtocolRegistry::NodeFactory factory) {
  BULLET_CHECK(!ran_ && "factories must be installed before Run()");
  at(session).factory = std::move(factory);
}

int WorkloadExperiment::AddSessionImpl(SessionSpec spec, const ProtocolRegistry::Entry* entry,
                                       ProtocolRegistry::NodeFactory factory) {
  BULLET_CHECK(!ran_ && "sessions must be added before Run()");
  const int n = net_->num_nodes();
  const int index = static_cast<int>(sessions_.size());

  // --- normalize the spec ---
  if (spec.members.empty()) {
    spec.members.reserve(static_cast<size_t>(n));
    for (NodeId node = 0; node < n; ++node) {
      spec.members.push_back(node);
    }
  }
  const size_t num_members = spec.members.size();
  BULLET_CHECK(num_members >= 2 && "a session needs a source and at least one receiver");
  // Resolved before arrivals expansion so the generator stream derives from
  // the same value the session would have been assigned anyway.
  const uint64_t session_seed = spec.seed ? *spec.seed : DeriveSessionSeed(params_.seed, index);
  if (spec.arrivals != nullptr) {
    BULLET_CHECK(spec.join_offsets.empty() &&
                 "an arrivals generator and explicit join_offsets are mutually exclusive");
    Rng arrivals_rng(session_seed ^ 0x5bd1e995a1b2c3d4ULL);
    const std::vector<SimTime> offsets =
        spec.arrivals->Offsets(num_members - 1, arrivals_rng);
    BULLET_CHECK(offsets.size() == num_members - 1 &&
                 "ArrivalProcess::Offsets must return one offset per receiver");
    spec.join_offsets.assign(num_members, 0);
    size_t r = 0;
    for (size_t i = 0; i < num_members; ++i) {
      if (spec.members[i] == spec.source) {
        continue;  // the source keeps offset zero (validated as a member below)
      }
      BULLET_CHECK(r < offsets.size() && "the source must be a session member");
      BULLET_CHECK(offsets[r] >= 0 && "arrival offsets must be non-negative");
      spec.join_offsets[i] = offsets[r++];
    }
  }
  if (spec.join_offsets.empty()) {
    spec.join_offsets.assign(num_members, 0);
  }
  BULLET_CHECK(spec.join_offsets.size() == num_members &&
               "join_offsets must parallel members (or be empty)");
  BULLET_CHECK(spec.start >= 0 && "session start must be non-negative");
  if (entry != nullptr && entry->encoded_stream) {
    // Section 4.2 methodology: this system always runs over an encoded stream.
    spec.file.encoded = true;
  }
  if (entry != nullptr && spec.protocol_config.has_value()) {
    // Catch config mismatches here with the registry's declared type instead
    // of a bad_any_cast (or a silent default) deep inside the factory.
    BULLET_CHECK(entry->config_type != nullptr &&
                 "this protocol takes no config but protocol_config is set");
    BULLET_CHECK(spec.protocol_config.type() == *entry->config_type &&
                 "protocol_config holds the wrong type for this protocol");
  }

  sessions_.emplace_back();
  Session& s = sessions_.back();
  s.seed = session_seed;
  spec.seed = s.seed;
  s.spec = std::move(spec);
  const SessionSpec& sp = s.spec;

  // --- membership bookkeeping and validation ---
  s.member_slot.assign(static_cast<size_t>(n), -1);
  s.join_at.resize(num_members);
  int source_slot = -1;
  for (size_t i = 0; i < num_members; ++i) {
    const NodeId node = sp.members[i];
    BULLET_CHECK(node >= 0 && node < n && "session member out of range");
    BULLET_CHECK(s.member_slot[static_cast<size_t>(node)] < 0 &&
                 "duplicate member within a session");
    BULLET_CHECK(!member_claimed_[static_cast<size_t>(node)] &&
                 "sessions must have disjoint member sets");
    s.member_slot[static_cast<size_t>(node)] = static_cast<int>(i);
    BULLET_CHECK(sp.join_offsets[i] >= 0 && "join offsets must be non-negative");
    s.join_at[i] = sp.start + sp.join_offsets[i];
    if (node == sp.source) {
      source_slot = static_cast<int>(i);
    }
  }
  for (const NodeId node : sp.members) {
    member_claimed_[static_cast<size_t>(node)] = 1;
  }
  BULLET_CHECK(source_slot >= 0 && "the source must be a session member");
  const SimTime earliest = *std::min_element(s.join_at.begin(), s.join_at.end());
  BULLET_CHECK(s.join_at[static_cast<size_t>(source_slot)] == earliest &&
               "the source must join no later than any other member");

  // --- lifetime departures ---
  // One draw per receiver in member order (deterministic in the session seed);
  // the source never departs — it anchors the session.
  s.depart_at.assign(num_members, -1);
  if (sp.lifetimes != nullptr) {
    Rng life_rng(s.seed ^ 0x27d4eb2f165667c5ULL);
    for (size_t i = 0; i < num_members; ++i) {
      if (sp.members[i] == sp.source) {
        continue;
      }
      const SimTime life = sp.lifetimes->Draw(i, life_rng);
      BULLET_CHECK(life != 0 && "lifetime draws must be positive or negative (infinite)");
      if (life > 0) {
        s.depart_at[i] = s.join_at[i] + life;
      }
    }
  }

  // --- join buckets: one per distinct join time, member order within ---
  std::vector<size_t> order(num_members);
  for (size_t i = 0; i < num_members; ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&s](size_t a, size_t b) { return s.join_at[a] < s.join_at[b]; });
  for (const size_t i : order) {
    if (s.buckets.empty() || s.buckets.back().at != s.join_at[i]) {
      s.buckets.push_back(JoinBucket{s.join_at[i], {}});
    }
    s.buckets.back().member_idx.push_back(i);
  }

  // --- control tree ---
  // The legacy shape (every node, zero offsets, source 0) keeps the historical
  // ControlTree::Random call so all single-session runs stay byte-identical.
  // Everything else builds a join-staged tree rooted at the source: parents
  // always join no later than their children, so a joiner can connect upward
  // immediately.
  Rng tree_rng(s.seed ^ 0x7f4a7c15ULL);
  const bool legacy_shape = static_cast<int>(num_members) == n && sp.source == 0 &&
                            s.buckets.size() == 1 && s.buckets.front().at == 0 &&
                            [&] {
                              for (size_t i = 0; i < num_members; ++i) {
                                if (sp.members[i] != static_cast<NodeId>(i)) {
                                  return false;
                                }
                              }
                              return true;
                            }();
  if (legacy_shape) {
    s.tree = ControlTree::Random(n, sp.tree_fanout, tree_rng);
  } else {
    std::vector<std::vector<NodeId>> stages;
    for (const JoinBucket& bucket : s.buckets) {
      std::vector<NodeId> stage;
      stage.reserve(bucket.member_idx.size());
      for (const size_t i : bucket.member_idx) {
        if (sp.members[i] != sp.source) {
          stage.push_back(sp.members[i]);
        }
      }
      if (!stage.empty()) {
        stages.push_back(std::move(stage));
      }
    }
    s.tree = ControlTree::RandomStaged(n, sp.source, stages, sp.tree_fanout, tree_rng);
  }

  // --- metrics, completion policy, factory ---
  s.metrics = std::make_unique<RunMetrics>(n);
  s.metrics->record_arrivals = params_.record_arrivals;
  s.metrics->SetMembers(sp.members);
  s.metrics->SetCompletionPolicy(static_cast<int>(num_members) - 1,
                                 [this, index] { OnSessionComplete(index); });
  if (sp.lifetimes != nullptr && sp.lifetimes->departs_after_completion()) {
    // The "seeder departs" regime: a completed receiver stops serving `linger`
    // after it finishes (a departure event on the queue, not an inline kill —
    // the observer fires mid-delivery inside the protocol).
    const SimTime linger = sp.lifetimes->post_completion_linger();
    s.metrics->SetCompletionObserver([this, index, linger](NodeId node, SimTime t) {
      if (node == at(index).spec.source) {
        return;
      }
      // ScheduleGlobal, not queue().Schedule: the observer fires from protocol
      // context, which under the parallel engine is a worker thread — the
      // departure must be staged to the global queue at the barrier (departures
      // fail the node network-wide, a cross-partition effect).
      net_->ScheduleGlobal(t + linger, [this, index, node] { DepartNode(index, node); });
    });
  }
  s.protocols.resize(num_members);

  if (entry != nullptr) {
    s.display_name = entry->display_name;
    s.protocol_key = entry->key;
    ProtocolRegistry::SessionEnv env;
    env.spec = &s.spec;
    env.tree = &s.tree;
    env.seed = s.seed;
    env.num_nodes = n;
    s.factory = entry->make(env);
    BULLET_CHECK(s.factory != nullptr && "protocol factory construction failed");
  } else {
    s.display_name = sp.name.empty() ? "session" + std::to_string(index) : sp.name;
    s.factory = std::move(factory);
  }
  return index;
}

void WorkloadExperiment::ExecuteJoinBucket(int session, size_t bucket) {
  Session& s = at(session);
  const JoinBucket& b = s.buckets[bucket];
  // Two-phase, like the historical start loop: every member of the bucket is
  // constructed and registered before any of them Start()s, so same-instant
  // joiners can connect to each other.
  for (const size_t i : b.member_idx) {
    const NodeId node = s.spec.members[i];
    Protocol::Context ctx;
    ctx.self = node;
    ctx.net = net_.get();
    ctx.metrics = s.metrics.get();
    ctx.seed = s.seed * 0x100000001b3ULL + static_cast<uint64_t>(node) + 1;
    s.protocols[i] = s.factory(ctx);
    net_->SetHandler(node, s.protocols[i].get());
  }
  for (const size_t i : b.member_idx) {
    s.protocols[i]->Start();
  }
}

void WorkloadExperiment::SetChurnModel(std::shared_ptr<const ChurnModel> churn) {
  BULLET_CHECK(!ran_ && "the churn model must be installed before Run()");
  churn_ = std::move(churn);
}

void WorkloadExperiment::DepartNode(int session, NodeId node) {
  if (net_->IsNodeFailed(node)) {
    return;  // lifetime expiry and churn may race; first event wins
  }
  Session& s = at(session);
  if (node == s.spec.source) {
    return;
  }
  net_->FailNode(node);
  s.metrics->RecordDeparture(node, net_->now());
  ++total_departures_;
  // A departed straggler counts toward the target, so the session (and the
  // run) still terminates once everyone left standing has finished.
  s.metrics->NotifyIfAllComplete();
}

void WorkloadExperiment::ScheduleDynamics() {
  for (int si = 0; si < static_cast<int>(sessions_.size()); ++si) {
    Session& s = at(si);
    for (size_t i = 0; i < s.depart_at.size(); ++i) {
      if (s.depart_at[i] < 0) {
        continue;
      }
      const NodeId node = s.spec.members[i];
      net_->queue().Schedule(s.depart_at[i], [this, si, node] { DepartNode(si, node); });
    }
  }
  if (churn_ == nullptr) {
    return;
  }
  ChurnContext ctx;
  ctx.topology = &net_->topology();
  ctx.sessions.reserve(sessions_.size());
  for (const Session& s : sessions_) {
    ChurnContext::SessionView view;
    view.tree = &s.tree;
    view.source = s.spec.source;
    view.members = &s.spec.members;
    ctx.sessions.push_back(view);
  }
  Rng churn_rng(params_.seed ^ 0x94d049bb133111ebULL);
  churn_events_ = churn_->Schedule(ctx, churn_rng);
  for (const ChurnEvent& ev : churn_events_) {
    BULLET_CHECK(ev.node >= 0 && ev.node < net_->num_nodes() && ev.at > 0 &&
                 "churn model produced an invalid event");
    int owner = -1;
    for (int si = 0; si < static_cast<int>(sessions_.size()); ++si) {
      if (at(si).member_slot[static_cast<size_t>(ev.node)] >= 0) {
        owner = si;
        break;
      }
    }
    if (owner >= 0) {
      const NodeId node = ev.node;
      const int si = owner;
      BULLET_CHECK(node != at(si).spec.source && "churn models must never kill a source");
      net_->queue().Schedule(ev.at, [this, si, node] { DepartNode(si, node); });
    } else {
      // Not in any session: fail the node on the network only (background
      // population on shared infrastructure).
      const NodeId node = ev.node;
      net_->queue().Schedule(ev.at, [this, node] { net_->FailNode(node); });
    }
  }
}

// Fires from RunMetrics::NotifyIfAllComplete — protocol context, which under
// the parallel engine may be any worker thread (whichever partition recorded
// the session's last completion). The mutex makes the flag/counter updates
// atomic; the outcome is value-deterministic regardless of firing thread, and
// Stop() is itself safe from worker context.
void WorkloadExperiment::OnSessionComplete(int session) {
  Session& s = at(session);
  bool all_done = false;
  {
    std::lock_guard<std::mutex> lock(complete_mu_);
    if (s.complete) {
      return;
    }
    s.complete = true;
    ++sessions_completed_;
    all_done = sessions_completed_ == static_cast<int>(sessions_.size());
  }
  if (all_done) {
    net_->Stop();
  }
}

WorkloadResult WorkloadExperiment::Run() {
  BULLET_CHECK(!ran_ && "WorkloadExperiment::Run may only be called once");
  BULLET_CHECK(!sessions_.empty() && "no sessions added");
  for (const Session& s : sessions_) {
    BULLET_CHECK(s.factory != nullptr && "session has no protocol factory");
  }
  ran_ = true;

  // Time-zero buckets run before the event loop starts — this is the legacy
  // Experiment::Run start loop, so pre-existing runs keep their exact event
  // numbering. Later buckets are event-queue-driven joins.
  for (int si = 0; si < static_cast<int>(sessions_.size()); ++si) {
    Session& s = at(si);
    for (size_t bi = 0; bi < s.buckets.size(); ++bi) {
      if (s.buckets[bi].at <= 0) {
        ExecuteJoinBucket(si, bi);
      } else {
        net_->queue().Schedule(s.buckets[bi].at,
                               [this, si, bi] { ExecuteJoinBucket(si, bi); });
      }
    }
  }
  ScheduleDynamics();

  net_->Run(params_.deadline);

  WorkloadResult result;
  result.sessions.reserve(sessions_.size());
  for (const Session& s : sessions_) {
    result.sessions.push_back(AssembleSessionResult(s));
  }
  result.sessions_completed = sessions_completed_;
  result.max_shared_link_flows = net_->max_interior_link_flows();
  result.total_departures = total_departures_;
  result.churn_events = churn_events_;
  result.events_executed = net_->events_executed();
  result.allocator_epochs = net_->allocator_epochs();
  result.sim_bytes_sent = static_cast<uint64_t>(net_->total_bytes_sent());
  result.route_cache_bytes = static_cast<uint64_t>(net_->route_cache_bytes());
  result.path_pool_bytes = static_cast<uint64_t>(net_->path_pool_bytes());
  result.conn_state_bytes = static_cast<uint64_t>(net_->conn_state_bytes());
  result.arena_peak_bytes = static_cast<uint64_t>(net_->arena_peak_bytes());
  return result;
}

SessionResult WorkloadExperiment::AssembleSessionResult(const Session& s) const {
  SessionResult r;
  r.name = s.spec.name.empty() ? s.display_name : s.spec.name;
  r.protocol = s.protocol_key;
  r.duplicate_fraction = s.metrics->DuplicateFraction();
  r.control_overhead = s.metrics->ControlOverheadFraction();
  r.completed = s.metrics->completed();
  r.receivers = static_cast<int>(s.spec.members.size()) - 1;
  r.departed_incomplete = s.metrics->departed_incomplete();
  for (const NodeId m : s.spec.members) {
    if (s.metrics->node(m).departed >= 0) {
      ++r.departed;
    }
  }
  r.start_sec = SimToSec(s.spec.start);
  const double deadline_sec = SimToSec(params_.deadline);
  SimTime last_join = 0;
  SimTime last_completion = -1;
  for (size_t i = 0; i < s.spec.members.size(); ++i) {
    last_join = std::max(last_join, s.join_at[i]);
    if (s.spec.members[i] == s.spec.source) {
      continue;
    }
    const NodeMetrics& nm = s.metrics->node(s.spec.members[i]);
    const SimTime done = nm.completion;
    const double join_sec = SimToSec(s.join_at[i]);
    if (done >= 0) {
      r.completion_sec.push_back(SimToSec(done));
      r.download_sec.push_back(SimToSec(done) - join_sec);
      last_completion = std::max(last_completion, done);
    } else if (nm.departed >= 0) {
      // Departed without completing: excluded from the completion/download
      // series (it would report the run deadline and skew the CDF tail); the
      // departure is still visible through departed/departed_incomplete.
      continue;
    } else {
      r.completion_sec.push_back(deadline_sec);
      // Clamped at zero: a join time at or past the deadline means the member
      // never joined at all — a negative "download time" would silently skew
      // the series percentiles.
      r.download_sec.push_back(std::max(0.0, deadline_sec - join_sec));
    }
    if (s.spec.streaming.has_value()) {
      const PlaybackStats ps = ComputePlaybackStats(
          *s.spec.streaming, s.spec.file.num_blocks, s.spec.file.block_bytes, s.spec.start,
          s.join_at[i], nm.position_arrivals, params_.deadline);
      r.stall_sec.push_back(ps.stall_sec);
      r.missed_deadline.push_back(ps.missed_deadline);
      r.total_stall_sec += ps.stall_sec;
      r.total_missed_deadline += ps.missed_deadline;
      r.playback_finished += ps.finished ? 1 : 0;
    }
  }
  r.last_join_sec = SimToSec(last_join);
  if (s.complete && last_completion >= 0) {
    r.completed_at_sec = SimToSec(last_completion);
  }
  return r;
}

Protocol* WorkloadExperiment::session_protocol(int session, NodeId node) {
  const Session& s = at(session);
  const int slot = s.member_slot.at(static_cast<size_t>(node));
  return slot < 0 ? nullptr : at(session).protocols[static_cast<size_t>(slot)].get();
}

SimTime WorkloadExperiment::session_join_time(int session, NodeId node) const {
  const Session& s = at(session);
  const int slot = s.member_slot.at(static_cast<size_t>(node));
  return slot < 0 ? -1 : s.join_at[static_cast<size_t>(slot)];
}

}  // namespace bullet
