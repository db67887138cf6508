#include "src/harness/scenarios.h"

#include <memory>
#include <utility>

#include "src/harness/workload_gen.h"

namespace bullet {

std::string ScenarioSystemOr(const ScenarioConfig& cfg, const std::string& fallback) {
  return cfg.system.empty() ? fallback : cfg.system;
}

std::string ScenarioSubsetSystemOr(const ScenarioConfig& cfg, const std::string& fallback) {
  if (cfg.system.empty()) {
    return fallback;
  }
  EnsureBuiltinProtocolsRegistered();
  const ProtocolRegistry::Entry* entry = ProtocolRegistry::Global().Find(cfg.system);
  if (entry == nullptr || entry->requires_full_span) {
    return fallback;
  }
  return cfg.system;
}

std::unique_ptr<Topology> BuildScenarioTopology(const ScenarioConfig& cfg) {
  Rng rng(cfg.seed ^ 0x74d3c2e1b5a69788ULL);
  switch (cfg.topo) {
    case ScenarioConfig::Topo::kMesh: {
      MeshTopology::MeshParams mesh;
      mesh.num_nodes = cfg.num_nodes;
      mesh.core_loss_min = cfg.loss_min;
      mesh.core_loss_max = cfg.loss_max;
      return std::make_unique<MeshTopology>(MeshTopology::FullMesh(mesh, rng));
    }
    case ScenarioConfig::Topo::kConstrained:
      return std::make_unique<MeshTopology>(MeshTopology::ConstrainedAccess(cfg.num_nodes, rng));
    case ScenarioConfig::Topo::kUniform:
      return std::make_unique<MeshTopology>(MeshTopology::Uniform(
          cfg.num_nodes, cfg.uniform_bps, cfg.uniform_delay, cfg.loss_min, cfg.loss_max, rng));
    case ScenarioConfig::Topo::kWideArea:
      return std::make_unique<MeshTopology>(MeshTopology::WideArea(cfg.num_nodes, rng));
    case ScenarioConfig::Topo::kTransitStub: {
      RoutedTopology::TransitStubParams params = cfg.transit_stub;
      params.num_nodes = cfg.num_nodes;
      params.transit_loss_min = cfg.loss_min;
      params.transit_loss_max = cfg.loss_max;
      return std::make_unique<RoutedTopology>(RoutedTopology::TransitStub(params, rng));
    }
  }
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = cfg.num_nodes;
  return std::make_unique<MeshTopology>(MeshTopology::FullMesh(mesh, rng));
}

bool ParseTopologyName(const std::string& name, ScenarioConfig::Topo* topo) {
  if (name == "mesh") {
    *topo = ScenarioConfig::Topo::kMesh;
    return true;
  }
  if (name == "transit-stub") {
    *topo = ScenarioConfig::Topo::kTransitStub;
    return true;
  }
  return false;
}

WorkloadResult RunScenarioWorkload(const ScenarioConfig& cfg, const WorkloadSpec& workload) {
  EnsureBuiltinProtocolsRegistered();
  WorkloadParams params;
  params.seed = cfg.seed;
  params.deadline = cfg.deadline;
  params.record_arrivals = cfg.record_arrivals;
  params.full_recompute_allocator = cfg.full_recompute_allocator;
  params.quantum = cfg.quantum;
  params.num_threads = cfg.num_threads;

  std::unique_ptr<Topology> topology = BuildScenarioTopology(cfg);
  if (workload.access_links != nullptr) {
    // Access-link cohorts rewrite per-node link parameters before the network
    // snapshots the topology; the stream is decorrelated from the topology
    // builder's (same base seed, different salt).
    Rng access_rng(cfg.seed ^ 0xa0761d6478bd642fULL);
    workload.access_links->Apply(*topology, access_rng);
  }
  WorkloadExperiment exp(std::move(topology), params);
  if (workload.churn != nullptr) {
    exp.SetChurnModel(workload.churn);
  }
  if (cfg.dynamic_bw) {
    StartPeriodicBandwidthChanges(exp.net(), BandwidthDynamicsParams{});
  }
  for (SessionSpec session : workload.sessions) {
    if (session.file.num_blocks == 0) {
      // Inherit the scenario's file sizing (the legacy single-session rule).
      session.file.block_bytes = cfg.block_bytes;
      session.file.num_blocks = static_cast<uint32_t>(cfg.file_mb * 1024.0 * 1024.0 /
                                                      static_cast<double>(cfg.block_bytes));
    }
    if (cfg.force_encoded) {
      session.file.encoded = true;
    }
    if (!session.streaming.has_value() &&
        (cfg.stream_bitrate_mbps > 0 || cfg.stream_window_blocks > 0)) {
      StreamingSpec stream;
      if (cfg.stream_bitrate_mbps > 0) {
        stream.bitrate_mbps = cfg.stream_bitrate_mbps;
      }
      if (cfg.stream_window_blocks > 0) {
        stream.window_blocks = cfg.stream_window_blocks;
      }
      session.streaming = stream;
    }
    exp.AddSession(session);
  }
  return exp.Run();
}

ScenarioResult ToScenarioResult(const SessionResult& session, const WorkloadResult& run) {
  ScenarioResult result;
  result.name = session.name;
  result.completion_sec = session.completion_sec;
  result.download_sec = session.download_sec;
  result.duplicate_fraction = session.duplicate_fraction;
  result.control_overhead = session.control_overhead;
  result.completed = session.completed;
  result.receivers = session.receivers;
  result.max_shared_link_flows = run.max_shared_link_flows;
  result.events_executed = run.events_executed;
  result.allocator_epochs = run.allocator_epochs;
  result.sim_bytes_sent = run.sim_bytes_sent;
  result.route_cache_bytes = run.route_cache_bytes;
  result.path_pool_bytes = run.path_pool_bytes;
  result.conn_state_bytes = run.conn_state_bytes;
  result.arena_peak_bytes = run.arena_peak_bytes;
  return result;
}

ScenarioResult RunScenario(const std::string& protocol, const ScenarioConfig& cfg,
                           const BulletPrimeConfig& bp) {
  EnsureBuiltinProtocolsRegistered();
  WorkloadSpec workload;
  SessionSpec session;
  session.protocol = protocol;
  session.source = 0;
  session.seed = cfg.seed;
  // `bp` applies only when the protocol actually takes a BulletPrimeConfig —
  // the registry now declares each protocol's config type and the harness
  // rejects mismatches, so attaching it unconditionally would abort for the
  // baselines (the historical enum dispatch just let them ignore it).
  const ProtocolRegistry::Entry* entry = ProtocolRegistry::Global().Find(protocol);
  if (entry != nullptr && entry->config_type != nullptr &&
      *entry->config_type == typeid(BulletPrimeConfig)) {
    session.protocol_config = bp;
  }
  workload.sessions.push_back(std::move(session));
  const WorkloadResult r = RunScenarioWorkload(cfg, workload);
  return ToScenarioResult(r.sessions.front(), r);
}

double OptimalAccessLinkSeconds(double file_mb, double access_bps) {
  return file_mb * 1024.0 * 1024.0 * 8.0 / access_bps;
}

double TcpFeasibleSeconds(double file_mb, double access_bps, double startup_sec) {
  // Protocol efficiency: TCP/IP header overhead on 1460-byte segments plus block
  // headers (~0.2%), and a sustained-utilization factor for congestion avoidance.
  constexpr double kHeaderEfficiency = 1460.0 / 1500.0;
  constexpr double kTcpUtilization = 0.95;
  const double goodput = access_bps * kHeaderEfficiency * kTcpUtilization;
  return startup_sec + file_mb * 1024.0 * 1024.0 * 8.0 / goodput;
}

}  // namespace bullet
