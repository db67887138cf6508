// End-to-end contract of the mega-swarm scale subsystem (ctest label
// `routed`): composed transit-stub routes must not move a single bit of a
// protocol run compared with tree-walked routes over the same graph, and the
// memory telemetry must flow through ScenarioResult so the megaswarm ceilings
// gate has real numbers to check.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/harness/scenarios.h"
#include "src/harness/workload.h"

namespace bullet {
namespace {

ScenarioConfig SmallMegaswarmConfig() {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 24;
  cfg.file_mb = 1.0;
  cfg.block_bytes = 16 * 1024;
  cfg.seed = 2401;
  return cfg;
}

// Bullet' over `topology` with every node joining at t=0 — the scenario
// harness's session shape, on a caller-supplied topology.
WorkloadResult RunBulletPrime(std::unique_ptr<Topology> topology, const ScenarioConfig& cfg) {
  WorkloadParams params;
  params.seed = cfg.seed;
  params.deadline = cfg.deadline;
  WorkloadExperiment exp(std::move(topology), params);
  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file.block_bytes = cfg.block_bytes;
  spec.file.num_blocks = static_cast<uint32_t>(cfg.file_mb * 1024.0 * 1024.0 /
                                               static_cast<double>(cfg.block_bytes));
  spec.seed = cfg.seed;
  exp.AddSession(spec);
  return exp.Run();
}

TEST(MegaswarmScale, CompressedRoutesDoNotPerturbScenarioResults) {
  // The same run over a TransitStub graph (routes composed from stub legs and
  // transit segments) and over its edge-by-edge replay as a plain
  // RoutedTopology (every route walked from the source router's tree).
  const ScenarioConfig cfg = SmallMegaswarmConfig();
  std::unique_ptr<Topology> composed = BuildScenarioTopology(cfg);
  const RoutedTopology& built = *composed->AsRouted();
  auto walked = std::make_unique<RoutedTopology>(built.num_nodes(), built.num_routers());
  for (int32_t id = 0; id < built.num_edges(); ++id) {
    walked->AddEdge(built.edge_from(id), built.edge_to(id), built.interior_link(id));
  }
  for (NodeId n = 0; n < built.num_nodes(); ++n) {
    walked->AttachNode(n, built.attach(n));
    walked->uplink(n) = built.uplink(n);
    walked->downlink(n) = built.downlink(n);
  }
  const WorkloadResult a = RunBulletPrime(std::move(composed), cfg);
  const WorkloadResult b = RunBulletPrime(std::move(walked), cfg);
  ASSERT_EQ(a.sessions.size(), 1u);
  ASSERT_EQ(b.sessions.size(), 1u);
  const SessionResult& sa = a.sessions[0];
  const SessionResult& sb = b.sessions[0];
  EXPECT_EQ(sa.completed, sa.receivers);
  EXPECT_EQ(sa.completion_sec, sb.completion_sec);
  EXPECT_EQ(sa.download_sec, sb.download_sec);
  EXPECT_EQ(sa.completed, sb.completed);
  EXPECT_EQ(sa.duplicate_fraction, sb.duplicate_fraction);
  EXPECT_EQ(sa.control_overhead, sb.control_overhead);
  EXPECT_EQ(a.max_shared_link_flows, b.max_shared_link_flows);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.allocator_epochs, b.allocator_epochs);
  EXPECT_EQ(a.sim_bytes_sent, b.sim_bytes_sent);
}

TEST(MegaswarmScale, MemoryTelemetryFlowsThroughScenarioResult) {
  ScenarioConfig cfg = SmallMegaswarmConfig();
  const ScenarioResult r = RunScenario("bullet-prime", cfg);
  // Transit-stub routing populates the route store (trees and transit
  // segments) and the PathCache arena; Bullet' peer tables live on the counted protocol arenas.
  EXPECT_GT(r.route_cache_bytes, 0u);
  EXPECT_GT(r.path_pool_bytes, 0u);
  EXPECT_GT(r.arena_peak_bytes, 0u);

  // BitTorrent's peer table is arena-backed too.
  const ScenarioResult bt = RunScenario("bittorrent", cfg);
  EXPECT_GT(bt.arena_peak_bytes, 0u);
}

TEST(MegaswarmScale, MeshTopologyReportsNoRouteCache) {
  ScenarioConfig cfg = SmallMegaswarmConfig();
  cfg.topo = ScenarioConfig::Topo::kMesh;
  const ScenarioResult r = RunScenario("bullet-prime", cfg);
  // Dense mesh paths are computed from the matrix, not a route cache.
  EXPECT_EQ(r.route_cache_bytes, 0u);
  EXPECT_GT(r.arena_peak_bytes, 0u);
}

}  // namespace
}  // namespace bullet
