// Conformance layer for the transit-stub route store (ctest label `routed`):
// every route a TransitStub-built topology answers — composed from stub legs
// and a cached transit segment, or walked from the source router's tree when
// an endpoint attaches outside a stub — must be *bitwise* identical to the
// route a plain RoutedTopology computes over the same edges by walking its
// Dijkstra tree, and the segment store must stay flat once prewarmed.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/topology.h"

namespace bullet {
namespace {

RoutedTopology::TransitStubParams MultiDomainShape(int nodes) {
  RoutedTopology::TransitStubParams p;
  p.num_nodes = nodes;
  p.transit_domains = 2;
  p.routers_per_transit = 3;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub = 3;
  p.transit_loss_max = 0.02;  // lossy transit tier, so PathLoss is non-trivial
  return p;
}

// Replays a built topology into a plain RoutedTopology: the same edges in id
// order, the same attachments and access links, but no TransitStubInfo — so
// every route on the replica is a walk of the source router's Dijkstra tree.
RoutedTopology ReplayAsPlain(const RoutedTopology& built) {
  RoutedTopology plain(built.num_nodes(), built.num_routers());
  for (int32_t id = 0; id < built.num_edges(); ++id) {
    EXPECT_EQ(plain.AddEdge(built.edge_from(id), built.edge_to(id), built.interior_link(id)), id);
  }
  for (NodeId n = 0; n < built.num_nodes(); ++n) {
    plain.AttachNode(n, built.attach(n));
    plain.uplink(n) = built.uplink(n);
    plain.downlink(n) = built.downlink(n);
  }
  EXPECT_EQ(plain.transit_stub_info(), nullptr);
  return plain;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Route, delay, RTT and loss of every ordered pair, compared to the last bit.
void ExpectOracleEqual(const RoutedTopology& built, const RoutedTopology& plain) {
  const int nodes = built.num_nodes();
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      if (s == d) {
        continue;
      }
      const Topology::PathView reference = plain.InteriorPath(s, d);
      const std::vector<int32_t> ids(reference.begin(), reference.end());
      const Topology::PathView route = built.InteriorPath(s, d);
      ASSERT_EQ(route.size, ids.size()) << s << "->" << d;
      for (uint32_t i = 0; i < route.size; ++i) {
        ASSERT_EQ(route.ids[i], ids[i]) << s << "->" << d << " hop " << i;
      }
      EXPECT_EQ(built.PathDelay(s, d), plain.PathDelay(s, d)) << s << "->" << d;
      EXPECT_EQ(built.Rtt(s, d), plain.Rtt(s, d)) << s << "->" << d;
      EXPECT_EQ(Bits(built.PathLoss(s, d)), Bits(plain.PathLoss(s, d))) << s << "->" << d;
    }
  }
}

void ExpectOracleEqualOnSeeds(const RoutedTopology::TransitStubParams& shape, bool prewarm) {
  for (const uint64_t seed : {515u, 516u, 517u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const RoutedTopology built = RoutedTopology::TransitStub(shape, rng);
    const RoutedTopology plain = ReplayAsPlain(built);
    if (prewarm) {
      built.PrewarmRoutes();
    }
    ExpectOracleEqual(built, plain);
  }
}

TEST(SegmentCompression, ComposedRoutesAreBitwiseIdenticalToDirectDijkstra) {
  ExpectOracleEqualOnSeeds(MultiDomainShape(48), /*prewarm=*/false);
  // Equal transit delays make Dijkstra ties everywhere; the (dist, router)
  // tie-break must still resolve them the same way from either source.
  RoutedTopology::TransitStubParams tied = MultiDomainShape(48);
  tied.transit_delay_min = MsToSim(20);
  tied.transit_delay_max = MsToSim(20);
  ExpectOracleEqualOnSeeds(tied, /*prewarm=*/false);
}

TEST(SegmentCompression, PrewarmedComposedRoutesStayBitwiseIdentical) {
  // PrewarmRoutes warms transit trees + segments up front (the parallel
  // engine's startup contract); answers must not change.
  ExpectOracleEqualOnSeeds(MultiDomainShape(48), /*prewarm=*/true);
}

TEST(SegmentCompression, SingleRouterStubsMatchTreeWalk) {
  // routers_per_stub = 1: every stub is its bare gateway, no star legs.
  RoutedTopology::TransitStubParams shape = MultiDomainShape(30);
  shape.routers_per_stub = 1;
  ExpectOracleEqualOnSeeds(shape, /*prewarm=*/false);
}

TEST(SegmentCompression, SingleTransitRouterMatchesTreeWalk) {
  // One transit router: every cross-stub route has an empty transit segment.
  RoutedTopology::TransitStubParams shape = MultiDomainShape(30);
  shape.transit_domains = 1;
  shape.routers_per_transit = 1;
  shape.stub_domains_per_transit_router = 4;
  ExpectOracleEqualOnSeeds(shape, /*prewarm=*/false);
}

TEST(SegmentCompression, TransitAttachedNodeTakesTreeWalk) {
  // A node re-attached to a transit router (router 0 in the TransitStub
  // layout) has no stub leg to compose: its pairs walk the source router's
  // tree, while every other pair still composes.
  for (const uint64_t seed : {100u, 101u, 102u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    RoutedTopology built = RoutedTopology::TransitStub(MultiDomainShape(24), rng);
    built.AttachNode(0, 0);
    const RoutedTopology plain = ReplayAsPlain(built);
    built.PrewarmRoutes();
    const size_t warm = built.route_cache_bytes();
    ExpectOracleEqual(built, plain);
    // Prewarm covered the walked trees too: answering every pair grew nothing.
    EXPECT_EQ(built.route_cache_bytes(), warm);
  }
}

TEST(SegmentCompression, ComposedRoutesAreValidRouterWalks) {
  Rng rng(303);
  RoutedTopology topo = RoutedTopology::TransitStub(MultiDomainShape(36), rng);
  for (NodeId s = 0; s < 36; ++s) {
    for (NodeId d = 0; d < 36; ++d) {
      if (s == d) {
        continue;
      }
      const Topology::PathView path = topo.InteriorPath(s, d);
      int32_t at = topo.attach(s);
      for (const int32_t edge : path) {
        ASSERT_EQ(topo.edge_from(edge), at) << s << "->" << d;
        at = topo.edge_to(edge);
      }
      EXPECT_EQ(at, topo.attach(d)) << s << "->" << d;
    }
  }
}

// --- memory scaling: the point of the segment store ---

TEST(SegmentCompression, SegmentStoreStaysFlatAfterPrewarm) {
  Rng rng(777);
  RoutedTopology composed = RoutedTopology::TransitStub(MultiDomainShape(64), rng);
  RoutedTopology walked = ReplayAsPlain(composed);
  composed.PrewarmRoutes();
  const size_t warm = composed.route_cache_bytes();
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 16; d < 64; ++d) {
      composed.InteriorPath(s, d);
      walked.InteriorPath(s, d);
    }
    // The segment store is already fully warmed and must not grow at all.
    EXPECT_EQ(composed.route_cache_bytes(), warm) << "source " << s;
  }
  // Composition keeps one tree per transit router; walking keeps one per
  // queried source router.
  EXPECT_LT(warm, walked.route_cache_bytes());
}

}  // namespace
}  // namespace bullet
