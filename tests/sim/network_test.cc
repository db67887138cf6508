#include "src/sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/dynamics.h"

namespace bullet {
namespace {

struct TestMsg : Message {
  int id = 0;
  TestMsg(int i, int64_t bytes) : id(i) {
    type = 1;
    wire_bytes = bytes;
  }
};

class Recorder : public NetHandler {
 public:
  struct Event {
    enum class Kind { kUp, kDown, kMsg };
    Kind kind;
    ConnId conn;
    NodeId peer;
    bool initiator = false;
    int msg_id = 0;
    SimTime at = 0;
  };

  explicit Recorder(Network* net) : net_(net) {}

  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override {
    events.push_back({Event::Kind::kUp, conn, peer, initiator, 0, net_->now()});
  }
  void OnConnDown(ConnId conn, NodeId peer) override {
    events.push_back({Event::Kind::kDown, conn, peer, false, 0, net_->now()});
  }
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override {
    events.push_back(
        {Event::Kind::kMsg, conn, from, false, static_cast<TestMsg&>(*msg).id, net_->now()});
  }

  std::vector<Event> events;

 private:
  Network* net_;
};

// Two nodes, symmetric 8 Mbps links with 10 ms one-way delay, lossless.
Network MakeTwoNodeNet(double bps = 8e6, SimTime delay = MsToSim(10)) {
  MeshTopology topo(2);
  for (NodeId n = 0; n < 2; ++n) {
    topo.uplink(n) = LinkParams{bps, MsToSim(0), 0.0};
    topo.downlink(n) = LinkParams{bps, MsToSim(0), 0.0};
  }
  topo.core(0, 1) = LinkParams{bps, delay, 0.0};
  topo.core(1, 0) = LinkParams{bps, delay, 0.0};
  NetworkConfig config;
  config.quantum = MsToSim(10);
  return Network(std::move(topo), config, 77);
}

TEST(Network, ConnectionEstablishesAfterHandshake) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);

  net.Connect(0, 1);
  net.Run(SecToSim(1.0));

  ASSERT_EQ(h0.events.size(), 1u);
  ASSERT_EQ(h1.events.size(), 1u);
  EXPECT_EQ(h0.events[0].kind, Recorder::Event::Kind::kUp);
  EXPECT_TRUE(h0.events[0].initiator);
  EXPECT_FALSE(h1.events[0].initiator);
  // Handshake = 1.5 RTT = 1.5 * 2 * 10 ms one-way.
  EXPECT_EQ(h0.events[0].at, MsToSim(30));
}

TEST(Network, SelfConnectionRejected) {
  Network net = MakeTwoNodeNet();
  EXPECT_EQ(net.Connect(0, 0), -1);
}

TEST(Network, MessageDeliveredWithTransmissionAndPropagation) {
  Network net = MakeTwoNodeNet(8e6, MsToSim(10));
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  // 100 KB at 8 Mbps = 100 ms transmission + 20 ms one-way + handshake 60 ms.
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 100 * 1000));
  net.Run(SecToSim(5.0));

  ASSERT_EQ(h1.events.size(), 2u);  // up + msg
  const auto& msg = h1.events[1];
  EXPECT_EQ(msg.kind, Recorder::Event::Kind::kMsg);
  EXPECT_EQ(msg.msg_id, 1);
  // Handshake 30 ms + transmission 100 ms + propagation 10 ms = 140 ms minimum;
  // slow start delays the early bytes somewhat.
  EXPECT_GE(msg.at, MsToSim(140));
  EXPECT_LE(msg.at, MsToSim(450));
}

TEST(Network, ThroughputMatchesLinkRate) {
  Network net = MakeTwoNodeNet(8e6, MsToSim(5));
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  // 4 MB at 8 Mbps ~ 4 s of transmission once past slow start.
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    net.Send(conn, 0, std::make_unique<TestMsg>(i, 100 * 1000));
  }
  net.Run(SecToSim(60.0));
  int delivered = 0;
  SimTime last = 0;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg) {
      ++delivered;
      last = e.at;
    }
  }
  EXPECT_EQ(delivered, kMessages);
  const double expected_sec = kMessages * 100.0 * 1000.0 * 8.0 / 8e6;
  EXPECT_NEAR(SimToSec(last), expected_sec, expected_sec * 0.25);
}

TEST(Network, InOrderDelivery) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  for (int i = 0; i < 50; ++i) {
    net.Send(conn, 0, std::make_unique<TestMsg>(i, 1000 + i * 100));
  }
  net.Run(SecToSim(30.0));
  int expected = 0;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg) {
      EXPECT_EQ(e.msg_id, expected++);
    }
  }
  EXPECT_EQ(expected, 50);
}

TEST(Network, LossyPathStillDeliversInOrder) {
  MeshTopology topo(2);
  for (NodeId n = 0; n < 2; ++n) {
    topo.uplink(n) = LinkParams{8e6, MsToSim(0), 0.0};
    topo.downlink(n) = LinkParams{8e6, MsToSim(0), 0.0};
  }
  topo.core(0, 1) = LinkParams{8e6, MsToSim(10), 0.02};
  topo.core(1, 0) = LinkParams{8e6, MsToSim(10), 0.02};
  NetworkConfig config;
  Network net(std::move(topo), config, 99);
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  for (int i = 0; i < 30; ++i) {
    net.Send(conn, 0, std::make_unique<TestMsg>(i, 16 * 1024));
  }
  net.Run(SecToSim(120.0));
  int expected = 0;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg) {
      EXPECT_EQ(e.msg_id, expected++);
    }
  }
  EXPECT_EQ(expected, 30);
}

TEST(Network, CloseDropsQueuedAndNotifiesPeer) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(0.5));
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 10 * 1000 * 1000));
  net.Close(conn);
  net.Run(SecToSim(5.0));
  EXPECT_FALSE(net.IsOpen(conn));
  bool down0 = false;
  bool down1 = false;
  bool msg1 = false;
  for (const auto& e : h0.events) {
    down0 |= e.kind == Recorder::Event::Kind::kDown;
  }
  for (const auto& e : h1.events) {
    down1 |= e.kind == Recorder::Event::Kind::kDown;
    msg1 |= e.kind == Recorder::Event::Kind::kMsg;
  }
  EXPECT_TRUE(down0);
  EXPECT_TRUE(down1);
  EXPECT_FALSE(msg1);
}

TEST(Network, SendOnClosedConnectionFails) {
  Network net = MakeTwoNodeNet();
  const ConnId conn = net.Connect(0, 1);
  net.Close(conn);
  EXPECT_FALSE(net.Send(conn, 0, std::make_unique<TestMsg>(1, 100)));
  EXPECT_FALSE(net.Send(-5, 0, std::make_unique<TestMsg>(1, 100)));
}

TEST(Network, SendFromNonEndpointFails) {
  MeshTopology topo(3);
  for (NodeId n = 0; n < 3; ++n) {
    topo.uplink(n) = LinkParams{8e6, 0, 0.0};
    topo.downlink(n) = LinkParams{8e6, 0, 0.0};
    for (NodeId d = 0; d < 3; ++d) {
      topo.core(n, d) = LinkParams{8e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 1);
  const ConnId conn = net.Connect(0, 1);
  EXPECT_FALSE(net.Send(conn, 2, std::make_unique<TestMsg>(1, 100)));
}

TEST(Network, QueueIntrospection) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(0.5));
  EXPECT_EQ(net.QueuedMessages(conn, 0), 0u);
  EXPECT_GT(net.IdleTime(conn, 0), 0);
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 5 * 1000 * 1000));
  net.Send(conn, 0, std::make_unique<TestMsg>(2, 1000));
  EXPECT_EQ(net.QueuedMessages(conn, 0), 2u);
  EXPECT_EQ(net.QueuedBytes(conn, 0), 5 * 1000 * 1000 + 1000);
  EXPECT_EQ(net.IdleTime(conn, 0), 0);
}

TEST(Network, ByteAccounting) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 50 * 1000));
  net.Run(SecToSim(10.0));
  EXPECT_EQ(net.node_bytes_sent(0), 50 * 1000);
  EXPECT_EQ(net.node_bytes_received(1), 50 * 1000);
  EXPECT_EQ(net.node_bytes_sent(1), 0);
}

TEST(Network, BandwidthChangeTakesEffect) {
  Network net = MakeTwoNodeNet(8e6, MsToSim(5));
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(1.0));  // warm up past slow start bookkeeping

  // Halve the core link before a 2 MB transfer; it should take ~2x the time.
  net.topology().AsMesh()->core(0, 1).bandwidth_bps = 2e6;
  const SimTime start = net.now();
  net.Send(conn, 0, std::make_unique<TestMsg>(7, 2 * 1000 * 1000));
  net.Run(SecToSim(60.0));
  SimTime arrival = -1;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg && e.msg_id == 7) {
      arrival = e.at;
    }
  }
  ASSERT_GE(arrival, 0);
  const double sec = SimToSec(arrival - start);
  // 2 MB at 2 Mbps = 8 s (plus slow start); at the original 8 Mbps it would be 2 s.
  EXPECT_GT(sec, 6.0);
  EXPECT_LT(sec, 12.0);
}

TEST(Network, CloseCompactsWithinOneQuantum) {
  // Regression: closed connections used to linger in the open list until some
  // later tick's compaction pass. With event-driven tick work the pass only
  // runs when needed, so Close() must guarantee compaction on the next quantum
  // boundary — including when the network is otherwise completely idle.
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{8e6, 0, 0.0};
    topo.downlink(n) = LinkParams{8e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{8e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 13);
  std::vector<ConnId> conns;
  for (NodeId d = 1; d < 4; ++d) {
    conns.push_back(net.Connect(0, d));
    conns.push_back(net.Connect(d, (d + 1) % 4 == 0 ? 1 : d + 1));
  }
  net.Run(SecToSim(1.0));  // establish; network is idle (no traffic at all)
  ASSERT_EQ(net.open_conn_entries(), conns.size());

  net.Close(conns[0]);
  net.Close(conns[3]);
  EXPECT_FALSE(net.IsOpen(conns[0]));
  // Entries may persist only until the next quantum boundary.
  net.Run(net.now() + MsToSim(10));
  EXPECT_EQ(net.open_conn_entries(), conns.size() - 2);

  // Idle network, closes only — still compacted, never accumulated.
  for (size_t i = 1; i < conns.size(); ++i) {
    if (i != 3) {
      net.Close(conns[i]);
    }
  }
  net.Run(net.now() + MsToSim(10));
  EXPECT_EQ(net.open_conn_entries(), 0u);
}

TEST(Network, ActiveDirectionAccountingAcrossLifecycle) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  EXPECT_EQ(net.active_directions(), 0u);
  // Queued before establishment: becomes active at establishment time.
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 64 * 1024));
  EXPECT_EQ(net.active_directions(), 0u);
  net.Run(SecToSim(0.05));  // established, still transmitting
  EXPECT_EQ(net.active_directions(), 1u);
  net.Run(SecToSim(2.0));  // drained
  EXPECT_EQ(net.active_directions(), 0u);
  net.Send(conn, 0, std::make_unique<TestMsg>(2, 8 * 1024 * 1024));
  EXPECT_EQ(net.active_directions(), 1u);
  net.Close(conn);  // closing a busy direction must release it
  EXPECT_EQ(net.active_directions(), 0u);
  net.Run(SecToSim(3.0));
  EXPECT_EQ(net.active_directions(), 0u);
  EXPECT_EQ(net.open_conn_entries(), 0u);
}

// --- connection bodies: a closed connection's body is recycled, its header
// keeps answering ---

// One closed connection's answers right after its Close(), per queried node
// (both endpoints and one outsider).
struct ClosedAnswers {
  ConnId id = -1;
  SimTime closed_at = 0;
  NodeId node[3] = {-1, -1, -1};
  size_t queued_messages[3] = {};
  int64_t queued_bytes[3] = {};
  double rate_bps[3] = {};
  SimTime idle[3] = {};
};

ClosedAnswers RecordClosed(Network& net, ConnId id, NodeId a, NodeId b, NodeId outsider) {
  ClosedAnswers r;
  r.id = id;
  r.closed_at = net.now();
  r.node[0] = a;
  r.node[1] = b;
  r.node[2] = outsider;
  for (int k = 0; k < 3; ++k) {
    r.queued_messages[k] = net.QueuedMessages(id, r.node[k]);
    r.queued_bytes[k] = net.QueuedBytes(id, r.node[k]);
    r.rate_bps[k] = net.CurrentRateBps(id, r.node[k]);
    r.idle[k] = net.IdleTime(id, r.node[k]);
  }
  return r;
}

TEST(Network, ClosedConnectionsAnswerAfterTheirBodiesAreRecycled) {
  // 10k connections open and close over a 12-node mesh with traffic queued on
  // most of them, so many close while busy. Every closed id must answer the
  // introspection calls after compaction recycled its body exactly as it did
  // right after Close() (IdleTime keeps counting from the same instant), and
  // the bodies held must stay within the peak of open-list entries.
  constexpr NodeId kNodes = 12;
  constexpr size_t kConnections = 10000;
  MeshTopology topo(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    topo.uplink(n) = LinkParams{8e6, 0, 0.0};
    topo.downlink(n) = LinkParams{8e6, 0, 0.0};
    for (NodeId d = 0; d < kNodes; ++d) {
      topo.core(n, d) = LinkParams{8e6, MsToSim(5), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 31);
  Rng script(5);
  struct OpenConn {
    ConnId id;
    NodeId a;
    NodeId b;
  };
  std::vector<OpenConn> open;
  std::vector<ClosedAnswers> closed;
  size_t opened = 0;
  size_t peak_entries = 0;
  size_t closed_busy = 0;
  int next_msg = 0;
  const auto close_one = [&](size_t i) {
    const OpenConn c = open[i];
    open[i] = open.back();
    open.pop_back();
    closed_busy += net.QueuedBytes(c.id, c.a) + net.QueuedBytes(c.id, c.b) > 0 ? 1 : 0;
    net.Close(c.id);
    NodeId outsider = 0;
    while (outsider == c.a || outsider == c.b) {
      ++outsider;
    }
    closed.push_back(RecordClosed(net, c.id, c.a, c.b, outsider));
  };
  std::function<void()> step = [&] {
    const NodeId a = static_cast<NodeId>(script.UniformInt(0, kNodes - 1));
    NodeId b = static_cast<NodeId>(script.UniformInt(0, kNodes - 2));
    b += b >= a ? 1 : 0;
    const ConnId id = net.Connect(a, b);
    ASSERT_GE(id, 0);
    ++opened;
    // The open list only grows at Connect, so this sees its exact peak.
    peak_entries = std::max(peak_entries, net.open_conn_entries());
    open.push_back(OpenConn{id, a, b});
    for (int k = 0; k < 2; ++k) {
      const OpenConn& c = open[static_cast<size_t>(script.UniformInt(
          0, static_cast<int64_t>(open.size()) - 1))];
      const int64_t bytes = script.UniformInt(512, 48 * 1024);
      EXPECT_TRUE(net.Send(c.id, script.Bernoulli(0.5) ? c.a : c.b,
                           std::make_unique<TestMsg>(next_msg++, bytes)));
    }
    while (open.size() > 40 || (open.size() > 8 && script.Bernoulli(0.3))) {
      close_one(static_cast<size_t>(script.UniformInt(0, static_cast<int64_t>(open.size()) - 1)));
    }
    if (opened < kConnections) {
      net.queue().ScheduleAfter(MsToSim(1), step);
    }
  };
  net.queue().Schedule(0, step);
  net.Run(SecToSim(12.0));
  ASSERT_EQ(opened, kConnections);
  while (!open.empty()) {
    close_one(open.size() - 1);
  }
  net.Run(net.now() + MsToSim(20));  // compaction recycles the last bodies
  ASSERT_EQ(net.open_conn_entries(), 0u);
  ASSERT_EQ(closed.size(), kConnections);

  EXPECT_LE(net.conn_bodies_held(), peak_entries);
  EXPECT_LT(net.conn_bodies_held(), kConnections / 20) << "bodies were not recycled";
  EXPECT_GT(closed_busy, kConnections / 10);
  for (const ClosedAnswers& r : closed) {
    EXPECT_FALSE(net.IsOpen(r.id));
    EXPECT_FALSE(net.Send(r.id, r.node[0], std::make_unique<TestMsg>(-1, 100)));
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(net.QueuedMessages(r.id, r.node[k]), r.queued_messages[k]);
      EXPECT_EQ(net.QueuedBytes(r.id, r.node[k]), r.queued_bytes[k]);
      EXPECT_EQ(net.CurrentRateBps(r.id, r.node[k]), r.rate_bps[k]);
      // Idle time runs on from the close instant (0 for the outsider).
      const SimTime expected_idle = k == 2 ? 0 : r.idle[k] + (net.now() - r.closed_at);
      EXPECT_EQ(net.IdleTime(r.id, r.node[k]), expected_idle);
    }
  }
}

// Message arrival time of a 1 MB send on a connection 2 -> 3 opened at
// 1.05 s. With `churn_first`, a fully ramped 0 -> 1 transfer closes at 1.0 s
// beforehand, so the 2 -> 3 connection reuses its recycled body; the two
// pairs share no link, so nothing else may differ.
SimTime RecycledBodyArrival(bool churn_first, size_t* bodies_held) {
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{8e6, 0, 0.0};
    topo.downlink(n) = LinkParams{8e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{8e6, MsToSim(10), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 5);
  Recorder sink(&net);
  net.SetHandler(3, &sink);
  if (churn_first) {
    const ConnId a = net.Connect(0, 1);
    net.Send(a, 0, std::make_unique<TestMsg>(1, 4 * 1024 * 1024));
    net.queue().Schedule(SecToSim(1.0), [&net, a] { net.Close(a); });
  }
  net.queue().Schedule(SecToSim(1.05), [&net] {
    const ConnId b = net.Connect(2, 3);
    net.Send(b, 2, std::make_unique<TestMsg>(2, 1024 * 1024));
  });
  net.Run(SecToSim(10.0));
  *bodies_held = net.conn_bodies_held();
  return sink.events.empty() ? -1 : sink.events.back().at;
}

TEST(Network, RecycledBodyStartsLikeAFreshOne) {
  // A reused body must not carry its last connection's TCP ramp, delivery
  // floor or cap cache into the next one.
  size_t held_fresh = 0;
  size_t held_recycled = 0;
  const SimTime fresh = RecycledBodyArrival(false, &held_fresh);
  const SimTime recycled = RecycledBodyArrival(true, &held_recycled);
  EXPECT_EQ(held_recycled, 1u) << "the 2 -> 3 connection did not reuse the body";
  ASSERT_GT(fresh, SecToSim(1.05));
  EXPECT_EQ(recycled, fresh);
}

// 16 nodes over a 2x2-transit-router transit-stub graph with a 20 ms transit
// tier, so a 2-thread run gets a real 2-partition plan (see
// determinism_test.cc's parallel script for the parameter reasoning).
std::unique_ptr<Topology> TwoPartitionTopology() {
  Rng rng(97);
  RoutedTopology::TransitStubParams params;
  params.num_nodes = 16;
  params.transit_domains = 2;
  params.routers_per_transit = 2;
  params.stub_domains_per_transit_router = 1;
  params.routers_per_stub = 2;
  params.transit_delay_min = MsToSim(20);
  params.transit_delay_max = MsToSim(20);
  return std::make_unique<RoutedTopology>(RoutedTopology::TransitStub(params, rng));
}

// A node that churns its own connections from timers on its partition queue
// (worker context under the parallel engine): it connects, sends on the new
// connection before the barrier registers it, queries its connections, and
// closes the oldest. Everything it observes goes into its timeline.
class ChurnNode : public NetHandler {
 public:
  ChurnNode(Network* net, NodeId self) : net_(net), self_(self), rng_(1000 + self) {}

  void Start() {
    net_->node_queue(self_).Schedule(MsToSim(3 + 7 * self_), [this] { Tick(); });
  }
  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override {
    Record("up", conn, peer, initiator ? 1 : 0);
  }
  void OnConnDown(ConnId conn, NodeId peer) override { Record("down", conn, peer, 0); }
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override {
    Record("msg", conn, from, static_cast<TestMsg&>(*msg).id);
  }

  std::vector<std::string> timeline;
  size_t opened = 0;
  size_t worker_opened = 0;

 private:
  void Tick() {
    if (mine_.size() < 4 || rng_.Bernoulli(0.4)) {
      NodeId peer = static_cast<NodeId>(rng_.UniformInt(0, 14));
      peer += peer >= self_ ? 1 : 0;
      const ConnId conn = net_->Connect(self_, peer);
      if (conn >= 0) {
        ++opened;
        worker_opened += (conn >> 40) != 0 ? 1 : 0;
        mine_.push_back(conn);
        // Queried before the barrier registers the connection: it must answer
        // as an empty direction.
        Record("new", conn, peer, static_cast<int64_t>(net_->QueuedBytes(conn, self_)));
        net_->Send(conn, self_,
                   std::make_unique<TestMsg>(self_ * 100000 + next_msg_++,
                                             rng_.UniformInt(1024, 96 * 1024)));
      }
    }
    for (const ConnId conn : mine_) {
      std::ostringstream os;
      os << net_->now() << " q c" << conn << " " << net_->IsOpen(conn) << " "
         << net_->QueuedMessages(conn, self_) << " " << net_->QueuedBytes(conn, self_) << " "
         << net_->IdleTime(conn, self_) << " " << net_->CurrentRateBps(conn, self_);
      timeline.push_back(os.str());
    }
    if (mine_.size() > 5) {
      net_->Close(mine_.front());
      mine_.erase(mine_.begin());
    }
    net_->node_queue(self_).ScheduleAfter(MsToSim(41), [this] { Tick(); });
  }

  void Record(const char* kind, ConnId conn, NodeId peer, int64_t extra) {
    std::ostringstream os;
    os << net_->now() << " " << kind << " c" << conn << " p" << peer << " x" << extra;
    timeline.push_back(os.str());
  }

  Network* net_;
  NodeId self_;
  Rng rng_;
  std::vector<ConnId> mine_;
  int next_msg_ = 0;
};

struct ChurnRun {
  std::vector<std::string> timeline;
  size_t opened = 0;
  size_t worker_opened = 0;
  size_t peak_entries = 0;
  size_t bodies_held = 0;
  size_t conn_state_bytes = 0;
  int64_t bytes_sent = 0;
  uint64_t events = 0;
};

ChurnRun RunWorkerChurn() {
  NetworkConfig config;
  config.num_threads = 2;
  Network net(TwoPartitionTopology(), config, 4242);
  EXPECT_EQ(net.parallel_partitions(), 2);
  std::vector<std::unique_ptr<ChurnNode>> nodes;
  for (NodeId n = 0; n < 16; ++n) {
    nodes.push_back(std::make_unique<ChurnNode>(&net, n));
    net.SetHandler(n, nodes.back().get());
    nodes.back()->Start();
  }
  ChurnRun run;
  // Global events at each barrier instant run after the merge registered the
  // window's connections and before the tick compacts closed ones: the peak
  // of the open list within each superstep.
  std::function<void()> sample = [&] {
    run.peak_entries = std::max(run.peak_entries, net.open_conn_entries());
    net.queue().ScheduleAfter(MsToSim(10), sample);
  };
  net.queue().Schedule(MsToSim(10), sample);
  net.Run(SecToSim(6.0));
  for (const auto& node : nodes) {
    run.timeline.insert(run.timeline.end(), node->timeline.begin(), node->timeline.end());
    run.opened += node->opened;
    run.worker_opened += node->worker_opened;
  }
  run.bodies_held = net.conn_bodies_held();
  run.conn_state_bytes = net.conn_state_bytes();
  run.bytes_sent = net.total_bytes_sent();
  run.events = net.events_executed();
  return run;
}

TEST(Network, WorkerOpenedConnectionChurnRepeatsBitwiseOnTwoThreads) {
  const ChurnRun a = RunWorkerChurn();
  const ChurnRun b = RunWorkerChurn();
  EXPECT_GT(a.worker_opened, 500u);
  EXPECT_EQ(a.worker_opened, a.opened);
  EXPECT_GT(a.bytes_sent, 0);
  EXPECT_LE(a.bodies_held, a.peak_entries);
  EXPECT_LT(a.bodies_held, a.opened / 4) << "bodies were not recycled";
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.opened, b.opened);
  EXPECT_EQ(a.peak_entries, b.peak_entries);
  EXPECT_EQ(a.bodies_held, b.bodies_held);
  EXPECT_EQ(a.conn_state_bytes, b.conn_state_bytes);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.events, b.events);
}

TEST(Dynamics, PeriodicHalvingIsCumulative) {
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{6e6, 0, 0.0};
    topo.downlink(n) = LinkParams{6e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{2e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 5);
  BandwidthDynamicsParams params;
  params.period = SecToSim(1.0);
  params.node_fraction = 1.0;
  params.sender_fraction = 1.0;
  StartPeriodicBandwidthChanges(net, params);
  net.Run(SecToSim(3.5));  // 3 firings
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s != d) {
        EXPECT_NEAR(net.topology().AsMesh()->core(s, d).bandwidth_bps, 2e6 / 8.0, 1.0);
      }
    }
  }
}

TEST(Dynamics, CascadeIsSequential) {
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{6e6, 0, 0.0};
    topo.downlink(n) = LinkParams{6e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{5e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 5);
  StartCascade(net, /*target=*/3, {0, 1, 2}, SecToSim(1.0), 100e3);
  net.Run(SecToSim(1.5));
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(0, 3).bandwidth_bps, 100e3);
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(1, 3).bandwidth_bps, 5e6);
  net.Run(SecToSim(3.5));
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(1, 3).bandwidth_bps, 100e3);
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(2, 3).bandwidth_bps, 100e3);
  // Reverse directions untouched.
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(3, 0).bandwidth_bps, 5e6);
}

}  // namespace
}  // namespace bullet
