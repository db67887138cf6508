// Self-timed microbench for the max-min water-fill (src/sim/bandwidth_allocator.h).
//
// Builds two synthetic epoch shapes and times IncrementalMaxMin epochs over
// them, next to the stateless reference over the same flows:
//
//   mesh          100 nodes, ~360 flows of 3 links (sender uplink, receiver
//                 downlink, a private core link per flow) — the dynamic_mesh
//                 shape, where most core links carry a single flow;
//   transit-stub  ~320 flows of 6 links (two access links, four interior
//                 links drawn from stub and transit tiers) over ~2300 links.
//
// Each epoch first applies the kind of change the network feeds the table
// between allocations — one flow drains and another starts, ramping flows
// move their caps, one link capacity changes — then allocates. Reported per
// epoch: wall ns for the table epoch (changes + Allocate), wall ns for the
// reference on the same flow set, and the heap sifts/removals the table's
// water-fill performed (a deterministic work count).
//
//   water_fill_micro [--epochs N] [--seed S]
//
// Default 20000 epochs per shape; CI runs a tiny count as a smoke test.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/bandwidth_allocator.h"

namespace bullet {
namespace {

constexpr double kUnlimited = 1e12;

// One synthetic shape: links by order, and a pool of candidate flow paths
// (link orders) to draw the live flows from.
struct Shape {
  const char* name;
  std::vector<double> capacity;
  std::vector<std::vector<int32_t>> paths;
  size_t live_flows;
};

Shape MeshShape(Rng& rng) {
  constexpr int kNodes = 100;
  Shape s{"mesh", {}, {}, 360};
  for (int i = 0; i < 2 * kNodes; ++i) {
    s.capacity.push_back(rng.UniformDouble(1e6, 10e6));
  }
  // Core links are private per ordered pair; a pool about the size of the
  // live flow set, so a few pairs carry parallel flows as in the network.
  for (int k = 0; k < 400; ++k) {
    const int32_t src = static_cast<int32_t>(rng.UniformInt(0, kNodes - 1));
    int32_t dst = static_cast<int32_t>(rng.UniformInt(0, kNodes - 2));
    dst += dst >= src ? 1 : 0;
    const int32_t core = static_cast<int32_t>(s.capacity.size());
    s.capacity.push_back(rng.UniformDouble(0.5e6, 20e6));
    s.paths.push_back({src, kNodes + dst, core});
  }
  return s;
}

Shape TransitStubShape(Rng& rng) {
  constexpr int kNodes = 300;
  constexpr int kStubLinks = 1600;
  constexpr int kTransitLinks = 100;
  Shape s{"transit-stub", {}, {}, 320};
  for (int i = 0; i < 2 * kNodes; ++i) {
    s.capacity.push_back(rng.UniformDouble(1e6, 10e6));
  }
  const int32_t stub0 = static_cast<int32_t>(s.capacity.size());
  for (int k = 0; k < kStubLinks; ++k) {
    s.capacity.push_back(rng.UniformDouble(20e6, 100e6));
  }
  const int32_t transit0 = static_cast<int32_t>(s.capacity.size());
  for (int k = 0; k < kTransitLinks; ++k) {
    s.capacity.push_back(rng.UniformDouble(50e6, 200e6));
  }
  for (int k = 0; k < 2000; ++k) {
    const int32_t src = static_cast<int32_t>(rng.UniformInt(0, kNodes - 1));
    int32_t dst = static_cast<int32_t>(rng.UniformInt(0, kNodes - 2));
    dst += dst >= src ? 1 : 0;
    // Stub legs follow the endpoints (nodes share gateways); the transit hops
    // are drawn from a small tier, so they carry many flows.
    s.paths.push_back({src, kNodes + dst, stub0 + (src * 5) % kStubLinks,
                       transit0 + static_cast<int32_t>(rng.UniformInt(0, kTransitLinks - 1)),
                       transit0 + static_cast<int32_t>(rng.UniformInt(0, kTransitLinks - 1)),
                       stub0 + (dst * 7 + 3) % kStubLinks});
  }
  return s;
}

double DrawCap(Rng& rng) {
  return rng.Bernoulli(0.6) ? kUnlimited : rng.UniformDouble(0.5e6, 8e6);
}

struct LiveFlow {
  size_t path;
  double cap;
  bool ramping;
  int32_t slot;
};

double NsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
}

void RunShape(const Shape& shape, int epochs, uint64_t seed) {
  Rng rng(seed);
  IncrementalMaxMin table;
  // Slots equal orders here: links are registered once, in order.
  for (size_t l = 0; l < shape.capacity.size(); ++l) {
    table.AddLink(static_cast<int64_t>(l), shape.capacity[l]);
  }
  std::vector<double> capacity = shape.capacity;
  std::vector<LiveFlow> live;
  auto start_flow = [&] {
    LiveFlow f;
    f.path = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(shape.paths.size()) - 1));
    f.cap = DrawCap(rng);
    f.ramping = rng.Bernoulli(0.1);
    const std::vector<int32_t>& p = shape.paths[f.path];
    f.slot = table.AddFlow(p.data(), p.size(), f.cap);
    live.push_back(f);
  };
  for (size_t k = 0; k < shape.live_flows; ++k) {
    start_flow();
  }
  std::vector<PathFlowSpec> ref;

  double table_ns = 0.0;
  double ref_ns = 0.0;
  uint64_t heap_updates = 0;
  double checksum = 0.0;
  for (int e = 0; e < epochs; ++e) {
    const auto t0 = std::chrono::steady_clock::now();
    const size_t drained =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    table.RemoveFlow(live[drained].slot);
    live[drained] = live.back();
    live.pop_back();
    start_flow();
    for (LiveFlow& f : live) {
      if (f.ramping) {
        f.cap = f.cap > 8e6 ? 0.5e6 : f.cap * 1.05;  // slow start, then a fresh ramp
        table.SetFlowCap(f.slot, f.cap);
      }
    }
    const size_t l =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(capacity.size()) - 1));
    capacity[l] *= rng.Bernoulli(0.5) ? 0.5 : 2.0;
    table.SetCapacity(static_cast<int32_t>(l), capacity[l]);
    table.Allocate();
    table_ns += NsSince(t0);
    heap_updates += table.heap_updates();

    ref.resize(live.size());
    for (size_t k = 0; k < live.size(); ++k) {
      ref[k].links = shape.paths[live[k].path];
      ref[k].cap_bps = live[k].cap;
    }
    const auto t1 = std::chrono::steady_clock::now();
    AllocateMaxMinPaths(ref, capacity);
    ref_ns += NsSince(t1);
    for (size_t k = 0; k < live.size(); ++k) {
      // Both sides compute the same canonical-order result.
      if (ref[k].rate_bps != table.rate(live[k].slot)) {
        std::fprintf(stderr, "%s: epoch %d flow %zu: table %.17g != reference %.17g\n", shape.name,
                     e, k, table.rate(live[k].slot), ref[k].rate_bps);
        std::exit(1);
      }
      checksum += ref[k].rate_bps;
    }
  }
  std::printf(
      "%-13s flows=%zu links=%zu epochs=%d  table_ns/epoch=%.0f  reference_ns/epoch=%.0f  "
      "heap_updates/epoch=%.1f  (rate sum %.6g)\n",
      shape.name, live.size(), shape.capacity.size(), epochs, table_ns / epochs, ref_ns / epochs,
      static_cast<double>(heap_updates) / epochs, checksum);
}

}  // namespace
}  // namespace bullet

int main(int argc, char** argv) {
  int epochs = 20000;
  uint64_t seed = 17;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      epochs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: water_fill_micro [--epochs N] [--seed S]\n");
      return 2;
    }
  }
  if (epochs < 1) {
    std::fprintf(stderr, "--epochs must be >= 1\n");
    return 2;
  }
  bullet::Rng rng(seed);
  bullet::RunShape(bullet::MeshShape(rng), epochs, seed + 1);
  bullet::RunShape(bullet::TransitStubShape(rng), epochs, seed + 2);
  return 0;
}
