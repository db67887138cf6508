// One benchmark iteration: builds a workload's inputs from its seed, times the
// public calls into each layer from outside, and prints one JSON line.
//
//   perfbench_driver --workload NAME --seeds N[,N...] [--scale full|smoke]
//
// Each seed is one instance of the workload; instances run in sequence in
// this process. Per instance and system the driver times
//   * BuildScenarioTopology                          (topology_build_s),
//   * WorkloadExperiment construction + AddSession   (experiment_setup_s),
//   * WorkloadExperiment::Run                        (run_s, plus the process
//     user/sys CPU spent inside it),
// and reads the public RunCounters and WorkloadResult counters. Set-up runs
// kSetupRepeats times and the median is reported (one set-up takes well under
// a millisecond on the mesh); the last set-up is the one that runs.
// In a -DBULLET_PROFILE=ON build a PhaseProfiler is installed around Run()
// and its per-phase totals are printed as well.
//
// The driver sets workload properties only (topology shape, members, file and
// block size, arrivals, dynamics, protocol, seed, deadline, engine threads);
// every engine mode stays at the library default. Output checks and failure
// counting are done by run.py from the printed numbers; `digest` hashes the
// simulated outputs so runs of one workload and seed can be compared.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/profiler.h"
#include "src/harness/scenarios.h"
#include "src/harness/workload.h"
#include "src/harness/workload_gen.h"
#include "src/sim/dynamics.h"

namespace bullet {
namespace {

struct Workload {
  ScenarioConfig cfg;
  std::vector<std::string> systems;
  double late_fraction = 0.0;  // flash-crowd share of late joiners; 0 = all at t=0
  double late_join_sec = 0.0;
};

// The fig24 transit-stub shape: ~8 overlay nodes per stub domain, so the
// router graph grows with the member count.
RoutedTopology::TransitStubParams ScaledShape(int nodes) {
  RoutedTopology::TransitStubParams p;
  p.num_nodes = nodes;
  p.transit_domains = 2;
  p.routers_per_transit = 2;
  p.routers_per_stub = 4;
  p.stub_domains_per_transit_router = std::max(2, nodes / (p.transit_domains * 2 * 8));
  p.transit_stub_bps = 30e6;
  return p;
}

// Builds the named workload for `seed`. `smoke` shrinks it to run in seconds
// (the benchmark's own tests); returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, bool smoke, Workload* w) {
  ScenarioConfig& cfg = w->cfg;
  cfg.seed = seed;
  if (name == "swarm_flash") {
    // Bullet' flash crowd: a quarter of the members seed the swarm at t=0,
    // the rest join mid-transfer of a three-block file.
    cfg.topo = ScenarioConfig::Topo::kTransitStub;
    cfg.num_nodes = smoke ? 300 : 3000;
    cfg.file_mb = 0.2;
    cfg.block_bytes = 64 * 1024;
    cfg.deadline = SecToSim(7200.0);
    cfg.transit_stub = ScaledShape(cfg.num_nodes);
    w->systems = {"bullet-prime"};
    w->late_fraction = 0.75;
    w->late_join_sec = 0.5 * TcpFeasibleSeconds(cfg.file_mb, 6e6, /*startup_sec=*/12.0);
    return true;
  }
  if (name == "dynamic_mesh") {
    // The paper's Fig. 5: dense mesh, periodic correlated bandwidth halving,
    // all four systems in sequence.
    cfg.topo = ScenarioConfig::Topo::kMesh;
    cfg.num_nodes = smoke ? 20 : 100;
    cfg.file_mb = smoke ? 1.0 : 20.0;
    cfg.dynamic_bw = true;
    cfg.deadline = SecToSim(7200.0);
    w->systems = {"bullet-prime", "bullet", "bittorrent", "splitstream"};
    return true;
  }
  if (name == "widearea_parallel") {
    // The perf_core_parallel shape on the partitioned engine. Two threads, not
    // four: with every vCPU spinning at the barrier, any other load on the
    // host stalls whole supersteps and the run time spread triples.
    cfg.topo = ScenarioConfig::Topo::kTransitStub;
    cfg.num_nodes = smoke ? 200 : 1000;
    cfg.file_mb = smoke ? 1.0 : 4.0;
    cfg.block_bytes = 25 * 1024;
    cfg.deadline = SecToSim(3600.0);
    cfg.num_threads = 2;
    cfg.transit_stub = ScaledShape(cfg.num_nodes);
    // Inter-domain delay of at least one quantum keeps the engine's lookahead
    // at a full synchronization window.
    cfg.transit_stub.transit_delay_min = std::max(cfg.transit_stub.transit_delay_min, cfg.quantum);
    w->systems = {"bullet-prime"};
    return true;
  }
  return false;
}

constexpr int kSetupRepeats = 5;

double Seconds(std::chrono::steady_clock::time_point a, std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

// FNV-1a over the raw bytes of the simulated outputs.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  void AddVector(const std::vector<double>& v) {
    Add(v.size());
    for (const double x : v) {
      Add(x);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Prepared {
  std::unique_ptr<WorkloadExperiment> exp;
  int64_t file_bytes = 0;
  double topology_s = 0.0;    // BuildScenarioTopology
  double experiment_s = 0.0;  // experiment construction + dynamics + AddSession
};

// Inputs to ready-to-run for one system: topology, experiment, dynamics,
// session.
Prepared Prepare(const Workload& w, const std::string& system) {
  const ScenarioConfig& cfg = w.cfg;
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<Topology> topology = BuildScenarioTopology(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  WorkloadParams params;
  params.seed = cfg.seed;
  params.deadline = cfg.deadline;
  params.num_threads = cfg.num_threads;
  Prepared p;
  p.exp = std::make_unique<WorkloadExperiment>(std::move(topology), params);
  if (cfg.dynamic_bw) {
    StartPeriodicBandwidthChanges(p.exp->net(), BandwidthDynamicsParams{});
  }
  SessionSpec session;
  session.protocol = system;
  session.source = 0;
  session.seed = cfg.seed;
  session.file.block_bytes = cfg.block_bytes;
  session.file.num_blocks = static_cast<uint32_t>(cfg.file_mb * 1024.0 * 1024.0 /
                                                  static_cast<double>(cfg.block_bytes));
  if (w.late_fraction > 0.0) {
    session.arrivals =
        std::make_shared<FlashCrowdArrivals>(w.late_fraction, SecToSim(w.late_join_sec));
  }
  p.file_bytes = session.file.file_bytes();
  p.exp->AddSession(session);
  p.topology_s = Seconds(t0, t1);
  p.experiment_s = Seconds(t1, std::chrono::steady_clock::now());
  return p;
}

// Sets up `system` on workload `w` kSetupRepeats times, runs it once, and
// returns its JSON record. Folds the simulated outputs into `digest` and the
// process CPU spent inside Run() into the out-parameters.
std::string RunSystem(const Workload& w, const std::string& system, Digest* digest,
                      double* cpu_user_s, double* cpu_sys_s) {
  std::vector<double> topology_runs;
  std::vector<double> experiment_runs;
  Prepared p;
  for (int r = 0; r < kSetupRepeats; ++r) {
    p = Prepared{};  // release the previous set-up before timing the next
    p = Prepare(w, system);
    topology_runs.push_back(p.topology_s);
    experiment_runs.push_back(p.experiment_s);
  }

  RunCounters counters;
  PhaseProfiler profiler;
  rusage ru0{};
  rusage ru1{};
  WorkloadResult result;
  getrusage(RUSAGE_SELF, &ru0);
  const auto t0 = std::chrono::steady_clock::now();
  {
    ScopedRunCounters install_counters(&counters);
    ScopedProfilerInstall install_profiler(&profiler);
    result = p.exp->Run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  getrusage(RUSAGE_SELF, &ru1);
  const double user_s = TimevalSeconds(ru1.ru_utime) - TimevalSeconds(ru0.ru_utime);
  const double sys_s = TimevalSeconds(ru1.ru_stime) - TimevalSeconds(ru0.ru_stime);
  *cpu_user_s += user_s;
  *cpu_sys_s += sys_s;
  p.exp.reset();  // joins the parallel engine's workers

  BULLET_CHECK(result.sessions.size() == 1 && "the benchmark adds exactly one session");
  const SessionResult& s = result.sessions.front();
  digest->AddVector(s.completion_sec);
  digest->AddVector(s.download_sec);
  for (const int v : {s.completed, s.receivers, s.departed, s.departed_incomplete}) {
    digest->Add(v);
  }
  for (const uint64_t v : {counters.events_executed, counters.allocator_epochs,
                           counters.sim_bytes_sent, result.events_executed,
                           result.allocator_epochs, result.sim_bytes_sent,
                           result.route_cache_bytes, result.path_pool_bytes,
                           result.arena_peak_bytes}) {
    digest->Add(v);
  }
  // Receivers still downloading at the deadline (departed members are not in
  // completion_sec; the harness reports the deadline for the unfinished).
  int incomplete = 0;
  const double deadline_sec = SimToSec(w.cfg.deadline);
  for (const double c : s.completion_sec) {
    incomplete += c >= deadline_sec ? 1 : 0;
  }

  std::string profile_json;
  if (PhaseProfiler::kCompiledIn) {
    for (int ph = 0; ph < kProfilePhaseCount; ++ph) {
      const PhaseProfiler::PhaseTotals t = profiler.totals(static_cast<ProfilePhase>(ph));
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"count\":%" PRIu64 ",\"ns\":%" PRIu64 "}",
                    ph == 0 ? "" : ",", ProfilePhaseName(static_cast<ProfilePhase>(ph)),
                    t.count, t.ns);
      profile_json += buf;
    }
  }
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"system\":\"%s\",\"seed\":%" PRIu64 ",\"members\":%d,\"threads\":%d,"
      "\"run_s\":%.9g,\"topology_build_s\":%.9g,\"experiment_setup_s\":%.9g,"
      "\"cpu_user_s\":%.9g,\"cpu_sys_s\":%.9g,\"receivers\":%d,\"completed\":%d,"
      "\"incomplete\":%d,\"departed\":%d,\"departed_incomplete\":%d,"
      "\"file_bytes\":%" PRId64 ",\"events\":%" PRIu64 ",\"allocator_epochs\":%" PRIu64
      ",\"bytes_sent\":%" PRIu64 ",\"route_cache_bytes\":%" PRIu64
      ",\"path_pool_bytes\":%" PRIu64 ",\"arena_peak_bytes\":%" PRIu64 ",\"profile\":{%s}}",
      system.c_str(), w.cfg.seed, w.cfg.num_nodes, w.cfg.num_threads, Seconds(t0, t1),
      Median(topology_runs), Median(experiment_runs), user_s, sys_s, s.receivers, s.completed,
      incomplete, s.departed, s.departed_incomplete, p.file_bytes, counters.events_executed,
      counters.allocator_epochs, counters.sim_bytes_sent, result.route_cache_bytes,
      result.path_pool_bytes, result.arena_peak_bytes, profile_json.c_str());
  return buf;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME --seeds N[,N...] "
               "[--scale full|smoke]\n",
               msg);
  return 2;
}

bool ParseSeeds(const std::string& list, std::vector<uint64_t>* seeds) {
  size_t pos = 0;
  while (pos <= list.size()) {
    const size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (item.empty() || item[0] == '-' || errno != 0 || *end != '\0') {
      return false;
    }
    seeds->push_back(v);
    pos = comma + 1;
  }
  return !seeds->empty();
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::vector<uint64_t> seeds;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing flag value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seeds") {
      if (!ParseSeeds(value, &seeds)) {
        return Usage("bad --seeds");
      }
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") {
        return Usage("bad --scale");
      }
      smoke = value == "smoke";
    } else {
      return Usage("unknown flag");
    }
  }
  if (seeds.empty()) {
    return Usage("need --seeds");
  }
  // Each system of an instance draws its own inputs: system j of the instance
  // with seed s runs on seed s + j * kSystemSeedStride, so a multi-system
  // workload's total averages independent topologies instead of repeating one.
  constexpr uint64_t kSystemSeedStride = 1000;
  std::vector<Workload> instances(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (!MakeWorkload(workload_name, seeds[i], smoke, &instances[i])) {
      return Usage("unknown --workload");
    }
  }
  EnsureBuiltinProtocolsRegistered();

  Digest digest;
  double cpu_user_s = 0.0;
  double cpu_sys_s = 0.0;
  std::string systems_json;
  for (const Workload& instance : instances) {
    for (size_t j = 0; j < instance.systems.size(); ++j) {
      Workload w = instance;
      w.cfg.seed += j * kSystemSeedStride;
      systems_json += systems_json.empty() ? "" : ",";
      systems_json += RunSystem(w, instance.systems[j], &digest, &cpu_user_s, &cpu_sys_s);
    }
  }

  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  std::printf(
      "{\"workload\":\"%s\",\"profiled\":%s,\"peak_rss_kb\":%ld,\"cpu_user_s\":%.9g,"
      "\"cpu_sys_s\":%.9g,\"digest\":\"%016" PRIx64 "\",\"systems\":[%s]}\n",
      workload_name.c_str(), PhaseProfiler::kCompiledIn ? "true" : "false", self.ru_maxrss,
      cpu_user_s, cpu_sys_s, digest.value(), systems_json.c_str());
  return 0;
}

}  // namespace
}  // namespace bullet

int main(int argc, char** argv) { return bullet::Main(argc, argv); }
