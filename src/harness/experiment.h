// Single-session experiment harness — the legacy entry point, kept as a thin
// wrapper over the session/workload API (workload.h): one session spanning
// every node, all joining at t=0, driven by a caller-supplied protocol factory.
// Runs through WorkloadExperiment's time-zero join path, which executes the
// historical create-all-then-start-all loop before the event loop begins, so
// all pre-existing runs are byte-identical to the pre-workload harness.
//
// New code that needs staggered joins, member subsets, concurrent sessions or
// registry-named protocols should use WorkloadExperiment directly.

#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/harness/workload.h"
#include "src/overlay/control_tree.h"
#include "src/overlay/dissemination.h"
#include "src/overlay/protocol.h"
#include "src/sim/metrics.h"
#include "src/sim/network.h"

namespace bullet {

struct ExperimentParams {
  uint64_t seed = 1;
  FileParams file;
  NodeId source = 0;
  // Control-tree fanout. The source pushes fresh blocks only to its tree children,
  // so its fanout determines how many (randomly drawn, possibly lossy) core paths
  // carry fresh data into the overlay; 8 keeps injection robust to bad draws.
  int tree_fanout = 8;
  SimTime quantum = MsToSim(10);
  SimTime deadline = SecToSim(3600.0);
  bool record_arrivals = false;
};

class Experiment {
 public:
  using ProtocolFactory =
      std::function<std::unique_ptr<Protocol>(const Protocol::Context&, const ControlTree*)>;

  Experiment(std::unique_ptr<Topology> topology, const ExperimentParams& params);
  // Convenience: wrap a concrete topology value (MeshTopology, RoutedTopology).
  template <typename TopologyType,
            typename = std::enable_if_t<std::is_base_of_v<Topology, std::decay_t<TopologyType>>>>
  Experiment(TopologyType topology, const ExperimentParams& params)
      : Experiment(std::make_unique<std::decay_t<TopologyType>>(std::move(topology)), params) {}

  Network& net() { return workload_->net(); }
  const ControlTree& tree() const { return workload_->session_tree(0); }
  RunMetrics& metrics() { return workload_->session_metrics(0); }
  const ExperimentParams& params() const { return params_; }
  WorkloadExperiment& workload() { return *workload_; }

  // Instantiates one protocol per node via `factory`, starts them all, runs until
  // every receiver completes or the deadline passes, and returns the metrics.
  RunMetrics Run(const ProtocolFactory& factory);

  // Access to a protocol instance after/during a run (for tests).
  Protocol* protocol(NodeId n) { return workload_->session_protocol(0, n); }

 private:
  ExperimentParams params_;
  std::unique_ptr<WorkloadExperiment> workload_;
};

}  // namespace bullet

#endif  // SRC_HARNESS_EXPERIMENT_H_
