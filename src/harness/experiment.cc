#include "src/harness/experiment.h"

namespace bullet {

Experiment::Experiment(std::unique_ptr<Topology> topology, const ExperimentParams& params)
    : params_(params) {
  WorkloadParams wl_params;
  wl_params.seed = params.seed;
  wl_params.quantum = params.quantum;
  wl_params.deadline = params.deadline;
  wl_params.record_arrivals = params.record_arrivals;
  workload_ = std::make_unique<WorkloadExperiment>(std::move(topology), wl_params);

  SessionSpec session;
  session.file = params.file;
  session.source = params.source;
  session.seed = params.seed;
  session.tree_fanout = params.tree_fanout;
  // Factory installed in Run(); the session (tree, metrics) exists from
  // construction so tests can inspect them before the run.
  workload_->AddSession(session, nullptr);
}

RunMetrics Experiment::Run(const ProtocolFactory& factory) {
  const ControlTree* tree = &workload_->session_tree(0);
  workload_->SetSessionFactory(
      0, [&factory, tree](const Protocol::Context& ctx) { return factory(ctx, tree); });
  workload_->Run();
  return workload_->session_metrics(0);
}

}  // namespace bullet
