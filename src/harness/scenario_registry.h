// Registry of named, parameterized scenarios. Every paper figure, churn sweep and
// ablation registers itself here (see bench/*.cc); the bullet_run CLI lists and runs
// them by name and serializes the resulting report to a BENCH_*.json metrics file.

#ifndef SRC_HARNESS_SCENARIO_REGISTRY_H_
#define SRC_HARNESS_SCENARIO_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/cdf.h"
#include "src/common/options.h"
#include "src/harness/scenarios.h"

namespace bullet {

// Caller-supplied overrides; anything unset keeps the scenario's registered default.
struct ScenarioOptions {
  std::optional<int> nodes;
  std::optional<double> file_mb;
  std::optional<uint64_t> seed;
  std::optional<int64_t> block_bytes;
  std::optional<double> deadline_sec;
  // Per-link loss rates become uniform in [0, loss] (the Section 4.1 process with
  // a caller-chosen ceiling); 0 disables loss entirely.
  std::optional<double> loss;
  // Topology selector ("mesh" or "transit-stub", see ParseTopologyName).
  // Fixed-topology scenarios (fig12, fig15, fig16, fig17) ignore it like any
  // other override that does not apply.
  std::optional<std::string> topology;
  // Protocol selector — a ProtocolRegistry key ("bullet-prime", "bullet",
  // "bittorrent", "splitstream"). The CLI validates it against the registry;
  // scenarios with a fixed system roster (the multi-system comparison
  // figures) ignore it like any other override that does not apply.
  std::optional<std::string> system;
  // Fraction of receivers that join late in staggered-join scenarios
  // (fig18_flash_crowd); ignored by everyone-at-t0 scenarios.
  std::optional<double> join_fraction;
  // Pareto tail index for lifetime-churn scenarios (fig21_churn_lifetimes);
  // ignored by scenarios without lifetime generators.
  std::optional<double> lifetime_pareto_alpha;
  // Churn model selector ("none", "leaf", "stub", "gateway") for scenarios
  // that honor it (fig22_correlated_failures); others ignore it.
  std::optional<std::string> churn_model;
  // Streaming (playback-deadline) overrides for scenarios that honor them
  // (fig23_streaming_deadlines); bulk scenarios ignore them.
  std::optional<double> stream_bitrate_mbps;
  std::optional<int> stream_window_blocks;
  // Engine worker threads (--threads). Values > 1 select the partitioned
  // parallel engine and are only valid with a transit-stub topology; the
  // runner validates the combination up front (exit-2 usage error).
  std::optional<int> threads;
};

class JsonWriter;

// One typed descriptor per generic scenario option. The bullet_run flag
// parser, sweep-axis validation, sweep-file `set` lines, the CLI-over-file
// merge in sweep mode and the requested_options echo all walk this table, so a
// row is the one place an option is declared. Only the option -> ScenarioConfig
// mapping (ApplyScenarioOptions) is written per field.
struct ScenarioOptionDef {
  // The field's type is the option's value kind: int, int64, uint64, double
  // or string.
  using Field = std::variant<std::optional<int> ScenarioOptions::*,
                             std::optional<int64_t> ScenarioOptions::*,
                             std::optional<uint64_t> ScenarioOptions::*,
                             std::optional<double> ScenarioOptions::*,
                             std::optional<std::string> ScenarioOptions::*>;
  // Accepted numeric values: lo <= v <= hi, or lo < v <= hi when lo_open.
  struct Range {
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
  };

  // Sweep/set key, e.g. "file-mb". The flag is "--file-mb" and the
  // requested_options key is "file_mb".
  const char* key;
  Field field;
  Range range = {};
  // String rows: true when `text` is accepted. Always writes what the row
  // accepts ("'mesh' or 'transit-stub'") to *accepts, for error messages.
  bool (*validate)(const std::string& text, std::string* accepts) = nullptr;
  bool sweepable = false;
  bool echoed = true;

  std::string flag() const { return std::string("--") + key; }
  bool is_string() const { return field.index() == 4; }
  bool is_integer() const { return field.index() <= 2; }
};

// The table, in requested_options emission order.
const std::vector<ScenarioOptionDef>& ScenarioOptionTable();
// nullptr when no row has that key.
const ScenarioOptionDef* FindScenarioOptionByKey(const std::string& key);
// Comma-joined keys of the sweepable rows, in table order.
std::string SweepableOptionKeys();
// What a row accepts, e.g. "an integer in [2, 1000000]" or "a positive number".
std::string ScenarioOptionAccepts(const ScenarioOptionDef& def);

// Parses flag text into the row's field with its kind's strict parser (no
// fractional integers; see flag_parse.h) and its range or validator. False,
// leaving *opts unchanged, when the text is rejected.
bool ParseScenarioOption(const ScenarioOptionDef& def, const std::string& text,
                         ScenarioOptions* opts);
// Sweep axes parse every numeric value as a double; a numeric row accepts it
// when it is in range and, for integer kinds, integral.
bool ScenarioOptionAcceptsNumber(const ScenarioOptionDef& def, double value);
// Stores an accepted sweep value into the row's field (no-op on string rows).
void SetScenarioOptionNumber(const ScenarioOptionDef& def, double value, ScenarioOptions* opts);
// Copies every field set in `from` onto `to`.
void MergeScenarioOptions(const ScenarioOptions& from, ScenarioOptions* to);
// Emits every set, echoed field in table order (the requested_options body).
void EchoScenarioOptions(const ScenarioOptions& opts, JsonWriter* json);

// Applies the generic overrides onto a scenario's default config; unset
// options keep the scenario's values.
void ApplyScenarioOptions(const ScenarioOptions& opts, ScenarioConfig* cfg);

// Paper file size scaled by REPRO_SCALE (ci: 20%, full: 100%).
inline double ScaledFileMb(double paper_mb) { return paper_mb * GetReproScale().file_scale; }

// One named series of samples plus its side metrics (duplicate %, control %, ...).
struct SeriesReport {
  std::string name;
  std::vector<double> samples;
  std::vector<std::pair<std::string, double>> metrics;
};

// Everything a scenario run produced; the runner turns this into JSON and tables.
class ScenarioReport {
 public:
  explicit ScenarioReport(std::string scenario) : scenario_(std::move(scenario)) {}

  // Adds a completion-time series with the standard per-system metrics attached.
  void AddCompletion(const ScenarioResult& result);
  void AddCompletion(const std::string& name, const ScenarioResult& result);
  // Adds a bare sample series (e.g. inter-arrival gaps, survivor times). The
  // returned reference stays valid across later Add* calls (deque storage).
  SeriesReport& AddSeries(const std::string& name, std::vector<double> samples);
  // Adds a top-level scalar (e.g. an analytic reference line).
  void AddScalar(const std::string& key, double value);

  const std::string& scenario() const { return scenario_; }
  const std::deque<SeriesReport>& series() const { return series_; }
  const std::vector<std::pair<std::string, double>>& scalars() const { return scalars_; }

  // The series as CdfSeries rows for the human-readable summary table / CDF dump.
  std::vector<CdfSeries> AsCdfSeries() const;

 private:
  std::string scenario_;
  std::deque<SeriesReport> series_;
  std::vector<std::pair<std::string, double>> scalars_;
};

// Registered scenario functions must be self-contained: everything a run touches
// (RNG, topology, network, metrics) is owned by the run and seeded from its
// options. The sweep engine relies on this to execute many runs concurrently —
// the registry itself is only mutated by static initializers before main() and is
// read-only afterwards, so concurrent Find/List need no locking.
class ScenarioRegistry {
 public:
  using RunFn = std::function<ScenarioReport(const ScenarioOptions&)>;

  struct Entry {
    std::string name;
    std::string description;
    RunFn fn;
  };

  // The process-wide registry that BULLET_SCENARIO registers into.
  static ScenarioRegistry& Global();

  // Returns false (and leaves the registry unchanged) on a duplicate name.
  bool Register(const std::string& name, const std::string& description, RunFn fn);

  // nullptr when no scenario has that name.
  const Entry* Find(const std::string& name) const;
  // Sorted by name.
  std::vector<const Entry*> List() const;
  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, Entry> entries_;
};

// Side registry of scenarios whose *default* topology is the routed
// transit-stub graph (tagged with BULLET_SCENARIO_TRANSIT_STUB_DEFAULT next to
// their BULLET_SCENARIO body). The runner's --threads validation consults it:
// threads > 1 needs a transit-stub topology, and without a --topology override
// only the scenario itself knows its default. Like the scenario registry,
// mutated only by static initializers and read-only after main() starts.
bool ScenarioDefaultsToTransitStub(const std::string& name);

namespace harness_internal {

struct ScenarioRegistrar {
  ScenarioRegistrar(const char* name, const char* description, ScenarioRegistry::RunFn fn);
};

struct TransitStubDefaultRegistrar {
  explicit TransitStubDefaultRegistrar(const char* name);
};

}  // namespace harness_internal

}  // namespace bullet

// Defines and registers a scenario:
//
//   BULLET_SCENARIO(fig04_overall_static, "Fig. 4 — ...") {
//     ScenarioReport report(kScenarioName);
//     ...
//     return report;
//   }
//
// The body receives `const ScenarioOptions& opts` and `kScenarioName`.
#define BULLET_SCENARIO(scenario_name, description)                                         \
  static ::bullet::ScenarioReport BulletScenarioRun_##scenario_name(                        \
      const ::bullet::ScenarioOptions& opts, const char* kScenarioName);                    \
  static const ::bullet::harness_internal::ScenarioRegistrar                                \
      bullet_scenario_registrar_##scenario_name(                                            \
          #scenario_name, description, [](const ::bullet::ScenarioOptions& opts) {          \
            return BulletScenarioRun_##scenario_name(opts, #scenario_name);                 \
          });                                                                               \
  static ::bullet::ScenarioReport BulletScenarioRun_##scenario_name(                        \
      [[maybe_unused]] const ::bullet::ScenarioOptions& opts,                               \
      [[maybe_unused]] const char* kScenarioName)

// Tags a scenario (registered separately via BULLET_SCENARIO) as defaulting
// to the transit-stub topology, enabling --threads > 1 without an explicit
// --topology transit-stub override.
#define BULLET_SCENARIO_TRANSIT_STUB_DEFAULT(scenario_name)          \
  static const ::bullet::harness_internal::TransitStubDefaultRegistrar \
      bullet_scenario_ts_default_##scenario_name(#scenario_name)

#endif  // SRC_HARNESS_SCENARIO_REGISTRY_H_
