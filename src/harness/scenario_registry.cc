#include "src/harness/scenario_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <type_traits>
#include <utility>

#include "src/harness/flag_parse.h"
#include "src/harness/json_writer.h"
#include "src/harness/workload.h"
#include "src/overlay/protocol_registry.h"

namespace bullet {
namespace {

constexpr ScenarioOptionDef::Range kPositive{0.0, std::numeric_limits<double>::infinity(),
                                             /*lo_open=*/true};
constexpr ScenarioOptionDef::Range kUnitInterval{0.0, 1.0};

bool IsTopology(const std::string& text, std::string* accepts) {
  *accepts = "'mesh' or 'transit-stub'";
  ScenarioConfig::Topo topo;
  return ParseTopologyName(text, &topo);
}

bool IsProtocolKey(const std::string& text, std::string* accepts) {
  EnsureBuiltinProtocolsRegistered();
  std::string known;
  for (const ProtocolRegistry::Entry* entry : ProtocolRegistry::Global().List()) {
    known += known.empty() ? entry->key : ", " + entry->key;
  }
  *accepts = "a registered protocol (" + known + ")";
  return ProtocolRegistry::Global().Find(text) != nullptr;
}

bool IsChurnModelName(const std::string& text, std::string* accepts) {
  *accepts = "one of none, leaf, stub, gateway";
  return text == "none" || text == "leaf" || text == "stub" || text == "gateway";
}

bool ParseStrict(const std::string& text, double* v) { return ParseStrictDouble(text, v); }
bool ParseStrict(const std::string& text, int64_t* v) { return ParseStrictInt64(text, v); }
bool ParseStrict(const std::string& text, uint64_t* v) { return ParseStrictUint64(text, v); }

bool InRange(const ScenarioOptionDef::Range& r, double v) {
  return (r.lo_open ? v > r.lo : v >= r.lo) && v <= r.hi;
}

// Copies a set option onto its config field.
template <typename T, typename U>
void Override(const std::optional<T>& option, U* field) {
  if (option) {
    *field = static_cast<U>(*option);
  }
}

std::string FormatBound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

}  // namespace

const std::vector<ScenarioOptionDef>& ScenarioOptionTable() {
  // Row order is the requested_options emission order; committed BENCH
  // baselines pin it, so new options go at the end.
  static const std::vector<ScenarioOptionDef>* table = new std::vector<ScenarioOptionDef>{
      {.key = "nodes", .field = &ScenarioOptions::nodes, .range = {2, 1000000},
       .sweepable = true},
      {.key = "file-mb", .field = &ScenarioOptions::file_mb, .range = kPositive,
       .sweepable = true},
      {.key = "seed", .field = &ScenarioOptions::seed},
      {.key = "block-bytes", .field = &ScenarioOptions::block_bytes, .range = {512},
       .sweepable = true},
      {.key = "deadline-sec", .field = &ScenarioOptions::deadline_sec, .range = kPositive,
       .sweepable = true},
      {.key = "topology", .field = &ScenarioOptions::topology, .validate = IsTopology},
      {.key = "system", .field = &ScenarioOptions::system, .validate = IsProtocolKey},
      {.key = "join-fraction", .field = &ScenarioOptions::join_fraction,
       .range = kUnitInterval, .sweepable = true},
      // Never echoed: requested_options has always omitted it, and committed
      // baselines pin that.
      {.key = "loss", .field = &ScenarioOptions::loss, .range = kUnitInterval,
       .sweepable = true, .echoed = false},
      {.key = "lifetime-pareto-alpha", .field = &ScenarioOptions::lifetime_pareto_alpha,
       .range = kPositive, .sweepable = true},
      {.key = "churn-model", .field = &ScenarioOptions::churn_model,
       .validate = IsChurnModelName, .sweepable = true},
      {.key = "stream-bitrate-mbps", .field = &ScenarioOptions::stream_bitrate_mbps,
       .range = kPositive, .sweepable = true},
      {.key = "stream-window-blocks", .field = &ScenarioOptions::stream_window_blocks,
       .range = {1, 1000000}, .sweepable = true},
      {.key = "threads", .field = &ScenarioOptions::threads, .range = {1, 64},
       .sweepable = true},
  };
  return *table;
}

const ScenarioOptionDef* FindScenarioOptionByKey(const std::string& key) {
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (key == def.key) {
      return &def;
    }
  }
  return nullptr;
}

std::string SweepableOptionKeys() {
  std::string keys;
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (def.sweepable) {
      keys += keys.empty() ? def.key : std::string(", ") + def.key;
    }
  }
  return keys;
}

std::string ScenarioOptionAccepts(const ScenarioOptionDef& def) {
  if (def.is_string()) {
    std::string accepts;
    def.validate("", &accepts);
    return accepts;
  }
  const ScenarioOptionDef::Range& r = def.range;
  const std::string noun = def.is_integer() ? "integer" : "number";
  const std::string a_noun = def.is_integer() ? "an integer" : "a number";
  if (r.hi < std::numeric_limits<double>::infinity()) {
    return a_noun + " in [" + FormatBound(r.lo) + ", " + FormatBound(r.hi) + "]";
  }
  if (r.lo == 0.0) {
    return (r.lo_open ? "a positive " : "a non-negative ") + noun;
  }
  return a_noun + " >= " + FormatBound(r.lo);
}

bool ParseScenarioOption(const ScenarioOptionDef& def, const std::string& text,
                         ScenarioOptions* opts) {
  return std::visit(
      [&](auto field) {
        using T = typename std::remove_reference_t<decltype(opts->*field)>::value_type;
        if constexpr (std::is_same_v<T, std::string>) {
          std::string accepts;
          if (!def.validate(text, &accepts)) {
            return false;
          }
          opts->*field = text;
        } else {
          // Parsed in the field's own kind: integer rows reject "2.0", and
          // seeds above 2^53 stay exact.
          std::conditional_t<std::is_same_v<T, int>, int64_t, T> v = 0;
          if (!ParseStrict(text, &v) || !InRange(def.range, static_cast<double>(v))) {
            return false;
          }
          opts->*field = static_cast<T>(v);
        }
        return true;
      },
      def.field);
}

bool ScenarioOptionAcceptsNumber(const ScenarioOptionDef& def, double value) {
  return !def.is_string() && (!def.is_integer() || value == std::floor(value)) &&
         InRange(def.range, value);
}

void SetScenarioOptionNumber(const ScenarioOptionDef& def, double value, ScenarioOptions* opts) {
  std::visit(
      [&](auto field) {
        using T = typename std::remove_reference_t<decltype(opts->*field)>::value_type;
        if constexpr (!std::is_same_v<T, std::string>) {
          opts->*field = static_cast<T>(value);
        }
      },
      def.field);
}

void MergeScenarioOptions(const ScenarioOptions& from, ScenarioOptions* to) {
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    std::visit(
        [&](auto field) {
          if (from.*field) {
            to->*field = from.*field;
          }
        },
        def.field);
  }
}

void EchoScenarioOptions(const ScenarioOptions& opts, JsonWriter* json) {
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (!def.echoed) {
      continue;
    }
    std::string echo_key = def.key;
    std::replace(echo_key.begin(), echo_key.end(), '-', '_');
    std::visit(
        [&](auto field) {
          if (opts.*field) {
            json->Field(echo_key, *(opts.*field));
          }
        },
        def.field);
  }
}

void ApplyScenarioOptions(const ScenarioOptions& opts, ScenarioConfig* cfg) {
  Override(opts.nodes, &cfg->num_nodes);
  Override(opts.file_mb, &cfg->file_mb);
  Override(opts.seed, &cfg->seed);
  Override(opts.block_bytes, &cfg->block_bytes);
  if (opts.deadline_sec) {
    cfg->deadline = SecToSim(*opts.deadline_sec);
  }
  if (opts.topology) {
    // Unknown names were rejected at parse time; a stale string keeps the
    // scenario's registered topology.
    ParseTopologyName(*opts.topology, &cfg->topo);
  }
  Override(opts.system, &cfg->system);
  Override(opts.join_fraction, &cfg->join_fraction);
  if (opts.loss) {
    cfg->loss_min = 0.0;
    cfg->loss_max = *opts.loss;
  }
  Override(opts.lifetime_pareto_alpha, &cfg->lifetime_pareto_alpha);
  Override(opts.churn_model, &cfg->churn_model);
  Override(opts.stream_bitrate_mbps, &cfg->stream_bitrate_mbps);
  Override(opts.stream_window_blocks, &cfg->stream_window_blocks);
  Override(opts.threads, &cfg->num_threads);
}

void ScenarioReport::AddCompletion(const ScenarioResult& result) {
  AddCompletion(result.name, result);
}

void ScenarioReport::AddCompletion(const std::string& name, const ScenarioResult& result) {
  SeriesReport& s = AddSeries(name, result.completion_sec);
  s.metrics.emplace_back("dup_pct", result.duplicate_fraction * 100.0);
  s.metrics.emplace_back("ctrl_pct", result.control_overhead * 100.0);
  s.metrics.emplace_back("completed", static_cast<double>(result.completed));
  s.metrics.emplace_back("receivers", static_cast<double>(result.receivers));
  // Deterministic run counters (whole-network totals for the run that produced
  // this series; multi-session scenarios repeat them on each session's series).
  // bench_check normalizes these by wall time for the throughput-floor gate.
  s.metrics.emplace_back("net_events_executed", static_cast<double>(result.events_executed));
  s.metrics.emplace_back("net_allocator_epochs", static_cast<double>(result.allocator_epochs));
  s.metrics.emplace_back("net_sim_bytes_sent", static_cast<double>(result.sim_bytes_sent));
}

SeriesReport& ScenarioReport::AddSeries(const std::string& name, std::vector<double> samples) {
  series_.push_back(SeriesReport{name, std::move(samples), {}});
  return series_.back();
}

void ScenarioReport::AddScalar(const std::string& key, double value) {
  scalars_.emplace_back(key, value);
}

std::vector<CdfSeries> ScenarioReport::AsCdfSeries() const {
  std::vector<CdfSeries> out;
  out.reserve(series_.size());
  for (const SeriesReport& s : series_) {
    out.push_back(CdfSeries{s.name, s.samples});
  }
  return out;
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = new ScenarioRegistry();
  return *registry;
}

bool ScenarioRegistry::Register(const std::string& name, const std::string& description,
                                RunFn fn) {
  return entries_.emplace(name, Entry{name, description, std::move(fn)}).second;
}

const ScenarioRegistry::Entry* ScenarioRegistry::Find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const ScenarioRegistry::Entry*> ScenarioRegistry::List() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(&entry);
  }
  return out;
}

namespace {

std::set<std::string>& TransitStubDefaultNames() {
  static std::set<std::string>* names = new std::set<std::string>();
  return *names;
}

}  // namespace

bool ScenarioDefaultsToTransitStub(const std::string& name) {
  return TransitStubDefaultNames().count(name) > 0;
}

namespace harness_internal {

ScenarioRegistrar::ScenarioRegistrar(const char* name, const char* description,
                                     ScenarioRegistry::RunFn fn) {
  if (!ScenarioRegistry::Global().Register(name, description, std::move(fn))) {
    std::fprintf(stderr, "duplicate scenario registration: %s\n", name);
    std::abort();
  }
}

TransitStubDefaultRegistrar::TransitStubDefaultRegistrar(const char* name) {
  TransitStubDefaultNames().insert(name);
}

}  // namespace harness_internal

}  // namespace bullet
