#include "src/harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/harness/flag_parse.h"
#include "src/harness/json_writer.h"

namespace bullet {
namespace {

// Writes value `i` of `axis` onto options. Values were validated when the axis
// was parsed, so the string path cannot fail.
void ApplyAxisValue(const SweepAxis& axis, size_t i, ScenarioOptions* options) {
  const ScenarioOptionDef* def = FindScenarioOptionByKey(axis.key);
  if (def == nullptr) {
    return;
  }
  if (axis.is_string()) {
    ParseScenarioOption(*def, axis.text_values[i], options);
  } else {
    SetScenarioOptionNumber(*def, axis.values[i], options);
  }
}

bool IsIntegral(double v) { return v == std::floor(v); }

}  // namespace

uint64_t DeriveSweepSeed(uint64_t base_seed, int point_index, int repeat) {
  // Mix the three coordinates through SplitMix64 twice so that adjacent indices
  // (and adjacent base seeds) land on decorrelated streams. The +1 offsets keep
  // (point 0, repeat 0) from collapsing onto the raw base seed.
  uint64_t state = base_seed;
  state ^= 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(point_index) + 1);
  state ^= 0xbf58476d1ce4e5b9ull * (static_cast<uint64_t>(repeat) + 1);
  SplitMix64(state);
  return SplitMix64(state);
}

bool ParseSweepAxisSpec(const std::string& text, SweepAxis* axis, std::string* error) {
  const size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    *error = "sweep axis must look like key=v1,v2,... (got '" + text + "')";
    return false;
  }
  SweepAxis parsed;
  parsed.key = text.substr(0, eq);
  const ScenarioOptionDef* def = FindScenarioOptionByKey(parsed.key);
  if (def == nullptr || !def->sweepable) {
    *error = "unknown sweep key '" + parsed.key + "' (supported: " + SweepableOptionKeys() + ")";
    return false;
  }

  std::string values = text.substr(eq + 1);
  size_t start = 0;
  while (start <= values.size()) {
    const size_t comma = values.find(',', start);
    const std::string item =
        values.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    double v = 0.0;
    if (!def->is_string() && !ParseStrictDouble(item, &v)) {
      *error = "bad value '" + item + "' for sweep axis '" + parsed.key + "'";
      return false;
    }
    // The same ranges and validators as the single-run flags, so a sweep
    // cannot construct configurations a single run would reject.
    std::string accepts;
    if (def->is_string() ? !def->validate(item, &accepts)
                         : !ScenarioOptionAcceptsNumber(*def, v)) {
      *error = parsed.key + " values must each be " + ScenarioOptionAccepts(*def);
      return false;
    }
    // A repeated value would silently run the same grid point twice under two
    // point indices (distinct derived seeds) — almost always a typo.
    const bool repeated =
        def->is_string()
            ? std::count(parsed.text_values.begin(), parsed.text_values.end(), item) > 0
            : std::count(parsed.values.begin(), parsed.values.end(), v) > 0;
    if (repeated) {
      *error = "duplicate value '" + item + "' in sweep axis '" + parsed.key + "'";
      return false;
    }
    if (def->is_string()) {
      parsed.text_values.push_back(item);
    } else {
      parsed.values.push_back(v);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  if (parsed.size() == 0) {
    *error = "sweep axis '" + parsed.key + "' has no values";
    return false;
  }
  *axis = std::move(parsed);
  return true;
}

bool ParseSweepFile(std::istream& in, SweepSpec* spec, std::string* error) {
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) {
      continue;  // blank / comment-only line
    }
    std::string rest;
    tokens >> rest;
    std::string extra;
    if (tokens >> extra) {
      *error = "line " + std::to_string(lineno) + ": trailing text after '" + rest + "'";
      return false;
    }
    const auto fail = [&](const std::string& what) {
      *error = "line " + std::to_string(lineno) + ": " + what;
      return false;
    };
    if (directive == "scenario") {
      if (rest.empty()) {
        return fail("scenario needs a name");
      }
      spec->scenario = rest;
    } else if (directive == "name") {
      if (rest.empty()) {
        return fail("name needs a value");
      }
      spec->name = rest;
    } else if (directive == "repeats") {
      double v = 0.0;
      if (!ParseStrictDouble(rest, &v) || !IsIntegral(v) || v < 1 || v > 10000) {
        return fail("repeats needs an integer in [1, 10000]");
      }
      spec->repeats = static_cast<int>(v);
    } else if (directive == "seed") {
      // Exact 64-bit parse, matching --seed: a double round-trip would corrupt
      // seeds above 2^53 and silently diverge file specs from CLI specs.
      uint64_t v = 0;
      if (!ParseStrictUint64(rest, &v)) {
        return fail("seed needs a non-negative integer");
      }
      spec->base_seed = v;
    } else if (directive == "set") {
      SweepAxis axis;
      std::string axis_error;
      if (!ParseSweepAxisSpec(rest, &axis, &axis_error) || axis.size() != 1) {
        return fail(axis_error.empty() ? "set needs exactly one key=value" : axis_error);
      }
      ApplyAxisValue(axis, 0, &spec->base);
    } else if (directive == "sweep") {
      SweepAxis axis;
      std::string axis_error;
      if (!ParseSweepAxisSpec(rest, &axis, &axis_error)) {
        return fail(axis_error);
      }
      for (const SweepAxis& existing : spec->axes) {
        if (existing.key == axis.key) {
          return fail("duplicate sweep axis '" + axis.key + "'");
        }
      }
      spec->axes.push_back(std::move(axis));
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  return true;
}

bool FindDuplicateAxisKey(const std::vector<SweepAxis>& axes, std::string* key) {
  for (size_t a = 0; a < axes.size(); ++a) {
    for (size_t b = a + 1; b < axes.size(); ++b) {
      if (axes[a].key == axes[b].key) {
        *key = axes[a].key;
        return true;
      }
    }
  }
  return false;
}

std::vector<SweepPoint> ExpandSweepGrid(const SweepSpec& spec) {
  size_t grid = 1;
  for (const SweepAxis& axis : spec.axes) {
    grid *= axis.size();
  }
  std::vector<SweepPoint> points;
  points.reserve(grid * static_cast<size_t>(spec.repeats));
  std::vector<size_t> idx(spec.axes.size(), 0);
  for (size_t cell = 0; cell < grid; ++cell) {
    // Decode `cell` into per-axis indices, axis 0 slowest (row-major).
    size_t rem = cell;
    for (size_t a = spec.axes.size(); a-- > 0;) {
      idx[a] = rem % spec.axes[a].size();
      rem /= spec.axes[a].size();
    }
    for (int r = 0; r < spec.repeats; ++r) {
      SweepPoint p;
      p.point_index = static_cast<int>(cell);
      p.repeat = r;
      p.seed = DeriveSweepSeed(spec.base_seed, p.point_index, r);
      p.options = spec.base;
      for (size_t a = 0; a < spec.axes.size(); ++a) {
        const SweepAxis& axis = spec.axes[a];
        SweepParamValue value;
        if (axis.is_string()) {
          value.is_string = true;
          value.text = axis.text_values[idx[a]];
        } else {
          value.number = axis.values[idx[a]];
        }
        ApplyAxisValue(axis, idx[a], &p.options);
        p.params.emplace_back(axis.key, std::move(value));
      }
      p.options.seed = p.seed;
      points.push_back(std::move(p));
    }
  }
  return points;
}

SweepRunOutcome RunSweep(const SweepSpec& spec, const ScenarioRegistry& registry, int jobs) {
  SweepRunOutcome outcome;
  outcome.spec = spec;
  if (spec.scenario.empty()) {
    outcome.error = "sweep has no scenario";
    return outcome;
  }
  const ScenarioRegistry::Entry* entry = registry.Find(spec.scenario);
  if (entry == nullptr) {
    outcome.error = "unknown scenario '" + spec.scenario + "'";
    return outcome;
  }
  if (spec.repeats < 1) {
    outcome.error = "repeats must be >= 1";
    return outcome;
  }
  std::string duplicate;
  if (FindDuplicateAxisKey(spec.axes, &duplicate)) {
    outcome.error = "duplicate sweep axis '" + duplicate + "'";
    return outcome;
  }

  std::vector<SweepPoint> points = ExpandSweepGrid(spec);
  outcome.runs.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    outcome.runs[i].point = std::move(points[i]);
  }

  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) {
      jobs = 1;
    }
  }
  jobs = std::min<int>(jobs, static_cast<int>(outcome.runs.size()));
  jobs = std::max(jobs, 1);
  outcome.jobs_used = jobs;

  const auto start = std::chrono::steady_clock::now();
  // Each worker claims runs off a shared counter and writes only into its own
  // claimed ScenarioContext slots, so the result layout (and therefore the
  // aggregate JSON) is independent of scheduling.
  std::atomic<size_t> next{0};
  const auto worker = [&]() {
    for (size_t i = next.fetch_add(1); i < outcome.runs.size(); i = next.fetch_add(1)) {
      ScenarioContext& ctx = outcome.runs[i];
      // Per-run counter/profiler installs: each worker thread observes only the
      // run it is executing (thread-local current pointers), so counters and
      // wall times attribute cleanly no matter how runs are scheduled.
      PhaseProfiler profiler;
      const auto run_start = std::chrono::steady_clock::now();
      try {
        ScopedRunCounters install_counters(&ctx.counters);
        ScopedProfilerInstall install_profiler(&profiler);
        ctx.report = entry->fn(ctx.point.options);
      } catch (const std::exception& e) {
        ctx.error = e.what();
      } catch (...) {
        ctx.error = "unknown exception";
      }
      ctx.wall_sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
      ctx.profile = SnapshotPhases(profiler);
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  outcome.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  for (const ScenarioContext& ctx : outcome.runs) {
    if (!ctx.error.empty()) {
      outcome.error = "point " + std::to_string(ctx.point.point_index) + " repeat " +
                      std::to_string(ctx.point.repeat) + " failed: " + ctx.error;
      return outcome;
    }
  }
  outcome.ok = true;
  return outcome;
}

std::map<std::string, double> FlattenReportMetrics(const ScenarioReport& report) {
  std::map<std::string, double> flat;
  for (const auto& [key, value] : report.scalars()) {
    flat[key] = value;
  }
  for (const SeriesReport& s : report.series()) {
    std::vector<double> sorted = s.samples;
    std::sort(sorted.begin(), sorted.end());
    flat[s.name + ".count"] = static_cast<double>(sorted.size());
    flat[s.name + ".p05_s"] = PercentileSorted(sorted, 0.05);
    flat[s.name + ".p50_s"] = PercentileSorted(sorted, 0.50);
    flat[s.name + ".p90_s"] = PercentileSorted(sorted, 0.90);
    flat[s.name + ".max_s"] = PercentileSorted(sorted, 1.0);
    for (const auto& [key, value] : s.metrics) {
      flat[s.name + "." + key] = value;
    }
  }
  return flat;
}

void WriteSweepJson(std::ostream& os, const SweepRunOutcome& outcome) {
  const SweepSpec& spec = outcome.spec;
  JsonWriter json(os);
  json.BeginObject();
  json.Field("schema", "bullet-bench-v3");
  json.Field("sweep", spec.OutputName());
  json.Field("scenario", spec.scenario);
  json.Field("base_seed", spec.base_seed);
  json.Field("repeats", static_cast<int64_t>(spec.repeats));
  json.Field("repro_scale", GetReproScale().file_scale);

  json.Key("axes").BeginArray();
  for (const SweepAxis& axis : spec.axes) {
    json.BeginObject();
    json.Field("key", axis.key);
    json.Key("values").BeginArray();
    if (axis.is_string()) {
      for (const std::string& v : axis.text_values) {
        json.String(v);
      }
    } else {
      for (const double v : axis.values) {
        json.Number(v);
      }
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.Key("points").BeginArray();
  // Runs are grid-major / repeat-minor, so each point's repeats are contiguous.
  for (size_t i = 0; i < outcome.runs.size(); i += static_cast<size_t>(spec.repeats)) {
    const ScenarioContext& first = outcome.runs[i];
    json.BeginObject();
    json.Field("point_index", static_cast<int64_t>(first.point.point_index));
    json.Key("params").BeginObject();
    for (const auto& [key, value] : first.point.params) {
      if (value.is_string) {
        json.Field(key, value.text);
      } else {
        json.Field(key, value.number);
      }
    }
    json.EndObject();
    json.Key("seeds").BeginArray();
    for (int r = 0; r < spec.repeats; ++r) {
      json.Uint(outcome.runs[i + static_cast<size_t>(r)].point.seed);
    }
    json.EndArray();

    // metric name -> one value per repeat (sorted map ⇒ stable emission order).
    std::map<std::string, std::vector<double>> samples;
    for (int r = 0; r < spec.repeats; ++r) {
      const ScenarioContext& ctx = outcome.runs[i + static_cast<size_t>(r)];
      if (!ctx.report) {
        continue;
      }
      for (const auto& [key, value] : FlattenReportMetrics(*ctx.report)) {
        samples[key].push_back(value);
      }
    }
    json.Key("metrics").BeginObject();
    for (auto& [key, values] : samples) {
      std::sort(values.begin(), values.end());
      json.Key(key).BeginObject();
      json.Field("median", PercentileSorted(values, 0.50));
      json.Field("p10", PercentileSorted(values, 0.10));
      json.Field("p90", PercentileSorted(values, 0.90));
      json.EndObject();
    }
    json.EndObject();
    // Median per-phase *counts* across the point's repeats. Counts derive from
    // the seed alone, so this block keeps the aggregate --jobs-invariant;
    // phase nanoseconds are wall-clock data and stay out of this document.
    if (PhaseProfiler::kCompiledIn) {
      json.Key("profile").BeginObject();
      for (int p = 0; p < kProfilePhaseCount; ++p) {
        std::vector<double> counts;
        counts.reserve(static_cast<size_t>(spec.repeats));
        for (int r = 0; r < spec.repeats; ++r) {
          counts.push_back(static_cast<double>(
              outcome.runs[i + static_cast<size_t>(r)].profile.phases[p].count));
        }
        std::sort(counts.begin(), counts.end());
        json.Field(ProfilePhaseName(static_cast<ProfilePhase>(p)),
                   PercentileSorted(counts, 0.50));
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  os << "\n";
}

void WriteSweepFloorsJson(std::ostream& os, const SweepRunOutcome& outcome) {
  const SweepSpec& spec = outcome.spec;
  JsonWriter json(os);
  json.BeginObject();
  json.Field("schema", "bullet-floors-v1");
  json.Field("sweep", spec.OutputName());
  json.Field("scenario", spec.scenario);
  json.Field("base_seed", spec.base_seed);
  json.Field("repeats", static_cast<int64_t>(spec.repeats));
  json.Field("repro_scale", GetReproScale().file_scale);

  const auto median_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return PercentileSorted(v, 0.50);
  };

  json.Key("points").BeginArray();
  for (size_t i = 0; i < outcome.runs.size(); i += static_cast<size_t>(spec.repeats)) {
    const ScenarioContext& first = outcome.runs[i];
    json.BeginObject();
    json.Field("point_index", static_cast<int64_t>(first.point.point_index));
    json.Key("params").BeginObject();
    for (const auto& [key, value] : first.point.params) {
      if (value.is_string) {
        json.Field(key, value.text);
      } else {
        json.Field(key, value.number);
      }
    }
    json.EndObject();

    std::vector<double> wall;
    std::vector<double> events;
    std::vector<double> bytes;
    for (int r = 0; r < spec.repeats; ++r) {
      const ScenarioContext& ctx = outcome.runs[i + static_cast<size_t>(r)];
      wall.push_back(ctx.wall_sec);
      events.push_back(static_cast<double>(ctx.counters.events_executed));
      bytes.push_back(static_cast<double>(ctx.counters.sim_bytes_sent));
    }
    const double wall_median = median_of(wall);
    json.Field("wall_sec_median", wall_median);
    json.Field("events_executed_median", median_of(events));
    json.Field("sim_bytes_sent_median", median_of(bytes));
    // The gated metrics. Division by a tiny wall time would make the floors
    // meaninglessly huge, so sub-millisecond medians are clamped.
    const double denom = wall_median > 1e-3 ? wall_median : 1e-3;
    json.Key("floors").BeginObject();
    json.Field("events_per_wall_sec", median_of(events) / denom);
    json.Field("sim_bytes_per_wall_sec", median_of(bytes) / denom);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  os << "\n";
}

namespace {

// The deterministic memory-byte scalars the ceilings gate understands, in
// emission order. Scenarios opt in by AddScalar-ing them (fig24_megaswarm).
constexpr const char* kCeilingMetrics[] = {"arena_peak_bytes", "conn_state_bytes",
                                           "path_pool_bytes", "route_cache_bytes"};

}  // namespace

bool SweepHasCeilingMetrics(const SweepRunOutcome& outcome) {
  for (const ScenarioContext& ctx : outcome.runs) {
    if (!ctx.report) {
      continue;
    }
    for (const auto& [key, value] : ctx.report->scalars()) {
      for (const char* name : kCeilingMetrics) {
        if (key == name) {
          return true;
        }
      }
    }
  }
  return false;
}

void WriteSweepCeilingsJson(std::ostream& os, const SweepRunOutcome& outcome) {
  const SweepSpec& spec = outcome.spec;
  JsonWriter json(os);
  json.BeginObject();
  json.Field("schema", "bullet-ceilings-v1");
  json.Field("sweep", spec.OutputName());
  json.Field("scenario", spec.scenario);
  json.Field("base_seed", spec.base_seed);
  json.Field("repeats", static_cast<int64_t>(spec.repeats));
  json.Field("repro_scale", GetReproScale().file_scale);

  json.Key("points").BeginArray();
  for (size_t i = 0; i < outcome.runs.size(); i += static_cast<size_t>(spec.repeats)) {
    const ScenarioContext& first = outcome.runs[i];
    json.BeginObject();
    json.Field("point_index", static_cast<int64_t>(first.point.point_index));
    json.Key("params").BeginObject();
    for (const auto& [key, value] : first.point.params) {
      if (value.is_string) {
        json.Field(key, value.text);
      } else {
        json.Field(key, value.number);
      }
    }
    json.EndObject();

    json.Key("ceilings").BeginObject();
    for (const char* name : kCeilingMetrics) {
      std::vector<double> values;
      for (int r = 0; r < spec.repeats; ++r) {
        const ScenarioContext& ctx = outcome.runs[i + static_cast<size_t>(r)];
        if (!ctx.report) {
          continue;
        }
        for (const auto& [key, value] : ctx.report->scalars()) {
          if (key == name) {
            values.push_back(value);
          }
        }
      }
      if (!values.empty()) {
        std::sort(values.begin(), values.end());
        json.Field(name, PercentileSorted(values, 0.50));
      }
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  os << "\n";
}

}  // namespace bullet
