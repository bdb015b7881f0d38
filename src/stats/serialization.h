// JSON codecs and canonical keys for experiment specs and outcomes.
//
// Sharded sweeps move specs and outcomes between processes as values, so
// every spec/result struct in experiment.h (plus sim::RunOutcome) gets a
// JSON representation with an exact round trip: integers stay integers and
// doubles are written in their shortest exact decimal form, so a value
// that travels through a shard file renders the same table bytes as one
// that never left the process.
//
// A spec's *identity* is its declarative fields. The NetworkFactory
// closure is deliberately excluded: it cannot travel between processes.
// Custom design points instead carry a `custom` label naming the factory's
// network; deserialized specs come back with an empty factory, and any
// process that wants to *run* (rather than merge/render) them must rebuild
// the factory locally from the same label.
//
// spec_key() renders that identity as one canonical line — the sharding
// key (sim::ShardPlan), the per-cell validation key in shard files, and
// the input to grid_hash(), which fingerprints an entire grid so merge
// tooling can refuse shards produced from different grids.
#pragma once

#include <string>
#include <vector>

#include "sim/parallel_runner.h"
#include "stats/experiment.h"
#include "stats/metrics.h"
#include "util/json.h"

namespace specnoc::stats {

// --- specs ---------------------------------------------------------------

util::Json to_json(const SaturationSpec& spec);
util::Json to_json(const LatencySpec& spec);
util::Json to_json(const PowerSpec& spec);
/// The trace itself does not travel (like NetworkFactory, it cannot);
/// its trace_hash identity does, and deserialized specs come back with a
/// null trace — re-arm with make_workload_spec before running.
util::Json to_json(const WorkloadSpec& spec);
/// Like WorkloadSpec: the access trace travels as its hash only, and
/// deserialized specs must be re-armed with make_cmp_spec before running.
util::Json to_json(const CmpSpec& spec);

SaturationSpec saturation_spec_from_json(const util::Json& json);
LatencySpec latency_spec_from_json(const util::Json& json);
PowerSpec power_spec_from_json(const util::Json& json);
WorkloadSpec workload_spec_from_json(const util::Json& json);
CmpSpec cmp_spec_from_json(const util::Json& json);

// --- results -------------------------------------------------------------

util::Json to_json(const SaturationResult& result);
util::Json to_json(const LatencyResult& result);
util::Json to_json(const PowerResult& result);
util::Json to_json(const WorkloadResult& result);
util::Json to_json(const CmpResult& result);

SaturationResult saturation_result_from_json(const util::Json& json);
LatencyResult latency_result_from_json(const util::Json& json);
PowerResult power_result_from_json(const util::Json& json);
WorkloadResult workload_result_from_json(const util::Json& json);
CmpResult cmp_result_from_json(const util::Json& json);

// --- run outcomes --------------------------------------------------------

util::Json to_json(const sim::RunOutcome& run);
sim::RunOutcome run_outcome_from_json(const util::Json& json);

// --- metrics -------------------------------------------------------------

/// MetricsSnapshot holds only integers and enum names, so this round trip
/// is byte-exact: a snapshot that travels through a shard file serializes
/// to the same line as one that never left the process.
util::Json to_json(const MetricsSnapshot& snapshot);
MetricsSnapshot metrics_snapshot_from_json(const util::Json& json);

// --- full outcomes (spec + run [+ result] [+ metrics]) --------------------

/// The result slot is only meaningful for successful runs; omitting it for
/// failures keeps failed rows small and makes the round trip yield the same
/// default-constructed result the in-process path reports.
template <class Spec, class Result>
util::Json to_json(const Outcome<Spec, Result>& outcome) {
  util::Json json = util::Json::object();
  json.set("spec", to_json(outcome.spec));
  json.set("run", to_json(outcome.run));
  if (outcome.run.ok) json.set("result", to_json(outcome.result));
  if (outcome.run.ok && outcome.metrics.has_value()) {
    json.set("metrics", to_json(*outcome.metrics));
  }
  return json;
}

SaturationOutcome saturation_outcome_from_json(const util::Json& json);
LatencyOutcome latency_outcome_from_json(const util::Json& json);
PowerOutcome power_outcome_from_json(const util::Json& json);
WorkloadOutcome workload_outcome_from_json(const util::Json& json);
CmpOutcome cmp_outcome_from_json(const util::Json& json);

// --- experiment kinds ----------------------------------------------------

/// Per-kind identity, one specialization per spec type: `kName` is the
/// wire name written as each spec's "kind" and each sweep grid's kind,
/// `decode` reads a serialized outcome, and `run` is the ExperimentRunner
/// batch method that executes a grid of the kind. The codecs and
/// ShardedSweep take all three from here.
template <class Spec>
struct ExperimentKind;

template <>
struct ExperimentKind<SaturationSpec> {
  using Result = SaturationResult;
  static constexpr const char* kName = "saturation";
  static constexpr auto decode = &saturation_outcome_from_json;
  static constexpr auto run = &ExperimentRunner::run_saturation_grid;
};

template <>
struct ExperimentKind<LatencySpec> {
  using Result = LatencyResult;
  static constexpr const char* kName = "latency";
  static constexpr auto decode = &latency_outcome_from_json;
  static constexpr auto run = &ExperimentRunner::run_latency_sweep;
};

template <>
struct ExperimentKind<PowerSpec> {
  using Result = PowerResult;
  static constexpr const char* kName = "power";
  static constexpr auto decode = &power_outcome_from_json;
  static constexpr auto run = &ExperimentRunner::run_power_sweep;
};

template <>
struct ExperimentKind<WorkloadSpec> {
  using Result = WorkloadResult;
  static constexpr const char* kName = "workload";
  static constexpr auto decode = &workload_outcome_from_json;
  static constexpr auto run = &ExperimentRunner::run_workload_grid;
};

template <>
struct ExperimentKind<CmpSpec> {
  using Result = CmpResult;
  static constexpr const char* kName = "cmp";
  static constexpr auto decode = &cmp_outcome_from_json;
  static constexpr auto run = &ExperimentRunner::run_cmp_grid;
};

/// The outcome type of a spec's kind.
template <class Spec>
using OutcomeOf = Outcome<Spec, typename ExperimentKind<Spec>::Result>;

// --- identity ------------------------------------------------------------

/// Canonical one-line identity of a spec, unique within a grid. Two specs
/// with equal keys must describe the same run.
std::string spec_key(const SaturationSpec& spec);
std::string spec_key(const LatencySpec& spec);
std::string spec_key(const PowerSpec& spec);
std::string spec_key(const WorkloadSpec& spec);
std::string spec_key(const CmpSpec& spec);

/// Keys of a whole grid, in grid order.
template <typename Spec>
std::vector<std::string> spec_keys(const std::vector<Spec>& specs) {
  std::vector<std::string> keys;
  keys.reserve(specs.size());
  for (const auto& spec : specs) keys.push_back(spec_key(spec));
  return keys;
}

/// Order-sensitive fingerprint of a grid (hex fnv1a64 over its keys).
/// Every shard worker of a sweep must compute the same hash, or the merge
/// refuses to combine their outputs.
std::string grid_hash(const std::vector<std::string>& keys);

/// Per-run status recorded in shard files: "ok" (first attempt), "retried"
/// (succeeded after >= 1 retry), or "failed".
const char* run_status(const sim::RunOutcome& run);

}  // namespace specnoc::stats
