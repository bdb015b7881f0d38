// ExperimentRunner: the paper's measurement protocols (Section 5.1/5.2).
//
//  * Saturation throughput: backlogged sources; delivered flits/ns/source
//    over a measurement window after warmup. Multicast deliveries count
//    once per ejected copy, matching Table 1's higher multicast numbers.
//  * Network latency: open-loop exponential injection at 25% of *that
//    network's* saturation (converted to an injected rate via the measured
//    delivered/injected factor); messages generated during the measurement
//    window are tagged, and the run continues until all tagged messages
//    have delivered every header ("up to the arrival of all headers").
//  * Power: open-loop injection at 25% of the *Baseline's* saturation for
//    the benchmark (identical offered load for every architecture, the
//    paper's normalized energy-per-packet comparison); power = switching
//    energy over the measurement window / window duration.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/architecture.h"
#include "core/config.h"
#include "core/mot_network.h"
#include "power/energy_model.h"
#include "sim/parallel_runner.h"
#include "stats/metrics.h"
#include "traffic/benchmark.h"
#include "util/units.h"
#include "workload/replay.h"
#include "workload/synth.h"
#include "workload/trace.h"

namespace specnoc::stats {

struct SaturationResult {
  double delivered_flits_per_ns = 0.0;  ///< per source — the GF/s figure
  double injected_flits_per_ns = 0.0;   ///< per source
  /// delivered / injected (>1 for multicast traffic).
  double delivery_factor = 1.0;
  /// Injected packets per generated message (>1 only on the serializing
  /// Baseline, where a k-destination message becomes k unicast packets).
  double message_expansion = 1.0;
};

struct LatencyResult {
  double mean_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
  double max_latency_ns = 0.0;
  std::uint64_t messages_measured = 0;
  double offered_flits_per_ns = 0.0;  ///< injected rate per source
  /// False if tagged messages were still pending at the drain cap (the
  /// network was saturated at the requested load).
  bool drained = true;
};

struct PowerResult {
  double power_mw = 0.0;
  double node_power_mw = 0.0;
  double wire_power_mw = 0.0;
  double delivered_flits_per_ns = 0.0;
  double offered_flits_per_ns = 0.0;
  std::uint64_t throttled_flits = 0;
  std::uint64_t broadcast_ops = 0;
};

/// Builds a fresh network for one run; every measurement constructs its own
/// network so runs are independent and deterministic.
using NetworkFactory = std::function<std::unique_ptr<core::MotNetwork>()>;

/// Shared knobs for the batch APIs below.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = inline serial execution
  /// on the calling thread (the exact serial code path).
  unsigned jobs = 0;
  /// Tries per run before reporting it failed in its outcome slot.
  unsigned max_attempts = 2;
  /// Attach a MetricsRegistry to every run and return its snapshot in the
  /// outcome. Purely observational: results are identical either way.
  bool collect_metrics = false;
  /// Live progress lines to stderr every this many ms; 0 (default) =
  /// silent. Progress goes to stderr only, so stdout tables are identical
  /// with and without it.
  unsigned progress_interval_ms = 0;
  std::string progress_label = {};  ///< prefix for progress lines
  /// Epoch-sample every run (stats/telemetry.h). Enabling this implies
  /// collect_metrics — the series rides each outcome's MetricsSnapshot.
  /// Observational only: simulated results are identical either way.
  TelemetryOptions telemetry = {};
  /// Called once per run right after it completes, from the worker thread
  /// that finished it (runs complete in nondeterministic order under
  /// jobs > 1, so the callback must be thread-safe). `metrics` is the
  /// run's snapshot when one was collected and the run succeeded, else
  /// nullptr. This is the live-streaming hook: sweep shards emit NDJSON
  /// telemetry frames through it mid-batch.
  std::function<void(std::size_t index, const sim::RunOutcome& run,
                     const MetricsSnapshot* metrics)>
      on_run_done = {};
};

/// Probe bundle threaded through the single-run workers behind the batch
/// APIs: which measurements the caller wants out of one run. Every field is
/// optional; a default RunProbes measures nothing.
struct RunProbes {
  std::uint64_t* events = nullptr;     ///< kernel events the run executed
  /// Attach a MetricsRegistry for the run and snapshot it here afterwards.
  MetricsSnapshot* metrics = nullptr;
  /// Window-protocol shape of the run (empty when sequential). Filled even
  /// without `metrics`, so batch drivers can surface PDES occupancy in
  /// progress lines without paying for full metrics collection.
  PdesMetrics* pdes = nullptr;
  /// Epoch sampling; active only when `metrics` is also set (the sampled
  /// series is delivered inside the snapshot).
  TelemetryOptions telemetry = {};
};

/// What a batch API reports for one spec. `result` is valid only when
/// run.ok; `metrics` is present when the batch ran with
/// BatchOptions::collect_metrics and the run succeeded.
template <class Spec, class Result>
struct Outcome {
  Spec spec;
  Result result;
  sim::RunOutcome run;
  std::optional<MetricsSnapshot> metrics;
};

/// One cell of a saturation grid. `factory` (when set) overrides the
/// architecture's canonical network — used for custom design points;
/// `seed` = 0 means the runner's own seed. `custom` is a stable label for
/// the factory's network (e.g. "{0,2}" for a speculation-map design
/// point): it is part of the cell's serialized identity (spec_key in
/// serialization.h), so sharded sweeps require it to uniquely name any
/// non-canonical factory. Leave it empty for canonical architectures.
struct SaturationSpec {
  core::Architecture arch = core::Architecture::kBaseline;
  traffic::BenchmarkId bench = traffic::BenchmarkId::kUniformRandom;
  std::uint64_t seed = 0;
  NetworkFactory factory;
  std::string custom;
};

using SaturationOutcome = Outcome<SaturationSpec, SaturationResult>;

/// One open-loop latency run at an explicit injected rate. `custom` as in
/// SaturationSpec: a stable label identifying a non-canonical factory.
struct LatencySpec {
  core::Architecture arch = core::Architecture::kBaseline;
  traffic::BenchmarkId bench = traffic::BenchmarkId::kUniformRandom;
  double injected_flits_per_ns = 0.0;
  traffic::SimWindows windows;
  std::uint64_t seed = 0;
  NetworkFactory factory;
  std::string custom;
};

using LatencyOutcome = Outcome<LatencySpec, LatencyResult>;

/// One open-loop power run at an explicit injected rate. `custom` as in
/// SaturationSpec: a stable label identifying a non-canonical factory.
struct PowerSpec {
  core::Architecture arch = core::Architecture::kBaseline;
  traffic::BenchmarkId bench = traffic::BenchmarkId::kUniformRandom;
  double injected_flits_per_ns = 0.0;
  traffic::SimWindows windows;
  std::uint64_t seed = 0;
  NetworkFactory factory;
  std::string custom;
};

using PowerOutcome = Outcome<PowerSpec, PowerResult>;

/// One trace replay (workload.h subsystem). Replay is RNG-free, so unlike
/// the open-loop specs there is no seed: the run is fully determined by
/// (network, trace, mode). The trace itself cannot travel through shard
/// files — `trace_hash` is its serialized identity instead (part of
/// spec_key, so sharded sweeps refuse to mix outcomes of different
/// traces), and `workload` is the human-readable label rendered in
/// tables. Deserialized specs come back with a null trace; a process that
/// wants to *run* (rather than merge/render) them must re-attach it.
struct WorkloadResult {
  std::uint64_t messages = 0;           ///< trace records
  std::uint64_t messages_delivered = 0;
  std::uint64_t flits_delivered = 0;
  /// Time of the last header delivery — the workload's completion time
  /// under this network (the figure of merit for closed-loop replay).
  double makespan_ns = 0.0;
  double mean_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
  double max_latency_ns = 0.0;
  /// False if the scheduler drained with messages still undelivered.
  bool completed = true;
};

struct WorkloadSpec {
  core::Architecture arch = core::Architecture::kBaseline;
  std::string workload;  ///< label ("DnnLayers", "Coherence", a trace stem)
  workload::ReplayMode mode = workload::ReplayMode::kClosedLoop;
  std::shared_ptr<const workload::Trace> trace;
  std::string trace_hash;  ///< workload::trace_hash(*trace)
  NetworkFactory factory;
  std::string custom;
};

using WorkloadOutcome = Outcome<WorkloadSpec, WorkloadResult>;

/// Builds a WorkloadSpec with the trace attached and its hash computed.
WorkloadSpec make_workload_spec(core::Architecture arch, std::string label,
                                workload::ReplayMode mode,
                                std::shared_ptr<const workload::Trace> trace);

/// One CMP co-simulation run (cmp/system.h): per-processor access streams
/// driven closed-loop through caches + directory + DRAM on a fresh network.
/// The figure of merit is application makespan — the end-to-end number the
/// source paper's open-loop protocols cannot produce. RNG-free given the
/// access trace; like WorkloadSpec, the trace travels as a hash
/// (`access_hash`) and deserialized specs must be re-armed via
/// make_cmp_spec before running.
struct CmpResult {
  std::uint64_t accesses = 0;   ///< stream accesses retired
  double makespan_ns = 0.0;     ///< last stream retirement
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t mshr_merges = 0;
  std::uint64_t inv_messages = 0;    ///< directory invalidation sends
  std::uint64_t inv_multicasts = 0;  ///< those reaching >= 2 endpoints
  std::uint64_t inv_targets = 0;     ///< summed invalidation fan-out
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_conflicts = 0;
  std::uint64_t messages = 0;         ///< protocol messages on the network
  std::uint64_t flits_delivered = 0;
  double energy_nj = 0.0;  ///< switching energy over the whole run
  /// False if the scheduler drained with accesses still un-retired.
  bool completed = true;
};

struct CmpSpec {
  core::Architecture arch = core::Architecture::kBaseline;
  std::string workload;  ///< label ("LuBlocks", "BarnesRegions")
  std::shared_ptr<const workload::AccessTrace> access;
  std::string access_hash;  ///< workload::access_trace_hash(*access)
  NetworkFactory factory;
  std::string custom;
};

using CmpOutcome = Outcome<CmpSpec, CmpResult>;

/// Builds a CmpSpec with the access trace attached and its hash computed.
CmpSpec make_cmp_spec(core::Architecture arch, std::string label,
                      std::shared_ptr<const workload::AccessTrace> access);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(core::NetworkConfig config, std::uint64_t seed = 1,
                            power::EnergyModelParams energy = {});

  /// Saturation throughput (memoized per architecture x benchmark).
  const SaturationResult& saturation(core::Architecture arch,
                                     traffic::BenchmarkId bench);

  /// Seeds the saturation() memoization cache with the canonical cells
  /// among `outcomes` — successful runs with the runner's seed (spec seed
  /// 0), no factory and no custom label — so the protocol methods reuse
  /// them instead of re-simulating. run_saturation_grid() calls this on
  /// its own outcomes; sharded sweeps call it on outcomes loaded from a
  /// merged shard file. Existing cache entries are left untouched.
  void prime_saturation(const std::vector<SaturationOutcome>& outcomes);

  /// Latency at an explicit injected rate (flits/ns/source).
  LatencyResult measure_latency(core::Architecture arch,
                                traffic::BenchmarkId bench,
                                double injected_flits_per_ns,
                                traffic::SimWindows windows);

  /// The paper's protocol: latency at `fraction` of this network's own
  /// saturation, with the benchmark's default windows.
  LatencyResult latency_at_fraction(core::Architecture arch,
                                    traffic::BenchmarkId bench,
                                    double fraction = 0.25);

  /// Power at an explicit injected rate.
  PowerResult measure_power(core::Architecture arch,
                            traffic::BenchmarkId bench,
                            double injected_flits_per_ns,
                            traffic::SimWindows windows);

  /// The paper's protocol: power at `fraction` of the *Baseline's*
  /// saturation for this benchmark.
  PowerResult power_at_baseline_fraction(core::Architecture arch,
                                         traffic::BenchmarkId bench,
                                         double fraction = 0.25);

  const core::NetworkConfig& config() const { return config_; }

  /// Windows used for saturation runs (shorter than latency windows; the
  /// backlogged estimator converges quickly).
  static traffic::SimWindows saturation_windows();

  /// Factory-based variants for custom design points (e.g. arbitrary
  /// speculation maps); the architecture-based methods delegate to these.
  /// These are const and touch no shared mutable state, so they are safe to
  /// call concurrently from batch workers.
  SaturationResult run_saturation(const NetworkFactory& factory,
                                  traffic::BenchmarkId bench) const;
  /// Replays `trace` on a fresh network and reports its delivery profile.
  /// RNG-free and const: safe to call concurrently from batch workers.
  WorkloadResult run_workload(const NetworkFactory& factory,
                              const workload::Trace& trace,
                              workload::ReplayMode mode) const;
  LatencyResult measure_latency(const NetworkFactory& factory,
                                traffic::BenchmarkId bench,
                                double injected_flits_per_ns,
                                traffic::SimWindows windows) const;
  PowerResult measure_power(const NetworkFactory& factory,
                            traffic::BenchmarkId bench,
                            double injected_flits_per_ns,
                            traffic::SimWindows windows) const;

  /// Batch APIs: execute the given independent runs on options.jobs worker
  /// threads (sim::ParallelRunner). Outcomes are aggregated in spec order,
  /// so results are bit-identical to the serial path for any thread count.
  /// A run that throws is retried and, failing that, reported per-spec in
  /// its outcome — never process-fatal.
  ///
  /// Saturation outcomes computed with the default seed and factory also
  /// warm the saturation() memoization cache, so architecture-based
  /// protocol methods called afterwards reuse them for free.
  std::vector<SaturationOutcome> run_saturation_grid(
      const std::vector<SaturationSpec>& specs,
      const BatchOptions& options = {});
  std::vector<LatencyOutcome> run_latency_sweep(
      const std::vector<LatencySpec>& specs,
      const BatchOptions& options = {}) const;
  std::vector<PowerOutcome> run_power_sweep(
      const std::vector<PowerSpec>& specs,
      const BatchOptions& options = {}) const;
  /// Specs must carry their trace (make_workload_spec); a spec whose trace
  /// is null fails in its outcome slot with a ConfigError message.
  std::vector<WorkloadOutcome> run_workload_grid(
      const std::vector<WorkloadSpec>& specs,
      const BatchOptions& options = {}) const;

  /// CMP co-simulation with the default cache/DRAM geometry
  /// (cmp::CmpConfig). Closed-loop (zero-lookahead feedback), so canonical
  /// networks are always built sequential; a partitioned custom factory
  /// raises ConfigError. Specs must carry their access trace
  /// (make_cmp_spec); a spec whose trace is null fails in its outcome slot
  /// with a ConfigError message.
  std::vector<CmpOutcome> run_cmp_grid(const std::vector<CmpSpec>& specs,
                                       const BatchOptions& options = {}) const;

 private:
  /// Single-run workers behind both the public serial methods and the
  /// batch APIs; `probes` selects the measurements to harvest (see
  /// RunProbes). A run that throws dumps the telemetry flight recorder to
  /// stderr (when sampling was active) before the exception propagates.
  SaturationResult saturation_run(const NetworkFactory& factory,
                                  traffic::BenchmarkId bench,
                                  std::uint64_t seed,
                                  const RunProbes& probes) const;
  LatencyResult latency_run(const NetworkFactory& factory,
                            traffic::BenchmarkId bench,
                            double injected_flits_per_ns,
                            traffic::SimWindows windows, std::uint64_t seed,
                            const RunProbes& probes) const;
  PowerResult power_run(const NetworkFactory& factory,
                        traffic::BenchmarkId bench,
                        double injected_flits_per_ns,
                        traffic::SimWindows windows, std::uint64_t seed,
                        const RunProbes& probes) const;
  WorkloadResult workload_run(const NetworkFactory& factory,
                              const workload::Trace& trace,
                              workload::ReplayMode mode,
                              const RunProbes& probes) const;
  CmpResult cmp_run(const NetworkFactory& factory,
                    const workload::AccessTrace& access,
                    const RunProbes& probes) const;

  core::NetworkConfig config_;
  std::uint64_t seed_;
  power::EnergyModelParams energy_;
  std::map<std::pair<core::Architecture, traffic::BenchmarkId>,
           SaturationResult>
      saturation_cache_;
};

}  // namespace specnoc::stats
