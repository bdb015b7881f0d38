// perfbench_driver: runs one benchmark workload for a host-time budget and
// prints one JSON object with the raw per-pass samples on stdout.
//
//   perfbench_driver --workload NAME --seed N --seconds S [--trace]
//                    [--trace-out trace.json]
//
// A pass is one complete execution of the workload's cells. Passes repeat
// until the budget is spent; perfbench/run.py turns the samples into
// medians. Pass 0 is a warm-up that run.py checks but does not time: it
// faults in the allocator's heap and the PDES workers' malloc arenas,
// which otherwise make a run's first pass up to a third slower. Every pass
// records spans around the driver's calls into the specnoc layers
// (tracer.h): setup time is the sum of the build spans and simulate time
// is the rest of the pass. With --trace, odd passes also attach the
// metrics observers (MetricsRegistry on hooks().metrics, an epoch hook for
// queue depth) and report per-layer numbers; even passes stay untraced, so
// each traced pass is checked against an untraced reference and the two
// give the tracing overhead.
//
// paper_8x8 counts flit-hops through an energy observer that its batch
// cells do not otherwise carry, so only the warm-up attaches it; later
// passes take their hop counts from the warm-up, which the fingerprint
// check shows simulated the same cells, and run exactly the code the
// bench_table1_*/bench_fig6a harnesses run.
//
// Correctness: each cell's simulated output is fingerprinted. A cell
// fails when it throws, when its protocol reports it incomplete (an
// undrained latency cell, an un-retired CMP access stream), when its
// JSONL round trip is not byte-equal, or — judged by run.py — when its
// fingerprint differs from the warm-up pass's.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cmp/access_source.h"
#include "cmp/system.h"
#include "core/mot_network.h"
#include "noc/dest_set.h"
#include "power/power_meter.h"
#include "stats/experiment.h"
#include "stats/metrics.h"
#include "stats/recorder.h"
#include "stats/serialization.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "tracer.h"
#include "util/cli.h"
#include "util/json.h"
#include "workload/synth.h"

namespace perfbench {
namespace {

using namespace specnoc;
using namespace specnoc::literals;
using specnoc::util::Json;

// Paper Table 1, the same values as kPaper in bench/bench_table1_*.cpp:
// saturation throughput (GF/s) and total network power (mW), rows in
// core::all_architectures() order.
constexpr double kPaperThroughput[6][6] = {
    // Uniform, Shuffle, Hotspot, Mcast5, Mcast10, Mcast_static
    {1.26, 1.48, 0.29, 1.28, 1.28, 1.29},
    {1.25, 1.22, 0.29, 1.47, 1.63, 1.80},
    {1.42, 1.25, 0.29, 1.61, 1.73, 1.87},
    {1.52, 1.57, 0.29, 1.72, 1.82, 1.93},
    {1.60, 1.62, 0.29, 1.76, 1.84, 1.96},
    {1.65, 1.70, 0.29, 1.78, 1.84, 1.96},
};
constexpr std::array<traffic::BenchmarkId, 4> kPowerBenchmarks = {
    traffic::BenchmarkId::kUniformRandom, traffic::BenchmarkId::kHotspot,
    traffic::BenchmarkId::kMulticast5, traffic::BenchmarkId::kMulticast10};
constexpr double kPaperPower[6][4] = {
    // Uniform, Hotspot, Mcast5, Mcast10
    {12.6, 3.8, 14.7, 17.1},
    {14.1, 4.2, 16.0, 18.1},
    {15.6, 4.5, 17.4, 19.4},
    {13.1, 3.9, 15.0, 17.0},
    {13.9, 4.1, 15.7, 17.6},
    {16.1, 4.6, 17.8, 19.5},
};

// Every per-layer metric a traced pass reports, in BENCHMARK.json order.
// Workloads that do not run a layer report 0 for its metrics.
const char* const kLayerMetrics[] = {
    "sim.events", "sim.events_per_flit_hop", "sim.run_s", "sim.ns_per_event",
    "sim.pending_peak", "sim.overflow_pending_peak", "sim.pdes.windows",
    "sim.pdes.lane_busy_ratio", "sim.pdes.model_speedup", "noc.flit_hops",
    "noc.stall_ps_per_flit_hop", "noc.message_expansion",
    "noc.destset_spill_allocs", "noc.destset_spill_reuses",
    "noc.arena_reserved_mb", "nodes.kills_per_delivered_flit",
    "nodes.prealloc_hit_ratio", "nodes.contended_grants",
    "nodes.watchdog_releases", "core.build_s", "core.teardown_s",
    "traffic.messages", "workload.synth_s", "workload.accesses", "cmp.run_s",
    "cmp.accesses_per_s", "cmp.l1_hit_ratio", "cmp.mshr_merge_ratio",
    "cmp.inv_multicast_share", "cmp.inv_fanout_mean",
    "cmp.dram_conflict_ratio", "cmp.makespan_ns", "stats.saturation_s",
    "stats.latency_s", "stats.power_s", "power.run_s", "stats.codec_s",
    "accuracy.table1_throughput_err_pct", "accuracy.table1_power_err_pct",
    "self.core_s", "self.sim_s", "self.traffic_s", "self.cmp_s",
    "self.power_s", "self.stats_s"};

// Spans whose time is set-up (building networks, patterns and synthesized
// inputs); the rest of a pass is simulate time.
bool is_setup_span(const std::string& name) {
  return name == "core.build" || name == "traffic.setup" ||
         name == "workload.synth" || name == "cmp.setup";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

std::string fingerprint(const std::string& canonical) {
  return stats::grid_hash({canonical});
}

struct Cell {
  std::string key;
  std::string fp;  ///< fingerprint of the simulated output
  bool ok = true;
  std::string error;
};

/// Observer totals of a traced pass, summed over the cells that carried
/// the observers.
struct Observed {
  std::uint64_t kills = 0;
  std::uint64_t prealloc_hits = 0;
  std::uint64_t prealloc_misses = 0;
  std::uint64_t contended_grants = 0;
  std::uint64_t watchdog_releases = 0;
  std::uint64_t stall_ps = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t overflow_pending_peak = 0;
  std::uint64_t arena_reserved_peak = 0;

  void add(const stats::MetricsSnapshot& s) {
    kills += s.total_kills();
    prealloc_hits += s.total_prealloc_hits();
    prealloc_misses += s.total_prealloc_misses();
    contended_grants += s.total_contended_grants();
    watchdog_releases += s.total_watchdog_releases();
    for (const auto& c : s.channels) stall_ps += c.stall_time_ps;
  }
};

/// What one pass of a workload produced.
struct PassResult {
  std::vector<Cell> cells;
  /// False when the pass did not count flit-hops and delivered flits
  /// itself; run() then takes them from the warm-up pass.
  bool hops_counted = true;
  std::uint64_t flit_hops = 0;      ///< over the hop-timed cells
  std::uint64_t hop_events = 0;     ///< kernel events of those cells
  std::uint64_t delivered_flits = 0;  ///< sink-consumed flits, same cells
  double hop_time_s = 0.0;          ///< host time those cells simulated
  std::uint64_t events = 0;         ///< kernel events of every cell
  Observed observed;                ///< traced passes only
  std::map<std::string, double> layers;  ///< workload-specific metrics
};

/// Counts flit-hops (one on_channel_flit per flit per channel, exactly
/// Channel::flits_carried) and sink-consumed flits on networks run
/// inside the batch APIs, whose Channel objects are gone when the batch
/// returns. Installed by the timing factory on the energy hook, which the
/// saturation and latency protocols leave unused, in the warm-up pass only:
/// the observer costs a virtual call per node operation and flit-hop.
class HopCounter final : public noc::EnergyObserver {
 public:
  void on_node_op(const noc::Node&, noc::NodeOp op, TimePs) override {
    if (op == noc::NodeOp::kSinkConsume) ++consumed_;
  }
  void on_channel_flit(LengthUm, TimePs) override { ++hops_; }

  std::uint64_t hops() const { return hops_; }
  std::uint64_t consumed() const { return consumed_; }

 private:
  std::uint64_t hops_ = 0;
  std::uint64_t consumed_ = 0;
};

/// Samples the kernel's queue depth on its observation-only epoch hook.
class DepthProbe {
 public:
  void arm(noc::Network& net, TimePs epoch) {
    net.set_epoch_hook(epoch, [this, &net](TimePs) {
      pending_peak_ = std::max<std::uint64_t>(pending_peak_, net.pending());
      overflow_peak_ =
          std::max<std::uint64_t>(overflow_peak_, net.overflow_pending());
    });
  }
  void report(Observed& observed) const {
    observed.pending_peak = std::max(observed.pending_peak, pending_peak_);
    observed.overflow_pending_peak =
        std::max(observed.overflow_pending_peak, overflow_peak_);
  }

 private:
  std::uint64_t pending_peak_ = 0;
  std::uint64_t overflow_peak_ = 0;
};

// ---------------------------------------------------------------------------
// paper_8x8: Table 1 saturation and power and Fig. 6(a) latency through the
// stats batch APIs at jobs 1, as the bench_table1_*/bench_fig6a harnesses
// run them.

/// Timing NetworkFactory for one batch call: each network build is a
/// core.build span, and after the batch each cell becomes a span from its
/// build's start through the runner's own wall time for the cell. The
/// cells of a hop-timed batch add to the pass's simulate time for
/// flit_hops_per_s; with `count_hops` they also carry a HopCounter.
class BatchProbe {
 public:
  BatchProbe(Tracer& tracer, const core::NetworkConfig& config,
             bool hop_timed, bool count_hops)
      : tracer_(tracer),
        config_(config),
        hop_timed_(hop_timed),
        count_hops_(hop_timed && count_hops) {}
  BatchProbe(const BatchProbe&) = delete;
  BatchProbe& operator=(const BatchProbe&) = delete;

  stats::NetworkFactory factory(core::Architecture arch) {
    return [this, arch] {
      Tracer::Scope span(tracer_, "core.build", "core");
      builds_.push_back(span.id());
      auto network = std::make_unique<core::MotNetwork>(arch, config_);
      if (count_hops_) {
        counters_.push_back(std::make_unique<HopCounter>());
        network->net().hooks().energy = counters_.back().get();
      }
      return network;
    };
  }

  /// Runs after the batch call returned (jobs 1: cells ran in spec order,
  /// one factory call each). Returns false when the factory calls do not
  /// line up with the outcomes, e.g. a spec rejected before building.
  template <typename Outcome>
  bool finish(const std::vector<Outcome>& outcomes, int batch_span,
              const char* name, const char* layer, PassResult& out) {
    if (builds_.size() != outcomes.size()) return false;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const sim::RunTelemetry& telemetry = outcomes[i].run.telemetry;
      Span& build = tracer_.span(builds_[i]);
      const double start = build.start_s;
      const int cell = tracer_.add(name, layer, start,
                                   start + telemetry.wall_ms / 1e3,
                                   batch_span);
      tracer_.span(builds_[i]).parent = cell;
      out.events += telemetry.events_executed;
      if (hop_timed_) {
        out.hop_events += telemetry.events_executed;
        out.hop_time_s += tracer_.span(cell).duration() -
                          tracer_.span(builds_[i]).duration();
      }
      if (count_hops_) {
        out.flit_hops += counters_[i]->hops();
        out.delivered_flits += counters_[i]->consumed();
      }
    }
    return true;
  }

 private:
  Tracer& tracer_;
  const core::NetworkConfig& config_;
  bool hop_timed_;
  bool count_hops_;
  std::vector<int> builds_;
  std::vector<std::unique_ptr<HopCounter>> counters_;
};

/// Byte-exact JSONL round trip of one outcome through the sweep codec.
template <typename Outcome, typename Decode>
bool round_trips(const Outcome& outcome, Decode decode) {
  const std::string line = util::json_write(stats::to_json(outcome));
  const Outcome back = decode(util::json_parse(line));
  return util::json_write(stats::to_json(back)) == line &&
         stats::spec_key(back.spec) == stats::spec_key(outcome.spec);
}

template <typename Outcome>
Cell check_cell(const Outcome& outcome, bool complete, const char* what) {
  Cell cell;
  cell.key = stats::spec_key(outcome.spec);
  cell.ok = outcome.run.ok && complete;
  if (!outcome.run.ok) {
    cell.error = outcome.run.error;
  } else if (!complete) {
    cell.error = what;
  }
  cell.fp = fingerprint(util::json_write(stats::to_json(outcome.result)));
  return cell;
}

template <typename Outcome>
void add_snapshots(const std::vector<Outcome>& outcomes, bool counted,
                   Observed& observed) {
  for (const Outcome& outcome : outcomes) {
    if (!outcome.metrics.has_value()) continue;
    const stats::MetricsSnapshot& s = *outcome.metrics;
    if (counted) observed.add(s);
    for (const auto& epoch : s.telemetry.epochs) {
      observed.pending_peak = std::max(observed.pending_peak, epoch.pending);
      observed.overflow_pending_peak =
          std::max(observed.overflow_pending_peak, epoch.overflow_pending);
    }
    std::uint64_t reserved = 0;
    for (const auto& pool : s.arena) reserved += pool.reserved_bytes;
    observed.arena_reserved_peak =
        std::max(observed.arena_reserved_peak, reserved);
  }
}

void paper_pass(std::uint64_t seed, bool traced, bool count_hops,
                Tracer& tracer, PassResult& out) {
  out.hops_counted = count_hops;
  const core::NetworkConfig config;  // 8x8, 5-flit packets, sequential
  stats::ExperimentRunner runner(config, seed);
  stats::BatchOptions options;
  options.jobs = 1;          // the exact serial code path
  options.max_attempts = 1;  // a retried cell is a failed cell
  options.collect_metrics = traced;
  if (traced) options.telemetry.epoch_ps = 100_ns;
  constexpr auto kArchs = core::all_architectures();
  constexpr auto kBenches = traffic::all_benchmarks();

  // Table 1 saturation: 6 networks x 6 benchmarks, backlogged.
  BatchProbe sat_probe(tracer, config, true, count_hops);
  std::vector<stats::SaturationSpec> sat_specs;
  for (const auto arch : kArchs) {
    for (const auto bench : kBenches) {
      sat_specs.push_back({.arch = arch, .bench = bench, .seed = 0,
                           .factory = sat_probe.factory(arch), .custom = {}});
    }
  }
  std::vector<stats::SaturationOutcome> sat;
  int span = -1;
  {
    Tracer::Scope scope(tracer, "stats.saturation_grid", "stats");
    span = scope.id();
    sat = runner.run_saturation_grid(sat_specs, options);
  }
  const bool sat_aligned = sat_probe.finish(sat, span, "sim.run", "sim", out);
  const auto sat_at = [&](std::size_t row, std::size_t col)
      -> const stats::SaturationResult& {
    return sat[row * kBenches.size() + col].result;
  };

  // Fig. 6(a): 4 networks x 6 benchmarks, open-loop Poisson at 25% of each
  // network's own saturation.
  BatchProbe lat_probe(tracer, config, true, count_hops);
  std::vector<stats::LatencySpec> lat_specs;
  for (const auto arch : core::trajectory_architectures()) {
    const auto row = static_cast<std::size_t>(
        std::find(kArchs.begin(), kArchs.end(), arch) - kArchs.begin());
    for (std::size_t c = 0; c < kBenches.size(); ++c) {
      const auto& s = sat_at(row, c);
      lat_specs.push_back(
          {.arch = arch,
           .bench = kBenches[c],
           .injected_flits_per_ns =
               0.25 * s.injected_flits_per_ns / s.message_expansion,
           .windows = traffic::default_windows(kBenches[c]),
           .seed = 0,
           .factory = lat_probe.factory(arch),
           .custom = {}});
    }
  }
  std::vector<stats::LatencyOutcome> lat;
  {
    Tracer::Scope scope(tracer, "stats.latency_sweep", "stats");
    span = scope.id();
    lat = runner.run_latency_sweep(lat_specs, options);
  }
  const bool lat_aligned = lat_probe.finish(lat, span, "sim.run", "sim", out);

  // Table 1 power: 6 networks x 4 benchmarks, open loop at 25% of the
  // Baseline's saturation.
  BatchProbe power_probe(tracer, config, false, false);
  std::vector<stats::PowerSpec> power_specs;
  for (const auto arch : kArchs) {
    for (const auto bench : kPowerBenchmarks) {
      const auto col = static_cast<std::size_t>(
          std::find(kBenches.begin(), kBenches.end(), bench) -
          kBenches.begin());
      const auto& base = sat_at(0, col);
      power_specs.push_back(
          {.arch = arch,
           .bench = bench,
           .injected_flits_per_ns =
               0.25 * base.injected_flits_per_ns / base.message_expansion,
           .windows = traffic::default_windows(bench),
           .seed = 0,
           .factory = power_probe.factory(arch),
           .custom = {}});
    }
  }
  std::vector<stats::PowerOutcome> power;
  {
    Tracer::Scope scope(tracer, "stats.power_sweep", "stats");
    span = scope.id();
    power = runner.run_power_sweep(power_specs, options);
  }
  const bool power_aligned =
      power_probe.finish(power, span, "power.run", "power", out);

  // Checks, then the JSONL round trip of every outcome.
  for (const auto& o : sat) {
    out.cells.push_back(check_cell(o, o.result.delivered_flits_per_ns > 0.0,
                                   "delivered nothing"));
  }
  for (const auto& o : lat) {
    out.cells.push_back(check_cell(
        o, o.result.drained && o.result.messages_measured > 0,
        "did not drain"));
  }
  for (const auto& o : power) {
    out.cells.push_back(
        check_cell(o, o.result.power_mw > 0.0, "drew no power"));
  }
  {
    Tracer::Scope scope(tracer, "stats.codec", "stats");
    std::size_t i = 0;
    for (const auto& o : sat) {
      if (!round_trips(o, stats::saturation_outcome_from_json)) {
        out.cells[i].ok = false;
        out.cells[i].error = "JSONL round trip differs";
      }
      ++i;
    }
    for (const auto& o : lat) {
      if (!round_trips(o, stats::latency_outcome_from_json)) {
        out.cells[i].ok = false;
        out.cells[i].error = "JSONL round trip differs";
      }
      ++i;
    }
    for (const auto& o : power) {
      if (!round_trips(o, stats::power_outcome_from_json)) {
        out.cells[i].ok = false;
        out.cells[i].error = "JSONL round trip differs";
      }
      ++i;
    }
  }
  if (!sat_aligned || !lat_aligned || !power_aligned) {
    for (Cell& cell : out.cells) {
      cell.ok = false;
      cell.error = "factory calls do not match the batch's cells";
    }
  }

  // Accuracy against the paper's Table 1 (simulated results, any pass).
  double throughput_err = 0.0;
  for (std::size_t r = 0; r < kArchs.size(); ++r) {
    for (std::size_t c = 0; c < kBenches.size(); ++c) {
      const double err = 100.0 *
                         std::abs(sat_at(r, c).delivered_flits_per_ns -
                                  kPaperThroughput[r][c]) /
                         kPaperThroughput[r][c];
      out.layers["accuracy.cell.throughput." +
                 std::string(core::to_string(kArchs[r])) + "/" +
                 traffic::to_string(kBenches[c])] = err;
      throughput_err += err;
    }
  }
  out.layers["accuracy.table1_throughput_err_pct"] =
      throughput_err / static_cast<double>(kArchs.size() * kBenches.size());
  double power_err = 0.0;
  std::size_t power_cells = 0;
  for (std::size_t r = 0; r < kArchs.size(); ++r) {
    for (std::size_t c = 0; c < kPowerBenchmarks.size(); ++c) {
      const double measured = power[r * kPowerBenchmarks.size() + c]
                                  .result.power_mw;
      const double err =
          100.0 * std::abs(measured - kPaperPower[r][c]) / kPaperPower[r][c];
      const std::string cell = std::string(core::to_string(kArchs[r])) + "/" +
                               traffic::to_string(kPowerBenchmarks[c]);
      // The Uniform column calibrated the energy model, so it is reported
      // but not scored.
      if (kPowerBenchmarks[c] == traffic::BenchmarkId::kUniformRandom) {
        out.layers["accuracy.cell.power_calibration." + cell] = err;
        continue;
      }
      out.layers["accuracy.cell.power." + cell] = err;
      power_err += err;
      ++power_cells;
    }
  }
  out.layers["accuracy.table1_power_err_pct"] =
      power_err / static_cast<double>(power_cells);

  if (!traced) return;
  add_snapshots(sat, true, out.observed);
  add_snapshots(lat, true, out.observed);
  add_snapshots(power, false, out.observed);
  double expansion = 0.0;
  for (const auto& o : sat) expansion += o.result.message_expansion;
  out.layers["noc.message_expansion"] =
      expansion / static_cast<double>(sat.size());
  std::uint64_t measured_messages = 0;
  for (const auto& o : lat) measured_messages += o.result.messages_measured;
  out.layers["traffic.messages"] = static_cast<double>(measured_messages);
}

// ---------------------------------------------------------------------------
// radix256_pdes: OptHybridSpeculative at 256 endpoints, backlogged
// UniformRandom and Multicast10 on the partitioned kernel, driven directly
// through MotNetwork + TrafficDriver + TrafficRecorder as
// bench/bench_radix.cpp does.

constexpr std::uint32_t kRadix = 256;
constexpr TimePs kRadixWarmup = 100_ns;
constexpr TimePs kRadixMeasure = 200_ns;

std::uint64_t flits_carried(noc::Network& net) {
  std::uint64_t hops = 0;
  for (const noc::Channel* channel : net.channels()) {
    hops += channel->flits_carried();
  }
  return hops;
}

std::uint64_t flits_consumed(noc::Network& net) {
  std::uint64_t flits = 0;
  for (std::uint32_t i = 0; i < net.num_sinks(); ++i) {
    flits += net.sink(i).flits_consumed();
  }
  return flits;
}

void radix_pass(std::uint64_t seed, unsigned sim_threads, bool traced,
                Tracer& tracer, PassResult& out) {
  constexpr std::array<traffic::BenchmarkId, 2> kBenches = {
      traffic::BenchmarkId::kUniformRandom,
      traffic::BenchmarkId::kMulticast10};
  for (const auto bench : kBenches) {
    core::NetworkConfig config;
    config.n = kRadix;
    config.sim_threads = sim_threads;
    std::unique_ptr<core::MotNetwork> network;
    {
      Tracer::Scope span(tracer, "core.build", "core");
      network = std::make_unique<core::MotNetwork>(
          core::Architecture::kOptHybridSpeculative, config);
    }
    noc::Network& net = network->net();
    std::unique_ptr<traffic::TrafficPattern> pattern;
    std::unique_ptr<traffic::TrafficDriver> driver;
    std::unique_ptr<stats::TrafficRecorder> recorder;
    {
      Tracer::Scope span(tracer, "traffic.setup", "traffic");
      pattern = traffic::make_benchmark(bench, kRadix);
      traffic::DriverConfig driver_config;
      driver_config.mode = traffic::InjectionMode::kBacklogged;
      driver_config.seed = seed;
      driver = std::make_unique<traffic::TrafficDriver>(*network, *pattern,
                                                        driver_config);
      recorder = std::make_unique<stats::TrafficRecorder>(net.packets());
      net.hooks().traffic = recorder.get();
    }
    stats::MetricsRegistry registry;
    DepthProbe depth;
    if (traced) {
      net.hooks().metrics = &registry;
      depth.arm(net, 10_ns);
    }
    Cell cell;
    cell.key = std::string(traffic::to_string(bench)) + "/n" +
               std::to_string(kRadix) + "/threads" +
               std::to_string(sim_threads);
    {
      Tracer::Scope span(tracer, "sim.run", "sim");
      try {
        driver->start();
        net.run_until(kRadixWarmup);
        recorder->open_window(net.now());
        net.run_until(kRadixWarmup + kRadixMeasure);
        recorder->close_window(net.now());
      } catch (const std::exception& error) {
        cell.ok = false;
        cell.error = error.what();
      }
      out.hop_time_s += tracer.now() - tracer.span(span.id()).start_s;
    }
    {
      Tracer::Scope span(tracer, "bench.check", "bench");
      const std::uint64_t hops = flits_carried(net);
      const std::uint64_t consumed = flits_consumed(net);
      out.flit_hops += hops;
      out.delivered_flits += consumed;
      out.events += net.executed();
      out.hop_events += net.executed();
      if (cell.ok && recorder->window_flits_ejected() == 0) {
        cell.ok = false;
        cell.error = "delivered nothing";
      }
      const auto& store = net.packets();
      cell.fp = fingerprint(
          "events=" + std::to_string(net.executed()) +
          " hops=" + std::to_string(hops) +
          " consumed=" + std::to_string(consumed) +
          " ejected=" + std::to_string(recorder->window_flits_ejected()) +
          " injected=" + std::to_string(recorder->window_flits_injected()) +
          " messages=" + std::to_string(store.num_messages()) +
          " packets=" + std::to_string(store.num_packets()));
      out.cells.push_back(cell);
      if (traced) {
        out.observed.add(registry.snapshot());
        depth.report(out.observed);
        out.observed.arena_reserved_peak =
            std::max(out.observed.arena_reserved_peak,
                     net.arena().total_reserved_bytes());
        out.layers["traffic.messages"] +=
            static_cast<double>(store.num_messages());
        out.layers["noc.message_expansion"] +=
            ratio(static_cast<std::uint64_t>(store.num_packets()),
                  static_cast<std::uint64_t>(store.num_messages())) /
            static_cast<double>(kBenches.size());
        if (sim::PartitionedScheduler* psched = net.partitioned_scheduler()) {
          const std::vector<std::uint64_t> lane_events =
              psched->per_lane_executed();
          const std::uint32_t lanes = psched->lanes();
          std::uint64_t idle = 0;
          for (const auto windows : psched->per_lane_idle_windows()) {
            idle += windows;
          }
          // Static contiguous lane blocks per worker, as the pool assigns
          // them: the largest per-worker event share bounds the speedup.
          std::uint64_t max_share = 0;
          for (unsigned w = 0; w < sim_threads; ++w) {
            std::uint64_t share = 0;
            for (std::uint32_t lane = w * lanes / sim_threads;
                 lane < (w + 1) * lanes / sim_threads; ++lane) {
              share += lane_events[lane];
            }
            max_share = std::max(max_share, share);
          }
          out.layers["sim.pdes.windows"] +=
              static_cast<double>(psched->windows());
          out.layers["sim.pdes.lane_busy_ratio"] +=
              (1.0 - ratio(idle, std::uint64_t{lanes} * psched->windows())) /
              static_cast<double>(kBenches.size());
          out.layers["sim.pdes.model_speedup"] +=
              ratio(net.executed(), max_share) /
              static_cast<double>(kBenches.size());
        }
      }
    }
    {
      Tracer::Scope span(tracer, "core.teardown", "core");
      net.clear_epoch_hook();
      recorder.reset();
      driver.reset();
      pattern.reset();
      network.reset();
    }
  }
}

// ---------------------------------------------------------------------------
// cmp_64: closed-loop CMP co-simulation (caches, MSHRs, directory, DRAM) of
// LuBlocks and BarnesRegions at 64 endpoints, scaled to 3x the default
// blocks/steps, on Baseline and OptHybridSpeculative. Driven through
// cmp::CmpSystem as ExperimentRunner::run_cmp does, so the network's
// channels can be read after the run.

constexpr std::uint32_t kCmpEndpoints = 64;

void cmp_pass(std::uint64_t seed, bool traced, Tracer& tracer,
              PassResult& out) {
  std::vector<workload::AccessTrace> traces;
  {
    Tracer::Scope span(tracer, "workload.synth", "workload");
    workload::LuAccessParams lu;
    lu.n = kCmpEndpoints;
    lu.blocks *= 3;
    lu.seed = seed;
    traces.push_back(workload::make_lu_access_trace(lu));
    workload::BarnesAccessParams barnes;
    barnes.n = kCmpEndpoints;
    barnes.steps *= 3;
    barnes.seed = seed;
    traces.push_back(workload::make_barnes_access_trace(barnes));
  }
  const cmp::CmpConfig cmp_config;  // max_outstanding 4 per processor
  constexpr std::array<core::Architecture, 2> kArchs = {
      core::Architecture::kBaseline,
      core::Architecture::kOptHybridSpeculative};
  std::uint64_t accesses = 0;
  cmp::CmpCounters totals;
  double makespan_ns = 0.0;
  double run_s = 0.0;
  for (const auto& trace : traces) {
    accesses += trace.total_accesses();
    for (const auto arch : kArchs) {
      core::NetworkConfig config;
      config.n = kCmpEndpoints;
      std::unique_ptr<core::MotNetwork> network;
      {
        Tracer::Scope span(tracer, "core.build", "core");
        network = std::make_unique<core::MotNetwork>(arch, config);
      }
      noc::Network& net = network->net();
      std::unique_ptr<cmp::AccessTraceSource> source;
      std::unique_ptr<cmp::CmpSystem> system;
      std::unique_ptr<stats::TrafficRecorder> recorder;
      std::unique_ptr<power::PowerMeter> meter;
      {
        Tracer::Scope span(tracer, "cmp.setup", "cmp");
        source = std::make_unique<cmp::AccessTraceSource>(
            trace, cmp_config.line_bytes);
        system = std::make_unique<cmp::CmpSystem>(*network, *source,
                                                  cmp_config);
        recorder = std::make_unique<stats::TrafficRecorder>(net.packets());
        meter = std::make_unique<power::PowerMeter>();
        system->set_downstream(recorder.get());
        net.hooks().traffic = system.get();
        net.hooks().energy = meter.get();
      }
      stats::MetricsRegistry registry;
      DepthProbe depth;
      if (traced) {
        net.hooks().metrics = &registry;
        depth.arm(net, 10_ns);
      }
      Cell cell;
      cell.key = trace.generator + "/" + core::to_string(arch) + "/n" +
                 std::to_string(kCmpEndpoints);
      {
        Tracer::Scope span(tracer, "cmp.run", "cmp");
        try {
          recorder->open_window(net.now());
          meter->open_window(net.now());
          system->start();
          {
            // The caches, MSHRs, directory and DRAM run as callbacks inside
            // the kernel's run(), so from outside their time is sim time.
            Tracer::Scope run(tracer, "sim.run", "sim");
            net.run();
          }
          recorder->close_window(net.now());
          meter->close_window(net.now());
        } catch (const std::exception& error) {
          cell.ok = false;
          cell.error = error.what();
        }
        const double cell_s = tracer.now() - tracer.span(span.id()).start_s;
        out.hop_time_s += cell_s;
        run_s += cell_s;
      }
      {
        Tracer::Scope span(tracer, "bench.check", "bench");
        const cmp::CmpCounters c = system->counters();
        stats::CmpResult result;
        result.accesses = system->retired();
        result.makespan_ns = ps_to_ns(system->makespan());
        result.l1_hits = c.l1_hits;
        result.l1_misses = c.l1_misses;
        result.mshr_merges = c.mshr_merges;
        result.inv_messages = c.inv_messages;
        result.inv_multicasts = c.inv_multicasts;
        result.inv_targets = c.inv_targets;
        result.dram_reads = c.dram_reads;
        result.dram_writes = c.dram_writes;
        result.dram_conflicts = c.dram_conflicts;
        result.messages = c.messages_sent;
        result.flits_delivered = recorder->window_flits_ejected();
        result.energy_nj = meter->window_energy() / 1e6;
        result.completed = system->finished();
        if (cell.ok && !result.completed) {
          cell.ok = false;
          cell.error = "retired " + std::to_string(system->retired()) +
                       " of " + std::to_string(source->total_accesses()) +
                       " accesses";
        }
        cell.fp = fingerprint(util::json_write(stats::to_json(result)));
        out.cells.push_back(cell);
        const std::uint64_t hops = flits_carried(net);
        out.flit_hops += hops;
        out.delivered_flits += flits_consumed(net);
        out.events += net.executed();
        out.hop_events += net.executed();
        if (traced) {
          out.observed.add(registry.snapshot());
          depth.report(out.observed);
          out.observed.arena_reserved_peak =
              std::max(out.observed.arena_reserved_peak,
                       net.arena().total_reserved_bytes());
          totals.accesses += c.accesses;
          totals.l1_hits += c.l1_hits;
          totals.l1_misses += c.l1_misses;
          totals.mshr_merges += c.mshr_merges;
          totals.inv_messages += c.inv_messages;
          totals.inv_multicasts += c.inv_multicasts;
          totals.inv_targets += c.inv_targets;
          totals.dram_reads += c.dram_reads;
          totals.dram_writes += c.dram_writes;
          totals.dram_conflicts += c.dram_conflicts;
          totals.messages_sent += c.messages_sent;
          makespan_ns += result.makespan_ns;
          out.layers["noc.message_expansion"] +=
              ratio(static_cast<std::uint64_t>(net.packets().num_packets()),
                    static_cast<std::uint64_t>(
                        net.packets().num_messages())) /
              static_cast<double>(traces.size() * kArchs.size());
        }
      }
      {
        Tracer::Scope span(tracer, "core.teardown", "core");
        net.clear_epoch_hook();
        meter.reset();
        recorder.reset();
        system.reset();
        source.reset();
        network.reset();
      }
    }
  }
  if (!traced) return;
  out.layers["workload.accesses"] = static_cast<double>(accesses);
  out.layers["traffic.messages"] = static_cast<double>(totals.messages_sent);
  out.layers["cmp.l1_hit_ratio"] =
      ratio(totals.l1_hits, totals.l1_hits + totals.l1_misses);
  out.layers["cmp.mshr_merge_ratio"] =
      ratio(totals.mshr_merges, totals.l1_misses);
  out.layers["cmp.inv_multicast_share"] =
      ratio(totals.inv_multicasts, totals.inv_messages);
  out.layers["cmp.inv_fanout_mean"] =
      ratio(totals.inv_targets, totals.inv_messages);
  out.layers["cmp.dram_conflict_ratio"] = ratio(
      totals.dram_conflicts, totals.dram_reads + totals.dram_writes);
  out.layers["cmp.makespan_ns"] = makespan_ns;
  out.layers["cmp.accesses_per_s"] =
      ratio(static_cast<double>(totals.accesses), run_s);
}

// ---------------------------------------------------------------------------

double cpu_seconds() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer metrics of one traced pass, from its spans [first, end) and
/// what the workload observed.
Json layer_metrics(const Tracer& tracer, std::size_t first,
                   const PassResult& pass, std::uint64_t spills,
                   std::uint64_t spill_reuses) {
  std::map<std::string, double> m;
  for (const char* name : kLayerMetrics) m[name] = 0.0;
  for (const auto& [name, value] : pass.layers) {
    if (m.count(name) != 0) {
      m[name] = value;
    }
  }
  const Observed& o = pass.observed;
  const double sim_run = tracer.self_total("sim.run", first);
  const double power_run = tracer.self_total("power.run", first);
  m["sim.events"] = static_cast<double>(pass.events);
  m["sim.events_per_flit_hop"] = ratio(pass.hop_events, pass.flit_hops);
  m["sim.run_s"] = sim_run;
  m["sim.ns_per_event"] =
      1e9 * ratio(sim_run + power_run, static_cast<double>(pass.events));
  m["sim.pending_peak"] = static_cast<double>(o.pending_peak);
  m["sim.overflow_pending_peak"] =
      static_cast<double>(o.overflow_pending_peak);
  m["noc.flit_hops"] = static_cast<double>(pass.flit_hops);
  m["noc.stall_ps_per_flit_hop"] = ratio(o.stall_ps, pass.flit_hops);
  m["noc.destset_spill_allocs"] = static_cast<double>(spills);
  m["noc.destset_spill_reuses"] = static_cast<double>(spill_reuses);
  m["noc.arena_reserved_mb"] =
      static_cast<double>(o.arena_reserved_peak) / (1024.0 * 1024.0);
  m["nodes.kills_per_delivered_flit"] = ratio(o.kills, pass.delivered_flits);
  m["nodes.prealloc_hit_ratio"] =
      ratio(o.prealloc_hits, o.prealloc_hits + o.prealloc_misses);
  m["nodes.contended_grants"] = static_cast<double>(o.contended_grants);
  m["nodes.watchdog_releases"] = static_cast<double>(o.watchdog_releases);
  m["core.build_s"] = tracer.total("core.build", first);
  m["core.teardown_s"] = tracer.total("core.teardown", first);
  m["workload.synth_s"] = tracer.total("workload.synth", first);
  m["cmp.run_s"] = tracer.total("cmp.run", first);
  m["stats.saturation_s"] = tracer.total("stats.saturation_grid", first);
  m["stats.latency_s"] = tracer.total("stats.latency_sweep", first);
  m["stats.power_s"] = tracer.total("stats.power_sweep", first);
  m["power.run_s"] = power_run;
  m["stats.codec_s"] = tracer.total("stats.codec", first);
  for (const auto& [layer, self] : tracer.self_time_by_layer(first)) {
    const std::string name = "self." + layer + "_s";
    if (m.count(name) != 0) m[name] = self;
  }
  Json json = Json::object();
  for (const auto& [name, value] : m) json.set(name, value);
  return json;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// The measurement guard: timings from an unoptimized or instrumented
/// build are not this benchmark's numbers.
std::string build_problem() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the build is sanitized";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string::npos) {
    return "the build is sanitized";
  }
  return {};
}

int run(const Options& options) {
  // `warmup` is true for pass 0, the run's reference.
  using PassFn = void (*)(const Options&, bool traced, bool warmup, Tracer&,
                          PassResult&);
  static const std::map<std::string, PassFn> kWorkloads = {
      {"paper_8x8",
       [](const Options& o, bool traced, bool warmup, Tracer& t,
          PassResult& r) { paper_pass(o.seed, traced, warmup, t, r); }},
      {"radix256_pdes",
       [](const Options& o, bool traced, bool, Tracer& t, PassResult& r) {
         // Four workers, never more than the host has.
         const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
         radix_pass(o.seed, std::min(4u, cores), traced, t, r);
       }},
      {"cmp_64",
       [](const Options& o, bool traced, bool, Tracer& t, PassResult& r) {
         cmp_pass(o.seed, traced, t, r);
       }},
  };
  const auto it = kWorkloads.find(options.workload);
  if (it == kWorkloads.end()) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  Tracer tracer;
  Json passes = Json::array();
  std::vector<double> pass_times;
  std::uint64_t reference_hops = 0;
  std::uint64_t reference_delivered = 0;
  const double start = tracer.now();
  // The untraced warm-up is the fingerprint reference for every later
  // pass; a run times at least one pass of each kind it reports.
  const std::size_t min_passes = options.trace ? 3 : 2;
  for (std::size_t index = 0;; ++index) {
    const bool traced = options.trace && index % 2 == 1;
    const std::size_t first = tracer.spans().size();
    // Each pass starts from an empty DestSet spill pool, as a fresh process
    // does, so spill allocations are counted and paid on every pass.
    noc::DestSet::trim_spill_pool();
    const double cpu_before = cpu_seconds();
    const std::uint64_t spills_before = noc::DestSet::spill_allocations();
    const std::uint64_t reuses_before = noc::DestSet::spill_reuses();
    PassResult result;
    int pass_span = -1;
    {
      Tracer::Scope span(tracer, "pass", "bench");
      pass_span = span.id();
      it->second(options, traced, index == 0, tracer, result);
    }
    if (index == 0) {
      reference_hops = result.flit_hops;
      reference_delivered = result.delivered_flits;
    } else if (!result.hops_counted) {
      result.flit_hops = reference_hops;
      result.delivered_flits = reference_delivered;
    }
    const double cpu = cpu_seconds() - cpu_before;
    const double pass_s = tracer.span(pass_span).duration();
    double setup_s = 0.0;
    for (std::size_t i = first; i < tracer.spans().size(); ++i) {
      if (is_setup_span(tracer.spans()[i].name)) {
        setup_s += tracer.spans()[i].duration();
      }
    }
    Json pass = Json::object();
    pass.set("warmup", index == 0);
    pass.set("traced", traced);
    pass.set("setup_s", setup_s);
    pass.set("wall_s", pass_s - setup_s);
    pass.set("cpu_s", cpu);
    pass.set("flit_hops", result.flit_hops);
    pass.set("hop_time_s", result.hop_time_s);
    Json cells = Json::array();
    for (const Cell& cell : result.cells) {
      Json c = Json::object();
      c.set("key", cell.key);
      c.set("fp", cell.fp);
      c.set("ok", cell.ok);
      if (!cell.ok) c.set("error", cell.error);
      cells.push_back(std::move(c));
    }
    pass.set("cells", std::move(cells));
    Json accuracy = Json::object();
    for (const auto& [name, value] : result.layers) {
      if (name.rfind("accuracy.", 0) == 0) accuracy.set(name, value);
    }
    pass.set("accuracy", std::move(accuracy));
    if (traced) {
      pass.set("layers",
               layer_metrics(tracer, first, result,
                             noc::DestSet::spill_allocations() - spills_before,
                             noc::DestSet::spill_reuses() - reuses_before));
    }
    passes.push_back(std::move(pass));
    pass_times.push_back(pass_s);

    std::vector<double> sorted = pass_times;
    std::sort(sorted.begin(), sorted.end());
    const double typical = sorted[sorted.size() / 2];
    if (index + 1 >= min_passes &&
        tracer.now() - start + typical > options.seconds) {
      break;
    }
  }

  Json doc = Json::object();
  doc.set("workload", options.workload);
  doc.set("seed", options.seed);
  doc.set("peak_rss_mb", peak_rss_mb());
  Json build = Json::object();
  build.set("build_type", PERFBENCH_BUILD_TYPE);
  build.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  build.set("compiler", __VERSION__);
  build.set("hardware_concurrency", std::thread::hardware_concurrency());
  doc.set("build", std::move(build));
  doc.set("passes", std::move(passes));
  if (!options.trace_out.empty()) tracer.write_chrome_json(options.trace_out);
  std::printf("%s\n", util::json_write(doc).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  specnoc::util::CliParser cli(
      "perfbench_driver",
      "Runs one benchmark workload for a host-time budget and prints its "
      "per-pass samples as JSON.");
  cli.add_string("--workload", &options.workload,
                 "paper_8x8 | radix256_pdes | cmp_64");
  cli.add_uint64("--seed", &options.seed, "workload seed");
  cli.add_double("--seconds", &options.seconds, "host-time budget");
  cli.add_flag("--trace", &options.trace,
               "alternate untraced and traced passes; report layer metrics");
  cli.add_string("--trace-out", &options.trace_out,
                 "write the spans as Chrome trace-event JSON to this path");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const specnoc::ConfigError& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n%s", error.what(),
                 cli.usage().c_str());
    return 2;
  }
  const std::string problem = perfbench::build_problem();
  if (!problem.empty()) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to measure: %s; configure "
                 "with -DCMAKE_BUILD_TYPE=Release and no sanitizers\n",
                 problem.c_str());
    return 3;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
