// E8 — google-benchmark microbenchmarks of the simulation kernel and the
// end-to-end simulator (events/sec, simulated-ns/sec).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "core/mot_network.h"
#include "noc/hooks.h"
#include "sim/partitioned_scheduler.h"
#include "sim/scheduler.h"
#include "stats/metrics.h"
#include "stats/recorder.h"
#include "stats/telemetry.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"

namespace {

using namespace specnoc;
using namespace specnoc::literals;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule(static_cast<TimePs>(i % 97),
                     [&sum, i] { sum += i; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(65536);

void BM_SchedulerCascade(benchmark::State& state) {
  // Event handlers that schedule follow-ups: the simulator's hot pattern.
  // The chain uses the kernel's native event type — exactly what the
  // pre-rewrite bench did, when the native EventFn was std::function.
  struct Tick {
    sim::Scheduler* sched;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) sched->schedule(3, Tick{sched, remaining});
    }
  };
  for (auto _ : state) {
    sim::Scheduler sched;
    int remaining = 100000;
    sched.schedule(0, Tick{&sched, &remaining});
    sched.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_SchedulerCascade);

// Delay values the simulator actually schedules, from
// nodes/characteristics.cpp: switch/channel handshake latencies for the
// five architectures, NI issue/consume delays, and the 900 ps fanin
// watchdog timeout.
constexpr TimePs kMixedDelays[] = {50,  52,  110, 120, 130, 140,
                                   150, 263, 279, 299, 350, 900};

void BM_SchedulerMixedDelays(benchmark::State& state) {
  // 64 concurrent self-rescheduling chains with the realistic delay mix
  // above, plus a rare ~20 ns retirement timer that lands beyond the
  // bucket-queue window and exercises the overflow tier.
  struct Tick {
    sim::Scheduler* sched;
    int* remaining;
    std::uint32_t rng;
    void operator()() const {
      if (--*remaining <= 0) return;
      const std::uint32_t r = rng * 1664525u + 1013904223u;
      const TimePs delay =
          (r >> 26) == 0 ? 20000
                         : kMixedDelays[(r >> 8) %
                                        (sizeof(kMixedDelays) /
                                         sizeof(kMixedDelays[0]))];
      sched->schedule(delay, Tick{sched, remaining, r});
    }
  };
  for (auto _ : state) {
    sim::Scheduler sched;
    sched.reserve(256);
    int remaining = 100000;
    for (std::uint32_t chain = 0; chain < 64; ++chain) {
      sched.schedule(static_cast<TimePs>(chain),
                     Tick{&sched, &remaining, chain * 2654435761u + 1u});
    }
    sched.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_SchedulerMixedDelays);

void BM_NetworkConstruction(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    core::NetworkConfig cfg;
    cfg.n = n;
    core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
    benchmark::DoNotOptimize(net.total_node_area());
  }
}
BENCHMARK(BM_NetworkConstruction)->Arg(8)->Arg(16)->Arg(32);

void BM_SaturatedSimulation(benchmark::State& state) {
  // Simulated nanoseconds per wall second under backlogged uniform load.
  const auto arch = static_cast<core::Architecture>(state.range(0));
  for (auto _ : state) {
    core::NetworkConfig cfg;
    core::MotNetwork net(arch, cfg);
    stats::TrafficRecorder rec(net.net().packets());
    net.net().hooks().traffic = &rec;
    auto pattern = traffic::make_benchmark(
        traffic::BenchmarkId::kUniformRandom, 8);
    traffic::DriverConfig dcfg;
    dcfg.mode = traffic::InjectionMode::kBacklogged;
    dcfg.seed = 7;
    traffic::TrafficDriver driver(net, *pattern, dcfg);
    driver.start();
    net.scheduler().run_until(1000_ns);
    benchmark::DoNotOptimize(net.scheduler().executed());
  }
  state.SetLabel("1000 simulated ns per iteration");
}
BENCHMARK(BM_SaturatedSimulation)
    ->Arg(static_cast<int>(core::Architecture::kBaseline))
    ->Arg(static_cast<int>(core::Architecture::kOptHybridSpeculative))
    ->Arg(static_cast<int>(core::Architecture::kOptAllSpeculative));

void BM_PartitionedSaturatedSimulation(benchmark::State& state) {
  // The BM_SaturatedSimulation OptHybridSpeculative run under the
  // partitioned kernel: 8 per-tree partitions on the 8x8 MoT, built with
  // sim_threads = Arg, so Arg execution lanes each run by one worker.
  // Results are byte-identical to sequential for this workload (see
  // kernel_determinism_test.cpp), so wall time is the only thing that
  // varies.
  //
  // Wall time is honest but only meaningful when the host has as many free
  // cores as workers; `model_speedup` is the machine-independent number:
  // total events / the largest per-worker event share under the contiguous
  // partition blocks the lanes run (the per-window critical path, ignoring
  // barrier cost).
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  double model_speedup = 0.0;
  for (auto _ : state) {
    core::NetworkConfig cfg;
    cfg.sim_threads = threads;
    core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
    stats::TrafficRecorder rec(net.net().packets());
    net.net().hooks().traffic = &rec;
    auto pattern = traffic::make_benchmark(
        traffic::BenchmarkId::kUniformRandom, 8);
    traffic::DriverConfig dcfg;
    dcfg.mode = traffic::InjectionMode::kBacklogged;
    dcfg.seed = 7;
    traffic::TrafficDriver driver(net, *pattern, dcfg);
    driver.start();
    net.net().run_until(1000_ns);
    sim::PartitionedScheduler& psched = *net.net().partitioned_scheduler();
    events = psched.executed();
    windows = psched.windows();
    const std::vector<std::uint64_t> partition_events =
        psched.per_lane_executed();
    std::vector<std::uint64_t> share(psched.execution_lanes(), 0);
    for (std::uint32_t p = 0; p < psched.lanes(); ++p) {
      share[psched.lane_of(p)] += partition_events[p];
    }
    model_speedup = static_cast<double>(events) /
                    static_cast<double>(
                        *std::max_element(share.begin(), share.end()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["windows"] =
      benchmark::Counter(static_cast<double>(windows));
  state.counters["model_speedup"] = benchmark::Counter(model_speedup);
  state.SetLabel("1000 simulated ns per iteration, 8 partitions");
}
BENCHMARK(BM_PartitionedSaturatedSimulation)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_TelemetrySampledSimulation(benchmark::State& state) {
  // Sampler overhead on the saturated 8x8 run: a MetricsRegistry is always
  // attached; Arg > 0 additionally arms a TelemetrySampler on it, sampling
  // every Arg simulated ns. The headline is items_per_second (kernel
  // events/wall second): the Arg 50 / Arg 0 ratio is the sampling cost,
  // recorded in BENCH_telemetry.json (budget: <= 2%).
  const auto epoch_ns = static_cast<TimePs>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::NetworkConfig cfg;
    core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
    stats::MetricsRegistry registry;
    stats::TelemetryOptions topts;
    topts.epoch_ps = epoch_ns * 1000;
    stats::TelemetrySampler sampler(topts);
    net.net().hooks().metrics = &registry;
    if (epoch_ns > 0) sampler.arm(net.net(), registry);
    auto pattern = traffic::make_benchmark(
        traffic::BenchmarkId::kUniformRandom, 8);
    traffic::DriverConfig dcfg;
    dcfg.mode = traffic::InjectionMode::kBacklogged;
    dcfg.seed = 7;
    traffic::TrafficDriver driver(net, *pattern, dcfg);
    driver.start();
    net.scheduler().run_until(1000_ns);
    events = net.scheduler().executed();
    if (epoch_ns > 0) {
      const stats::TelemetrySeries series = sampler.finish();
      benchmark::DoNotOptimize(series.epochs.size());
    }
    benchmark::DoNotOptimize(registry.snapshot().total_kills());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.SetLabel(epoch_ns == 0 ? "metrics only, no sampling"
                               : "sampled epochs over 1000 simulated ns");
}
BENCHMARK(BM_TelemetrySampledSimulation)->Arg(0)->Arg(50)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
