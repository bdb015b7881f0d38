#include "workload/replay.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/mot_network.h"
#include "sim/partitioned_scheduler.h"
#include "stats/recorder.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/record.h"
#include "workload/synth.h"

namespace specnoc::workload {
namespace {

using namespace specnoc::literals;
using core::Architecture;

struct ReplayOutput {
  std::uint64_t flits_ejected = 0;
  std::vector<TimePs> latencies;
};

/// Replays `trace` in timed mode on a fresh network of `arch`, stopping at
/// `horizon` like the run that produced it. `sim_threads` selects the
/// partitioned kernel; `workers` != 0 then lowers its worker count below
/// the lane count after build.
ReplayOutput timed_replay(Architecture arch, const Trace& trace,
                          TimePs horizon, unsigned sim_threads = 1,
                          std::uint32_t workers = 0) {
  core::NetworkConfig cfg;
  cfg.sim_threads = sim_threads;
  core::MotNetwork network(arch, cfg);
  if (workers != 0) {
    sim::PartitionedScheduler* ps = network.net().partitioned_scheduler();
    EXPECT_NE(ps, nullptr);
    if (ps != nullptr) {
      ps->set_threads(workers);
      EXPECT_EQ(ps->workers(), workers);
    }
  }
  stats::TrafficRecorder recorder(network.net().packets());
  TraceReplayDriver driver(network, trace,
                           {ReplayMode::kTimed, /*measured=*/true});
  driver.set_downstream(&recorder);
  network.net().hooks().traffic = &driver;
  recorder.open_window(0);
  driver.start();
  network.net().run_until(horizon);
  recorder.close_window(horizon);
  return {recorder.window_flits_ejected(), recorder.measured_latencies()};
}

/// The record -> replay round trip: capture an open-loop Multicast10 run
/// into a trace, replay it in timed mode on an identical network, and the
/// delivered flit counts and per-message latency records come back
/// byte-identical — the replay re-issues the exact send_message() sequence.
TEST(ReplayRoundTripTest, CapturedRunReplaysByteIdentical) {
  constexpr TimePs kHorizon = 200_ns;
  for (const auto arch :
       {Architecture::kBaseline, Architecture::kOptHybridSpeculative}) {
    core::MotNetwork network(arch, core::NetworkConfig{});
    TraceRecorder capture(network.net().packets(), network.endpoints(),
                          "capture-test");
    stats::TrafficRecorder recorder(network.net().packets());
    capture.set_downstream(&recorder);
    network.net().hooks().traffic = &capture;
    auto pattern = traffic::make_benchmark(traffic::BenchmarkId::kMulticast10,
                                           network.endpoints());
    traffic::DriverConfig dcfg;
    dcfg.flits_per_ns_per_source = 0.3;
    dcfg.seed = 11;
    traffic::TrafficDriver driver(network, *pattern, dcfg);
    driver.set_measured(true);
    driver.start();
    recorder.open_window(0);
    network.scheduler().run_until(kHorizon);
    recorder.close_window(kHorizon);

    const Trace trace = capture.trace();
    ASSERT_GT(trace.records.size(), 10u);
    const auto replayed = timed_replay(arch, trace, kHorizon);
    EXPECT_EQ(replayed.flits_ejected, recorder.window_flits_ejected())
        << core::to_string(arch);
    EXPECT_EQ(replayed.latencies, recorder.measured_latencies())
        << core::to_string(arch);
  }
}

TEST(ReplayTest, TimedReplayIsDeterministic) {
  const Trace trace = make_synth_workload(SynthId::kCoherence, 8, 5, 3);
  const auto a = timed_replay(Architecture::kOptHybridSpeculative, trace,
                              1000_ns);
  const auto b = timed_replay(Architecture::kOptHybridSpeculative, trace,
                              1000_ns);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.latencies, b.latencies);
}

/// Timed replay under the partitioned kernel: per-message latency records
/// and delivered flit counts are a pure function of (network, trace) — the
/// worker-thread count never changes them. The reference runs 4 lanes on
/// one worker; sim_threads 2 and 4 run that many lanes and workers.
TEST(ReplayTest, TimedReplayIsWorkerCountInvariantUnderPartitions) {
  const Trace trace = make_synth_workload(SynthId::kCoherence, 8, 5, 3);
  auto reference = timed_replay(Architecture::kOptHybridSpeculative, trace,
                                1000_ns, /*sim_threads=*/4, /*workers=*/1);
  EXPECT_GT(reference.flits_ejected, 0u);
  // The recorder's latency list is push-ordered by hook arrival, which is
  // wall-clock dependent across workers; the multiset of latencies is the
  // invariant, so compare sorted.
  std::sort(reference.latencies.begin(), reference.latencies.end());
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    auto run = timed_replay(Architecture::kOptHybridSpeculative, trace,
                            1000_ns, threads, /*workers=*/threads);
    std::sort(run.latencies.begin(), run.latencies.end());
    EXPECT_EQ(run.flits_ejected, reference.flits_ejected);
    EXPECT_EQ(run.latencies, reference.latencies);
  }
}

/// Closed-loop replay feeds delivery times back into the injection
/// schedule with no lookahead, which the window protocol cannot honor —
/// pinned: requesting it on a partitioned network is a ConfigError, not a
/// silently different simulation.
TEST(ReplayTest, ClosedLoopOnPartitionedNetworkIsAConfigError) {
  const Trace trace = make_synth_workload(SynthId::kCoherence, 8, 5, 3);
  core::NetworkConfig cfg;
  cfg.sim_threads = 2;
  core::MotNetwork network(Architecture::kOptHybridSpeculative, cfg);
  ASSERT_TRUE(network.net().partitioned());
  TraceReplayDriver driver(network, trace,
                           {ReplayMode::kClosedLoop, /*measured=*/true});
  network.net().hooks().traffic = &driver;
  EXPECT_THROW(driver.start(), ConfigError);
}

/// Randomized dependency DAG over 8 endpoints: every message picks a
/// source, a destination set excluding the source, up to 3 backward
/// dependencies, and a local delay.
Trace random_dag(std::uint32_t n, std::size_t messages, std::uint64_t seed) {
  Rng rng(seed);
  Trace trace;
  trace.meta.n = n;
  trace.meta.generator = "random-dag";
  for (std::size_t i = 0; i < messages; ++i) {
    TraceRecord rec;
    rec.id = i;
    rec.src = static_cast<std::uint32_t>(rng.uniform_below(n));
    const auto num_dests = 1 + rng.uniform_below(3);
    for (const std::uint32_t pick : rng.sample_without_replacement(
             n - 1, static_cast<std::uint32_t>(num_dests))) {
      rec.dests |= noc::DestSet::single(pick >= rec.src ? pick + 1 : pick);
    }
    rec.size = 5;
    rec.earliest = static_cast<TimePs>(rng.uniform_below(4)) * 500;
    rec.delay = static_cast<TimePs>(rng.uniform_below(3)) * 700;
    if (i > 0) {
      std::set<std::uint64_t> deps;
      const auto num_deps = rng.uniform_below(4);  // 0..3
      for (std::uint64_t d = 0; d < num_deps; ++d) {
        deps.insert(rng.uniform_below(i));
      }
      rec.deps.assign(deps.begin(), deps.end());
    }
    trace.records.push_back(std::move(rec));
  }
  trace.validate();
  return trace;
}

using DepParam = std::tuple<Architecture, std::uint64_t>;

class ClosedLoopDepTest : public ::testing::TestWithParam<DepParam> {};

std::string dep_param_name(const ::testing::TestParamInfo<DepParam>& info) {
  const auto& [arch, seed] = info.param;
  return std::string(core::to_string(arch)) + "_s" + std::to_string(seed);
}

/// The dependency-ordering property: closed-loop replay never injects a
/// message before every one of its deps has delivered all headers, and
/// honors both the per-message earliest time and the post-dependency delay.
TEST_P(ClosedLoopDepTest, NeverInjectsBeforeDepsDelivered) {
  const auto& [arch, seed] = GetParam();
  const Trace trace = random_dag(8, 40, seed);
  core::MotNetwork network(arch, core::NetworkConfig{});
  TraceReplayDriver driver(network, trace,
                           {ReplayMode::kClosedLoop, /*measured=*/true});
  network.net().hooks().traffic = &driver;
  driver.start();
  network.scheduler().run();

  ASSERT_TRUE(driver.finished())
      << driver.messages_delivered() << "/" << trace.records.size()
      << " messages delivered";
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const auto& rec = trace.records[i];
    const TimePs injected = driver.injection_time(i);
    ASSERT_GE(injected, TimePs{0}) << "message " << rec.id;
    EXPECT_GE(injected, rec.earliest) << "message " << rec.id;
    TimePs ready = 0;
    for (const std::uint64_t dep : rec.deps) {
      const TimePs dep_delivered = driver.delivery_time(dep);
      ASSERT_GE(dep_delivered, TimePs{0})
          << "dep " << dep << " of message " << rec.id;
      EXPECT_LE(dep_delivered, injected)
          << "message " << rec.id << " injected before dep " << dep;
      ready = std::max(ready, dep_delivered);
    }
    if (!rec.deps.empty()) {
      EXPECT_GE(injected, ready + rec.delay) << "message " << rec.id;
    }
    EXPECT_GT(driver.delivery_time(i), injected) << "message " << rec.id;
  }
  // The makespan is the last header delivery; the network may still drain
  // body flits and handshakes afterwards.
  EXPECT_LE(driver.completion_time(), network.scheduler().now());
  EXPECT_GT(driver.completion_time(), TimePs{0});
}

INSTANTIATE_TEST_SUITE_P(
    ArchsAndSeeds, ClosedLoopDepTest,
    ::testing::Combine(::testing::ValuesIn(core::all_architectures()),
                       ::testing::Values(1u, 2u, 3u)),
    dep_param_name);

TEST(ReplayTest, RejectsTraceThatDoesNotFitNetwork) {
  core::MotNetwork network(Architecture::kOptNonSpeculative,
                           core::NetworkConfig{});  // 8 endpoints, 5 flits
  {
    Trace trace = make_synth_workload(SynthId::kDnnLayers, 16, 5, 1);
    EXPECT_THROW(TraceReplayDriver(network, trace), ConfigError);
  }
  {
    Trace trace = make_synth_workload(SynthId::kDnnLayers, 8, 3, 1);
    EXPECT_THROW(TraceReplayDriver(network, trace), ConfigError);
  }
}

TEST(ReplayTest, ModeNamesRoundTripAndErrorListsValidModes) {
  EXPECT_EQ(replay_mode_from_string("timed"), ReplayMode::kTimed);
  EXPECT_EQ(replay_mode_from_string("closed"), ReplayMode::kClosedLoop);
  EXPECT_STREQ(to_string(ReplayMode::kTimed), "timed");
  EXPECT_STREQ(to_string(ReplayMode::kClosedLoop), "closed");
  try {
    replay_mode_from_string("open");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed"), std::string::npos) << what;
    EXPECT_NE(what.find("closed"), std::string::npos) << what;
  }
}

/// Counts raw packet injections behind the recorder, to observe the
/// Baseline's multicast -> unicast expansion directly.
class InjectionCounter final : public noc::TrafficObserver {
 public:
  void on_packet_injected(const noc::Packet& /*packet*/,
                          TimePs /*when*/) override {
    ++injected;
  }
  void on_flit_ejected(const noc::Packet& /*packet*/, std::uint32_t /*dest*/,
                       noc::FlitKind /*kind*/, TimePs /*when*/) override {}
  std::uint64_t injected = 0;
};

/// Satellite regression for large-radix capture: on a 256-endpoint Baseline
/// network every logical multicast is expanded into one unicast packet per
/// destination (all sharing a MessageId). The recorder must collapse that
/// expansion back to ONE record per logical message, keep the full DestSet,
/// and the resulting schema-2 trace (hex dests, n > 64) must round-trip
/// byte-identically.
TEST(TraceRecorderTest, Radix256BaselineCollapsesUnicastExpansion) {
  core::NetworkConfig cfg;
  cfg.n = 256;
  core::MotNetwork network(Architecture::kBaseline, cfg);
  TraceRecorder capture(network.net().packets(), network.endpoints(),
                        "radix256-capture");
  InjectionCounter counter;
  capture.set_downstream(&counter);
  network.net().hooks().traffic = &capture;

  // 12 logical multicasts with fan-outs spanning both DestSet words,
  // including dests >= 64 (only representable by schema 2).
  std::uint64_t expanded = 0;
  std::vector<noc::DestSet> sent;
  for (std::uint32_t m = 0; m < 12; ++m) {
    noc::DestSet dests;
    const std::uint32_t fan_out = 2 + m;
    for (std::uint32_t d = 0; d < fan_out; ++d) {
      dests |= noc::DestSet::single((31 + 83 * m + 17 * d) % 256);
    }
    network.send_message(/*src=*/m % 256, dests, /*measured=*/false);
    expanded += dests.count();
    sent.push_back(dests);
  }
  network.scheduler().run();

  const Trace trace = capture.trace();
  ASSERT_EQ(trace.records.size(), sent.size());
  EXPECT_EQ(counter.injected, expanded);  // expansion really happened
  EXPECT_GT(counter.injected, trace.records.size());
  for (std::size_t m = 0; m < sent.size(); ++m) {
    EXPECT_EQ(trace.records[m].dests, sent[m]) << "message " << m;
  }

  const std::string bytes = trace_to_string(trace);
  EXPECT_NE(bytes.find("\"schema\":2"), std::string::npos);
  std::istringstream in(bytes);
  const Trace back = read_trace(in, "radix256-roundtrip");
  EXPECT_EQ(trace_to_string(back), bytes);
}

}  // namespace
}  // namespace specnoc::workload
