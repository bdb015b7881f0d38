// PartitionedScheduler unit tests plus differential checks of the
// partitioned kernel against the sequential one: the window protocol is
// supposed to be invisible — same events, same statistics, same metrics —
// so every test here compares a partitioned run against its sequential
// twin or pins the declared configuration errors.
#include "sim/partitioned_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../support/test_nodes.h"
#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "mesh/mesh_topology.h"
#include "noc/network.h"
#include "noc/partition.h"
#include "noc/sink.h"
#include "noc/source.h"
#include "sim/shard.h"
#include "stats/metrics.h"
#include "stats/recorder.h"
#include "stats/serialization.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "util/error.h"
#include "util/json.h"

namespace specnoc {
namespace {

using namespace specnoc::literals;
using specnoc::noc::PartitionStrategy;

TEST(PartitionedSchedulerTest, WindowsCoverAllLanesAndSumEvents) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 3, 100, 3);
  EXPECT_EQ(ps.lanes(), 3u);
  EXPECT_EQ(ps.lookahead(), 100);

  int ran = 0;
  ps.lane(0).schedule_at(10, [&] { ++ran; });
  ps.lane(1).schedule_at(40, [&] { ++ran; });
  ps.lane(2).schedule_at(250, [&] { ++ran; });
  ps.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(ps.executed(), 3u);
  EXPECT_EQ(ps.pending(), 0u);
  // Window 1 starts at the global minimum (10) and spans the lookahead, so
  // it covers both the t=10 and t=40 events; the t=250 event needs its own.
  EXPECT_EQ(ps.windows(), 2u);
}

TEST(PartitionedSchedulerTest, RunUntilAdvancesEveryLaneClock) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 2, 50, 2);
  ps.lane(1).schedule_at(30, [] {});
  ps.run_until(500);
  EXPECT_EQ(ps.lane(0).now(), 500);
  EXPECT_EQ(ps.lane(1).now(), 500);
  EXPECT_EQ(ps.now(), 500);
}

TEST(PartitionedSchedulerTest, StagedDrainsRunInRegistrationOrder) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 3, 100, 3);
  std::vector<std::string> log;
  const std::uint32_t first =
      ps.add_drain(1, 0, [&] { log.push_back("first"); });
  const std::uint32_t second =
      ps.add_drain(2, 0, [&] { log.push_back("second"); });
  // Mark dirty in reverse, from different producer lanes: the barrier must
  // still run them in registration (channel-creation) order.
  ps.note_dirty(second);
  ps.note_dirty(first);
  ps.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "first");
  EXPECT_EQ(log[1], "second");
}

TEST(PartitionedSchedulerTest, ThreadCountClampsToAtLeastOne) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 2, 50, 2);
  ps.set_threads(0);
  EXPECT_EQ(ps.threads(), 1u);
  ps.set_threads(8);
  EXPECT_EQ(ps.threads(), 8u);
}

// ---------------------------------------------------------------------------
// Lane-count invariance. Partitions are the topology cut; execution lanes
// (event queues) only decide which partitions share a queue and a worker.
// A toy model of 8 partitions — each a chain of self-scheduled ticks with
// same-picosecond siblings, state that mixes in every received message, and
// mailboxes to its neighbours — must log exactly the same per-partition
// history, event counts, idle windows and window count on 1, 3 (uneven
// blocks 2/3/3) and 8 lanes, at any worker count.

class ToyModel {
 public:
  static constexpr std::uint32_t kPartitions = 8;
  static constexpr TimePs kLookahead = 100;

  explicit ToyModel(std::uint32_t lanes)
      : ps_(lane0_, kPartitions, kLookahead, lanes),
        state_(kPartitions),
        log_(kPartitions) {
    // Two mailboxes from p to p+1 (same producer and consumer, and on 3 or
    // fewer lanes mostly the same lane) plus one to p+3 (across lanes).
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      for (const std::uint32_t hop : {1u, 1u, 3u}) {
        add_box(p, (p + hop) % kPartitions);
      }
    }
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      state_[p] = 0x9e3779b97f4a7c15ull * (p + 1);
      ps_.lane(p).schedule_at(7 * p, [this, p] { tick(p, 60); });
    }
  }

  sim::PartitionedScheduler& ps() { return ps_; }
  const std::vector<std::vector<std::string>>& log() const { return log_; }

 private:
  struct Box {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t drain = 0;
    std::vector<std::pair<TimePs, std::uint64_t>> items;
  };

  void add_box(std::uint32_t from, std::uint32_t to) {
    const std::size_t index = boxes_.size();
    boxes_.push_back(std::make_unique<Box>());
    Box& box = *boxes_.back();
    box.from = from;
    box.to = to;
    box.drain = ps_.add_drain(from, to, [this, index] { drain(index); });
  }

  std::uint64_t mix(std::uint32_t p) {
    state_[p] = state_[p] * 6364136223846793005ull + 1442695040888963407ull;
    return state_[p] >> 33;
  }

  void record(std::uint32_t p, const char* what, std::uint64_t value) {
    log_[p].push_back(std::string(what) + "@" +
                      std::to_string(ps_.lane(p).now()) + ":" +
                      std::to_string(value) + ":" +
                      std::to_string(state_[p]));
  }

  void tick(std::uint32_t p, int left) {
    const std::uint64_t r = mix(p);
    record(p, "tick", static_cast<std::uint64_t>(left));
    if (left == 0) return;
    const sim::SchedulerRef sched = ps_.lane(p);
    const auto delay = static_cast<TimePs>(1 + r % 130);
    sched.schedule(delay, [this, p, left] { tick(p, left - 1); });
    // A same-picosecond sibling: FIFO order within the tick must hold.
    sched.schedule(delay, [this, p] { record(p, "echo", mix(p)); });
    const auto box = static_cast<std::uint32_t>(r % 4);
    if (box < 3) send(3 * p + box, r);  // boxes 3p..3p+2 belong to p
    // Quiet stretches make some partitions sit out whole windows.
    if (r % 11 == 0) {
      sched.schedule(4 * kLookahead, [this, p] { record(p, "late", mix(p)); });
    }
  }

  void send(std::uint32_t index, std::uint64_t payload) {
    Box& box = *boxes_[index];
    if (box.items.empty()) ps_.note_dirty(box.drain);
    // Arrivals snap to a 50 ps grid, so deliveries from different
    // mailboxes (and producers) into one partition often share a
    // picosecond: their order is then the drain order.
    const TimePs earliest = ps_.lane(box.from).now() + kLookahead;
    const TimePs at = (earliest + 49) / 50 * 50 +
                      static_cast<TimePs>(payload % 2) * 50;
    box.items.emplace_back(at, payload);
  }

  void drain(std::size_t index) {
    Box& box = *boxes_[index];
    const std::uint32_t to = box.to;
    for (const auto& [at, payload] : box.items) {
      ps_.lane(to).schedule_at(at, [this, to, payload = payload] {
        state_[to] ^= payload;
        record(to, "recv", payload);
      });
    }
    box.items.clear();
  }

  sim::Scheduler lane0_;
  sim::PartitionedScheduler ps_;
  std::vector<std::uint64_t> state_;
  std::vector<std::vector<std::string>> log_;
  std::vector<std::unique_ptr<Box>> boxes_;
};

struct ToyRun {
  std::vector<std::vector<std::string>> log;
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> idle_windows;
  std::uint64_t windows = 0;
  std::uint64_t total = 0;
};

ToyRun run_toy(std::uint32_t lanes, std::uint32_t workers) {
  ToyModel model(lanes);
  sim::PartitionedScheduler& ps = model.ps();
  EXPECT_EQ(ps.lanes(), ToyModel::kPartitions);
  EXPECT_EQ(ps.execution_lanes(), lanes);
  ps.set_threads(workers);
  ps.run_until(1500);  // a horizon mid-run, then run to completion
  ps.run();
  ToyRun run;
  run.log = model.log();
  run.executed = ps.per_lane_executed();
  run.idle_windows = ps.per_lane_idle_windows();
  run.windows = ps.windows();
  run.total = ps.executed();
  return run;
}

TEST(PartitionedSchedulerTest, LaneCountNeverChangesPartitionHistories) {
  const ToyRun reference = run_toy(ToyModel::kPartitions, 1);
  ASSERT_EQ(reference.log.size(), ToyModel::kPartitions);
  std::uint64_t sum = 0;
  for (std::uint32_t p = 0; p < ToyModel::kPartitions; ++p) {
    EXPECT_GT(reference.log[p].size(), 60u) << p;
    sum += reference.executed[p];
  }
  EXPECT_EQ(sum, reference.total);
  std::uint64_t idle = 0;
  for (const std::uint64_t windows : reference.idle_windows) idle += windows;
  EXPECT_GT(idle, 0u);  // the idle-window accounting is exercised
  for (const std::uint32_t lanes : {1u, 3u, 8u}) {
    for (const std::uint32_t workers : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " workers=" + std::to_string(workers));
      const ToyRun run = run_toy(lanes, workers);
      EXPECT_EQ(run.log, reference.log);
      EXPECT_EQ(run.executed, reference.executed);
      EXPECT_EQ(run.idle_windows, reference.idle_windows);
      EXPECT_EQ(run.windows, reference.windows);
      EXPECT_EQ(run.total, reference.total);
    }
  }
}

TEST(PartitionedSchedulerTest, PartitionsMapToContiguousLaneBlocks) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 8, 100, 3);
  EXPECT_EQ(ps.execution_lanes(), 3u);
  const std::uint32_t expected[] = {0, 0, 1, 1, 1, 2, 2, 2};
  for (std::uint32_t p = 0; p < 8; ++p) EXPECT_EQ(ps.lane_of(p), expected[p]);
  // Lane 0 is the external scheduler; every handle stamps its partition.
  EXPECT_EQ(&ps.lane(1).scheduler(), &lane0);
  EXPECT_NE(&ps.lane(2).scheduler(), &lane0);
  EXPECT_EQ(&ps.lane(6).scheduler(), &ps.lane(7).scheduler());
  EXPECT_EQ(ps.lane(6).tag(), 6u);
  // Lane counts clamp to [1, partitions].
  sim::PartitionedScheduler wide(lane0, 4, 100, 16);
  EXPECT_EQ(wide.execution_lanes(), 4u);
  sim::PartitionedScheduler none(lane0, 4, 100, 0);
  EXPECT_EQ(none.execution_lanes(), 1u);
}

TEST(PartitionedNetworkTest, SingleLaneEnableIsANoOp) {
  noc::Network net;
  net.enable_partitions(1, 0, 1);  // degenerate: must not throw, no partitions
  EXPECT_FALSE(net.partitioned());
  EXPECT_EQ(net.partitions(), 1u);
}

TEST(PartitionedNetworkTest, ZeroLookaheadIsAConfigError) {
  noc::Network net;
  EXPECT_THROW(net.enable_partitions(2, 0, 1), ConfigError);
}

TEST(PartitionedNetworkTest, CrossChannelBelowLookaheadIsAConfigError) {
  noc::Network net;
  net.enable_partitions(2, 50, 2);
  auto& src = net.add_node<noc::SourceNode>(0, 0);
  net.set_build_partition(1);
  auto& sink = net.add_node<noc::SinkNode>(0, 10);
  EXPECT_THROW(net.add_channel({.delay_fwd = 10, .delay_ack = 10,
                                .length = 0},
                               "short", src, 0, sink, 0),
               ConfigError);
}

TEST(PartitionedNetworkTest, CrossChannelDeliversEndToEnd) {
  noc::Network net;
  net.enable_partitions(2, 50, 2);
  auto& src = net.add_node<noc::SourceNode>(0, 0);
  net.set_build_partition(1);
  auto& sink = net.add_node<noc::SinkNode>(7, 20);
  net.register_source(src);
  net.register_sink(sink);
  net.add_channel({.delay_fwd = 60, .delay_ack = 60, .length = 0}, "c", src,
                  0, sink, 0);
  ASSERT_TRUE(net.partitioned());

  const noc::Message& msg =
      net.packets().create_message(0, noc::DestSet::single(7), 0, true);
  const noc::Packet& pkt =
      net.packets().create_packet(msg, noc::DestSet::single(7), 3);
  src.enqueue_packet(pkt);
  net.run();
  EXPECT_EQ(sink.flits_consumed(), 3u);
}

TEST(PartitionedNetworkTest, MotZeroWireDelayFallsBackToSequential) {
  core::NetworkConfig cfg;
  cfg.sim_threads = 4;
  cfg.layout.wire_delay_ps_per_um = 0.0;  // lookahead would be zero
  core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
  EXPECT_FALSE(net.net().partitioned());
  EXPECT_EQ(net.net().partitions(), 1u);
}

TEST(PartitionedNetworkTest, MotPartitionStrategiesMapTreesToLanes) {
  core::NetworkConfig cfg;
  cfg.sim_threads = 2;
  core::MotNetwork tree(core::Architecture::kBaseline, cfg);
  EXPECT_EQ(tree.net().partitions(), 8u);  // auto = per-tree on MoT

  cfg.partition = PartitionStrategy::kQuadrant;
  core::MotNetwork quad(core::Architecture::kBaseline, cfg);
  EXPECT_EQ(quad.net().partitions(), 4u);

  cfg.partition = PartitionStrategy::kNone;
  core::MotNetwork none(core::Architecture::kBaseline, cfg);
  EXPECT_FALSE(none.net().partitioned());
}

TEST(PartitionedNetworkTest, MismatchedStrategiesAreConfigErrors) {
  core::NetworkConfig mot_cfg;
  mot_cfg.sim_threads = 2;
  mot_cfg.partition = PartitionStrategy::kRows;
  EXPECT_THROW(
      core::MotNetwork(core::Architecture::kBaseline, mot_cfg), ConfigError);

  mesh::MeshConfig mesh_cfg;
  mesh_cfg.sim_threads = 2;
  mesh_cfg.partition = PartitionStrategy::kTree;
  EXPECT_THROW(mesh::MeshNetwork{mesh_cfg}, ConfigError);
  mesh_cfg.partition = PartitionStrategy::kQuadrant;
  EXPECT_THROW(mesh::MeshNetwork{mesh_cfg}, ConfigError);
}

TEST(PartitionedNetworkTest, StrategyParsingReportsValidNames) {
  for (const PartitionStrategy s :
       {PartitionStrategy::kAuto, PartitionStrategy::kNone,
        PartitionStrategy::kTree, PartitionStrategy::kQuadrant,
        PartitionStrategy::kRows}) {
    EXPECT_EQ(noc::partition_strategy_from_string(noc::to_string(s)), s);
  }
  try {
    noc::partition_strategy_from_string("bogus");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("valid strategies"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: a partitioned run must equal its sequential twin in
// every simulation-visible statistic, metrics snapshot included.

struct RunResult {
  std::uint64_t executed = 0;
  std::uint64_t generated = 0;
  std::uint64_t injected = 0;
  std::uint64_t ejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t pending = 0;
  TimePs max_latency = 0;
  double mean_latency = 0.0;
  stats::MetricsSnapshot metrics;
};

template <typename Net>
RunResult drive(Net& net, traffic::BenchmarkId bench, std::uint64_t seed,
                TimePs horizon) {
  stats::TrafficRecorder rec(net.net().packets());
  net.net().hooks().traffic = &rec;
  stats::MetricsRegistry registry;
  net.net().hooks().metrics = &registry;
  auto pattern = traffic::make_benchmark(bench, net.endpoints());
  traffic::DriverConfig dcfg;
  dcfg.mode = traffic::InjectionMode::kBacklogged;
  dcfg.seed = seed;
  traffic::TrafficDriver driver(net, *pattern, dcfg);
  driver.set_measured(true);
  rec.open_window(0);
  driver.start();
  net.net().run_until(horizon);
  rec.close_window(net.net().now());
  if (sim::PartitionedScheduler* ps = net.net().partitioned_scheduler()) {
    stats::PdesMetrics pdes;
    pdes.lanes = ps->lanes();
    pdes.lookahead_ps = ps->lookahead();
    pdes.windows = ps->windows();
    pdes.lane_events = ps->per_lane_executed();
    pdes.lane_idle_windows = ps->per_lane_idle_windows();
    registry.record_pdes(std::move(pdes));
  }

  RunResult r;
  r.executed = net.net().executed();
  r.generated = driver.messages_generated();
  r.injected = rec.window_flits_injected();
  r.ejected = rec.window_flits_ejected();
  r.completed = rec.completed_measured();
  r.pending = rec.pending_measured();
  r.max_latency = rec.max_latency_ps();
  r.mean_latency = rec.mean_latency_ps();
  r.metrics = registry.snapshot();
  return r;
}

void expect_equal_runs(const RunResult& seq, const RunResult& par) {
  EXPECT_EQ(seq.executed, par.executed);
  EXPECT_EQ(seq.generated, par.generated);
  EXPECT_EQ(seq.injected, par.injected);
  EXPECT_EQ(seq.ejected, par.ejected);
  EXPECT_EQ(seq.completed, par.completed);
  EXPECT_EQ(seq.pending, par.pending);
  EXPECT_EQ(seq.max_latency, par.max_latency);
  EXPECT_EQ(seq.mean_latency, par.mean_latency);
  // Sites and channel classes must match entry-for-entry; the pdes section
  // is the one legitimate difference (absent on the sequential run).
  ASSERT_EQ(seq.metrics.sites.size(), par.metrics.sites.size());
  for (std::size_t i = 0; i < seq.metrics.sites.size(); ++i) {
    const auto& a = seq.metrics.sites[i];
    const auto& b = par.metrics.sites[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.counters.kills, b.counters.kills);
    EXPECT_EQ(a.counters.prealloc_hits, b.counters.prealloc_hits);
    EXPECT_EQ(a.counters.prealloc_misses, b.counters.prealloc_misses);
    EXPECT_EQ(a.counters.contended_grants, b.counters.contended_grants);
    EXPECT_EQ(a.counters.watchdog_releases, b.counters.watchdog_releases);
  }
  ASSERT_EQ(seq.metrics.channels.size(), par.metrics.channels.size());
  for (std::size_t i = 0; i < seq.metrics.channels.size(); ++i) {
    const auto& a = seq.metrics.channels[i];
    const auto& b = par.metrics.channels[i];
    EXPECT_EQ(a.klass, b.klass);
    EXPECT_EQ(a.stalls, b.stalls) << a.klass;
    EXPECT_EQ(a.stall_time_ps, b.stall_time_ps) << a.klass;
    EXPECT_EQ(a.histogram, b.histogram) << a.klass;
  }
}

struct MotCase {
  core::Architecture arch;
  traffic::BenchmarkId bench;
  PartitionStrategy strategy;
  std::uint32_t n;
  std::uint64_t seed;
};

// Configurations whose traffic produces no same-picosecond cross-partition
// ties: the partitioned kernel must reproduce the sequential kernel
// byte-for-byte (the golden 8x8 thread matrix in kernel_determinism_test
// pins the headline instance of this property).
TEST(PartitionedDifferentialTest, MotTieFreeConfigsMatchSequential) {
  const MotCase cases[] = {
      {core::Architecture::kOptHybridSpeculative,
       traffic::BenchmarkId::kUniformRandom, PartitionStrategy::kTree, 8, 11},
      {core::Architecture::kBasicHybridSpeculative,
       traffic::BenchmarkId::kShuffle, PartitionStrategy::kTree, 4, 17},
      {core::Architecture::kBaseline, traffic::BenchmarkId::kUniformRandom,
       PartitionStrategy::kQuadrant, 8, 13},
  };
  for (const MotCase& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.arch)) + "/" + to_string(c.bench) +
                 "/" + noc::to_string(c.strategy) + "/n" +
                 std::to_string(c.n) + "/s" + std::to_string(c.seed));
    core::NetworkConfig cfg;
    cfg.n = c.n;
    core::MotNetwork seq_net(c.arch, cfg);
    const RunResult seq = drive(seq_net, c.bench, c.seed, 400_ns);

    cfg.sim_threads = 4;
    cfg.partition = c.strategy;
    core::MotNetwork par_net(c.arch, cfg);
    ASSERT_TRUE(par_net.net().partitioned());
    const RunResult par = drive(par_net, c.bench, c.seed, 400_ns);
    expect_equal_runs(seq, par);
    EXPECT_FALSE(par.metrics.pdes.empty());
    EXPECT_EQ(par.metrics.pdes.lanes, par_net.net().partitions());
  }
}

// Worker layouts of the invariance tests below: sim_threads = 4 builds 4
// execution lanes; the 1-worker reference then drops to a single thread on
// those lanes (PartitionedScheduler::set_threads), and sim_threads = 2 and
// 4 run 2 and 4 real workers.
struct WorkerLayout {
  unsigned sim_threads;
  std::uint32_t workers;
};
constexpr WorkerLayout kWorkerLayouts[] = {{4, 1}, {2, 2}, {4, 4}};

// Applies `layout` to a freshly built partitioned network and checks that
// the requested worker count really runs.
void apply_layout(noc::Network& net, const WorkerLayout& layout) {
  sim::PartitionedScheduler* ps = net.partitioned_scheduler();
  ASSERT_NE(ps, nullptr);
  ASSERT_EQ(ps->execution_lanes(), layout.sim_threads);
  ps->set_threads(layout.workers);
  ASSERT_EQ(ps->workers(), layout.workers);
}

// The determinism contract proper: a partitioned run is a pure function of
// (topology, partition strategy) — the worker-thread and lane counts never
// change any statistic, metrics snapshot included. Exercised on tie-heavy
// multicast workloads, where cross-partition ties make the canonical merge
// order deliberately diverge from the historical sequential interleaving
// (DESIGN.md §9) but must stay byte-identical across worker counts.
TEST(PartitionedDifferentialTest, MotWorkerCountNeverChangesResults) {
  const MotCase cases[] = {
      {core::Architecture::kBaseline, traffic::BenchmarkId::kMulticast5,
       PartitionStrategy::kQuadrant, 8, 13},
      {core::Architecture::kOptNonSpeculative,
       traffic::BenchmarkId::kHotspot, PartitionStrategy::kQuadrant, 16, 19},
      {core::Architecture::kOptAllSpeculative,
       traffic::BenchmarkId::kMulticast10, PartitionStrategy::kTree, 8, 23},
      {core::Architecture::kOptHybridSpeculative,
       traffic::BenchmarkId::kMulticastStatic, PartitionStrategy::kTree, 8,
       29},
  };
  for (const MotCase& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.arch)) + "/" + to_string(c.bench) +
                 "/" + noc::to_string(c.strategy) + "/n" +
                 std::to_string(c.n) + "/s" + std::to_string(c.seed));
    core::NetworkConfig cfg;
    cfg.n = c.n;
    cfg.partition = c.strategy;
    RunResult reference;
    for (const WorkerLayout& layout : kWorkerLayouts) {
      SCOPED_TRACE("sim_threads=" + std::to_string(layout.sim_threads) +
                   " workers=" + std::to_string(layout.workers));
      cfg.sim_threads = layout.sim_threads;
      core::MotNetwork net(c.arch, cfg);
      ASSERT_NO_FATAL_FAILURE(apply_layout(net.net(), layout));
      const RunResult run = drive(net, c.bench, c.seed, 400_ns);
      if (layout.workers == 1u) {
        reference = run;
      } else {
        expect_equal_runs(reference, run);
        EXPECT_EQ(reference.metrics.pdes.windows, run.metrics.pdes.windows);
        EXPECT_EQ(reference.metrics.pdes.lane_events,
                  run.metrics.pdes.lane_events);
        EXPECT_EQ(reference.metrics.pdes.lane_idle_windows,
                  run.metrics.pdes.lane_idle_windows);
      }
    }
  }
}

// Lane-count invariance at scale: a 64-partition MoT (one partition per
// tree) built with sim_threads 2, 3, 4 and 8 runs on that many execution
// lanes — blocks of 32, 21/21/22, 16 and 8 partitions — and must reproduce
// the results pinned from the one-queue-per-partition kernel exactly,
// metrics snapshot (per-partition event counts and idle windows included)
// and all. The snapshot is pinned as the fnv1a64 of its JSON.
TEST(PartitionedDifferentialTest, Mot64LaneCountNeverChangesResults) {
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    core::NetworkConfig cfg;
    cfg.n = 64;
    cfg.partition = PartitionStrategy::kTree;
    cfg.sim_threads = threads;
    core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
    sim::PartitionedScheduler* ps = net.net().partitioned_scheduler();
    ASSERT_NE(ps, nullptr);
    EXPECT_EQ(ps->lanes(), 64u);
    EXPECT_EQ(ps->execution_lanes(), threads);
    const RunResult run =
        drive(net, traffic::BenchmarkId::kMulticast10, 31, 300_ns);
    EXPECT_EQ(run.executed, 2136768u);
    EXPECT_EQ(run.generated, 2431u);
    EXPECT_EQ(run.injected, 11755u);
    EXPECT_EQ(run.ejected, 46198u);
    EXPECT_EQ(run.completed, 2019u);
    EXPECT_EQ(run.pending, 76u);
    EXPECT_EQ(run.max_latency, 256873);
    EXPECT_EQ(run.mean_latency, 52689.157999009411);
    EXPECT_EQ(run.metrics.pdes.windows, 1665u);
    EXPECT_EQ(sim::fnv1a64(util::json_write(stats::to_json(run.metrics))),
              0x29bd43dce6beab25ull);
  }
}

TEST(PartitionedDifferentialTest, MeshRowBandsAreWorkerCountInvariant) {
  for (const auto mode :
       {mesh::MulticastMode::kTree, mesh::MulticastMode::kSerial}) {
    SCOPED_TRACE(static_cast<int>(mode));
    mesh::MeshConfig cfg;
    cfg.multicast = mode;
    cfg.speculative_routers = mesh::MeshNetwork::checkerboard_speculation(
        mesh::MeshTopology(cfg.cols, cfg.rows));
    RunResult reference;
    for (const WorkerLayout& layout : kWorkerLayouts) {
      SCOPED_TRACE("sim_threads=" + std::to_string(layout.sim_threads) +
                   " workers=" + std::to_string(layout.workers));
      cfg.sim_threads = layout.sim_threads;  // auto = row bands
      mesh::MeshNetwork net(cfg);
      EXPECT_EQ(net.net().partitions(), cfg.rows);
      ASSERT_NO_FATAL_FAILURE(apply_layout(net.net(), layout));
      const RunResult run =
          drive(net, traffic::BenchmarkId::kMulticast5, 29, 400_ns);
      if (layout.workers == 1u) {
        reference = run;
      } else {
        expect_equal_runs(reference, run);
      }
    }
  }
}

}  // namespace
}  // namespace specnoc
