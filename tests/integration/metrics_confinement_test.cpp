// The paper's confinement claim, measured end-to-end through the metrics
// registry: with local speculation, the kill (throttle) work that cleans up
// redundant multicast copies happens only at the first non-speculative
// level below each speculative one — never at a speculative level itself
// (DAC'16 §4). On the 8x8 OptHybridSpeculative network only level 0
// speculates, so under saturated multicast every kill must land on the opt
// non-speculative nodes of level 1 and none on levels 0 or 2.
#include <gtest/gtest.h>

#include "core/mot_network.h"
#include "sim/partitioned_scheduler.h"
#include "stats/metrics.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"

namespace specnoc {
namespace {

using namespace specnoc::literals;

/// `workers` != 0 lowers a partitioned network's worker count below its
/// lane count (sim_threads) after build.
stats::MetricsSnapshot run_hybrid_multicast(TimePs horizon,
                                            unsigned sim_threads = 1,
                                            std::uint32_t workers = 0) {
  core::NetworkConfig cfg;  // 8x8
  cfg.sim_threads = sim_threads;
  core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
  if (workers != 0) {
    sim::PartitionedScheduler* ps = net.net().partitioned_scheduler();
    EXPECT_NE(ps, nullptr);
    if (ps != nullptr) {
      ps->set_threads(workers);
      EXPECT_EQ(ps->workers(), workers);
    }
  }
  stats::MetricsRegistry registry;
  net.net().hooks().metrics = &registry;
  auto pattern =
      traffic::make_benchmark(traffic::BenchmarkId::kMulticast10, cfg.n);
  traffic::DriverConfig dcfg;
  dcfg.mode = traffic::InjectionMode::kBacklogged;
  dcfg.seed = 99;
  traffic::TrafficDriver driver(net, *pattern, dcfg);
  driver.start();
  net.net().run_until(horizon);
  return registry.snapshot();
}

void expect_same_counters(const stats::MetricsSnapshot& a,
                          const stats::MetricsSnapshot& b) {
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_EQ(a.sites[i].kind, b.sites[i].kind);
    EXPECT_EQ(a.sites[i].level, b.sites[i].level);
    EXPECT_EQ(a.sites[i].counters.kills, b.sites[i].counters.kills);
    EXPECT_EQ(a.sites[i].counters.prealloc_hits,
              b.sites[i].counters.prealloc_hits);
    EXPECT_EQ(a.sites[i].counters.prealloc_misses,
              b.sites[i].counters.prealloc_misses);
    EXPECT_EQ(a.sites[i].counters.contended_grants,
              b.sites[i].counters.contended_grants);
    EXPECT_EQ(a.sites[i].counters.watchdog_releases,
              b.sites[i].counters.watchdog_releases);
  }
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].klass, b.channels[i].klass);
    EXPECT_EQ(a.channels[i].stalls, b.channels[i].stalls)
        << a.channels[i].klass;
    EXPECT_EQ(a.channels[i].stall_time_ps, b.channels[i].stall_time_ps)
        << a.channels[i].klass;
    EXPECT_EQ(a.channels[i].histogram, b.channels[i].histogram)
        << a.channels[i].klass;
  }
}

TEST(MetricsConfinementTest, KillsLandOnlyAtFirstNonSpeculativeLevel) {
  const stats::MetricsSnapshot snap = run_hybrid_multicast(2000_ns);
  ASSERT_FALSE(snap.empty());

  // Enough multicast traffic that speculation actually fired.
  ASSERT_GT(snap.total_kills(), 0u);

  // Confinement: zero kills at the speculative level (0) and at the level
  // below the cleanup level (2); everything lands on level 1.
  EXPECT_EQ(snap.kills_at_level(0), 0u);
  EXPECT_GT(snap.kills_at_level(1), 0u);
  EXPECT_EQ(snap.kills_at_level(2), 0u);
  EXPECT_EQ(snap.kills_at_level(1), snap.total_kills());

  // The level-1 site is the opt non-speculative fanout kind, and the
  // speculative level-0 site recorded no kills of its own.
  const stats::MetricsSite* cleanup =
      snap.find_site(noc::NodeKind::kFanoutOptNonSpeculative, 1);
  ASSERT_NE(cleanup, nullptr);
  EXPECT_EQ(cleanup->counters.kills, snap.total_kills());
  const stats::MetricsSite* speculative =
      snap.find_site(noc::NodeKind::kFanoutOptSpeculative, 0);
  if (speculative != nullptr) {
    EXPECT_EQ(speculative->counters.kills, 0u);
  }

  // Saturated multicast also exercises the rest of the instrumentation:
  // pre-allocated fast-forwards and backpressure stalls.
  EXPECT_GT(snap.total_prealloc_hits(), 0u);
  EXPECT_GT(snap.total_prealloc_misses(), 0u);
  EXPECT_GT(snap.total_stalls(), 0u);
}

// The confinement claim is structural, so it must survive the partitioned
// kernel unchanged: same run under per-tree partitions, kills still land
// only on level 1.
TEST(MetricsConfinementTest, ConfinementHoldsUnderPartitionedKernel) {
  const stats::MetricsSnapshot snap =
      run_hybrid_multicast(2000_ns, /*sim_threads=*/4);
  ASSERT_FALSE(snap.empty());
  ASSERT_GT(snap.total_kills(), 0u);
  EXPECT_EQ(snap.kills_at_level(0), 0u);
  EXPECT_EQ(snap.kills_at_level(2), 0u);
  EXPECT_EQ(snap.kills_at_level(1), snap.total_kills());
}

// Worker-thread-count invariance of every simulated counter: the snapshot
// of a partitioned run is a pure function of (topology, partition
// strategy, traffic) — 1, 2 and 4 workers produce byte-identical site and
// channel counters. The reference runs 4 lanes on one worker; sim_threads
// 2 and 4 run that many lanes and workers.
TEST(MetricsConfinementTest, ThreadCountChangesNoSimulatedCounter) {
  const stats::MetricsSnapshot reference =
      run_hybrid_multicast(1000_ns, /*sim_threads=*/4, /*workers=*/1);
  ASSERT_GT(reference.total_kills(), 0u);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    const stats::MetricsSnapshot run =
        run_hybrid_multicast(1000_ns, threads, /*workers=*/threads);
    expect_same_counters(reference, run);
  }
}

}  // namespace
}  // namespace specnoc
