// Per-node memory footprint regression pins.
//
// At 1024 endpoints a MoT network holds ~2M nodes and ~3M channels, so
// every byte of per-object state is megabytes of RSS. The arena refactor
// shrank these footprints deliberately: bounded-ring FIFOs replaced
// std::deque (80-byte object + ~600-byte heap map each), shared
// NodeCharacteristics are interned behind one pointer, port lists hold two
// inline slots, and cross-partition channel state is boxed behind one
// pointer. These static_asserts pin the result — growing any of them past
// the bound is an error a reviewer must see (raise the bound consciously,
// with the RSS math in DESIGN.md §11 updated).
//
// Bounds are the measured x86-64 (libstdc++, -m64) sizes rounded up to the
// next 8 bytes of headroom; they are ceilings, not exact layouts.
#include <gtest/gtest.h>

#include "core/mot_network.h"
#include "mesh/mesh_router.h"
#include "noc/channel.h"
#include "noc/node.h"
#include "noc/sink.h"
#include "noc/source.h"
#include "nodes/fanin_node.h"
#include "nodes/fanout_nodes.h"
#include "sim/partitioned_scheduler.h"

namespace specnoc {
namespace {

static_assert(sizeof(noc::Node) <= 136, "Node footprint grew");
static_assert(sizeof(noc::Channel) <= 208,
              "Channel footprint grew — at radix 1024 there are ~3M of "
              "these; keep cross-partition state boxed");
static_assert(sizeof(nodes::FaninNode) <= 336,
              "FaninNode footprint grew — input FIFOs must stay inline");
static_assert(sizeof(nodes::BaselineFanoutNode) <= 216,
              "fanout node footprint grew");
static_assert(sizeof(nodes::SpecFanoutNode) <= 216,
              "fanout node footprint grew");
static_assert(sizeof(nodes::NonSpecFanoutNode) <= 216,
              "fanout node footprint grew");
static_assert(sizeof(nodes::OptSpecFanoutNode) <= 216,
              "fanout node footprint grew");
static_assert(sizeof(nodes::OptNonSpecFanoutNode) <= 216,
              "fanout node footprint grew");
static_assert(sizeof(noc::SourceNode) <= 296, "SourceNode footprint grew");
static_assert(sizeof(noc::SinkNode) <= 168, "SinkNode footprint grew");
static_assert(sizeof(mesh::MeshRouter) <= 752,
              "MeshRouter footprint grew (5 ports; still worth watching)");

// Event queues are per worker, not per partition: each BucketQueue holds a
// 32 KiB bucket ring plus its slab, so a 256-tree MoT on 4 workers must
// own 4 queues, not 256 (about 8 MiB of rings and warm slab saved).
TEST(FootprintTest, PartitionedMotOwnsOneQueuePerWorker) {
  core::NetworkConfig cfg;
  cfg.n = 256;
  cfg.sim_threads = 4;
  core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
  const sim::PartitionedScheduler* ps = net.net().partitioned_scheduler();
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->lanes(), 256u);  // partitions: one per tree
  EXPECT_EQ(ps->execution_lanes(), 4u);
}

// A runtime mirror so the suite reports the numbers (static_asserts alone
// are silent when green).
TEST(FootprintTest, ReportSizes) {
  RecordProperty("Node", static_cast<int>(sizeof(noc::Node)));
  RecordProperty("Channel", static_cast<int>(sizeof(noc::Channel)));
  RecordProperty("FaninNode", static_cast<int>(sizeof(nodes::FaninNode)));
  RecordProperty("SourceNode", static_cast<int>(sizeof(noc::SourceNode)));
  RecordProperty("SinkNode", static_cast<int>(sizeof(noc::SinkNode)));
  RecordProperty("MeshRouter", static_cast<int>(sizeof(mesh::MeshRouter)));
  SUCCEED();
}

}  // namespace
}  // namespace specnoc
