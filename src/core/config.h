// Run configuration for building a MoT network.
#pragma once

#include <cstdint>
#include <map>

#include "mot/layout.h"
#include "nodes/characteristics.h"
#include "noc/hooks.h"
#include "noc/partition.h"
#include "util/units.h"

namespace specnoc::core {

struct NetworkConfig {
  /// Radix: N sources, N destinations. Power of two in
  /// [2, noc::kMaxEndpoints].
  std::uint32_t n = 8;

  /// Fixed packet size; the paper uses 5 flits.
  std::uint32_t flits_per_packet = 5;

  /// Per-input async FIFO depth in the fanin arbiters.
  std::uint32_t fanin_buffer_flits = 2;

  /// Fanin watchdog: how long an arbiter holds its output for the open
  /// packet's missing next flit before releasing (deadlock recovery; must
  /// exceed any normal inter-flit gap).
  TimePs fanin_sticky_timeout = 900;

  /// Pipeline depth (flits) of the long fanout-leaf -> fanin-leaf "middle"
  /// channels (asynchronous latch stages on the cross-die wires).
  std::uint32_t middle_channel_flits = 2;

  /// Network-interface delays.
  TimePs source_issue_delay = 50;
  TimePs sink_consume_delay = 50;

  /// 0 = asynchronous switches (the paper's design). Non-zero builds a
  /// synchronous-equivalent network: every switch-internal delay completes
  /// at the next edge of a clock with this period — the quantization the
  /// paper's "sub-cycle" asynchronous operation avoids. Used by the
  /// sync-vs-async ablation (paper future work: "as well as synchronous
  /// NoCs").
  TimePs clock_period = 0;

  /// Floorplan / wire model.
  mot::LayoutConfig layout{};

  /// Worker threads for the conservative PDES kernel. 1 (default) keeps the
  /// classic single-scheduler network; 0 means hardware concurrency. The
  /// partitions execute on one event queue per worker. Any value produces
  /// identical simulation results — see DESIGN.md §9.
  unsigned sim_threads = 1;

  /// How to cut the network into partitions when sim_threads != 1.
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;

  /// Per-kind overrides of the default node characteristics (tests and
  /// sensitivity studies); unlisted kinds use default_characteristics().
  std::map<noc::NodeKind, nodes::NodeCharacteristics> char_overrides;

  /// Resolved characteristics for a node kind.
  const nodes::NodeCharacteristics& chars_for(noc::NodeKind kind) const {
    const auto it = char_overrides.find(kind);
    return it != char_overrides.end() ? it->second
                                      : nodes::default_characteristics(kind);
  }

  /// This configuration with the PDES kernel disabled. Zero-lookahead
  /// feedback protocols (closed-loop replay, cmp co-simulation, the
  /// latency drain) build their networks from this copy.
  NetworkConfig sequential() const {
    NetworkConfig config = *this;
    config.sim_threads = 1;
    return config;
  }
};

}  // namespace specnoc::core
