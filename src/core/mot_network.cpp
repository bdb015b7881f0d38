#include "core/mot_network.h"

#include <algorithm>
#include <bit>
#include <string>

#include "nodes/fanin_node.h"
#include "nodes/fanout_nodes.h"
#include "util/contract.h"
#include "util/error.h"

namespace specnoc::core {
namespace {

std::string fo_name(std::uint32_t tree, std::uint32_t level,
                    std::uint32_t index) {
  return "fo" + std::to_string(tree) + ".l" + std::to_string(level) + "i" +
         std::to_string(index);
}

std::string fi_name(std::uint32_t tree, std::uint32_t level,
                    std::uint32_t index) {
  return "fi" + std::to_string(tree) + ".l" + std::to_string(level) + "i" +
         std::to_string(index);
}

}  // namespace

MotNetwork::MotNetwork(Architecture arch, NetworkConfig config)
    : arch_(arch), config_(std::move(config)), topology_(config_.n),
      speculation_(speculation_for(arch, topology_)),
      encoder_(topology_, speculation_.flags()),
      layout_(topology_, config_.layout) {
  build();
}

MotNetwork::MotNetwork(NetworkConfig config, SpeculationMap speculation)
    : arch_(Architecture::kCustomHybrid), config_(std::move(config)),
      topology_(config_.n), speculation_(std::move(speculation)),
      encoder_(topology_, speculation_.flags()),
      layout_(topology_, config_.layout) {
  if (speculation_.topology().n() != topology_.n()) {
    throw ConfigError("speculation map radix does not match network radix");
  }
  build();
}

void MotNetwork::build() {
  const std::uint32_t n = topology_.n();
  const std::uint32_t levels = topology_.levels();

  // Partition plan. A source's entire fanout tree and a destination's
  // entire fanin tree are intra-partition by construction; only the middle
  // channels can cross partitions, so their minimum wire latency is the
  // conservative lookahead. sim_threads == 1 keeps the classic
  // single-scheduler network (byte-for-byte identical to pre-PDES builds);
  // a zero-latency wire model (wire_delay_ps_per_um == 0) has no usable
  // lookahead and also falls back to sequential execution.
  std::uint32_t partitions = 1;
  switch (config_.partition) {
    case noc::PartitionStrategy::kNone:
      partitions = 1;
      break;
    case noc::PartitionStrategy::kAuto:
    case noc::PartitionStrategy::kTree:
      partitions = n;
      break;
    case noc::PartitionStrategy::kQuadrant:
      partitions = std::min<std::uint32_t>(4, n);
      break;
    case noc::PartitionStrategy::kRows:
      throw ConfigError(
          "partition strategy 'rows' applies to mesh networks only (valid "
          "strategies for MoT: auto, none, tree, quadrant)");
  }
  const noc::ChannelParams middle_probe = layout_.middle_channel();
  const TimePs lookahead =
      std::min(middle_probe.delay_fwd, middle_probe.delay_ack);
  if (config_.sim_threads == 1 || lookahead <= 0) partitions = 1;
  net_.enable_partitions(partitions, partitions > 1 ? lookahead : 1,
                         config_.sim_threads);
  const std::uint32_t num_partitions = net_.partitions();
  const auto partition_of = [n, num_partitions](std::uint32_t tree) {
    return tree * num_partitions / n;
  };

  // Network interfaces.
  for (std::uint32_t s = 0; s < n; ++s) {
    net_.set_build_partition(partition_of(s));
    net_.register_source(net_.add_node<noc::SourceNode>(
        s, config_.source_issue_delay));
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.set_build_partition(partition_of(d));
    net_.register_sink(net_.add_node<noc::SinkNode>(
        d, config_.sink_consume_delay));
  }

  // Fanout trees.
  fanout_.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    net_.set_build_partition(partition_of(s));
    fanout_[s].resize(topology_.nodes_per_tree(), nullptr);
    for (std::uint32_t level = 0; level < levels; ++level) {
      for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
        const bool spec = speculation_.speculative(level, i);
        const noc::NodeKind kind = fanout_kind(arch_, spec);
        auto chars = config_.chars_for(kind);
        chars.clock_period = config_.clock_period;
        const noc::DestRange top = topology_.subtree_span(level, i, 0);
        const noc::DestRange bottom = topology_.subtree_span(level, i, 1);
        const std::string name = fo_name(s, level, i);
        nodes::FanoutNodeBase* node = nullptr;
        switch (kind) {
          case noc::NodeKind::kFanoutBaseline:
            node = &net_.add_node<nodes::BaselineFanoutNode>(name, chars, top,
                                                             bottom);
            break;
          case noc::NodeKind::kFanoutSpeculative:
            node = &net_.add_node<nodes::SpecFanoutNode>(name, chars, top,
                                                         bottom);
            break;
          case noc::NodeKind::kFanoutNonSpeculative:
            node = &net_.add_node<nodes::NonSpecFanoutNode>(name, chars, top,
                                                            bottom);
            break;
          case noc::NodeKind::kFanoutOptSpeculative:
            node = &net_.add_node<nodes::OptSpecFanoutNode>(name, chars, top,
                                                            bottom);
            break;
          case noc::NodeKind::kFanoutOptNonSpeculative:
            node = &net_.add_node<nodes::OptNonSpecFanoutNode>(name, chars,
                                                               top, bottom);
            break;
          default:
            SPECNOC_UNREACHABLE("not a fanout node kind");
        }
        node->set_site({s, static_cast<std::int32_t>(level), i});
        fanout_[s][mot::MotTopology::heap_id(level, i)] = node;
      }
    }
  }

  // Fanin trees (identical arbiters in every architecture).
  fanin_.resize(n);
  auto fanin_chars = config_.chars_for(noc::NodeKind::kFanin);
  fanin_chars.clock_period = config_.clock_period;
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.set_build_partition(partition_of(d));
    fanin_[d].resize(topology_.nodes_per_tree(), nullptr);
    for (std::uint32_t level = 0; level < levels; ++level) {
      for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
        nodes::FaninNode& node = net_.add_node<nodes::FaninNode>(
            fi_name(d, level, i), fanin_chars, config_.fanin_buffer_flits,
            config_.fanin_sticky_timeout);
        node.set_site({d, static_cast<std::int32_t>(level), i});
        fanin_[d][mot::MotTopology::heap_id(level, i)] = &node;
      }
    }
  }

  // Source NI -> fanout root.
  for (std::uint32_t s = 0; s < n; ++s) {
    net_.add_channel(layout_.interface_channel(),
                     "src" + std::to_string(s) + "->root", net_.source(s), 0,
                     *fanout_[s][0], 0);
  }

  // Fanout internal links: (level, i) output c -> (level+1, 2i+c) input 0.
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t level = 0; level + 1 < levels; ++level) {
      for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
        for (std::uint32_t c = 0; c < 2; ++c) {
          net_.add_channel(
              layout_.tree_channel(level),
              fo_name(s, level, i) + ">" + std::to_string(c),
              *fanout_[s][mot::MotTopology::heap_id(level, i)], c,
              *fanout_[s][mot::MotTopology::heap_id(level + 1, 2 * i + c)],
              0);
        }
      }
    }
  }

  // Middle links: fanout leaf (s, L-1, i) output c serves destination
  // d = 2i + c, landing at fanin leaf (d, L-1, s/2) input s%2. These long
  // cross-die channels are pipelined with a few asynchronous latch stages
  // (GALS practice for long wires); deadlock freedom does not depend on
  // the depth — the fanin arbiters are work-conserving (see
  // nodes/fanin_node.h).
  noc::ChannelParams middle = layout_.middle_channel();
  middle.capacity = config_.middle_channel_flits;
  const std::uint32_t leaf_level = levels - 1;
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t i = 0; i < topology_.nodes_at_level(leaf_level); ++i) {
      for (std::uint32_t c = 0; c < 2; ++c) {
        const std::uint32_t d = topology_.leaf_dest(i, c);
        net_.add_channel(
            middle,
            "mid.s" + std::to_string(s) + ".d" + std::to_string(d),
            *fanout_[s][mot::MotTopology::heap_id(leaf_level, i)], c,
            *fanin_[d][mot::MotTopology::heap_id(
                leaf_level, topology_.fanin_leaf_index(s))],
            topology_.fanin_leaf_port(s));
      }
    }
  }

  // Fanin internal links: (level+1, j) output -> (level, j/2) input j%2.
  for (std::uint32_t d = 0; d < n; ++d) {
    for (std::uint32_t level = 0; level + 1 < levels; ++level) {
      for (std::uint32_t j = 0; j < topology_.nodes_at_level(level + 1);
           ++j) {
        net_.add_channel(
            layout_.tree_channel(level),
            fi_name(d, level + 1, j) + ">up",
            *fanin_[d][mot::MotTopology::heap_id(level + 1, j)], 0,
            *fanin_[d][mot::MotTopology::heap_id(level, j / 2)], j % 2);
      }
    }
  }

  // Fanin root -> sink NI.
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.add_channel(layout_.interface_channel(),
                     "root->dst" + std::to_string(d), *fanin_[d][0], 0,
                     net_.sink(d), 0);
  }
}

noc::MessageId MotNetwork::send_message(std::uint32_t src,
                                        noc::DestSet dests, bool measured) {
  SPECNOC_EXPECTS(src < topology_.n());
  SPECNOC_EXPECTS(dests.any());
  SPECNOC_EXPECTS(dests.within(topology_.n()));
  // The source's own lane clock: send_message may run inside a source-lane
  // event of a partitioned simulation, where the global clock is undefined
  // mid-window.
  const TimePs now = net_.source(src).lane().now();
  const bool multicast = dests.is_multicast();
  noc::Message& msg =
      net_.packets().create_message(src, std::move(dests), now, measured);
  noc::SourceNode& source = net_.source(src);
  if (multicast && !traits(arch_).multicast_capable) {
    // Serial multicast: one unicast copy per destination, in ascending
    // destination order, queued back-to-back at the source NI.
    msg.dests.for_each_dest([&](std::uint32_t d) {
      source.enqueue_packet(net_.packets().create_packet(
          msg, noc::DestSet::single(d), config_.flits_per_packet));
    });
  } else {
    source.enqueue_packet(net_.packets().create_packet(
        msg, msg.dests, config_.flits_per_packet));
  }
  return msg.id;
}

std::uint32_t MotNetwork::address_bits() const {
  if (arch_ == Architecture::kBaseline) {
    return mot::SourceRouteEncoder::baseline_unicast_bits(topology_);
  }
  return encoder_.address_bits();
}

AreaUm2 MotNetwork::total_node_area() const {
  AreaUm2 total = 0.0;
  for (const auto& node : net_.nodes()) {
    total += config_.chars_for(node->kind()).area_um2;
  }
  return total;
}

nodes::FanoutNodeBase& MotNetwork::fanout_node(std::uint32_t tree,
                                               std::uint32_t level,
                                               std::uint32_t index) {
  return *fanout_.at(tree).at(mot::MotTopology::heap_id(level, index));
}

noc::Node& MotNetwork::fanin_node(std::uint32_t tree, std::uint32_t level,
                                  std::uint32_t index) {
  return *fanin_.at(tree).at(mot::MotTopology::heap_id(level, index));
}

}  // namespace specnoc::core
