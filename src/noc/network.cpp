#include "noc/network.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "util/error.h"

namespace specnoc::noc {
namespace {

// Observer hooks are implemented by single-threaded stats/power code, but
// partitioned runs emit them from several lanes at once. These forwarders
// serialize every hook call behind one shared mutex for the duration of a
// multi-threaded run (installed by HookSerializer below). One mutex for all
// three streams keeps cross-stream consumers (e.g. a recorder that reads
// packet state a metrics observer also touches) trivially safe; hook
// callbacks are tiny, so a single lock is cheaper than it looks.
class LockedTraffic final : public TrafficObserver {
 public:
  LockedTraffic(std::mutex& mutex, TrafficObserver& inner)
      : mutex_(mutex), inner_(inner) {}
  void on_flit_ejected(const Packet& packet, std::uint32_t dest,
                       FlitKind kind, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_flit_ejected(packet, dest, kind, when);
  }
  void on_packet_injected(const Packet& packet, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_packet_injected(packet, when);
  }

 private:
  std::mutex& mutex_;
  TrafficObserver& inner_;
};

class LockedEnergy final : public EnergyObserver {
 public:
  LockedEnergy(std::mutex& mutex, EnergyObserver& inner)
      : mutex_(mutex), inner_(inner) {}
  void on_node_op(const Node& node, NodeOp op, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_node_op(node, op, when);
  }
  void on_channel_flit(LengthUm length, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_channel_flit(length, when);
  }

 private:
  std::mutex& mutex_;
  EnergyObserver& inner_;
};

class LockedMetrics final : public MetricsObserver {
 public:
  LockedMetrics(std::mutex& mutex, MetricsObserver& inner)
      : mutex_(mutex), inner_(inner) {}
  void on_flit_killed(const Node& node, const Flit& flit,
                      TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_flit_killed(node, flit, when);
  }
  void on_prealloc(const Node& node, bool hit, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_prealloc(node, hit, when);
  }
  void on_contended_grant(const Node& node, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_contended_grant(node, when);
  }
  void on_watchdog_release(const Node& node, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_watchdog_release(node, when);
  }
  void on_channel_stall(const Channel& channel, TimePs start,
                        TimePs end) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_channel_stall(channel, start, end);
  }

 private:
  std::mutex& mutex_;
  MetricsObserver& inner_;
};

/// Scoped swap of the hook pointers for locking forwarders. Restores the
/// originals on destruction, so observers attached by tests/experiments
/// never see the wrappers outside the run call.
class HookSerializer {
 public:
  explicit HookSerializer(SimHooks& hooks) : hooks_(hooks), saved_(hooks) {
    if (saved_.traffic != nullptr) {
      traffic_.emplace(mutex_, *saved_.traffic);
      hooks_.traffic = &*traffic_;
    }
    if (saved_.energy != nullptr) {
      energy_.emplace(mutex_, *saved_.energy);
      hooks_.energy = &*energy_;
    }
    if (saved_.metrics != nullptr) {
      metrics_.emplace(mutex_, *saved_.metrics);
      hooks_.metrics = &*metrics_;
    }
  }
  ~HookSerializer() { hooks_ = saved_; }
  HookSerializer(const HookSerializer&) = delete;
  HookSerializer& operator=(const HookSerializer&) = delete;

 private:
  SimHooks& hooks_;
  SimHooks saved_;
  std::mutex mutex_;
  std::optional<LockedTraffic> traffic_;
  std::optional<LockedEnergy> energy_;
  std::optional<LockedMetrics> metrics_;
};

}  // namespace

void Network::enable_partitions(std::uint32_t partitions, TimePs lookahead,
                                unsigned threads) {
  SPECNOC_EXPECTS(psched_ == nullptr);
  SPECNOC_EXPECTS(nodes_.empty() && channels_.empty());
  if (partitions <= 1) return;  // degenerate partitioning: stay sequential
  if (lookahead <= 0) {
    throw ConfigError(
        "partitioned execution requires positive lookahead; a topology "
        "whose cross-partition channels have zero minimum latency must run "
        "sequentially");
  }
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // One worker per execution lane.
  psched_ = std::make_unique<sim::PartitionedScheduler>(
      scheduler_, partitions, lookahead, threads);
  psched_->set_threads(psched_->execution_lanes());
}

void Network::set_build_partition(std::uint32_t partition) {
  SPECNOC_EXPECTS(partition < partitions());
  build_partition_ = partition;
}

void Network::run() {
  if (psched_ == nullptr) {
    scheduler_.run();
    return;
  }
  if (psched_->workers() > 1) {
    HookSerializer serialize(hooks_);
    psched_->run();
  } else {
    psched_->run();
  }
}

void Network::run_until(TimePs t) {
  if (psched_ == nullptr) {
    scheduler_.run_until(t);
    return;
  }
  if (psched_->workers() > 1) {
    HookSerializer serialize(hooks_);
    psched_->run_until(t);
  } else {
    psched_->run_until(t);
  }
}

TimePs Network::now() const {
  return psched_ != nullptr ? psched_->now() : scheduler_.now();
}

std::uint64_t Network::executed() const {
  return psched_ != nullptr ? psched_->executed() : scheduler_.executed();
}

std::size_t Network::pending() const {
  return psched_ != nullptr ? psched_->pending() : scheduler_.pending();
}

std::size_t Network::overflow_pending() const {
  return psched_ != nullptr ? psched_->overflow_pending()
                            : scheduler_.overflow_pending();
}

void Network::set_epoch_hook(TimePs epoch_ps, sim::Scheduler::EpochHook hook) {
  if (psched_ != nullptr) {
    psched_->set_epoch_hook(epoch_ps, std::move(hook));
  } else {
    scheduler_.set_epoch_hook(epoch_ps, std::move(hook));
  }
}

void Network::clear_epoch_hook() {
  if (psched_ != nullptr) {
    psched_->clear_epoch_hook();
  } else {
    scheduler_.clear_epoch_hook();
  }
}

Channel& Network::add_channel(ChannelParams params, std::string name,
                              Node& up, std::uint32_t up_port, Node& down,
                              std::uint32_t down_port) {
  // The channel's home lane is the upstream node's: send() runs there.
  Channel& ref = *arena_.create<Channel>(lane(up.partition()), hooks_,
                                         params, std::move(name));
  arena_.label_pool<Channel>("channel");
  channels_.push_back(&ref);
  ref.connect(up, up_port, down, down_port);
  if (psched_ != nullptr && up.partition() != down.partition()) {
    const TimePs min_latency = std::min(params.delay_fwd, params.delay_ack);
    if (min_latency < psched_->lookahead()) {
      throw ConfigError("cross-partition channel '" + ref.name() +
                        "' has min latency " + std::to_string(min_latency) +
                        " ps below the declared lookahead " +
                        std::to_string(psched_->lookahead()) + " ps");
    }
    ref.make_cross_partition(*psched_, up.partition(), down.partition());
  }
  return ref;
}

void Network::register_source(SourceNode& source) {
  sources_.push_back(&source);
}

void Network::register_sink(SinkNode& sink) { sinks_.push_back(&sink); }

}  // namespace specnoc::noc
