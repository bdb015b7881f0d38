#include "workload/replay.h"

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"

namespace specnoc::workload {

const char* to_string(ReplayMode mode) {
  switch (mode) {
    case ReplayMode::kTimed:
      return "timed";
    case ReplayMode::kClosedLoop:
      return "closed";
  }
  SPECNOC_UNREACHABLE("ReplayMode");
}

ReplayMode replay_mode_from_string(const std::string& name) {
  if (name == "timed") return ReplayMode::kTimed;
  if (name == "closed") return ReplayMode::kClosedLoop;
  throw ConfigError("unknown replay mode '" + name +
                    "' (valid modes: timed, closed)");
}

TraceReplayDriver::TraceReplayDriver(noc::MessageNetwork& network,
                                     const Trace& trace, ReplayConfig config)
    : network_(network), trace_(trace), config_(config) {
  trace_.validate();
  if (trace_.meta.n != network_.endpoints()) {
    throw ConfigError("trace was recorded for n=" +
                      std::to_string(trace_.meta.n) +
                      " endpoints but the network has " +
                      std::to_string(network_.endpoints()));
  }
  const std::uint32_t flits = network_.flits_per_packet();
  states_.resize(trace_.records.size());
  for (std::size_t i = 0; i < trace_.records.size(); ++i) {
    const TraceRecord& rec = trace_.records[i];
    if (rec.size != flits) {
      throw ConfigError("trace message " + std::to_string(rec.id) + " has " +
                        std::to_string(rec.size) +
                        " flits but the network carries fixed " +
                        std::to_string(flits) + "-flit packets");
    }
    states_[i].remaining = rec.dests;
    states_[i].pending_deps = static_cast<std::uint32_t>(rec.deps.size());
  }
  // Invert the dependency lists once; ids are strictly increasing, so a
  // binary search maps each dep id to its record index.
  for (std::size_t i = 0; i < trace_.records.size(); ++i) {
    for (const std::uint64_t dep : trace_.records[i].deps) {
      const auto it = std::lower_bound(
          trace_.records.begin(), trace_.records.end(), dep,
          [](const TraceRecord& r, std::uint64_t id) { return r.id < id; });
      SPECNOC_ASSERT(it != trace_.records.end() && it->id == dep);
      const auto dep_index =
          static_cast<std::size_t>(it - trace_.records.begin());
      states_[dep_index].dependents.push_back(static_cast<std::uint32_t>(i));
    }
  }
  index_of_message_.reserve(trace_.records.size());
}

void TraceReplayDriver::start() {
  SPECNOC_EXPECTS(!started_);
  started_ = true;
  if (config_.mode == ReplayMode::kClosedLoop && network_.net().partitioned()) {
    throw ConfigError(
        "closed-loop replay schedules injections from delivery events — a "
        "zero-lookahead feedback path the partitioned window protocol cannot "
        "honor; build the network with sim_threads = 1");
  }
  for (std::size_t i = 0; i < trace_.records.size(); ++i) {
    const TraceRecord& rec = trace_.records[i];
    TimePs at;
    if (config_.mode == ReplayMode::kTimed) {
      // Open loop: recorded times are the whole schedule. Each injection is
      // scheduled on its source's own lane, so timed replay runs under the
      // partitioned kernel unchanged.
      at = rec.earliest;
    } else {
      if (!rec.deps.empty()) continue;  // injected when the deps deliver
      at = std::max(rec.earliest, rec.delay);
    }
    const sim::SchedulerRef lane = network_.net().source(rec.src).lane();
    lane.schedule_at(std::max(at, lane.now()), [this, i] { inject(i); });
  }
}

void TraceReplayDriver::inject(std::size_t index) {
  const TraceRecord& rec = trace_.records[index];
  MessageState& state = states_[index];
  SPECNOC_ASSERT(state.injected_at < 0);
  state.injected_at = network_.net().source(rec.src).lane().now();
  const noc::MessageId id =
      network_.send_message(rec.src, rec.dests, config_.measured);
  // Injections run on source lanes (concurrently in partitioned runs);
  // deliveries arrive through the serialized hook path. The id map and the
  // injection counter are the only state both sides touch.
  const std::lock_guard<std::mutex> lock(mutex_);
  index_of_message_.emplace(id, static_cast<std::uint32_t>(index));
  ++injected_;
}

void TraceReplayDriver::on_flit_ejected(const noc::Packet& packet,
                                        std::uint32_t dest, noc::FlitKind kind,
                                        TimePs when) {
  if (downstream_ != nullptr) {
    downstream_->on_flit_ejected(packet, dest, kind, when);
  }
  if (kind != noc::FlitKind::kHeader) return;
  std::uint32_t index;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_of_message_.find(packet.message);
    if (it == index_of_message_.end()) return;  // not a trace message
    index = it->second;
  }
  MessageState& state = states_[index];
  SPECNOC_ASSERT(state.remaining.test(dest));
  state.remaining.reset(dest);
  if (state.remaining.none()) complete(index, when);
}

void TraceReplayDriver::on_packet_injected(const noc::Packet& packet,
                                           TimePs when) {
  if (downstream_ != nullptr) downstream_->on_packet_injected(packet, when);
}

void TraceReplayDriver::complete(std::size_t index, TimePs when) {
  MessageState& state = states_[index];
  state.delivered_at = when;
  ++delivered_;
  completion_time_ = std::max(completion_time_, when);
  if (config_.mode != ReplayMode::kClosedLoop) return;
  sim::Scheduler& scheduler = network_.net().scheduler();
  for (const std::uint32_t dependent : state.dependents) {
    MessageState& dep_state = states_[dependent];
    SPECNOC_ASSERT(dep_state.pending_deps > 0);
    if (--dep_state.pending_deps != 0) continue;
    const TraceRecord& rec = trace_.records[dependent];
    const std::size_t i = dependent;
    scheduler.schedule_at(std::max(rec.earliest, when + rec.delay),
                          [this, i] { inject(i); });
  }
}

}  // namespace specnoc::workload
