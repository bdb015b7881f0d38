#include "sim/partitioned_scheduler.h"

#include <algorithm>
#include <thread>

#include "util/contract.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace specnoc::sim {
namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

}  // namespace

PartitionedScheduler::PartitionedScheduler(Scheduler& lane0,
                                           std::uint32_t partitions,
                                           TimePs lookahead,
                                           std::uint32_t execution_lanes)
    : partitions_(partitions), lookahead_(lookahead) {
  SPECNOC_EXPECTS(partitions >= 1);
  SPECNOC_EXPECTS(lookahead > 0);
  const std::uint32_t num_lanes = std::clamp<std::uint32_t>(
      execution_lanes, 1, partitions);
  lanes_.reserve(num_lanes);
  for (std::uint32_t l = 0; l < num_lanes; ++l) {
    auto lane = std::make_unique<Lane>();
    if (l == 0) {
      lane->kernel = &lane0;
    } else {
      lane->owned = std::make_unique<Scheduler>();
      lane->kernel = lane->owned.get();
    }
    lanes_.push_back(std::move(lane));
  }
  // Lane l runs partitions [l * P / L, (l + 1) * P / L): contiguous,
  // non-empty blocks in partition order.
  for (std::uint32_t p = partitions; p-- > 0;) {
    Lane& lane = *lanes_[lane_of(p)];
    lane.first = p;
    lane.executed.push_back(0);
  }
  for (auto& lane : lanes_) {
    lane->executed_at_window_start.assign(lane->executed.size(), 0);
    lane->idle_windows.assign(lane->executed.size(), 0);
    lane->staged.resize(num_lanes);
  }
}

PartitionedScheduler::~PartitionedScheduler() = default;

void PartitionedScheduler::set_threads(std::uint32_t threads) {
  threads_ = std::max<std::uint32_t>(1, threads);
}

std::uint32_t PartitionedScheduler::add_drain(std::uint32_t producer,
                                              std::uint32_t consumer,
                                              std::function<void()> drain) {
  SPECNOC_EXPECTS(static_cast<bool>(drain));
  SPECNOC_EXPECTS(producer < lanes() && consumer < lanes());
  drains_.push_back({std::move(drain), lane_of(producer), lane_of(consumer)});
  return static_cast<std::uint32_t>(drains_.size() - 1);
}

void PartitionedScheduler::note_dirty(std::uint32_t id) {
  SPECNOC_ASSERT(id < drains_.size());
  const Drain& drain = drains_[id];
  lanes_[drain.producer_lane]->staged[drain.consumer_lane].push_back(id);
}

void PartitionedScheduler::drain_lane(std::uint32_t consumer) {
  // Gather this lane's dirty drains from every producer lane and run them
  // in drain-id order: registration order, i.e. channel creation order.
  // Restricted to any one consumer partition this is exactly the global
  // drain-id order, so same-timestamp mailbox events enter each
  // partition's (time, insertion) order the same way at any lane count.
  Lane& lane = *lanes_[consumer];
  std::vector<std::uint32_t>& dirty = lane.dirty;
  for (const auto& producer : lanes_) {
    // Read before writing: the staging lists of one producer share cache
    // lines across consumers, so only non-empty ones are touched.
    std::vector<std::uint32_t>& staged = producer->staged[consumer];
    if (staged.empty()) continue;
    dirty.insert(dirty.end(), staged.begin(), staged.end());
    staged.clear();
  }
  if (!dirty.empty()) {
    std::sort(dirty.begin(), dirty.end());
    for (const std::uint32_t id : dirty) drains_[id].fn();
    dirty.clear();
  }
  lane.next_time = lane.kernel->next_time();
}

bool PartitionedScheduler::open_window(TimePs horizon) {
  TimePs min_next = Scheduler::kIdleTime;
  for (const auto& lane : lanes_) {
    min_next = std::min(min_next, lane->next_time);
  }
  if (min_next == Scheduler::kIdleTime || min_next > horizon) return false;
  if (min_next >= epoch_next_) {
    // Serial step: every worker is quiesced at the barrier, so the hook
    // observes a consistent cross-lane state. Everything executed so far
    // happened in windows that started before the boundary.
    const TimePs boundary = min_next - min_next % epoch_ps_;
    epoch_next_ = boundary + epoch_ps_;
    epoch_hook_(boundary);
  }
  window_end_ = std::min(min_next + lookahead_ - 1, horizon);
  ++windows_;
  return true;
}

void PartitionedScheduler::run_lane_window(Lane& lane, TimePs window_end) {
  lane.kernel->run_until_tagged(window_end, lane.executed, lane.first);
  for (std::size_t i = 0; i < lane.executed.size(); ++i) {
    if (lane.executed[i] == lane.executed_at_window_start[i]) {
      ++lane.idle_windows[i];
    }
    lane.executed_at_window_start[i] = lane.executed[i];
  }
}

template <typename Serial>
void PartitionedScheduler::barrier(std::uint32_t num_workers,
                                   std::uint64_t& gen, Serial&& serial) {
  if (arrivals_.fetch_add(1, std::memory_order_acq_rel) + 1 == num_workers) {
    // Last arriver: run the serial step while the other workers spin. Its
    // writes are published by the release store to generation_.
    serial();
    arrivals_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
  } else {
    // The container may have fewer cores than workers, so fall back to
    // yield quickly — a pure spin would serialize at timeslice length.
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins < 64) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }
  ++gen;
}

void PartitionedScheduler::worker_loop(std::uint32_t worker,
                                       std::uint32_t num_workers,
                                       TimePs horizon) {
  // Contiguous static lane block per worker: the same worker executes the
  // same lanes (and drains into them) every window, so lane state never
  // migrates between threads mid-run (no per-window handoff to order).
  const std::uint32_t first = worker * execution_lanes() / num_workers;
  const std::uint32_t last = (worker + 1) * execution_lanes() / num_workers;
  std::uint64_t gen = generation_.load(std::memory_order_acquire);
  for (;;) {
    if (done_) return;
    const TimePs window_end = window_end_;
    for (std::uint32_t l = first; l < last; ++l) {
      run_lane_window(*lanes_[l], window_end);
    }
    // Every producer has finished the window: all mailboxes are complete.
    barrier(num_workers, gen, [] {});
    for (std::uint32_t l = first; l < last; ++l) drain_lane(l);
    barrier(num_workers, gen, [this, horizon] {
      done_ = !open_window(horizon);
    });
  }
}

void PartitionedScheduler::run_windows(TimePs horizon) {
  // The first window opens serially: mailboxes may hold entries staged
  // before this call (or by a previous run_until's last window).
  for (std::uint32_t l = 0; l < execution_lanes(); ++l) drain_lane(l);
  done_ = !open_window(horizon);
  if (done_) return;
  // The first window is published before the workers exist; thread
  // creation is the synchronization point. One worker runs the identical
  // window schedule on the calling thread (its barriers are no-ops).
  const std::uint32_t num_workers = workers();
  arrivals_.store(0, std::memory_order_relaxed);
  std::vector<std::thread> pool;
  pool.reserve(num_workers - 1);
  for (std::uint32_t w = 1; w < num_workers; ++w) {
    pool.emplace_back([this, w, num_workers, horizon] {
      worker_loop(w, num_workers, horizon);
    });
  }
  worker_loop(0, num_workers, horizon);
  for (std::thread& t : pool) t.join();
}

void PartitionedScheduler::run() { run_windows(Scheduler::kIdleTime - 1); }

void PartitionedScheduler::run_until(TimePs t) {
  SPECNOC_EXPECTS(t >= now());
  run_windows(t);
  // All events <= t have executed (open_window only refuses a window when
  // no lane holds one); align every lane clock to exactly t, matching
  // Scheduler::run_until semantics.
  for (auto& lane : lanes_) {
    SPECNOC_ASSERT(lane->kernel->next_time() > t);
    lane->kernel->run_until(t);
  }
}

TimePs PartitionedScheduler::now() const {
  TimePs t = 0;
  for (const auto& lane : lanes_) t = std::max(t, lane->kernel->now());
  return t;
}

std::uint64_t PartitionedScheduler::executed() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->kernel->executed();
  return total;
}

std::size_t PartitionedScheduler::pending() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->kernel->pending();
  return total;
}

std::size_t PartitionedScheduler::overflow_pending() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->kernel->overflow_pending();
  return total;
}

void PartitionedScheduler::set_epoch_hook(TimePs epoch_ps,
                                          Scheduler::EpochHook hook) {
  SPECNOC_EXPECTS(epoch_ps > 0);
  SPECNOC_EXPECTS(static_cast<bool>(hook));
  epoch_ps_ = epoch_ps;
  epoch_hook_ = std::move(hook);
  epoch_next_ = (now() / epoch_ps_ + 1) * epoch_ps_;
}

void PartitionedScheduler::clear_epoch_hook() {
  epoch_ps_ = 0;
  epoch_hook_ = nullptr;
  epoch_next_ = Scheduler::kIdleTime;
}

std::vector<std::uint64_t> PartitionedScheduler::per_lane_executed() const {
  // Lanes hold ascending contiguous partition blocks, so concatenating
  // them in lane order is partition order.
  std::vector<std::uint64_t> out;
  out.reserve(lanes());
  for (const auto& lane : lanes_) {
    out.insert(out.end(), lane->executed.begin(), lane->executed.end());
  }
  return out;
}

std::vector<std::uint64_t> PartitionedScheduler::per_lane_idle_windows()
    const {
  std::vector<std::uint64_t> out;
  out.reserve(lanes());
  for (const auto& lane : lanes_) {
    out.insert(out.end(), lane->idle_windows.begin(),
               lane->idle_windows.end());
  }
  return out;
}

}  // namespace specnoc::sim
