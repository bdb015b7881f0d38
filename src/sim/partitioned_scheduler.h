// Conservative parallel discrete-event execution over static partitions.
//
// Two notions, deliberately kept apart:
//
//  * A *partition* is the topology cut. The network builder assigns every
//    node to one partition; partitions decide which channels cross (and so
//    the mailboxes and their drain order), and therefore the results. The
//    partition set depends only on the topology and partition strategy.
//  * An *execution lane* is one event queue plus clock (a standalone
//    sim::Scheduler). Each lane runs a contiguous block of partitions —
//    lane l's block starts at partition l * P / L, the same blocks the
//    bench model_speedup calculations sum over — and each worker thread
//    runs a contiguous block of lanes. A partition schedules through a
//    sim::SchedulerRef that stamps its events with the partition id, so
//    per-partition accounting survives the sharing.
//
// Lanes advance together through lockstep time windows
// [T, T + lookahead - 1], where T is the global minimum next-event time and
// `lookahead` is the minimum latency of any cross-partition channel. Within
// a window no partition can affect another — every cross-partition effect
// lands at least `lookahead` picoseconds after the send — so the lanes of
// one window execute in parallel without synchronization.
//
// Cross-partition traffic goes through mailboxes owned by the cross-channel
// halves (see noc::Channel::make_cross_partition). Producers append during
// window execution and stage the drain dirty via note_dirty(). Each window
// then closes in two barrier steps. After the first barrier (every mailbox
// of the window is complete) each worker runs the dirty drains whose
// *consumer* partition lives on its lanes, in drain-id order — channel
// registration order, identical for any lane or thread count — and reads
// its lanes' next-event times. The last worker to reach the second barrier
// opens the next window. Drains convert mailbox entries into ordinary
// partition-local events, which restores the sequential (time, insertion)
// order on the consumer side.
//
// Determinism contract: results, per-partition event counts, idle windows
// and the window count depend only on the partitions, never on the lane or
// thread count. A partition's events touch only its own state; a queue that
// is FIFO within each picosecond keeps every partition's own (time,
// insertion) order whatever else shares it; and drain-id order restricted
// to one consumer partition is the same insertion sequence however the
// drains are grouped (DESIGN.md §9).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "util/units.h"

namespace specnoc::sim {

/// Lockstep-window conservative PDES executor: P partitions on L lanes.
class PartitionedScheduler {
 public:
  /// `partitions` partitions on `execution_lanes` lanes (clamped to
  /// [1, partitions]). Lane 0 is the externally owned scheduler `lane0`
  /// (the network's); the other lanes are created here. `lookahead` must
  /// be > 0 (the caller falls back to sequential execution otherwise).
  PartitionedScheduler(Scheduler& lane0, std::uint32_t partitions,
                       TimePs lookahead, std::uint32_t execution_lanes);
  PartitionedScheduler(const PartitionedScheduler&) = delete;
  PartitionedScheduler& operator=(const PartitionedScheduler&) = delete;
  ~PartitionedScheduler();

  /// Partition count. The reporting API predates execution lanes and keeps
  /// the name: lanes(), lane(), per_lane_executed() and
  /// per_lane_idle_windows() all speak of partitions.
  std::uint32_t lanes() const { return partitions_; }
  /// Event queues actually owned (including `lane0`): one per lane.
  std::uint32_t execution_lanes() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  /// Execution lane that runs partition `partition`: the last lane l with
  /// l * P / L <= partition, so lane l holds [l * P / L, (l + 1) * P / L).
  std::uint32_t lane_of(std::uint32_t partition) const {
    return ((partition + 1) * execution_lanes() - 1) / lanes();
  }
  TimePs lookahead() const { return lookahead_; }
  /// Partition `partition`'s handle: its lane's scheduler, stamping the
  /// partition id on every event scheduled through it.
  SchedulerRef lane(std::uint32_t partition) {
    return {*lanes_[lane_of(partition)]->kernel, partition};
  }

  /// Worker threads requested per window; at least 1. A run uses
  /// workers() = min(threads, execution_lanes()) of them, so a count above
  /// the lane count set at construction cannot add parallelism. 1 executes
  /// the identical window schedule on the calling thread.
  void set_threads(std::uint32_t threads);
  std::uint32_t threads() const { return threads_; }
  /// Worker threads a run actually uses.
  std::uint32_t workers() const {
    return std::min(threads_, execution_lanes());
  }

  /// Registers a mailbox drain that moves entries written by partition
  /// `producer` into partition `consumer`. Dirty drains run at the window
  /// barrier on the consumer's worker in registration order, so
  /// registration order (channel creation order) is the canonical
  /// cross-partition merge order. Returns the drain id for note_dirty().
  std::uint32_t add_drain(std::uint32_t producer, std::uint32_t consumer,
                          std::function<void()> drain);

  /// Marks drain `id` as having pending mailbox entries. Must be called
  /// from the producer partition's executing thread, and only on an
  /// empty-to-nonempty transition.
  void note_dirty(std::uint32_t id);

  /// Runs windows until every lane is idle and every mailbox drained.
  void run();

  /// Runs every event with time <= t, then advances all lane clocks to
  /// exactly t (mirrors Scheduler::run_until).
  void run_until(TimePs t);

  /// Global clock: the max over lane clocks (== t after run_until(t)).
  TimePs now() const;

  /// Totals across lanes (event counts match sequential execution 1:1).
  std::uint64_t executed() const;
  std::size_t pending() const;

  /// Introspection for stats/bench: windows executed, per-partition event
  /// totals, and per-partition count of windows in which the partition ran
  /// nothing. All three are independent of the lane and thread counts.
  std::uint64_t windows() const { return windows_; }
  std::vector<std::uint64_t> per_lane_executed() const;
  std::vector<std::uint64_t> per_lane_idle_windows() const;
  /// Summed overflow-heap occupancy across lanes (telemetry only).
  std::size_t overflow_pending() const;

  /// Observation-only epoch callback, mirroring Scheduler::set_epoch_hook.
  /// Fires at the window barrier's serial step — every other worker is
  /// quiesced — before opening the first window whose start time lies at
  /// or beyond an epoch boundary. Epochs therefore close at window
  /// granularity: up to lookahead-1 ps of an epoch's tail may be attributed
  /// to the previous epoch. The window sequence is a pure function of the
  /// topology, so sampling points (and anything the hook records) are
  /// identical at any lane or worker-thread count.
  void set_epoch_hook(TimePs epoch_ps, Scheduler::EpochHook hook);
  void clear_epoch_hook();

 private:
  /// One execution lane and the partitions it runs. Cache-line aligned:
  /// each lane is written by exactly one worker during a window.
  struct alignas(64) Lane {
    Scheduler* kernel = nullptr;        ///< lane 0: external, else owned
    std::unique_ptr<Scheduler> owned;
    std::uint32_t first = 0;            ///< first partition of the block
    /// Per-partition counters, indexed by partition - first.
    std::vector<std::uint64_t> executed;
    std::vector<std::uint64_t> executed_at_window_start;
    std::vector<std::uint64_t> idle_windows;
    /// staged[c] = drain ids produced on this lane and consumed on lane c,
    /// noted dirty this window. Written only by this lane's worker while
    /// the window runs; read and cleared by lane c's worker after the
    /// first barrier.
    std::vector<std::vector<std::uint32_t>> staged;
    std::vector<std::uint32_t> dirty;  ///< drain-merge scratch
    TimePs next_time = Scheduler::kIdleTime;  ///< after this lane's drains
  };
  struct Drain {
    std::function<void()> fn;
    std::uint32_t producer_lane = 0;
    std::uint32_t consumer_lane = 0;
  };

  void run_windows(TimePs horizon);
  void worker_loop(std::uint32_t worker, std::uint32_t num_workers,
                   TimePs horizon);
  void run_lane_window(Lane& lane, TimePs window_end);
  /// Runs the dirty drains consumed on `lane`, in drain-id order, and
  /// records the lane's next-event time.
  void drain_lane(std::uint32_t lane);
  /// Serial step: the global minimum over drained lanes opens the next
  /// window (firing the epoch hook first when a boundary is crossed).
  /// Returns false when no events <= horizon remain.
  bool open_window(TimePs horizon);
  /// Spin barrier over `num_workers` workers. The last arriver runs
  /// `serial` before releasing the others; `gen` is the caller's barrier
  /// generation and advances by one.
  template <typename Serial>
  void barrier(std::uint32_t num_workers, std::uint64_t& gen,
               Serial&& serial);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint32_t partitions_ = 0;
  TimePs lookahead_ = 0;
  std::uint32_t threads_ = 1;

  std::vector<Drain> drains_;

  std::uint64_t windows_ = 0;

  /// Epoch sampling state (serial step only; see set_epoch_hook).
  TimePs epoch_next_ = Scheduler::kIdleTime;
  TimePs epoch_ps_ = 0;
  Scheduler::EpochHook epoch_hook_;

  // Barrier state for the parallel path. Workers arrive by incrementing
  // arrivals_; the last arriver runs the barrier's serial step and
  // releases the others by bumping generation_ (release), which the
  // spinners observe (acquire). window_end_/done_ are plain fields written
  // only in the serial step, ordered by that release/acquire pair.
  std::atomic<std::uint32_t> arrivals_{0};
  std::atomic<std::uint64_t> generation_{0};
  TimePs window_end_ = 0;
  bool done_ = false;
};

}  // namespace specnoc::sim
