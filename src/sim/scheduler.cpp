#include "sim/scheduler.h"

// Regression note: the previous kernel (a std::priority_queue of
// std::function entries) moved events out of priority_queue::top() through a
// const_cast — UB-adjacent, and each pop paid an O(log n) sift plus a heap
// allocation for any capture beyond the std::function SBO. The bucket-queue
// pop path moves events out of a mutable slab entry instead; the ASan/UBSan
// CI job exercises this path across the whole test suite.

namespace specnoc::sim {

void Scheduler::set_epoch_hook(TimePs epoch_ps, EpochHook hook) {
  SPECNOC_EXPECTS(epoch_ps > 0);
  SPECNOC_EXPECTS(static_cast<bool>(hook));
  epoch_ps_ = epoch_ps;
  epoch_hook_ = std::move(hook);
  epoch_next_ = (now_ / epoch_ps_ + 1) * epoch_ps_;
}

void Scheduler::clear_epoch_hook() {
  epoch_ps_ = 0;
  epoch_hook_ = nullptr;
  epoch_next_ = kIdleTime;
}

void Scheduler::cross_epoch(TimePs t) {
  const TimePs boundary = t - t % epoch_ps_;
  epoch_next_ = boundary + epoch_ps_;
  epoch_hook_(boundary);
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(TimePs t) {
  SPECNOC_EXPECTS(t >= now_);
  while (!queue_.empty() && queue_.min_time() <= t) {
    step();
  }
  now_ = t;
  // Keep the bucket window tracking the clock so short relative delays
  // scheduled after a long quiet gap still land in the O(1) near tier.
  queue_.advance_to(t);
}

void Scheduler::run_until_tagged(TimePs t,
                                 std::span<std::uint64_t> executed_by_tag,
                                 std::uint32_t first_tag) {
  SPECNOC_EXPECTS(t >= now_);
  while (!queue_.empty() && queue_.min_time() <= t) {
    const BucketQueue::PopRef ref = queue_.pop();
    now_ = ref.time;
    ++executed_;
    const std::uint32_t index = ref.entry->tag - first_tag;  // wraps if below
    SPECNOC_ASSERT(index < executed_by_tag.size());
    ++executed_by_tag[index];
    queue_.invoke_and_dispose(ref);
    queue_.recycle(ref);
  }
  now_ = t;
  queue_.advance_to(t);
}

}  // namespace specnoc::sim
