// Hierarchical bucket queue: the scheduler's pending-event store.
//
// Two tiers, both keyed on picosecond timestamps and both preserving the
// kernel's exact (time, insertion sequence) pop order:
//
//  * Near tier — a ring of kNumBuckets one-picosecond-wide buckets covering
//    the window [base, base + kNumBuckets). Each bucket is an intrusive
//    FIFO list of slab entries; because a bucket spans exactly one
//    picosecond, FIFO order *is* sequence order, so schedule and pop are
//    O(1). A two-level bitmap (one summary word over 64 occupancy words)
//    finds the next non-empty bucket with a handful of countr_zero ops.
//    The window only ever slides forward (base tracks the last popped /
//    advanced-to time), so a circular scan starting at base's bucket is
//    time-ordered despite the wrap-around indexing.
//
//  * Overflow tier — a binary min-heap on (time, seq) for events beyond
//    the window (watchdog timeouts, low-rate open-loop arrivals). Whenever
//    base advances, every overflow event that now falls inside the window
//    is eagerly promoted into its bucket, in heap order. Eager promotion
//    is what keeps mixed-tier ordering exact: a ring insertion at time T
//    can only happen once T is inside the window, by which point any
//    earlier-scheduled (lower-seq) overflow event at T has already been
//    promoted ahead of it.
//
// Event entries live in a slab of fixed-size chunks with a free list:
// after warm-up the queue performs zero heap allocations per event, and
// reserve() can pre-size the slab to eliminate even the warm-up growth.
// Chunking keeps entry addresses stable, which lets the scheduler invoke a
// popped event *in place* — no relocation per pop — even while the handler
// schedules new events into the slab.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "util/contract.h"
#include "util/units.h"

namespace specnoc::sim {

class BucketQueue {
 public:
  /// Near-tier window size in picoseconds (= number of 1 ps buckets).
  /// 4096 covers every switch/channel handshake delay in
  /// nodes/characteristics.cpp (tens to hundreds of ps) and the default
  /// fanin watchdog (900 ps) with slack; only far-future events (low-rate
  /// open-loop arrivals, long horizons) touch the overflow heap.
  static constexpr std::uint32_t kNumBuckets = 4096;

  BucketQueue();
  BucketQueue(const BucketQueue&) = delete;
  BucketQueue& operator=(const BucketQueue&) = delete;

  bool empty() const { return ring_size_ == 0 && overflow_.empty(); }
  std::size_t size() const { return ring_size_ + overflow_.size(); }
  /// Entries parked in the far-future overflow heap (telemetry only).
  std::size_t overflow_size() const { return overflow_.size(); }

  /// Pre-sizes the slab (and overflow heap) for `events` concurrently
  /// pending events, eliminating warm-up vector growth.
  void reserve(std::size_t events);

  /// Inserts `fn` at time `t`, constructing the callable directly inside
  /// the slab entry (no intermediate moves). `tag` rides along in the entry
  /// untouched (the partitioned kernel stores the event's partition there;
  /// see Scheduler). Requires t >= the current window base (the scheduler
  /// guarantees this via its t >= now() precondition).
  template <typename F>
  void push(TimePs t, F&& fn, std::uint32_t tag = 0) {
    SPECNOC_EXPECTS(t >= base_);
    std::uint32_t slot = free_head_;
    Entry* ep;
    if (slot != kNpos) {
      ep = &entry(slot);
      free_head_ = ep->next;
    } else {
      if (slab_size_ == slab_capacity_) add_chunk();
      slot = slab_size_++;
      ep = &entry(slot);
    }
    Entry& e = *ep;
    if constexpr (std::is_same_v<std::decay_t<F>, InplaceEvent>) {
      e.fn = std::forward<F>(fn);
    } else {
      e.fn.emplace(std::forward<F>(fn));
    }
    e.time = t;
    e.next = kNpos;
    e.tag = tag;
    if (t - base_ < kNumBuckets) {
      // Near tier: the bucket spans exactly 1 ps, so FIFO append preserves
      // insertion-sequence order without storing a sequence number.
      const std::uint32_t b = static_cast<std::uint32_t>(t) & kMask;
      Bucket& bucket = buckets_[b];
      if (bucket.tail == kNpos) {
        bucket.head = slot;
        set_bit(b);
      } else {
        entry(bucket.tail).next = slot;
      }
      bucket.tail = slot;
      ++ring_size_;
    } else {
      // Overflow tier: ordered by (time, seq); seqs are only assigned
      // here, and stay monotonic in insertion order, which is all the
      // ordering contract needs (ring/overflow mixing at equal times is
      // impossible — see promote_overflow()).
      overflow_.push_back(OverflowRef{t, next_seq_++, slot});
      sift_up(overflow_.size() - 1);
      overflow_min_ = overflow_.front().time;
    }
  }

  /// Time of the earliest pending event. Requires !empty().
  TimePs min_time() const {
    if (ring_size_ != 0) {
      return entry(buckets_[first_occupied_bucket()].head).time;
    }
    SPECNOC_ASSERT(!overflow_.empty());
    return overflow_.front().time;
  }

  /// A slab entry. Public only so PopRef can carry a pointer to one; the
  /// scheduler reads nothing but `tag`. The tag occupies what would
  /// otherwise be tail padding, so tagging costs no slab bytes.
  struct Entry {
    InplaceEvent fn;
    TimePs time = 0;
    std::uint32_t next = 0xffffffffu;
    std::uint32_t tag = 0;
  };

  /// Handle to a popped-but-not-yet-recycled event. The entry's address is
  /// stable (chunked slab), so the scheduler can fire the event in place
  /// while the handler schedules new events, then recycle the slot.
  struct PopRef {
    TimePs time;
    std::uint32_t slot;
    Entry* entry;
  };

  /// Unlinks the earliest pending event — minimal (time, seq) — advancing
  /// the window to its timestamp. The entry stays alive until recycle().
  /// Requires !empty().
  PopRef pop() {
    SPECNOC_EXPECTS(!empty());
    if (ring_size_ == 0) {
      // Everything pending is far-future: jump the window to the overflow
      // minimum, which promotes at least that event into the ring.
      advance_base(overflow_min_);
      SPECNOC_ASSERT(ring_size_ != 0);
    }
    const std::uint32_t b = first_occupied_bucket();
    Bucket& bucket = buckets_[b];
    const std::uint32_t slot = bucket.head;
    Entry& e = entry(slot);
    if (e.time != base_) {
      // Sliding the window forward may promote overflow events, but only
      // at strictly later times than e.time, never into bucket b.
      advance_base(e.time);
    }
    bucket.head = e.next;
    if (bucket.head == kNpos) {
      bucket.tail = kNpos;
      clear_bit(b);
    }
    --ring_size_;
    return PopRef{e.time, slot, &e};
  }

  /// Fires a popped event in place, destroying its callable (one indirect
  /// call for the whole sequence).
  void invoke_and_dispose(const PopRef& ref) {
    ref.entry->fn.invoke_and_dispose();
  }

  /// Returns a popped (and fired) event's slot to the free list.
  void recycle(const PopRef& ref) {
    ref.entry->next = free_head_;
    free_head_ = ref.slot;
  }

  /// Slides the window base forward to `t`. Requires that no pending event
  /// is earlier than `t` (the scheduler calls this from run_until after
  /// draining all events <= t).
  void advance_to(TimePs t);

 private:
  static constexpr std::uint32_t kMask = kNumBuckets - 1;
  static constexpr std::uint32_t kNumWords = kNumBuckets / 64;
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  /// Slab chunk size (entries). 256 entries ≈ 20 KiB per chunk: small
  /// enough that warm-up growth is cheap, large enough that chunk lookups
  /// stay in one or two cache lines of the chunk table.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  struct Bucket {
    std::uint32_t head = kNpos;
    std::uint32_t tail = kNpos;
  };
  struct OverflowRef {
    TimePs time;
    std::uint64_t seq;
    std::uint32_t slot;
    bool earlier_than(const OverflowRef& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  Entry& entry(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  const Entry& entry(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  void link_into_bucket(std::uint32_t slot) {
    const std::uint32_t b =
        static_cast<std::uint32_t>(entry(slot).time) & kMask;
    Bucket& bucket = buckets_[b];
    if (bucket.tail == kNpos) {
      bucket.head = slot;
      set_bit(b);
    } else {
      entry(bucket.tail).next = slot;
    }
    bucket.tail = slot;
  }

  void set_bit(std::uint32_t b) {
    words_[b >> 6] |= std::uint64_t{1} << (b & 63u);
    summary_ |= std::uint64_t{1} << (b >> 6);
  }
  void clear_bit(std::uint32_t b) {
    words_[b >> 6] &= ~(std::uint64_t{1} << (b & 63u));
    if (words_[b >> 6] == 0) summary_ &= ~(std::uint64_t{1} << (b >> 6));
  }

  /// Index of the first occupied bucket at or circularly after base's
  /// bucket. Requires ring_size_ != 0.
  std::uint32_t first_occupied_bucket() const {
    const std::uint32_t start = static_cast<std::uint32_t>(base_) & kMask;
    const std::uint32_t w0 = start >> 6;
    const std::uint32_t b0 = start & 63u;
    // Bits at or after the start position within the start word.
    std::uint64_t word = words_[w0] & (~std::uint64_t{0} << b0);
    if (word != 0) {
      return (w0 << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
    }
    // Whole words strictly after the start word.
    std::uint64_t sum =
        w0 + 1 < kNumWords ? summary_ & (~std::uint64_t{0} << (w0 + 1)) : 0;
    if (sum == 0) {
      // Wrapped region: words before the start word, then the low bits of
      // the start word itself (both hold later timestamps than start).
      sum = summary_ & ((std::uint64_t{1} << w0) - 1);
      if (sum == 0) {
        word = words_[w0];
        SPECNOC_ASSERT(word != 0);
        return (w0 << 6) +
               static_cast<std::uint32_t>(std::countr_zero(word));
      }
    }
    const auto w = static_cast<std::uint32_t>(std::countr_zero(sum));
    SPECNOC_ASSERT(words_[w] != 0);
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(words_[w]));
  }

  /// Slides the window to `new_base` and eagerly promotes every overflow
  /// event now inside [new_base, new_base + kNumBuckets).
  /// overflow_min_ mirrors the heap top (kNoOverflow when empty) so the
  /// no-promotion fast path is a single comparison.
  void advance_base(TimePs new_base) {
    SPECNOC_ASSERT(new_base >= base_);
    base_ = new_base;
    if (overflow_min_ - new_base < kNumBuckets) {
      promote_overflow();
    }
  }

  void promote_overflow();  // cold paths, bucket_queue.cpp
  void add_chunk();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  /// Sentinel for overflow_min_ when the overflow heap is empty: far
  /// enough ahead that `overflow_min_ - base < kNumBuckets` stays false
  /// for any reachable base, yet never overflows the subtraction.
  static constexpr TimePs kNoOverflow =
      std::numeric_limits<TimePs>::max() / 2;

  TimePs base_ = 0;              ///< window start; only ever advances
  TimePs overflow_min_ = kNoOverflow;  ///< == overflow_.front().time
  std::uint64_t next_seq_ = 0;   ///< assigned to overflow-tier events only
  std::size_t ring_size_ = 0;    ///< pending in the near tier
  std::uint32_t free_head_ = kNpos;
  std::uint32_t slab_size_ = 0;
  std::uint32_t slab_capacity_ = 0;
  std::uint64_t summary_ = 0;
  std::uint64_t words_[kNumWords] = {};
  Bucket buckets_[kNumBuckets];
  std::vector<std::unique_ptr<Entry[]>> chunks_;  ///< stable-address slab
  std::vector<OverflowRef> overflow_;  ///< binary min-heap on (time, seq)
};

}  // namespace specnoc::sim
