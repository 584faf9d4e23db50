#pragma once
// Cancellable discrete-event queue.
//
// Events are (time, sequence, callback) triples ordered by time then by
// insertion sequence, which makes simultaneous events fire in a deterministic
// FIFO order.
//
// Storage is one indexed binary min-heap over (when, seq): every pending
// event has exactly one heap entry, and pos_[slot id] is that entry's index.
// Nothing is deleted lazily, so the heap never holds a stale entry:
//  * cancel() removes the entry at its index and recycles the slot at once;
//  * reschedule() of a pending event re-keys its entry in place, sifting it
//    up or down;
//  * while an event's callback runs its entry stays at the root, so the
//    dominant traffic (a per-CPU tick or exec completion re-armed from its
//    own callback) costs one sift-down — no pop, no push.
// The paper runs keep at most a few dozen events pending (docs/performance.md
// has the measured maxima), so the whole heap is a few cache lines.
//
// Hot-path design (see docs/performance.md):
//  * Callbacks are InplaceFunction — a fixed 48-byte inline buffer, so
//    scheduling never allocates and dispatch is one indirect call.
//  * Slots live in fixed chunks whose addresses never move, so a callback is
//    invoked in place even if it schedules new events (no per-dispatch
//    closure moves, unlike a std::vector of slots that may reallocate).
//  * reschedule() moves a pending event to a new time without touching its
//    callback, and may be called from *inside* the firing callback to re-arm
//    the same slot, keeping the handle valid and skipping the
//    destroy/construct/slot-allocate cycle entirely.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "simcore/inplace_function.h"

namespace hpcs::sim {

/// Inline capacity for event closures. Sized for the largest capture list in
/// the simulator (simmpi's [this, rank, dst, Message] sends); growing it is
/// cheap, but audit sizeof(EventQueue::Slot) when you do.
inline constexpr std::size_t kEventCallbackCapacity = 48;

using EventCallback = InplaceFunction<void(), kEventCallbackCapacity>;

/// Always-on queue counters (plain int64 increments on paths that already
/// touch the slot — too cheap to gate). Observability snapshots them into
/// the per-run metrics manifest as the sim.eq_* counters.
struct EventQueueStats {
  std::int64_t scheduled = 0;        ///< schedule() calls
  std::int64_t dispatched = 0;       ///< callbacks actually run
  std::int64_t resched_pending = 0;  ///< reschedule() moved a pending event
  std::int64_t resched_inplace = 0;  ///< reschedule() re-armed the firing slot
};

/// Opaque reference to a scheduled event; safe to keep after the event fired
/// or was cancelled (operations on a stale handle are no-ops).
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return id_ != kNoId; }

 private:
  friend class EventQueue;
  static constexpr std::uint64_t kNoId = ~std::uint64_t{0};
  EventHandle(std::uint64_t id, std::uint64_t gen) : id_(id), gen_(gen) {}
  std::uint64_t id_ = kNoId;
  std::uint64_t gen_ = 0;
};

class EventQueue {
 public:
  /// Test seam: start the insertion-sequence counter near an arbitrary value
  /// so the wrapping-u32 tiebreak can be exercised around UINT32_MAX without
  /// four billion warm-up schedules. Only valid on an empty queue.
  void set_next_seq_for_test(std::uint32_t s) {
    HPCS_CHECK_MSG(heap_.empty(), "set_next_seq_for_test() on a non-empty EventQueue");
    next_seq_ = s;
  }

  /// Structural self-check: heap order, pos_[heap_[i].id] == i, and every
  /// live slot in the heap exactly once (plus the firing slot's own entry
  /// while its callback runs). Returns an empty string when all hold, else
  /// the first violation. O(slots); for tests, not the event loop.
  [[nodiscard]] std::string check_invariants() const;

  // HPCS_HOT_BEGIN — the public dispatch surface: every simulated event
  // passes through here, and none of it may allocate or construct a
  // std::function (hpcslint enforces; docs/performance.md explains). The
  // only allocations in the queue are the slot-table and heap growth in
  // alloc_slot() and heap_push(): they run once per table growth, not per
  // event.

  /// Schedule `cb` to fire at absolute time `when` (must not be in the past
  /// relative to the last popped event).
  EventHandle schedule(SimTime when, EventCallback cb) {
    ++stats_.scheduled;
    const std::uint32_t id = alloc_slot();
    Slot& slot = slot_at(id);
    slot.cb = std::move(cb);
    slot.live = true;
    ++slot.gen;
    ++live_count_;
    heap_push(HeapEntry{when, next_seq_++, id});
    return EventHandle{id, slot.gen};
  }

  /// Cancel a previously scheduled event. Returns true if the event was
  /// still pending; false if it already fired, was cancelled, or the handle
  /// is stale.
  bool cancel(EventHandle h) {
    if (!pending(h)) return false;
    const auto id = static_cast<std::uint32_t>(h.id_);
    Slot& slot = slot_at(id);
    slot.live = false;
    --live_count_;
    heap_remove(pos_[id]);
    // A firing event that re-armed and then cancelled itself is still
    // executing in place: run_next() frees it when the callback returns.
    if (id != firing_slot_) release_slot(id);
    return true;
  }

  /// Move the event behind `h` to fire at `when` instead, reusing its stored
  /// callback and keeping `h` valid. Also works from inside the event's own
  /// callback while it is firing (the recurring-event fast path: the slot's
  /// root entry is re-keyed instead of freed when the callback returns).
  /// Returns false — and does nothing — if the handle is stale or cancelled;
  /// callers then fall back to schedule().
  bool reschedule(EventHandle h, SimTime when) {
    if (pending(h)) {
      ++stats_.resched_pending;
      rekey(pos_[h.id_], HeapEntry{when, next_seq_++, static_cast<std::uint32_t>(h.id_)});
      return true;
    }
    if (h.valid() && h.id_ == firing_slot_ && h.gen_ == firing_gen_) {
      ++stats_.resched_inplace;
      const auto id = static_cast<std::uint32_t>(h.id_);
      slot_at(id).live = true;
      ++live_count_;
      const HeapEntry e{when, next_seq_++, id};
      // The entry is gone only if the callback re-armed and cancelled
      // itself earlier in this same firing.
      if (pos_[id] == kNoPos) {
        heap_push(e);
      } else {
        rekey(pos_[id], e);
      }
      return true;
    }
    return false;
  }

  /// True if an event scheduled through `h` is still pending.
  [[nodiscard]] bool pending(EventHandle h) const {
    if (!h.valid() || h.id_ >= slot_count_) return false;
    const Slot& slot = slot_at(h.id_);
    return slot.live && slot.gen == h.gen_;
  }

  /// Pending events; the one whose callback is running does not count.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event. Requires !empty(); not callable
  /// from inside a callback (the firing entry still holds the root).
  [[nodiscard]] SimTime next_time() const {
    HPCS_CHECK_MSG(!heap_.empty(), "next_time() on empty event queue");
    HPCS_CHECK_MSG(firing_slot_ == kNoSlot, "next_time() from inside a callback");
    return heap_.front().when;
  }

  /// Pop and run the earliest pending event; returns its time.
  SimTime pop_and_run() {
    SimTime t = SimTime::zero();
    const bool ran = run_next(SimTime::max(), t);
    HPCS_CHECK_MSG(ran, "pop_and_run() on empty event queue");
    return t;
  }

  /// Fused fast path for the simulator loop: if the earliest pending event
  /// fires at or before `deadline`, store its time into `clock`, run it and
  /// return true. Returns false (leaving `clock` untouched) when the queue
  /// is empty or the next event is past the deadline. Not reentrant: a
  /// callback must not dispatch events itself.
  bool run_next(SimTime deadline, SimTime& clock) {
    HPCS_CHECK_MSG(firing_slot_ == kNoSlot, "EventQueue::run_next() from inside a callback");
    if (heap_.empty() || heap_.front().when > deadline) return false;
    clock = heap_.front().when;
    ++stats_.dispatched;
    const std::uint32_t id = heap_.front().id;
    Slot& slot = slot_at(id);
    slot.live = false;
    --live_count_;
    firing_slot_ = id;
    firing_gen_ = slot.gen;
    // Chunk addresses are stable, so the closure runs in place; scheduling
    // from inside the callback cannot move it. Its entry stays in the heap
    // (at the root unless the callback cancelled or re-keyed it).
    slot.cb();
    firing_slot_ = kNoSlot;
    if (slot.live) return true;  // re-armed: its entry was re-keyed in place
    if (pos_[id] != kNoPos) heap_remove(pos_[id]);
    release_slot(id);  // fired for good: destroy the closure, recycle
    return true;
  }

  /// Drop all pending events and reset sequence numbering, so a reused queue
  /// behaves exactly like a fresh one (tie-break order is part of the
  /// determinism contract). Must not be called from inside a firing
  /// callback: closures execute in place, so their storage has to outlive
  /// the call.
  void clear() {
    HPCS_CHECK_MSG(firing_slot_ == kNoSlot, "EventQueue::clear() from inside a callback");
    heap_.clear();
    pos_.clear();
    chunks_.clear();
    slot_count_ = 0;
    free_slots_.clear();
    live_count_ = 0;
    next_seq_ = 0;
    stats_ = EventQueueStats{};
  }

  [[nodiscard]] const EventQueueStats& stats() const { return stats_; }

  // HPCS_HOT_END

 private:
  /// 16 bytes: four entries per cache line during the sift loops, which are
  /// pure HeapEntry traffic. Slot ids fit u32 by the alloc_slot() cap; seq
  /// is a wrapping 32-bit window — see operator> for why wraparound cannot
  /// reorder pending events.
  struct HeapEntry {
    SimTime when;
    std::uint32_t seq;
    std::uint32_t id;
    bool operator>(const HeapEntry& o) const {
      if (when != o.when) return when > o.when;
      // Wraparound-aware window compare: correct while same-instant entries
      // sit within 2^31 schedule() calls of each other. Tie-break order only
      // matters between pending entries at the same `when`, and the
      // simulator's same-instant fan-out (per-CPU ticks, message deliveries)
      // is bounded by machine size — nowhere near the 2^31 window.
      return static_cast<std::int32_t>(seq - o.seq) > 0;
    }
  };
  static_assert(sizeof(HeapEntry) == 16, "heap entries are four per cache line");
  struct Slot {
    EventCallback cb;
    std::uint64_t gen = 0;
    /// Pending: scheduled, not cancelled, and not currently firing.
    bool live = false;
  };

  /// Slots are allocated in fixed-size chunks so their addresses are stable:
  /// a firing callback runs in place even when it schedules new events.
  static constexpr std::uint64_t kChunkShift = 6;
  static constexpr std::uint64_t kChunkSize = 1ull << kChunkShift;
  static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoPos = ~std::uint32_t{0};

  [[nodiscard]] Slot& slot_at(std::uint64_t id) {
    return chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint64_t id) const {
    return chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }

  std::uint32_t alloc_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t id = free_slots_.back();
      free_slots_.pop_back();
      return id;
    }
    // Heap entries address slots with 32 bits. Slots are recycled, so the
    // count only grows with the peak number of simultaneously pending
    // events — 2^32 of them would be a runaway workload, not a sweep.
    HPCS_CHECK_MSG(slot_count_ < kNoPos, "EventQueue slot table exceeds 32-bit heap-entry ids");
    const auto id = static_cast<std::uint32_t>(slot_count_++);
    if ((id >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    pos_.push_back(kNoPos);
    return id;
  }

  // HPCS_HOT_BEGIN — per-event heap maintenance.

  /// Destroy a slot's closure and put the slot on the free list. The
  /// generation bump at the next schedule() keeps old handles stale.
  void release_slot(std::uint32_t id) {
    slot_at(id).cb = nullptr;
    free_slots_.push_back(id);
  }

  /// Store `e` at index `i` and record its position.
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    pos_[e.id] = static_cast<std::uint32_t>(i);
  }

  /// Hand-rolled sifts that move the hole and write `e` once. Sift-down
  /// stops as soon as `e` dominates both children — a re-armed tick
  /// usually belongs near the top, so this is O(1) in practice. Pop order
  /// depends only on the (when, seq) total order, so the layout is free to
  /// differ from std::*_heap without affecting determinism.
  void sift_up(std::size_t i, const HeapEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(heap_[parent] > e)) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i, const HeapEntry& e) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
      if (!(e > heap_[child])) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  void heap_push(const HeapEntry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
  }

  /// Replace the entry at index `i` by `e` (same slot id, new key).
  void rekey(std::size_t i, const HeapEntry& e) {
    if (i > 0 && heap_[(i - 1) / 2] > e) {
      sift_up(i, e);
    } else {
      sift_down(i, e);
    }
  }

  /// Remove the entry at index `i`; the last entry fills the hole.
  void heap_remove(std::size_t i) {
    pos_[heap_[i].id] = kNoPos;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) rekey(i, last);
  }

  // HPCS_HOT_END

  std::vector<HeapEntry> heap_;  ///< min-heap by (when, seq); one entry per event
  std::vector<std::uint32_t> pos_;  ///< slot id -> heap index, kNoPos if none
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint64_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  /// Wrapping 32-bit sequence window (see HeapEntry::operator>).
  std::uint32_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  /// Slot currently executing inside run_next (kNoSlot otherwise); its
  /// callback may re-arm itself via reschedule().
  std::uint64_t firing_slot_ = kNoSlot;
  std::uint64_t firing_gen_ = 0;
  EventQueueStats stats_;
};

inline std::string EventQueue::check_invariants() const {
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry& e = heap_[i];
    if (e.id >= slot_count_) return "heap[" + std::to_string(i) + "] names no slot";
    if (i > 0 && heap_[(i - 1) / 2] > e) {
      return "heap order violated at index " + std::to_string(i);
    }
    if (pos_[e.id] != i) {
      return "pos[" + std::to_string(e.id) + "] = " + std::to_string(pos_[e.id]) +
             " but the entry sits at heap index " + std::to_string(i);
    }
  }
  // pos_ matching every heap index already rules out a duplicate entry; now
  // check that exactly the pending slots (and a firing one) hold an entry.
  std::size_t live = 0;
  for (std::uint64_t id = 0; id < slot_count_; ++id) {
    const bool in_heap = pos_[id] != kNoPos;
    if (in_heap && (pos_[id] >= heap_.size() || heap_[pos_[id]].id != id)) {
      return "pos[" + std::to_string(id) + "] points at another slot's entry";
    }
    const bool live_slot = slot_at(id).live;
    live += live_slot ? 1 : 0;
    if (live_slot && !in_heap) return "pending slot " + std::to_string(id) + " has no entry";
    if (!live_slot && in_heap && id != firing_slot_) {
      return "slot " + std::to_string(id) + " is not pending but holds an entry";
    }
  }
  if (live != live_count_) {
    return std::to_string(live) + " pending slots but size() is " + std::to_string(live_count_);
  }
  return {};
}

}  // namespace hpcs::sim
