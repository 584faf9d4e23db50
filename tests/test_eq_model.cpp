// Model-based test of the event queue: a seeded random mix of schedule,
// cancel and reschedule calls, made both from the top level and from inside
// firing callbacks, drives EventQueue and a naive reference side by side.
// The reference is a std::vector kept sorted by (when, seq) with an
// unbounded 64-bit sequence counter, so it needs no wraparound logic. After
// every operation the test compares the dispatch order, pending() for every
// handle ever issued, size()/empty() and EventQueue::check_invariants().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simcore/event_queue.h"

namespace hpcs::sim {
namespace {

/// The reference queue: pending events sorted by (when, seq).
struct Reference {
  struct Entry {
    std::int64_t when;
    std::uint64_t seq;
    int label;
  };
  std::vector<Entry> pending;
  std::vector<bool> is_pending;  // by label
  std::uint64_t next_seq = 0;

  void add(std::int64_t when, int label) {
    const Entry e{when, next_seq++, label};
    const auto at = std::upper_bound(
        pending.begin(), pending.end(), e, [](const Entry& x, const Entry& y) {
          return x.when != y.when ? x.when < y.when : x.seq < y.seq;
        });
    pending.insert(at, e);
    is_pending[static_cast<std::size_t>(label)] = true;
  }

  bool remove(int label) {
    if (!is_pending[static_cast<std::size_t>(label)]) return false;
    pending.erase(std::find_if(pending.begin(), pending.end(),
                               [label](const Entry& e) { return e.label == label; }));
    is_pending[static_cast<std::size_t>(label)] = false;
    return true;
  }
};

class ModelHarness {
 public:
  ModelHarness(std::uint64_t seed, std::uint32_t seq0) : rng_(seed) {
    q_.set_next_seq_for_test(seq0);
    ref_.next_seq = seq0;  // the reference counts on past 2^32; the queue wraps
  }

  void run(int top_level_ops) {
    for (int i = 0; i < top_level_ops && !::testing::Test::HasFailure(); ++i) op(false);
    // Drain with no further in-callback work so the run terminates.
    draining_ = true;
    while (!ref_.pending.empty() && !::testing::Test::HasFailure()) dispatch();
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(fired_, expected_);
  }

  [[nodiscard]] std::size_t dispatched() const { return fired_.size(); }

 private:
  static constexpr int kMaxLabels = 1500;

  std::int64_t pick_delay() {
    const double r = rng_.uniform();
    if (r < 0.3) return 0;                      // zero-delay follow-up / same-instant tie
    if (r < 0.7) return rng_.uniform_int(1, 5);  // dense ties
    return rng_.uniform_int(6, 2000);
  }

  /// Any handle ever issued (stale ones included), or the firing event's.
  int pick_label(bool in_callback) {
    if (in_callback && rng_.uniform() < 0.3) return firing_;
    if (handles_.empty()) return -1;
    return static_cast<int>(rng_.uniform_int(0, static_cast<std::int64_t>(handles_.size()) - 1));
  }

  void op(bool in_callback) {
    if (::testing::Test::HasFailure()) return;
    const double dice = rng_.uniform();
    if (dice < 0.4) {
      if (static_cast<int>(handles_.size()) >= kMaxLabels) return;
      const int label = static_cast<int>(handles_.size());
      const std::int64_t when = now_ + pick_delay();
      ref_.is_pending.push_back(false);
      ref_.add(when, label);
      handles_.push_back(q_.schedule(SimTime(when), [this, label] { fire(label); }));
      check("schedule");
    } else if (dice < 0.6) {
      const int label = pick_label(in_callback);
      if (label < 0) return;
      const bool want = ref_.remove(label);
      EXPECT_EQ(q_.cancel(handles_[static_cast<std::size_t>(label)]), want)
          << "cancel of label " << label;
      check("cancel");
    } else if (dice < 0.85) {
      const int label = pick_label(in_callback);
      if (label < 0) return;
      const std::int64_t when = now_ + pick_delay();
      // Pending: re-key. Firing (re-armed or not): re-arm. Else: a no-op
      // that consumes no sequence number.
      const bool want = ref_.remove(label) || label == firing_;
      if (want) ref_.add(when, label);
      EXPECT_EQ(q_.reschedule(handles_[static_cast<std::size_t>(label)], SimTime(when)), want)
          << "reschedule of label " << label;
      check("reschedule");
    } else if (!in_callback) {
      dispatch();
    }
  }

  void dispatch() {
    if (ref_.pending.empty()) {
      EXPECT_TRUE(q_.empty());
      return;
    }
    const Reference::Entry next = ref_.pending.front();
    EXPECT_EQ(q_.next_time(), SimTime(next.when));
    ref_.pending.erase(ref_.pending.begin());
    ref_.is_pending[static_cast<std::size_t>(next.label)] = false;
    expected_.push_back(next.label);
    firing_ = next.label;
    now_ = next.when;
    const std::size_t before = fired_.size();
    EXPECT_EQ(q_.pop_and_run(), SimTime(next.when));
    EXPECT_EQ(fired_.size(), before + 1) << "one dispatch must run one callback";
    firing_ = -1;
    check("dispatch");
  }

  /// The callback body of every event.
  void fire(int label) {
    fired_.push_back(label);
    EXPECT_EQ(label, firing_) << "dispatch order diverged from the reference";
    check("callback entry");
    if (draining_) return;
    const auto ops = rng_.uniform_int(0, 3);
    for (std::int64_t i = 0; i < ops; ++i) op(true);
  }

  void check(const char* after) {
    ASSERT_EQ(q_.size(), ref_.pending.size()) << "after " << after;
    ASSERT_EQ(q_.empty(), ref_.pending.empty()) << "after " << after;
    for (std::size_t l = 0; l < handles_.size(); ++l) {
      ASSERT_EQ(q_.pending(handles_[l]), static_cast<bool>(ref_.is_pending[l]))
          << "pending() of label " << l << " after " << after;
    }
    ASSERT_EQ(q_.check_invariants(), "") << "after " << after;
  }

  EventQueue q_;
  Reference ref_;
  Rng rng_;
  std::vector<EventHandle> handles_;
  std::vector<int> expected_;
  std::vector<int> fired_;
  int firing_ = -1;
  std::int64_t now_ = 0;
  bool draining_ = false;
};

TEST(EventQueueModel, MatchesSortedVectorReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelHarness h(seed, 0);
    h.run(2500);
    EXPECT_GT(h.dispatched(), 500u);
  }
}

TEST(EventQueueModel, MatchesReferenceAcrossSeqWrap) {
  // The insertion sequence wraps through UINT32_MAX after 32 operations, in
  // the middle of dense same-instant ties.
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelHarness h(seed, 0xFFFFFFE0u);
    h.run(2500);
    EXPECT_GT(h.dispatched(), 500u);
  }
}

}  // namespace
}  // namespace hpcs::sim
