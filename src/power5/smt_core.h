#pragma once
// One POWER5 core: two SMT contexts whose speeds are coupled through the
// decode-priority arbitration. The kernel updates context state (priority,
// active, snoozed) and subscribes to speed changes so in-flight compute
// phases can be re-linearized. Every state change reads both speeds from a
// SpeedTable, which a Chip builds once and shares among its cores.

#include <array>
#include <functional>
#include <memory>

#include "common/check.h"
#include "common/types.h"
#include "power5/hw_priority.h"
#include "power5/throughput.h"

namespace hpcs::p5 {

/// Index of a context within its core (0 or 1).
using CtxId = int;

class SmtCore {
 public:
  /// Called whenever the speed of either context may have changed.
  using SpeedChangeListener = std::function<void(CoreId)>;

  /// A core reading its speeds from `table` (shared with its sibling cores).
  SmtCore(CoreId id, std::shared_ptr<const SpeedTable> table)
      : id_(id), table_(std::move(table)) {
    recompute();
  }
  /// A stand-alone core with a table of its own.
  SmtCore(CoreId id, const ThroughputParams& params)
      : SmtCore(id, std::make_shared<const SpeedTable>(params)) {}

  [[nodiscard]] CoreId id() const { return id_; }

  /// Set the hardware priority of one context. Returns true if it changed.
  bool set_priority(CtxId ctx, HwPrio p) {
    if (prio_[check_ctx(ctx)] == p) return false;
    prio_[ctx] = p;
    return changed();
  }
  /// Mark a context as executing work (true) or idle/halted (false).
  /// Deactivating also clears the snoozed flag (fresh idle spins first).
  bool set_active(CtxId ctx, bool active) {
    if (active_[check_ctx(ctx)] == active && !snoozed_[ctx]) return false;
    active_[ctx] = active;
    snoozed_[ctx] = false;  // any activity transition restarts the spin phase
    return changed();
  }
  /// Mark an idle context as snoozed: it cedes the core so the sibling runs
  /// in single-thread mode (the Linux smt_snooze_delay expiry).
  bool set_snoozed(CtxId ctx, bool snoozed) {
    if (snoozed_[check_ctx(ctx)] == snoozed) return false;
    snoozed_[ctx] = snoozed;
    return changed();
  }
  [[nodiscard]] bool snoozed(CtxId ctx) const { return snoozed_[check_ctx(ctx)]; }

  [[nodiscard]] HwPrio priority(CtxId ctx) const { return prio_[check_ctx(ctx)]; }
  [[nodiscard]] bool active(CtxId ctx) const { return active_[check_ctx(ctx)]; }

  /// Current throughput of a context relative to ST mode (0 when inactive).
  [[nodiscard]] double speed(CtxId ctx) const { return speeds_[check_ctx(ctx)]; }

  void set_listener(SpeedChangeListener l) { listener_ = std::move(l); }

 private:
  static CtxId check_ctx(CtxId ctx) {
    HPCS_CHECK_MSG(ctx == 0 || ctx == 1, "context index must be 0 or 1");
    return ctx;
  }
  /// The state changed: look its speeds up and tell the listener.
  bool changed() {
    recompute();
    if (listener_) listener_(id_);
    return true;
  }
  void recompute() {
    const CoreSpeeds& s =
        (*table_)(prio_[0], active_[0], prio_[1], active_[1], snoozed_[0], snoozed_[1]);
    speeds_ = {s.a, s.b};
  }

  CoreId id_;
  std::shared_ptr<const SpeedTable> table_;
  std::array<HwPrio, 2> prio_{kDefaultPrio, kDefaultPrio};
  std::array<bool, 2> active_{};
  std::array<bool, 2> snoozed_{};
  std::array<double, 2> speeds_{};
  SpeedChangeListener listener_;
};

}  // namespace hpcs::p5
