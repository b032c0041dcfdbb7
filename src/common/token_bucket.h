// ByteBucket — a byte-denominated token bucket for egress/ingress rate
// shaping (the per-port shaper rates the QoS controller app programs). Unlike RateLimiter's all-or-nothing acquire,
// admission is debt-based: a caller asks `try_spend(bytes)` and is admitted
// whenever the bucket holds *any* credit, with the full byte cost charged
// even if it overdraws the bucket. Debt carries into the next window, so
// the long-run rate is exact without the caller having to know frame sizes
// before polling — the idiom a burst-polling datapath needs (admit a whole
// burst, charge what it actually weighed, skip the port until the debt
// clears).
//
// set_rate re-seeds the remaining tokens proportionally to the rate change,
// so a rate cut binds within one refill interval instead of after the old
// token window drains (same contract as RateLimiter::set_rate).
#pragma once

#include <algorithm>
#include <mutex>

#include "common/clock.h"

namespace typhoon::common {

class ByteBucket {
 public:
  // rate_bps == 0 means unlimited. Burst capacity is ~20 ms of credit with
  // a floor of a few frames so tiny rates still make forward progress.
  explicit ByteBucket(double rate_bps = 0.0)
      : rate_(rate_bps),
        tokens_(0.0),
        burst_(BurstFor(rate_bps)),
        last_refill_(Now()) {}

  // True while the bucket holds credit (or is unlimited). Pure read — no
  // token mutation — so park predicates can poll it concurrently with the
  // admitting thread.
  [[nodiscard]] bool ready() const {
    std::lock_guard lk(mu_);
    if (rate_ <= 0.0) return true;
    const double elapsed =
        std::chrono::duration<double>(Now() - last_refill_).count();
    return std::min(burst_, tokens_ + elapsed * rate_) > 0.0;
  }

  // Admit-if-any-credit: admitted whenever the refilled bucket is positive,
  // charging the full `bytes` (the balance may go negative — debt).
  bool try_spend(double bytes) {
    std::lock_guard lk(mu_);
    if (rate_ <= 0.0) return true;
    refill_locked();
    if (tokens_ <= 0.0) return false;
    tokens_ -= bytes;
    return true;
  }

  // Unconditional charge (the caller already admitted the bytes).
  void spend(double bytes) {
    std::lock_guard lk(mu_);
    if (rate_ <= 0.0) return;
    refill_locked();
    tokens_ -= bytes;
  }

  void set_rate(double rate_bps) {
    std::lock_guard lk(mu_);
    refill_locked();
    const double old_rate = rate_;
    rate_ = rate_bps;
    burst_ = BurstFor(rate_bps);
    // Re-seed proportionally: credit (or debt) denominated in *time at the
    // old rate* keeps its time meaning at the new rate, so a cut applies
    // within one refill interval instead of after the old window drains.
    if (old_rate > 0.0 && rate_bps > 0.0 && tokens_ != 0.0) {
      tokens_ *= rate_bps / old_rate;
    } else if (old_rate <= 0.0) {
      tokens_ = 0.0;  // newly limited: start empty, like construction
    }
    tokens_ = std::min(tokens_, burst_);
  }

  [[nodiscard]] double rate() const {
    std::lock_guard lk(mu_);
    return rate_;
  }

  [[nodiscard]] double tokens() const {
    std::lock_guard lk(mu_);
    if (rate_ <= 0.0) return 0.0;
    const double elapsed =
        std::chrono::duration<double>(Now() - last_refill_).count();
    return std::min(burst_, tokens_ + elapsed * rate_);
  }

 private:
  static double BurstFor(double rate_bps) {
    return std::max(rate_bps / 50.0, 4096.0);  // ~20 ms, >= a few frames
  }

  void refill_locked() {
    const TimePoint now = Now();
    const double elapsed =
        std::chrono::duration<double>(now - last_refill_).count();
    last_refill_ = now;
    tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  }

  mutable std::mutex mu_;
  double rate_;    // bytes per second; 0 = unlimited
  double tokens_;  // current credit; negative = debt carried forward
  double burst_;   // bucket capacity
  TimePoint last_refill_;
};

}  // namespace typhoon::common
