// Deadline: a single point-in-time wall-clock budget.
//
// Before the Session API every budgeted loop (synthesizer candidate
// enumeration, engine eval budget, MDP BFS, interactive rounds) re-read the
// clock against its own locally-computed "seconds remaining", each with a
// different stride, so the effective budgets drifted apart. A Deadline is
// computed once, passed by value, and every site asks the same question:
// has this instant passed?
//
// Conventions:
//   * Deadline()            == never expires (infinite budget).
//   * Deadline::After(s)    expires s seconds from now; s <= 0 is already
//                           expired, and s beyond the clock's range (+inf
//                           included) is Infinite(). Knobs where "0 disables
//                           the check" translate through AfterOrInfinite.
//   * Earliest(a, b)        composes budgets: a stage-local cap against the
//                           run-wide deadline.

#ifndef DYNAMITE_UTIL_DEADLINE_H_
#define DYNAMITE_UTIL_DEADLINE_H_

#include <algorithm>
#include <chrono>
#include <limits>

namespace dynamite {

/// A wall-clock instant after which a run must stop.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() : when_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  /// Expires `seconds` from now (<= 0: already expired). A budget the
  /// clock cannot represent (+inf, or past Clock::time_point::max(), about
  /// 292 years out) saturates to Infinite() instead of overflowing.
  static Deadline After(double seconds) {
    Deadline d;
    const Clock::time_point now = Clock::now();
    if (seconds <= 0) {
      d.when_ = now;
      return d;
    }
    // One second of slack absorbs the rounding of the double comparison.
    const double headroom =
        std::chrono::duration<double>(Clock::time_point::max() - now).count() - 1;
    if (!(seconds < headroom)) return Infinite();
    d.when_ = now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    return d;
  }

  /// Knob translation: `seconds` > 0 behaves like After(seconds); <= 0
  /// means "check disabled", i.e. Infinite().
  static Deadline AfterOrInfinite(double seconds) {
    return seconds > 0 ? After(seconds) : Infinite();
  }

  /// The tighter of two deadlines.
  static Deadline Earliest(Deadline a, Deadline b) {
    Deadline d;
    d.when_ = std::min(a.when_, b.when_);
    return d;
  }

  bool infinite() const { return when_ == Clock::time_point::max(); }

  /// True once the instant has passed. Infinite deadlines never expire and
  /// never touch the clock.
  bool Expired() const { return !infinite() && Clock::now() >= when_; }

  /// Seconds until expiry: negative once expired, +inf when infinite.
  double RemainingSeconds() const {
    if (infinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(when_ - Clock::now()).count();
  }

 private:
  Clock::time_point when_;
};

}  // namespace dynamite

#endif  // DYNAMITE_UTIL_DEADLINE_H_
