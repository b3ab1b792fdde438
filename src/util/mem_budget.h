// MemoryBudget: cooperative byte accounting for a single run.
//
// The engine already caps tuple COUNTS (Options::max_derived_tuples →
// kEvalBudget), but tuples are not bytes: a migration over wide rows or long
// strings can OOM-kill the process long before the tuple cap trips. A
// MemoryBudget charges bytes at the real allocation choke points — relation
// column growth, JoinIndex posting lists, StringPool chunks, the parallel
// per-chunk emit buffers, SAT clauses — and latches a sticky `exhausted` flag once the
// running total passes the limit. Holders of the budget (RunContext::Check,
// the engine's interrupt polls) observe the flag at their existing poll
// strides and unwind with a typed kResourceExhausted.
//
// Two deliberate softnesses keep the hot path cheap:
//   * Charging is fetch_add + compare, no locking, no reservation protocol —
//     concurrent chargers may overshoot the limit by at most one allocation
//     stride each before the flag is visible. The budget bounds growth; it
//     is not a hard rlimit.
//   * The choke points account what they APPEND and never "refund" on
//     rehash/free, so `used()` tracks cumulative allocation pressure, which
//     is the quantity that kills processes.
//
// Plumbing is by ambient scope, not signatures: deep callees (Relation,
// StringPool) know nothing about runs, so the run installs itself on each
// participating thread with a MemoryBudgetScope and the choke points call
// MemoryBudget::ChargeCurrent(n). No active scope → zero-cost no-op (one
// thread-local load).

#ifndef DYNAMITE_UTIL_MEM_BUDGET_H_
#define DYNAMITE_UTIL_MEM_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <string>

#include "util/status.h"

namespace dynamite {

/// Byte accounting with a sticky exhaustion latch. Thread-safe with no
/// capabilities to annotate (ISSUE 8): both fields are atomics on a
/// fetch_add/relaxed-flag protocol — invisible to Clang's thread-safety
/// analysis by design, covered by the TSan job instead. The thread-local
/// Current() installation is single-thread state, not shared.
class MemoryBudget {
 public:
  /// `limit_bytes` == 0 means unlimited (accounting still runs, the latch
  /// never trips) — the same "0 disables the check" convention as the
  /// engine's other budget knobs.
  explicit MemoryBudget(size_t limit_bytes) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Adds `n` bytes to the running total; returns false (and latches
  /// `exhausted`) once the total exceeds the limit.
  bool Charge(size_t n) {
    const size_t used = used_.fetch_add(n, std::memory_order_relaxed) + n;
    if (limit_ != 0 && used > limit_) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// True once any charge pushed the total past the limit. Sticky: the run
  /// is over, pollers unwind.
  bool exhausted() const { return exhausted_.load(std::memory_order_relaxed); }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t limit() const { return limit_; }

  /// The typed error every poller reports for this budget.
  Status ToStatus(const char* what) const {
    return Status::ResourceExhausted(
        std::string(what) + ": memory budget exhausted (" +
        std::to_string(used()) + " bytes charged, limit " +
        std::to_string(limit_) + ")");
  }

  /// The budget installed on this thread by the innermost live
  /// MemoryBudgetScope, or nullptr.
  static MemoryBudget* Current();

  /// Charges the thread's current budget; no-op (returns true) when none is
  /// installed.
  static bool ChargeCurrent(size_t n) {
    MemoryBudget* b = Current();
    return b == nullptr || b->Charge(n);
  }

 private:
  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<bool> exhausted_{false};
};

namespace internal {
inline thread_local MemoryBudget* tls_mem_budget = nullptr;
}  // namespace internal

inline MemoryBudget* MemoryBudget::Current() {
  return internal::tls_mem_budget;
}

/// RAII installation of a budget as this thread's ambient charge target.
/// Installing nullptr is allowed and leaves accounting off — callers don't
/// need to branch. Scopes nest; the previous budget is restored on exit.
class MemoryBudgetScope {
 public:
  explicit MemoryBudgetScope(MemoryBudget* budget)
      : prev_(internal::tls_mem_budget) {
    internal::tls_mem_budget = budget;
  }
  ~MemoryBudgetScope() { internal::tls_mem_budget = prev_; }

  MemoryBudgetScope(const MemoryBudgetScope&) = delete;
  MemoryBudgetScope& operator=(const MemoryBudgetScope&) = delete;

 private:
  MemoryBudget* prev_;
};

}  // namespace dynamite

#endif  // DYNAMITE_UTIL_MEM_BUDGET_H_
