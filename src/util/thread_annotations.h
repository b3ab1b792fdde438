// Compile-time concurrency contracts: Clang thread-safety attributes and the
// annotated synchronization primitives every component in this tree uses.
//
// The parallel fixpoint (engine.cc) promises bit-identical results at any
// thread count. That guarantee rests on a locking protocol spread across
// several files, and until this header it was checked only dynamically — TSan on whatever
// interleavings CI happened to hit. Clang's -Wthread-safety analysis turns
// the protocol into a compile-time contract: a field declared
// DYNAMITE_GUARDED_BY(mu) read or written without `mu` held is a hard build
// error (the CI clang job builds with -Werror=thread-safety), on every
// path, not just the ones a race detector explored.
//
// Under GCC (or any compiler without the attributes) every macro expands to
// nothing and the wrappers below are exactly std::mutex & friends — zero
// codegen difference, so the annotated build and the measured hot paths are
// the same machine code.
//
// Project rules (mechanically enforced by tools/lint.py):
//   * No raw std::mutex / std::lock_guard / std::condition_variable members
//     or locals outside this header — use dynamite::Mutex / MutexLock /
//     CondVar so the capability attributes are never silently bypassed.
//   * Every DYNAMITE_NO_THREAD_SAFETY_ANALYSIS carries a one-line written
//     justification on an adjacent comment line.
//
// Lock-ordering rules (documented here, verified by the per-file contracts;
// clang's ACQUIRED_BEFORE enforcement is still -Wthread-safety-beta):
//   * StringPool: shard.mu is acquired before append_mu_, never the
//     reverse (TryIntern holds its shard while taking the append lock).
//   * ThreadPool: mu_ (dispatch) and fail_mu_ (failure capture) are never
//     held together.
//
// See src/util/README.md ("Static analysis & concurrency contracts") for
// how to run the analysis locally and the suppression policy.

#ifndef DYNAMITE_UTIL_THREAD_ANNOTATIONS_H_
#define DYNAMITE_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------- macros ---
// Attribute spellings follow the Clang thread-safety documentation (and
// abseil's thread_annotations.h, the de-facto reference deployment).

#if defined(__clang__) && defined(__has_attribute)
#define DYNAMITE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DYNAMITE_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares a type to be a capability ("mutex") the analysis can track.
#define DYNAMITE_CAPABILITY(x) DYNAMITE_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose lifetime holds a capability.
#define DYNAMITE_SCOPED_CAPABILITY DYNAMITE_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be accessed with the given capability held.
#define DYNAMITE_GUARDED_BY(x) DYNAMITE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* may only be accessed with the capability
/// held (the pointer itself is unguarded).
#define DYNAMITE_PT_GUARDED_BY(x) DYNAMITE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability and holds it on return.
#define DYNAMITE_ACQUIRE(...) \
  DYNAMITE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (which must be held on entry).
#define DYNAMITE_RELEASE(...) \
  DYNAMITE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must hold the capability across the call.
#define DYNAMITE_REQUIRES(...) \
  DYNAMITE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard for self-locking
/// entry points).
#define DYNAMITE_EXCLUDES(...) \
  DYNAMITE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability only when returning the given value.
#define DYNAMITE_TRY_ACQUIRE(...) \
  DYNAMITE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Assertion that the calling thread already holds the capability.
#define DYNAMITE_ASSERT_CAPABILITY(x) \
  DYNAMITE_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability.
#define DYNAMITE_RETURN_CAPABILITY(x) \
  DYNAMITE_THREAD_ANNOTATION(lock_returned(x))

/// Opts a function out of the analysis. Policy: every use carries a one-line
/// justification comment (tools/lint.py enforces the comment's presence; the
/// clang CI job reviews keep it honest).
#define DYNAMITE_NO_THREAD_SAFETY_ANALYSIS \
  DYNAMITE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dynamite {

// -------------------------------------------------------------- wrappers ---

/// std::mutex carrying the capability attribute. Same size, same codegen;
/// lock/unlock spellings are kept lowercase so the type stays BasicLockable
/// (CondVar waits on it directly).
class DYNAMITE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DYNAMITE_ACQUIRE() { mu_.lock(); }
  void unlock() DYNAMITE_RELEASE() { mu_.unlock(); }
  bool try_lock() DYNAMITE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII exclusive lock over Mutex — the project's only lock statement form
/// (std::lock_guard/std::unique_lock are linted away so every critical
/// section is visible to the analysis).
class DYNAMITE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DYNAMITE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DYNAMITE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

/// Condition variable paired with dynamite::Mutex.
///
/// Deliberately offers only the predicate-less Wait: callers write
///
///   MutexLock lock(mu_);
///   while (!condition) cv_.Wait(lock);
///
/// so the predicate is evaluated in the caller's scope, where the analysis
/// knows the capability is held. (The std::condition_variable wait(lock,
/// pred) form moves the predicate into a lambda, which clang analyzes as a
/// separate unannotated function — every guarded field the predicate reads
/// would falsely warn.)
///
/// Wait's contract matches std::condition_variable: the caller holds the
/// mutex before and after; the temporary unlock inside the wait happens in
/// the standard library, invisibly to (and correctly modeled by) the
/// analysis, which sees the capability continuously held across the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified; may wake spuriously (callers loop on their
  /// condition). `lock` must hold the mutex guarding that condition.
  void Wait(MutexLock& lock) { cv_.wait(lock.mu_); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // condition_variable_any waits on any BasicLockable — here the annotated
  // Mutex itself, so no std::unique_lock<std::mutex> escape hatch is needed.
  std::condition_variable_any cv_;
};

}  // namespace dynamite

#endif  // DYNAMITE_UTIL_THREAD_ANNOTATIONS_H_
