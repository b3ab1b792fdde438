// Deterministic fault injection: named failpoint sites compiled into
// production code paths.
//
// A failpoint is a named site (`DYNAMITE_FAILPOINT("engine.plan.entry")`)
// that normally does nothing — the disarmed fast path is a single relaxed
// atomic load of a pointer that is almost always null, cheap enough for the
// engine's inner loops (see BM_FailpointOverhead in bench_micro). When armed,
// the site injects a failure: a typed Status (kResourceExhausted,
// kCancelled, kTimeout, kOutOfRange) or a simulated std::bad_alloc, either
// unconditionally, on an exact execution count ("the 3rd time this site
// runs"), or probabilistically from a seeded counter hash. Both trigger modes
// are deterministic: no wall clock, no global RNG — rerunning the same
// workload with the same spec fires the same way.
//
// Arming is programmatic (`failpoint::Arm("site", spec)`) or environmental:
//
//   DYNAMITE_FAILPOINTS=relation.insert.alloc:hit_3,string_pool.intern:p=0.01@7
//
// Comma-separated entries; each entry is `site[:trigger][:kind]` where
// trigger is `hit_N` (fire on exactly the Nth execution after arming),
// `hit_N+` (every execution from the Nth on), or `p=F@SEED` (fire each
// execution with probability F, decided by hashing SEED with the execution
// index), defaulting to "every execution"; kind is one of `resource`
// (default), `badalloc`, `cancel`, `timeout`, `oor`.
//
// Sites register themselves in a process-wide registry on first execution,
// so `KnownSites()` enumerates everything the current workload actually
// compiled in and ran past — the CI smoke matrix iterates that list. Arming
// a name before its site first executes is supported (the spec is held
// pending and attached at registration).

#ifndef DYNAMITE_UTIL_FAILPOINT_H_
#define DYNAMITE_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dynamite {
namespace failpoint {

/// What an armed site injects when it fires.
enum class Kind : uint8_t {
  kResourceExhausted,  ///< returns Status::ResourceExhausted (default)
  kBadAlloc,           ///< throws std::bad_alloc (exercises OOM unwinding)
  kCancelled,          ///< returns Status::Cancelled
  kTimeout,            ///< returns Status::Timeout
  kOutOfRange,         ///< returns Status::OutOfRange
};

/// When an armed site fires. Exactly one of the modes is active:
/// hit > 0 selects count mode, probability > 0 selects seeded-hash mode,
/// neither means "every execution".
struct Spec {
  Kind kind = Kind::kResourceExhausted;
  uint64_t hit = 0;         ///< fire on the hit-th execution (1-based)
  bool repeat = false;      ///< with hit: keep firing from the hit-th on
  double probability = 0;   ///< fire per execution with this probability
  uint64_t seed = 0;        ///< seeds the probability decision hash
};

/// A Status carried out of a context with no Status return channel: thrown
/// by FireOrThrow for non-bad_alloc kinds (relation inserts, index refresh),
/// and reused by real error paths buried under plain value-returning code
/// (e.g. string-pool overflow in datagen's value shorthands). The pipeline's crash-free boundaries (GuardExceptions)
/// translate it back into the carried Status.
class InjectedError : public std::exception {
 public:
  explicit InjectedError(Status status) : status_(std::move(status)) {}
  const Status& status() const { return status_; }
  const char* what() const noexcept override { return "injected failpoint"; }

 private:
  Status status_;
};

/// One call site. Constructed as a function-local static by the macros so
/// the disarmed check never touches the registry.
class Site {
 public:
  explicit Site(const char* name);

  /// Disarmed fast path: one relaxed load.
  bool armed() const {
    return spec_.load(std::memory_order_relaxed) != nullptr;
  }

  /// Called only when armed(): counts the execution and returns the injected
  /// Status if the trigger matches (OK otherwise). Kind::kBadAlloc throws
  /// std::bad_alloc instead of returning.
  Status Fire();

  /// Like Fire() but with no Status channel: throws InjectedError (or
  /// std::bad_alloc) when the trigger matches.
  void FireOrThrow();

  const char* name() const { return name_; }

 private:
  friend class Registry;
  const char* name_;
  std::atomic<const Spec*> spec_{nullptr};
  std::atomic<uint64_t> hits_{0};
};

/// Arms every current and future site named `name`. Resets the sites' hit
/// counters so trigger counts are relative to the arming.
void Arm(const std::string& name, Spec spec);

/// Parses the entry grammar above ("hit_3:badalloc", "p=0.5@7", "cancel",
/// "") and arms. Returns kInvalidArgument on a malformed spec.
Status ArmFromString(const std::string& name, const std::string& spec);

/// Disarms every site named `name` (and clears any pending spec).
void Disarm(const std::string& name);

/// Disarms everything. Tests call this in teardown.
void DisarmAll();

/// Names of all sites that have registered (executed at least once),
/// sorted, deduplicated.
std::vector<std::string> KnownSites();

/// Parses DYNAMITE_FAILPOINTS ("site:spec,site:spec"). Called once
/// automatically when the first site registers; exposed for tests.
Status ArmFromEnvString(const std::string& env);

/// Runs `fn` (returning Status or Result<T>) and converts escaping
/// exceptions into typed errors: std::bad_alloc — real or injected — becomes
/// kResourceExhausted, InjectedError unwraps to its carried Status, anything
/// else becomes kInternal. These are the pipeline's crash-free boundaries:
/// DatalogEngine::Eval, Migrator::Migrate, Synthesizer::Synthesize and the
/// Session entry points all pass through one.
template <typename Fn>
auto GuardExceptions(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const InjectedError& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(std::string("allocation failed during ") +
                                     what);
  } catch (const std::exception& e) {
    return Status::Internal(std::string(what) + ": unexpected exception: " +
                            e.what());
  }
}

}  // namespace failpoint
}  // namespace dynamite

/// Statement form for Status/Result-returning functions: returns the
/// injected Status from the enclosing function when the site fires.
#define DYNAMITE_FAILPOINT(site_name)                             \
  do {                                                            \
    static ::dynamite::failpoint::Site _dynamite_fp(site_name);   \
    if (_dynamite_fp.armed()) {                                   \
      ::dynamite::Status _dynamite_fp_st = _dynamite_fp.Fire();   \
      if (!_dynamite_fp_st.ok()) return _dynamite_fp_st;          \
    }                                                             \
  } while (false)

/// Statement form for contexts with no Status channel (void inserts, cache
/// lookups): throws InjectedError / std::bad_alloc, relying on a
/// GuardExceptions boundary upstream.
#define DYNAMITE_FAILPOINT_THROW(site_name)                       \
  do {                                                            \
    static ::dynamite::failpoint::Site _dynamite_fp(site_name);   \
    if (_dynamite_fp.armed()) _dynamite_fp.FireOrThrow();         \
  } while (false)

#endif  // DYNAMITE_UTIL_FAILPOINT_H_
