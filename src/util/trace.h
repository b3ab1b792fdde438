// dynamite::trace — low-overhead RAII span tracing for the whole pipeline,
// exported as Chrome trace-event JSON (open a dump in Perfetto / ui.perfetto.dev
// or chrome://tracing).
//
// Design, mirroring the failpoint standard (util/failpoint.h):
//
//   * DISARMED (the default) a span costs one relaxed atomic load — the
//     same budget as a disarmed failpoint, pinned by BM_TraceOverhead
//     against BM_DatalogStringTransitiveClosure (<2%). No allocation, no
//     clock read, no branch beyond the flag test.
//   * ARMED, every span costs two steady_clock reads plus one 64-byte write
//     into the calling thread's private ring buffer. Rings are
//     single-producer (the owning thread) and fixed-size; when a thread
//     outruns its ring the oldest events are overwritten and the drop is
//     reported at dump time — tracing never blocks or allocates on the hot
//     path after the ring exists.
//
// Arming:
//   * programmatic: trace::Arm() / trace::Disarm() / Session::DumpTrace().
//   * environment:  DYNAMITE_TRACE=/path/to/trace.json arms tracing before
//     main() and writes the dump from an atexit hook, so any binary
//     (examples, benches, tests) can be traced without code changes.
//
// Trace ids: Session entry points stamp RunContext::trace_id with a fresh
// process-unique id and install it as the calling thread's ambient id
// (TraceIdScope). Evaluation never leaves the calling thread, so every span
// a run records carries that run's id.
//
// Concurrency contract: recording is thread-safe and lock-free.
// WriteChromeTrace / CollectEvents / Clear read the rings with acquire loads
// of each ring's event count, which is release-published by the recording
// thread. Dumping while a pipeline call is still executing may miss (or see
// a torn copy of) events still being written — call DumpTrace after the
// traced calls return, as Session does.

#ifndef DYNAMITE_UTIL_TRACE_H_
#define DYNAMITE_UTIL_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dynamite {
namespace trace {

namespace internal {
extern std::atomic<bool> g_armed;
}  // namespace internal

/// The one-relaxed-load disarmed fast path.
inline bool Enabled() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// Arms / disarms recording process-wide. Arming is idempotent; the trace
/// epoch (timestamp zero) is fixed by the first Arm() of the process.
void Arm();
void Disarm();

/// Drops every recorded event (rings stay registered). Caller must ensure
/// no thread is recording concurrently (see file comment).
void Clear();

/// Process-unique, monotonically increasing trace ids (never returns 0;
/// 0 means "no trace id").
uint64_t NextTraceId();

/// The calling thread's ambient trace id (0 when none installed).
uint64_t CurrentTraceId();

/// RAII install of an ambient trace id on this thread; restores the
/// previous id on destruction. Installing 0 is a no-op scope.
class TraceIdScope {
 public:
  explicit TraceIdScope(uint64_t id);
  ~TraceIdScope();
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  uint64_t saved_;
};

/// One recorded event. `name` must point at static-storage strings (the
/// macro/site contract): rings store the pointer, not a copy.
struct Event {
  const char* name = nullptr;
  uint64_t start_ns = 0;  // since the trace epoch
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;
  uint32_t tid = 0;
  char kind = 'X';     // 'X' = complete span, 'i' = instant
  char detail[31] = {0};  // optional, truncated; instants only
};

/// Nanoseconds since the trace epoch (steady clock).
uint64_t NowNs();

/// Records a completed span / an instant into this thread's ring. Callers
/// normally go through Span / the macros; these exist for hand-rolled
/// sites (e.g. RunContext::Report). Must only be called while armed.
void RecordComplete(const char* name, uint64_t start_ns, uint64_t dur_ns);
void RecordInstant(const char* name, const char* detail);

/// RAII span: construction reads the clock iff armed; destruction records.
/// A span that straddles a Disarm() is still recorded (arming is checked
/// once, at open), so dumps never contain half-open spans.
class Span {
 public:
  explicit Span(const char* name) {
    if (Enabled()) {
      name_ = name;
      start_ = NowNs();
    }
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early (idempotent); for stages whose scope outlives
  /// the work being timed (see Migrator::MigrateImpl).
  void End() {
    if (name_ != nullptr) {
      RecordComplete(name_, start_, NowNs() - start_);
      name_ = nullptr;
    }
  }

 private:
  const char* name_ = nullptr;
  uint64_t start_ = 0;
};

/// Copies out every recorded event (all threads), unordered. Test hook and
/// the substrate of WriteChromeTrace. See the file comment for when this
/// is safe to call.
std::vector<Event> CollectEvents();

/// Total events overwritten due to ring wrap since the last Clear().
uint64_t DroppedEvents();

/// Writes all recorded events as Chrome trace-event JSON ("traceEvents"
/// array of X/i/M records, microsecond timestamps). Overwrites `path`.
Status WriteChromeTrace(const std::string& path);

}  // namespace trace
}  // namespace dynamite

#define DYNAMITE_TRACE_CONCAT2_(a, b) a##b
#define DYNAMITE_TRACE_CONCAT_(a, b) DYNAMITE_TRACE_CONCAT2_(a, b)

/// Opens an RAII span covering the rest of the enclosing scope. `span_name`
/// must be a string literal (static storage).
#define DYNAMITE_TRACE_SPAN(span_name)                                  \
  ::dynamite::trace::Span DYNAMITE_TRACE_CONCAT_(_dynamite_trace_span_, \
                                                 __LINE__)(span_name)

/// Records an instant event (zero-duration tick) when armed.
#define DYNAMITE_TRACE_INSTANT(event_name, detail_cstr)             \
  do {                                                              \
    if (::dynamite::trace::Enabled()) {                             \
      ::dynamite::trace::RecordInstant(event_name, detail_cstr);    \
    }                                                               \
  } while (false)

#endif  // DYNAMITE_UTIL_TRACE_H_
