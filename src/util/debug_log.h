// Mutex-guarded stderr output: debug tracing (Logf, gated on the
// DYNAMITE_DEBUG environment variable) and unconditional diagnostics
// (Errorf, the abort/fatal channel). Debug traces used to go straight to
// fprintf(stderr, ...); with the parallel fixpoint several threads can
// trace at once, and raw fprintf lines
// interleave mid-line — and the unsynchronized stream access shows up under
// TSan. All stderr output goes through this header instead: one
// process-wide mutex serializes whole lines, shared by both channels so a
// crash diagnostic never tears through a debug trace. tools/lint.py bans
// fprintf/printf everywhere else in src/.
//
// Disabled cost of Logf is one cached getenv check per call site; this is
// debug tracing, not a hot-path logging framework.

#ifndef DYNAMITE_UTIL_DEBUG_LOG_H_
#define DYNAMITE_UTIL_DEBUG_LOG_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/thread_annotations.h"

namespace dynamite {
namespace debug_log {

/// True when DYNAMITE_DEBUG is set (checked once per process).
inline bool Enabled() {
  static const bool enabled = std::getenv("DYNAMITE_DEBUG") != nullptr;
  return enabled;
}

/// The process-wide mutex serializing all stderr lines (both channels).
inline Mutex& StreamMutex() {
  static Mutex mu;
  return mu;
}

inline void VLogLine(const char* format, std::va_list args) {
  MutexLock lock(StreamMutex());
  std::vfprintf(stderr, format, args);
  std::fflush(stderr);
}

/// printf-style line to stderr under the process-wide mutex; no-op unless
/// DYNAMITE_DEBUG is set. Callers should format one complete line
/// (including '\n') per call — the mutex guarantees lines never tear, not
/// that separate calls stay adjacent.
inline void Logf(const char* format, ...) {
  if (!Enabled()) return;
  std::va_list args;
  va_start(args, format);
  VLogLine(format, args);
  va_end(args);
}

/// Unconditional printf-style line to stderr, same mutex: the channel for
/// diagnostics that must reach the user in every build — DYNAMITE_CHECK
/// failures, failpoint-spec typos, StringPool overflow — on paths that are
/// about to abort or have no Status channel. Same one-complete-line
/// contract as Logf.
inline void Errorf(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  VLogLine(format, args);
  va_end(args);
}

}  // namespace debug_log
}  // namespace dynamite

#endif  // DYNAMITE_UTIL_DEBUG_LOG_H_
