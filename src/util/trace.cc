#include "util/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "util/debug_log.h"
#include "util/thread_annotations.h"

namespace dynamite {
namespace trace {

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

namespace {

// Fixed ring capacity per thread: 16Ki events × 104 B ≈ 1.7 MiB, allocated
// lazily on the first armed record of each thread (disarmed runs allocate
// nothing).
constexpr size_t kRingCapacity = size_t{1} << 14;

struct ThreadRing {
  // Total events ever pushed; ring slot = count % kRingCapacity. The
  // recording thread release-stores after writing the slot; readers
  // acquire-load, which publishes every slot the count covers.
  std::atomic<uint64_t> count{0};
  uint32_t tid = 0;
  char name[48] = {0};
  std::vector<Event> events;  // sized kRingCapacity at registration
};

struct RingRegistry {
  Mutex mu;
  // Rings are owned here and outlive their threads, so a dump after a
  // thread has exited still sees its events.
  std::vector<std::unique_ptr<ThreadRing>> rings DYNAMITE_GUARDED_BY(mu);
  uint32_t next_tid DYNAMITE_GUARDED_BY(mu) = 0;
};

RingRegistry& Registry() {
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

// Trace epoch: fixed once by the first Arm(), so timestamps from different
// arm/disarm cycles stay on one axis.
std::atomic<int64_t> g_epoch_ns{0};

std::atomic<uint64_t> g_next_trace_id{1};

thread_local uint64_t tls_trace_id = 0;
thread_local ThreadRing* tls_ring = nullptr;

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadRing& LocalRing() {
  if (tls_ring == nullptr) {
    auto ring = std::make_unique<ThreadRing>();
    ring->events.resize(kRingCapacity);
    tls_ring = ring.get();
    RingRegistry& reg = Registry();
    MutexLock lock(reg.mu);
    ring->tid = reg.next_tid++;
    std::snprintf(ring->name, sizeof(ring->name), "thread-%u", ring->tid);
    reg.rings.push_back(std::move(ring));
  }
  return *tls_ring;
}

void PushEvent(const char* name, uint64_t start_ns, uint64_t dur_ns, char kind,
               const char* detail) {
  ThreadRing& ring = LocalRing();
  const uint64_t c = ring.count.load(std::memory_order_relaxed);
  Event& e = ring.events[c % kRingCapacity];
  e.name = name;
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.trace_id = tls_trace_id;
  e.tid = ring.tid;
  e.kind = kind;
  if (detail != nullptr && detail[0] != '\0') {
    std::snprintf(e.detail, sizeof(e.detail), "%s", detail);
  } else {
    e.detail[0] = '\0';
  }
  ring.count.store(c + 1, std::memory_order_release);
}

void AppendEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

// DYNAMITE_TRACE=path: arm before main(), dump at exit. A static
// initializer (not a function-local static) so merely linking trace.cc
// activates the env grammar, matching failpoint's DYNAMITE_FAILPOINTS.
std::string* g_env_dump_path = nullptr;

void DumpAtExit() {
  if (g_env_dump_path == nullptr) return;
  const Status s = WriteChromeTrace(*g_env_dump_path);
  if (!s.ok()) {
    debug_log::Errorf("DYNAMITE_TRACE dump failed: %s",
                      s.message().c_str());
  }
}

struct EnvArm {
  EnvArm() {
    const char* path = std::getenv("DYNAMITE_TRACE");
    if (path == nullptr || path[0] == '\0') return;
    g_env_dump_path = new std::string(path);
    Arm();
    std::atexit(DumpAtExit);
  }
};
EnvArm g_env_arm;

}  // namespace

void Arm() {
  int64_t expected = 0;
  g_epoch_ns.compare_exchange_strong(expected, SteadyNowNs(),
                                     std::memory_order_relaxed);
  internal::g_armed.store(true, std::memory_order_relaxed);
}

void Disarm() { internal::g_armed.store(false, std::memory_order_relaxed); }

void Clear() {
  RingRegistry& reg = Registry();
  MutexLock lock(reg.mu);
  for (auto& ring : reg.rings) {
    ring->count.store(0, std::memory_order_release);
  }
}

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentTraceId() { return tls_trace_id; }

TraceIdScope::TraceIdScope(uint64_t id) : saved_(tls_trace_id) {
  if (id != 0) tls_trace_id = id;
}

TraceIdScope::~TraceIdScope() { tls_trace_id = saved_; }

uint64_t NowNs() {
  const int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  const int64_t now = SteadyNowNs();
  return now > epoch ? static_cast<uint64_t>(now - epoch) : 0;
}

void RecordComplete(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  PushEvent(name, start_ns, dur_ns, 'X', nullptr);
}

void RecordInstant(const char* name, const char* detail) {
  PushEvent(name, NowNs(), 0, 'i', detail);
}

std::vector<Event> CollectEvents() {
  std::vector<Event> out;
  RingRegistry& reg = Registry();
  MutexLock lock(reg.mu);
  for (const auto& ring : reg.rings) {
    const uint64_t count = ring->count.load(std::memory_order_acquire);
    const uint64_t n = count < kRingCapacity ? count : kRingCapacity;
    const uint64_t begin = count - n;
    for (uint64_t i = begin; i < count; ++i) {
      out.push_back(ring->events[i % kRingCapacity]);
    }
  }
  return out;
}

uint64_t DroppedEvents() {
  uint64_t dropped = 0;
  RingRegistry& reg = Registry();
  MutexLock lock(reg.mu);
  for (const auto& ring : reg.rings) {
    const uint64_t count = ring->count.load(std::memory_order_acquire);
    if (count > kRingCapacity) dropped += count - kRingCapacity;
  }
  return dropped;
}

Status WriteChromeTrace(const std::string& path) {
  std::string json;
  json.reserve(1 << 16);
  json += "{\"traceEvents\":[";
  bool first = true;
  {
    RingRegistry& reg = Registry();
    MutexLock lock(reg.mu);
    char buf[256];
    for (const auto& ring : reg.rings) {
      const uint64_t count = ring->count.load(std::memory_order_acquire);
      if (count == 0) continue;
      // Thread-name metadata record, understood by Perfetto/chrome://tracing.
      if (!first) json += ",";
      first = false;
      json += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      std::snprintf(buf, sizeof(buf), "%u", ring->tid);
      json += buf;
      json += ",\"args\":{\"name\":\"";
      AppendEscaped(json, ring->name);
      json += "\"}}";
      const uint64_t n = count < kRingCapacity ? count : kRingCapacity;
      for (uint64_t i = count - n; i < count; ++i) {
        const Event& e = ring->events[i % kRingCapacity];
        json += ",{\"name\":\"";
        AppendEscaped(json, e.name);
        json += "\",\"ph\":\"";
        json.push_back(e.kind);
        json += "\",\"pid\":1,\"tid\":";
        std::snprintf(buf, sizeof(buf), "%u", e.tid);
        json += buf;
        // Chrome trace timestamps are microseconds (double); keep sub-µs
        // resolution with three decimals.
        std::snprintf(buf, sizeof(buf), ",\"ts\":%llu.%03llu",
                      static_cast<unsigned long long>(e.start_ns / 1000),
                      static_cast<unsigned long long>(e.start_ns % 1000));
        json += buf;
        if (e.kind == 'X') {
          std::snprintf(buf, sizeof(buf), ",\"dur\":%llu.%03llu",
                        static_cast<unsigned long long>(e.dur_ns / 1000),
                        static_cast<unsigned long long>(e.dur_ns % 1000));
          json += buf;
        } else if (e.kind == 'i') {
          json += ",\"s\":\"t\"";
        }
        json += ",\"args\":{\"trace_id\":";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(e.trace_id));
        json += buf;
        if (e.detail[0] != '\0') {
          json += ",\"detail\":\"";
          AppendEscaped(json, e.detail);
          json += "\"";
        }
        json += "}}";
      }
    }
  }
  json += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":";
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(DroppedEvents()));
    json += buf;
  }
  json += "}}\n";

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("trace: cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("trace: short write to " + path);
  }
  return Status::OK();
}

}  // namespace trace
}  // namespace dynamite
