// StringPool: process-wide string interning for Value.
//
// Every distinct string stored in a Value is interned once and identified by
// a dense 32-bit id. This makes string Values 16-byte PODs with O(1)
// equality and hashing — the synthesizer's inner loop compares millions of
// string cells per second while checking candidate Datalog programs, so this
// is the single biggest lever on evaluation throughput (ISSUE 1 tentpole).
//
// Interned strings live for the lifetime of the pool (a deliberate
// trade-off: the synthesizer re-reads the same example instances thousands
// of times, so the working set of distinct strings is small and stable).
//
// Thread-safety contract (the pool is process-wide, shared by Sessions on
// every thread):
//
//   * Intern / TryIntern are safe to call concurrently from any thread. The
//     string -> id map is sharded kNumShards ways with one mutex per shard,
//     so distinct strings mostly intern without contention; the id counter
//     and storage append take a second, short critical section.
//   * Get and size() are LOCK-FREE and safe concurrently with interning.
//     Storage is a fixed array of geometrically-sized chunks that are
//     published with release stores and never moved or freed, so the
//     `const std::string&` returned by Get is stable forever and readable
//     while other threads append. (The pre-ISSUE-4 std::deque gave stable
//     references but not race-free concurrent reads: push_back mutates the
//     deque's internal block map.)
//   * Ids are dense (0, 1, 2, ...) and assigned in interning order; a
//     caller may only Get(id) for an id it obtained from Intern (directly
//     or through a copied Value), which is what makes the acquire/release
//     pairing on `size_` sufficient.
//
// Capacity is checked: the id space is 32 bits, and interning the 2^32-th
// distinct string fails fast (TryIntern returns kOutOfRange; Intern aborts)
// instead of silently truncating the id and aliasing distinct strings — the
// pre-fix `static_cast<uint32_t>(strings_.size())` wrapped around and
// corrupted every Value comparison past that point.

#ifndef DYNAMITE_VALUE_STRING_POOL_H_
#define DYNAMITE_VALUE_STRING_POOL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/result.h"
#include "util/thread_annotations.h"

namespace dynamite {

/// Maps strings to dense 32-bit ids and back. Ids and the references
/// returned by Get are stable for the lifetime of the pool. See the file
/// comment for the concurrency contract.
class StringPool {
 public:
  /// Hard capacity of the 32-bit id space.
  static constexpr uint32_t kMaxStrings = UINT32_MAX;

  StringPool() : StringPool(kMaxStrings) {}

  /// Test seam: a pool that overflows after `max_strings` distinct strings,
  /// so the overflow path is exercisable without interning 2^32 entries.
  explicit StringPool(uint32_t max_strings);

  ~StringPool();

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// The process-wide pool used by Value.
  static StringPool& Global();

  /// Returns the id of `s`, interning it on first sight. Aborts the process
  /// on id-space overflow (an aliased id would silently corrupt every
  /// subsequent Value comparison; there is no way to surface a Status
  /// through Value::String).
  uint32_t Intern(std::string_view s);

  /// Like Intern, but reports overflow as kOutOfRange instead of aborting.
  Result<uint32_t> TryIntern(std::string_view s);

  /// The string with the given id; reference is stable forever. Lock-free;
  /// `id` must come from a prior Intern on this pool.
  const std::string& Get(uint32_t id) const {
    size_t chunk, offset;
    Locate(id, &chunk, &offset);
    return chunks_[chunk].load(std::memory_order_acquire)[offset];
  }

  /// Number of distinct interned strings.
  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Chunked storage: chunk c holds 2^(c + kMinChunkBits) strings, so 23
  // chunks cover the full 32-bit id space while small pools allocate only
  // the first 1024-slot chunk. Chunks are allocated on demand under
  // append_mu_ and published with a release store; they are never resized,
  // moved, or freed before the pool dies — the stable-storage guarantee
  // Get's lock-freedom and the shard maps' string_view keys rely on.
  static constexpr size_t kMinChunkBits = 10;
  static constexpr size_t kNumChunks = 23;
  static constexpr size_t kNumShards = 16;

  struct Shard {
    Mutex mu;
    // Keys are views into chunk storage (stable; see above).
    std::unordered_map<std::string_view, uint32_t> ids DYNAMITE_GUARDED_BY(mu);
  };

  static void Locate(uint32_t id, size_t* chunk, size_t* offset) {
    uint64_t v = static_cast<uint64_t>(id) + (uint64_t{1} << kMinChunkBits);
#if defined(__GNUC__) || defined(__clang__)
    size_t width = 63 - static_cast<size_t>(__builtin_clzll(v));
#else
    size_t width = 0;
    while ((uint64_t{1} << (width + 1)) <= v) ++width;
#endif
    *chunk = width - kMinChunkBits;
    *offset = static_cast<size_t>(
        v - (uint64_t{1} << width));  // v's offset within its chunk
  }

  Shard& ShardFor(std::string_view s);

  Shard shards_[kNumShards];
  /// Guards id assignment and chunk allocation (not lookups). Lock order:
  /// a Shard's mu is always acquired BEFORE append_mu_ (TryIntern holds its
  /// shard across the append), never the reverse.
  Mutex append_mu_;
  /// Chunk pointers and the published-string count are atomics, not
  /// GUARDED_BY members: writers mutate them under append_mu_, but readers
  /// (Get, size) are lock-free by contract and synchronize through the
  /// release store of size_ / each chunk pointer against the matching
  /// acquire loads — a protocol the thread-safety analysis cannot express
  /// (it has no notion of happens-before through atomics), so it is
  /// documented here and checked dynamically by the TSan CI job.
  std::atomic<std::string*> chunks_[kNumChunks] = {};
  std::atomic<uint32_t> size_{0};
  const uint32_t max_strings_;
};

}  // namespace dynamite

#endif  // DYNAMITE_VALUE_STRING_POOL_H_
