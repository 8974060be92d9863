// Slab/freelist memory pools for the zero-allocation hot path.
//
// A SlabPool serves fixed-granularity slots out of bump-carved slabs (carve
// up front, never give back) and recycles freed slots through
// per-size-class freelists. Once the working set has been touched, every alloc/free is a
// pointer pop/push — no malloc, ever — which is what lets the event kernel
// run packets, payload buffers, coroutine frames and cancellable-event
// handles without touching the host allocator (ndn-dpdk's DPDK mempool
// idiom, applied to simulated packets).
//
// Requests above kMaxSlotBytes fall back to the heap. Every block carries a
// 16-byte header tagging its origin (pool bucket or heap fallback, plus the
// serving pool), so free() and release() route each block correctly from a
// bare pointer.
//
// SlabPools are single-owner: each simulation arena (and its serve worker
// thread) owns its own pools, and only the owner thread may alloc(). A slot
// released on a *different* thread (the sharded kernel hands packets and
// coroutine frames across shard workers) takes the remote-free path: a
// lock-free Treiber stack the owner drains back into its freelists on the
// next alloc() (or an explicit drainRemote() at a quiescent point). Heap
// fallback blocks are released directly on any thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace anton::util {

/// Monotonic counters plus live-slot gauges of one SlabPool.
struct SlabPoolStats {
  std::uint64_t poolAllocs = 0;   ///< slots served from a slab or freelist
  std::uint64_t poolFrees = 0;    ///< slots pushed back onto a freelist
  std::uint64_t heapAllocs = 0;   ///< heap fallbacks (oversized requests)
  std::uint64_t heapFrees = 0;
  std::uint64_t slabBytes = 0;    ///< total slab memory carved so far
  std::size_t live = 0;           ///< pool slots currently outstanding
  std::size_t liveHighWater = 0;  ///< peak of `live`
};

class SlabPool {
 public:
  /// Slot sizes are rounded up to multiples of this granule.
  static constexpr std::size_t kGranule = 64;
  /// Requests above this size always come from the heap (the "oversized
  /// capture" escape hatch; nothing on the hot path should hit it).
  static constexpr std::size_t kMaxSlotBytes = 4096;
  /// Slabs are carved in chunks of this many bytes.
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  /// `maxBytes` bounds total slab memory; exhausting it is a loud
  /// std::runtime_error naming the pool, never UB. The default is generous —
  /// a 4096-node sweep's in-flight packets fit with room to spare.
  explicit SlabPool(std::string name, std::size_t maxBytes = 256 << 20)
      : name_(std::move(name)), maxBytes_(maxBytes) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// Allocate `bytes` (aligned for any ordinary type). Pool slot when the
  /// size fits a bucket; tagged heap otherwise. Owner-thread only.
  void* alloc(std::size_t bytes) {
    if (bytes > kMaxSlotBytes) return heapAlloc(bytes);
    if (remoteHead_.load(std::memory_order_relaxed) != nullptr) drainRemote();
    std::size_t bucket = (bytes + kGranule - 1) / kGranule;  // >= 1
    if (FreeNode* n = freelists_[bucket]) {
      freelists_[bucket] = n->next;
      ++stats_.poolAllocs;
      bump();
      return tag(n, std::uint32_t(bucket));
    }
    std::size_t need = kHeaderBytes + bucket * kGranule;
    if (cursorLeft_ < need) carveSlab(need);
    std::byte* p = cursor_;
    cursor_ += need;
    cursorLeft_ -= need;
    ++stats_.poolAllocs;
    bump();
    return tag(p, std::uint32_t(bucket));
  }

  /// Release a block previously returned by alloc(). Any thread may call
  /// this: the owner pushes straight onto the freelist, everyone else pushes
  /// onto the lock-free remote stack for the owner to drain.
  void free(void* p) noexcept {
    auto* h = reinterpret_cast<Header*>(static_cast<std::byte*>(p) -
                                        kHeaderBytes);
    if (h->bucket == kHeapBucket) {
      // Heap blocks never touch the freelists, so they can be released
      // directly on any thread; only the counter needs the atomic split.
      if (std::this_thread::get_id() ==
          owner_.load(std::memory_order_relaxed)) {
        ++stats_.heapFrees;
      } else {
        remoteHeapFrees_.fetch_add(1, std::memory_order_relaxed);
      }
      ::operator delete(static_cast<void*>(h));
      return;
    }
    if (std::this_thread::get_id() != owner_.load(std::memory_order_relaxed)) {
      auto* rn = reinterpret_cast<RemoteNode*>(h);  // bucket stays at offset 0
      RemoteNode* head = remoteHead_.load(std::memory_order_relaxed);
      do {
        rn->next = head;
      } while (!remoteHead_.compare_exchange_weak(head, rn,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed));
      return;
    }
    // Read the bucket before the FreeNode link overwrites it (both sit at
    // offset 0 of the header).
    std::uint32_t bucket = h->bucket;
    auto* n = reinterpret_cast<FreeNode*>(h);
    n->next = freelists_[bucket];
    freelists_[bucket] = n;
    ++stats_.poolFrees;
    --stats_.live;
  }

  /// Move every remotely-freed slot back onto its freelist. Called by the
  /// owner on alloc(), or explicitly at a quiescent point (a shard barrier,
  /// or after worker threads have joined).
  void drainRemote() noexcept {
    RemoteNode* p = remoteHead_.exchange(nullptr, std::memory_order_acquire);
    while (p != nullptr) {
      RemoteNode* next = p->next;
      auto* n = reinterpret_cast<FreeNode*>(p);
      std::uint32_t bucket = p->bucket;
      n->next = freelists_[bucket];
      freelists_[bucket] = n;
      ++stats_.poolFrees;
      --stats_.live;
      p = next;
    }
  }

  /// Release a block through the pool that served it, read from the header.
  /// For call sites that cannot remember the origin pool (e.g. coroutine
  /// frame operator delete, which only gets a pointer): with per-shard
  /// override pools, "the current thread's pool" is not necessarily the pool
  /// the block came from.
  static void release(void* p) noexcept {
    reinterpret_cast<Header*>(static_cast<std::byte*>(p) - kHeaderBytes)
        ->origin->free(p);
  }

  /// Transfer alloc()/drain rights to `id`. Only valid at a quiescent point
  /// (no concurrent alloc/free), e.g. when a shard worker adopts its pools.
  void setOwner(std::thread::id id) noexcept {
    owner_.store(id, std::memory_order_relaxed);
  }

  /// Snapshot of the counters. By value: remote frees land via atomics, so
  /// there is no single struct to hand out a stable reference to. Slots
  /// sitting undrained on the remote stack still count as `live`.
  SlabPoolStats stats() const {
    SlabPoolStats s = stats_;
    s.heapFrees += remoteHeapFrees_.load(std::memory_order_relaxed);
    return s;
  }
  const std::string& name() const { return name_; }

  /// Shrink (or raise) the slab-memory budget; carving past it throws.
  void setMaxBytes(std::size_t maxBytes) { maxBytes_ = maxBytes; }
  std::size_t maxBytes() const { return maxBytes_; }

 private:
  static constexpr std::size_t kHeaderBytes = 16;  // keeps payloads 16-aligned
  static constexpr std::uint32_t kHeapBucket = 0xffffffffu;
  struct Header {
    std::uint32_t bucket;
    std::uint32_t pad;
    SlabPool* origin;  ///< pool that served the block, for release()
  };
  static_assert(sizeof(Header) <= kHeaderBytes);
  struct FreeNode {
    FreeNode* next;
  };
  // Overlays the 16-byte header of a remotely-freed slot: the bucket tag is
  // preserved at offset 0 (where Header keeps it) so the owner can route the
  // slot to the right freelist at drain time; the chain pointer sits in the
  // header's padding.
  struct RemoteNode {
    std::uint32_t bucket;
    std::uint32_t pad;
    RemoteNode* next;
  };
  static_assert(sizeof(RemoteNode) <= kHeaderBytes);

  void* tag(void* block, std::uint32_t bucket) {
    auto* h = reinterpret_cast<Header*>(block);
    h->bucket = bucket;
    h->origin = this;
    return static_cast<std::byte*>(block) + kHeaderBytes;
  }

  void* heapAlloc(std::size_t bytes) {
    void* block = ::operator new(kHeaderBytes + bytes);
    ++stats_.heapAllocs;
    return tag(block, kHeapBucket);
  }

  void bump() {
    ++stats_.live;
    if (stats_.live > stats_.liveHighWater) stats_.liveHighWater = stats_.live;
  }

  void carveSlab(std::size_t need) {
    std::size_t bytes = need > kSlabBytes ? need : kSlabBytes;
    if (stats_.slabBytes + bytes > maxBytes_)
      throw std::runtime_error("SlabPool '" + name_ + "' exhausted: " +
                               std::to_string(stats_.slabBytes + bytes) +
                               " bytes would exceed the " +
                               std::to_string(maxBytes_) + "-byte budget (" +
                               std::to_string(stats_.live) + " slots live)");
    slabs_.push_back(std::make_unique<std::byte[]>(bytes));
    stats_.slabBytes += bytes;
    cursor_ = slabs_.back().get();
    cursorLeft_ = bytes;
  }

  std::string name_;
  std::size_t maxBytes_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* cursor_ = nullptr;
  std::size_t cursorLeft_ = 0;
  // freelists_[b] chains free slots of bucket b (b * kGranule payload bytes).
  FreeNode* freelists_[kMaxSlotBytes / kGranule + 1] = {};
  SlabPoolStats stats_;
  std::atomic<std::thread::id> owner_{std::this_thread::get_id()};
  std::atomic<RemoteNode*> remoteHead_{nullptr};
  std::atomic<std::uint64_t> remoteHeapFrees_{0};
};

/// Thread-local override slots for the named hot-path pools. The accessors in
/// net/packet.hpp, sim/task.hpp and sim/simulator.hpp consult these before
/// their default thread-local pools; the sharded kernel points them at
/// Simulator-owned per-worker pool sets so pooled objects outlive the worker
/// threads that allocated them (a thread_local pool would be destroyed at
/// thread exit while cross-shard packets still hold its slots).
struct PoolOverrides {
  SlabPool* packet = nullptr;
  SlabPool* payload = nullptr;
  SlabPool* taskFrame = nullptr;
  SlabPool* eventHandle = nullptr;
};

inline PoolOverrides& poolOverrides() {
  thread_local PoolOverrides o;
  return o;
}

/// Minimal std allocator over a SlabPool, for std::allocate_shared — the
/// control block and the object land in one recycled slot, so a pooled
/// shared_ptr is a refcounted slot with zero heap traffic.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  explicit PoolAllocator(SlabPool& slabs) noexcept : pool(&slabs) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& o) noexcept : pool(o.pool) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool->alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { pool->free(p); }

  template <typename U>
  bool operator==(const PoolAllocator<U>& o) const noexcept {
    return pool == o.pool;
  }

  SlabPool* pool;
};

}  // namespace anton::util
