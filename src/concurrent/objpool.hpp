// Recycling block pools for the I/O fast path.
//
// The reactor allocates one Op and one FutureState per I/O operation; a
// server at high connection counts does that millions of times per second,
// and malloc/free on that path both costs cycles and bounces cache lines
// through the allocator's central structures. These pools give steady-state
// operations allocation-free submit→complete:
//
//   * each thread keeps a small magazine (plain vector, no locks) of
//     fixed-size blocks;
//   * magazines overflow into / refill from a spinlocked global depot in
//     batches, so producer/consumer thread imbalance (submitting workers
//     allocate, reactor threads free) stays bounded without per-op locking;
//   * happens-before for block reuse is inherited: same-thread reuse is
//     program order, cross-thread blocks only travel through the depot's
//     lock. TSan-clean by construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "concurrent/spinlock.hpp"

namespace icilk {

/// Small dense process-wide thread ordinal (0, 1, 2, ...), assigned on
/// first use. Cheap shard selector for per-thread structures.
inline int thread_ordinal() noexcept {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

struct PoolCountersSnapshot {
  std::uint64_t hits = 0;      ///< allocations served from a freelist
  std::uint64_t misses = 0;    ///< allocations that hit ::operator new
  std::uint64_t recycled = 0;  ///< frees parked for reuse

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  PoolCountersSnapshot& operator+=(const PoolCountersSnapshot& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    recycled += o.recycled;
    return *this;
  }
};

/// Process-wide recycler of `BlockSize`-byte blocks. `Tag` separates
/// instantiations that happen to share a size (each gets its own magazines
/// and depot). All members are static: the pool outlives every user.
template <std::size_t BlockSize, typename Tag>
class BlockPool {
 public:
  static constexpr std::size_t kMagazineCap = 128;  // blocks per thread
  static constexpr std::size_t kBatch = 32;         // depot transfer unit
  static constexpr std::size_t kDepotCap = 4096;    // blocks in the depot

  static void* alloc() {
    Cache& c = cache();
    if (c.blocks.empty()) refill(c);
    if (!c.blocks.empty()) {
      counters().hits.fetch_add(1, std::memory_order_relaxed);
      void* p = c.blocks.back();
      c.blocks.pop_back();
      return p;
    }
    counters().misses.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(BlockSize);
  }

  static void dealloc(void* p) noexcept {
    Cache& c = cache();
    if (c.blocks.size() >= kMagazineCap) flush(c);
    if (c.blocks.size() < kMagazineCap) {  // flush can fail on a full depot
      c.blocks.push_back(p);               // reserved; never reallocates
      counters().recycled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ::operator delete(p);
  }

  static PoolCountersSnapshot stats() noexcept {
    return {counters().hits.load(std::memory_order_relaxed),
            counters().misses.load(std::memory_order_relaxed),
            counters().recycled.load(std::memory_order_relaxed)};
  }

 private:
  struct Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> recycled{0};
  };
  struct Depot {
    SpinLock mu;
    std::vector<void*> blocks;
    // Blocks parked here at process exit go back to the heap (the vector
    // only holds raw pointers, so its own destructor would strand them).
    ~Depot() {
      for (void* p : blocks) ::operator delete(p);
    }
  };
  struct Cache {
    std::vector<void*> blocks;
    Cache() { blocks.reserve(kMagazineCap); }
    ~Cache() {
      // Thread exit: blocks go back to the heap, not the depot (the depot
      // may already be gone during process teardown).
      for (void* p : blocks) ::operator delete(p);
    }
  };

  static Counters& counters() noexcept {
    static Counters c;
    return c;
  }
  static Depot& depot() {
    static Depot d;
    return d;
  }
  static Cache& cache() {
    static thread_local Cache c;
    return c;
  }

  static void refill(Cache& c) {
    Depot& d = depot();
    LockGuard<SpinLock> g(d.mu);
    const std::size_t take = d.blocks.size() < kBatch ? d.blocks.size()
                                                      : kBatch;
    for (std::size_t i = 0; i < take; ++i) {
      c.blocks.push_back(d.blocks.back());
      d.blocks.pop_back();
    }
  }

  static void flush(Cache& c) noexcept {
    Depot& d = depot();
    LockGuard<SpinLock> g(d.mu);
    if (d.blocks.capacity() == 0) d.blocks.reserve(kDepotCap);
    while (!c.blocks.empty() && d.blocks.size() < kDepotCap) {
      d.blocks.push_back(c.blocks.back());
      c.blocks.pop_back();
      if (c.blocks.size() + kBatch <= kMagazineCap) break;  // moved a batch
    }
  }
};

/// Typed create/destroy over BlockPool: placement-constructs T in recycled
/// storage. T's constructor must not throw (the block would leak).
template <typename T, typename Tag = T>
class ObjectPool {
 public:
  template <typename... Args>
  static T* create(Args&&... args) {
    void* p = Pool::alloc();
    return ::new (p) T(std::forward<Args>(args)...);
  }
  static void destroy(T* t) noexcept {
    t->~T();
    Pool::dealloc(t);
  }
  static PoolCountersSnapshot stats() noexcept { return Pool::stats(); }

 private:
  static_assert(alignof(T) <= alignof(std::max_align_t));
  using Pool = BlockPool<sizeof(T), Tag>;
};

// ---------------------------------------------------------------------------
// Size-class pool: backs FutureStateBase::operator new/delete, so every
// future state (I/O ops, sleeps, spawned routines) recycles. Sizes above
// the largest class fall through to the global allocator.
// ---------------------------------------------------------------------------

struct SizedPoolTag {};

inline void* sized_pool_alloc(std::size_t sz) {
  if (sz <= 64) return BlockPool<64, SizedPoolTag>::alloc();
  if (sz <= 128) return BlockPool<128, SizedPoolTag>::alloc();
  if (sz <= 256) return BlockPool<256, SizedPoolTag>::alloc();
  return ::operator new(sz);
}

inline void sized_pool_free(void* p, std::size_t sz) noexcept {
  if (sz <= 64) return BlockPool<64, SizedPoolTag>::dealloc(p);
  if (sz <= 128) return BlockPool<128, SizedPoolTag>::dealloc(p);
  if (sz <= 256) return BlockPool<256, SizedPoolTag>::dealloc(p);
  ::operator delete(p);
}

inline PoolCountersSnapshot sized_pool_stats() noexcept {
  PoolCountersSnapshot s = BlockPool<64, SizedPoolTag>::stats();
  s += BlockPool<128, SizedPoolTag>::stats();
  s += BlockPool<256, SizedPoolTag>::stats();
  return s;
}

}  // namespace icilk
