// Unit tests for the freelist pools (concurrent/objpool.hpp): same-thread
// reuse identity, hit/miss accounting, cross-thread create/destroy flow
// through the depot, sized-pool routing, and thread ordinals.
#include "concurrent/objpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace icilk {
namespace {

// Each test uses its own Tag so the static pools (and their counters)
// start cold and are not shared across tests.
struct Payload {
  explicit Payload(int v) : value(v) {}
  int value;
  char pad[40];  // push the block into a distinct size class
};

TEST(ObjectPool, SameThreadReuseReturnsSameBlock) {
  struct Tag {};
  using Pool = ObjectPool<Payload, Tag>;
  Payload* a = Pool::create(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 1);
  Pool::destroy(a);
  Payload* b = Pool::create(2);
  EXPECT_EQ(b->value, 2);
  // The magazine hands back the block we just freed.
  EXPECT_EQ(b, a);
  const auto s = Pool::stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.recycled, 1u);
  Pool::destroy(b);
}

TEST(ObjectPool, ConstructorAndDestructorRun) {
  struct Tag {};
  struct Probe {
    explicit Probe(int* c) : counter(c) { ++*counter; }
    ~Probe() { --*counter; }
    int* counter;
  };
  using Pool = ObjectPool<Probe, Tag>;
  int live = 0;
  Probe* p = Pool::create(&live);
  EXPECT_EQ(live, 1);
  Pool::destroy(p);
  EXPECT_EQ(live, 0);
}

TEST(ObjectPool, SteadyStateHitRateApproachesOne) {
  struct Tag {};
  using Pool = ObjectPool<Payload, Tag>;
  for (int i = 0; i < 10000; ++i) {
    Payload* p = Pool::create(i);
    Pool::destroy(p);
  }
  const auto s = Pool::stats();
  EXPECT_GT(s.hit_rate(), 0.99) << "hits=" << s.hits
                                << " misses=" << s.misses;
}

TEST(ObjectPool, CrossThreadCreateDestroyIsSafe) {
  // Producer/consumer imbalance: one set of threads allocates, another
  // frees — blocks travel through the locked depot. TSan target.
  struct Tag {};
  using Pool = ObjectPool<Payload, Tag>;
  constexpr int kThreads = 4;
  constexpr int kRounds = 5000;
  std::vector<std::thread> ths;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      std::vector<Payload*> held;
      held.reserve(64);
      for (int i = 0; i < kRounds; ++i) {
        Payload* p = Pool::create(t * kRounds + i);
        if (p->value != t * kRounds + i) bad.fetch_add(1);
        held.push_back(p);
        if (held.size() >= 64) {
          for (Payload* h : held) Pool::destroy(h);
          held.clear();
        }
      }
      for (Payload* h : held) Pool::destroy(h);
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(SizedPool, RoundTripsAllSizeClasses) {
  for (std::size_t sz : {1u, 63u, 64u, 65u, 128u, 200u, 256u, 257u, 4096u}) {
    void* p = sized_pool_alloc(sz);
    ASSERT_NE(p, nullptr) << "size " << sz;
    std::memset(p, 0xAB, sz);  // must be writable end to end
    sized_pool_free(p, sz);
  }
  // Reuse inside a class: second alloc of the same class is a hit.
  void* a = sized_pool_alloc(96);
  sized_pool_free(a, 96);
  const auto before = sized_pool_stats();
  void* b = sized_pool_alloc(100);  // same 128-byte class
  const auto after = sized_pool_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  sized_pool_free(b, 100);
}

TEST(ThreadOrdinal, StablePerThreadAndDistinctAcrossThreads) {
  const std::size_t mine = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), mine);  // stable on repeat
  std::mutex mu;
  std::set<std::size_t> seen;
  std::vector<std::thread> ths;
  for (int i = 0; i < 8; ++i) {
    ths.emplace_back([&] {
      const std::size_t id = thread_ordinal();
      std::lock_guard<std::mutex> g(mu);
      seen.insert(id);
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(seen.size(), 8u);     // all distinct
  EXPECT_EQ(seen.count(mine), 0u);  // and distinct from this thread
}

}  // namespace
}  // namespace icilk
