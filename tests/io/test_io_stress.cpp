// Concurrency stress over the I/O fast path: many submitter tasks hammer
// reads/writes/sleeps across shared and private fds while other tasks
// churn fd numbers through cancel/close/reopen. Run under
// ICILK_SANITIZE=thread this is the data-race gauntlet for the fd slot
// table, the op/future recycling pools, and the sharded timers.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "io/reactor.hpp"

namespace icilk {
namespace {

using namespace std::chrono_literals;

struct IoStress : ::testing::Test {
  void SetUp() override {
    RuntimeConfig cfg;
    cfg.num_workers = 4;
    cfg.num_io_threads = 4;
    rt = std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
    reactor = std::make_unique<IoReactor>(*rt);
  }
  void TearDown() override {
    reactor.reset();
    rt.reset();
  }
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<IoReactor> reactor;
};

TEST_F(IoStress, PingPongPairsWithTimersAndChurn) {
  constexpr int kPairs = 8;
  constexpr int kRounds = 200;

  std::vector<Future<void>> fs;
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<int> failures{0};

  // Ping-pong pairs: task A writes pipe1/reads pipe2, task B mirrors.
  // Roughly half the reads arm (partner not there yet), half are inline.
  for (int p = 0; p < kPairs; ++p) {
    int ab[2], ba[2];
    ASSERT_EQ(::pipe2(ab, O_NONBLOCK | O_CLOEXEC), 0);
    ASSERT_EQ(::pipe2(ba, O_NONBLOCK | O_CLOEXEC), 0);
    // Each task closes only its own two ends (via the lifecycle hook):
    // when A's loop ends B has consumed every byte A wrote, and a reader
    // can still drain buffered bytes after the writer's end closes.
    fs.push_back(rt->submit(0, [this, &bytes, &failures, wr = ab[1],
                                rd = ba[0]] {
      char c = 'x';
      for (int i = 0; i < kRounds; ++i) {
        if (reactor->write_all(wr, &c, 1) != 1 ||
            reactor->read_some(rd, &c, 1) != 1) {
          failures.fetch_add(1);
          return;
        }
        bytes.fetch_add(1, std::memory_order_relaxed);
      }
      reactor->close_fd(wr);
      reactor->close_fd(rd);
    }));
    fs.push_back(rt->submit(0, [this, &bytes, &failures, rd = ab[0],
                                wr = ba[1]] {
      char c;
      for (int i = 0; i < kRounds; ++i) {
        if (reactor->read_some(rd, &c, 1) != 1 ||
            reactor->write_all(wr, &c, 1) != 1) {
          failures.fetch_add(1);
          return;
        }
        bytes.fetch_add(1, std::memory_order_relaxed);
      }
      reactor->close_fd(rd);
      reactor->close_fd(wr);
    }));
  }

  // Timer churn on every shard: short staggered sleeps from many tasks.
  for (int t = 0; t < 8; ++t) {
    fs.push_back(rt->submit(0, [this, t] {
      for (int i = 0; i < 40; ++i) {
        reactor->sleep_for(std::chrono::microseconds(100 + 37 * ((i + t) % 7)));
      }
    }));
  }

  // fd churn: arm a read, cancel it, reopen — constantly recycling fd
  // numbers while the pairs run.
  for (int t = 0; t < 4; ++t) {
    fs.push_back(rt->submit(0, [this, &failures] {
      for (int i = 0; i < 60; ++i) {
        int fds[2];
        if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
          failures.fetch_add(1);
          return;
        }
        char buf[4];
        auto f = reactor->async_read(fds[0], buf, sizeof(buf));
        if (i % 2 == 0) {
          reactor->cancel_fd(fds[0]);
          const ssize_t r = f.get();
          if (r != -ECANCELED && r != -EAGAIN) {
            // Cancel raced completion: only those two results are legal.
            failures.fetch_add(1);
          }
        } else {
          (void)::write(fds[1], "k", 1);
          if (f.get() != 1) failures.fetch_add(1);
        }
        reactor->close_fd(fds[0]);
        ::close(fds[1]);
      }
    }));
  }

  for (auto& f : fs) f.get();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bytes.load(), 2ull * kPairs * kRounds);

  // Pool sanity: steady state must be overwhelmingly freelist hits (this
  // workload reuses each op size thousands of times).
  const auto fut = IoReactor::future_pool_stats();
  EXPECT_GT(fut.hits + fut.misses, 0u);
  EXPECT_GT(fut.hit_rate(), 0.9) << "hits=" << fut.hits
                                 << " misses=" << fut.misses;
}

TEST_F(IoStress, ConcurrentSleepersAcrossShards) {
  // Every submitter hashes somewhere; with 4 shards and 16 tasks all
  // shards see traffic. Total ordering is per-shard only, so just check
  // durations were honored and everything completes.
  std::vector<Future<void>> fs;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 16; ++i) {
    fs.push_back(rt->submit(0, [this, i] {
      for (int r = 0; r < 10; ++r) {
        reactor->sleep_for(std::chrono::milliseconds(1 + (i + r) % 3));
      }
    }));
  }
  for (auto& f : fs) f.get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 10ms);  // at least the per-task minimum
  EXPECT_GE(rt->metrics().io_counter(obs::IoStat::kTimerScheduled), 160u);
}

}  // namespace
}  // namespace icilk
