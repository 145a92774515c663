// Tests for runtime priority-inversion detection (the dynamic stand-in for
// the type systems of the paper's prior work [29-32]). The detector lives
// in the runtime core, not the scheduler, so the battery runs over every
// scheduler family via the make_scheduler() selection helper.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/api.hpp"
#include "core/runtime.hpp"

namespace icilk {
namespace {

class PriorityInversionTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Runtime> make_rt(bool detect) {
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.num_levels = 8;
    cfg.detect_priority_inversions = detect;
    auto sched = make_scheduler(GetParam());
    EXPECT_NE(sched, nullptr) << GetParam();
    return std::make_unique<Runtime>(cfg, std::move(sched));
  }
};

TEST_P(PriorityInversionTest, HighWaitingOnLowIsFlagged) {
  auto rt = make_rt(true);
  Runtime& r = *rt;
  rt->submit(5, [&r] {
      // A priority-5 task blocking on a priority-1 routine: inversion.
      // The routine holds until the get has suspended, so the future is
      // not ready when get() looks, however the host delays the waiter.
      auto f = fut_create_at(1, [&r] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (r.stats_snapshot().gets_suspended == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return 1;
      });
      (void)f.get();
    }).get();
  EXPECT_GE(rt->priority_inversions(), 1u);
}

TEST_P(PriorityInversionTest, SameOrHigherProducerIsClean) {
  auto rt = make_rt(true);
  rt->submit(2, [] {
      auto same = fut_create([] { return 1; });
      auto higher = fut_create_at(6, [] { return 2; });
      (void)same.get();
      (void)higher.get();
    }).get();
  EXPECT_EQ(rt->priority_inversions(), 0u);
}

TEST_P(PriorityInversionTest, AlreadyReadyGetIsNotAnInversion) {
  auto rt = make_rt(true);
  rt->submit(5, [] {
      auto f = fut_create_at(0, [] { return 3; });
      while (!f.ready()) {
        spawn([] {});
        icilk::sync();
      }
      (void)f.get();  // no WAIT happens, so no inversion
    }).get();
  EXPECT_EQ(rt->priority_inversions(), 0u);
}

TEST_P(PriorityInversionTest, DetectionOffCountsNothing) {
  auto rt = make_rt(false);
  rt->submit(5, [] {
      auto f = fut_create_at(0, [] {
        volatile long x = 0;
        for (long i = 0; i < 400000; ++i) x += i;
        return 1;
      });
      (void)f.get();
    }).get();
  EXPECT_EQ(rt->priority_inversions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, PriorityInversionTest,
                         ::testing::Values("prompt", "adaptive", "multiqueue"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace icilk
