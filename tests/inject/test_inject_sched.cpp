// Scheduler crosspoints: forced abandonment must route the active deque
// through the mugging queue and back — age intact, nothing lost — and the
// perturbation points (steal/mug/suspend/resume-publish/wake) must widen
// race windows without breaking completion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/deque.hpp"
#include "core/future.hpp"
#include "core/prompt_scheduler.hpp"
#include "core/runtime.hpp"
#include "inject/inject.hpp"

namespace icilk {
namespace {

using namespace std::chrono_literals;
using inject::Action;
using inject::Point;

// ---- deque-level invariants the crosspoint relies on ----

TEST(InjectSchedUnit, AbandonStampsResumableAge) {
  std::atomic<std::int64_t> census{0};
  auto d = Ref<Deque>::adopt(new Deque(2, &census));
  d->abandon(reinterpret_cast<TaskFiber*>(0x10));
  EXPECT_EQ(d->state(), Deque::State::Resumable);
  // The abandonment stamped its resumable-since age: the mugger that takes
  // this deque over measures aging from the ABANDON, not from requeueing.
  Continuation c;
  ASSERT_TRUE(d->try_mug(c));
  EXPECT_EQ(c.resume, reinterpret_cast<TaskFiber*>(0x10));
  EXPECT_GT(d->take_resumable_stamp(), 0u);
}

// The mugging queue is serviced before regular entries: an abandoned deque
// jumps ahead of older regular deques instead of re-aging at the tail.
TEST(InjectSchedUnit, MuggingQueueBeatsOlderRegularEntries) {
  auto pool = make_deque_pool(PoolKind::FaaTwoQueue);
  std::atomic<std::int64_t> census{0};
  auto older = Ref<Deque>::adopt(new Deque(1, &census));
  auto abandoned = Ref<Deque>::adopt(new Deque(1, &census));
  older->push_bottom(reinterpret_cast<TaskFiber*>(0x20));
  ASSERT_TRUE(older->mark_enqueued());
  pool->push_regular(older);
  abandoned->abandon(reinterpret_cast<TaskFiber*>(0x21));
  ASSERT_TRUE(abandoned->mark_enqueued());
  pool->push_mugging(abandoned);

  EXPECT_EQ(pool->pop().get(), abandoned.get());
  EXPECT_EQ(pool->pop().get(), older.get());
  EXPECT_EQ(pool->pop().get(), nullptr);
}

// ---- end-to-end forced abandonment ----

struct InjectSchedTest : ::testing::Test {
  void SetUp() override {
    if (!obs::hooks_compiled_in()) {
      GTEST_SKIP() << "ICILK_HOOKS=OFF: hooks compiled out";
    }
  }
  void TearDown() override { engine.reset(); }

  std::unique_ptr<Runtime> make_rt(int workers) {
    RuntimeConfig cfg;
    cfg.num_workers = workers;
    cfg.num_levels = 8;
    return std::make_unique<Runtime>(cfg,
                                     std::make_unique<PromptScheduler>());
  }

  void arm(const inject::Config& cfg) {
    engine = std::make_unique<inject::Engine>(cfg);
    engine->install();
  }

  std::unique_ptr<inject::Engine> engine;
};

// Forced kAbandonCheck abandons deques with NO higher-priority work in the
// system — the crosspoint takes the branch the bitfield almost never
// does. Every abandoned deque must come back via a mug with its aging
// stamp recorded, and all work completes.
TEST_F(InjectSchedTest, ForcedAbandonmentRoundTripsThroughMuggingQueue) {
  inject::Config cfg;
  cfg.seed = 51;
  cfg.set_rate(Point::kAbandonCheck, 20000);  // 2% of checks abandon
  arm(cfg);

  auto rt = make_rt(2);
  std::atomic<int> done{0};
  std::vector<Future<void>> fs;
  for (int t = 0; t < 8; ++t) {
    fs.push_back(rt->submit(0, [&] {
      for (int k = 0; k < 400; ++k) {  // each spawn/sync is a check
        spawn([] {});
        sync();
      }
      done.fetch_add(1);
    }));
  }
  for (auto& f : fs) f.get();
  EXPECT_EQ(done.load(), 8);

  const StatsSnapshot s = rt->stats_snapshot();
  EXPECT_GT(engine->injected_at(Point::kAbandonCheck), 0u);
  EXPECT_GE(s.abandons, engine->injected_at(Point::kAbandonCheck));
  // Each abandoned deque was taken over whole (mug), not re-stolen entry
  // by entry — the mugging queue delivered it.
  EXPECT_GT(s.mugs, 0u);
  // And the mugger consumed the abandon-time stamp: aging delay samples
  // exist at the work's level, so abandonment did not de-age the deque.
  EXPECT_GT(rt->metrics().aging_hist(0).count(), 0u);
  rt->shutdown();
}

// Same forced abandonment while a HIGHER-priority stream runs: abandoned
// level-0 deques sit in the mugging queue, high work churns the pool, and
// still nothing is lost or starved past the run.
TEST_F(InjectSchedTest, ForcedAbandonWithCompetingHighPriorityWork) {
  inject::Config cfg;
  cfg.seed = 52;
  cfg.set_rate(Point::kAbandonCheck, 50000);
  cfg.set_rate(Point::kResumePublish, 100000);  // delay publications too
  cfg.max_delay_spins = 300;
  arm(cfg);

  auto rt = make_rt(2);
  std::atomic<int> low_done{0};
  std::vector<Future<void>> lows;
  for (int t = 0; t < 6; ++t) {
    lows.push_back(rt->submit(0, [&] {
      for (int k = 0; k < 200; ++k) {
        spawn([] {});
        sync();
      }
      low_done.fetch_add(1);
    }));
  }
  for (int i = 0; i < 40; ++i) {
    rt->submit(5, [] {}).get();
  }
  for (auto& f : lows) f.get();
  EXPECT_EQ(low_done.load(), 6);
  EXPECT_GT(rt->stats_snapshot().abandons, 0u);
  rt->shutdown();
}

// Steal/mug/suspend perturbations (yields + spins at the exact decision
// points) under a suspension-heavy future workload: the wider race
// windows must not lose a wakeup or double-resume a deque (a double
// resume would assert/crash in Deque::try_mug's state machine).
TEST_F(InjectSchedTest, PerturbedStealMugSuspendLosesNothing) {
  inject::Config cfg;
  cfg.seed = 53;
  cfg.set_rate(Point::kSteal, 200000);
  cfg.set_rate(Point::kMug, 200000);
  cfg.set_rate(Point::kSuspend, 200000);
  cfg.set_rate(Point::kResumePublish, 200000);
  cfg.max_delay_spins = 500;
  arm(cfg);

  auto rt = make_rt(4);
  std::atomic<int> done{0};
  std::vector<Future<void>> fs;
  for (int t = 0; t < 16; ++t) {
    fs.push_back(rt->submit(t % 3, [&] {
      for (int k = 0; k < 50; ++k) {
        auto g = fut_create([] { return 1; });
        spawn([] {});
        sync();
        if (g.get() != 1) return;
      }
      done.fetch_add(1);
    }));
  }
  for (auto& f : fs) f.get();
  EXPECT_EQ(done.load(), 16);
  EXPECT_GT(engine->injected(), 0u);
  rt->shutdown();
}

// The wake window: a Suspended deque with stealable entries stays in its
// pool, so between a waker's make_resumable() and whatever the waker does
// next, a thief holding that pool reference can mug the deque. Here the
// waker is this thread completing `gate`; the kWake crosspoint holds it in
// the window while the one worker comes free and mugs the deque. The
// waker must then leave the deque to the thief: asserting that it is
// still Resumable aborts, and republishing it would publish a running
// deque.
TEST_F(InjectSchedTest, ThiefMugsDequeInsideWakeWindow) {
  constexpr std::uint32_t kWakerStream = 1000;
  inject::Config cfg;
  cfg.set_rate(Point::kWake, 1000000);
  cfg.set_force(Point::kWake, Action::kDelay);
  cfg.max_delay_spins = 20000000;
  // The first seed whose first kWake decision on the waker's stream spins
  // at least half the bound: tens of milliseconds even where a pause
  // instruction is cheap, against the worker's 5 ms sleep below.
  cfg.seed = 1;
  while (inject::Engine::eval(cfg, kWakerStream, 0, Point::kWake).arg <
         cfg.max_delay_spins / 2) {
    ++cfg.seed;
  }
  arm(cfg);
  engine->bind_stream(kWakerStream);

  auto rt = make_rt(1);
  auto gate = Ref<FutureState<void>>::make(*rt);
  std::atomic<bool> thief_busy{false};
  std::atomic<bool> waker_returned{false};
  std::atomic<bool> resumed_inside_window{false};
  auto root = rt->submit(0, [&] {
    spawn([&] {
      // Blocks with both ancestor continuations above it in the deque,
      // which therefore stays in its pool while Suspended.
      spawn([&] {
        Future<void>(gate).get();
        resumed_inside_window.store(!waker_returned.load());
      });
      sync();
    });
    // The idle worker stole this continuation (the top entry) once the
    // deque suspended; the middle one is still stealable. Hold the worker
    // until the waker is inside the window, then free it to mug.
    thief_busy.store(true);
    while (!gate->ready()) std::this_thread::yield();
    std::this_thread::sleep_for(5ms);
    sync();
  });
  while (!thief_busy.load()) std::this_thread::yield();
  gate->complete();
  waker_returned.store(true);
  root.get();

  const std::vector<inject::Decision> log = engine->stream_log(kWakerStream);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front().point, Point::kWake);
  EXPECT_TRUE(resumed_inside_window.load())
      << "the worker did not mug the deque while the waker was held";
  EXPECT_GE(rt->stats_snapshot().mugs, 1u);
  rt->shutdown();
}

// Replay: the same seeded chaos workload records the same injection
// decisions for the scheduler's stream bindings when thread streams are
// pinned — verified at the engine level against a fresh eval pass.
TEST_F(InjectSchedTest, RecordedSchedulerDecisionsReplay) {
  inject::Config cfg;
  cfg.seed = 54;
  cfg.set_rate(Point::kAbandonCheck, 30000);
  cfg.set_rate(Point::kSteal, 30000);
  arm(cfg);

  auto rt = make_rt(2);
  std::vector<Future<void>> fs;
  for (int t = 0; t < 4; ++t) {
    fs.push_back(rt->submit(0, [] {
      for (int k = 0; k < 300; ++k) {
        spawn([] {});
        sync();
      }
    }));
  }
  for (auto& f : fs) f.get();
  rt->shutdown();

  std::uint64_t checked = 0;
  for (std::uint32_t sid = 0; sid < engine->stream_count(); ++sid) {
    for (const inject::Decision& d : engine->stream_log(sid)) {
      const inject::Outcome o =
          inject::Engine::eval(engine->config(), sid, d.index, d.point);
      ASSERT_EQ(o.action, d.action);
      ASSERT_EQ(o.arg, d.arg);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace icilk
