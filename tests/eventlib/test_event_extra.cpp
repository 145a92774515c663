// Additional eventlib coverage: interest changes, event lifecycle inside
// callbacks, timer churn, and mixed fd+timer events on one base.
#include "eventlib/event.hpp"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace icilk::ev {
namespace {

using namespace std::chrono_literals;

struct Pipe {
  int rd = -1, wr = -1;
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
    rd = fds[0];
    wr = fds[1];
  }
  ~Pipe() {
    ::close(rd);
    ::close(wr);
  }
};

TEST(EventExtra, InterestChangeReadToWrite) {
  EventBase base;
  Pipe p;
  int phases = 0;
  Event* ev = base.new_event(p.rd, kRead, [&](int fd, short what) {
    if (phases == 0) {
      EXPECT_TRUE(what & kRead);
      char buf[4];
      while (::read(fd, buf, sizeof(buf)) > 0) {
      }
      ++phases;
      // Re-arm the same Event for WRITE on the other end of the pipe —
      // not possible with one Event (one fd), so re-add for read again
      // and verify the second round fires too.
      base.new_event(p.wr, kWrite, [&](int, short w2) {
        EXPECT_TRUE(w2 & kWrite);
        ++phases;
        base.loopbreak();
      })->add();
      return;
    }
  });
  ev->add();
  ASSERT_EQ(::write(p.wr, "x", 1), 1);
  base.dispatch();
  EXPECT_EQ(phases, 2);
}

TEST(EventExtra, EventAddedFromCallbackFires) {
  EventBase base;
  Pipe a, b;
  bool second_fired = false;
  base.new_event(a.rd, kRead, [&](int, short) {
    Event* nested = base.new_event(b.rd, kRead, [&](int, short) {
      second_fired = true;
      base.loopbreak();
    });
    nested->add();
    ASSERT_EQ(::write(b.wr, "y", 1), 1);
  })->add();
  ASSERT_EQ(::write(a.wr, "x", 1), 1);
  base.dispatch();
  EXPECT_TRUE(second_fired);
}

TEST(EventExtra, FreeEventFromItsOwnCallback) {
  EventBase base;
  Pipe p;
  Event* ev = nullptr;
  ev = base.new_event(p.rd, kRead | kPersist, [&](int, short) {
    base.free_event(ev);  // self-destruct mid-dispatch
    base.loopbreak();
  });
  ev->add();
  ASSERT_EQ(::write(p.wr, "x", 1), 1);
  base.dispatch();  // must not crash / double-fire
}

TEST(EventExtra, TimerChurnAddDelAdd) {
  EventBase base;
  int fired = 0;
  Event* t = base.new_event(-1, kTimeout, [&](int, short) {
    ++fired;
    base.loopbreak();
  });
  // Arm/disarm repeatedly: only the final arm may fire.
  for (int i = 0; i < 50; ++i) {
    t->add(std::chrono::milliseconds(1));
    t->del();
  }
  t->add(5ms);
  base.dispatch();
  EXPECT_EQ(fired, 1);
}

TEST(EventExtra, ManyTimersCoexist) {
  EventBase base;
  constexpr int kTimers = 64;
  int fired = 0;
  std::vector<Event*> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(base.new_event(-1, kTimeout, [&](int, short) {
      if (++fired == kTimers) base.loopbreak();
    }));
  }
  for (int i = 0; i < kTimers; ++i) {
    timers[static_cast<std::size_t>(i)]->add(
        std::chrono::milliseconds(1 + i % 7));
  }
  base.dispatch();
  EXPECT_EQ(fired, kTimers);
}

TEST(EventExtra, TimeoutOnFdEventActsAsDeadline) {
  EventBase base;
  Pipe p;
  short seen = 0;
  base.new_event(p.rd, kRead, [&](int, short what) {
    seen = what;
    base.loopbreak();
  })->add(20ms);
  // No data ever written: the timeout must fire instead of the read.
  const auto t0 = std::chrono::steady_clock::now();
  base.dispatch();
  EXPECT_TRUE(seen & kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 15ms);
}

// A loopbreak() that lands before the thread reaches dispatch() must still
// stop the loop: PthreadMcServer::stop() breaks its I/O threads' loops and
// joins them, and a thread that has not yet entered dispatch() must not
// run on forever. The loop runs on a helper thread with a deadline, so a
// lost break fails the test instead of hanging it.
TEST(EventExtra, LoopbreakBeforeDispatchStopsIt) {
  EventBase base;
  base.loopbreak();
  std::atomic<bool> returned{false};
  std::thread t([&] {
    base.dispatch();
    returned.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const bool stopped = returned.load();
  if (!stopped) base.loopbreak();  // unstick the helper so join() returns
  t.join();
  EXPECT_TRUE(stopped) << "a break issued before dispatch() was lost";

  // The break was consumed: the next dispatch() runs until a new one.
  int fired = 0;
  Event* ev = base.new_event(-1, kTimeout, [&](int, short) {
    ++fired;
    base.loopbreak();
  });
  ev->add(10ms);
  base.dispatch();
  EXPECT_EQ(fired, 1);
  base.free_event(ev);
}

}  // namespace
}  // namespace icilk::ev
