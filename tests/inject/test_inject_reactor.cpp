// The syscall shim under the reactor: injected short I/O, EINTR, EAGAIN,
// connection resets, spurious epoll wakeups, and timer delays must distort
// the *schedule* without ever corrupting data or completions.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "inject/inject.hpp"
#include "io/reactor.hpp"
#include "net/socket.hpp"

namespace icilk {
namespace {

using namespace std::chrono_literals;
using inject::Action;
using inject::Point;

struct InjectReactorTest : ::testing::Test {
  void SetUp() override {
    if (!obs::hooks_compiled_in()) {
      GTEST_SKIP() << "ICILK_HOOKS=OFF: hooks compiled out";
    }
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.num_io_threads = 2;
    rt = std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
    reactor = std::make_unique<IoReactor>(*rt);
  }
  void TearDown() override {
    engine.reset();  // uninstall before the reactor threads die
    reactor.reset();
    rt.reset();
  }

  void arm(const inject::Config& cfg) {
    engine = std::make_unique<inject::Engine>(cfg);
    engine->install();
  }

  void make_pipe(int fds[2]) {
    ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  }

  std::unique_ptr<Runtime> rt;
  std::unique_ptr<IoReactor> reactor;
  std::unique_ptr<inject::Engine> engine;
};

// Short reads/writes clamp every syscall to 1 byte; read_exact/write_all
// must still move every byte intact. 100% rate is safe for kShortIo
// (every hit still moves a byte) and makes the injected_at asserts
// schedule-independent — at partial rates, a reader that wakes late can
// drain the pipe in one uninjected read.
TEST_F(InjectReactorTest, ShortIoDeliversAllBytes) {
  inject::Config cfg;
  cfg.seed = 31;
  cfg.set_rate(Point::kSyscallRead, 1000000);
  cfg.set_force(Point::kSyscallRead, Action::kShortIo);
  cfg.set_rate(Point::kSyscallWrite, 1000000);
  cfg.set_force(Point::kSyscallWrite, Action::kShortIo);
  arm(cfg);

  int fds[2];
  make_pipe(fds);
  const std::string payload = [] {
    std::string s;
    for (int i = 0; i < 4096; ++i) s += static_cast<char>('a' + i % 26);
    return s;
  }();
  auto writer = rt->submit(0, [&] {
    return reactor->write_all(fds[1], payload.data(), payload.size());
  });
  std::string got(payload.size(), '\0');
  auto reader = rt->submit(0, [&] {
    return reactor->read_exact(fds[0], got.data(), got.size());
  });
  EXPECT_EQ(writer.get(), static_cast<ssize_t>(payload.size()));
  EXPECT_EQ(reader.get(), static_cast<ssize_t>(payload.size()));
  EXPECT_EQ(got, payload);
  EXPECT_GT(engine->injected_at(Point::kSyscallRead), 0u);
  EXPECT_GT(engine->injected_at(Point::kSyscallWrite), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// EINTR exercises do_syscall's inline retry loop (rate < 100% so the
// retry chain always terminates).
TEST_F(InjectReactorTest, EintrRetriesTransparently) {
  inject::Config cfg;
  cfg.seed = 32;
  cfg.set_rate(Point::kSyscallRead, 500000);
  cfg.set_force(Point::kSyscallRead, Action::kEintr);
  arm(cfg);

  int fds[2];
  make_pipe(fds);
  ASSERT_EQ(::write(fds[1], "steady", 6), 6);
  char buf[16];
  std::uint64_t injected = 0;
  // Repeat until at least one EINTR actually hit the op.
  for (int round = 0; round < 64 && injected == 0; ++round) {
    const ssize_t n = rt->submit(0, [&] {
                          return reactor->read_some(fds[0], buf, sizeof(buf));
                        }).get();
    ASSERT_EQ(n, 6);
    EXPECT_EQ(std::string(buf, 6), "steady");
    ASSERT_EQ(::write(fds[1], "steady", 6), 6);
    injected = engine->injected_at(Point::kSyscallRead);
  }
  EXPECT_GT(injected, 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Injected EAGAIN on ready fds forces the arm/suspend path — the race
// window between "would block" and epoll readiness the paper's fd table
// exists for. Completions must still all arrive.
TEST_F(InjectReactorTest, ForcedEagainDrivesArmPath) {
  inject::Config cfg;
  cfg.seed = 33;
  cfg.set_rate(Point::kSyscallRead, 600000);
  cfg.set_force(Point::kSyscallRead, Action::kEagain);
  arm(cfg);

  const std::uint64_t armed_before =
      reactor->ops_submitted_for_test() - reactor->ops_inline_for_test();
  int fds[2];
  make_pipe(fds);
  char buf[8];
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    EXPECT_EQ(rt->submit(0, [&] {
                  return reactor->read_some(fds[0], buf, sizeof(buf));
                }).get(),
              1);
  }
  // Data was ALWAYS ready, so every armed op came from an injected EAGAIN.
  EXPECT_GT(reactor->ops_submitted_for_test() -
                reactor->ops_inline_for_test(),
            armed_before);
  EXPECT_GT(engine->injected_at(Point::kSyscallRead), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(InjectReactorTest, ConnResetSurfacesAsError) {
  inject::Config cfg;
  cfg.seed = 34;
  cfg.set_rate(Point::kSyscallRead, 1000000);
  cfg.set_force(Point::kSyscallRead, Action::kConnReset);
  arm(cfg);

  int fds[2];
  make_pipe(fds);
  ASSERT_EQ(::write(fds[1], "doomed", 6), 6);
  char buf[8];
  EXPECT_EQ(rt->submit(0, [&] {
                return reactor->read_some(fds[0], buf, sizeof(buf));
              }).get(),
            -ECONNRESET);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Spurious epoll wakeups (kForce at kEpollDispatch) re-arm without
// dispatching; EPOLLONESHOT must redeliver until the op completes.
TEST_F(InjectReactorTest, SpuriousWakeupsStillComplete) {
  inject::Config cfg;
  cfg.seed = 35;
  cfg.set_rate(Point::kEpollDispatch, 500000);
  cfg.set_force(Point::kEpollDispatch, Action::kForce);
  arm(cfg);

  int fds[2];
  make_pipe(fds);
  char buf[8];
  std::uint64_t spurious = 0;
  for (int i = 0; i < 100; ++i) {
    auto f = rt->submit(0, [&] {
      return reactor->read_some(fds[0], buf, sizeof(buf));
    });
    std::this_thread::sleep_for(1ms);  // let it arm (nothing to read yet)
    ASSERT_EQ(::write(fds[1], "y", 1), 1);
    EXPECT_EQ(f.get(), 1);
    spurious = engine->injected_at(Point::kEpollDispatch);
  }
  EXPECT_GT(spurious, 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Timer-fire delays perturb completion timing but sleeps still finish.
TEST_F(InjectReactorTest, TimerDelaysDoNotLoseSleeps) {
  inject::Config cfg;
  cfg.seed = 36;
  cfg.set_rate(Point::kTimerFire, 1000000);  // menu: kDelay only
  cfg.max_delay_spins = 5000;
  arm(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Future<void>> fs;
  for (int i = 0; i < 8; ++i) {
    fs.push_back(rt->submit(0, [&] { reactor->sleep_for(20ms); }));
  }
  for (auto& f : fs) f.get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 15ms);
  EXPECT_GT(engine->injected_at(Point::kTimerFire), 0u);
}

// TCP echo under a mixed storm (EINTR reads, all-short writes, spurious
// wakeups, accept faults): end-to-end payload integrity.
TEST_F(InjectReactorTest, TcpEchoUnderMixedFaults) {
  inject::Config cfg;
  cfg.seed = 37;
  cfg.set_rate(Point::kSyscallRead, 300000);
  cfg.set_force(Point::kSyscallRead, Action::kEintr);
  cfg.set_rate(Point::kSyscallWrite, 1000000);
  cfg.set_force(Point::kSyscallWrite, Action::kShortIo);
  cfg.set_rate(Point::kSyscallAccept, 300000);
  cfg.set_force(Point::kSyscallAccept, Action::kEintr);
  cfg.set_rate(Point::kEpollDispatch, 300000);
  cfg.set_force(Point::kEpollDispatch, Action::kForce);
  arm(cfg);

  const int lfd = net::listen_tcp(0);
  ASSERT_GE(lfd, 0);
  const int port = net::local_port(lfd);
  constexpr int kConns = 16;

  std::atomic<int> served{0};
  auto acceptor = rt->submit(1, [&] {
    for (int i = 0; i < kConns; ++i) {
      const ssize_t cfd = reactor->accept(lfd);
      ASSERT_GE(cfd, 0);
      fut_create([&, cfd] {
        char buf[64];
        const ssize_t n =
            reactor->read_some(static_cast<int>(cfd), buf, sizeof(buf));
        if (n > 0) {
          reactor->write_all(static_cast<int>(cfd), buf,
                             static_cast<std::size_t>(n));
        }
        ::close(static_cast<int>(cfd));
        served.fetch_add(1);
      });
    }
  });

  std::vector<int> cfds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = net::connect_tcp(static_cast<std::uint16_t>(port));
    ASSERT_GE(fd, 0);
    cfds.push_back(fd);
  }
  acceptor.get();
  for (int i = 0; i < kConns; ++i) {
    const std::string msg = "chaos" + std::to_string(i);
    while (::write(cfds[i], msg.data(), msg.size()) < 0 && errno == EAGAIN) {
    }
  }
  for (int i = 0; i < kConns; ++i) {
    const std::string expect = "chaos" + std::to_string(i);
    std::string got;
    char buf[64];
    while (got.size() < expect.size()) {
      const ssize_t r = ::read(cfds[i], buf, sizeof(buf));
      if (r > 0) {
        got.append(buf, static_cast<std::size_t>(r));
      } else if (r < 0 && errno == EAGAIN) {
        std::this_thread::sleep_for(1ms);
      } else {
        break;
      }
    }
    EXPECT_EQ(got, expect) << "conn " << i;
    ::close(cfds[i]);
  }
  while (served.load() < kConns) std::this_thread::sleep_for(1ms);
  EXPECT_GT(engine->injected(), 0u);
  ::close(lfd);
}

// fd-generation safety: cancel storms + forced EAGAIN (maximizing armed
// ops) while fd numbers are recycled. Stale completions must never leak
// into a successor op; every future resolves.
TEST_F(InjectReactorTest, FdReuseSafeUnderForcedArming) {
  inject::Config cfg;
  cfg.seed = 38;
  cfg.set_rate(Point::kSyscallRead, 800000);
  cfg.set_force(Point::kSyscallRead, Action::kEagain);
  cfg.set_rate(Point::kEpollDispatch, 300000);
  cfg.set_force(Point::kEpollDispatch, Action::kForce);
  arm(cfg);

  for (int round = 0; round < 60; ++round) {
    int fds[2];
    make_pipe(fds);
    char buf[8];
    auto f = rt->submit(0, [&] {
      return reactor->read_some(fds[0], buf, sizeof(buf));
    });
    if (round % 2 == 0) {
      // Let it arm, then cancel: the op must complete -ECANCELED, and the
      // fd number (immediately reused by the next round's pipe) must not
      // receive this life's completion. The cancel can race the arming —
      // write a byte after it so a missed cancel still resolves the read.
      std::this_thread::sleep_for(500us);
      reactor->cancel_fd(fds[0]);
      ASSERT_EQ(::write(fds[1], "w", 1), 1);
      const ssize_t n = f.get();
      EXPECT_TRUE(n == -ECANCELED || n == 1) << n;
    } else {
      ASSERT_EQ(::write(fds[1], "z", 1), 1);
      EXPECT_EQ(f.get(), 1);
    }
    ::close(fds[0]);
    ::close(fds[1]);
  }
  EXPECT_GT(engine->injected_at(Point::kSyscallRead), 0u);
}

}  // namespace
}  // namespace icilk
