// Seeded chaos soaks: the real servers under mixed fault schedules. The
// invariants are the subsystem's reason to exist — no lost deques (census
// quiesces, drain() returns), no stuck open-loop slots (completed + errors
// covers every fired request), futures always complete, clean shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "apps/email/email_server.hpp"
#include "apps/job/job_server.hpp"
#include "apps/memcached/icilk_server.hpp"
#include "concurrent/clock.hpp"
#include "core/prompt_scheduler.hpp"
#include "inject/inject.hpp"
#include "load/histogram.hpp"
#include "load/mc_client.hpp"
#include "load/openloop.hpp"

namespace icilk {
namespace {

using namespace std::chrono_literals;
using inject::Action;
using inject::Point;

struct InjectSoakTest : ::testing::Test {
  void SetUp() override {
    if (!obs::hooks_compiled_in()) {
      GTEST_SKIP() << "ICILK_HOOKS=OFF: hooks compiled out";
    }
  }
  void TearDown() override { engine.reset(); }

  void arm(const inject::Config& cfg) {
    engine = std::make_unique<inject::Engine>(cfg);
    engine->install();
  }

  std::unique_ptr<inject::Engine> engine;
};

/// Mixed low-rate chaos across every point (the soak posture): syscall
/// faults including resets, spurious wakeups, forced abandonment, and
/// schedule perturbations all at once.
inject::Config soak_config(std::uint64_t seed, std::uint32_t ppm) {
  inject::Config cfg;
  cfg.seed = seed;
  cfg.set_all_rates(ppm);
  cfg.max_delay_spins = 300;
  return cfg;
}

TEST_F(InjectSoakTest, MinicachedOpenLoopAccountsEveryRequest) {
  apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = 2;
  cfg.rt.num_io_threads = 2;
  cfg.rt.num_levels = 2;
  apps::ICilkMcServer server(cfg, std::make_unique<PromptScheduler>());

  load::McClient::Config ccfg;
  ccfg.port = static_cast<std::uint16_t>(server.port());
  ccfg.connections = 8;
  ccfg.keyspace = 128;
  ccfg.seed = 61;
  load::McClient client(ccfg);
  ASSERT_TRUE(client.setup());  // preload runs fault-free

  arm(soak_config(61, 5000));  // 0.5% everywhere, resets included

  const auto arrivals = load::poisson_schedule(2000.0, 1.5, 61);
  load::Histogram hist;
  const std::size_t completed = client.run(arrivals, hist, 20.0);

  // THE open-loop invariant: every fired request either completed or was
  // counted as an error when its connection died — no slot may stall to
  // the drain timeout with a silently lost request.
  EXPECT_GE(completed + client.errors(), arrivals.size());
  EXPECT_GT(completed, 0u);
  EXPECT_GT(engine->injected(), 0u);

  engine->uninstall();  // stop faulting before shutdown paths
  server.stop();
  // No lost deques: with all connections drained and the server stopped,
  // the census gauge at every level returns to zero.
  for (int lvl = 0; lvl < cfg.rt.num_levels; ++lvl) {
    EXPECT_EQ(server.runtime().census(lvl), 0) << "level " << lvl;
  }
}

// Injected connection resets specifically: the client must recycle dead
// connections (reconnects_ > 0) rather than wedging an open-loop slot.
TEST_F(InjectSoakTest, ClientRecyclesConnectionsKilledByResets) {
  apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = 2;
  cfg.rt.num_io_threads = 1;
  cfg.rt.num_levels = 2;
  apps::ICilkMcServer server(cfg, std::make_unique<PromptScheduler>());

  load::McClient::Config ccfg;
  ccfg.port = static_cast<std::uint16_t>(server.port());
  ccfg.connections = 4;
  ccfg.keyspace = 64;
  ccfg.seed = 62;
  load::McClient client(ccfg);
  ASSERT_TRUE(client.setup());

  inject::Config icfg;
  icfg.seed = 62;
  icfg.set_rate(Point::kSyscallRead, 20000);  // 2% of server reads die
  icfg.set_force(Point::kSyscallRead, Action::kConnReset);
  arm(icfg);

  const auto arrivals = load::poisson_schedule(1500.0, 1.0, 62);
  load::Histogram hist;
  const std::size_t completed = client.run(arrivals, hist, 20.0);
  EXPECT_GE(completed + client.errors(), arrivals.size());
  EXPECT_GT(client.reconnects(), 0u);
  EXPECT_GT(completed, 0u);

  engine->uninstall();
  server.stop();
}

TEST_F(InjectSoakTest, EmailServerDrainsUnderForcedAbandonment) {
  inject::Config icfg;
  icfg.seed = 63;
  icfg.set_rate(Point::kAbandonCheck, 20000);
  icfg.set_rate(Point::kSuspend, 50000);
  icfg.set_rate(Point::kResumePublish, 50000);
  icfg.max_delay_spins = 300;
  arm(icfg);

  apps::EmailServer::Config cfg;
  cfg.rt.num_workers = 2;
  cfg.rt.num_levels = 3;
  cfg.num_users = 16;
  cfg.seed = 63;
  apps::EmailServer srv(cfg, std::make_unique<PromptScheduler>());

  constexpr int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    const auto op = static_cast<apps::EmailOp>(i % apps::kEmailOpCount);
    srv.inject(op, i % cfg.num_users, now_ns());
  }
  srv.drain();  // returning at all = no op lost to a dropped deque

  std::uint64_t total = 0;
  for (int i = 0; i < apps::kEmailOpCount; ++i) {
    total += srv.histogram(static_cast<apps::EmailOp>(i)).count();
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kOps));
  EXPECT_GT(engine->injected(), 0u);
}

TEST_F(InjectSoakTest, JobServerDrainsUnderScheduleChaos) {
  inject::Config icfg;
  icfg.seed = 64;
  icfg.set_rate(Point::kAbandonCheck, 20000);
  icfg.set_rate(Point::kSteal, 100000);
  icfg.set_rate(Point::kMug, 100000);
  icfg.max_delay_spins = 300;
  arm(icfg);

  apps::JobServer::Config cfg;
  cfg.rt.num_workers = 2;
  cfg.rt.num_levels = 4;
  cfg.seed = 64;
  apps::JobServer srv(cfg, std::make_unique<PromptScheduler>());

  constexpr int kJobs = 60;
  for (int i = 0; i < kJobs; ++i) {
    srv.inject(static_cast<apps::JobType>(i % apps::kJobTypeCount),
               now_ns());
  }
  srv.drain();

  std::uint64_t total = 0;
  for (int i = 0; i < apps::kJobTypeCount; ++i) {
    total += srv.histogram(static_cast<apps::JobType>(i)).count();
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(engine->injected(), 0u);
}

// Determinism across the whole soak surface: two identical seeded runs of
// a single-threaded driver loop over a faulted runtime produce identical
// per-stream logs. (Server soaks above are wall-clock-shaped; exact
// cross-run equality is only promised per stream, which the engine tests
// verify — here we re-verify every recorded decision against eval.)
TEST_F(InjectSoakTest, SoakDecisionLogsReplayThroughEval) {
  arm(soak_config(65, 10000));
  apps::JobServer::Config cfg;
  cfg.rt.num_workers = 2;
  cfg.rt.num_levels = 4;
  apps::JobServer srv(cfg, std::make_unique<PromptScheduler>());
  for (int i = 0; i < 30; ++i) {
    srv.inject(static_cast<apps::JobType>(i % apps::kJobTypeCount),
               now_ns());
  }
  srv.drain();

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
