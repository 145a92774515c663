// Scheduler hot-path micro-bench: the per-operation costs the fig1 tail
// is built from, isolated from I/O and load-generator noise.
//
// Modes (RESULT lines consumed by bench/run_baseline.sh):
//   sync_noop     sync() with no outstanding children — the pure pre-op
//                 promptness gate. With the inlined gate armed (Prompt at
//                 check_period 1, the default) this is a handful of loads.
//   get_ready     Future::get() on an already-completed future — the
//                 inlined future_wait fast path that every I/O operation
//                 whose syscall completed inline takes.
//   spawn_sync    spawn one no-op child + sync — a full work-first fiber
//                 switch round trip plus the join.
//   submit_drain  Runtime::submit from an external thread, then get():
//                 closure publish, worker wake, run, completion, external
//                 notify. The end-to-end task round trip a connection
//                 accept pays.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"

namespace {

using namespace icilk;
using Clock = std::chrono::steady_clock;

void report(const char* mode, std::uint64_t ops, double secs, bool gate_on) {
  const double ops_per_s = static_cast<double>(ops) / secs;
  const double ns_per_op = 1e9 * secs / static_cast<double>(ops);
  std::printf("%-12s %12.0f %10.1f\n", mode, ops_per_s, ns_per_op);
  std::printf(
      "RESULT mode=%s threads=1 ops=%llu ops_per_s=%.0f ns_per_op=%.1f "
      "gate=%s\n",
      mode, static_cast<unsigned long long>(ops), ops_per_s, ns_per_op,
      gate_on ? "on" : "off");
}

/// Times `body` (which performs `ops` operations) inside one task so the
/// measured window is all task-context fast path, no submit overhead.
template <typename Body>
void bench_in_task(Runtime& rt, const char* mode, std::uint64_t ops,
                   bool gate_on, Body body) {
  double secs = 0;
  rt.submit(0, [&] {
      const auto t0 = Clock::now();
      body();
      secs = std::chrono::duration<double>(Clock::now() - t0).count();
    }).get();
  report(mode, ops, secs, gate_on);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = (argc > 1) ? std::atof(argv[1]) : 1.0;

  RuntimeConfig cfg;
  // Two workers, not more: the loops under test are single-task, and on a
  // small host extra idle workers only add wakeup noise to ns-scale rows.
  cfg.num_workers = 2;
  cfg.num_io_threads = 1;
  Runtime rt(cfg, std::make_unique<PromptScheduler>());
  const bool gate_on = rt.scheduler().preop_fast_bits() != nullptr;

  std::printf("scheduler hot-path micro-bench (pre-op gate %s)\n",
              gate_on ? "INLINE" : "VIRTUAL");
  std::printf("%-12s %12s %10s\n", "mode", "ops/s", "ns/op");

  const auto noop_ops = static_cast<std::uint64_t>(2000000 * scale);
  const auto spawn_ops = static_cast<std::uint64_t>(200000 * scale);
  const auto submit_ops = static_cast<std::uint64_t>(20000 * scale);

  // Warmup: fault in fiber stacks, freelists, and branch history.
  // (icilk::sync is qualified throughout — unistd.h's ::sync is also in
  // scope here.)
  rt.submit(0, [] {
      for (int i = 0; i < 10000; ++i) icilk::sync();
      for (int i = 0; i < 1000; ++i) {
        spawn([] {});
        icilk::sync();
      }
    }).get();

  bench_in_task(rt, "sync_noop", noop_ops, gate_on, [&] {
    for (std::uint64_t i = 0; i < noop_ops; ++i) icilk::sync();
  });

  bench_in_task(rt, "get_ready", noop_ops, gate_on, [&] {
    auto f = fut_create([] {});
    f.get();  // ensure completed; every measured get hits the ready path
    for (std::uint64_t i = 0; i < noop_ops; ++i) f.get();
  });

  bench_in_task(rt, "spawn_sync", spawn_ops, gate_on, [&] {
    for (std::uint64_t i = 0; i < spawn_ops; ++i) {
      spawn([] {});
      icilk::sync();
    }
  });

  {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < submit_ops; ++i) {
      rt.submit(0, [] {}).get();
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    report("submit_drain", submit_ops, secs, gate_on);
  }
  return 0;
}
