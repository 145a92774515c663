// Per-layer probes for the traced run. Each one times calls into a
// layer's public functions from the benchmark's own code; none of them
// changes the program.
//
//   in-window probes (fired by the generator between requests):
//     WakeProbe      io:   byte written -> fiber blocked in async_read runs
//     DispatchProbe  core: stamped no-op Runtime::submit -> it runs
//     HotpathProbe   core: Future::get on a ready future, spawn + sync,
//                          timed inside a task while the server is loaded
//   counters (deltas over a window): Runtime::stats_snapshot, the reactor's
//     recycling pools, the fiber stack pool, reqtrace phase sums
//   after-window probes: kv store/parser, FaaQueue, obs tax, lz codec
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "concurrent/objpool.hpp"
#include "core/runtime.hpp"
#include "fiber/stack.hpp"
#include "io/reactor.hpp"
#include "kv/store.hpp"

namespace pb {

/// Fixed-capacity sample sink written by tasks on any worker.
class Samples {
 public:
  explicit Samples(std::size_t cap) : v_(cap) {}
  void add(double x) {
    const std::size_t i = n_.fetch_add(1, std::memory_order_relaxed);
    if (i < v_.size()) v_[i] = x;
  }
  std::size_t size() const {
    return std::min(n_.load(std::memory_order_acquire), v_.size());
  }
  std::vector<double> take() const {
    return std::vector<double>(v_.begin(), v_.begin() + size());
  }

 private:
  std::vector<double> v_;
  std::atomic<std::size_t> n_{0};
};

/// io: time from a byte written to a benchmark-owned socketpair until a
/// probe fiber blocked in IoReactor::async_read on the other end runs.
class WakeProbe {
 public:
  WakeProbe(icilk::Runtime& rt, icilk::IoReactor& io, icilk::Priority p);
  ~WakeProbe();
  WakeProbe(const WakeProbe&) = delete;
  WakeProbe& operator=(const WakeProbe&) = delete;

  /// Writes one stamped byte unless the previous one is still unread.
  void fire();
  /// Closes the writer and joins the probe fiber.
  void finish();
  std::vector<double> samples() const { return samples_.take(); }

 private:
  icilk::IoReactor& io_;
  int wr_ = -1, rd_ = -1;
  std::atomic<std::uint64_t> stamp_{0};  // 0 = no byte in flight
  Samples samples_{1 << 16};
  icilk::Future<void> done_;
};

/// core: a stamped no-op submitted from the generator thread at one
/// priority; records submit-to-run latency and the submit call's cost.
class DispatchProbe {
 public:
  DispatchProbe(icilk::Runtime& rt, icilk::Priority p) : rt_(rt), p_(p) {}
  void fire();
  /// Waits (bounded) until every fired no-op has run.
  bool finish();
  std::vector<double> latency() const { return lat_.take(); }
  std::vector<double> submit_cost() const { return submit_.take(); }

 private:
  icilk::Runtime& rt_;
  icilk::Priority p_;
  std::uint64_t fired_ = 0;
  Samples lat_{1 << 16};
  Samples submit_{1 << 16};
};

/// core: ready-future get and spawn+sync costs timed inside a task that
/// runs on the loaded runtime.
class HotpathProbe {
 public:
  HotpathProbe(icilk::Runtime& rt, icilk::Priority p) : rt_(rt), p_(p) {}
  void fire();
  bool finish();
  std::vector<double> get_ready_ns() const { return get_.take(); }
  std::vector<double> spawn_sync_ns() const { return spawn_.take(); }

 private:
  icilk::Runtime& rt_;
  icilk::Priority p_;
  std::uint64_t fired_ = 0;
  Samples get_{1 << 14};
  Samples spawn_{1 << 14};
};

/// Fires the in-window probes at fixed cadences; the generator calls
/// tick() between requests. `io` may be null (no reactor on the path).
class WindowTracer {
 public:
  WindowTracer(icilk::Runtime& rt, icilk::IoReactor* io, icilk::Priority top,
               icilk::Priority bottom);
  void tick(std::uint64_t now);
  /// Joins every probe; false if a fired probe never completed.
  bool finish();
  void report(Report& r);

 private:
  std::unique_ptr<WakeProbe> wake_;
  DispatchProbe top_, bottom_;
  HotpathProbe hot_;
  std::uint64_t next_wake_ = 0, next_top_ = 0, next_bottom_ = 0,
                next_hot_ = 0;
};

/// Cumulative counters read at the edges of a window.
struct Counters {
  icilk::StatsSnapshot sched;
  icilk::PoolCountersSnapshot op_pool, fut_pool;
  icilk::StackPool::CacheStats stacks;
  std::uint64_t phase_sum_ns = 0;  ///< reqtrace phases, all levels

  static Counters read(const icilk::Runtime& rt);
};

/// Info line splitting the workers' wall time over a window into task
/// work, scheduling and waste (looking for work, sleeping, waking).
std::string worker_time_line(const Counters& a, const Counters& b,
                             int workers, double seconds);

/// Per-request scheduler, pool and stack ratios between two readings, and
/// the share of client latency the server's reqtrace phases account for.
void counter_metrics(Report& r, const Counters& a, const Counters& b,
                     std::uint64_t requests, double client_latency_sum_ns);

/// Store and parser timings on the workload's own keys, values and
/// request bytes, against a private store built like the server's.
struct KvInputs {
  icilk::kv::Store::Config store;
  std::vector<std::string> keys;
  std::vector<std::string> values;  ///< values[i] belongs to keys[i]
  std::string wire;                 ///< requests as the generator sends them
  std::size_t wire_requests = 0;
};
/// With `store_ratios`, also reports the private store's hit and eviction
/// ratios (for workloads whose server has no store).
void kv_metrics(Report& r, const KvInputs& in, bool store_ratios);

/// FaaQueue, obs tax and lz codec probes (no workload inputs needed).
void concurrent_metrics(Report& r);
void obs_tax_metrics(Report& r);
void apps_metrics(Report& r, std::uint64_t seed);

/// io wake probe on a private runtime and reactor, for workloads whose
/// server has no reactor (email).
void side_wake_metrics(Report& r);

/// Generator lateness and busy share, host steal.
void load_metrics(Report& r, Window& w);

/// p50 and CPU per request of the traced window against the untraced one.
void trace_overhead_metrics(Report& r, const Window& untraced,
                            const Window& traced);

/// A 2 KB body of compressible prose like the email server's messages.
std::string prose_body(std::uint64_t seed, std::size_t bytes);

}  // namespace pb
