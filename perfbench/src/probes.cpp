#include "probes.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "apps/email/codec.hpp"
#include "concurrent/faa_queue.hpp"
#include "concurrent/rng.hpp"
#include "core/api.hpp"
#include "kv/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace pb {
namespace {

constexpr std::uint64_t kWakeEveryNs = 1'000'000;
constexpr std::uint64_t kDispatchEveryNs = 1'000'000;
constexpr std::uint64_t kHotpathEveryNs = 10'000'000;
constexpr int kReadyGets = 256;
constexpr int kSpawnSyncs = 32;
constexpr std::uint64_t kJoinTimeoutNs = 5'000'000'000;

double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Waits until `done()` or the timeout; true if done.
template <typename Done>
bool wait_for(Done done) {
  const std::uint64_t deadline = now_ns() + kJoinTimeoutNs;
  while (!done()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// ns per call of `op`, timed over batches of `batch` calls; median batch.
template <typename Op>
double ns_per_call(int batches, int batch, Op op) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < batch; ++i) op(i);
    v.push_back(static_cast<double>(now_ns() - t0) / batch);
  }
  return median(std::move(v));
}

/// Ready-future get and spawn+sync, timed in the calling task.
std::pair<double, double> time_hotpath() {
  auto f = icilk::fut_create([] {});
  f.get();
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kReadyGets; ++i) f.get();
  const std::uint64_t t1 = now_ns();
  for (int i = 0; i < kSpawnSyncs; ++i) {
    icilk::spawn([] {});
    icilk::sync();
  }
  const std::uint64_t t2 = now_ns();
  return {static_cast<double>(t1 - t0) / kReadyGets,
          static_cast<double>(t2 - t1) / kSpawnSyncs};
}

void percentiles_us(Report& r, const std::string& name,
                    std::vector<double> ns) {
  r.metric(name + "_p50_us", quantile(ns, 0.5) / 1e3, "us");
  r.metric(name + "_p99_us", quantile(ns, 0.99) / 1e3, "us");
}

}  // namespace

// ---- in-window probes -------------------------------------------------------

WakeProbe::WakeProbe(icilk::Runtime& rt, icilk::IoReactor& io,
                     icilk::Priority p)
    : io_(io) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) != 0) {
    std::perror("perfbench: socketpair");
    std::abort();
  }
  wr_ = fds[0];
  rd_ = fds[1];
  done_ = rt.submit(p, [this] {
    char buf[64];
    for (;;) {
      const ssize_t n = io_.read_some(rd_, buf, sizeof(buf));
      if (n <= 0) break;
      const std::uint64_t t = now_ns();
      const std::uint64_t s = stamp_.exchange(0, std::memory_order_acq_rel);
      if (s != 0) samples_.add(static_cast<double>(t - s));
    }
  });
}

WakeProbe::~WakeProbe() { finish(); }

void WakeProbe::fire() {
  if (stamp_.load(std::memory_order_acquire) != 0) return;
  stamp_.store(now_ns(), std::memory_order_release);
  const char b = 'w';
  (void)!::write(wr_, &b, 1);
}

void WakeProbe::finish() {
  if (wr_ < 0) return;
  ::close(wr_);
  wr_ = -1;
  done_.get();
  io_.close_fd(rd_);
}

void DispatchProbe::fire() {
  const std::uint64_t t0 = now_ns();
  rt_.submit(p_, [this, t0] { lat_.add(static_cast<double>(now_ns() - t0)); });
  submit_.add(static_cast<double>(now_ns() - t0));
  ++fired_;
}

bool DispatchProbe::finish() {
  return wait_for([&] { return lat_.size() >= std::min<std::uint64_t>(fired_, 1 << 16); });
}

void HotpathProbe::fire() {
  rt_.submit(p_, [this] {
    const auto [get, spawn] = time_hotpath();
    get_.add(get);
    spawn_.add(spawn);
  });
  ++fired_;
}

bool HotpathProbe::finish() {
  return wait_for([&] { return get_.size() >= std::min<std::uint64_t>(fired_, 1 << 14); });
}

WindowTracer::WindowTracer(icilk::Runtime& rt, icilk::IoReactor* io,
                           icilk::Priority top, icilk::Priority bottom)
    : top_(rt, top), bottom_(rt, bottom), hot_(rt, top) {
  if (io != nullptr) wake_ = std::make_unique<WakeProbe>(rt, *io, top);
  const std::uint64_t now = now_ns();
  next_wake_ = now;
  next_top_ = now + kDispatchEveryNs / 3;
  next_bottom_ = now + 2 * kDispatchEveryNs / 3;
  next_hot_ = now + kHotpathEveryNs / 2;
}

void WindowTracer::tick(std::uint64_t now) {
  // One probe per tick, so a tick never delays the next request by more
  // than one probe's cost.
  if (wake_ && now >= next_wake_) {
    wake_->fire();
    next_wake_ = now + kWakeEveryNs;
  } else if (now >= next_top_) {
    top_.fire();
    next_top_ = now + kDispatchEveryNs;
  } else if (now >= next_bottom_) {
    bottom_.fire();
    next_bottom_ = now + kDispatchEveryNs;
  } else if (now >= next_hot_) {
    hot_.fire();
    next_hot_ = now + kHotpathEveryNs;
  }
}

bool WindowTracer::finish() {
  bool ok = top_.finish() && bottom_.finish() && hot_.finish();
  if (wake_) wake_->finish();
  return ok;
}

void WindowTracer::report(Report& r) {
  if (wake_) percentiles_us(r, "io.wake", wake_->samples());
  percentiles_us(r, "core.dispatch_top", top_.latency());
  percentiles_us(r, "core.dispatch_bottom", bottom_.latency());
  std::vector<double> submit = top_.submit_cost();
  const std::vector<double> b = bottom_.submit_cost();
  submit.insert(submit.end(), b.begin(), b.end());
  r.metric("core.submit_ns", median(submit), "ns");
  r.metric("core.get_ready_ns", median(hot_.get_ready_ns()), "ns");
  r.metric("core.spawn_sync_ns", median(hot_.spawn_sync_ns()), "ns");
}

// ---- counters ---------------------------------------------------------------

Counters Counters::read(const icilk::Runtime& rt) {
  Counters c;
  c.sched = rt.stats_snapshot();
  c.op_pool = icilk::IoReactor::op_pool_stats();
  c.fut_pool = icilk::IoReactor::future_pool_stats();
  c.stacks = rt.stack_pool().cache_stats();
  for (int l = 0; l <= icilk::kMaxPriority; ++l) {
    const auto* ls = rt.metrics().req_level(l);
    if (ls == nullptr) continue;
    for (const auto& s : ls->phase_sum_ns) {
      c.phase_sum_ns += s.load(std::memory_order_relaxed);
    }
  }
  return c;
}

std::string worker_time_line(const Counters& a, const Counters& b,
                             int workers, double seconds) {
  const double wall = workers * seconds;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "server workers=%d work_frac=%.4f sched_frac=%.4f "
                "waste_frac=%.4f",
                workers, (b.sched.work_s - a.sched.work_s) / wall,
                (b.sched.sched_s - a.sched.sched_s) / wall,
                (b.sched.waste_s - a.sched.waste_s) / wall);
  return buf;
}

void counter_metrics(Report& r, const Counters& a, const Counters& b,
                     std::uint64_t requests, double client_latency_sum_ns) {
  const double n = static_cast<double>(std::max<std::uint64_t>(requests, 1));
  const auto per_req = [&](const char* name, std::uint64_t x0,
                           std::uint64_t x1) {
    r.metric(name, static_cast<double>(x1 - x0) / n, "1/req");
  };
  const icilk::StatsSnapshot& s0 = a.sched;
  const icilk::StatsSnapshot& s1 = b.sched;
  per_req("core.sleeps_per_req", s0.sleeps, s1.sleeps);
  per_req("core.failed_probes_per_req", s0.failed_probes, s1.failed_probes);
  per_req("core.mugs_per_req", s0.mugs, s1.mugs);
  per_req("core.abandons_per_req", s0.abandons, s1.abandons);
  per_req("core.steals_per_req", s0.steals, s1.steals);
  per_req("core.suspends_per_req", s0.gets_suspended + s0.syncs_failed,
          s1.gets_suspended + s1.syncs_failed);
  const double work = s1.work_s - s0.work_s, sched = s1.sched_s - s0.sched_s,
               waste = s1.waste_s - s0.waste_s;
  r.metric("core.sched_frac", sched / std::max(work + sched + waste, 1e-12),
           "frac");
  // A probe finds work by a steal or a mug, or fails.
  const double found = static_cast<double>((s1.steals - s0.steals) +
                                           (s1.mugs - s0.mugs));
  const double failed = static_cast<double>(s1.failed_probes - s0.failed_probes);
  r.metric("core.probe_success_frac", found / std::max(found + failed, 1.0),
           "frac");
  const double hits = static_cast<double>((b.op_pool.hits - a.op_pool.hits) +
                                          (b.fut_pool.hits - a.fut_pool.hits));
  const double misses =
      static_cast<double>((b.op_pool.misses - a.op_pool.misses) +
                          (b.fut_pool.misses - a.fut_pool.misses));
  r.metric("io.pool_hit_frac", hits / std::max(hits + misses, 1.0), "frac");
  per_req("fiber.stack_allocs_per_req", a.stacks.misses, b.stacks.misses);
  r.metric("obs.attributed_frac",
           static_cast<double>(b.phase_sum_ns - a.phase_sum_ns) /
               std::max(client_latency_sum_ns, 1.0),
           "frac");
}

// ---- after-window probes ----------------------------------------------------

void kv_metrics(Report& r, const KvInputs& in, bool store_ratios) {
  icilk::kv::Store store(in.store);
  for (std::size_t i = 0; i < in.keys.size(); ++i) {
    store.set(in.keys[i], in.values[i], 0, 0);
  }
  const icilk::kv::StoreStats s0 = store.stats();
  icilk::Xoshiro256 rng(in.keys.size(), 5);
  std::vector<std::uint32_t> order(4096);
  for (auto& k : order) k = rng.bounded(static_cast<std::uint32_t>(in.keys.size()));
  std::size_t sink = 0;
  std::size_t at = 0;
  r.metric("kv.get_ns", ns_per_call(64, 1024, [&](int) {
             const auto g = store.get(in.keys[order[at++ & 4095]]);
             sink += g ? g->value.size() : 0;
           }), "ns");
  r.metric("kv.set_ns", ns_per_call(64, 1024, [&](int) {
             const std::uint32_t k = order[at++ & 4095];
             store.set(in.keys[k], in.values[k], 0, 0);
           }), "ns");
  const icilk::kv::StoreStats s1 = store.stats();
  icilk::kv::Request req;
  r.metric("kv.parse_ns", ns_per_call(32, 1, [&](int) {
             icilk::kv::RequestParser parser;
             parser.feed(in.wire);
             while (parser.next(req)) sink += req.keys.size();
           }) / static_cast<double>(std::max<std::size_t>(in.wire_requests, 1)),
           "ns");
  if (store_ratios) {
    const double hits = static_cast<double>(s1.get_hits - s0.get_hits);
    const double misses = static_cast<double>(s1.get_misses - s0.get_misses);
    r.metric("kv.hit_frac", hits / std::max(hits + misses, 1.0), "frac");
    r.metric("kv.evictions_per_set",
             static_cast<double>(s1.evictions - s0.evictions) /
                 std::max<double>(static_cast<double>(s1.sets - s0.sets), 1),
             "1/set");
  }
  keep(sink);
}

void concurrent_metrics(Report& r) {
  constexpr int kOps = 1 << 16;
  static int token;
  const auto pushpop = [](icilk::FaaQueue<int>& q) {
    for (int i = 0; i < kOps; ++i) {
      q.push(&token);
      while (q.pop() == nullptr) {
      }
    }
  };
  icilk::FaaQueue<int> q1;
  std::vector<double> one, two;
  for (int rep = 0; rep < 8; ++rep) {
    const std::uint64_t t0 = now_ns();
    pushpop(q1);
    one.push_back(static_cast<double>(now_ns() - t0) / kOps);
  }
  for (int rep = 0; rep < 8; ++rep) {
    icilk::FaaQueue<int> q2;
    std::atomic<int> ready{0};
    std::uint64_t t_other = 0;
    std::thread other([&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      const std::uint64_t t0 = now_ns();
      pushpop(q2);
      t_other = now_ns() - t0;
    });
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    const std::uint64_t t0 = now_ns();
    pushpop(q2);
    const std::uint64_t t_self = now_ns() - t0;
    other.join();
    two.push_back(static_cast<double>(t_self + t_other) / 2 / kOps);
  }
  r.metric("concurrent.faa_pushpop_ns", median(one), "ns");
  r.metric("concurrent.faa_pushpop_2t_ns", median(two), "ns");
}

void obs_tax_metrics(Report& r) {
  // The same probe on a private one-worker runtime, armed as the servers
  // run it and with every consumer RuntimeConfig can disarm turned off,
  // alternated so drift hits both sides.
  const auto measure = [](bool armed) {
    icilk::RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.spanprof_enabled = armed;
    cfg.trace_events = false;
    cfg.watchdog_enabled = false;
    cfg.timeseries_enabled = false;
    icilk::Runtime rt(cfg, icilk::make_scheduler("prompt"));
    std::vector<double> get, spawn;
    for (int i = 0; i < 200; ++i) {
      const auto [g, s] = rt.submit(0, [] { return time_hotpath(); }).get();
      get.push_back(g);
      spawn.push_back(s);
    }
    rt.shutdown();
    return std::pair{median(get), median(spawn)};
  };
  std::vector<double> get_tax, spawn_tax;
  for (int rep = 0; rep < 3; ++rep) {
    const auto on = measure(true);
    const auto off = measure(false);
    get_tax.push_back(on.first - off.first);
    spawn_tax.push_back(on.second - off.second);
  }
  r.metric("obs.get_ready_tax_ns", median(get_tax), "ns");
  r.metric("obs.spawn_sync_tax_ns", median(spawn_tax), "ns");
}

std::string prose_body(std::uint64_t seed, std::size_t bytes) {
  static const char* kWords[] = {
      "the",     "scheduler", "deque",   "priority", "latency",  "worker",
      "steal",   "resume",    "suspend", "request",  "response", "aging",
      "prompt",  "bitfield",  "queue",   "mug",      "email",    "server",
      "message", "compress"};
  icilk::Xoshiro256 rng(seed);
  std::string body;
  while (body.size() < bytes) {
    body += kWords[rng.bounded(std::size(kWords))];
    body += ' ';
  }
  body.resize(bytes);
  return body;
}

void apps_metrics(Report& r, std::uint64_t seed) {
  std::vector<std::string> bodies, packed;
  for (std::uint64_t i = 0; i < 16; ++i) {
    bodies.push_back(prose_body(seed * 16 + i, 2048));
    packed.push_back(icilk::apps::lz_compress(bodies.back()));
  }
  std::size_t sink = 0;
  std::string out;
  r.metric("apps.lz_compress_us", ns_per_call(32, 16, [&](int i) {
             sink += icilk::apps::lz_compress(bodies[static_cast<std::size_t>(i)]).size();
           }) / 1e3, "us");
  r.metric("apps.lz_decompress_us", ns_per_call(32, 16, [&](int i) {
             icilk::apps::lz_decompress(packed[static_cast<std::size_t>(i)], out);
             sink += out.size();
           }) / 1e3, "us");
  keep(sink);
}

void side_wake_metrics(Report& r) {
  icilk::RuntimeConfig cfg;
  cfg.num_workers = 1;
  cfg.num_io_threads = 1;
  icilk::Runtime rt(cfg, icilk::make_scheduler("prompt"));
  {
    icilk::IoReactor io(rt, 1);
    WakeProbe probe(rt, io, 1);
    for (int i = 0; i < 2000; ++i) {
      spin_until(now_ns() + 200'000);
      probe.fire();
    }
    spin_until(now_ns() + 1'000'000);
    probe.finish();
    percentiles_us(r, "io.wake", probe.samples());
  }
  rt.shutdown();
}

void trace_overhead_metrics(Report& r, const Window& untraced,
                            const Window& traced) {
  Slice a = untraced.kept(), b = traced.kept();
  r.metric("trace.p50_overhead_frac",
           quantile(b.lat_ns, 0.5) / quantile(a.lat_ns, 0.5) - 1, "frac");
  r.metric("trace.cpu_overhead_frac",
           b.cpu_us_per_req() / a.cpu_us_per_req() - 1, "frac");
}

void load_metrics(Report& r, Window& w) {
  r.metric("load.late_p50_us", quantile(w.late_ns, 0.5) / 1e3, "us");
  r.metric("load.late_p99_us", quantile(w.late_ns, 0.99) / 1e3, "us");
  r.metric("load.busy_frac", w.gen_busy_s / w.seconds, "frac");
  r.metric("host.steal_frac", w.steal_frac, "frac");
}

}  // namespace pb
