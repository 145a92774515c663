// The email workload: the in-process email server with the figure-5 mix
// (40% send, 20% sort, 20% compress, 20% print) over 64 users with 2 KB
// bodies. One generator thread spins to each due time and injects the
// operation with that due time as its arrival; the server times each
// operation from it into its per-operation histograms.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/email/codec.hpp"
#include "apps/email/email_server.hpp"
#include "concurrent/rng.hpp"
#include "core/api.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using icilk::apps::EmailOp;
using icilk::apps::EmailServer;

constexpr double kRps = 30000;
constexpr int kUsers = 64;
constexpr int kBodyBytes = 2048;
constexpr int kMailboxCap = 128;
constexpr int kBatch = 4;
constexpr std::uint64_t kWarmOps = 4000;
constexpr double kLimitMs = 10;
constexpr std::uint64_t kPollSlackNs = 4000;

struct Req {
  std::uint64_t at_ns;
  EmailOp op;
  int user;
};

Req draw(icilk::Xoshiro256& rng, std::uint64_t at) {
  // The bench/op_trials.hpp mix: 40% send, 20% sort, 20% comp, 20% print.
  const std::uint32_t dice = rng.bounded(10);
  EmailOp op = EmailOp::Send;
  if (dice >= 4 && dice < 6) {
    op = EmailOp::Sort;
  } else if (dice >= 6 && dice < 8) {
    op = EmailOp::Compress;
  } else if (dice >= 8) {
    op = EmailOp::Print;
  }
  return Req{at, op, static_cast<int>(rng.bounded(kUsers))};
}

/// Expands a server histogram back into samples: bucket counts are
/// recovered exactly from rank queries, and each bucket's samples are
/// spread evenly over its width (linear interpolation inside the
/// histogram's log-linear buckets, 64 per octave).
void expand(const icilk::load::Histogram& h, std::vector<double>& out) {
  const std::uint64_t n = h.count();
  const auto at = [&](std::uint64_t k) {  // k-th smallest, 1-based
    return h.percentile_ns((static_cast<double>(k) - 0.5) /
                           static_cast<double>(n));
  };
  std::uint64_t k = 1;
  while (k <= n) {
    const std::uint64_t v = at(k);
    std::uint64_t lo = k, hi = k + 1;  // at(lo) == v; hi: first unknown
    while (hi <= n && at(hi) == v) {
      lo = hi;
      hi = k + 2 * (hi - k);
    }
    if (hi > n + 1) hi = n + 1;
    while (hi - lo > 1) {  // invariant: at(lo) == v, at(hi) != v or hi > n
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (at(mid) == v) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const std::uint64_t count = lo - k + 1;
    const int exp = v < 64 ? 0 : 63 - __builtin_clzll(v);
    const double width = v < 64 ? 1.0 : std::ldexp(1.0, exp - 6);
    const double lower = static_cast<double>(v) + 1 - width;
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back(lower + (static_cast<double>(i) + 0.5) /
                                static_cast<double>(count) * width);
    }
    k = lo + 1;
  }
}

struct Server {
  std::unique_ptr<EmailServer> srv;
  std::vector<std::uint64_t> sends;  ///< per user, since start
  double setup_s = 0;
};

void inject(Server& s, EmailOp op, int user, std::uint64_t arrival) {
  if (op == EmailOp::Send) ++s.sends[static_cast<std::size_t>(user)];
  s.srv->inject(op, user, arrival);
}

void reset_histograms(EmailServer& srv) {
  for (int i = 0; i < icilk::apps::kEmailOpCount; ++i) {
    srv.histogram(static_cast<EmailOp>(i)).reset();
  }
}

/// Starts the server, fills every mailbox to its cap, compresses the
/// backlog, and runs a burst of the mix so compress and print reach the
/// state the window keeps them in.
Server start(std::uint64_t seed) {
  Server s;
  s.sends.assign(kUsers, 0);
  const std::uint64_t t0 = now_ns();
  EmailServer::Config cfg;
  cfg.rt.num_workers = kWorkers;
  cfg.rt.num_levels = 3;
  cfg.num_users = kUsers;
  cfg.body_bytes = kBodyBytes;
  cfg.max_mailbox = kMailboxCap;
  cfg.batch = kBatch;
  cfg.seed = seed;
  s.srv = std::make_unique<EmailServer>(cfg, icilk::make_scheduler("prompt"));
  for (int u = 0; u < kUsers; ++u) {
    for (int i = 0; i < kMailboxCap; ++i) inject(s, EmailOp::Send, u, now_ns());
  }
  s.srv->drain();
  for (int u = 0; u < kUsers; ++u) {
    for (int i = 0; i < kMailboxCap / kBatch; ++i) {
      inject(s, EmailOp::Compress, u, now_ns());
    }
  }
  s.srv->drain();
  icilk::Xoshiro256 rng(seed, 99);
  for (std::uint64_t i = 0; i < kWarmOps; ++i) {
    const Req q = draw(rng, 0);
    inject(s, q.op, q.user, now_ns());
  }
  s.srv->drain();
  reset_histograms(*s.srv);
  s.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

struct ClassCounts {
  std::uint64_t injected[icilk::apps::kEmailOpCount] = {};
  std::uint64_t completed[icilk::apps::kEmailOpCount] = {};
  double lat_sum_ns = 0;
};

/// Runs one open-loop window of `sched`, one slice at a time: each slice
/// ends with a drain, so the server's histograms can be read per slice.
void run_window(Server& s, const std::vector<Req>& sched, double seconds,
                Window& w, ClassCounts& cc, WindowTracer* tr) {
  w.init(seconds, sched.size());
  const SliceClock start = SliceClock::read();
  SliceClock prev = start;
  std::uint64_t busy = 0;
  std::size_t i = 0;
  const double limit_ns = kLimitMs * 1e6;
  for (std::size_t k = 0; k < w.slices.size(); ++k) {
    Slice& sl = w.slices[k];
    const std::uint64_t base = k * kSliceNs;
    const std::uint64_t t0 = now_ns() + 1'000'000;
    for (; i < sched.size() &&
           (sched[i].at_ns < base + kSliceNs || k + 1 == w.slices.size());
         ++i) {
      const Req& q = sched[i];
      const std::uint64_t due = t0 + (q.at_ns - base);
      for (;;) {
        const std::uint64_t now = now_ns();
        if (now >= due) break;
        if (tr != nullptr && due - now >= kPollSlackNs) {
          tr->tick(now);
        } else {
          __builtin_ia32_pause();
        }
      }
      const std::uint64_t ts = now_ns();
      w.late_ns.push_back(static_cast<double>(ts - due));
      ++cc.injected[static_cast<int>(q.op)];
      inject(s, q.op, q.user, due);
      busy += now_ns() - ts;
    }
    s.srv->drain();
    const SliceClock c = SliceClock::read();
    SliceClock::close(prev, c, sl);
    prev = c;
    for (int op = 0; op < icilk::apps::kEmailOpCount; ++op) {
      const auto e = static_cast<EmailOp>(op);
      icilk::load::Histogram& h = s.srv->histogram(e);
      cc.completed[op] += h.count();
      cc.lat_sum_ns += h.mean_ns() * static_cast<double>(h.count());
      std::vector<double> v;
      expand(h, v);
      h.reset();
      for (const double x : v) {
        if (x <= limit_ns) ++sl.within_limit;
      }
      sl.lat_ns.insert(sl.lat_ns.end(), v.begin(), v.end());
      if (e == EmailOp::Send) {
        sl.top_ns.insert(sl.top_ns.end(), v.begin(), v.end());
      } else if (e == EmailOp::Compress || e == EmailOp::Print) {
        sl.bottom_ns.insert(sl.bottom_ns.end(), v.begin(), v.end());
      }
    }
    sl.completed = sl.lat_ns.size();
    w.completed += sl.completed;
  }
  w.gen_busy_s = static_cast<double>(busy) * 1e-9;
  w.steal_frac = StealClock::frac(start.steal, prev.steal);
  w.failed = w.attempted - std::min(w.attempted, w.completed);
}

}  // namespace

Report run_email(const Options& o) {
  Report r;
  const double win_s = window_seconds(o);
  const auto offsets = poisson_offsets(kRps, win_s, o.seed);
  icilk::Xoshiro256 rng(o.seed, 123);
  std::vector<Req> sched;
  sched.reserve(offsets.size());
  for (const std::uint64_t at : offsets) sched.push_back(draw(rng, at));
  const int windows = o.trace ? 2 : 1;
  r.attempted = sched.size() * static_cast<std::size_t>(windows);
  std::printf("# plan attempted=%llu\n",
              static_cast<unsigned long long>(r.attempted));
  std::fflush(stdout);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host workers=%d io_threads=0 generator_threads=1 "
                "connections=0 cores=%d rps=%.0f",
                kWorkers, online_cores(), kRps);
  r.info(buf);

  std::vector<double> setups;
  Server s;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    s.srv.reset();
    s = start(o.seed + static_cast<std::uint64_t>(rep));
    setups.push_back(s.setup_s);
  }
  icilk::Runtime& rt = s.srv->runtime();

  Window w;
  ClassCounts cc;
  const Counters c0 = Counters::read(rt);
  run_window(s, sched, win_s, w, cc, nullptr);
  const Counters c1 = Counters::read(rt);

  Window traced;
  ClassCounts tcc;
  std::unique_ptr<WindowTracer> tracer;
  if (o.trace) {
    tracer = std::make_unique<WindowTracer>(
        rt, nullptr, s.srv->priority_of(EmailOp::Send),
        s.srv->priority_of(EmailOp::Print));
    run_window(s, sched, win_s, traced, tcc, tracer.get());
    r.check(tracer->finish(), "probes_completed");
  }

  r.failed = w.failed + traced.failed;
  r.check(w.attempted == w.completed + w.failed &&
              traced.attempted == traced.completed + traced.failed,
          "accounting attempted=completed+failed");
  r.check(r.failed == 0, "requests_failed=" + std::to_string(r.failed));
  bool classes_ok = true;
  std::string per_class;
  for (int i = 0; i < icilk::apps::kEmailOpCount; ++i) {
    classes_ok = classes_ok && cc.injected[i] == cc.completed[i] &&
                 tcc.injected[i] == tcc.completed[i];
    per_class += std::string(" ") +
                 icilk::apps::email_op_name(static_cast<EmailOp>(i)) + "=" +
                 std::to_string(cc.completed[i]) + "/" +
                 std::to_string(cc.injected[i]);
  }
  r.check(classes_ok, "per_class_completed" + per_class);
  std::uint64_t expect_msgs = 0;
  for (const std::uint64_t n : s.sends) {
    expect_msgs += std::min<std::uint64_t>(n, kMailboxCap);
  }
  const std::size_t msgs = s.srv->total_messages();
  r.check(msgs == expect_msgs,
          "mailbox_total=" + std::to_string(msgs) + " expected=" +
              std::to_string(expect_msgs) + " cap=" +
              std::to_string(kMailboxCap * kUsers));
  bool lz_ok = true;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const std::string body = prose_body(o.seed * 16 + i, kBodyBytes);
    std::string back;
    lz_ok = lz_ok &&
            icilk::apps::lz_decompress(icilk::apps::lz_compress(body), back) &&
            back == body;
  }
  r.check(lz_ok, "lz_round_trip bodies=16");

  r.info(worker_time_line(c0, c1, kWorkers, w.seconds));
  const double setup_s = setup_median(r, setups);
  if (!o.trace) {
    end_to_end_metrics(r, w, setup_s);
    return r;
  }

  counter_metrics(r, c0, c1, w.completed, cc.lat_sum_ns);
  tracer->report(r);
  // No store on this path: the kv rows are mc_read's inputs on a private
  // store, and io wake-up is timed on a private runtime and reactor.
  kv_metrics(r, mc_read_kv_inputs(o.seed), true);
  side_wake_metrics(r);
  concurrent_metrics(r);
  obs_tax_metrics(r);
  apps_metrics(r, o.seed);
  load_metrics(r, w);
  trace_overhead_metrics(r, w, traced);
  return r;
}

}  // namespace pb
