// Burst resilience over time: minicached driven through a
// baseline -> burst -> recover arrival schedule, with BOTH sides of the
// over-time story recorded per epoch —
//
//   client side   per-epoch latency via load::TimeBuckets, keyed by each
//                 request's SCHEDULED arrival time (so a request that was
//                 due during the burst but completed seconds later charges
//                 its latency to the burst epoch — coordinated omission
//                 stays handled, exactly like the aggregate histogram),
//   server side   the runtime's windowed time-series ring, scraped from
//                 GET /timeseries after the run (per-epoch p50/p99/max,
//                 steal/mug/abandon deltas, pool depths, sleepers).
//
// scripts/tsreport.py joins the two into an aligned over-time table and
// computes burst depth, recovery time (first post-burst epoch whose p99 is
// back within 10% of the pre-burst p99), and the worst epoch.
//
// Rows (consumed by scripts/tsreport.py):
//   RESULT bench=fig_burst scheduler=S phase=meta t0_ns=... epoch_ms=1000 ...
//   RESULT bench=fig_burst scheduler=S phase=epoch epoch=N count=... p99_us=...
//   RESULT bench=fig_burst scheduler=S phase=summary pre_p99_ms=... recovery_s=...
//
// Flags: --scheduler=NAME row filter (pthread|prompt|adaptive|multiqueue),
// --ts-out=PATH writes each icilk run's scraped /timeseries JSON to
// PATH tagged with the scheduler name, --pre/--burst/--post (seconds),
// --base-rps/--burst-rps.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench/common.hpp"
#include "load/timebuckets.hpp"
#include "net/socket.hpp"

namespace {

using namespace icilk;
using namespace icilk::bench;

double double_flag(int argc, char** argv, const char* name, double dflt) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return std::atof(a.c_str() + prefix.size());
  }
  return dflt;
}

std::string string_flag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return "";
}

/// Raw-socket HTTP GET against the metrics endpoint (same idiom as
/// attribution_smoke); returns the response BODY or "" on failure.
std::string http_get_body(int port, const char* path) {
  const int fd = net::connect_tcp(static_cast<std::uint16_t>(port));
  if (fd < 0) return {};
  const std::string req = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t w = ::write(fd, req.data() + off, req.size() - off);
    if (w > 0) off += static_cast<std::size_t>(w);
    else if (w < 0 && errno != EAGAIN) break;
  }
  std::string got;
  char buf[16384];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) break;
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) got.append(buf, static_cast<std::size_t>(r));
    else if (r == 0) break;
    else std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ::close(fd);
  const std::size_t body = got.find("\r\n\r\n");
  return body == std::string::npos ? std::string() : got.substr(body + 4);
}

struct BurstProfile {
  double base_rps = 3000;
  double burst_rps = 12000;
  double pre_s = 3;
  double burst_s = 2;
  double post_s = 5;
  double total_s() const { return pre_s + burst_s + post_s; }
  std::size_t epochs() const {
    return static_cast<std::size_t>(std::ceil(total_s())) + 1;
  }
};

/// Per-epoch rows + the summary row from the client-side buckets.
void emit_rows(const char* sched, const BurstProfile& bp,
               const load::TimeBuckets& tb, std::uint64_t t0_ns,
               std::size_t completed, std::uint64_t errors) {
  std::printf("RESULT bench=fig_burst scheduler=%s phase=meta t0_ns=%llu "
              "epoch_ms=1000 pre_s=%.0f burst_s=%.0f post_s=%.0f "
              "base_rps=%.0f burst_rps=%.0f completed=%zu errors=%llu\n",
              sched, static_cast<unsigned long long>(t0_ns), bp.pre_s,
              bp.burst_s, bp.post_s, bp.base_rps, bp.burst_rps, completed,
              static_cast<unsigned long long>(errors));
  for (std::size_t i = 0; i < tb.size(); ++i) {
    const load::Histogram& h = tb.epoch(i);
    std::printf("RESULT bench=fig_burst scheduler=%s phase=epoch epoch=%zu "
                "count=%llu p50_us=%.1f p99_us=%.1f max_us=%.1f\n",
                sched, i, static_cast<unsigned long long>(h.count()),
                static_cast<double>(h.percentile_ns(0.50)) / 1e3,
                static_cast<double>(h.percentile_ns(0.99)) / 1e3,
                static_cast<double>(h.max_ns()) / 1e3);
  }

  // Windows at 1s-epoch granularity; boundary epochs count into the
  // earlier window.
  const std::size_t pre_end = static_cast<std::size_t>(bp.pre_s);
  const std::size_t burst_end = static_cast<std::size_t>(bp.pre_s + bp.burst_s);
  load::Histogram pre_h, burst_h;
  for (std::size_t i = 0; i < tb.size(); ++i) {
    if (i < pre_end) pre_h.merge(tb.epoch(i));
    else if (i < burst_end) burst_h.merge(tb.epoch(i));
  }
  const double pre_p99_ms = ms(pre_h.percentile_ns(0.99));
  const double burst_p99_ms = ms(burst_h.percentile_ns(0.99));
  double worst_epoch_p99_ms = 0;
  for (std::size_t i = 0; i < tb.size(); ++i) {
    const double v = ms(tb.epoch(i).percentile_ns(0.99));
    if (v > worst_epoch_p99_ms) worst_epoch_p99_ms = v;
  }
  // Recovery: seconds from burst end to the start of the first post-burst
  // epoch whose p99 is within 10% of the pre-burst p99. Unrecovered runs
  // report the full post window (worst case) with recovered=0, keeping
  // recovery_s lower-is-better.
  double recovery_s = bp.post_s;
  int recovered = 0;
  for (std::size_t i = burst_end; i < tb.size(); ++i) {
    const load::Histogram& h = tb.epoch(i);
    if (h.count() == 0) continue;
    if (ms(h.percentile_ns(0.99)) <= pre_p99_ms * 1.10) {
      recovery_s = static_cast<double>(i - burst_end);
      recovered = 1;
      break;
    }
  }
  std::printf("RESULT bench=fig_burst scheduler=%s phase=summary "
              "pre_p99_ms=%.3f burst_p99_ms=%.3f worst_epoch_p99_ms=%.3f "
              "recovery_s=%.0f recovered=%d\n",
              sched, pre_p99_ms, burst_p99_ms, worst_epoch_p99_ms, recovery_s,
              recovered);
}

void run_icilk(const char* name, const SchedFactory& make,
               const BurstProfile& bp, const std::string& ts_out) {
  apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = 4;
  cfg.rt.num_io_threads = 2;
  cfg.rt.num_levels = 2;
  cfg.rt.timeseries_enabled = true;
  cfg.rt.timeseries_epoch_ms = 1000;
  cfg.metrics_port = 0;
  apps::ICilkMcServer server(cfg, make());

  load::McClient::Config ccfg;
  ccfg.port = static_cast<std::uint16_t>(server.port());
  ccfg.connections = 200;
  load::McClient client(ccfg);
  if (!client.setup()) {
    std::fprintf(stderr, "fig_burst: client setup failed (%s)\n", name);
    return;
  }
  {
    load::Histogram discard;
    client.run(load::poisson_schedule(bp.base_rps, 0.5, 42), discard);
  }
  const std::uint64_t warm_errors = client.errors();

  load::TimeBuckets buckets(1'000'000'000ull, bp.epochs());
  client.set_time_buckets(&buckets);
  const auto arrivals = load::burst_schedule(bp.base_rps, bp.burst_rps,
                                             bp.pre_s, bp.burst_s, bp.post_s,
                                             /*seed=*/1);
  load::Histogram hist;
  const std::uint64_t t0 = now_ns();  // client.run() re-reads now_ns() as
                                      // its epoch immediately; sub-ms skew
  const std::size_t completed = client.run(arrivals, hist, 5.0);
  client.set_time_buckets(nullptr);

  if (!ts_out.empty() && server.metrics_port() > 0) {
    const std::string body =
        http_get_body(server.metrics_port(), "/timeseries");
    const std::string path = tagged_trace_path(ts_out, name);
    std::ofstream f(path);
    if (!body.empty() && f) {
      f << body;
      std::fprintf(stderr, "timeseries written: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "timeseries scrape FAILED: %s\n", path.c_str());
    }
  }
  server.stop();
  emit_rows(name, bp, buckets, t0, completed, client.errors() - warm_errors);
}

void run_pthread(const BurstProfile& bp) {
  apps::PthreadMcServer::Config cfg;
  cfg.num_workers = 4;
  apps::PthreadMcServer server(cfg);

  load::McClient::Config ccfg;
  ccfg.port = static_cast<std::uint16_t>(server.port());
  ccfg.connections = 200;
  load::McClient client(ccfg);
  if (!client.setup()) {
    std::fprintf(stderr, "fig_burst: client setup failed (pthread)\n");
    return;
  }
  {
    load::Histogram discard;
    client.run(load::poisson_schedule(bp.base_rps, 0.5, 42), discard);
  }
  const std::uint64_t warm_errors = client.errors();
  load::TimeBuckets buckets(1'000'000'000ull, bp.epochs());
  client.set_time_buckets(&buckets);
  const auto arrivals = load::burst_schedule(bp.base_rps, bp.burst_rps,
                                             bp.pre_s, bp.burst_s, bp.post_s,
                                             /*seed=*/1);
  load::Histogram hist;
  const std::uint64_t t0 = now_ns();
  const std::size_t completed = client.run(arrivals, hist, 5.0);
  client.set_time_buckets(nullptr);
  server.stop();
  emit_rows("pthread", bp, buckets, t0, completed,
            client.errors() - warm_errors);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string filter = scheduler_filter(argc, argv);
  const std::string ts_out = string_flag(argc, argv, "--ts-out");

  BurstProfile bp;
  bp.pre_s = double_flag(argc, argv, "--pre", bp.pre_s);
  bp.burst_s = double_flag(argc, argv, "--burst", bp.burst_s);
  bp.post_s = double_flag(argc, argv, "--post", bp.post_s);
  bp.base_rps = double_flag(argc, argv, "--base-rps", bp.base_rps);
  bp.burst_rps = double_flag(argc, argv, "--burst-rps", bp.burst_rps);

  print_header("Burst resilience: baseline -> burst -> recover",
               "(RESULT rows; join with /timeseries via scripts/tsreport.py)");

  if (scheduler_selected(filter, "pthread")) run_pthread(bp);
  if (scheduler_selected(filter, "prompt")) {
    run_icilk("prompt", prompt_config().make, bp, ts_out);
  }
  if (scheduler_selected(filter, "adaptive")) {
    AdaptiveScheduler::Params p;
    p.quantum_us = 1000;
    p.util_threshold = 0.6;
    run_icilk("adaptive", [&p] {
      return std::make_unique<AdaptiveScheduler>(
          AdaptiveScheduler::Variant::Adaptive, p);
    }, bp, ts_out);
  }
  if (scheduler_selected(filter, "multiqueue")) {
    run_icilk("multiqueue", multiqueue_config().make, bp, ts_out);
  }
  return 0;
}
