// Micro-benchmark: the time-series telemetry hot path.
//
// Two levels of evidence for the "cheap enough to leave on" claim:
//
//   hook rows    tight-loop cost of obs::ts_note_request against a null
//                TimeSeries (the runtime's state when telemetry is not
//                enabled), against a LIVE ticking TimeSeries (the per-
//                request record: one acquire load + a lock-free histogram
//                record), and the bare loop baseline. Under
//                -DICILK_HOOKS=OFF the hook inlines to nothing and
//                both hook rows must collapse to the baseline —
//                scripts/soak.sh gates on that in its hooksoff phase.
//   mc rows      minicached at 10k rps with the ticker off vs on (4
//                interleaved pairs, min-filtered on mean latency); the
//                overhead row reports the mean-latency delta. The
//                ISSUE-level acceptance is <= 2%; shared-host CI noise
//                exceeds that, so the hard gate (--strict) is opt-in and
//                run_baseline.sh just records it.
//
//   ./bench/micro_timeseries           # hook rows + mc rows
//   ./bench/micro_timeseries hooks     # hook rows only (fast; CI/soak)
//   ./bench/micro_timeseries --strict  # exit 1 if overhead > 2%
//
// RESULT lines are consumed by bench/run_baseline.sh.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace {

using namespace icilk;
using namespace icilk::bench;
using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0;

constexpr std::uint64_t kOps = 20'000'000;

/// All three loops share the same xorshift so the only delta is the hook.
template <typename Fn>
double timed_loop(Fn&& fn) {
  std::uint64_t x = 88172645463325252ull;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x & 0xFFFFF;  // ~0..1ms as "latency ns"
    fn(static_cast<int>(x & 3), v);
    g_sink = g_sink + v;
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kOps);
}

void hook_row(const char* mode, double ns_op) {
  std::printf("RESULT bench=timeseries mode=%s compiled_in=%d ops=%llu "
              "ns_per_op=%.2f\n",
              mode, obs::hooks_compiled_in() ? 1 : 0,
              static_cast<unsigned long long>(kOps), ns_op);
}

void bench_hooks() {
  const double base = timed_loop([](int, std::uint64_t) {});
  hook_row("base", base);

  // Null pointer: the per-request cost when telemetry is compiled in but
  // not enabled — one branch.
  obs::TimeSeries* null_ts = nullptr;
  const double null_ns = timed_loop([null_ts](int lvl, std::uint64_t v) {
    obs::ts_note_request(null_ts, lvl, v);
  });
  hook_row("hook_null", null_ns);

  // Live ticking series at the default 1s epoch: the loop overlaps a few
  // ticks, so slot flips and straggler records are exercised too.
  obs::MetricsRegistry metrics;
  obs::TimeSeries::Config tc;
  tc.metrics = &metrics;
  tc.scheduler = "micro";
  obs::TimeSeries ts(tc);
  ts.start();
  const double live = timed_loop([&ts](int lvl, std::uint64_t v) {
    obs::ts_note_request(&ts, lvl, v);
  });
  ts.stop();
  hook_row("hook_live", live);
}

bool bench_mc(bool strict) {
  const double rps = 10000;
  McTrialOptions opt;
  opt.rps = rps;
  opt.duration_s = 2.0;
  opt.warmup_s = 0.5;
  opt.client_connections = 200;

  auto mc_row = [&](const char* ts, const McTrialResult& r) {
    std::printf("RESULT bench=timeseries mode=mc ts=%s rps=%.0f "
                "completed=%zu mean_us=%.2f p99_ms=%.3f err=%llu\n",
                ts, rps, r.completed, r.hist.mean_ns() / 1e3,
                ms(r.hist.percentile_ns(0.99)),
                static_cast<unsigned long long>(r.client_errors));
  };

  McTrialOptions on_opt = opt;
  on_opt.timeseries = true;

  // Interleaved off/on pairs, min-filtered on the MEAN (the metric the
  // overhead row reads — min-p99 selection would pick a different trial
  // than the one being compared). Interleaving matters on shared
  // containers: a slow drift in background load lands on both sides
  // instead of biasing whichever block ran second.
  McTrialResult off;
  McTrialResult on;
  for (int i = 0; i < 4; ++i) {
    McTrialResult r = run_mc_trial_icilk(prompt_config().make, opt);
    if (r.completed > 0 &&
        (off.completed == 0 || r.hist.mean_ns() < off.hist.mean_ns())) {
      off = std::move(r);
    }
    r = run_mc_trial_icilk(prompt_config().make, on_opt);
    if (r.completed > 0 &&
        (on.completed == 0 || r.hist.mean_ns() < on.hist.mean_ns())) {
      on = std::move(r);
    }
  }
  mc_row("off", off);
  mc_row("on", on);

  if (off.completed == 0 || on.completed == 0) {
    std::fprintf(stderr, "FAIL: mc trial produced no completions\n");
    return false;
  }
  const double overhead_pct =
      (on.hist.mean_ns() - off.hist.mean_ns()) / off.hist.mean_ns() * 100.0;
  std::printf("RESULT bench=timeseries mode=overhead rps=%.0f "
              "overhead_pct=%.2f\n",
              rps, overhead_pct);
  if (strict && overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: timeseries overhead %.2f%% > 2%% at %.0f rps\n",
                 overhead_pct, rps);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool hooks_only = false;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "hooks") == 0) hooks_only = true;
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
  }
  bench_hooks();
  if (hooks_only) return 0;
  return bench_mc(strict) ? 0 : 1;
}
