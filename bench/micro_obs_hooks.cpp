// Prices the per-transition hooks of the inject, watchdog and profiler
// subsystems against one plain baseline loop.
//
// With ICILK_HOOKS=OFF every hook is a constexpr or empty inline, so each
// BM_<subsystem>_<hook> row must cost what BM_Baseline costs
// (scripts/soak.sh hooksoff gates each row at 1.5x and also proves the
// OFF-build hot-path objects reference no hook symbol). Compiled in, the
// rows show the shape each call site pays in production:
//   inject_probe            one relaxed load + branch (no engine installed);
//   watchdog_publish_state  pack + one relaxed store;
//   watchdog_census_note    shard lock + hash-map upsert/erase, paid at
//                           suspension/resumption rate, never per task;
//   profiler_set_context    two relaxed TLS stores (the SIGPROF handler
//                           reads the word asynchronously);
//   profiler_scope          pre_op_check's save/restore bracket.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>

#include "inject/inject.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"

namespace {

using icilk::obs::ProfBucket;

void BM_Baseline(benchmark::State& state) {
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc++;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Baseline);

void BM_inject_probe(benchmark::State& state) {
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const auto o = icilk::inject::probe(icilk::inject::Point::kSteal);
    acc += static_cast<std::uint64_t>(o.action);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_inject_probe);

void BM_watchdog_publish_state(benchmark::State& state) {
  std::atomic<std::uint32_t> word{0};
  std::uint64_t acc = 0;
  for (auto _ : state) {
    icilk::obs::wd_publish_state(word, icilk::obs::WdWorkerState::kWorking,
                                 static_cast<int>(acc & 63));
    acc++;
    benchmark::DoNotOptimize(acc);
  }
  benchmark::DoNotOptimize(word);
}
BENCHMARK(BM_watchdog_publish_state);

void BM_watchdog_census_note(benchmark::State& state) {
  using icilk::obs::WdDequeState;
  int dummy[2];
  std::uint64_t acc = 0;
  for (auto _ : state) {
    icilk::obs::wd_census_note(&dummy[acc & 1], WdDequeState::kSuspended,
                               acc, 3);
    icilk::obs::wd_census_note(&dummy[acc & 1], WdDequeState::kGone, 0, 0);
    acc++;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_watchdog_census_note);

void BM_profiler_set_context(benchmark::State& state) {
  std::uint64_t acc = 0;
  for (auto _ : state) {
    icilk::obs::prof_enter_task(static_cast<int>(acc & 3),
                                static_cast<std::uint16_t>(acc));
    icilk::obs::prof_enter_bucket(ProfBucket::kSchedLoop,
                                  static_cast<int>(acc & 3));
    acc++;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_profiler_set_context);

void BM_profiler_scope(benchmark::State& state) {
  std::uint64_t acc = 0;
  for (auto _ : state) {
    {
      icilk::obs::ProfScope scope(ProfBucket::kPreOpCheck,
                                  static_cast<int>(acc & 3));
      acc++;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_profiler_scope);

}  // namespace

BENCHMARK_MAIN();
