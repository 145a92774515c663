// Seeded chaos soak driver: hammers the three servers (minicached over the
// reactor, email, job) under a mixed fault schedule and checks the
// runtime's soak invariants. Exit code 0 = every invariant held; nonzero
// = something was lost, with the seed printed so the run replays exactly.
//
// Usage: soak_inject [duration-seconds] [seed] [rate-ppm]
//   duration  per-phase load duration (default 2.0)
//   seed      injection seed (default 1; same seed => same fault schedule)
//   rate-ppm  per-point injection rate (default 5000 = 0.5%); rate 0 is
//             CLEAN MODE: no faults, watchdog sampler on, zero invariant
//             trips required (the detectors' false-positive gate)
//
// Invariants checked per phase (RESULT lines are machine-greppable):
//   * accounting — every fired request completed or was counted an error
//     (no open-loop slot silently stalls);
//   * drain — email/job servers fully drain (no lost deques / futures);
//   * census — every priority level's non-empty-deque gauge returns to 0;
//   * faults actually fired (a soak that injected nothing proves nothing).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "apps/email/email_server.hpp"
#include "apps/job/job_server.hpp"
#include "apps/memcached/icilk_server.hpp"
#include "bench/common.hpp"
#include "bench/op_trials.hpp"
#include "inject/inject.hpp"

namespace {

using namespace icilk;

int g_failures = 0;

void check(bool ok, const char* phase, const char* what) {
  std::printf("RESULT phase=%s invariant=%s ok=%d\n", phase, what, ok ? 1 : 0);
  if (!ok) ++g_failures;
}

inject::Config chaos_config(std::uint64_t seed, std::uint32_t ppm) {
  inject::Config cfg;
  cfg.seed = seed;
  cfg.set_all_rates(ppm);
  cfg.max_delay_spins = 400;
  cfg.record_decisions = false;  // soak runs are long; counters suffice
  return cfg;
}

void soak_minicached(double duration_s, std::uint64_t seed,
                     std::uint32_t ppm) {
  apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = 2;
  cfg.rt.num_io_threads = 2;
  cfg.rt.num_levels = 2;
  // Clean mode (rate 0): run the watchdog sampler alongside the load and
  // require ZERO invariant trips — the detectors' false-positive gate.
  if (ppm == 0) {
    cfg.rt.watchdog_enabled = true;
    cfg.rt.watchdog_period_ms = 5;
  }
  apps::ICilkMcServer server(cfg, std::make_unique<PromptScheduler>());

  load::McClient::Config ccfg;
  ccfg.port = static_cast<std::uint16_t>(server.port());
  ccfg.connections = 16;
  ccfg.keyspace = 512;
  ccfg.seed = seed;
  load::McClient client(ccfg);
  if (!client.setup()) {
    check(false, "minicached", "client_setup");
    return;
  }

  inject::Engine engine(chaos_config(seed, ppm));
  engine.install();
  const auto arrivals = load::poisson_schedule(3000.0, duration_s, seed);
  load::Histogram hist;
  const std::size_t completed = client.run(arrivals, hist, 30.0);
  engine.uninstall();

  std::printf(
      "minicached: fired=%zu completed=%zu errors=%" PRIu64
      " reconnects=%" PRIu64 " injected=%" PRIu64 "\n",
      arrivals.size(), completed, client.errors(), client.reconnects(),
      engine.injected());
  check(completed + client.errors() >= arrivals.size(), "minicached",
        "accounting");
  check(completed > 0, "minicached", "progress");
  if (ppm != 0) {
    check(engine.injected() > 0 || !obs::hooks_compiled_in(), "minicached",
          "faults_fired");
  }
  if (const obs::Watchdog* wd = server.runtime().watchdog()) {
    std::printf("minicached: watchdog samples=%" PRIu64 " trips=%" PRIu64
                "\n",
                wd->samples(), wd->trips_total());
    check(wd->samples() > 0, "minicached", "watchdog_sampled");
    check(wd->trips_total() == 0, "minicached", "watchdog_clean");
  }
  server.stop();
  bool census_zero = true;
  for (int lvl = 0; lvl < cfg.rt.num_levels; ++lvl) {
    census_zero &= server.runtime().census(lvl) == 0;
  }
  check(census_zero, "minicached", "census_quiesced");
}

void soak_email(double duration_s, std::uint64_t seed, std::uint32_t ppm) {
  inject::Engine engine(chaos_config(seed + 1, ppm));
  engine.install();
  bench::OpTrialOptions opt;
  opt.rps = 150;
  opt.duration_s = duration_s;
  opt.workers = 2;
  opt.seed = seed;
  const bench::OpTrialResult res = bench::run_email_trial(
      [] { return std::make_unique<PromptScheduler>(); }, opt);
  engine.uninstall();

  std::uint64_t done = 0;
  for (const auto& h : res.hist) done += h.count();
  std::printf("email: completed=%" PRIu64 " injected=%" PRIu64
              " abandons=%" PRIu64 "\n",
              done, engine.injected(), res.sched_stats.abandons);
  // run_email_trial's drain() returned, so nothing was lost; require the
  // histograms to show real completions and the faults to have fired.
  check(done > 0, "email", "drained");
  if (ppm != 0) {
    check(engine.injected() > 0 || !obs::hooks_compiled_in(), "email",
          "faults_fired");
  }
}

void soak_job(double duration_s, std::uint64_t seed, std::uint32_t ppm) {
  inject::Engine engine(chaos_config(seed + 2, ppm));
  engine.install();
  bench::OpTrialOptions opt;
  opt.rps = 40;
  opt.duration_s = duration_s;
  opt.workers = 2;
  opt.seed = seed;
  const bench::OpTrialResult res = bench::run_job_trial(
      [] { return std::make_unique<PromptScheduler>(); }, opt);
  engine.uninstall();

  std::uint64_t done = 0;
  for (const auto& h : res.hist) done += h.count();
  std::printf("job: completed=%" PRIu64 " injected=%" PRIu64
              " mugs=%" PRIu64 "\n",
              done, engine.injected(), res.sched_stats.mugs);
  check(done > 0, "job", "drained");
  if (ppm != 0) {
    check(engine.injected() > 0 || !obs::hooks_compiled_in(), "job",
          "faults_fired");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s = argc > 1 ? std::atof(argv[1]) : 2.0;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 1;
  const std::uint32_t ppm =
      argc > 3 ? static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 0))
               : 5000;

  std::printf("soak_inject: duration=%.1fs seed=%" PRIu64
              " rate=%uppm compiled_in=%d\n",
              duration_s, seed, ppm, obs::hooks_compiled_in() ? 1 : 0);

  soak_minicached(duration_s, seed, ppm);
  soak_email(duration_s, seed, ppm);
  soak_job(duration_s, seed, ppm);

  if (g_failures != 0) {
    std::printf("SOAK FAILED: %d invariant(s) violated (replay with seed=%"
                PRIu64 ")\n",
                g_failures, seed);
    return 1;
  }
  std::printf("SOAK OK\n");
  return 0;
}
