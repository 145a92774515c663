// The job server benchmark (Section 5): shortest-job-first priority
// scheduling over four PARALLEL kernels — matrix multiply (shortest,
// highest priority), Fibonacci, mergesort, Smith-Waterman (longest,
// lowest priority).
//
// Each injected job is a whole task-parallel computation (spawn/sync
// inside), so — unlike Memcached — a single request can occupy many
// workers. This is the workload where the paper shows promptness shines
// (instant ramp-up/down of the high-priority level) and where aging
// matters at the starved low-priority levels (Figure 4).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/runtime.hpp"
#include "load/histogram.hpp"
#include "net/metrics_http.hpp"

namespace icilk::apps {

enum class JobType : int { Mm = 0, Fib = 1, Sort = 2, Sw = 3 };
inline constexpr int kJobTypeCount = 4;
const char* job_type_name(JobType t);

class JobServer {
 public:
  struct Config {
    RuntimeConfig rt;  ///< rt.num_levels >= 4
    // Kernel sizes: calibrated so serial runtimes order
    // mm (~0.3ms) < fib (~0.8ms) < sort (~3ms) < sw (~8ms)
    // (shortest-job-first => highest priority to mm).
    int mm_n = 72;
    int fib_n = 26;
    int sort_n = 40000;
    int sw_n = 1280;
    int sw_block = 64;
    std::uint64_t seed = 7;
    Priority mm_priority = 3;
    Priority fib_priority = 2;
    Priority sort_priority = 1;
    Priority sw_priority = 0;
    /// HTTP exposition endpoint (GET /metrics, GET /latency) with a small
    /// private reactor: -1 = disabled, 0 = ephemeral port, else fixed.
    int metrics_port = -1;
  };

  /// A null `sched` selects the policy from $ICILK_SCHEDULER (default
  /// "prompt") via make_scheduler_or_default.
  JobServer(const Config& cfg, std::unique_ptr<Scheduler> sched = nullptr);
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Schedules one job; latency measured from `arrival_ns` to completion.
  void inject(JobType t, std::uint64_t arrival_ns);
  /// Returns once every injected job's task has finished, not just its
  /// body: a policy may still park a task after its body returns, and
  /// shutting down then would strand the parked fiber.
  void drain();

  load::Histogram& histogram(JobType t) { return hist_[static_cast<int>(t)]; }
  Runtime& runtime() noexcept { return *rt_; }
  Priority priority_of(JobType t) const;
  /// Port of the HTTP exposition endpoint; 0 when disabled.
  int metrics_port() const noexcept;

  /// Serial reference runtimes (rough), for tests asserting the
  /// shortest-job-first size ordering.
  double measure_serial_ms(JobType t);

 private:
  void run_job(JobType t);

  Config cfg_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<net::MetricsHttpServer> metrics_http_;
  // Pre-generated immutable inputs (jobs copy what they mutate).
  std::vector<double> mat_a_, mat_b_;
  std::vector<std::uint32_t> ints_;
  std::vector<char> dna_a_, dna_b_;
  load::Histogram hist_[kJobTypeCount];
  std::mutex pending_mu_;
  std::deque<Future<void>> pending_;  ///< injected jobs, oldest first
  std::atomic<std::uint64_t> sink_{0};
};

}  // namespace icilk::apps
