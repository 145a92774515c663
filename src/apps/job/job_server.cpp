#include "apps/job/job_server.hpp"

#include <chrono>

#include "apps/job/kernels.hpp"
#include "core/api.hpp"

namespace icilk::apps {

const char* job_type_name(JobType t) {
  switch (t) {
    case JobType::Mm:
      return "mm";
    case JobType::Fib:
      return "fib";
    case JobType::Sort:
      return "sort";
    case JobType::Sw:
      return "sw";
  }
  return "?";
}

JobServer::JobServer(const Config& cfg, std::unique_ptr<Scheduler> sched)
    : cfg_(cfg),
      rt_(std::make_unique<Runtime>(
          cfg.rt, sched != nullptr ? std::move(sched)
                                   : make_scheduler_or_default())) {
  mat_a_ = gen_matrix(cfg_.mm_n, cfg_.seed);
  mat_b_ = gen_matrix(cfg_.mm_n, cfg_.seed + 1);
  ints_ = gen_ints(cfg_.sort_n, cfg_.seed + 2);
  dna_a_ = gen_dna(cfg_.sw_n, cfg_.seed + 3);
  dna_b_ = gen_dna(cfg_.sw_n, cfg_.seed + 4);
  if (cfg_.metrics_port >= 0) {
    net::MetricsHttpServer::Config mc;
    mc.port = static_cast<std::uint16_t>(cfg_.metrics_port);
    metrics_http_ =
        std::make_unique<net::MetricsHttpServer>(*rt_, nullptr, mc);
  }
}

JobServer::~JobServer() {
  drain();
  metrics_http_.reset();  // before the runtime: its tasks run inside rt_
  rt_->shutdown();
}

int JobServer::metrics_port() const noexcept {
  return metrics_http_ ? metrics_http_->port() : 0;
}

Priority JobServer::priority_of(JobType t) const {
  switch (t) {
    case JobType::Mm:
      return cfg_.mm_priority;
    case JobType::Fib:
      return cfg_.fib_priority;
    case JobType::Sort:
      return cfg_.sort_priority;
    case JobType::Sw:
      return cfg_.sw_priority;
  }
  return 0;
}

void JobServer::run_job(JobType t) {
  switch (t) {
    case JobType::Mm:
      sink_.fetch_add(
          static_cast<std::uint64_t>(kernel_mm(mat_a_, mat_b_, cfg_.mm_n)),
          std::memory_order_relaxed);
      break;
    case JobType::Fib:
      sink_.fetch_add(kernel_fib(cfg_.fib_n), std::memory_order_relaxed);
      break;
    case JobType::Sort:
      sink_.fetch_add(kernel_sort(ints_), std::memory_order_relaxed);
      break;
    case JobType::Sw:
      sink_.fetch_add(
          static_cast<std::uint64_t>(
              kernel_sw(dna_a_, dna_b_, cfg_.sw_block)),
          std::memory_order_relaxed);
      break;
  }
}

void JobServer::inject(JobType t, std::uint64_t arrival_ns) {
  Future<void> f = rt_->submit(priority_of(t), [this, t, arrival_ns] {
    // Attribute from the open-loop arrival; the job's internal spawn/sync
    // parallelism rides the root chain (children tag I/O, the root drives
    // phases — see obs/reqtrace.hpp).
    rt_->req_begin(arrival_ns);
    run_job(t);
    rt_->req_end();
    hist_[static_cast<int>(t)].record(now_ns() - arrival_ns);
  });
  std::lock_guard<std::mutex> g(pending_mu_);
  // Keep only jobs that may still be running, so the queue stays as short
  // as the backlog between drains.
  while (!pending_.empty() && pending_.front().ready()) pending_.pop_front();
  pending_.push_back(std::move(f));
}

void JobServer::drain() {
  for (;;) {
    Future<void> f;
    {
      std::lock_guard<std::mutex> g(pending_mu_);
      if (pending_.empty()) return;
      f = std::move(pending_.front());
      pending_.pop_front();
    }
    // The future completes in the task's epilogue, after its last park.
    f.get();
  }
}

double JobServer::measure_serial_ms(JobType t) {
  const auto t0 = std::chrono::steady_clock::now();
  rt_->submit(priority_of(t), [this, t] { run_job(t); }).get();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace icilk::apps
