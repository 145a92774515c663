// Tests for the email and job server benchmarks over multiple schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>

#include "apps/email/email_server.hpp"
#include "apps/job/job_server.hpp"
#include "core/adaptive_scheduler.hpp"
#include "core/prompt_scheduler.hpp"
#include "load/openloop.hpp"

namespace icilk::apps {
namespace {

std::unique_ptr<Scheduler> prompt() {
  return std::make_unique<PromptScheduler>();
}
std::unique_ptr<Scheduler> adaptive() {
  AdaptiveScheduler::Params p;
  p.quantum_us = 1000;
  return std::make_unique<AdaptiveScheduler>(
      AdaptiveScheduler::Variant::PlusAging, p);
}

EmailServer::Config email_cfg() {
  EmailServer::Config cfg;
  cfg.rt.num_workers = 3;
  cfg.rt.num_levels = 4;
  cfg.num_users = 8;
  cfg.body_bytes = 512;
  return cfg;
}

TEST(EmailServer, AllOpsCompleteAndRecordLatency) {
  EmailServer srv(email_cfg(), prompt());
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < 40; ++i) srv.inject(EmailOp::Send, i % 8, t0);
  srv.drain();
  EXPECT_EQ(srv.histogram(EmailOp::Send).count(), 40u);
  EXPECT_EQ(srv.total_messages(), 40u);

  for (int i = 0; i < 8; ++i) {
    srv.inject(EmailOp::Sort, i, now_ns());
    srv.inject(EmailOp::Compress, i, now_ns());
  }
  srv.drain();
  for (int i = 0; i < 8; ++i) srv.inject(EmailOp::Print, i, now_ns());
  srv.drain();
  EXPECT_EQ(srv.histogram(EmailOp::Sort).count(), 8u);
  EXPECT_EQ(srv.histogram(EmailOp::Compress).count(), 8u);
  EXPECT_EQ(srv.histogram(EmailOp::Print).count(), 8u);
  EXPECT_GT(srv.histogram(EmailOp::Send).mean_ns(), 0.0);
}

TEST(EmailServer, MailboxCapEnforced) {
  auto cfg = email_cfg();
  cfg.max_mailbox = 16;
  cfg.num_users = 1;
  EmailServer srv(cfg, prompt());
  for (int i = 0; i < 100; ++i) srv.inject(EmailOp::Send, 0, now_ns());
  srv.drain();
  EXPECT_EQ(srv.total_messages(), 16u);
}

TEST(EmailServer, RunsUnderAdaptiveToo) {
  EmailServer srv(email_cfg(), adaptive());
  for (int i = 0; i < 30; ++i) {
    srv.inject(static_cast<EmailOp>(i % kEmailOpCount), i % 8, now_ns());
  }
  srv.drain();
  std::uint64_t total = 0;
  for (int op = 0; op < kEmailOpCount; ++op) {
    total += srv.histogram(static_cast<EmailOp>(op)).count();
  }
  EXPECT_EQ(total, 30u);
}

TEST(EmailServer, PriorityMappingMatchesPaper) {
  EmailServer srv(email_cfg(), prompt());
  EXPECT_GT(srv.priority_of(EmailOp::Send), srv.priority_of(EmailOp::Sort));
  EXPECT_GT(srv.priority_of(EmailOp::Sort),
            srv.priority_of(EmailOp::Compress));
  EXPECT_EQ(srv.priority_of(EmailOp::Compress),
            srv.priority_of(EmailOp::Print));
}

// ---------------------------------------------------------------------------

JobServer::Config job_cfg() {
  JobServer::Config cfg;
  cfg.rt.num_workers = 3;
  cfg.rt.num_levels = 4;
  // Small kernels: these tests check correctness/plumbing, not latency.
  cfg.mm_n = 16;
  cfg.fib_n = 14;
  cfg.sort_n = 4000;
  cfg.sw_n = 64;
  return cfg;
}

TEST(JobServer, AllJobTypesComplete) {
  JobServer srv(job_cfg(), prompt());
  for (int i = 0; i < 20; ++i) {
    srv.inject(static_cast<JobType>(i % kJobTypeCount), now_ns());
  }
  srv.drain();
  for (int t = 0; t < kJobTypeCount; ++t) {
    EXPECT_EQ(srv.histogram(static_cast<JobType>(t)).count(), 5u)
        << job_type_name(static_cast<JobType>(t));
  }
}

TEST(JobServer, PriorityIsShortestJobFirst) {
  JobServer srv(job_cfg(), prompt());
  EXPECT_GT(srv.priority_of(JobType::Mm), srv.priority_of(JobType::Fib));
  EXPECT_GT(srv.priority_of(JobType::Fib), srv.priority_of(JobType::Sort));
  EXPECT_GT(srv.priority_of(JobType::Sort), srv.priority_of(JobType::Sw));
}

TEST(JobServer, DefaultSizesAreShortestJobFirst) {
  // With the default kernel sizes the serial runtimes must actually order
  // mm < fib < sort < sw, or the priority assignment is a lie.
  JobServer::Config cfg;
  cfg.rt.num_workers = 1;
  cfg.rt.num_levels = 4;
  JobServer srv(cfg, prompt());
  // Warm up once, then keep each kernel's best of five runs. The runs go
  // round-robin over the kernels, so a burst of load from other processes
  // slows one run of each kernel instead of every run of one kernel.
  for (int t = 0; t < kJobTypeCount; ++t) {
    srv.measure_serial_ms(static_cast<JobType>(t));
  }
  double ms[kJobTypeCount];
  std::fill(std::begin(ms), std::end(ms), 1e18);
  for (int rep = 0; rep < 5; ++rep) {
    for (int t = 0; t < kJobTypeCount; ++t) {
      ms[t] = std::min(ms[t], srv.measure_serial_ms(static_cast<JobType>(t)));
    }
  }
  EXPECT_LT(ms[0], ms[2]) << "mm should be shorter than sort";
  EXPECT_LT(ms[1], ms[2]) << "fib should be shorter than sort";
  EXPECT_LT(ms[2], ms[3]) << "sort should be shorter than sw";
}

TEST(JobServer, RunsUnderAdaptiveGreedy) {
  AdaptiveScheduler::Params p;
  p.quantum_us = 1000;
  JobServer srv(job_cfg(),
                std::make_unique<AdaptiveScheduler>(
                    AdaptiveScheduler::Variant::Greedy, p));
  for (int i = 0; i < 12; ++i) {
    srv.inject(static_cast<JobType>(i % kJobTypeCount), now_ns());
  }
  srv.drain();
  std::uint64_t total = 0;
  for (int t = 0; t < kJobTypeCount; ++t) {
    total += srv.histogram(static_cast<JobType>(t)).count();
  }
  EXPECT_EQ(total, 12u);
}

}  // namespace
}  // namespace icilk::apps
