// The compile-time scheduling-policy framework.
//
// Every scheduler in this runtime shares one worker-loop skeleton: find
// work or wait for it, account the time as scheduling overhead or waste,
// publish worker states to the watchdog/profiler, and honor shutdown. What
// actually DIFFERS between Prompt I-Cilk, Adaptive I-Cilk, and the
// MultiQueue scheduler is pure policy: how a victim is selected, how
// priority levels are ordered and aged, when a running worker checks for
// higher-priority work, and how idle workers sleep. Following Wimmer et
// al.'s "Configurable Strategies for Work-stealing", the skeleton is a
// class template over a policy type, so the composition is resolved at
// compile time — probe() inlines into the acquire loop exactly as the
// hand-written schedulers did, and a policy pays only for the hooks it
// uses.
//
// The split:
//   SKELETON (PolicyScheduler<P>, this file)
//     - the acquire loop: stop test, probe, sched/waste tick accounting,
//       failed-probe stats + kAcquireFail trace, watchdog state words,
//       profiler buckets;
//     - the Scheduler virtual-interface plumbing (one virtual hop from the
//       runtime, then everything devirtualizes into the policy);
//     - preop fast-gate arming (PolicyHostBase::arm_preop_gate) and the
//       shared stop flag.
//   POLICY (PromptPolicy / AdaptivePolicy / MultiQueuePolicy)
//     - probe(): one attempt to find work (victim selection, level order);
//     - on_idle(): backoff or sleep after an unproductive probe;
//     - deque lifecycle hooks (on_push/on_resumable/on_suspend/
//       on_deque_dead) — i.e. how deques become discoverable;
//     - pre_op_check(): promptness/migration cadence;
//     - publish-batch window forwarding and watchdog sample fill.
//
// Shared building blocks the policies compose (not part of the concept):
//   policy/adopt.hpp      thief protocol: mug/steal bookkeeping, candidate
//                         processing, abandonment plumbing.
//   policy/deque_pool.hpp centralized per-level FIFO pools (+ ablations).
//   policy/idle_wake.hpp  eventcount sleep, coalesced wakes, publish-batch
//                         windows, reactor-epoll adoption.
#pragma once

#include <atomic>
#include <concepts>
#include <utility>

#include "concurrent/bitfield.hpp"
#include "concurrent/clock.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/worker.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace icilk {

/// Outcome of one Policy::probe attempt.
enum class ProbeResult {
  kGot,     ///< w.active/w.next set; worker returns to task execution
  kNoWork,  ///< nothing is published anywhere visible — idle (may sleep)
  kFailed,  ///< something looked published but the probe came up empty
            ///< (lost race / stale bit / drained pool) — retry soon
};

/// Per-acquire-call scratch the skeleton threads through probe/on_idle so
/// policies can keep backoff counters without per-worker allocations.
struct AcquireState {
  int failed_rounds = 0;  ///< unproductive probes since acquire entry
  int last_level = -1;    ///< level the last probe targeted (trace arg)
};

/// Non-template base the policies talk back to: runtime access, the shared
/// stop flag, and preop fast-gate arming (see Scheduler::preop_fast_bits).
class PolicyHostBase : public Scheduler {
 public:
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }
  void arm_preop_gate(const PriorityBitfield* bits) noexcept {
    preop_bits_ = bits;
  }

 protected:
  std::atomic<bool> stop_{false};
};

/// The policy concept. A policy is a plain (non-virtual) class; the
/// skeleton owns one instance and forwards every Scheduler hook into it.
/// probe() must set w.level/w.active/w.next before returning kGot and do
/// any policy-side success bookkeeping (wake chaining, note_level_acquired);
/// on_idle() must return promptly once the host's stop flag is set.
template <typename P>
concept SchedulingPolicy =
    requires(P p, const P cp, Worker& w, Ref<Deque> d, Deque& dq, Runtime& rt,
             PolicyHostBase& host, AcquireState& st, obs::WdSample& s) {
      { cp.name() } -> std::convertible_to<const char*>;
      p.attach(rt, host);
      p.start();
      p.stop();
      { p.probe(w, st) } -> std::same_as<ProbeResult>;
      p.on_idle(w, st, ProbeResult::kNoWork);
      p.on_push(w);
      p.on_resumable(std::move(d));
      p.on_suspend(w, dq);
      p.on_deque_dead(w, dq);
      p.pre_op_check(w);
      p.publish_batch_begin();
      p.publish_batch_end();
      cp.wd_fill(s);
    };

/// The worker-loop skeleton over a policy. One virtual hop from the
/// runtime lands here; everything below it is compile-time dispatch.
template <SchedulingPolicy Policy>
class PolicyScheduler : public PolicyHostBase {
 public:
  template <typename... Args>
  explicit PolicyScheduler(Args&&... args)
      : policy_(std::forward<Args>(args)...) {}

  const char* name() const override { return policy_.name(); }

  void attach(Runtime& rt) override {
    Scheduler::attach(rt);
    policy_.attach(rt, *this);
  }
  void start() override { policy_.start(); }
  void stop() override {
    stop_.store(true, std::memory_order_seq_cst);
    policy_.stop();
  }

  bool acquire(Worker& w) override {
    obs::wd_publish_state(w.wd_state, obs::WdWorkerState::kStealing,
                          static_cast<int>(w.level));
    obs::prof_enter_bucket(obs::ProfBucket::kSteal,
                           static_cast<int>(w.level));
    AcquireState st;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return false;

      const std::uint64_t t0 = now_ticks();
      const ProbeResult r = policy_.probe(w, st);
      if (r == ProbeResult::kGot) {
        obs::wd_publish_state(w.wd_state, obs::WdWorkerState::kWorking,
                              static_cast<int>(w.level));
        obs::prof_enter_bucket(obs::ProfBucket::kSchedLoop,
                               static_cast<int>(w.level));
        w.stats.sched_ticks.add(now_ticks() - t0);
        return true;
      }
      if (r == ProbeResult::kFailed) {
        w.stats.failed_probes++;
        ICILK_TRACE_RECORD(w.trace, obs::EventKind::kAcquireFail,
                           st.last_level, 0);
      }
      // Backoff/sleep runs inside the waste window: per stats.hpp, waste
      // is "failed probes, sleeping, waking".
      policy_.on_idle(w, st, r);
      w.stats.waste_ticks.add(now_ticks() - t0);
    }
  }

  void on_push(Worker& w) override { policy_.on_push(w); }
  void on_resumable(Ref<Deque> d) override {
    policy_.on_resumable(std::move(d));
  }
  void on_suspend(Worker& w, Deque& d) override { policy_.on_suspend(w, d); }
  void on_deque_dead(Worker& w, Deque& d) override {
    policy_.on_deque_dead(w, d);
  }
  void pre_op_check(Worker& w) override { policy_.pre_op_check(w); }
  void publish_batch_begin() override { policy_.publish_batch_begin(); }
  void publish_batch_end() override { policy_.publish_batch_end(); }
  void wd_fill(obs::WdSample& s) const override { policy_.wd_fill(s); }

  Policy& policy() noexcept { return policy_; }
  const Policy& policy() const noexcept { return policy_; }

 protected:
  Policy policy_;
};

}  // namespace icilk
