// Prompt I-Cilk (Section 4 of the paper), expressed as a policy over the
// PolicyScheduler skeleton (core/policy/policy.hpp).
//
// Within a priority level: a hybrid of work stealing and work sharing with
// NO randomization. One centralized deque pool per level, implemented as
// two non-blocking FAA FIFO queues:
//   * the regular queue — deques enter at the tail when they gain stealable
//     work or become resumable; FIFO order implements the aging heuristic;
//   * the mugging queue — only "immediately resumable" deques abandoned by
//     workers that moved to a higher priority; serviced BEFORE the regular
//     queue so abandonment does not de-age a deque.
//
// Thieves pop the head: a resumable deque is mugged whole; a deque with
// stealable entries loses its topmost continuation; either way, if the
// deque still has stealable work it returns to the regular tail. Empty
// deques encountered at the head are simply dropped (lazy removal) — the
// pool tolerates empty deques; the invariant maintained is that every
// NON-EMPTY deque is discoverable.
//
// Across priority levels: the 64-bit bitfield and frequent checking give
// promptness; workers finding the field all-zero sleep on the shared
// IdleWakeEngine (eventcount + idle-poller adoption) and are woken
// one-per-published-deque.
//
// The Options knobs exist for the ablation benches; the defaults are the
// paper's design.
#pragma once

#include <memory>
#include <vector>

#include "concurrent/bitfield.hpp"
#include "core/policy/deque_pool.hpp"
#include "core/policy/idle_wake.hpp"
#include "core/policy/policy.hpp"

namespace icilk {

class PromptPolicy {
 public:
  struct Options {
    PoolKind pool_kind = PoolKind::FaaTwoQueue;
    /// Promptness: check the bitfield at every spawn/sync/fut_create/get.
    /// Setting a period N > 1 only checks every Nth op (ablation);
    /// 0 disables abandonment entirely (work-first, ablation).
    int check_period = 1;
    // Idle workers sleep as soon as the bitfield reads all-zero, with no
    // yielding spin first: a spin cost more server CPU than the wakes it
    // saved (DESIGN.md, "Idle workers sleep at once").
  };

  explicit PromptPolicy(const Options& opts);

  const char* name() const noexcept { return "prompt"; }

  void attach(Runtime& rt, PolicyHostBase& host);
  void start() {}
  void stop() { wake_.stop_wake(); }

  ProbeResult probe(Worker& w, AcquireState& st);
  void on_idle(Worker& w, AcquireState& st, ProbeResult r);
  void on_push(Worker& w);
  void on_resumable(Ref<Deque> d);
  void on_suspend(Worker& w, Deque& d) {}  // lazy removal
  void on_deque_dead(Worker& w, Deque& d) {}
  void pre_op_check(Worker& w);
  void publish_batch_begin() { wake_.publish_batch_begin(); }
  void publish_batch_end() { wake_.publish_batch_end(); }
  void wd_fill(obs::WdSample& s) const;

  const PriorityBitfield& bitfield() const noexcept { return bits_; }
  std::size_t pool_size_approx(Priority p) const {
    return pools_[p]->size_approx();
  }
  int sleepers() const noexcept { return wake_.sleepers(); }
  std::uint64_t idle_wakeups() const noexcept { return wake_.wakeups(); }
  std::uint64_t zero_transitions() const noexcept {
    return zero_transitions_.load(std::memory_order_relaxed);
  }

 private:
  /// Tries to obtain work at level `h`; on success fills w.active/w.next.
  bool try_get_work(Worker& w, Priority h);
  /// Push to the regular tail; deque's enqueued flag must already be set.
  void requeue_regular(Ref<Deque> d);
  /// Sets bit p and wakes one idle sleeper (deferred+coalesced inside a
  /// publish-batch window).
  void set_bit(Priority p);
  /// The paper's double-check: clear bit p, re-check the pool, restore the
  /// bit if the pool turned out non-empty.
  void double_check_clear(Priority p);
  bool sleep_ok() const {
    return bits_.load() == 0 && !host_->stop_requested();
  }

  Options opts_;
  PriorityBitfield bits_;
  std::vector<std::unique_ptr<DequePool>> pools_;  // [64]

  policy::IdleWakeEngine wake_;
  std::atomic<std::uint64_t> zero_transitions_{0};  // 0 -> non-zero edges

  Runtime* rt_ = nullptr;
  PolicyHostBase* host_ = nullptr;
};

static_assert(SchedulingPolicy<PromptPolicy>);

}  // namespace icilk
