// MultiQueue scheduling policy: the third scheduler, exploring the design
// point the paper leaves open — what if the per-level centralized FIFO
// pools (Prompt I-Cilk) are replaced by ONE relaxed concurrent priority
// queue over all levels (concurrent/multiqueue.hpp)?
//
// Every discoverable deque lives in a single MultiQueue keyed so that
// lower key = more urgent. Thieves pop the (approximate) global minimum:
// victim selection IS the priority order, no per-level pools, no separate
// mugging queue, and the structure natively supports many / continuous
// priorities instead of 64 FIFO lanes. Two key modes:
//
//   Strict   — key packs (level, urgency, FIFO sequence): within a level
//              this reproduces Prompt's aging FIFO and mugging-first
//              order exactly, MODULO the MultiQueue's relaxation (a pop
//              may return an element O(#shards) ranks from the true
//              minimum). The ablation (bench/ablation_relaxation) measures
//              precisely what that relaxation costs or buys.
//   Deadline — key is an absolute time: now + slack(level), with
//              abandoned (immediately-resumable) deques keyed `now` so
//              they do not lose their turn. Priorities become continuous
//              deadlines — the "deadline-as-priority" scheduling the
//              64-lane bitfield design cannot express.
//
// Promptness is kept: the 64-bit bitfield is maintained as a MIRROR of
// per-level entry counters (incremented before a push, decremented after
// a pop, with the paper's double-check on the zero edge), so
// pre_op_check / the preop fast gate / the watchdog see the same signal
// as under Prompt. Sleep/wake reuses the shared IdleWakeEngine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "concurrent/bitfield.hpp"
#include "concurrent/multiqueue.hpp"
#include "core/policy/idle_wake.hpp"
#include "core/policy/policy.hpp"

namespace icilk {

class MultiQueuePolicy {
 public:
  enum class KeyMode {
    Strict,    ///< (level, urgency, FIFO seq) — Prompt's order, relaxed
    Deadline,  ///< absolute ns deadline — continuous priorities
  };

  struct Options {
    /// Heap shards per worker (the MultiQueue's `c`; total shards =
    /// max(2, queues_per_worker * num_workers)).
    int queues_per_worker = 2;
    /// Two-shard samples per pop before the exact full scan; <= 0 makes
    /// every pop exact (strict ordering baseline for the ablation).
    int sample_attempts = 4;
    KeyMode key_mode = KeyMode::Strict;
    /// Deadline mode: per-level slack step. A deque at priority p gets
    /// deadline now + (63 - p) * level_slack_us.
    int level_slack_us = 1000;
    /// Same promptness knob as PromptPolicy::Options; idle workers sleep
    /// at once, as under Prompt.
    int check_period = 1;
    /// Per-worker pop stickiness: each worker remembers the shard that
    /// last served it a pop and tries it as the first of the two sampled
    /// choices (the second stays random, preserving the two-choice rank
    /// bound). Warmer shard locks, fewer empty-mirror probes;
    /// bench/ablation_relaxation carries before/after rows.
    bool pop_sticky = true;
  };

  explicit MultiQueuePolicy(const Options& opts);

  const char* name() const noexcept {
    return opts_.key_mode == KeyMode::Deadline ? "multiqueue-deadline"
                                               : "multiqueue";
  }

  void attach(Runtime& rt, PolicyHostBase& host);
  void start() {}
  void stop() { wake_.stop_wake(); }

  ProbeResult probe(Worker& w, AcquireState& st);
  void on_idle(Worker& w, AcquireState& st, ProbeResult r);
  void on_push(Worker& w);
  void on_resumable(Ref<Deque> d);
  void on_suspend(Worker& w, Deque& d) {}  // lazy removal, like Prompt
  void on_deque_dead(Worker& w, Deque& d) {}
  void pre_op_check(Worker& w);
  void publish_batch_begin() { wake_.publish_batch_begin(); }
  void publish_batch_end() { wake_.publish_batch_end(); }
  void wd_fill(obs::WdSample& s) const;

  const PriorityBitfield& bitfield() const noexcept { return bits_; }
  KeyMode key_mode() const noexcept { return opts_.key_mode; }
  std::size_t shard_count() const noexcept { return mq_->shard_count(); }
  std::size_t level_entries(Priority p) const noexcept {
    return static_cast<std::size_t>(
        entries_[p].load(std::memory_order_relaxed));
  }
  std::size_t queue_size_approx() const noexcept {
    return mq_->size_approx();
  }
  int sleepers() const noexcept { return wake_.sleepers(); }
  std::uint64_t idle_wakeups() const noexcept { return wake_.wakeups(); }

 private:
  /// Key for a deque entering the queue at priority p. Urgent entries
  /// (abandoned, immediately-resumable deques — Prompt's mugging queue)
  /// sort ahead of every regular same-level entry in Strict mode and at
  /// `now` in Deadline mode.
  std::uint64_t key_for(Priority p, bool urgent);
  /// Counter-inc + push + bitfield set. The deque's enqueued flag must
  /// already be SET (mark_enqueued done by the caller) — membership
  /// discipline is identical to Prompt's pools.
  void insert(Ref<Deque> d, bool urgent);
  /// Post-pop accounting: decrement the level counter; on the zero edge
  /// run the paper's double check against the counter.
  void entry_consumed(Priority p);
  void set_bit(Priority p);
  void double_check_clear(Priority p);
  /// kFailed path: sweep every set bit whose counter reads zero.
  void double_check_clear_all();
  bool sleep_ok() const {
    return bits_.load() == 0 && !host_->stop_requested();
  }

  Options opts_;
  std::uint64_t slack_ns_ = 0;
  PriorityBitfield bits_;
  std::unique_ptr<MultiQueue<Ref<Deque>>> mq_;
  /// Per-worker sticky shard hints, indexed by Worker::id. Each slot is
  /// only ever touched by its own worker thread (plain unsynchronized
  /// state passed into MultiQueue::try_pop).
  std::vector<std::uint32_t> sticky_;
  std::atomic<std::int64_t> entries_[PriorityBitfield::kMaxLevels] = {};
  std::atomic<std::uint64_t> seq_{0};  // Strict-mode FIFO sequence

  policy::IdleWakeEngine wake_;

  Runtime* rt_ = nullptr;
  PolicyHostBase* host_ = nullptr;
};

static_assert(SchedulingPolicy<MultiQueuePolicy>);

}  // namespace icilk
