#include "core/policy/multiqueue_policy.hpp"

#include <sched.h>

#include <limits>

#include "core/policy/adopt.hpp"
#include "core/runtime.hpp"
#include "inject/inject.hpp"

namespace icilk {

namespace {
thread_local int tls_mq_check_counter = 0;
}  // namespace

MultiQueuePolicy::MultiQueuePolicy(const Options& opts) : opts_(opts) {
  slack_ns_ = static_cast<std::uint64_t>(
                  opts_.level_slack_us < 0 ? 0 : opts_.level_slack_us) *
              1000u;
}

void MultiQueuePolicy::attach(Runtime& rt, PolicyHostBase& host) {
  rt_ = &rt;
  host_ = &host;
  wake_.attach(&rt);
  const int shards = opts_.queues_per_worker * rt.num_workers();
  mq_ = std::make_unique<MultiQueue<Ref<Deque>>>(shards < 2 ? 2 : shards,
                                                 opts_.sample_attempts);
  // One sticky-shard hint per worker; the sentinel (>= shard count) means
  // "no hint yet" and the first pop falls back to a random first choice.
  sticky_.assign(static_cast<std::size_t>(rt.num_workers()),
                 std::numeric_limits<std::uint32_t>::max());
  // Same preop fast-gate discipline as Prompt: the inlined gate snapshots
  // the bitfield, which here mirrors the entry counters — valid only at
  // check_period 1 (see prompt_policy.cpp for the full rationale).
  if (opts_.check_period == 1) host.arm_preop_gate(&bits_);
}

std::uint64_t MultiQueuePolicy::key_for(Priority p, bool urgent) {
  if (opts_.key_mode == KeyMode::Deadline) {
    // Deadline-as-priority: higher levels get tighter deadlines. Urgent
    // (abandoned) deques are due NOW — they beat anything published at
    // their level from here on, though unlike a dedicated mugging queue
    // they still queue behind genuinely overdue older entries.
    const std::uint64_t now = now_ns();
    if (urgent) return now;
    return now + static_cast<std::uint64_t>(
                     PriorityBitfield::kMaxLevels - 1 - p) *
                     slack_ns_;
  }
  // Strict: [63:48] inverted level (lower key = higher priority),
  // [47] urgency (0 sorts first — the mugging-queue analogue),
  // [46:0] global FIFO sequence (aging within a level; unique keys).
  const std::uint64_t lvl =
      static_cast<std::uint64_t>(PriorityBitfield::kMaxLevels - 1 - p) << 48;
  const std::uint64_t urgency = urgent ? 0 : (std::uint64_t{1} << 47);
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) &
                            ((std::uint64_t{1} << 47) - 1);
  return lvl | urgency | seq;
}

void MultiQueuePolicy::insert(Ref<Deque> d, bool urgent) {
  const Priority p = d->priority();
  // Counter BEFORE push: a thief popping the entry decrements after the
  // pop, so the counter conservatively over-counts and the bitfield never
  // advertises a level whose counter was still zero while its entry was
  // already poppable.
  entries_[p].fetch_add(1, std::memory_order_release);
  mq_->push(key_for(p, urgent), std::move(d));
  set_bit(p);
}

void MultiQueuePolicy::set_bit(Priority p) {
  const std::uint64_t old = bits_.set(p);
  if ((old & (std::uint64_t{1} << p)) == 0) {
    rt_->metrics().note_level_nonempty(p);
  }
  wake_.wake_one();
}

void MultiQueuePolicy::entry_consumed(Priority p) {
  if (entries_[p].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    double_check_clear(p);
  }
}

void MultiQueuePolicy::double_check_clear(Priority p) {
  bits_.clear(p);
  if (entries_[p].load(std::memory_order_acquire) > 0) set_bit(p);
}

void MultiQueuePolicy::double_check_clear_all() {
  std::uint64_t bf = bits_.load();
  while (bf != 0) {
    const int p = PriorityBitfield::highest_of(bf);
    bf &= ~(std::uint64_t{1} << p);
    if (entries_[p].load(std::memory_order_acquire) <= 0) {
      double_check_clear(static_cast<Priority>(p));
    }
  }
}

void MultiQueuePolicy::on_push(Worker& w) {
  Deque* d = w.active.get();
  if (d->mark_enqueued()) {
    insert(Ref<Deque>::share(d), /*urgent=*/false);
  } else {
    set_bit(d->priority());
  }
}

void MultiQueuePolicy::on_resumable(Ref<Deque> d) {
  // Same crosspoint as Prompt: widen the resumable->published window.
  inject::maybe_pause(inject::probe(inject::Point::kResumePublish));
  const Priority p = d->priority();
  if (d->mark_enqueued()) {
    insert(std::move(d), /*urgent=*/false);
  } else {
    // Already queued — but a thief may be mid-double-check; redundant
    // bit sets are harmless (Prompt does the same).
    set_bit(p);
  }
}

ProbeResult MultiQueuePolicy::probe(Worker& w, AcquireState& st) {
  const int h = PriorityBitfield::highest_of(bits_.load());
  if (h < 0) return ProbeResult::kNoWork;
  st.last_level = h;

  const auto requeue = [this](Ref<Deque> d) {
    insert(std::move(d), /*urgent=*/false);
  };
  std::uint64_t key;
  Ref<Deque> d;
  std::uint32_t* sticky =
      opts_.pop_sticky && static_cast<std::size_t>(w.id) < sticky_.size()
          ? &sticky_[static_cast<std::size_t>(w.id)]
          : nullptr;
  while (mq_->try_pop(key, d, sticky)) {
    const Priority p = d->priority();
    entry_consumed(p);
    if (policy::process_candidate(*rt_, w, std::move(d), p, requeue)) {
      // Wake chaining, as in Prompt: if the mirror still advertises work
      // and an idle peer exists, pass the wake along.
      if (bits_.load_relaxed() != 0) wake_.notify_or_kick();
      rt_->metrics().note_level_acquired(p);
      return ProbeResult::kGot;
    }
    d = Ref<Deque>();
  }
  // The queue looked empty (relaxed emptiness: only sampled/scanned shard
  // minima). Sweep counter-empty bits and retry from the top.
  double_check_clear_all();
  return ProbeResult::kFailed;
}

void MultiQueuePolicy::on_idle(Worker& w, AcquireState& st, ProbeResult r) {
  if (r == ProbeResult::kNoWork) {
    wake_.idle_sleep(w, [this] { return sleep_ok(); });
    return;
  }
  if (++st.failed_rounds % 16 == 0) sched_yield();
}

void MultiQueuePolicy::pre_op_check(Worker& w) {
  if (opts_.check_period == 0) return;  // ablation: work-first, no checks
  if (opts_.check_period > 1 &&
      (++tls_mq_check_counter % opts_.check_period) != 0) {
    return;
  }
  obs::ProfScope prof_scope(obs::ProfBucket::kPreOpCheck,
                            static_cast<int>(w.level));
  // The same two crosspoints Prompt arms: mask the check (manufactures a
  // promptness violation for the watchdog) and force the abandon branch
  // (exercises the urgent-reinsertion path on demand).
  if (inject::probe(inject::Point::kPromptMask).action ==
      inject::Action::kForce) {
    return;
  }
  const bool forced_abandon =
      inject::probe(inject::Point::kAbandonCheck).action ==
      inject::Action::kForce;
  if (!forced_abandon && !bits_.has_higher_than(w.level)) return;

  policy::abandon_active(
      *rt_, w, [this](Worker&, Ref<Deque> d, TaskFiber* self) {
        d->abandon(self, self->st.req, self->st.req_owner);
        const Priority p = d->priority();
        if (d->mark_enqueued()) {
          insert(std::move(d), /*urgent=*/true);
        } else {
          set_bit(p);
        }
      });
}

void MultiQueuePolicy::wd_fill(obs::WdSample& s) const {
  s.bitfield = bits_.load();
  int lim = s.num_levels > 0 && s.num_levels < PriorityBitfield::kMaxLevels
                ? s.num_levels
                : PriorityBitfield::kMaxLevels;
  if (lim > obs::WdSample::kMaxLevels) lim = obs::WdSample::kMaxLevels;
  for (int p = 0; p < lim; ++p) {
    const std::int64_t n = entries_[p].load(std::memory_order_relaxed);
    s.pool_depth[p] = static_cast<std::uint32_t>(n > 0 ? n : 0);
    s.mug_depth[p] = 0;  // no separate mugging structure: urgency is a key
  }
  s.sleepers = sleepers();
  s.wakeups = idle_wakeups();
}

}  // namespace icilk
