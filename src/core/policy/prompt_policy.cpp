#include "core/policy/prompt_policy.hpp"

#include <sched.h>

#include <thread>

#include "concurrent/spinlock.hpp"
#include "core/policy/adopt.hpp"
#include "core/runtime.hpp"
#include "inject/inject.hpp"

namespace icilk {

thread_local int tls_prompt_check_counter = 0;

PromptPolicy::PromptPolicy(const Options& opts) : opts_(opts) {
  pools_.reserve(PriorityBitfield::kMaxLevels);
  for (int i = 0; i < PriorityBitfield::kMaxLevels; ++i) {
    pools_.push_back(make_deque_pool(opts_.pool_kind));
  }
}

void PromptPolicy::attach(Runtime& rt, PolicyHostBase& host) {
  rt_ = &rt;
  host_ = &host;
  wake_.attach(&rt);
  // Arm the runtime's inlined promptness gate (scheduler.hpp
  // preop_fast_bits): valid only at check_period 1, where pre_op_check is
  // exactly "snapshot has nothing above my level -> return". Subsampled
  // configurations need the virtual path's TLS counter; period 0 skips
  // checks entirely and the virtual early-return is already trivial.
  if (opts_.check_period == 1) host.arm_preop_gate(&bits_);
  // Resolve the auto idle-spin default (Options::idle_spin_rounds == -1)
  // now that the runtime's thread count is known. Pre-sleep spinning only
  // pays when the thread that will publish work runs in parallel with the
  // spinner; once workers + I/O threads saturate the host's cores, each
  // yielding re-check burns a timeslice the producer needed, and the
  // latency tail inflates by exactly that contention. Explicit values are
  // honored verbatim (ablation).
  if (opts_.idle_spin_rounds < 0) {
    const unsigned cores = std::thread::hardware_concurrency();
    const int threads = rt.config().num_workers + rt.config().num_io_threads;
    const bool oversubscribed =
        cores != 0 && threads >= static_cast<int>(cores);
    opts_.idle_spin_rounds = oversubscribed ? 0 : 8;
  }
}

void PromptPolicy::set_bit(Priority p) {
  const std::uint64_t old = bits_.set(p);
  if ((old & (std::uint64_t{1} << p)) == 0) {
    // Level p just went empty -> non-empty: stamp the transition so the
    // first acquisition at p yields a promptness-response-latency sample.
    rt_->metrics().note_level_nonempty(p);
  }
  if (old == 0) zero_transitions_.fetch_add(1, std::memory_order_relaxed);
  wake_.wake_one();
}

void PromptPolicy::double_check_clear(Priority p) {
  bits_.clear(p);
  if (!pools_[p]->empty()) set_bit(p);
}

void PromptPolicy::on_push(Worker& w) {
  Deque* d = w.active.get();
  if (d->mark_enqueued()) {
    pools_[d->priority()]->push_regular(Ref<Deque>::share(d));
  }
  set_bit(d->priority());
}

void PromptPolicy::on_resumable(Ref<Deque> d) {
  // Crosspoint: delay the publication of resumability. The deque is
  // already Resumable, so this widens the window where a racing thief
  // (steal/mug on a stale pool reference) sees the transition before the
  // pool and bitfield do.
  inject::maybe_pause(inject::probe(inject::Point::kResumePublish));
  const Priority p = d->priority();
  if (d->mark_enqueued()) {
    pools_[p]->push_regular(std::move(d));
  }
  // Set the bit even if the deque was already queued: a thief may be
  // mid-double-check; redundant sets are harmless.
  set_bit(p);
}

void PromptPolicy::requeue_regular(Ref<Deque> d) {
  const Priority p = d->priority();
  pools_[p]->push_regular(std::move(d));
  set_bit(p);
}

bool PromptPolicy::try_get_work(Worker& w, Priority h) {
  const auto requeue = [this](Ref<Deque> d) { requeue_regular(std::move(d)); };
  while (Ref<Deque> d = pools_[h]->pop()) {
    if (policy::process_candidate(*rt_, w, std::move(d), h, requeue)) {
      return true;
    }
  }
  return false;
}

ProbeResult PromptPolicy::probe(Worker& w, AcquireState& st) {
  const int h = PriorityBitfield::highest_of(bits_.load());
  if (h < 0) return ProbeResult::kNoWork;
  st.empty_rounds = 0;
  st.last_level = h;

  if (try_get_work(w, h)) {
    // Wake chaining: one coalesced wake per reactor drain means a batch
    // of k completions may wake only this worker. If published work
    // remains and an idle peer exists — on the eventcount or adopted
    // into the reactor's epoll — pass the wake along; each worker that
    // acquires fans the signal out. Costs the no-surplus common case
    // one relaxed load.
    //
    // The bitfield is deliberately the ONLY test, stale bits and all: a
    // bit that outlives its last deque (bits clear lazily, via
    // double_check_clear on a failed probe) does chain one wasted wake
    // to a peer at low load, but a precise variant that also consulted
    // pools_[h]->empty() measured WORSE end-to-end — the per-request
    // chain doubles as steady re-check pressure on the poller/eventcount
    // handoff, and suppressing it traded a futex wake per request for
    // occasional multi-ms adoption stalls and lost fan-out under bursts.
    if (bits_.load_relaxed() != 0) wake_.notify_or_kick();
    rt_->metrics().note_level_acquired(h);
    return ProbeResult::kGot;
  }

  // Pool drained: clear the bit with the double check; the skeleton
  // records the failed probe and retries from the (possibly different)
  // highest level.
  double_check_clear(h);
  return ProbeResult::kFailed;
}

void PromptPolicy::on_idle(Worker& w, AcquireState& st, ProbeResult r) {
  if (r == ProbeResult::kNoWork) {
    if (opts_.sleep_when_idle) {
      // Optional pre-sleep backoff: a few yielding re-checks before
      // committing to the eventcount absorb wake churn when new work
      // lands microseconds after the field goes empty. On a host where
      // worker threads outnumber cores the spinning itself delays the
      // I/O threads that produce the work, so the default leans low;
      // Options::idle_spin_rounds is the ablation knob.
      if (++st.empty_rounds <= opts_.idle_spin_rounds) {
        sched_yield();
      } else {
        wake_.idle_sleep(w, [this] { return sleep_ok(); });
        st.empty_rounds = 0;
      }
    } else {
      if (++st.failed_rounds % 16 == 0) sched_yield();
      cpu_relax();
    }
    return;
  }
  if (++st.failed_rounds % 16 == 0) sched_yield();
}

void PromptPolicy::pre_op_check(Worker& w) {
  if (opts_.check_period == 0) return;  // ablation: work-first, no checks
  if (opts_.check_period > 1 &&
      (++tls_prompt_check_counter % opts_.check_period) != 0) {
    return;
  }
  // Samples during the check are scheduler overhead, not task work —
  // even though it runs ON the task fiber. Save/restore: the scope may
  // span an abandonment park, and the restored word describes the task
  // (still correct after an abandon→mug migration to another worker).
  obs::ProfScope prof_scope(obs::ProfBucket::kPreOpCheck,
                            static_cast<int>(w.level));
  // Crosspoint: MASK the promptness check — the worker behaves as if the
  // bitfield showed nothing above it and keeps working at its current
  // level. This manufactures exactly the violation the watchdog's
  // promptness detector exists to catch (a worker persisting below an
  // occupied level) without touching real scheduler state.
  if (inject::probe(inject::Point::kPromptMask).action ==
      inject::Action::kForce) {
    return;
  }
  // Crosspoint: force the abandonment branch even when no higher-priority
  // work exists. The deque becomes "immediately resumable", enters the
  // mugging queue, and must come back through a mug with its age intact —
  // the paper's rarest path, exercised on demand.
  const bool forced_abandon =
      inject::probe(inject::Point::kAbandonCheck).action ==
      inject::Action::kForce;
  // One seq_cst snapshot, as the paper prescribes for bitfield reads.
  if (!forced_abandon && !bits_.has_higher_than(w.level)) return;

  // Higher-priority work exists: abandon the active deque (it becomes
  // "immediately resumable" and enters the mugging queue so it is not
  // de-aged) and let the worker loop re-acquire at the higher level.
  policy::abandon_active(
      *rt_, w, [this](Worker&, Ref<Deque> d, TaskFiber* self) {
        d->abandon(self, self->st.req, self->st.req_owner);
        const Priority p = d->priority();
        if (d->mark_enqueued()) {
          pools_[p]->push_mugging(std::move(d));
        }
        set_bit(p);
      });
}

void PromptPolicy::wd_fill(obs::WdSample& s) const {
  s.bitfield = bits_.load();
  int lim = s.num_levels > 0 && s.num_levels < PriorityBitfield::kMaxLevels
                ? s.num_levels
                : PriorityBitfield::kMaxLevels;
  if (lim > obs::WdSample::kMaxLevels) lim = obs::WdSample::kMaxLevels;
  for (int p = 0; p < lim; ++p) {
    s.pool_depth[p] = static_cast<std::uint32_t>(pools_[p]->size_approx());
    s.mug_depth[p] =
        static_cast<std::uint32_t>(pools_[p]->mugging_size_approx());
  }
  s.sleepers = sleepers();
  s.wakeups = idle_wakeups();
  s.zero_transitions = zero_transitions();
}

}  // namespace icilk
