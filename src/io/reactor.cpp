#include "io/reactor.hpp"

#include <fcntl.h>
#include <limits.h>

#include "inject/inject.hpp"
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace icilk {

namespace {

// epoll_event.data.u64 layout: high 32 bits select the event class.
//   all-ones ........................ the wake eventfd
//   0xFFFFFFFF:0xFFFFFFFE ........... the worker-poller kick eventfd
//   0xFFFFFFFF in the high word ..... a timer shard (low word = shard idx)
//   otherwise ....................... an fd event: (gen << 32) | fd, where
//                                     gen < 2^31 so it never collides with
//                                     the timer mark.
constexpr std::uint64_t kWakeMark = ~std::uint64_t{0};
constexpr std::uint64_t kTimerMarkHigh = 0xFFFFFFFFull;
constexpr std::uint64_t kWorkerKickMark = (kTimerMarkHigh << 32) | 0xFFFFFFFEull;
constexpr std::uint32_t kGenMask = 0x7FFFFFFFu;

/// Standby re-check period. The coverage handover to standing-by I/O
/// threads is demand-triggered (ensure_covered on every arm/timer and the
/// scheduler's surplus flush); this timed re-check only bounds the
/// staleness when one of those best-effort wakes loses its race — it is
/// the promptness backstop, not the mechanism.
constexpr std::int64_t kStandbyRecheckNs = 5'000'000;  // 5 ms

std::uint64_t pack_fd(int fd, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen & kGenMask) << 32) |
         static_cast<std::uint32_t>(fd);
}

}  // namespace

PoolCountersSnapshot IoReactor::op_pool_stats() { return OpPool::stats(); }

IoReactor::IoReactor(Runtime& rt, int num_threads) : rt_(rt) {
  if (num_threads < 0) num_threads = rt.config().num_io_threads;
  assert(num_threads >= 1);

  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  worker_kick_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epfd_ < 0 || wake_fd_ < 0 || worker_kick_fd_ < 0) {
    std::perror("icilk: reactor setup");
    std::abort();
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeMark;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  // Level-triggered on purpose: the kick must keep the epoll readable
  // until the ROLE HOLDER drains it, surviving any adopt/release race.
  epoll_event kev{};
  kev.events = EPOLLIN;
  kev.data.u64 = kWorkerKickMark;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, worker_kick_fd_, &kev);

  // One timer shard per I/O thread, each driven by its own timerfd.
  // Edge-triggered so one expiration wakes one thread, not the whole pool.
  timer_shards_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    auto shard = std::make_unique<TimerShard>();
    shard->tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (shard->tfd < 0) {
      std::perror("icilk: timerfd_create");
      std::abort();
    }
    epoll_event tev{};
    tev.events = EPOLLIN | EPOLLET;
    tev.data.u64 = (kTimerMarkHigh << 32) | static_cast<std::uint32_t>(i);
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, shard->tfd, &tev);
    timer_shards_.push_back(std::move(shard));
  }

  polling_ios_.store(num_threads, std::memory_order_seq_cst);
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { io_thread_main(i); });
  }

  // Make this epoll adoptable by idle workers (core/idle_poller.hpp).
  // Registered last: workers may acquire the poller the moment this
  // publishes, and everything they touch is initialized above.
  if (rt_.config().worker_io_polling) {
    registered_poller_ = true;
    rt_.set_idle_poller(this);
  }
}

IoReactor::~IoReactor() {
  stop_.store(true, std::memory_order_seq_cst);
  wake();                    // wakes whoever is in epoll_wait (worker too)
  standby_ec_.notify_all();  // wakes I/O threads standing by off-epoll
  if (registered_poller_) {
    // Unregister and quiesce: blocks until no worker still holds a
    // reference, so no adoption can race the fd teardown below.
    rt_.clear_idle_poller(this);
  }
  for (auto& t : threads_) t.join();
  // Threads joined: any op still parked (reactor torn down with armed
  // operations, same contract as the seed) is reclaimed without completing.
  table_.for_each_pending([this](Slot& s) {
    if (s.rd != nullptr) {
      rt_.metrics().io_gauge_add(obs::IoGauge::kArmedOps, -1);
      OpPool::destroy(std::exchange(s.rd, nullptr));
    }
    if (s.wr != nullptr) {
      rt_.metrics().io_gauge_add(obs::IoGauge::kArmedOps, -1);
      OpPool::destroy(std::exchange(s.wr, nullptr));
    }
  });
  for (auto& shard : timer_shards_) ::close(shard->tfd);
  ::close(worker_kick_fd_);
  ::close(wake_fd_);
  ::close(epfd_);
}

void IoReactor::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Submitting operations
// ---------------------------------------------------------------------------

ssize_t IoReactor::do_syscall(OpKind kind, int fd, void* buf,
                              const void* cbuf, std::size_t len) {
  for (;;) {
    // Fault-injection shim (compiles to nothing under ICILK_HOOKS=OFF):
    // a hostile kernel can return EAGAIN/EINTR/ECONNRESET, deliver fewer
    // bytes than asked, or stall — all of which the layers above must
    // survive. Injected EINTR takes the same retry edge the real one does.
    std::size_t eff_len = len;
    const inject::Outcome fault = inject::probe(
        kind == OpKind::Read     ? inject::Point::kSyscallRead
        : kind == OpKind::Write  ? inject::Point::kSyscallWrite
        : kind == OpKind::Writev ? inject::Point::kSyscallWrite
                                 : inject::Point::kSyscallAccept);
    switch (fault.action) {
      case inject::Action::kEagain:
        return -EAGAIN;
      case inject::Action::kConnReset:
        return -ECONNRESET;
      case inject::Action::kEintr:
        continue;
      case inject::Action::kShortIo:
        if (eff_len > 1) eff_len = 1;
        break;
      default:
        inject::maybe_pause(fault);
        break;
    }
    ssize_t r;
    switch (kind) {
      case OpKind::Read:
        r = ::read(fd, buf, eff_len);
        break;
      case OpKind::Write:
        r = ::write(fd, cbuf, eff_len);
        break;
      case OpKind::Writev:
        // len is the iovec COUNT here; kShortIo's eff_len clamp (count
        // -> 1) injects a natural short write — only the first segment
        // lands, and the composite must resume mid-array.
        r = ::writev(fd, static_cast<const struct iovec*>(cbuf),
                     static_cast<int>(eff_len));
        break;
      case OpKind::Accept:
        r = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        break;
      default:
        r = -1;
        errno = EINVAL;
    }
    if (r >= 0) return r;
    if (errno == EINTR) continue;  // retry inline; the fd is still ready
    if (errno == EWOULDBLOCK) return -EAGAIN;
    return -errno;
  }
}

Future<ssize_t> IoReactor::submit(OpKind kind, int fd, void* buf,
                                  const void* cbuf, std::size_t len) {
  ops_submitted_.fetch_add(1, std::memory_order_relaxed);
  auto fut = Ref<FutureState<ssize_t>>::make(rt_);
  const ssize_t r = do_syscall(kind, fd, buf, cbuf, len);
  if (r != -EAGAIN) {
    // Inline fast path: no Op, no slot, no epoll — just the syscall.
    ops_inline_.fetch_add(1, std::memory_order_relaxed);
    fut->set_value(r);
    fut->complete();
  } else {
    arm(OpPool::create(kind, fd, buf, cbuf, len, fut));
  }
  return Future<ssize_t>(std::move(fut));
}

Future<ssize_t> IoReactor::async_read(int fd, void* buf, std::size_t len) {
  return submit(OpKind::Read, fd, buf, nullptr, len);
}

Future<ssize_t> IoReactor::async_write(int fd, const void* buf,
                                       std::size_t len) {
  return submit(OpKind::Write, fd, nullptr, buf, len);
}

Future<ssize_t> IoReactor::async_writev(int fd, const struct iovec* iov,
                                        int iovcnt) {
  return submit(OpKind::Writev, fd, nullptr, iov,
                static_cast<std::size_t>(iovcnt));
}

Future<ssize_t> IoReactor::async_accept(int listen_fd) {
  return submit(OpKind::Accept, listen_fd, nullptr, nullptr, 0);
}

void IoReactor::arm(Op* op) {
  // The op would block: it is leaving the submitting task's synchronous
  // path. Recorded from the submitter side (worker ring, if any).
  rt_.trace_event(obs::EventKind::kIoSubmit, obs::TraceEvent::kNoLevel16,
                  static_cast<std::uint32_t>(op->fd));
  // Tag the op with the submitting request and mark the imminent deque
  // suspension as an I/O wait (suspended_io, not suspended_sync).
  op->req_id = obs::req_hook_io_arm();
  rt_.metrics().io_count(obs::IoStat::kFdTableProbe);
  rt_.metrics().io_gauge_add(obs::IoGauge::kArmedOps, 1);
  if (!table_.in_fast_range(op->fd)) {
    rt_.metrics().io_count(obs::IoStat::kFdTableOverflow);
  }
  const int fd = op->fd;
  Slot& s = table_.acquire(fd);
  // One pending op per direction per fd: the application layer serializes
  // same-direction operations on a connection (as Memcached does).
  {
    LockGuard<SpinLock> g(s.mu);
    if (op->kind == OpKind::Write || op->kind == OpKind::Writev) {
      assert(!s.wr && "concurrent writes on one fd");
      s.wr = op;
    } else {
      assert(!s.rd && "concurrent reads on one fd");
      s.rd = op;
    }
    update_interest(fd, s);
  }
  // The interest is visible in the epoll; make sure someone is (or will
  // be) waiting on it. Off the slot lock — this can issue a futex wake.
  ensure_covered();
}

void IoReactor::update_interest(int fd, Slot& s) {
  epoll_event ev{};
  ev.data.u64 = pack_fd(fd, s.gen);
  ev.events = EPOLLONESHOT;
  if (s.rd != nullptr) ev.events |= EPOLLIN | EPOLLRDHUP;
  if (s.wr != nullptr) ev.events |= EPOLLOUT;
  if (s.rd == nullptr && s.wr == nullptr) {
    return;  // nothing pending; ONESHOT left disarmed
  }
  // Robust against fd-number reuse: a closed fd silently leaves epoll, so
  // MOD can hit ENOENT (re-ADD) and ADD can hit EEXIST (re-MOD).
  if (!s.registered) {
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0 || errno == EEXIST) {
      if (errno == EEXIST) ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
      s.registered = true;
    }
  } else if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0 &&
             errno == ENOENT) {
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

// ---------------------------------------------------------------------------
// fd lifecycle
// ---------------------------------------------------------------------------

void IoReactor::cancel_fd(int fd) {
  Slot* s = table_.find(fd);
  if (s == nullptr) return;
  Op* rd = nullptr;
  Op* wr = nullptr;
  {
    LockGuard<SpinLock> g(s->mu);
    rd = std::exchange(s->rd, nullptr);
    wr = std::exchange(s->wr, nullptr);
    // New generation: in-flight epoll events armed for the old fd now fail
    // the gen check in handle_event and are dropped.
    s->gen = (s->gen + 1) & kGenMask;
    if (s->registered) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);  // best effort
      s->registered = false;
    }
  }
  for (Op* op : {rd, wr}) {
    if (op == nullptr) continue;
    rt_.metrics().io_count(obs::IoStat::kFdCancel);
    rt_.metrics().io_gauge_add(obs::IoGauge::kArmedOps, -1);
    op->fut->set_value(-ECANCELED);
    op->fut->complete();
    OpPool::destroy(op);
  }
}

int IoReactor::close_fd(int fd) {
  cancel_fd(fd);
  return ::close(fd);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

Future<void> IoReactor::async_sleep(std::chrono::nanoseconds d) {
  auto fut = Ref<FutureState<void>>::make(rt_);
  if (d <= std::chrono::nanoseconds::zero()) {
    rt_.metrics().io_count(obs::IoStat::kTimerInline);
    fut->complete();
    return Future<void>(std::move(fut));
  }
  // A timer wait counts as I/O for request attribution.
  obs::req_hook_io_arm();
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(d.count());
  TimerShard& s = *timer_shards_[static_cast<std::size_t>(thread_ordinal()) %
                                 timer_shards_.size()];
  {
    LockGuard<SpinLock> g(s.mu);
    s.heap.push(Timer{deadline, fut});
    s.depth.store(s.heap.size(), std::memory_order_relaxed);
    if (s.armed_deadline_ns == 0 || deadline < s.armed_deadline_ns) {
      s.armed_deadline_ns = deadline;
      arm_timerfd_locked(s);
    }
  }
  rt_.metrics().io_count(obs::IoStat::kTimerScheduled);
  rt_.metrics().io_gauge_add(obs::IoGauge::kTimersPending, 1);
  // The shard timerfd is armed; make sure someone will harvest it.
  ensure_covered();
  return Future<void>(std::move(fut));
}

void IoReactor::arm_timerfd_locked(TimerShard& s) {
  // Relative arming: no assumption that now_ns() and CLOCK_MONOTONIC share
  // an epoch. A deadline already in the past fires "immediately" via 1ns.
  const std::uint64_t now = now_ns();
  const std::uint64_t rel =
      s.armed_deadline_ns > now ? s.armed_deadline_ns - now : 1;
  itimerspec its{};
  its.it_value.tv_sec = static_cast<time_t>(rel / 1000000000ull);
  its.it_value.tv_nsec = static_cast<long>(rel % 1000000000ull);
  ::timerfd_settime(s.tfd, 0, &its, nullptr);
}

void IoReactor::handle_timer(std::size_t shard_idx, obs::TraceRing* ring) {
  TimerShard& s = *timer_shards_[shard_idx];
  std::uint64_t expirations;
  while (::read(s.tfd, &expirations, sizeof(expirations)) > 0) {
  }
  // Thread-local scratch so steady-state timer fires don't allocate; safe
  // because handle_timer is not reentrant on a thread and `due` is drained
  // before returning.
  thread_local std::vector<Ref<FutureState<void>>> due;
  due.clear();
  {
    LockGuard<SpinLock> g(s.mu);
    const std::uint64_t now = now_ns();
    while (!s.heap.empty() && s.heap.top().deadline_ns <= now) {
      due.push_back(s.heap.top().fut);
      s.heap.pop();
    }
    s.depth.store(s.heap.size(), std::memory_order_relaxed);
    if (!s.heap.empty()) {
      s.armed_deadline_ns = s.heap.top().deadline_ns;
      arm_timerfd_locked(s);
    } else {
      s.armed_deadline_ns = 0;
    }
  }
  if (!due.empty()) {
    rt_.metrics().io_gauge_add(obs::IoGauge::kTimersPending,
                               -static_cast<std::int64_t>(due.size()));
  }
  // Bounded completion delay: sleep futures may fire "late" relative to
  // every other event in the system, never early.
  if (!due.empty()) {
    inject::maybe_pause(inject::probe(inject::Point::kTimerFire));
  }
  for (auto& f : due) {
    ICILK_TRACE_RECORD(ring, obs::EventKind::kTimerFire,
                       obs::TraceEvent::kNoLevel16, 0);
    f->complete();
  }
  due.clear();  // drop the Refs now, not at the next fire
}

std::vector<std::size_t> IoReactor::timer_shard_depths() const {
  std::vector<std::size_t> out;
  out.reserve(timer_shards_.size());
  for (const auto& s : timer_shards_) {
    out.push_back(s->depth.load(std::memory_order_relaxed));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Composite synchronous helpers
// ---------------------------------------------------------------------------

ssize_t IoReactor::read_exact(int fd, void* buf, std::size_t len) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = read_some(fd, p + got, len - got);
    if (r < 0) return r;
    if (r == 0) return got == 0 ? 0 : -EPIPE;  // EOF mid-message
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(len);
}

ssize_t IoReactor::write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  std::size_t put = 0;
  while (put < len) {
    const ssize_t r = write_some(fd, p + put, len - put);
    if (r < 0) return r;
    put += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(len);
}

ssize_t IoReactor::writev_all(int fd, struct iovec* iov, int iovcnt) {
  // Skip leading empty entries so a zero return from ::writev always
  // means "all remaining entries are empty", never a stall.
  std::size_t total = 0;
  int i = 0;
  while (i < iovcnt && iov[i].iov_len == 0) ++i;
  while (i < iovcnt) {
    const int n = std::min(iovcnt - i, static_cast<int>(IOV_MAX));
    const ssize_t r = async_writev(fd, iov + i, n).get();
    if (r < 0) return r;
    total += static_cast<std::size_t>(r);
    // Step over fully-written entries; trim the partial one in place.
    std::size_t left = static_cast<std::size_t>(r);
    while (i < iovcnt && left >= iov[i].iov_len) {
      left -= iov[i].iov_len;
      ++i;
    }
    if (i < iovcnt) {
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + left;
      iov[i].iov_len -= left;
    }
  }
  return static_cast<ssize_t>(total);
}

// ---------------------------------------------------------------------------
// I/O threads
// ---------------------------------------------------------------------------

void IoReactor::handle_event(int fd, std::uint32_t gen, std::uint32_t events,
                             obs::TraceRing* ring) {
  Slot* s = table_.find(fd);
  if (s == nullptr) return;
  // Completed ops are collected under the lock and completed outside it
  // (complete() re-enters the scheduler).
  Op* done_rd = nullptr;
  Op* done_wr = nullptr;
  {
    LockGuard<SpinLock> g(s->mu);
    if (s->gen != gen) {
      // Event armed for a previous life of this fd number (cancel_fd ran
      // since): drop it, it belongs to nobody.
      rt_.metrics().io_count(obs::IoStat::kStaleEvent);
      return;
    }
    // Injected spurious wakeup: service nothing and re-arm interest as-is
    // (EPOLLONESHOT redelivers while the fd stays ready). kDelay here
    // stretches the slot-lock hold, widening races with cancel_fd and the
    // submit path.
    const inject::Outcome fault =
        inject::probe(inject::Point::kEpollDispatch);
    if (fault.action == inject::Action::kForce) {
      update_interest(fd, *s);
      return;
    }
    inject::maybe_pause(fault);
    const bool rd_ready =
        (events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) != 0;
    const bool wr_ready = (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0;
    if (rd_ready && s->rd != nullptr) {
      // Perform the syscall now; EAGAIN (spurious wake) re-arms below.
      Op& op = *s->rd;
      const ssize_t r = do_syscall(op.kind, op.fd, op.buf, nullptr, op.len);
      if (r != -EAGAIN) {
        op.fut->set_value(r);
        done_rd = std::exchange(s->rd, nullptr);
      }
    }
    if (wr_ready && s->wr != nullptr) {
      Op& op = *s->wr;
      const ssize_t r = do_syscall(op.kind, op.fd, nullptr, op.cbuf, op.len);
      if (r != -EAGAIN) {
        op.fut->set_value(r);
        done_wr = std::exchange(s->wr, nullptr);
      }
    }
    update_interest(fd, *s);  // re-arm whatever remains (ONESHOT)
  }
  for (Op* op : {done_rd, done_wr}) {
    if (op == nullptr) continue;
    rt_.metrics().io_gauge_add(obs::IoGauge::kArmedOps, -1);
    // arg: the request id when the op was tagged (the Chrome-trace flow
    // key), otherwise the fd.
    ICILK_TRACE_RECORD(ring, obs::EventKind::kIoComplete,
                       obs::TraceEvent::kNoLevel16,
                       op->req_id != 0
                           ? static_cast<std::uint32_t>(op->req_id)
                           : static_cast<std::uint32_t>(fd));
    op->fut->complete();
    OpPool::destroy(op);
  }
}

bool IoReactor::poll_once(obs::TraceRing* ring, bool for_worker) {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  // Timers arrive through their shard timerfds, so epoll_wait can block
  // indefinitely; shutdown arrives through the (level-triggered, never
  // drained on stop) wake eventfd. SIGPROF interrupts this wait
  // un-restarted (the kernel never restarts epoll_wait), hence the
  // EINTR retry below doubles as the profiled-reactor regression edge.
  obs::prof_enter_bucket(obs::ProfBucket::kReactorWait);
  const int n = ::epoll_wait(epfd_, events, kMaxEvents, -1);
  obs::prof_enter_bucket(obs::ProfBucket::kReactorDrain);
  if (n < 0) {
    return errno == EINTR;  // empty round; a hard error ends polling
  }
  // One coalesced idle-worker wake for the whole drain: every future
  // completed below (fd events and timer fires alike) publishes its
  // resumable deque immediately, but the scheduler defers the futex
  // wake until this scope closes. Scope-based so the stop path flushes
  // too (harmlessly — stop() broadcasts anyway). When the drainer IS a
  // worker, the flush also nets out the unit of work it will take itself.
  PublishBatchScope batch(rt_.scheduler());
  for (int i = 0; i < n; ++i) {
    const std::uint64_t d = events[i].data.u64;
    if (d == kWakeMark) {
      if (stop_.load(std::memory_order_acquire)) return false;
      std::uint64_t drain;
      while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    if (d == kWorkerKickMark) {
      // Drained only by the role holder; an I/O thread may drain a STALE
      // kick (role already released — the released worker re-checks the
      // bitfield anyway) but must never eat a live one out from under the
      // adopted worker.
      if (for_worker || !worker_polling_.load(std::memory_order_seq_cst)) {
        std::uint64_t drain;
        while (::read(worker_kick_fd_, &drain, sizeof(drain)) > 0) {
        }
      }
      continue;
    }
    if ((d >> 32) == kTimerMarkHigh) {
      handle_timer(static_cast<std::size_t>(d & 0xFFFFFFFFull), ring);
      continue;
    }
    handle_event(static_cast<int>(d & 0xFFFFFFFFull),
                 static_cast<std::uint32_t>(d >> 32), events[i].events,
                 ring);
  }
  return true;
}

void IoReactor::io_thread_main(int thread_idx) {
  // Each I/O thread is the single writer of its own trace ring; injected
  // decisions on this thread are recorded into the same ring.
  obs::TraceRing* ring =
      &rt_.trace_sink().acquire_ring("io" + std::to_string(thread_idx));
  inject::set_thread_trace_ring(ring);
  // Request timelines stamp I/O-thread hops as -1-idx; the make_resumable
  // a completion triggers emits its kReqPhase record into this ring.
  obs::req_set_thread_where(-1 - thread_idx);
  obs::req_set_thread_ring(ring);
  // Sampling profiler: CPU-time timers only tick while this thread runs,
  // so the wait bucket mostly measures epoll_wait's entry/exit cost.
  obs::prof_register_thread(rt_.profiler(), obs::ProfThreadKind::kIo,
                            thread_idx);
  while (!stop_.load(std::memory_order_acquire)) {
    if (worker_polling_.load(std::memory_order_seq_cst)) {
      // A worker holds the poller role: stand by off-epoll so the herd
      // doesn't burn context switches racing the worker for events.
      // Eventcount protocol: a cover/stop landing in the announce→commit
      // window bumps the epoch, so the standby can't sleep through it;
      // the timed commit bounds the staleness of the role observation
      // (the worker releases WITHOUT notifying — coverage resumes on
      // demand via ensure_covered, or within this period at the latest).
      obs::prof_enter_bucket(obs::ProfBucket::kReactorWait);
      polling_ios_.fetch_sub(1, std::memory_order_seq_cst);
      const std::uint32_t key = standby_ec_.prepare_wait();
      if (!worker_polling_.load(std::memory_order_seq_cst) ||
          stop_.load(std::memory_order_acquire)) {
        standby_ec_.cancel_wait();
      } else {
        standby_ec_.commit_wait_for(key, kStandbyRecheckNs);
      }
      polling_ios_.fetch_add(1, std::memory_order_seq_cst);
      continue;
    }
    if (!poll_once(ring, /*for_worker=*/false)) break;
  }
  obs::prof_set_context(0);
  obs::prof_unregister_thread(rt_.profiler());
  obs::req_set_thread_ring(nullptr);
  obs::req_set_thread_where(obs::ReqHop::kNoWhere);
  inject::set_thread_trace_ring(nullptr);
}

// ---------------------------------------------------------------------------
// Worker-adopted polling (IdleIoPoller)
// ---------------------------------------------------------------------------

bool IoReactor::try_adopt() {
  if (stop_.load(std::memory_order_acquire)) return false;
  bool expected = false;
  if (!worker_polling_.compare_exchange_strong(expected, true,
                                               std::memory_order_seq_cst)) {
    return false;
  }
  // Publisher-visible hint BEFORE the caller's predicate re-check: a
  // publisher that misses the hint (loads false) ordered its bit set
  // before this store, so the adopting worker's re-check sees the bit; a
  // publisher that sees the hint kicks the (persistent) eventfd. Either
  // way no wake is lost. I/O threads drift to standby on their next
  // natural wakeup — no eager kick; a transient double-poll is harmless
  // (EPOLLONESHOT arms each fd for one deliveree).
  rt_.set_worker_poller_active(true);
  worker_polls_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool IoReactor::poll_adopted() {
  Worker* w = this_worker();
  return poll_once(w != nullptr ? w->trace : nullptr, /*for_worker=*/true);
}

void IoReactor::release_adopted() {
  // Drain the kick channel before dropping the role: kicks aimed at this
  // tenure must not fire a spurious epoll wake at the next poller. A kick
  // racing this window survives as a stale readable fd that the next
  // poller drains; the releasing worker re-checks the bitfield on return,
  // so the signal the kick carried is re-observed there.
  std::uint64_t drain;
  while (::read(worker_kick_fd_, &drain, sizeof(drain)) > 0) {
  }
  rt_.set_worker_poller_active(false);
  worker_polling_.store(false, std::memory_order_seq_cst);
  // Deliberately NO standby notify here: the releasing worker is leaving
  // to execute the work it just drained, and at low load it re-adopts
  // right after — waking an I/O thread per request would put a futex
  // round-trip back on every handover (measured: it costs ~4x at fig1
  // p50 on the 1-core bench host). Coverage while workers stay busy is
  // demand-driven instead: ensure_covered() on every arm/timer, the
  // scheduler's surplus flush via cover(), and the timed standby re-check
  // as the bound on all lost races.
}

void IoReactor::kick() {
  if (!worker_polling_.load(std::memory_order_seq_cst)) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(worker_kick_fd_, &one, sizeof(one));
}

void IoReactor::cover() {
  // Scheduler-side burst hint: called while the worker-poller is still
  // mid-flush (role not yet released), so no role check here — just put
  // one standing-by I/O thread back on the epoll. If it observes the role
  // still held it re-parks, and the timed standby bounds that stale
  // observation.
  standby_ec_.notify_one();
}

void IoReactor::ensure_covered() {
  if (worker_polling_.load(std::memory_order_seq_cst)) return;
  if (polling_ios_.load(std::memory_order_seq_cst) > 0) return;
  // Everyone is standing by and no worker polls: new epoll interest was
  // just made visible with nobody to harvest it. Resume one I/O thread.
  // A thread that decremented polling_ios_ but has not yet announced on
  // the eventcount can miss this notify — that lost race is bounded by
  // the standby period, not by request latency, and is the documented
  // trade for keeping this check off the no-contention fast path.
  standby_ec_.notify_one();
}

}  // namespace icilk
