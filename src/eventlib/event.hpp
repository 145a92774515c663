// eventlib: a minimal libevent-equivalent, built for the PTHREAD BASELINE.
//
// The original Memcached (Section 3 of the paper) is event-driven: each
// worker thread runs a libevent loop; per-connection callbacks encode a
// request state machine; blocked I/O returns to the loop and the callback
// fires again when the fd is ready. Two properties matter for the paper's
// argument and are preserved here:
//
//   1. Implicit aging — the kernel reports readiness in arrival order and
//      the loop dispatches callbacks in exactly the order epoll returns
//      them, so connections are serviced roughly oldest-ready-first.
//   2. Asynchronous everything — a callback must never block; it processes
//      what is available and re-arms.
//
// Model (subset of libevent sufficient for the baseline + load clients):
//   * one EventBase per thread; dispatch() runs the loop on that thread;
//   * one Event per fd (READ and/or WRITE interest), or fd = -1 for pure
//     timers; PERSIST re-arms automatically, otherwise one-shot;
//   * add/del/free must be called on the loop thread (libevent's own rule
//     without locking); loopbreak() is the only cross-thread call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace icilk::ev {

enum : short {
  kRead = 0x1,
  kWrite = 0x2,
  kTimeout = 0x4,
  kPersist = 0x8,
};

class EventBase;

class Event {
 public:
  using Callback = std::function<void(int fd, short what)>;

  int fd() const noexcept { return fd_; }
  short interest() const noexcept { return what_; }
  bool pending() const noexcept { return pending_; }

  /// Changes interest flags; takes effect at the next add().
  void set_interest(short what) noexcept { what_ = what; }

  /// Arms the event (with optional timeout). Loop-thread only.
  void add();
  void add(std::chrono::milliseconds timeout);
  /// Disarms. Loop-thread only.
  void del();

 private:
  friend class EventBase;
  Event(EventBase* base, int fd, short what, Callback cb)
      : base_(base), fd_(fd), what_(what), cb_(std::move(cb)) {}

  EventBase* base_;
  int fd_;
  short what_;
  Callback cb_;
  bool pending_ = false;
  bool has_timeout_ = false;
  std::uint64_t deadline_ns = 0;
  std::uint64_t timeout_ns = 0;
  std::uint64_t timer_gen = 0;  // invalidates stale heap entries
};

class EventBase {
 public:
  EventBase();
  ~EventBase();

  EventBase(const EventBase&) = delete;
  EventBase& operator=(const EventBase&) = delete;

  /// Creates an event owned by the base (freed with free_event or at base
  /// destruction). fd = -1 for a pure timer.
  Event* new_event(int fd, short what, Event::Callback cb);
  void free_event(Event* ev);

  /// Runs the loop until loopbreak(). Dispatches fd callbacks in kernel
  /// readiness order (the implicit aging property).
  void dispatch();

  /// Stops the loop; safe from any thread. A break issued before the loop
  /// starts makes the next dispatch() return at once; dispatch() consumes
  /// the break when it returns.
  void loopbreak();

  std::uint64_t dispatched_for_test() const noexcept { return dispatched_; }

 private:
  friend class Event;

  struct TimerRef {
    std::uint64_t deadline_ns;
    Event* ev;
    std::uint64_t gen;
    bool operator>(const TimerRef& o) const {
      return deadline_ns > o.deadline_ns;
    }
  };

  void update_epoll(Event* ev, bool want);
  int run_timers();  // fires due timers; returns ms to next (-1 = none)
  /// Invokes ev's callback with self-free deferral: a callback may call
  /// free_event on its own event (libevent idiom), which must not destroy
  /// the closure while it is executing.
  void run_callback(Event* ev, int fd, short what);
  void erase_owned(Event* ev);

  int epfd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::unordered_map<int, Event*> by_fd_;
  std::vector<std::unique_ptr<Event>> owned_;
  std::priority_queue<TimerRef, std::vector<TimerRef>, std::greater<TimerRef>>
      timers_;
  std::uint64_t dispatched_ = 0;
  Event* in_callback_ = nullptr;  // event whose callback is running
  bool free_deferred_ = false;    // that event freed itself; erase after
};

}  // namespace icilk::ev
