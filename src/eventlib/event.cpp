#include "eventlib/event.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "concurrent/clock.hpp"

namespace icilk::ev {

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

void Event::add() {
  has_timeout_ = false;
  pending_ = true;
  if (fd_ >= 0) base_->update_epoll(this, true);
}

void Event::add(std::chrono::milliseconds timeout) {
  pending_ = true;
  has_timeout_ = true;
  timeout_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
  deadline_ns = icilk::now_ns() + timeout_ns;
  ++timer_gen;
  base_->timers_.push(
      EventBase::TimerRef{deadline_ns, this, timer_gen});
  if (fd_ >= 0) base_->update_epoll(this, true);
}

void Event::del() {
  pending_ = false;
  ++timer_gen;  // invalidate any heap entry
  if (fd_ >= 0) base_->update_epoll(this, false);
}

// ---------------------------------------------------------------------------
// EventBase
// ---------------------------------------------------------------------------

EventBase::EventBase() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epfd_ < 0 || wake_fd_ < 0) {
    std::perror("eventlib: setup");
    std::abort();
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventBase::~EventBase() {
  ::close(wake_fd_);
  ::close(epfd_);
}

Event* EventBase::new_event(int fd, short what, Event::Callback cb) {
  owned_.push_back(
      std::unique_ptr<Event>(new Event(this, fd, what, std::move(cb))));
  return owned_.back().get();
}

void EventBase::free_event(Event* ev) {
  ev->del();
  // Purge timer heap entries that point at the dying event: the staleness
  // check in run_timers dereferences TimerRef::ev, which must not dangle.
  if (!timers_.empty()) {
    std::vector<TimerRef> keep;
    keep.reserve(timers_.size());
    while (!timers_.empty()) {
      if (timers_.top().ev != ev) keep.push_back(timers_.top());
      timers_.pop();
    }
    timers_ = decltype(timers_)(std::greater<TimerRef>(), std::move(keep));
  }
  if (ev == in_callback_) {
    // Freed from its own callback: destroying the Event now would destroy
    // the std::function currently executing. run_callback erases it once
    // the callback returns.
    free_deferred_ = true;
    return;
  }
  erase_owned(ev);
}

void EventBase::erase_owned(Event* ev) {
  for (auto it = owned_.begin(); it != owned_.end(); ++it) {
    if (it->get() == ev) {
      owned_.erase(it);
      return;
    }
  }
}

void EventBase::run_callback(Event* ev, int fd, short what) {
  ++dispatched_;
  in_callback_ = ev;
  ev->cb_(fd, what);
  in_callback_ = nullptr;
  if (free_deferred_) {
    free_deferred_ = false;
    erase_owned(ev);
  }
}

void EventBase::update_epoll(Event* ev, bool want) {
  const int fd = ev->fd();
  if (want) {
    epoll_event e{};
    e.data.fd = fd;
    if (ev->interest() & kRead) e.events |= EPOLLIN | EPOLLRDHUP;
    if (ev->interest() & kWrite) e.events |= EPOLLOUT;
    auto [it, inserted] = by_fd_.try_emplace(fd, ev);
    assert(it->second == ev && "one Event per fd");
    if (::epoll_ctl(epfd_, inserted ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                    &e) != 0) {
      // fd may have been closed+reused behind our back; try the other op.
      ::epoll_ctl(epfd_, inserted ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &e);
    }
  } else {
    if (by_fd_.erase(fd) > 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    }
  }
}

int EventBase::run_timers() {
  const std::uint64_t now = icilk::now_ns();
  for (;;) {
    if (timers_.empty()) return -1;
    TimerRef top = timers_.top();
    if (top.gen != top.ev->timer_gen || !top.ev->pending()) {
      timers_.pop();  // stale
      continue;
    }
    if (top.deadline_ns > now) {
      return static_cast<int>((top.deadline_ns - now) / 1000000) + 1;
    }
    timers_.pop();
    Event* ev = top.ev;
    if (ev->interest() & kPersist) {
      ev->deadline_ns = now + ev->timeout_ns;
      ++ev->timer_gen;
      timers_.push(TimerRef{ev->deadline_ns, ev, ev->timer_gen});
    } else {
      ev->del();
    }
    run_callback(ev, ev->fd(), kTimeout);
    if (stop_.load(std::memory_order_acquire)) return -1;
  }
}

void EventBase::dispatch() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int timeout = run_timers();
    if (stop_.load(std::memory_order_acquire)) break;
    const int n =
        ::epoll_wait(epfd_, events, kMaxEvents, timeout < 0 ? 200 : timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Dispatch in kernel order: this is the implicit aging heuristic.
    for (int i = 0; i < n && !stop_.load(std::memory_order_acquire); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = by_fd_.find(fd);
      if (it == by_fd_.end()) continue;  // deleted by an earlier callback
      Event* ev = it->second;
      short what = 0;
      if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) {
        what |= kRead;
      }
      if (events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) what |= kWrite;
      what = static_cast<short>(what & (ev->interest() | kRead));
      if (what == 0) continue;
      if (!(ev->interest() & kPersist)) ev->del();
      run_callback(ev, fd, what);
    }
  }
  // Consume the break on the way out, never on the way in: a loopbreak()
  // that lands before this thread reaches dispatch() must still stop it.
  stop_.store(false, std::memory_order_release);
}

void EventBase::loopbreak() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace icilk::ev
