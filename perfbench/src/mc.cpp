// minicached workloads. One generator thread drives the server over
// loopback TCP: it spins to each request's due time, sends it on one of
// four pipelined connections, and between due times reads and checks the
// responses. Keys are partitioned across connections (key % 4), and the
// server answers each connection in order, so the generator always knows
// the exact value a get must return. A response's latency runs from its
// request's due time to the kernel's receive timestamp on the generator's
// socket, so time the generator spends before it reads is not counted.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/memcached/icilk_server.hpp"
#include "concurrent/rng.hpp"
#include "core/api.hpp"
#include "net/socket.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

struct Profile {
  double rps;
  std::uint32_t keys;
  std::uint32_t get_per_mille;
  std::uint32_t min_value, max_value;
  std::size_t max_bytes;  ///< the server store's eviction budget
  bool misses_allowed;    ///< only where sets evict
  double limit_ms;        ///< goodput latency limit
};

// mc_read: gets of 100 B values over a keyspace (~8 MB with item overhead)
// that fits the 64 MB store, so every get hits and nothing is evicted.
// mc_write: mostly sets of 256..1024 B values (so hits take the vectored
// write path) over ~21 MB of values against an 8 MB budget, so sets evict.
constexpr Profile kRead{60000, 50000, 950, 100, 100, 64u << 20,
                        false, 10};
constexpr Profile kWrite{60000, 32768, 300, 256, 1024, 8u << 20,
                         true, 10};

constexpr std::size_t kSetupDepth = 32;        // per connection, closed loop
constexpr std::uint64_t kPollSlackNs = 4000;   // poll only this far ahead
constexpr std::uint64_t kWarmRequests = 20000;
constexpr std::uint64_t kDrainNs = 3'000'000'000;

enum class Kind : std::uint8_t { Get, Set };
enum Phase : int { kSetup = 0, kMeasured = 1, kReadback = 2 };

std::uint32_t value_len(const Profile& p, std::uint32_t key) {
  if (p.max_value == p.min_value) return p.min_value;
  return p.min_value +
         static_cast<std::uint32_t>(mix64(key) % (p.max_value - p.min_value + 1));
}

// A value names its key and version in its first 16 bytes and derives the
// rest from them, so any hit can be checked byte for byte on its own.
void fill_value(char* out, std::uint32_t key, std::uint32_t ver,
                std::uint32_t len) {
  static const char kHex[] = "0123456789abcdef";
  char head[16];
  for (int i = 0; i < 8; ++i) head[i] = kHex[(key >> (28 - 4 * i)) & 15];
  for (int i = 0; i < 8; ++i) head[8 + i] = kHex[(ver >> (28 - 4 * i)) & 15];
  std::memcpy(out, head, std::min<std::uint32_t>(16, len));
  std::uint64_t x = (std::uint64_t{key} << 32) | ver;
  for (std::uint32_t off = 16; off < len; off += 8) {
    x = mix64(x);
    std::memcpy(out + off, &x, std::min<std::uint32_t>(8, len - off));
  }
}

int key_str(char* out, std::uint32_t key) {
  return std::snprintf(out, 16, "k%u", key);
}

struct Req {
  std::uint64_t at_ns;
  std::uint32_t key;
  Kind kind;
};

std::vector<Req> make_schedule(const Profile& p, std::uint64_t seed,
                               double seconds) {
  const auto at = poisson_offsets(p.rps, seconds, seed);
  icilk::Xoshiro256 rng(seed, 7);
  std::vector<Req> out;
  out.reserve(at.size());
  for (const std::uint64_t t : at) {
    const std::uint32_t key = rng.bounded(p.keys);
    const Kind kind =
        rng.bounded(1000) < p.get_per_mille ? Kind::Get : Kind::Set;
    out.push_back(Req{t, key, kind});
  }
  return out;
}

/// The generator's side of the connections: sends requests, parses and
/// checks responses, and files each result into the current phase.
class Client {
 public:
  struct PhaseCounts {
    std::uint64_t ok = 0, failed = 0, hits = 0, misses = 0;
  };

  Client(const Profile& p, int port) : p_(p), ver_(p.keys, 0) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (int i = 0; i < kMcConnections; ++i) {
      Conn& c = conns_[i];
      c.fd = icilk::net::connect_tcp(static_cast<std::uint16_t>(port));
      if (c.fd < 0 || ep_ < 0) {
        std::fprintf(stderr, "perfbench: connect failed: %d\n", c.fd);
        std::abort();
      }
      icilk::net::set_nonblocking(c.fd);
      icilk::net::set_nodelay(c.fd);
      const int one = 1;
      ::setsockopt(c.fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
      c.rbuf.resize(1 << 20);
      c.pending.resize(kRing);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev);
    }
    sbuf_.resize(2048);
    expect_.resize(2048);
  }

  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (ep_ >= 0) ::close(ep_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void set_window(Window* w, double limit_ms) {
    win_ = w;
    limit_ns_ = static_cast<std::uint64_t>(limit_ms * 1e6);
  }

  void send(std::uint32_t key, Kind kind, std::uint64_t due, Phase ph) {
    Conn& c = conns_[key % kMcConnections];
    if (c.tail - c.head == kRing) {  // server stalled for seconds: give up
      ++outstanding_;
      complete(Pending{due, key, ver_[key], kind, ph}, false, 0);
      ++unanswered;
      return;
    }
    char* b = sbuf_.data();
    int n = 0;
    std::uint32_t ver = ver_[key];
    if (kind == Kind::Get) {
      n = std::snprintf(b, 32, "get k%u\r\n", key);
    } else {
      ver = ++ver_[key];
      const std::uint32_t len = value_len(p_, key);
      n = std::snprintf(b, 64, "set k%u 0 0 %u\r\n", key, len);
      fill_value(b + n, key, ver, len);
      n += static_cast<int>(len);
      b[n++] = '\r';
      b[n++] = '\n';
    }
    c.pending[c.tail++ & (kRing - 1)] = Pending{due, key, ver, kind, ph};
    ++outstanding_;
    write(c, b, static_cast<std::size_t>(n));
  }

  /// One non-blocking pass over the connections. Returns true if any
  /// response was read.
  bool poll() {
    for (Conn& c : conns_) {
      if (!c.wpend.empty()) flush(c);
    }
    epoll_event evs[kMcConnections];
    const int n = ::epoll_wait(ep_, evs, kMcConnections, 0);
    bool any = false;
    for (int i = 0; i < n; ++i) {
      Conn& c = conns_[evs[i].data.u32];
      if (c.rpos == c.rlen) c.rpos = c.rlen = 0;
      if (c.rbuf.size() - c.rlen < (64u << 10)) {
        std::memmove(c.rbuf.data(), c.rbuf.data() + c.rpos, c.rlen - c.rpos);
        c.rlen -= c.rpos;
        c.rpos = 0;
        if (c.rbuf.size() - c.rlen < (64u << 10)) c.rbuf.resize(c.rbuf.size() * 2);
      }
      iovec iov{c.rbuf.data() + c.rlen, c.rbuf.size() - c.rlen};
      alignas(cmsghdr) char ctl[CMSG_SPACE(sizeof(timespec))];
      msghdr mh{};
      mh.msg_iov = &iov;
      mh.msg_iovlen = 1;
      mh.msg_control = ctl;
      mh.msg_controllen = sizeof(ctl);
      const ssize_t r = ::recvmsg(c.fd, &mh, 0);
      if (r > 0) {
        c.rlen += static_cast<std::size_t>(r);
        const std::uint64_t at = arrival_ns(mh);
        while (parse(c, at)) {
        }
        any = true;
      } else if (r == 0 || (errno != EAGAIN && errno != EINTR)) {
        broken(c);
      }
    }
    return any;
  }

  std::size_t outstanding() const { return outstanding_; }
  std::size_t outstanding(std::uint32_t key) const {
    const Conn& c = conns_[key % kMcConnections];
    return c.tail - c.head;
  }

  /// Polls until every request is answered or `deadline_ns` passes; the
  /// unanswered ones then count as failed. Returns true if all answered.
  bool drain(std::uint64_t deadline_ns) {
    while (outstanding_ != 0 && now_ns() < deadline_ns) poll();
    if (outstanding_ == 0) return true;
    for (Conn& c : conns_) {
      while (c.head != c.tail) {
        complete(c.pending[c.head++ & (kRing - 1)], false, 0);
        ++unanswered;
      }
    }
    return false;
  }

  /// Closed-loop phase: at most kSetupDepth requests in flight per
  /// connection, as fast as the server answers.
  template <typename Next>
  void closed_loop(std::uint64_t n, Phase ph, Next next) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto [key, kind] = next(i);
      while (outstanding(key) >= kSetupDepth) poll();
      send(key, kind, now_ns(), ph);
    }
    drain(now_ns() + kDrainNs * 3);
  }

  PhaseCounts counts[3];
  std::uint64_t unanswered = 0;
  std::uint64_t protocol_errors = 0;  ///< unparseable or unexpected bytes
  std::uint64_t hit_mismatches = 0;   ///< a hit whose bytes were wrong

 private:
  static constexpr std::size_t kRing = 1 << 16;

  struct Pending {
    std::uint64_t due;
    std::uint32_t key;
    std::uint32_t ver;  ///< set: version written; get: version expected
    Kind kind;
    Phase phase;
  };

  struct Conn {
    int fd = -1;
    bool dead = false;
    std::vector<char> rbuf;
    std::size_t rpos = 0, rlen = 0;
    std::string wpend;
    std::vector<Pending> pending;  // ring, head..tail
    std::size_t head = 0, tail = 0;
  };

  /// The kernel's receive timestamp of the data `mh` read, moved from the
  /// realtime clock to the steady clock the due times use; the current
  /// time if the kernel gave none.
  static std::uint64_t arrival_ns(msghdr& mh) {
    const std::uint64_t now = now_ns();
    for (cmsghdr* cm = CMSG_FIRSTHDR(&mh); cm != nullptr;
         cm = CMSG_NXTHDR(&mh, cm)) {
      if (cm->cmsg_level != SOL_SOCKET || cm->cmsg_type != SCM_TIMESTAMPNS) {
        continue;
      }
      timespec ts{}, rt{};
      std::memcpy(&ts, CMSG_DATA(cm), sizeof(ts));
      clock_gettime(CLOCK_REALTIME, &rt);
      const auto ns = [](const timespec& t) {
        return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
      };
      const std::int64_t age = ns(rt) - ns(ts);
      if (age >= 0 && static_cast<std::uint64_t>(age) < now) {
        return now - static_cast<std::uint64_t>(age);
      }
    }
    return now;
  }

  void write(Conn& c, const char* b, std::size_t n) {
    if (c.dead) return;
    if (!c.wpend.empty()) {
      c.wpend.append(b, n);
      flush(c);
      return;
    }
    const ssize_t w = ::send(c.fd, b, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w == static_cast<ssize_t>(n)) return;
    if (w < 0 && errno != EAGAIN && errno != EINTR) {
      broken(c);
      return;
    }
    const std::size_t done = w > 0 ? static_cast<std::size_t>(w) : 0;
    c.wpend.append(b + done, n - done);
  }

  void flush(Conn& c) {
    const ssize_t w = ::send(c.fd, c.wpend.data(), c.wpend.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      c.wpend.erase(0, static_cast<std::size_t>(w));
    } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
      broken(c);
    }
  }

  void broken(Conn& c) {
    if (c.dead) return;
    c.dead = true;
    ++protocol_errors;
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
  }

  /// Consumes one complete response from `c`; false if more bytes needed.
  bool parse(Conn& c, std::uint64_t now) {
    const char* d = c.rbuf.data() + c.rpos;
    const std::size_t avail = c.rlen - c.rpos;
    if (avail == 0) return false;
    if (c.head == c.tail) {  // bytes nobody asked for
      ++protocol_errors;
      c.rpos = c.rlen;
      return false;
    }
    const char* eol =
        static_cast<const char*>(::memmem(d, avail, "\r\n", 2));
    if (eol == nullptr) return false;
    const std::string_view line(d, static_cast<std::size_t>(eol - d));
    const Pending& p = c.pending[c.head & (kRing - 1)];
    if (p.kind == Kind::Set || line == "END" ||
        line.substr(0, 6) != "VALUE ") {
      bool ok = false, miss = false;
      if (p.kind == Kind::Set) {
        ok = line == "STORED";
      } else if (line == "END") {
        miss = true;
        ok = p_.misses_allowed;
      }
      if (!ok && !miss) ++protocol_errors;
      c.rpos += line.size() + 2;
      ++c.head;
      complete(p, ok, now);
      if (miss) ++counts[p.phase].misses;
      return true;
    }
    // VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n
    unsigned key = 0, flags = 0, bytes = 0;
    if (std::sscanf(line.data() + 6, "k%u %u %u", &key, &flags, &bytes) != 3) {
      ++protocol_errors;
      c.rpos += line.size() + 2;
      ++c.head;
      complete(p, false, now);
      return true;
    }
    const std::size_t total = line.size() + 2 + bytes + 7;
    if (avail < total) return false;
    const char* data = d + line.size() + 2;
    const std::uint32_t len = value_len(p_, p.key);
    bool ok = key == p.key && bytes == len &&
              std::memcmp(data + bytes, "\r\nEND\r\n", 7) == 0;
    if (ok) {
      fill_value(expect_.data(), p.key, p.ver, len);
      ok = std::memcmp(data, expect_.data(), len) == 0;
    }
    if (!ok) ++hit_mismatches;
    c.rpos += total;
    ++c.head;
    ++counts[p.phase].hits;
    complete(p, ok, now);
    return true;
  }

  void complete(const Pending& p, bool ok, std::uint64_t now) {
    --outstanding_;
    PhaseCounts& pc = counts[p.phase];
    if (ok) {
      ++pc.ok;
    } else {
      ++pc.failed;
    }
    if (p.phase != kMeasured || win_ == nullptr) return;
    if (!ok) {
      ++win_->failed;
      return;
    }
    const std::uint64_t lat_ns = now > p.due ? now - p.due : 0;
    const double lat = static_cast<double>(lat_ns);
    Slice& sl = win_->slice_of(p.due);
    ++win_->completed;
    ++sl.completed;
    sl.lat_ns.push_back(lat);
    (p.kind == Kind::Get ? sl.top_ns : sl.bottom_ns).push_back(lat);
    if (lat_ns <= limit_ns_) ++sl.within_limit;
  }

  const Profile& p_;
  int ep_ = -1;
  Conn conns_[kMcConnections];
  std::vector<std::uint32_t> ver_;  ///< latest version written per key
  std::vector<char> sbuf_, expect_;
  std::size_t outstanding_ = 0;
  Window* win_ = nullptr;
  std::uint64_t limit_ns_ = 0;
};

struct Server {
  std::unique_ptr<icilk::apps::ICilkMcServer> srv;
  std::unique_ptr<Client> cl;
  double setup_s = 0;
};

/// Starts a server, preloads every key and warms it up to steady state
/// with the workload's own mix, closed loop.
Server start(const Profile& p, std::uint64_t seed) {
  Server s;
  const std::uint64_t t0 = now_ns();
  icilk::apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = kWorkers;
  cfg.rt.num_io_threads = kMcIoThreads;
  cfg.store.max_bytes = p.max_bytes;
  s.srv = std::make_unique<icilk::apps::ICilkMcServer>(
      cfg, icilk::make_scheduler("prompt"));
  s.cl = std::make_unique<Client>(p, s.srv->port());
  s.cl->closed_loop(p.keys, kSetup, [](std::uint64_t i) {
    return std::pair{static_cast<std::uint32_t>(i), Kind::Set};
  });
  icilk::Xoshiro256 rng(seed, 11);
  s.cl->closed_loop(kWarmRequests, kSetup, [&](std::uint64_t) {
    const std::uint32_t key = rng.bounded(p.keys);
    return std::pair{key, rng.bounded(1000) < p.get_per_mille ? Kind::Get
                                                               : Kind::Set};
  });
  s.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

void stop(Server& s) {
  s.cl.reset();  // EOF ends the connection routines
  s.srv.reset();
}

/// Runs one open-loop window of `sched`; `tr` (traced run only) fires the
/// in-window probes between requests.
void run_window(const Profile& p, Client& cl, const std::vector<Req>& sched,
                double seconds, Window& w, WindowTracer* tr) {
  w.init(seconds, sched.size());
  cl.set_window(&w, p.limit_ms);
  const SliceClock start = SliceClock::read();
  SliceClock prev = start;
  std::size_t k = 0;  // slice being sent
  std::uint64_t busy = 0;
  w.t0 = now_ns() + 1'000'000;
  for (const Req& r : sched) {
    while (k + 1 < w.slices.size() && r.at_ns >= (k + 1) * kSliceNs) {
      const SliceClock c = SliceClock::read();
      SliceClock::close(prev, c, w.slices[k++]);
      prev = c;
    }
    const std::uint64_t due = w.t0 + r.at_ns;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= due) break;
      if (due - now < kPollSlackNs) {
        __builtin_ia32_pause();
        continue;
      }
      if (tr != nullptr) tr->tick(now);
      if (cl.outstanding() != 0 && cl.poll()) busy += now_ns() - now;
    }
    const std::uint64_t ts = now_ns();
    w.late_ns.push_back(static_cast<double>(ts - due));
    cl.send(r.key, r.kind, due, kMeasured);
    busy += now_ns() - ts;
  }
  cl.drain(now_ns() + kDrainNs);
  const SliceClock end = SliceClock::read();
  SliceClock::close(prev, end, w.slices[k]);
  w.gen_busy_s = static_cast<double>(busy) * 1e-9;
  w.steal_frac = StealClock::frac(start.steal, end.steal);
  cl.set_window(nullptr, p.limit_ms);
}

KvInputs kv_inputs(const Profile& p, std::uint64_t seed) {
  KvInputs in;
  in.store.max_bytes = p.max_bytes;
  std::vector<char> v(p.max_value);
  char k[16];
  for (std::uint32_t key = 0; key < p.keys; ++key) {
    in.keys.emplace_back(k, static_cast<std::size_t>(key_str(k, key)));
    const std::uint32_t len = value_len(p, key);
    fill_value(v.data(), key, 1, len);
    in.values.emplace_back(v.data(), len);
  }
  // The first 1024 requests of the workload's schedule, as sent.
  const auto sched = make_schedule(p, seed, 1024.0 / p.rps * 1.5);
  for (std::size_t i = 0; i < sched.size() && i < 1024; ++i) {
    const Req& r = sched[i];
    if (r.kind == Kind::Get) {
      in.wire += "get " + in.keys[r.key] + "\r\n";
    } else {
      in.wire += "set " + in.keys[r.key] + " 0 0 " +
                 std::to_string(in.values[r.key].size()) + "\r\n" +
                 in.values[r.key] + "\r\n";
    }
    ++in.wire_requests;
  }
  return in;
}

}  // namespace

KvInputs mc_read_kv_inputs(std::uint64_t seed) {
  return kv_inputs(kRead, seed);
}

Report run_mc(const Options& o) {
  const Profile& p = o.workload == "mc_write" ? kWrite : kRead;
  Report r;
  const double win_s = window_seconds(o);
  const std::vector<Req> sched = make_schedule(p, o.seed, win_s);
  const int windows = o.trace ? 2 : 1;
  r.attempted = sched.size() * static_cast<std::size_t>(windows);
  std::printf("# plan attempted=%llu\n",
              static_cast<unsigned long long>(r.attempted));
  std::fflush(stdout);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host workers=%d io_threads=%d generator_threads=1 "
                "connections=%d cores=%d rps=%.0f",
                kWorkers, kMcIoThreads, kMcConnections, online_cores(), p.rps);
  r.info(buf);

  // Set-up is repeated and its median reported; the last server is kept.
  std::vector<double> setups;
  Server s;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    if (s.srv) stop(s);
    s = start(p, o.seed + static_cast<std::uint64_t>(rep));
    setups.push_back(s.setup_s);
  }
  Client& cl = *s.cl;
  icilk::kv::Store& store = s.srv->store();
  icilk::Runtime& rt = s.srv->runtime();

  Window w;
  const icilk::kv::StoreStats kv0 = store.stats();
  const Counters c0 = Counters::read(rt);
  run_window(p, cl, sched, win_s, w, nullptr);
  const Counters c1 = Counters::read(rt);
  const icilk::kv::StoreStats kv1 = store.stats();

  Window traced;
  std::unique_ptr<WindowTracer> tracer;
  if (o.trace) {
    const icilk::apps::ICilkMcServer::Config cfg;  // the priorities start() used
    tracer = std::make_unique<WindowTracer>(rt, &s.srv->reactor(),
                                            cfg.conn_priority, cfg.bg_priority);
    run_window(p, cl, sched, win_s, traced, tracer.get());
    r.check(tracer->finish(), "probes_completed");
  }

  // Readback: every key once, after the window.
  cl.closed_loop(p.keys, kReadback, [](std::uint64_t i) {
    return std::pair{static_cast<std::uint32_t>(i), Kind::Get};
  });

  r.failed = w.failed + traced.failed;
  r.check(w.attempted == w.completed + w.failed &&
              traced.attempted == traced.completed + traced.failed,
          "accounting attempted=completed+failed");
  r.check(r.failed == 0, "requests_failed=" + std::to_string(r.failed));
  r.check(cl.unanswered == 0, "unanswered=" + std::to_string(cl.unanswered));
  r.check(cl.hit_mismatches == 0 && cl.protocol_errors == 0,
          "hits_byte_for_byte mismatches=" +
              std::to_string(cl.hit_mismatches) +
              " protocol_errors=" + std::to_string(cl.protocol_errors));
  r.check(cl.counts[kSetup].failed == 0,
          "setup_requests failed=" + std::to_string(cl.counts[kSetup].failed));
  r.check(cl.counts[kReadback].failed == 0 &&
              cl.counts[kReadback].ok == p.keys,
          "readback keys=" + std::to_string(p.keys) + " hits=" +
              std::to_string(cl.counts[kReadback].hits) +
              " failed=" + std::to_string(cl.counts[kReadback].failed));
  const std::uint64_t evictions = kv1.evictions - kv0.evictions;
  const std::uint64_t hits = kv1.get_hits - kv0.get_hits;
  const std::uint64_t misses = kv1.get_misses - kv0.get_misses;
  const std::uint64_t sets = kv1.sets - kv0.sets;
  if (p.misses_allowed) {
    r.check(evictions > 0, "sets_evict evictions=" + std::to_string(evictions));
  } else {
    r.check(evictions == 0 && misses == 0,
            "store_fits evictions=" + std::to_string(evictions) +
                " misses=" + std::to_string(misses));
  }

  r.info(worker_time_line(c0, c1, kWorkers, w.seconds));
  const double setup_s = setup_median(r, setups);
  if (!o.trace) {
    end_to_end_metrics(r, w, setup_s);
    return r;
  }

  // Traced run: counters from the untraced window, timings from the traced
  // one, tracing cost from the two windows side by side.
  double lat_sum = 0;
  for (const Slice& sl : w.slices) {
    for (const double x : sl.lat_ns) lat_sum += x;
  }
  counter_metrics(r, c0, c1, w.completed, lat_sum);
  r.metric("kv.hit_frac",
           hits + misses == 0 ? 0 : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses),
           "frac");
  r.metric("kv.evictions_per_set",
           sets == 0 ? 0 : static_cast<double>(evictions) /
                               static_cast<double>(sets),
           "1/set");
  tracer->report(r);
  kv_metrics(r, kv_inputs(p, o.seed), false);
  concurrent_metrics(r);
  obs_tax_metrics(r);
  apps_metrics(r, o.seed);
  load_metrics(r, w);
  trace_overhead_metrics(r, w, traced);
  return r;
}

}  // namespace pb
