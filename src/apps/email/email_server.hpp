// The email server benchmark (Section 5): a multi-user email service with
// operations at three priority levels, highest to lowest:
//
//     send     (highest) — deliver a message into a user's mailbox
//     sort                — sort a user's mailbox
//     compress + print (equal, lowest) — LZSS-compress stored messages /
//                           decompress-and-format them
//
// Requests are injected by the load generator with open-loop timestamps
// (in-process injection substitutes for the paper's 20 client cores; see
// DESIGN.md) and run as I-Cilk tasks at their operation's priority. The
// completion handler records latency from the SCHEDULED arrival, so
// queueing under overload is visible — this is what Figures 5's tails
// measure.
//
// The workload shape matches the paper's characterization: mostly
// sequential tasks, created in bursts, with little intra-task parallelism.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "concurrent/spinlock.hpp"
#include "core/runtime.hpp"
#include "load/histogram.hpp"
#include "net/metrics_http.hpp"

namespace icilk::apps {

enum class EmailOp : int { Send = 0, Sort = 1, Compress = 2, Print = 3 };
inline constexpr int kEmailOpCount = 4;
const char* email_op_name(EmailOp op);

class EmailServer {
 public:
  struct Config {
    RuntimeConfig rt;       ///< rt.num_levels >= 3
    int num_users = 64;
    int body_bytes = 2048;  ///< message size (drives compress/print cost)
    int max_mailbox = 128;  ///< per-user cap (bounds sort cost)
    int batch = 4;          ///< messages per compress/print op
    std::uint64_t seed = 42;
    Priority send_priority = 2;
    Priority sort_priority = 1;
    Priority compress_priority = 0;
    Priority print_priority = 0;
    /// HTTP exposition endpoint (GET /metrics, GET /latency) with a small
    /// private reactor: -1 = disabled, 0 = ephemeral port, else fixed.
    int metrics_port = -1;
  };

  /// A null `sched` selects the policy from $ICILK_SCHEDULER (default
  /// "prompt") via make_scheduler_or_default.
  EmailServer(const Config& cfg, std::unique_ptr<Scheduler> sched = nullptr);
  ~EmailServer();

  EmailServer(const EmailServer&) = delete;
  EmailServer& operator=(const EmailServer&) = delete;

  /// Schedules one operation for `user`; `arrival_ns` is the open-loop
  /// timestamp latency is measured from. Thread-safe.
  void inject(EmailOp op, int user, std::uint64_t arrival_ns);

  /// Blocks until every injected operation's task finished, its implicit
  /// end-of-task sync included.
  void drain();

  load::Histogram& histogram(EmailOp op) {
    return hist_[static_cast<int>(op)];
  }
  Runtime& runtime() noexcept { return *rt_; }
  Priority priority_of(EmailOp op) const;
  /// Port of the HTTP exposition endpoint; 0 when disabled.
  int metrics_port() const noexcept;

  /// Total messages currently stored (tests/sanity).
  std::size_t total_messages() const;

 private:
  struct Message {
    std::uint64_t id = 0;
    std::uint32_t subject = 0;  // sort key
    std::string body;
    bool compressed = false;
  };
  struct Mailbox {
    mutable SpinLock mu;
    std::vector<Message> msgs;
    std::uint64_t next_id = 0;
  };

  void op_send(int user, std::uint64_t op_seed);
  void op_sort(int user);
  void op_compress(int user);
  void op_print(int user);
  std::string make_body(std::uint64_t seed) const;

  Config cfg_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<net::MetricsHttpServer> metrics_http_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  load::Histogram hist_[kEmailOpCount];
  std::mutex pending_mu_;
  std::deque<Future<void>> pending_;  ///< injected ops, oldest first
  std::atomic<std::uint64_t> op_seed_{0};
  std::atomic<std::uint64_t> sink_{0};  // defeats dead-code elimination
};

}  // namespace icilk::apps
