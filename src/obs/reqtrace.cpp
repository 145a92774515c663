#include "obs/reqtrace.hpp"

namespace icilk::obs {

const char* req_phase_name(ReqPhase p) noexcept {
  switch (p) {
    case ReqPhase::kQueueing:
      return "queueing";
    case ReqPhase::kExecuting:
      return "executing";
    case ReqPhase::kRunnable:
      return "runnable";
    case ReqPhase::kSuspendedIo:
      return "suspended_io";
    case ReqPhase::kSuspendedSync:
      return "suspended_sync";
    case ReqPhase::kCount:
      break;
  }
  return "?";
}

#if ICILK_HOOKS_ENABLED
namespace {
thread_local ReqContext* tls_req = nullptr;
thread_local int tls_where = ReqHop::kNoWhere;
thread_local TraceRing* tls_ring = nullptr;
}  // namespace

ReqContext* req_current() noexcept { return tls_req; }
void req_set_current(ReqContext* rc) noexcept { tls_req = rc; }
int req_thread_where() noexcept { return tls_where; }
void req_set_thread_where(int where) noexcept { tls_where = where; }
TraceRing* req_thread_ring() noexcept { return tls_ring; }
void req_set_thread_ring(TraceRing* ring) noexcept { tls_ring = ring; }
#endif  // ICILK_HOOKS_ENABLED

void ReqContext::start(std::uint64_t rid, std::uint16_t prio,
                       std::uint64_t arrival_ns) noexcept {
  id = rid;
  priority = prio;
  begin_ns = arrival_ns != 0 ? arrival_ns : now_ns();
  end_ns = 0;
  for (int i = 0; i < kReqPhaseCount; ++i) phase_ns[i] = 0;
  nhops = 0;
  hops_dropped = 0;
  phase_ = ReqPhase::kQueueing;
  io_hint_ = false;
  phase_start_ns_ = begin_ns;
  log_hop(begin_ns, ReqPhase::kQueueing);
}

void ReqContext::enter(ReqPhase p) noexcept {
  const int where = req_thread_where();
  if (p == phase_) {
    // Same phase: only a cross-thread migration (steal of an executing
    // chain, cross-thread wake) is worth a hop; accumulators are
    // untouched — the phase simply continues.
    if (nhops != 0 && hops[nhops - 1].where == where) return;
    log_hop(now_ns(), p);
    ICILK_TRACE_RECORD(req_thread_ring(), EventKind::kReqPhase,
                       static_cast<std::uint16_t>(p),
                       static_cast<std::uint32_t>(id));
    return;
  }
  const std::uint64_t now = now_ns();
  phase_ns[static_cast<int>(phase_)] +=
      now > phase_start_ns_ ? now - phase_start_ns_ : 0;
  phase_ = p;
  phase_start_ns_ = now;
  log_hop(now, p);
  ICILK_TRACE_RECORD(req_thread_ring(), EventKind::kReqPhase,
                     static_cast<std::uint16_t>(p),
                     static_cast<std::uint32_t>(id));
}

std::uint64_t ReqContext::close() noexcept {
  const std::uint64_t now = now_ns();
  phase_ns[static_cast<int>(phase_)] +=
      now > phase_start_ns_ ? now - phase_start_ns_ : 0;
  phase_start_ns_ = now;
  end_ns = now;
  return now > begin_ns ? now - begin_ns : 0;
}

void ReqContext::log_hop(std::uint64_t t, ReqPhase p) noexcept {
  if (nhops >= kMaxHops) {
    ++hops_dropped;
    return;
  }
  ReqHop& h = hops[nhops++];
  h.t_ns = t;
  h.phase = p;
  const int where = req_thread_where();
  h.where = (where >= INT16_MIN && where <= INT16_MAX)
                ? static_cast<std::int16_t>(where)
                : ReqHop::kNoWhere;
}

}  // namespace icilk::obs
