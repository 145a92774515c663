#!/usr/bin/env bash
# Chaos-soak orchestrator for the fault-injection subsystem (src/inject/)
# and the compile-out check for every observability hook.
#
# Phases (default: all):
#   tsan      build with ICILK_SANITIZE=thread, run `ctest -L inject` plus
#             the bench/soak_inject driver — data races in the widened
#             windows surface here;
#   asan      same under ICILK_SANITIZE=address (lifetime bugs on the
#             faulted paths: recycled ops, cancelled fds, dead deques);
#   attribution
#             against the default build: run bench/attribution_smoke (a
#             live minicached under TCP load, then scrape /metrics and
#             /latency and assert the phase histograms are non-empty and
#             the worst-K timelines parse), then a clean-mode soak_inject
#             (rate 0, watchdog sampler live) that must trip no invariant;
#   hooksoff  build with ICILK_HOOKS=OFF and prove the zero-overhead
#             contract: (a) the hot-path objects (reactor, scheduler
#             policies, runtime) carry none of the hook symbols in
#             HOOK_SYMBOLS, (b) every hook-pricing row in HOOK_PRICING
#             costs at most its bound times its baseline row, and (c)
#             `ctest -L 'inject|obs'` passes with the hook-dependent cases
#             skipping.
#
# Usage: scripts/soak.sh [tsan|asan|attribution|hooksoff|all] \
#                        [soak-duration-s] [seed]
set -uo pipefail

PHASE="${1:-all}"
DURATION="${2:-2.0}"
SEED="${3:-1}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"
FAILURES=0

note() { printf '\n== %s ==\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; FAILURES=$((FAILURES + 1)); }

build() { # build <dir> <extra cmake args...>
  local dir="$1"
  shift
  cmake -B "$dir" -S "$REPO_ROOT" "$@" >/dev/null || return 1
  cmake --build "$dir" -j "$JOBS" >/dev/null
}

run_sanitizer_phase() { # run_sanitizer_phase <name> <ICILK_SANITIZE value>
  local name="$1" san="$2"
  local dir="$REPO_ROOT/build-soak-$name"
  note "$name: building (ICILK_SANITIZE=$san)"
  if ! build "$dir" -DICILK_SANITIZE="$san"; then
    fail "$name build"
    return
  fi
  note "$name: ctest -L inject"
  if ! (cd "$dir" && ctest -L inject --output-on-failure -j 2); then
    fail "$name ctest -L inject"
  fi
  note "$name: soak_inject ${DURATION}s seed=$SEED"
  if ! "$dir/bench/soak_inject" "$DURATION" "$SEED"; then
    fail "$name soak_inject (replay: soak_inject $DURATION $SEED)"
  fi
}

run_attribution_phase() {
  local dir="$REPO_ROOT/build"
  note "attribution: building (default flags)"
  if ! build "$dir"; then
    fail "attribution build"
    return
  fi
  note "attribution: bench/attribution_smoke"
  if ! "$dir/bench/attribution_smoke"; then
    fail "attribution smoke (minicached /metrics + /latency scrape)"
  fi
  # Rate 0 = no faults: the watchdog sampler runs alongside real load and
  # must trip no invariant (the false-positive gate).
  note "attribution: clean-mode soak_inject ${DURATION}s seed=$SEED rate 0"
  if ! "$dir/bench/soak_inject" "$DURATION" "$SEED" 0; then
    fail "clean-mode soak (replay: soak_inject $DURATION $SEED 0)"
  fi
}

# Hot-path translation units: every hook site in the scheduler, deque,
# runtime and reactor is compiled into one of these.
HOT_PATH_OBJECTS=(
  "src/io/CMakeFiles/icilk_io.dir/reactor.cpp.o"
  "src/core/CMakeFiles/icilk_core.dir/policy/prompt_policy.cpp.o"
  "src/core/CMakeFiles/icilk_core.dir/policy/multiqueue_policy.cpp.o"
  "src/core/CMakeFiles/icilk_core.dir/policy/adaptive_policy.cpp.o"
  "src/core/CMakeFiles/icilk_core.dir/runtime.cpp.o"
)

# Symbols that must not survive ICILK_HOOKS=OFF, one subsystem per row:
#   inject     the itanium-mangled namespace (any "6inject" is a live probe);
#   reqtrace   TLS binding accessors and ReqContext members ("ReqContext"
#              followed by a length; a bare ReqContext pointer parameter in
#              an always-compiled signature is a type name, not code);
#   watchdog   census hooks, state publication and the Watchdog class;
#   profiler   TLS context stores, thread registration, Profiler class;
#   timeseries the TimeSeries class (ts_note_request must fold away);
#   spanprof   strand-clock accessors and the burden estimator.
HOOK_SYMBOLS=(
  '6inject'
  'req_set_current\|req_thread_ring\|req_thread_where\|ReqContext[0-9]'
  'wd_census\|wd_publish_state\|8Watchdog'
  'prof_set_context\|prof_context\|prof_register_thread\|prof_unregister_thread\|8Profiler'
  '10TimeSeries\|ts_note_request'
  'sp_dispatch\|sp_undispatch\|sp_strand_now\|sp_note_overhead\|sp_overhead_est'
)

# Hook-pricing rows: "<bench and args>|<baseline row>|<bound>|<hook rows>".
# In the OFF build every hook row must cost at most <bound> x baseline.
# Compiled in, the live hooks sit far above these bounds (census ~60x,
# armed spanprof ~10-100x, live reqtrace ~2x), so a hook that escaped the
# compile-out cannot hide under them.
HOOK_PRICING=(
  "micro_obs_hooks --benchmark_format=csv|BM_Baseline|1.5|BM_inject_probe BM_watchdog_publish_state BM_watchdog_census_note BM_profiler_set_context BM_profiler_scope"
  "micro_reqtrace|runtime_base|1.4|runtime"
  "micro_timeseries hooks|base|1.5|hook_null hook_live"
  "micro_spanprof hooks|base|1.5|hook_disarmed hook_dispatch_pair hook_event hook_dispatch_pair_precise hook_event_precise"
)

# bench_rows <binary> [args...]: one "<row> <ns_per_op>" line per result,
# from google-benchmark CSV (row = benchmark name) or from RESULT lines
# (row = the mode= field).
bench_rows() {
  "$@" 2>/dev/null | awk '
    /^RESULT/ {
      m = ""; v = ""
      for (i = 1; i <= NF; i++) {
        if ($i ~ /^mode=/) m = substr($i, 6)
        else if ($i ~ /^ns_per_op=/) v = substr($i, 11)
      }
      if (m != "" && v != "") print m, v
      next
    }
    /^"?BM_/ { gsub(/"/, ""); split($0, f, ","); print f[1], f[4] }'
}

run_hooksoff_phase() {
  local dir="$REPO_ROOT/build-soak-hooksoff"
  note "hooksoff: building (ICILK_HOOKS=OFF)"
  if ! build "$dir" -DICILK_HOOKS=OFF; then
    fail "hooksoff build"
    return
  fi

  note "hooksoff: hot-path objects carry no hook symbols"
  local o pattern
  for o in "${HOT_PATH_OBJECTS[@]}"; do
    if [ ! -f "$dir/$o" ]; then
      fail "hooksoff: missing object $o"
      continue
    fi
    local clean=1
    for pattern in "${HOOK_SYMBOLS[@]}"; do
      if nm "$dir/$o" | grep -q "$pattern"; then
        fail "hooksoff: $o still references hook symbols ($pattern):"
        nm "$dir/$o" | grep "$pattern" | head -5
        clean=0
      fi
    done
    [ "$clean" -eq 1 ] && echo "clean: $o"
  done

  note "hooksoff: every hook-pricing row at or under its bound"
  local entry cmd base_row bound hooks rows base row val
  for entry in "${HOOK_PRICING[@]}"; do
    IFS='|' read -r cmd base_row bound hooks <<<"$entry"
    # shellcheck disable=SC2086  # cmd is "<binary> [args]" by design
    rows="$(bench_rows "$dir/bench/"$cmd)"
    base="$(awk -v r="$base_row" '$1 == r { print $2; exit }' <<<"$rows")"
    if [ -z "$base" ]; then
      fail "hooksoff: $cmd printed no $base_row row"
      continue
    fi
    for row in $hooks; do
      val="$(awk -v r="$row" '$1 == r { print $2; exit }' <<<"$rows")"
      if [ -z "$val" ]; then
        fail "hooksoff: $cmd printed no $row row"
      elif awk -v b="$base" -v p="$val" -v k="$bound" \
             'BEGIN { exit !(p <= b * k) }'; then
        echo "ok: $cmd $row=${val}ns <= ${bound}x $base_row=${base}ns"
      else
        fail "hooksoff: $cmd $row=${val}ns > ${bound}x $base_row=${base}ns"
      fi
    done
  done

  # The classes stay compiled in the OFF build; their tests pass with the
  # hook-dependent cases skipping.
  note "hooksoff: ctest -L 'inject|obs' (OFF build)"
  if ! (cd "$dir" && ctest -L 'inject|obs' --output-on-failure -j 2); then
    fail "hooksoff ctest -L 'inject|obs'"
  fi
}

case "$PHASE" in
  tsan) run_sanitizer_phase tsan thread ;;
  asan) run_sanitizer_phase asan address ;;
  attribution) run_attribution_phase ;;
  hooksoff) run_hooksoff_phase ;;
  all)
    run_sanitizer_phase tsan thread
    run_sanitizer_phase asan address
    run_attribution_phase
    run_hooksoff_phase
    ;;
  *)
    echo "usage: scripts/soak.sh [tsan|asan|attribution|hooksoff|all] [duration-s] [seed]" >&2
    exit 2
    ;;
esac

if [ "$FAILURES" -ne 0 ]; then
  printf '\nsoak.sh: %d phase check(s) FAILED\n' "$FAILURES"
  exit 1
fi
printf '\nsoak.sh: all checks passed\n'
