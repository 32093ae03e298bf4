#!/usr/bin/env bash
#===- tools/bench_smoke.sh - build + run the JSON-emitting micro benches ---===#
#
# Part of AsyncG-C++. MIT License.
#
# Smoke-checks the benchmark JSON pipeline: configures a Release build,
# runs micro_ag, micro_eventloop, micro_ring, micro_codec, and a short
# soak_steady_state config with --json, and validates that each emitted
# BENCH_<name>.json matches the BenchReport schema (bench / config /
# metrics[{name, value, unit}], including the automatic peak_rss metric).
#
# Every step is a leg that runs in its own subshell and stops at its own
# first failing command; a failed leg does not stop the legs after it. The
# script ends with the list of failed legs and exits non-zero if there are
# any.
#
# With --check, additionally:
#   - self-compares every emitted JSON with tools/bench_compare.py (a
#     report must never regress against itself — catches schema/parse
#     drift in the compare tool and the reports together), and when
#     --baseline DIR is given, diffs each BENCH_<name>.json against the
#     same-named file in DIR with a 15% threshold (wall-clock reports use
#     bench_compare's own wall tolerance class);
#   - runs the wire legs (Linux only, skipped with a notice elsewhere):
#     acmeair_cluster --serve across 2 SO_REUSEPORT loops on the epoll
#     backend and again on the io_uring backend (skipped loudly when the
#     runtime capability probe says the host kernel cannot do it), each
#     under an agload burst, gating nonzero req/s and zero dropped
#     connections, then a SIGTERM shutdown that must exit cleanly;
#   - runs the fault leg (Linux only): the same 2-loop epoll server with
#     the default deterministic fault mix injected (--fault-spec default),
#     driven by agload with per-request timeouts and a retry budget; gates
#     every request completed with none abandoned, plus the same SIGTERM
#     clean-shutdown check — a faulted server must still drain and exit 0;
#   - configures an ASan+UBSan build (-DASYNCG_ASAN=ON) and runs the
#     retirement test suite plus the short soak under it: the retirement
#     freelists recycle node/edge/adjacency storage, which is exactly the
#     kind of code ASan exists for;
#   - runs the trace-codec leg under the same ASan build: the replay
#     parity + decoder robustness suites (trace_replay_test,
#     trace_codec_v4_test — truncated/bit-flipped traces through
#     replayTrace and the ingest hub — and ingest_test, which shares the
#     replay engine) and micro_codec --parity-only, so the v4 frame
#     decoder's pointer arithmetic is sanitizer-verified on every real
#     encode/decode path;
#   - runs the ingest leg: records a Table-I case trace with asyncg_cli
#     --record, then diffs agingest --serial against agingest --jobs 4
#     (warnings on stdout, DOT via --dot) — the ordered-commit byte-parity
#     contract checked end to end through the CLI tools;
#   - configures a TSan build (-DASYNCG_TSAN=ON) and runs the SPSC ring
#     and multi-loop cluster tests under it, plus the ingest test suite —
#     the MpmcQueue stress and the jobs>=2 decode pool (workers + ordered
#     committer + steal path) are the new concurrent surface — and the
#     epoll/io_uring reactor matrix (ReuseportServesAcrossLoops runs
#     several loops at once), which also runs under ASan next to
#     fault_kernel_test.
#
# Usage: tools/bench_smoke.sh [--check] [--baseline DIR] [build-dir]
#        (default build dir: build-bench-smoke)
#===------------------------------------------------------------------------===#

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
CHECK_MODE=0
BASELINE_DIR=""
while [ $# -gt 0 ]; do
  case "$1" in
    --check) CHECK_MODE=1; shift ;;
    --baseline) BASELINE_DIR="$2"; shift 2 ;;
    *) break ;;
  esac
done
BUILD_DIR="${1:-$REPO_ROOT/build-bench-smoke}"
OUT_DIR="$BUILD_DIR/bench-json"

FAILED_LEGS=()

# leg NAME COMMAND...: runs one leg in a subshell under set -e, so the leg
# stops at its own first failing command and the script goes on with the
# next leg. Failed legs are collected for the summary at the end.
leg() {
  local name="$1"
  shift
  ( set -e; "$@" )
  local rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: leg '$name' (exit $rc)"
    FAILED_LEGS+=("$name")
  fi
}

build_release() {
  echo "== configuring Release build in $BUILD_DIR"
  cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "== building micro_ag + micro_eventloop + micro_ring + micro_codec"
  echo "   + soak_steady_state + cluster_scaling + ingest_scaling"
  cmake --build "$BUILD_DIR" --target micro_ag micro_eventloop micro_ring \
    micro_codec soak_steady_state cluster_scaling ingest_scaling -j >/dev/null
  mkdir -p "$OUT_DIR"
}

run_bench() {
  local name="$1"
  shift
  local json="$OUT_DIR/BENCH_${name}.json"
  echo "== running $name --json $json"
  "$BUILD_DIR/bench/$name" --json "$json" "$@" >/dev/null
  [ -s "$json" ] || { echo "FAIL: $json missing or empty"; exit 1; }
}

leg build build_release
leg micro_ag run_bench micro_ag --benchmark_min_time=0.01
leg micro_eventloop run_bench micro_eventloop --benchmark_min_time=0.01
leg micro_ring run_bench micro_ring --benchmark_min_time=0.01
# Short soak: exercises the retire-on/off comparison end to end; the
# 10%-footprint acceptance gates only arm at >= 10000 requests.
leg soak_steady_state run_bench soak_steady_state --requests 2000 --clients 8
# Cluster scaling: 1/2/4 loops, virtual-throughput scaling and merge gates.
leg cluster_scaling run_bench cluster_scaling
# Trace codec: raw-row baseline vs v4 size + ingest speed, DOT parity, and
# the exit-code gates (>=4x size, derived slow-storage >=2x, cold floor
# >=1.2x).
leg micro_codec run_bench micro_codec
# Parallel ingest: decode-stage speedup gate (>=1.25x pipelined over serial
# replay), jobs sweep, streaming merge, and byte parity at every job count.
leg ingest_scaling run_bench ingest_scaling

validate_schema() {
echo "== validating schema"
python3 - "$OUT_DIR"/BENCH_*.json <<'EOF'
import json
import sys

failed = False
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            doc = json.load(f)
        assert isinstance(doc, dict), "top level must be an object"
        assert isinstance(doc.get("bench"), str) and doc["bench"], \
            "missing 'bench' name"
        assert isinstance(doc.get("config"), dict), "missing 'config' object"
        metrics = doc.get("metrics")
        assert isinstance(metrics, list) and metrics, \
            "'metrics' must be a non-empty array"
        for m in metrics:
            assert isinstance(m.get("name"), str) and m["name"], \
                "metric missing 'name'"
            assert isinstance(m.get("value"), (int, float)), \
                "metric missing numeric 'value'"
            assert isinstance(m.get("unit"), str) and m["unit"], \
                "metric missing 'unit'"
        print(f"ok   {path} ({len(metrics)} metrics)")
    except Exception as e:
        print(f"FAIL {path}: {e}")
        failed = True
sys.exit(1 if failed else 0)
EOF
}
leg schema validate_schema

if [ "$CHECK_MODE" = 1 ]; then
  check_compare() {
  echo "== [check] bench_compare self-comparison sanity"
  for json in "$OUT_DIR"/BENCH_*.json; do
    python3 "$REPO_ROOT/tools/bench_compare.py" "$json" "$json" \
      --threshold 0.01 >/dev/null \
      || { echo "FAIL: $json does not compare clean against itself"; exit 1; }
  done
  if [ -n "$BASELINE_DIR" ]; then
    echo "== [check] comparing against baseline dir $BASELINE_DIR"
    for json in "$OUT_DIR"/BENCH_*.json; do
      base="$BASELINE_DIR/$(basename "$json")"
      if [ -f "$base" ]; then
        python3 "$REPO_ROOT/tools/bench_compare.py" "$base" "$json" \
          --threshold 15
      else
        echo "   (no baseline for $(basename "$json"), skipping)"
      fi
    done
  fi
  }

  # One wire leg: --serve on $1 (kernel backend) at $2 (port), agload
  # burst, gates, SIGTERM clean shutdown.
  run_wire_leg() {
    local kernel="$1" port="$2"
    local json="$OUT_DIR/agload_burst_${kernel}.json"
    "$BUILD_DIR/tools/acmeair_cluster" --kernel "$kernel" --loops 2 --serve \
      --port "$port" >"$OUT_DIR/wire_server_${kernel}.log" 2>&1 &
    local pid=$!
    if ! "$BUILD_DIR/tools/agload" --port "$port" --conns 8 \
        --requests 2000 --json "$json" >/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      echo "FAIL: agload burst against the $kernel server failed"
      exit 1
    fi
    kill -TERM "$pid"
    wait "$pid" \
      || { echo "FAIL: $kernel server did not shut down cleanly on SIGTERM"; \
           exit 1; }
    python3 - "$json" "$kernel" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
leg = sys.argv[2]
assert doc["req_per_sec"] > 0, f"{leg} wire leg served zero req/s"
assert doc["dropped_conns"] == 0, \
    f"{leg} wire leg dropped {doc['dropped_conns']} connection(s)"
assert doc["completed"] == 2000 and doc["errors"] == 0, \
    f"{leg} wire leg: completed={doc['completed']} errors={doc['errors']}"
print(f"ok   {leg} wire leg: {doc['req_per_sec']:.0f} req/s, "
      f"p99 {doc['p99_us']:.0f} us, 0 dropped")
EOF
  }

  check_wire_epoll() {
    echo "== [check] wire leg: AcmeAir on the epoll backend + agload burst"
    cmake --build "$BUILD_DIR" --target acmeair_cluster agload -j >/dev/null
    run_wire_leg epoll 9560
    echo "== [check] epoll wire leg OK"
  }

  check_wire_uring() {
    cmake --build "$BUILD_DIR" --target acmeair_cluster agload -j >/dev/null
    # The uring leg needs more than "Linux": the runtime capability probe
    # must clear the host kernel (op support, no seccomp veto). Skip loudly
    # when it does not — CI on such hosts stays green and says why.
    if "$BUILD_DIR/tools/acmeair_cluster" --probe | grep -q '^uring: available'; then
      echo "== [check] wire leg: AcmeAir on the io_uring backend + agload burst"
      run_wire_leg uring 9562
      echo "== [check] uring wire leg OK"
    else
      echo "== [check] uring wire leg SKIPPED: the io_uring capability" \
           "probe reports unavailable on this host:"
      "$BUILD_DIR/tools/acmeair_cluster" --probe | sed 's/^/     /'
    fi
  }

  check_fault() {
    cmake --build "$BUILD_DIR" --target acmeair_cluster agload -j >/dev/null
    # Fault leg: the epoll server again, now with the default deterministic
    # fault mix injected (DESIGN.md §5i). agload drives it with per-request
    # timeouts and a retry budget; its exit status gates that every request
    # completed with zero errors and none abandoned. The SIGTERM shutdown
    # must still drain cleanly — injected faults must degrade service, not
    # the process.
    echo "== [check] fault leg: epoll server under --fault-spec default"
    fault_json="$OUT_DIR/agload_fault_epoll.json"
    "$BUILD_DIR/tools/acmeair_cluster" --kernel epoll --loops 2 --serve \
      --port 9566 --fault-spec default --fault-seed 7 \
      >"$OUT_DIR/wire_server_fault.log" 2>&1 &
    fault_pid=$!
    if ! "$BUILD_DIR/tools/agload" --port 9566 --conns 8 --requests 2000 \
        --timeout-ms 2000 --retries 3 --json "$fault_json" >/dev/null; then
      kill -TERM "$fault_pid" 2>/dev/null || true
      echo "FAIL: agload burst against the faulted epoll server failed"
      exit 1
    fi
    kill -TERM "$fault_pid"
    wait "$fault_pid" \
      || { echo "FAIL: faulted epoll server did not shut down cleanly on" \
                "SIGTERM"; exit 1; }
    python3 - "$fault_json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["completed"] == 2000 and doc["errors"] == 0, \
    f"fault leg: completed={doc['completed']} errors={doc['errors']}"
assert doc["abandoned"] == 0, \
    f"fault leg abandoned {doc['abandoned']} request(s)"
print(f"ok   fault leg: {doc['req_per_sec']:.0f} req/s, "
      f"{doc['dropped_conns']:.0f} dropped conn(s) recovered via "
      f"{doc['retries']:.0f} retries, 0 abandoned")
EOF
    echo "== [check] fault leg OK"
  }

  ASAN_DIR="$BUILD_DIR-asan"
  check_asan_retirement() {
  echo "== [check] configuring ASan+UBSan build in $ASAN_DIR"
  cmake -S "$REPO_ROOT" -B "$ASAN_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DASYNCG_ASAN=ON >/dev/null
  echo "== [check] building retirement_test + soak_steady_state"
  cmake --build "$ASAN_DIR" --target retirement_test soak_steady_state -j \
    >/dev/null
  echo "== [check] running retirement tests under ASan"
  # detect_leaks=0: the simulated network layer keeps sockets alive in
  # closure cycles until process exit (a known property of the simulator,
  # not of the graph). Use-after-free / overflow detection — what the
  # freelist recycling needs — is unaffected.
  ASAN_OPTIONS=detect_leaks=0 "$ASAN_DIR/tests/retirement_test"
  echo "== [check] running short soak under ASan"
  ASAN_OPTIONS=detect_leaks=0 \
    "$ASAN_DIR/bench/soak_steady_state" --requests 1000 --clients 4 >/dev/null
  echo "== [check] ASan retirement checks OK"
  }

  check_asan_codec() {

  echo "== [check] building trace codec leg (tests + micro_codec) under ASan"
  cmake --build "$ASAN_DIR" --target trace_replay_test trace_codec_v4_test \
    ingest_test micro_codec -j >/dev/null
  echo "== [check] running replay parity + decoder robustness under ASan"
  ASAN_OPTIONS=detect_leaks=0 "$ASAN_DIR/tests/trace_replay_test"
  ASAN_OPTIONS=detect_leaks=0 "$ASAN_DIR/tests/trace_codec_v4_test"
  ASAN_OPTIONS=detect_leaks=0 "$ASAN_DIR/tests/ingest_test"
  echo "== [check] running micro_codec --parity-only under ASan"
  ASAN_OPTIONS=detect_leaks=0 \
    "$ASAN_DIR/bench/micro_codec" --parity-only >/dev/null
  echo "== [check] ASan trace codec checks OK"
  }

  check_asan_fault_reactor() {

  echo "== [check] building fault-injection + reactor leg (fault_kernel_test, epoll_kernel_test) under ASan"
  cmake --build "$ASAN_DIR" --target fault_kernel_test epoll_kernel_test -j \
    >/dev/null
  echo "== [check] running fault injection + degradation ladder under ASan"
  # The injected error paths (EINTR retries, short-write resubmission,
  # reset teardown, ladder shedding) are exactly the branches normal runs
  # never take; ASan is what turns "survives faults" into "survives faults
  # without corrupting memory".
  ASAN_OPTIONS=detect_leaks=0 "$ASAN_DIR/tests/fault_kernel_test"
  echo "== [check] running the epoll/io_uring reactor matrix under ASan"
  # io_uring buffer lifetime across ASYNC_CANCEL and the weak/strong
  # socket pins of the shared connection state machine.
  ASAN_OPTIONS=detect_leaks=0 "$ASAN_DIR/tests/epoll_kernel_test"
  echo "== [check] ASan fault injection + reactor checks OK"
  }

  check_ingest() {

  # Ingest leg: the ordered-commit parity contract through the CLI tools.
  # A recorded case trace must produce byte-identical warnings and DOT
  # whether agingest replays it serially or through the 4-thread decode
  # pool.
  echo "== [check] ingest leg: asyncg_cli --record + agingest serial-vs-jobs-4 diff"
  cmake --build "$BUILD_DIR" --target asyncg_cli agingest -j >/dev/null
  ingest_trace="$OUT_DIR/ingest_check.agtrace"
  "$BUILD_DIR/tools/asyncg_cli" --case SO-31978347 --record "$ingest_trace" \
    --quiet >/dev/null
  "$BUILD_DIR/tools/agingest" --in "$ingest_trace" --serial \
    --dot "$OUT_DIR/ingest_serial.dot" >"$OUT_DIR/ingest_serial.warn" 2>/dev/null
  "$BUILD_DIR/tools/agingest" --in "$ingest_trace" --jobs 4 \
    --dot "$OUT_DIR/ingest_jobs4.dot" >"$OUT_DIR/ingest_jobs4.warn" 2>/dev/null
  diff -q "$OUT_DIR/ingest_serial.warn" "$OUT_DIR/ingest_jobs4.warn" \
    || { echo "FAIL: agingest --jobs 4 warnings diverged from --serial"; exit 1; }
  diff -q "$OUT_DIR/ingest_serial.dot" "$OUT_DIR/ingest_jobs4.dot" \
    || { echo "FAIL: agingest --jobs 4 DOT diverged from --serial"; exit 1; }
  echo "== [check] ingest parity leg OK"
  }

  TSAN_DIR="$BUILD_DIR-tsan"
  check_tsan() {
  echo "== [check] configuring TSan build in $TSAN_DIR"
  cmake -S "$REPO_ROOT" -B "$TSAN_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DASYNCG_TSAN=ON >/dev/null
  echo "== [check] building spsc_ring_test + cluster_test + ingest_test + epoll_kernel_test"
  cmake --build "$TSAN_DIR" --target spsc_ring_test cluster_test ingest_test \
    epoll_kernel_test -j >/dev/null
  echo "== [check] running SPSC ring tests under TSan"
  "$TSAN_DIR/tests/spsc_ring_test"
  echo "== [check] running multi-loop cluster tests under TSan"
  "$TSAN_DIR/tests/cluster_test"
  echo "== [check] running ingest decode pool + MpmcQueue tests under TSan"
  "$TSAN_DIR/tests/ingest_test"
  echo "== [check] running the reactor matrix (multi-loop reuseport) under TSan"
  "$TSAN_DIR/tests/epoll_kernel_test"
  echo "== [check] TSan concurrency checks OK"
  }

  leg compare check_compare
  if [ "$(uname -s)" = "Linux" ]; then
    leg wire_epoll check_wire_epoll
    leg wire_uring check_wire_uring
    leg fault check_fault
  else
    echo "== [check] wire legs SKIPPED: the real kernel backends need" \
         "Linux (this is $(uname -s)); virtual-time legs above still ran"
  fi
  leg asan_retirement check_asan_retirement
  leg asan_codec check_asan_codec
  leg asan_fault_reactor check_asan_fault_reactor
  leg ingest check_ingest
  leg tsan check_tsan
fi

if [ "${#FAILED_LEGS[@]}" -ne 0 ]; then
  echo "== bench smoke FAILED: ${#FAILED_LEGS[@]} leg(s): ${FAILED_LEGS[*]}"
  exit 1
fi
echo "== bench smoke OK"
