#!/usr/bin/env bash
# CI smoke test for the serve daemon (DESIGN.md section 13):
#
#   1. clean phase   — >=240 concurrent mixed requests from 20 parallel
#                      clients; every response line must satisfy
#                      test/cli/serve_response_schema.jq, the verdicts on
#                      the known instances must be right, and the
#                      template cache must record hits;
#   1b. warm + batch — a daemon started with --warm must answer its very
#                      first solve against the warmed template as a cache
#                      hit; a JSON-array batch frame must return one array
#                      line of per-member responses, and stats must carry
#                      per-route latency histograms;
#   1c. shrink phase — a shrinkable target (K2 plus an isolated vertex)
#                      must land in the cache as its core: stats reports
#                      core_elements < raw_elements and the metrics
#                      count serve.preprocess.shrunk;
#   1d. enumerate    — a streamed enumerate request must answer with
#                      schema-valid answers frames plus one final frame
#                      carrying the exact count, a limit must truncate
#                      with complete:false, and enumerate inside a batch
#                      frame must be refused with a typed error;
#   2. chaos phase   — the same load with every fault site armed via
#                      CQCSP_FAULT; responses must STILL all be typed
#                      (injected faults become error responses, never
#                      crashes);
#   3. worker-kill chaos — >=1000 frames of distinct templates against a
#                      sandboxed daemon whose worker fault site SIGKILLs
#                      the worker serving ~15% of attempts (DESIGN.md
#                      section 14); every response must still be typed,
#                      the worker accounting must balance exactly
#                      (crashes = retries + terminal code-6 responses;
#                      attempts = completions + crashes; spawns = live +
#                      retired + crashes), and every terminal crash must
#                      spool one dump artifact;
#   4. pipelining    — one `cqc request` connection sends >=5000 frames
#                      without waiting for replies and must read every
#                      response back (the client interleaves writes with
#                      reads instead of deadlocking);
#   5. drain cycles  — >=200 start -> ping + solve -> one SIGTERM cycles;
#                      every daemon must exit 0 within 10 s;
#   6. all daemons must drain and exit 0 on SIGTERM, leaving no worker
#      process behind, and the metrics documents must pass the metrics
#      schema with serve.cache.hit > 0 (clean) and serve.worker.spawn > 0
#      (worker chaos).
#
# Usage: test/serve_smoke.sh [path/to/cqc.exe]   (run from the repo root;
# needs jq)
set -euo pipefail

BIN=${1:-_build/default/bin/cqc.exe}
RESPONSE_SCHEMA=test/cli/serve_response_schema.jq
METRICS_SCHEMA=test/cli/metrics_schema.jq
CLIENTS=20
FRAMES_PER_CLIENT=12

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT

# On failure, preserve any spooled crash dumps where CI can upload them.
fail() {
  echo "serve_smoke: FAIL: $*" >&2
  if [ -n "${ARTIFACT_DIR:-}" ] && [ -d "${SPOOL:-/nonexistent}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$SPOOL"/crash-*.json "$ARTIFACT_DIR"/ 2>/dev/null || true
  fi
  exit 1
}

# One client's worth of mixed frames: correct requests of every op (with
# repeated templates so the cache is exercised), a starved solve, a
# malformed frame and an unknown op.
make_frames() {
  local base=$1
  cat <<EOF
{"id":$((base+0)),"op":"ping"}
{"id":$((base+1)),"op":"solve","source":"size 2\nE 0 1\nE 1 0\n","target":"size 2\nE 0 1\nE 1 0\n"}
{"id":$((base+2)),"op":"solve","source":"size 3\nE 0 1\nE 1 2\nE 2 0\n","target":"size 2\nE 0 1\nE 1 0\n","certify":true}
{"id":$((base+3)),"op":"contain","q1":"Q(X) :- E(X,Y), E(Y,Z).","q2":"Q(X) :- E(X,Y)."}
{"id":$((base+4)),"op":"stats"}
{"id":$((base+5)),"op":"solve","source":"size 3\nE 0 1\nE 1 2\nE 2 0\n","target":"size 2\nE 0 1\nE 1 0\n","max_nodes":1}
{"id":$((base+6)),"op":"solve","source":"size 2\nE 0 zebra\n","target":"size 2\nE 0 1\nE 1 0\n"}
this is not json
{"op":"launch"}
{"id":$((base+9)),"op":"solve","source":"size 2\nE 0 1\nE 1 0\n","target":"size 2\nE 0 1\nE 1 0\n"}
{"id":$((base+10)),"op":"solve","source":"size 3\nE 0 1\nE 1 2\nE 2 0\n","target":"size 2\nE 0 1\nE 1 0\n"}
{"id":$((base+11)),"op":"ping"}
EOF
}

SERVE_EXTRA_ARGS=()

start_daemon() { # $1 = socket, $2 = metrics json ("" for none), rest = env
  local sock=$1 metrics=$2
  shift 2
  local args=(serve --socket "$sock" --max-inflight 4 --max-queue 32)
  [ -n "$metrics" ] && args+=(--metrics-json "$metrics")
  args+=(${SERVE_EXTRA_ARGS[@]+"${SERVE_EXTRA_ARGS[@]}"})
  env "$@" "$BIN" "${args[@]}" 2>"$TMP/serve.stderr" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$TMP/serve.stderr" >&2; fail "daemon died on startup"; }
    sleep 0.1
  done
  fail "daemon never bound $sock"
}

drive_load() { # $1 = socket, $2 = output dir
  local sock=$1 out=$2
  mkdir -p "$out"
  local pids=()
  for c in $(seq 1 "$CLIENTS"); do
    make_frames $((c * 1000)) | "$BIN" request --socket "$sock" >"$out/client_$c.jsonl" &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do
    wait "$pid" || fail "a request client failed"
  done
  cat "$out"/client_*.jsonl >"$out/all.jsonl"
}

check_responses() { # $1 = responses file, $2 = phase name
  local all=$1 phase=$2 expected=$((CLIENTS * FRAMES_PER_CLIENT))
  local got
  got=$(wc -l <"$all")
  [ "$got" -eq "$expected" ] || fail "$phase: expected $expected responses, got $got"
  jq -e -s -f "$RESPONSE_SCHEMA" "$all" >/dev/null \
    || fail "$phase: a response violates $RESPONSE_SCHEMA"
}

# SIGTERM the daemon and wait up to 10 s for it to exit 0; the sandbox
# workers it had forked must all be gone once it has.
stop_daemon() { # $1 = phase name
  local workers code=0 waited=0
  workers=$(pgrep -P "$SERVE_PID" || true)
  kill -TERM "$SERVE_PID"
  while kill -0 "$SERVE_PID" 2>/dev/null; do
    [ "$waited" -lt 1000 ] || { kill -KILL "$SERVE_PID"; fail "$1: daemon still running 10 s after SIGTERM"; }
    sleep 0.01
    waited=$((waited + 1))
  done
  wait "$SERVE_PID" || code=$?
  SERVE_PID=
  [ "$code" -eq 0 ] || fail "$1: daemon exited $code on SIGTERM (wanted 0)"
  for w in $workers; do
    ! kill -0 "$w" 2>/dev/null || fail "$1: worker $w outlived the daemon"
  done
}

command -v jq >/dev/null || fail "jq not found"
[ -x "$BIN" ] || fail "$BIN not built"

# --- Phase 1: clean daemon --------------------------------------------
start_daemon "$TMP/clean.sock" "$TMP/metrics.json"
drive_load "$TMP/clean.sock" "$TMP/clean"
check_responses "$TMP/clean/all.jsonl" "clean"

# Verdict spot checks: K2 -> K2 is sat, triangle -> K2 is unsat (except
# the max_nodes:1 frames, which must be unknown with code 4).
jq -e -s '([.[] | select(.status == "ok" and .op == "solve")] | length > 0) and
          ([.[] | select(.id != null and (.id % 1000 == 1 or .id % 1000 == 9)) | .verdict == "sat"] | all) and
          ([.[] | select(.id != null and (.id % 1000 == 2 or .id % 1000 == 10)) | .verdict == "unsat"] | all) and
          ([.[] | select(.id != null and .id % 1000 == 5) | .verdict == "unknown" and .code == 4] | all)' \
  "$TMP/clean/all.jsonl" >/dev/null || fail "clean: verdict spot checks"
# The bad-structure and malformed frames must come back as typed errors.
jq -e -s '([.[] | select(.id != null and .id % 1000 == 6) | .status == "error" and .error == "bad_input"] | all) and
          ([.[] | select(.status == "error")] | length >= 3)' \
  "$TMP/clean/all.jsonl" >/dev/null || fail "clean: typed error checks"
# Templates repeat across clients, so the cache must be hitting.
jq -e -s '[.[] | select(.cache == "hit")] | length > 0' \
  "$TMP/clean/all.jsonl" >/dev/null || fail "clean: no cache hits observed"

stop_daemon "clean"
[ -f "$TMP/metrics.json" ] || fail "clean: daemon wrote no metrics document"
jq -e -f "$METRICS_SCHEMA" "$TMP/metrics.json" >/dev/null \
  || fail "clean: metrics document violates $METRICS_SCHEMA"
jq -e '[.counters[] | select(.name == "serve.cache.hit") | .total > 0] | any' \
  "$TMP/metrics.json" >/dev/null || fail "clean: serve.cache.hit not positive in metrics"

# --- Phase 1b: cache warm-up and batch frames -------------------------
# The manifest pre-analyses the template used below, so the daemon's
# very FIRST solve against it must already be a cache hit; the batch
# frame (a JSON array) must come back as one array line with per-member
# responses, and the stats op must expose per-route latency histograms.
WARM_DIR="$TMP/warm"
mkdir -p "$WARM_DIR"
printf 'size 2\nE 0 1\nE 1 0\n' >"$WARM_DIR/k2.txt"
{ echo "# templates to pre-analyse"; echo; echo "k2.txt"; } >"$WARM_DIR/manifest.txt"
SERVE_EXTRA_ARGS=(--warm "$WARM_DIR/manifest.txt")
start_daemon "$TMP/warm.sock" "$TMP/warm-metrics.json"
SERVE_EXTRA_ARGS=()

BATCH_FRAME='[{"id":1,"op":"solve","source":"size 2\nE 0 1\nE 1 0\n","target":"size 2\nE 0 1\nE 1 0\n"},{"id":2,"op":"solve","source":"size 3\nE 0 1\nE 1 2\nE 2 0\n","target":"size 2\nE 0 1\nE 1 0\n","certify":true},{"id":3,"op":"ping"},{"id":4,"op":"launch"}]'
printf '%s\n' "$BATCH_FRAME" | "$BIN" request --socket "$TMP/warm.sock" >"$WARM_DIR/batch.jsonl"
[ "$(wc -l <"$WARM_DIR/batch.jsonl")" -eq 1 ] || fail "warm: batch response is not one line"
jq -e 'type == "array" and length == 4
       and .[0].cache == "hit" and .[0].verdict == "sat"
       and .[1].cache == "hit" and .[1].verdict == "unsat" and .[1].certified == true
       and .[2].status == "ok" and .[2].op == "ping"
       and .[3].status == "error" and .[3].error == "bad_input" and .[3].id == 4' \
  "$WARM_DIR/batch.jsonl" >/dev/null || fail "warm: batch members (warmed cache hits, verdicts, per-member error)"
echo '{"id":9,"op":"stats"}' | "$BIN" request --socket "$TMP/warm.sock" >"$WARM_DIR/stats.jsonl"
jq -e '(.latency_ms | type == "object")
       and ([.latency_ms[] | .count] | add >= 2)
       and (.cache.hits >= 1)' \
  "$WARM_DIR/stats.jsonl" >/dev/null || fail "warm: stats lacks latency histograms or warmed cache hits"
stop_daemon "warm"
jq -e '[.counters[] | select(.name == "serve.cache.warmed") | .total >= 1] | any' \
  "$TMP/warm-metrics.json" >/dev/null || fail "warm: serve.cache.warmed not positive in metrics"
jq -e '[.counters[] | select(.name | startswith("serve.latency.")) | .total > 0] | any' \
  "$TMP/warm-metrics.json" >/dev/null || fail "warm: no serve.latency.* counters in metrics"
jq -e '[.counters[] | select(.name == "serve.batch") | .total >= 1] | any' \
  "$TMP/warm-metrics.json" >/dev/null || fail "warm: serve.batch not positive in metrics"

# --- Phase 1c: structural preprocessing shrinks templates -------------
# A target of K2 plus an isolated vertex cores down to K2 (DESIGN.md
# section 16): the cache analysis must store the shrunk template, the
# stats op must report core_elements < raw_elements for its entry, and
# the metrics document must count the shrink.
start_daemon "$TMP/shrink.sock" "$TMP/shrink-metrics.json"
printf '%s\n' '{"id":1,"op":"solve","source":"size 2\nE 0 1\nE 1 0\n","target":"size 3\nE 0 1\nE 1 0\n"}' \
  | "$BIN" request --socket "$TMP/shrink.sock" >"$TMP/shrink.jsonl"
jq -e '.status == "ok" and .verdict == "sat"' "$TMP/shrink.jsonl" >/dev/null \
  || fail "shrink: solve against the padded-K2 template"
echo '{"id":2,"op":"stats"}' | "$BIN" request --socket "$TMP/shrink.sock" \
  >"$TMP/shrink-stats.jsonl"
jq -e '[.cache.templates[] | select(.core_elements < .raw_elements)] | length >= 1' \
  "$TMP/shrink-stats.jsonl" >/dev/null \
  || fail "shrink: stats reports no template with core_elements < raw_elements"
stop_daemon "shrink"
jq -e '[.counters[] | select(.name == "serve.preprocess.shrunk") | .total > 0] | any' \
  "$TMP/shrink-metrics.json" >/dev/null \
  || fail "shrink: serve.preprocess.shrunk not positive in metrics"

# --- Phase 1d: streamed enumerate frames ------------------------------
# An enumerate request answers with a STREAM of lines sharing its id:
# answers frames of at most "batch" witnesses, then one final frame
# carrying the total count and whether the stream was exhausted.  The
# frames must satisfy the response schema, a limited stream must report
# complete:false, and enumerate inside a batch frame must be refused
# with a typed error (a batch answers one line per frame).
start_daemon "$TMP/enum.sock" "$TMP/enum-metrics.json"
ENUM_REQ='{"id":41,"op":"enumerate","source":"size 2\nE 0 1\n","target":"size 2\nE 0 1\nE 1 0\n","batch":1}'
printf '%s\n' "$ENUM_REQ" | "$BIN" request --socket "$TMP/enum.sock" >"$TMP/enum.jsonl"
jq -e -s -f "$RESPONSE_SCHEMA" "$TMP/enum.jsonl" >/dev/null \
  || fail "enum: a streamed frame violates $RESPONSE_SCHEMA"
# K2 as an undirected edge has two homomorphic images of a single arc;
# batch:1 makes that two answers frames plus the final frame.
jq -e -s 'length == 3
          and ([.[] | .id == 41 and .op == "enumerate"] | all)
          and (.[0].frame == "answers" and (.[0].answers | length == 1))
          and (.[1].frame == "answers" and (.[1].answers | length == 1))
          and (.[2].frame == "final" and .[2].count == 2
               and .[2].complete == true and .[2].code == 0)
          and ([.[0].answers[0], .[1].answers[0]] | sort == [[0,1],[1,0]])' \
  "$TMP/enum.jsonl" >/dev/null || fail "enum: streamed frame contents"
# A limit below the answer count truncates and says so.
printf '%s\n' '{"id":42,"op":"enumerate","source":"size 2\nE 0 1\n","target":"size 2\nE 0 1\nE 1 0\n","limit":1}' \
  | "$BIN" request --socket "$TMP/enum.sock" >"$TMP/enum-limit.jsonl"
jq -e -s 'length == 2
          and (.[1].frame == "final" and .[1].count == 1
               and .[1].complete == false)' \
  "$TMP/enum-limit.jsonl" >/dev/null || fail "enum: limit truncation"
# Enumerate cannot ride inside a batch frame.
printf '%s\n' '[{"id":43,"op":"ping"},{"id":44,"op":"enumerate","source":"size 2\nE 0 1\n","target":"size 2\nE 0 1\nE 1 0\n"}]' \
  | "$BIN" request --socket "$TMP/enum.sock" >"$TMP/enum-batch.jsonl"
jq -e 'type == "array" and length == 2
       and .[0].status == "ok"
       and .[1].status == "error" and .[1].error == "bad_input" and .[1].id == 44' \
  "$TMP/enum-batch.jsonl" >/dev/null || fail "enum: batch-frame rejection"
stop_daemon "enum"
jq -e '[.counters[] | select(.name == "serve.enumerate.answers") | .total >= 3] | any' \
  "$TMP/enum-metrics.json" >/dev/null \
  || fail "enum: serve.enumerate.answers not counted in metrics"

# --- Phase 2: every fault site armed ----------------------------------
start_daemon "$TMP/chaos.sock" "" CQCSP_FAULT=all:42:0.08
drive_load "$TMP/chaos.sock" "$TMP/chaos"
check_responses "$TMP/chaos/all.jsonl" "chaos"
# Chaos must actually have injected something: with every site armed at
# 8%, some responses report an injected internal fault.
jq -e -s '[.[] | select(.status == "error" and (.message | contains("injected")))] | length > 0' \
  "$TMP/chaos/all.jsonl" >/dev/null || fail "chaos: no injected faults surfaced"
stop_daemon "chaos"

# --- Phase 3: sandboxed workers under kill chaos ----------------------
# Every (client, rep) pair gets its own padded target so the template
# caches keep missing, and the armed worker fault site SIGKILLs the
# worker serving ~15% of the solve attempts.
WORKER_REPS=10
WORKER_FRAMES_PER_REP=5

make_worker_frames() { # $1 = client index
  local c=$1 r pad size base
  for r in $(seq 1 "$WORKER_REPS"); do
    pad=$((c * WORKER_REPS + r))
    size=$((2 + pad))
    base=$((c * 100000 + r * 100))
    cat <<EOF
{"id":$((base+1)),"op":"solve","source":"size 2\nE 0 1\nE 1 0\n","target":"size $size\nE 0 1\nE 1 0\n"}
{"id":$((base+2)),"op":"solve","source":"size 3\nE 0 1\nE 1 2\nE 2 0\n","target":"size $size\nE 0 1\nE 1 0\n","certify":true}
{"id":$((base+3)),"op":"ping"}
{"id":$((base+4)),"op":"solve","source":"size 3\nE 0 1\nE 1 2\nE 2 0\n","target":"size $size\nE 0 1\nE 1 0\n","max_nodes":1}
{"id":$((base+5)),"op":"solve","source":"size 2\nE 0 1\nE 1 0\n","target":"size $((size+1))\nE 0 1\nE 1 0\n"}
EOF
  done
}

SPOOL="$TMP/spool"
SERVE_EXTRA_ARGS=(--spool "$SPOOL")
start_daemon "$TMP/worker.sock" "$TMP/worker-metrics.json" CQCSP_FAULT=worker:1234:0.15
SERVE_EXTRA_ARGS=()

mkdir -p "$TMP/worker"
worker_pids=()
for c in $(seq 1 "$CLIENTS"); do
  make_worker_frames "$c" | "$BIN" request --socket "$TMP/worker.sock" --retry 3 \
    >"$TMP/worker/client_$c.jsonl" &
  worker_pids+=($!)
done
for pid in "${worker_pids[@]}"; do
  wait "$pid" || fail "worker: a request client failed"
done
cat "$TMP/worker"/client_*.jsonl >"$TMP/worker/all.jsonl"

WORKER_EXPECTED=$((CLIENTS * WORKER_REPS * WORKER_FRAMES_PER_REP))
WORKER_GOT=$(wc -l <"$TMP/worker/all.jsonl")
[ "$WORKER_GOT" -eq "$WORKER_EXPECTED" ] \
  || fail "worker: expected $WORKER_EXPECTED responses, got $WORKER_GOT"
[ "$WORKER_EXPECTED" -ge 1000 ] || fail "worker: load below the 1000-frame floor"
jq -e -s -f "$RESPONSE_SCHEMA" "$TMP/worker/all.jsonl" >/dev/null \
  || fail "worker: a response violates $RESPONSE_SCHEMA"

# Exact accounting against the stats op: every crash is either absorbed
# by the one degraded retry or surfaces as exactly one terminal code-6
# response with one spooled dump; every attempt (one per solve frame,
# plus the retries) completes or crashes; every worker ever forked is
# live (at most one per --max-inflight slot), retired, or dead of a
# crash.
echo '{"id":1,"op":"stats"}' | "$BIN" request --socket "$TMP/worker.sock" \
  >"$TMP/worker-stats.jsonl"
TERMINAL=$(jq -s '[.[] | select(.error == "worker_crash")] | length' "$TMP/worker/all.jsonl")
SOLVE_FRAMES=$((CLIENTS * WORKER_REPS * 4))
jq -e -s --argjson terminal "$TERMINAL" --argjson solves "$SOLVE_FRAMES" '
  .[0].workers
  | .sandbox == true
    and .live >= 1 and .live <= 4
    and .crashes.total > 0
    and .crashes.total == .retries + $terminal
    and .completed + .crashes.total == $solves + .retries
    and .spawned == .live + .retired + .crashes.total
    and .dumps == $terminal
    and .crashes.total == (.crashes.signal + .crashes.oom + .crashes.cpu
                           + .crashes.watchdog + .crashes.protocol
                           + .crashes.exit)' \
  "$TMP/worker-stats.jsonl" >/dev/null || fail "worker: stats accounting does not balance"
DUMPED=$(find "$SPOOL" -name 'crash-*.json' 2>/dev/null | wc -l)
[ "$DUMPED" -eq "$TERMINAL" ] \
  || fail "worker: $TERMINAL terminal crashes but $DUMPED spooled dumps"
# Terminal crash responses must name their dump artifact.
jq -e -s '[.[] | select(.error == "worker_crash") | has("dump")] | all' \
  "$TMP/worker/all.jsonl" >/dev/null || fail "worker: a terminal crash response lacks its dump path"

stop_daemon "worker"
jq -e -f "$METRICS_SCHEMA" "$TMP/worker-metrics.json" >/dev/null \
  || fail "worker: metrics document violates $METRICS_SCHEMA"
jq -e '[.counters[] | select(.name == "serve.worker.spawn") | .total > 0] | any' \
  "$TMP/worker-metrics.json" >/dev/null || fail "worker: serve.worker.spawn not positive in metrics"

# --- Phase 4: one connection, >=5000 pipelined frames ----------------
# The client writes frames while the daemon answers; a client that wrote
# everything before reading would fill both socket buffers and hang.
PIPELINED=5000
start_daemon "$TMP/pipe.sock" ""
for i in $(seq 1 "$PIPELINED"); do
  if [ $((i % 2)) -eq 0 ]; then
    printf '{"id":%d,"op":"ping"}\n' "$i"
  else
    printf '{"id":%d,"op":"solve","source":"size 3\\nE 0 1\\nE 1 2\\nE 2 0\\n","target":"size 2\\nE 0 1\\nE 1 0\\n"}\n' "$i"
  fi
done >"$TMP/pipe-frames.jsonl"
timeout 120 "$BIN" request --socket "$TMP/pipe.sock" <"$TMP/pipe-frames.jsonl" >"$TMP/pipe.jsonl" \
  || fail "pipelining: cqc request failed or hung"
[ "$(wc -l <"$TMP/pipe.jsonl")" -eq "$PIPELINED" ] \
  || fail "pipelining: expected $PIPELINED responses, got $(wc -l <"$TMP/pipe.jsonl")"
jq -e -s --argjson n "$PIPELINED" '
  ([.[] | .id] == [range(1; $n + 1)])
  and ([.[] | select(.op == "solve") | .verdict == "unsat"] | all)
  and ([.[] | select(.status != "ok")] | length == 0)' \
  "$TMP/pipe.jsonl" >/dev/null || fail "pipelining: responses out of order or wrong"
stop_daemon "pipelining"

# --- Phase 5: start -> request -> SIGTERM cycles ----------------------
# A SIGTERM must never be lost in the accept loop: each daemon forks one
# worker for its solve, and must exit 0 within 10 s with that worker
# reaped (stop_daemon checks both).
CYCLES=200
for cycle in $(seq 1 "$CYCLES"); do
  sock="$TMP/cycle.sock"
  "$BIN" serve --socket "$sock" 2>"$TMP/serve.stderr" &
  SERVE_PID=$!
  printf '%s\n%s\n' '{"id":1,"op":"ping"}' \
    '{"id":2,"op":"solve","source":"size 2\nE 0 1\nE 1 0\n","target":"size 2\nE 0 1\nE 1 0\n"}' \
    | "$BIN" request --socket "$sock" --retry 8 >"$TMP/cycle.jsonl" \
    || fail "cycle $cycle: request failed"
  [ "$(jq -s 'map(.status) == ["ok", "ok"]' "$TMP/cycle.jsonl")" = true ] \
    || fail "cycle $cycle: bad responses"
  stop_daemon "cycle $cycle"
done

echo "serve_smoke: OK ($((CLIENTS * FRAMES_PER_CLIENT)) clean + $((CLIENTS * FRAMES_PER_CLIENT)) chaos + $WORKER_EXPECTED worker-chaos responses, all typed; $TERMINAL terminal worker crashes, accounting exact; $PIPELINED pipelined frames; $CYCLES drain cycles; graceful drains)"
