#!/usr/bin/env bash
# End-to-end smoke for the crashsim_serve service (docs/SERVING.md):
#
#   1. generate a small temporal dataset and its static projection, and
#      require `crashsim_cli temporal` and `durable` to reject a query
#      interval past the last snapshot with exit code 2 and an `error:`
#      line, never a CHECK abort;
#   2. start crashsim_serve on ephemeral ports with degradation off;
#   3. drive it with 8 concurrent hot-key replay clients over 3 sources and
#      require N hot queries not to run N trial loops: at most 3 tree
#      builds, at most 3 answer computations, and answer-cache hits +
#      coalesced > 0;
#   4. diff a served topk answer byte-for-byte against `crashsim_cli topk`
#      on the same graph/seed — the serving path, answered here from the
#      answer cache, must not change results;
#   5. scrape GET /metrics and validate the Prometheus exposition format
#      with tools/check_prometheus.py;
#   6. scrape GET /statusz and GET /tracez, validate both schemas with
#      tools/check_statusz.py, and require one request id to correlate
#      end-to-end: replay --latency_out CSV -> slow-query event log ->
#      /tracez span tree (the server runs with --slow_query_ms 0 and
#      --tracez_sample_every 1 so every request is logged and sampled);
#   7. require 404 on unknown debug paths and 405 on non-GET methods;
#   8. SIGTERM the server mid-replay and require a clean drain ("clean
#      shutdown" banner, exit code 0, replay tolerating the cut);
#   9. restart it with default tracing flags, open 64 short-lived
#      connections, and require its RSS (VmRSS) to grow by less than 32 MiB:
#      nothing may be kept per connection thread.
#
#   tools/run_serve_smoke.sh [--build-dir DIR]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 1 ;;
  esac
done

CLI="${BUILD_DIR}/tools/crashsim_cli"
SERVE="${BUILD_DIR}/tools/crashsim_serve"
for bin in "$CLI" "$SERVE"; do
  [[ -x "$bin" ]] || { echo "missing binary: $bin" >&2; exit 1; }
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== generate dataset"
"$CLI" generate --dataset as733 --scale 0.02 --snapshots 6 \
  --out "$WORK/tiny.tel"
# Static projection: snapshot-0 edges of the temporal list.
awk '$1 !~ /^#/ && $3 == 0 {print $1, $2}' "$WORK/tiny.tel" > "$WORK/tiny.el"

echo "== out-of-range query interval is a usage error"
for cmd in temporal durable; do
  RC=0
  "$CLI" "$cmd" --graph "$WORK/tiny.tel" --undirected --source 3 --end 99 \
    > /dev/null 2> "$WORK/bad_interval.err" || RC=$?
  [[ "$RC" -eq 2 ]] || {
    echo "FAIL: $cmd --end 99 exited $RC, want 2" >&2
    cat "$WORK/bad_interval.err" >&2; exit 1; }
  if grep -q "CHECK failed" "$WORK/bad_interval.err"; then
    echo "FAIL: $cmd --end 99 hit a CHECK" >&2
    cat "$WORK/bad_interval.err" >&2; exit 1
  fi
  grep -q "^error: " "$WORK/bad_interval.err" || {
    echo "FAIL: $cmd --end 99 printed no error line" >&2
    cat "$WORK/bad_interval.err" >&2; exit 1; }
done
echo "   temporal and durable both exit 2"

echo "== start crashsim_serve"
# degrade_at 0: degradation would shrink trial budgets under load and break
# the bit-identity check below. trials capped so the smoke stays fast.
"$SERVE" --graph "$WORK/tiny.el" --temporal "$WORK/tiny.tel" --undirected \
  --degrade_at 0 --max_concurrent 8 --max_queue 64 --trials 2000 --seed 42 \
  --event_log "$WORK/events.jsonl" --slow_query_ms 0 \
  --tracez_capacity 64 --tracez_sample_every 1 \
  --port_file "$WORK/ports.txt" > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  [[ -s "$WORK/ports.txt" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log" >&2; exit 1; }
  sleep 0.1
done
[[ -s "$WORK/ports.txt" ]] || { echo "server never bound" >&2; exit 1; }
PORT="$(awk '{print $1}' "$WORK/ports.txt")"
MPORT="$(awk '{print $2}' "$WORK/ports.txt")"
echo "   port=$PORT metrics_port=$MPORT"

echo "== hot-key replay (8 clients)"
"$CLI" replay --port "$PORT" --clients 8 --requests 12 \
  --sources "3,1,5" --hot_fraction 0.8 --k 10 --seed 9 \
  --latency_out "$WORK/latency.csv" | tee "$WORK/replay.txt"
grep -q "OK 96" "$WORK/replay.txt" || {
  echo "FAIL: expected 96 OK responses" >&2; exit 1; }
head -1 "$WORK/latency.csv" | grep -q \
  "^request_id,client,source,status,client_ms,server_queue_ms,server_cache_ms,server_walk_ms,server_serialize_ms$" || {
  echo "FAIL: bad --latency_out CSV header" >&2; exit 1; }

echo "== scrape /metrics"
SCRAPE="$WORK/metrics.txt"
if command -v curl >/dev/null 2>&1; then
  curl -sf "http://127.0.0.1:${MPORT}/metrics" > "$SCRAPE"
else
  python3 -c "import urllib.request,sys; \
sys.stdout.write(urllib.request.urlopen('http://127.0.0.1:${MPORT}/metrics').read().decode())" \
    > "$SCRAPE"
fi
python3 "${REPO_ROOT}/tools/check_prometheus.py" "$SCRAPE" \
  --require crashsim_cache_misses_total \
  --require crashsim_answer_cache_hits_total \
  --require crashsim_answer_cache_misses_total \
  --require crashsim_answer_cache_coalesced_total \
  --require crashsim_serve_topk_us_count

echo "== shared cache effectiveness: N hot queries run <= 3 trial loops"
series() { awk -v name="$1" '$1 == name {print $2}' "$SCRAPE"; }
TREE_MISSES="$(series crashsim_cache_misses_total)"
ANSWER_HITS="$(series crashsim_answer_cache_hits_total)"
ANSWER_MISSES="$(series crashsim_answer_cache_misses_total)"
ANSWER_COALESCED="$(series crashsim_answer_cache_coalesced_total)"
echo "   tree misses=$TREE_MISSES answer hits=$ANSWER_HITS" \
  "misses=$ANSWER_MISSES coalesced=$ANSWER_COALESCED"
# 3 distinct sources -> at most 3 tree builds and 3 trial loops; every other
# query must be served by (or wait on) a cached answer.
[[ "$TREE_MISSES" -le 3 ]] || {
  echo "FAIL: expected <= 3 tree builds, got $TREE_MISSES" >&2; exit 1; }
[[ "$ANSWER_MISSES" -le 3 ]] || {
  echo "FAIL: expected <= 3 answer computations, got $ANSWER_MISSES" >&2
  exit 1; }
[[ $((ANSWER_HITS + ANSWER_COALESCED)) -gt 0 ]] || {
  echo "FAIL: hot-key workload never reused a cached answer" >&2; exit 1; }

echo "== debug endpoints: /statusz + /tracez + event log correlation"
fetch() {  # fetch URL OUT — curl when present, stdlib python otherwise
  if command -v curl >/dev/null 2>&1; then
    curl -sf "$1" > "$2"
  else
    python3 -c "import urllib.request,sys; \
sys.stdout.buffer.write(urllib.request.urlopen(sys.argv[1]).read())" "$1" > "$2"
  fi
}
fetch "http://127.0.0.1:${MPORT}/statusz" "$WORK/statusz.json"
fetch "http://127.0.0.1:${MPORT}/tracez" "$WORK/tracez.json"
# slow_query_ms 0 logs every request; give the async writer a beat to drain.
sleep 0.3
python3 "${REPO_ROOT}/tools/check_statusz.py" \
  --statusz "$WORK/statusz.json" --tracez "$WORK/tracez.json" \
  --event-log "$WORK/events.jsonl" --latency-csv "$WORK/latency.csv"

echo "== HTTP listener hardening: 404 / 405 / split writes"
HTTP_CODES="$(python3 - "$MPORT" <<'PY'
import socket, sys, time
port = int(sys.argv[1])

def code_for(payload, split=False):
    s = socket.create_connection(("127.0.0.1", port), timeout=5)
    if split:  # dribble the request line byte-groups apart
        for i in range(0, len(payload), 7):
            s.sendall(payload[i:i + 7])
            time.sleep(0.01)
    else:
        s.sendall(payload)
    data = b""
    while b"\r\n" not in data:
        chunk = s.recv(4096)
        if not chunk:
            break
        data += chunk
    s.close()
    return data.split(b" ")[1].decode() if data else "EOF"

print(code_for(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"))
print(code_for(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n"))
print(code_for(b"GET /statusz HTTP/1.1\r\nHost: x\r\n\r\n", split=True))
PY
)"
[[ "$HTTP_CODES" == $'404\n405\n200' ]] || {
  echo "FAIL: expected 404/405/200, got: $HTTP_CODES" >&2; exit 1; }
echo "   404/405/split-write all answered correctly"

echo "== bit-identity vs crashsim_cli topk"
"$CLI" replay --port "$PORT" --sources "3" --k 10 --once > "$WORK/served.txt"
# --timeout_ms makes the CLI print the anytime trailer line
# "(anytime: k/N trials, epsilon_achieved=...)" that replay --once prints
# for a served answer; without it the two outputs differ in format only.
"$CLI" topk --graph "$WORK/tiny.el" --undirected --source 3 --k 10 \
  --algo crashsim --trials 2000 --seed 42 --timeout_ms 600000 \
  > "$WORK/direct.txt"
diff "$WORK/served.txt" "$WORK/direct.txt" || {
  echo "FAIL: served topk differs from the direct CLI answer" >&2; exit 1; }
echo "   identical"

echo "== graceful shutdown under load"
# Open loop at 100 req/s per client keeps the replay running for ~2 s
# whatever the per-request cost: source 3 is answered from the answer cache
# by now, and a closed loop would finish before the SIGTERM lands.
"$CLI" replay --port "$PORT" --clients 4 --requests 200 --sources "3" \
  --mode open --rate 100 --tolerate_eof > "$WORK/drain_replay.txt" &
REPLAY_PID=$!
sleep 0.7  # let the replay clients get queries in flight
kill -TERM "$SERVER_PID"
SERVE_RC=0
wait "$SERVER_PID" || SERVE_RC=$?
wait "$REPLAY_PID" || true
[[ "$SERVE_RC" -eq 0 ]] || {
  echo "FAIL: server exited $SERVE_RC on SIGTERM" >&2; exit 1; }
grep -q "clean shutdown" "$WORK/serve.log" || {
  echo "FAIL: no clean-shutdown banner"; cat "$WORK/serve.log" >&2; exit 1; }
SERVER_PID=""
grep -q "TRANSPORT_TOLERATED" "$WORK/drain_replay.txt" || {
  echo "FAIL: the replay finished before the SIGTERM: nothing was drained" >&2
  cat "$WORK/drain_replay.txt" >&2; exit 1; }
echo "   drained cleanly"

echo "== connection churn: 64 short-lived connections, bounded RSS"
# Default flags, so /tracez is on and every request builds its collector.
# Each replay client is one connection thread that serves one request.
"$SERVE" --graph "$WORK/tiny.el" --undirected --trials 2000 --seed 42 \
  --port_file "$WORK/churn_ports.txt" > "$WORK/churn_serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  [[ -s "$WORK/churn_ports.txt" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    cat "$WORK/churn_serve.log" >&2; exit 1; }
  sleep 0.1
done
[[ -s "$WORK/churn_ports.txt" ]] || { echo "server never bound" >&2; exit 1; }
PORT="$(awk '{print $1}' "$WORK/churn_ports.txt")"
rss_kb() { awk '/^VmRSS:/ {print $2}' "/proc/${SERVER_PID}/status"; }
# Warm-up: the first answer builds the tree and fills the answer cache.
"$CLI" replay --port "$PORT" --clients 1 --requests 1 --sources "3" \
  > /dev/null
RSS_BEFORE_KB="$(rss_kb)"
for _ in 1 2 3 4; do
  "$CLI" replay --port "$PORT" --clients 16 --requests 1 --sources "3" \
    > "$WORK/churn_replay.txt"
  grep -q "OK 16" "$WORK/churn_replay.txt" || {
    echo "FAIL: expected 16 OK responses" >&2
    cat "$WORK/churn_replay.txt" >&2; exit 1; }
done
RSS_AFTER_KB="$(rss_kb)"
GROWTH_KB=$((RSS_AFTER_KB - RSS_BEFORE_KB))
echo "   RSS ${RSS_BEFORE_KB} KiB -> ${RSS_AFTER_KB} KiB (+${GROWTH_KB} KiB)"
[[ "$GROWTH_KB" -lt $((32 * 1024)) ]] || {
  echo "FAIL: 64 connections grew RSS by ${GROWTH_KB} KiB (limit 32 MiB)" >&2
  exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""

echo "serve smoke: OK"
