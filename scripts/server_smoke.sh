#!/usr/bin/env bash
# Server smoke test: boots astql-server on a Unix-domain socket and drives
# the whole client path against it — every example script, a typed-error
# round trip (bad SQL must yield a structured error AND a non-zero client
# exit without killing the connection for the next request), a check that
# the server.* metrics counted the traffic and that the shutdown dump
# carries the planning and guard counters (the registry is the only place
# a server's planning counts live), and refusal of malformed settings. Run
# from anywhere;
# it cd's to the repo root. CI runs it in the server-smoke job next to the
# PERF8 serving gate (ASTRW_SMOKE=1 bench run).
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/astql.exe bin/astql_server.exe

SOCK=$(mktemp -u "${TMPDIR:-/tmp}/astql-smoke-XXXXXX.sock")
METRICS=$(mktemp "${TMPDIR:-/tmp}/astql-smoke-metrics-XXXXXX.json")
ERRTXT=$(mktemp "${TMPDIR:-/tmp}/astql-smoke-err-XXXXXX.txt")

DURDIR=$(mktemp -d "${TMPDIR:-/tmp}/astql-smoke-dur-XXXXXX")

SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$SOCK" "$METRICS" "$ERRTXT"
  rm -rf "$DURDIR"
}
trap cleanup EXIT

./_build/default/bin/astql_server.exe \
  --addr "$SOCK" --domains 2 --queue-depth 16 --metrics-out "$METRICS" &
SERVER_PID=$!

# no sleep-polling for the socket: the client retries connection
# establishment with bounded exponential backoff while the server boots
echo "== example scripts through the client =="
first=--retry=10
for f in examples/*.sql; do
  echo "--- $f"
  ./_build/default/bin/astql.exe connect $first "$SOCK" "$f"
  first=
done

echo "== typed-error round trip =="
if ./_build/default/bin/astql.exe connect "$SOCK" \
     -e 'SELECT no_such_column FROM sales GROUP BY no_such_column;' \
     >"$ERRTXT" 2>&1; then
  echo "FAIL: bad SQL should exit non-zero"
  cat "$ERRTXT"
  exit 1
fi
grep -q 'session_error' "$ERRTXT" || {
  echo "FAIL: expected a structured session_error, got:"
  cat "$ERRTXT"
  exit 1
}

# the same server must still answer after shedding the failed statement
./_build/default/bin/astql.exe connect "$SOCK" \
  -e 'SELECT region, SUM(qty) AS q FROM sales GROUP BY region ORDER BY region;'

echo "== clean shutdown + metrics =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero on SIGTERM"; exit 1; }
SERVER_PID=

grep -q '"server.requests"' "$METRICS" || {
  echo "FAIL: server.requests missing from metrics dump"; exit 1;
}
grep -q '"server.connections"' "$METRICS" || {
  echo "FAIL: server.connections missing from metrics dump"; exit 1;
}
plan_requests=$(grep -o '"plan\.requests": *[0-9]*' "$METRICS" | grep -o '[0-9]*$' || true)
[ "${plan_requests:-0}" -gt 0 ] || {
  echo "FAIL: plan.requests is '${plan_requests}', expected > 0"; exit 1;
}
for key in guard.fallbacks guard.verify_mismatches; do
  grep -q "\"$key\"" "$METRICS" || {
    echo "FAIL: $key missing from metrics dump"; exit 1;
  }
done

echo "== malformed limits exit 2, naming the setting =="
# the env variable and the flag share one validity rule (finite, > 0);
# the server must refuse to start rather than run unlimited or exhausted
expect_bad_limit() {
  local name=$1; shift
  local status=0
  "$@" >"$ERRTXT" 2>&1 || status=$?
  [ "$status" -eq 2 ] || {
    echo "FAIL: $* exited $status, expected 2"; cat "$ERRTXT"; exit 1;
  }
  grep -q -- "$name" "$ERRTXT" || {
    echo "FAIL: message does not name $name:"; cat "$ERRTXT"; exit 1;
  }
}
expect_bad_limit ASTQL_DEADLINE_MS \
  env ASTQL_DEADLINE_MS=abc ./_build/default/bin/astql_server.exe --addr "$SOCK"
expect_bad_limit --deadline-ms \
  ./_build/default/bin/astql_server.exe --addr "$SOCK" --deadline-ms=-1

echo "== negative checkpoint interval is refused =="
# a negative interval would never checkpoint; cmdliner rejects it (exit
# 124) for the flag and the env variable alike, naming the setting. The
# timeout only bounds a server that wrongly started; its exit carries no
# message, so it still fails the name check.
expect_bad_checkpoint() {
  local name=$1; shift
  local status=0
  "$@" >"$ERRTXT" 2>&1 || status=$?
  [ "$status" -ne 0 ] || {
    echo "FAIL: $* accepted a negative checkpoint interval"; exit 1;
  }
  grep -q -- "$name" "$ERRTXT" || {
    echo "FAIL: $* exited $status without naming $name:"
    cat "$ERRTXT"; exit 1;
  }
}
expect_bad_checkpoint checkpoint-every timeout 10 \
  ./_build/default/bin/astql_server.exe --addr "$SOCK" --checkpoint-every=-1
expect_bad_checkpoint checkpoint-every \
  ./_build/default/bin/astql.exe run --checkpoint-every=-1 /dev/null
expect_bad_checkpoint ASTQL_CHECKPOINT_EVERY \
  env ASTQL_CHECKPOINT_EVERY=-3 ./_build/default/bin/astql.exe run /dev/null

echo "== durability: drain on SIGTERM, final checkpoint, recovery =="
./_build/default/bin/astql_server.exe \
  --addr "$SOCK" --domains 2 --durability "$DURDIR" --drain-ms 2000 &
SERVER_PID=$!

./_build/default/bin/astql.exe connect --retry 10 "$SOCK" \
  -e 'CREATE TABLE d (a INT NOT NULL); INSERT INTO d VALUES (1), (2), (3);'

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: durable server exited non-zero on SIGTERM"; exit 1; }
SERVER_PID=

ls "$DURDIR"/ckpt-*.json >/dev/null 2>&1 || {
  echo "FAIL: no final checkpoint written on SIGTERM"; exit 1;
}

./_build/default/bin/astql_server.exe \
  --addr "$SOCK" --domains 2 --durability "$DURDIR" &
SERVER_PID=$!

./_build/default/bin/astql.exe connect --retry 10 "$SOCK" \
  -e 'SELECT COUNT(*) AS n FROM d;' | grep -q '| 3 ' || {
  echo "FAIL: rebooted server lost committed writes"; exit 1;
}

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero on SIGTERM"; exit 1; }
SERVER_PID=

echo "server smoke OK"
