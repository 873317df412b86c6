#!/usr/bin/env bash
# Crash-recovery torture: a seeded kill -9 loop over every armed crash
# point in the durability path (wal_append, wal_fsync, checkpoint_write,
# checkpoint_rename). Each iteration runs a write workload with one crash
# point armed — the process SIGKILLs itself at that exact step, exactly
# like kill -9 — then recovers and checks the invariants:
#
#   * no acknowledged write is lost: every INSERT whose ack reached stdout
#     before the kill is present after recovery;
#   * applied is a prefix of issued: MAX(seq) == COUNT(*) <= the number of
#     statements issued (replay never reorders, skips or duplicates);
#   * a rolled-back statement (NOT NULL violation mid-statement) is never
#     resurrected by replay;
#   * the recovered database bag-equals a never-crashed reference run of
#     the same statement prefix, and the summary-backed aggregate agrees;
#   * recovery is idempotent: a second boot of the same directory reports
#     a clean log and identical data.
#
# A final degraded-recovery phase adds a summary with a MAX, which a
# DELETE makes stale, so the checkpoint keeps its payload; it corrupts
# that payload's chunk in place and checks the summary is quarantined
# (not trusted, not fatal), answers stay right, and REFRESH rebuilds it.
# It also checks the manifest names no chunk for the fresh kv_by_grp:
# recovery re-derives a fresh summary instead of reading it.
#
#   SEED=7 ITERS=24 scripts/crash_torture.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-1}"
ITERS="${ITERS:-24}"
INSERTS=12

dune build bin/astql.exe

ASTQL=./_build/default/bin/astql.exe
WORK=$(mktemp -d "${TMPDIR:-/tmp}/astql-torture-XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# ---- workload ------------------------------------------------------------
# LSN 1: CREATE TABLE; LSN 2: CREATE SUMMARY; then one rollback probe
# (no LSN — the whole statement fails its NOT NULL check and rolls back),
# then $INSERTS single-row inserts, LSNs 3..(2+INSERTS). v = seq, so the
# summary's SUM over the full run is INSERTS*(INSERTS+1)/2 = 78.
{
  echo "CREATE TABLE kv (seq INT NOT NULL, grp VARCHAR NOT NULL, v INT NOT NULL);"
  echo "CREATE SUMMARY TABLE kv_by_grp AS SELECT grp, SUM(v) AS sv, COUNT(*) AS n FROM kv GROUP BY grp;"
  echo "INSERT INTO kv VALUES (888888, 'g', 1), (888889, 'g', NULL);"
  for i in $(seq 1 "$INSERTS"); do
    echo "INSERT INTO kv VALUES ($i, 'g', $i);"
  done
} > "$WORK/workload.sql"

cat > "$WORK/verify.sql" <<'EOF'
SELECT seq, grp, v FROM kv ORDER BY seq;
SELECT grp, SUM(v) AS sv, COUNT(*) AS n FROM kv GROUP BY grp ORDER BY grp;
EOF

# Reference prefixes: ref_dump[k] = the dump a never-crashed run produces
# after the first k inserts. Built once, in memory, no durability.
mkdir -p "$WORK/ref"
for k in $(seq 0 "$INSERTS"); do
  {
    head -2 "$WORK/workload.sql"   # schema only, no probe
    for i in $(seq 1 "$k"); do
      echo "INSERT INTO kv VALUES ($i, 'g', $i);"
    done
    cat "$WORK/verify.sql"
  } > "$WORK/ref/prefix_$k.sql"
  "$ASTQL" run "$WORK/ref/prefix_$k.sql" \
    | grep -v 'created\|inserted\|maintainable\|lint' > "$WORK/ref/dump_$k.txt"
done

POINTS=(wal_append wal_fsync checkpoint_write checkpoint_rename)
fails=0
fired=0

for it in $(seq 1 "$ITERS"); do
  point=${POINTS[$(( (SEED + it) % 4 ))]}
  case "$point" in
    # append/fsync hits count commits; offset past the 2 schema LSNs so
    # the table always exists when we crash
    wal_append|wal_fsync) hit=$(( 3 + (SEED * 7 + it * 5) % INSERTS )) ;;
    # checkpoint hits count checkpoints; --checkpoint-every 2 yields ~7
    checkpoint_write|checkpoint_rename) hit=$(( 1 + (SEED * 3 + it) % 5 )) ;;
  esac

  DIR="$WORK/dur_$it"
  out="$WORK/out_$it.txt"
  rc=0
  "$ASTQL" run --durability "$DIR" --fsync always --checkpoint-every 2 \
      --crash "$point:$hit" "$WORK/workload.sql" > "$out" 2>/dev/null || rc=$?
  if [ "$rc" -ne 137 ]; then
    echo "FAIL[$it $point:$hit]: expected SIGKILL (137), got rc=$rc"
    fails=$((fails + 1)); continue
  fi
  fired=$((fired + 1))
  acked=$(grep -c "row(s) inserted into kv" "$out" || true)

  # ---- recover and verify ----
  dump="$WORK/dump_$it.txt"
  if ! "$ASTQL" run --durability "$DIR" "$WORK/verify.sql" 2>"$WORK/rec_$it.txt" \
      | grep -v 'created\|inserted\|maintainable\|lint' > "$dump"; then
    echo "FAIL[$it $point:$hit]: recovery run failed"
    sed 's/^/  /' "$WORK/rec_$it.txt"
    fails=$((fails + 1)); continue
  fi

  # applied = number of kv rows after recovery: data rows of the first
  # query look like '| 3  | g | 3  |' (the summary row leads with 'g')
  applied=$(grep -cE '^\| +[0-9]+ +\| g ' "$dump" || true)

  if [ "$applied" -lt "$acked" ]; then
    echo "FAIL[$it $point:$hit]: lost acknowledged writes (acked=$acked, applied=$applied)"
    fails=$((fails + 1)); continue
  fi
  if [ "$applied" -gt "$INSERTS" ]; then
    echo "FAIL[$it $point:$hit]: more rows than issued (applied=$applied)"
    fails=$((fails + 1)); continue
  fi
  if grep -q "88888" "$dump"; then
    echo "FAIL[$it $point:$hit]: rolled-back statement resurrected"
    fails=$((fails + 1)); continue
  fi
  # bag-equality with the never-crashed reference for the same prefix
  # (prefix property — MAX(seq) == COUNT(*) — is implied by the diff)
  if ! diff -q "$WORK/ref/dump_$applied.txt" "$dump" >/dev/null; then
    echo "FAIL[$it $point:$hit]: recovered db diverges from reference (applied=$applied)"
    diff "$WORK/ref/dump_$applied.txt" "$dump" | head -10 | sed 's/^/  /'
    fails=$((fails + 1)); continue
  fi
  # idempotence: recovering again must change nothing
  "$ASTQL" run --durability "$DIR" "$WORK/verify.sql" 2>/dev/null \
    | grep -v 'created\|inserted\|maintainable\|lint' > "$dump.2"
  if ! diff -q "$dump" "$dump.2" >/dev/null; then
    echo "FAIL[$it $point:$hit]: second recovery diverges from first"
    fails=$((fails + 1)); continue
  fi
  echo "ok [$it] $point:$hit acked=$acked applied=$applied"
done

if [ "$fired" -lt "$ITERS" ]; then
  echo "FAIL: only $fired/$ITERS crash iterations actually fired"
  fails=$((fails + 1))
fi

# ---- degraded recovery: corrupted stale-summary payload ------------------
echo "== corrupted summary payload =="
DIR="$WORK/dur_corrupt"
# kv_max has a MAX, so the DELETE makes it stale (a MAX cannot be
# maintained under deletion) while kv_by_grp absorbs it and stays fresh.
# The row inserted and deleted leaves kv as the full workload made it.
{
  cat "$WORK/workload.sql"
  echo "CREATE SUMMARY TABLE kv_max AS SELECT grp, MAX(v) AS mv, COUNT(*) AS n FROM kv GROUP BY grp;"
  echo "INSERT INTO kv VALUES (999, 'h', 777);"
  echo "DELETE FROM kv WHERE seq = 999;"
} > "$WORK/stale.sql"
"$ASTQL" run --durability "$DIR" "$WORK/stale.sql" >/dev/null 2>&1 || true
CKPT=$(ls "$DIR"/ckpt-*.json | sort -V | tail -1)
# a fresh summary is re-derived at recovery: the manifest names no chunk
# for it
FRESH=$(grep -o '"name": "kv_by_grp"[^}]*' "$CKPT" || true)
if [ -z "$FRESH" ] || ! grep -q '"fresh": true' <<<"$FRESH" \
    || grep -q '"chunks"' <<<"$FRESH"; then
  echo "FAIL: the newest manifest names chunks for the fresh kv_by_grp"
  fails=$((fails + 1))
fi
# the stale kv_max keeps its payload, ("g", 12, 12) and ("h", 777, 1), in
# a range chunk named in the newest manifest, MAX 777 as int64
# little-endian; bit-rot that value in the chunk file
CHUNK=$(grep -o '"name": "kv_max"[^}]*' "$CKPT" \
  | grep -o '"chunks": \[[^]]*\]' | grep -o '[0-9a-f]\{32\}' | head -1)
HEX=$(od -An -v -tx1 "$DIR/$CHUNK.chunk" 2>/dev/null | tr -d ' \n')
BEFORE=${HEX%%0903000000000000*}
if [ -z "$CHUNK" ] || [ "$BEFORE" = "$HEX" ] || [ $(( ${#BEFORE} % 2 )) -ne 0 ]; then
  echo "FAIL: expected the stale summary's payload in a chunk of $CKPT"; exit 1
fi
printf '\377' | dd of="$DIR/$CHUNK.chunk" bs=1 seek=$(( ${#BEFORE} / 2 )) \
  conv=notrunc status=none
echo "SELECT grp, MAX(v) AS mv, COUNT(*) AS n FROM kv GROUP BY grp ORDER BY grp;" \
  > "$WORK/verify_max.sql"
rec="$WORK/rec_corrupt.txt"
"$ASTQL" run --durability "$DIR" "$WORK/verify.sql" 2>"$rec" \
  | grep -v 'created\|inserted\|maintainable\|lint' > "$WORK/dump_corrupt.txt"
grep -q "quarantined for rebuild: kv_max" "$rec" || {
  echo "FAIL: corrupted payload was not quarantined"; cat "$rec"; fails=$((fails + 1));
}
if ! diff -q "$WORK/ref/dump_$INSERTS.txt" "$WORK/dump_corrupt.txt" >/dev/null \
    || ! "$ASTQL" run --durability "$DIR" "$WORK/verify_max.sql" 2>/dev/null \
      | grep -qE '^\| g +\| 12 +\| 12 +\|$'; then
  echo "FAIL: degraded recovery served wrong answers"
  fails=$((fails + 1))
fi
# the ordinary rebuild path restores the summary from recovered base data:
# its own rows, read directly, are the full workload's
"$ASTQL" run --durability "$DIR" \
  <(echo "REFRESH SUMMARY TABLE kv_max; SELECT grp, mv, n FROM kv_max;") \
  2>/dev/null > "$WORK/refreshed.txt"
if ! grep -qE '^\| g +\| 12 +\| 12 +\|$' "$WORK/refreshed.txt" \
    || grep -q '777' "$WORK/refreshed.txt"; then
  echo "FAIL: quarantined summary did not rebuild"; fails=$((fails + 1))
fi

if [ "$fails" -gt 0 ]; then
  echo "crash torture: $fails failure(s) over $ITERS iterations (seed $SEED)"
  exit 1
fi
echo "crash torture OK: $ITERS kill -9 iterations, all invariants held (seed $SEED)"
