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
# A final degraded-recovery phase corrupts the summary's payload chunk of
# the newest checkpoint in place and checks it is quarantined (not
# trusted, not fatal) and rebuilt by REFRESH.
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

# ---- degraded recovery: corrupted summary payload ------------------------
echo "== corrupted summary payload =="
DIR="$WORK/dur_corrupt"
"$ASTQL" run --durability "$DIR" "$WORK/workload.sql" >/dev/null 2>&1 || true
# the exit checkpoint stores the summary payload ("g", 78, 12) in a range
# chunk named in the newest manifest, SUM 78 as int64 little-endian;
# bit-rot that value in the chunk file
CKPT=$(ls "$DIR"/ckpt-*.json | sort -V | tail -1)
CHUNK=$(grep -o '"name": "kv_by_grp"[^}]*' "$CKPT" \
  | grep -o '"chunks": \[[^]]*\]' | grep -o '[0-9a-f]\{32\}' | head -1)
HEX=$(od -An -v -tx1 "$DIR/$CHUNK.chunk" 2>/dev/null | tr -d ' \n')
BEFORE=${HEX%%4e00000000000000*}
if [ -z "$CHUNK" ] || [ "$BEFORE" = "$HEX" ] || [ $(( ${#BEFORE} % 2 )) -ne 0 ]; then
  echo "FAIL: expected summary payload in a chunk of $CKPT"; exit 1
fi
printf '\377' | dd of="$DIR/$CHUNK.chunk" bs=1 seek=$(( ${#BEFORE} / 2 )) \
  conv=notrunc status=none
rec="$WORK/rec_corrupt.txt"
"$ASTQL" run --durability "$DIR" "$WORK/verify.sql" 2>"$rec" \
  | grep -v 'created\|inserted\|maintainable\|lint' > "$WORK/dump_corrupt.txt"
grep -q "quarantined for rebuild: kv_by_grp" "$rec" || {
  echo "FAIL: corrupted payload was not quarantined"; cat "$rec"; fails=$((fails + 1));
}
if ! diff -q "$WORK/ref/dump_$INSERTS.txt" "$WORK/dump_corrupt.txt" >/dev/null; then
  echo "FAIL: degraded recovery served wrong answers"
  fails=$((fails + 1))
fi
# the ordinary rebuild path restores the summary from recovered base data
"$ASTQL" run --durability "$DIR" \
  <(echo "REFRESH SUMMARY TABLE kv_by_grp; SELECT grp, SUM(v) AS sv, COUNT(*) AS n FROM kv GROUP BY grp;") \
  2>/dev/null | grep -q "| 78 " || {
  echo "FAIL: quarantined summary did not rebuild"; fails=$((fails + 1));
}

if [ "$fails" -gt 0 ]; then
  echo "crash torture: $fails failure(s) over $ITERS iterations (seed $SEED)"
  exit 1
fi
echo "crash torture OK: $ITERS kill -9 iterations, all invariants held (seed $SEED)"
