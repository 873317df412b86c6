#!/usr/bin/env bash
# CI perf-regression gate: runs the bench in smoke mode and diffs the fresh
# BENCH_results.json workload timings against the committed baseline
# (bench/baseline.json). Any query whose exec_ms regresses by more than 30%
# (plus 0.5 ms absolute slack) fails the gate, and so does any query whose
# rewriting-off plan (base_scratch_bytes) or, when routed to a summary,
# rewritten plan (mv_scratch_bytes) requests more scratch-arena bytes than
# the baseline row records. A perf gate on shared CI runners is
# inherently noisy, so one failing run is retried once before the verdict
# sticks.
#
#   scripts/bench_gate.sh             gate against bench/baseline.json
#   scripts/bench_gate.sh --update    regenerate the baseline intentionally
#                                     (commit the result)
#   scripts/bench_gate.sh --record    gate, then append this run's line to
#                                     BENCH_history.jsonl (commit it)
#
# A --record line holds the git rev (and whether the tree had uncommitted
# changes), the scale, every workload row's routed_via, exec p50,
# base_scratch_bytes and mv_scratch_bytes (null on an unrouted row), the
# deterministic PERF4 / PERF5 / PERF11 counts the gate checks exactly, and
# PERF6's summary create_ms (one statement at a time) and create_run_ms (the
# same definitions as one CREATE run): one line per change, so the
# trajectory across changes can be re-checked from the repository. It needs
# jq.
#
# Run from anywhere; it cd's to the repo root. CI runs this in the
# bench-smoke job and uploads BENCH_results.json / BENCH_metrics.json as
# artifacts either way.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=bench/baseline.json

dune build bench/main.exe

if [[ "${1:-}" == "--update" ]]; then
  ASTRW_SMOKE=1 dune exec --no-build bench/main.exe -- \
    --write-baseline "$BASELINE"
  echo "baseline updated: $BASELINE (commit it)"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "no $BASELINE — run scripts/bench_gate.sh --update and commit it" >&2
  exit 2
fi

record=0
case "${1:-}" in
  "") ;;
  --record) record=1 ;;
  *) echo "usage: $0 [--update | --record]" >&2; exit 2 ;;
esac

gate() { ASTRW_SMOKE=1 dune exec --no-build bench/main.exe -- --gate "$BASELINE"; }

if ! gate; then
  echo "bench gate failed once; retrying to rule out runner noise..." >&2
  gate
fi

if [[ $record == 1 ]]; then
  rev=$(git rev-parse --short HEAD)
  dirty=false
  [[ -n "$(git status --porcelain --untracked-files=no)" ]] && dirty=true
  jq -c --arg rev "$rev" --argjson dirty "$dirty" '{
      rev: $rev,
      uncommitted_changes: $dirty,
      scale: .scale,
      workload: [.workload[] | {query, routed_via, exec_p50_ms: .exec_ms,
                                base_scratch_bytes, mv_scratch_bytes}],
      perf4: (.planning | {warm_match_boxes_calls, cache_hits, cache_misses,
                           candidates_attempted, candidates_filtered}),
      perf5: (.verification
              | map_values({verify_runs, verify_mismatches, verify_static_skips})),
      perf11: (.proving.sizes | map({pairs, proved, expected_proved})),
      perf6_create_ms: .governed_planning.create_ms,
      perf6_create_run_ms: .governed_planning.create_run_ms
    }' BENCH_results.json >> BENCH_history.jsonl
  echo "recorded: $(tail -n 1 BENCH_history.jsonl)"
fi
