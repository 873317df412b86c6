#!/usr/bin/env bash
# Keeps identifier resolution in one place: Catalog looks up a name the
# user typed and Qgm.Builder writes every column and table reference in
# its declared spelling, so the layers that read the QGM or the declared
# names compare names with [=]. This fails when one of those layers folds
# case again: a `let norm` definition or a String.lowercase_ascii call.
#
#   scripts/check_names.sh
#
# Run from anywhere; it cd's to the repo root. CI runs it in the
# static-checks job.
set -euo pipefail
cd "$(dirname "$0")/.."

checked=(
  lib/core/*.ml
  lib/prove/*.ml
  lib/lint/*.ml
  lib/plancache/*.ml
  lib/qgm/fingerprint.ml
  lib/qgm/typing.ml
  lib/qgm/unparse.ml
  lib/engine/vexec.ml
  lib/engine/db.ml
  lib/mvstore/store.ml
  lib/mvstore/session.ml
  lib/mvstore/maint.ml
  lib/durable/manager.ml
)

# Folding that is not identifier resolution: Unparse lower-cases the base
# table name in the alias it generates for a self-join.
allowed='lib/qgm/unparse.ml:[0-9]+:.*"%s_q%d" \(String\.lowercase_ascii t\)'

hits=$(grep -nE 'String\.lowercase_ascii|let norm\b' "${checked[@]}" | grep -vE "$allowed" || true)
if [[ -n "$hits" ]]; then
  echo "$hits"
  echo "check_names: $(wc -l <<<"$hits") case-folding line(s) below the builder;" \
    "resolve names through Catalog or Qgm.Builder instead" >&2
  exit 1
fi
echo "check_names: no case folding in ${#checked[@]} modules below the builder"
