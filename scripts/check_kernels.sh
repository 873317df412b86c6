#!/usr/bin/env bash
# Keeps the library's kernels monomorphic: builds the tree and fails when
# any native object under _build/default/lib has an undefined reference to
# caml_ba_get_1 or caml_ba_set_1. ocamlopt inlines a Bigarray access only
# when the array's element kind and layout are known at the call site
# (Column.ints / Column.floats); an access through a polymorphic buffer
# becomes an out-of-line call to one of these two runtime functions for
# every element, several times slower in a column loop.
#
#   scripts/check_kernels.sh
#
# Run from anywhere; it cd's to the repo root. Needs nm (binutils). CI runs
# it in the static-checks job.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build @all

objs=$(find _build/default/lib -name '*.o' | sort)
if [[ -z "$objs" ]]; then
  echo "check_kernels: no native object under _build/default/lib" >&2
  exit 2
fi

bad=0
nobjs=0
for o in $objs; do
  nobjs=$((nobjs + 1))
  refs=$(nm -u "$o" | awk '$2 == "caml_ba_get_1" || $2 == "caml_ba_set_1" { print $2 }')
  if [[ -n "$refs" ]]; then
    for r in $refs; do echo "$o: $r"; done
    bad=$((bad + $(wc -w <<<"$refs")))
  fi
done

echo "check_kernels: $bad caml_ba_get_1/caml_ba_set_1 references in $nobjs objects under lib/"
[[ $bad == 0 ]]
