#!/usr/bin/env bash
# Net line count of the OCaml sources, tracked as a number that should go
# down: the lines of every git-tracked .ml/.mli file, per top-level
# directory and in total.  Golden transcripts and other data files are not
# counted.
#
#   bash ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for d in lib bin bench test examples perfbench; do
  n=$(git ls-files -z -- "$d/*.ml" "$d/*.mli" | xargs -0 -r cat | wc -l)
  printf '%-11s %6d\n' "$d/" "$n"
  total=$((total + n))
done
printf '%-11s %6d\n' total "$total"
