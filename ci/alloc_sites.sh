#!/usr/bin/env bash
# Inventory of the inline minor-heap allocations compiled into the
# packet-path and control-plane modules.  ocamlopt on x86-64 allocates by
# bumping the young pointer, so every inline allocation is one
# `sub $N,%r15` instruction; this lists, per function, how many such
# sites it has and their total size in words (header included, as
# Gc.minor_words counts them).  A site is not a per-packet (or per-hop,
# per-session) cost unless its function runs that often, and a site on a
# failure branch costs nothing until it fails: read it together with the
# Gc.minor_words budgets in test/test_budget.ml.  Allocations made inside
# C primitives (caml_alloc*, Hashtbl, Printf) do not appear.
# Informational only; exits 0 whatever it finds.
#
#   dune build && bash ci/alloc_sites.sh
set -euo pipefail
cd "$(dirname "$0")/.."
modules="sim:Engine sim:Link sim:Node sim:Probe sim:Packet core:Csz_sched
util:Kheap util:Ring util:Wheel traffic:Onoff traffic:Token_bucket
transport:Tcp util:Stats core:Signaling admission:Controller admission:Meter
check:Audit util:Seqmap"
for entry in $modules; do
  dir=${entry%%:*}
  m=${entry#*:}
  obj=$(find "_build/default/lib/$dir" -path '*native*' -name "*__$m.o" | head -n 1)
  if [ -z "$obj" ]; then
    echo "$m: no object file (run dune build first)"
    continue
  fi
  objdump -d --no-show-raw-insn "$obj" | awk -v m="$m" '
    /^[0-9a-f]+ <.*>:$/ {
      fn = $2
      sub(/^<caml[A-Za-z0-9_]*__/, "", fn)
      sub(/_[0-9]+>:$/, "", fn)
      sub(/>:$/, "", fn)
      next
    }
    /sub +\$0x[0-9a-f]+,%r15$/ {
      n = $NF
      sub(/^\$0x/, "", n)
      sub(/,%r15$/, "", n)
      w = 0
      for (i = 1; i <= length(n); i++)
        w = w * 16 + index("0123456789abcdef", substr(n, i, 1)) - 1
      if (!(fn in sites)) order[++k] = fn
      sites[fn]++
      words[fn] += w / 8
      total_sites++
      total_words += w / 8
    }
    END {
      printf "%s: %d sites, %d words\n", m, total_sites, total_words
      for (i = 1; i <= k; i++)
        printf "  %-40s %3d sites %4d words\n", order[i], sites[order[i]], words[order[i]]
    }'
done
