#!/bin/sh
# Fails when a value exported by an interface under lib/ is named by no
# .ml or .mli outside its own module (lib, bin, examples, perfbench,
# bench, test). An exported value that nothing calls is dead code with
# a public name: delete it, or drop it from the .mli so that warning 32
# flags it once nothing inside the module uses it either.
#
# Run from the repository root: sh test/exports_called.sh
# The match is by word, so it errs toward passing: a value whose name
# another module happens to use (a field, a local, a label) is not
# reported.
set -eu
files=$(find lib bin examples perfbench bench test -name '*.ml' -o -name '*.mli')
awk '
  FNR == 1 { mod = FILENAME; sub(/\.mli?$/, "", mod) }
  FILENAME ~ /^lib\/.*\.mli$/ && $0 ~ /^[ \t]*val[ \t]+[a-z_]/ {
    name = $0
    sub(/^[ \t]*val[ \t]+/, "", name)
    sub(/[^A-Za-z0-9_'"'"'].*$/, "", name)
    nvals++
    val_name[nvals] = name
    val_mod[nvals] = mod
    val_at[nvals] = FILENAME ":" FNR
  }
  {
    line = $0
    gsub(/[^A-Za-z0-9_'"'"']+/, " ", line)
    n = split(line, words, " ")
    for (i = 1; i <= n; i++) {
      w = words[i]
      if (!(w in first)) first[w] = mod
      else if (first[w] != mod) elsewhere[w] = 1
    }
  }
  END {
    bad = 0
    for (i = 1; i <= nvals; i++) {
      name = val_name[i]
      if (!(name in elsewhere) && first[name] == val_mod[i]) {
        printf "%s: val %s is called from no other module\n", val_at[i], name
        bad++
      }
    }
    if (bad > 0) {
      printf "%d exported values have no caller outside their module\n", bad
      exit 1
    }
  }' $files
