#!/bin/sh
# Fails when a value exported by an interface under lib/ is called from no
# .ml or .mli outside its own module in the code a run builds (lib, bin,
# examples, perfbench, bench). An exported value that nothing calls is
# dead code with a public name: delete it, or drop it from the .mli so
# that warning 32 flags it once nothing inside the module uses it
# either. A value only tests call (files under test/) passes only when
# test/test_only.txt lists it, with its reason; a listed value also
# fails when a run calls it, when no test calls it, or when it no longer
# exists.
#
# Run from the repository root: sh test/exports_called.sh
#
# A `val v` in lib/**/m.mli belongs to signature M: the module of the
# file, or the `module M : sig ... end` nested in it. It counts as
# called when a file other than m.ml/m.mli contains
#   - M.v (also as the tail of a longer path, Lib.M.v);
#   - A.v, where that file binds `module A = ...M` (or `let module`);
#   - the bare word v, where that file opens M (`open ...M`,
#     `let open ...M in`, `...M.( ... )`, `include ...M`) or passes M
#     to a functor.
# Scopes, comments and strings are not parsed, so the match errs toward
# passing.
set -eu
files=$(find lib bin examples perfbench bench test -name '*.ml' -o -name '*.mli')
awk '
  function last(path) {
    sub(/\.$/, "", path)
    sub(/^.*\./, "", path)
    return (path in alias) ? alias[path] : path
  }
  function use(key) {
    if (intest) tested[key] = 1
    else if (!(key in first)) first[key] = stem
    else if (first[key] != stem) elsewhere[key] = 1
  }
  function flush(   o, w) {
    for (o in opened) for (w in words) use(o "." w)
    split("", opened); split("", words); split("", alias)
  }
  function scan(line, re, skip,   m) {
    while (match(line, re)) {
      m = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      sub(skip, "", m)
      sub(/[ \t]*[)(\[{]*$/, "", m)
      found[++nfound] = m
    }
  }
  FILENAME == "test/test_only.txt" {
    if ($0 !~ /^[ \t]*(#|$)/ && $2 !~ /^\?/) listed[$1] = FNR
    next
  }
  FNR == 1 {
    flush()
    intest = FILENAME ~ /^test\//
    stem = FILENAME
    sub(/\.mli?$/, "", stem)
    file_mod = stem
    sub(/^.*\//, "", file_mod)
    file_mod = toupper(substr(file_mod, 1, 1)) substr(file_mod, 2)
    nsub = 0
  }
  FILENAME ~ /^lib\/.*\.mli$/ {
    if ($0 ~ /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig/) {
      m = $0
      sub(/^[ \t]*module[ \t]+/, "", m)
      sub(/[^A-Za-z0-9_].*$/, "", m)
      subsig[++nsub] = m
    } else if ($0 ~ /^[ \t]*end([ \t]|$)/ && nsub > 0) nsub--
    if ($0 ~ /^[ \t]*val[ \t]+[a-z_]/) {
      name = $0
      sub(/^[ \t]*val[ \t]+/, "", name)
      sub(/[^A-Za-z0-9_'"'"'].*$/, "", name)
      nvals++
      val_key[nvals] = (nsub > 0 ? subsig[nsub] : file_mod) "." name
      val_stem[nvals] = stem
      val_at[nvals] = FILENAME ":" FNR
    }
  }
  {
    nfound = 0
    scan($0, "module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*", "")
    for (i = 1; i <= nfound; i++) {
      a = found[i]
      sub(/^module[ \t]+/, "", a)
      target = a
      sub(/[ \t]*=.*$/, "", a)
      sub(/^[^=]*=[ \t]*/, "", target)
      # mawk creates alias[a] before it evaluates the right-hand side.
      target = last(target)
      alias[a] = target
    }
    nfound = 0
    scan($0, "(^|[^A-Za-z0-9_])(open!?|include)[ \t]+[A-Z][A-Za-z0-9_.]*", "^.*(open!?|include)[ \t]+")
    scan($0, "[A-Z][A-Za-z0-9_]*\\.[(\\[{]", "")
    scan($0, "[A-Z][A-Za-z0-9_.]*[ \t]*\\([ \t]*[A-Z][A-Za-z0-9_.]*[ \t]*\\)", "^[^(]*\\([ \t]*")
    for (i = 1; i <= nfound; i++) opened[last(found[i])] = 1
    line = $0
    gsub(/[^A-Za-z0-9_.'"'"']+/, " ", line)
    n = split(line, toks, " ")
    for (i = 1; i <= n; i++) {
      np = split(toks[i], parts, ".")
      for (j = 1; j <= np; j++) {
        if (parts[j] == "") continue
        words[parts[j]] = 1
        if (j < np && parts[j] ~ /^[A-Z]/ && parts[j + 1] ~ /^[a-z_]/) {
          use(parts[j] "." parts[j + 1])
          if (parts[j] in alias) use(alias[parts[j]] "." parts[j + 1])
        }
      }
    }
  }
  END {
    flush()
    bad = 0
    for (i = 1; i <= nvals; i++) {
      key = val_key[i]
      called = (key in elsewhere) || ((key in first) && first[key] != val_stem[i])
      if (key in listed) {
        seen[key] = 1
        if (called) {
          printf "%s: val %s is listed in test/test_only.txt but a run calls it\n", val_at[i], key
          bad++
        } else if (!(key in tested)) {
          printf "%s: val %s is listed in test/test_only.txt but no test calls it\n", val_at[i], key
          bad++
        }
      } else if (!called) {
        printf "%s: val %s is called from no other module%s\n", val_at[i], key, \
          (key in tested) ? " but tests (list it in test/test_only.txt, or delete it)" : ""
        bad++
      }
    }
    for (key in listed)
      if (!(key in seen)) {
        printf "test/test_only.txt:%d: %s is no exported value\n", listed[key], key
        bad++
      }
    if (bad > 0) {
      printf "%d exported values fail the guard\n", bad
      exit 1
    }
  }' test/test_only.txt $files
