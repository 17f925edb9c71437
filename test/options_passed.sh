#!/bin/sh
# Fails when an optional argument of a value exported by an interface
# under lib/ is passed by no call in the code a run builds (lib, bin,
# examples, perfbench, bench). An option that every call leaves at its
# default is a constant with a knob: make it the constant and state the
# value in the doc. An option only tests pass (files under test/)
# passes only when test/test_only.txt lists it as `M.f ?l`, with its
# reason; a listed option also fails when a run passes it, when no test
# passes it, or when it no longer exists.
#
# Run from the repository root: sh test/options_passed.sh
#
# For each `?l:` in a `val f` of lib/**/m.mli (f belongs to signature M,
# as in test/exports_called.sh), some call of f must pass `~l` or `?l`.
# A call is
#   - M.f, or A.f where the file binds `module A = ...M`, in a file other
#     than m.ml/m.mli;
#   - the bare word f in m.ml, except where a `let` or `and` defines it.
# A call spans the rest of its line and every following line indented
# deeper than that line.
set -eu
mlis=$(find lib -name '*.mli')
files=$(find lib bin examples perfbench bench test -name '*.ml' -o -name '*.mli')
awk '
  function last(path) {
    sub(/^.*\./, "", path)
    return (path in alias) ? alias[path] : path
  }
  function take_val(   text, l) {
    text = val_text
    val_text = ""
    while (match(text, /\?[a-z_][A-Za-z0-9_]*:/)) {
      l = substr(text, RSTART + 1, RLENGTH - 2)
      text = substr(text, RSTART + RLENGTH)
      nopts++
      opt_val[nopts] = nvals
      opt_label[nopts] = l
      val_opts[nvals] = val_opts[nvals] " " nopts
      opt_at[nopts] = val_at[nvals]
    }
  }
  function open_span(v, indent, text) {
    nspans++
    span_val[nspans] = v
    span_indent[nspans] = indent
    check(nspans, text)
  }
  function check(s, text,   ks, nk, k) {
    nk = split(val_opts[span_val[s]], ks, " ")
    for (k = 1; k <= nk; k++)
      if (text ~ ("[~?]" opt_label[ks[k]] "([^A-Za-z0-9_]|$)")) {
        if (intest) tested[ks[k]] = 1
        else passed[ks[k]] = 1
      }
  }
  FILENAME == "test/test_only.txt" {
    if ($0 !~ /^[ \t]*(#|$)/ && $2 ~ /^\?/) listed[$1 " " $2] = FNR
    next
  }
  FNR == 1 {
    if (collecting) take_val()
    intest = FILENAME ~ /^test\//
    collecting = 0
    nspans = 0
    split("", alias)
    stem = FILENAME
    sub(/\.mli?$/, "", stem)
    file_mod = stem
    sub(/^.*\//, "", file_mod)
    file_mod = toupper(substr(file_mod, 1, 1)) substr(file_mod, 2)
    nsub = 0
  }
  pass == 1 {
    if (collecting && ($0 ~ /^[ \t]*($|\(\*|(val|type|module|end|exception|external|include|open)([ \t]|$))/)) {
      take_val()
      collecting = 0
    }
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
      val_sig[nvals] = nsub > 0 ? subsig[nsub] : file_mod
      val_name[nvals] = name
      val_stem[nvals] = stem
      val_at[nvals] = FILENAME ":" FNR
      vals_named[name] = vals_named[name] " " nvals
      collecting = 1
    }
    if (collecting) {
      text = $0
      sub(/\(\*.*$/, "", text)
      val_text = val_text " " text
    }
    next
  }
  {
    if (match($0, /[^ \t]/) == 0) next
    indent = RSTART
    live = 0
    for (s = 1; s <= nspans; s++)
      if (indent > span_indent[s]) {
        check(s, $0)
        live++
        span_val[live] = span_val[s]
        span_indent[live] = span_indent[s]
      }
    nspans = live
    if (match($0, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*/)) {
      a = substr($0, RSTART, RLENGTH)
      sub(/^module[ \t]+/, "", a)
      target = a
      sub(/[ \t]*=.*$/, "", a)
      sub(/^[^=]*=[ \t]*/, "", target)
      # mawk creates alias[a] before it evaluates the right-hand side.
      target = last(target)
      alias[a] = target
    }
    defines = $0 ~ /(^|[^A-Za-z0-9_])(let|and)([ \t]+rec)?[ \t]+[a-z_]/
    if (defines) {
      defined = $0
      sub(/^.*(let|and)([ \t]+rec)?[ \t]+/, "", defined)
      sub(/[^A-Za-z0-9_'"'"'].*$/, "", defined)
    }
    line = $0
    gsub(/[^A-Za-z0-9_.'"'"']+/, " ", line)
    n = split(line, toks, " ")
    for (i = 1; i <= n; i++) {
      np = split(toks[i], parts, ".")
      for (j = 1; j <= np; j++) {
        f = parts[j]
        if (!(f in vals_named)) continue
        q = j > 1 ? last(parts[j - 1]) : ""
        nv = split(vals_named[f], vs, " ")
        for (t = 1; t <= nv; t++) {
          v = vs[t]
          if (!(v in val_opts)) continue
          if (q != "" ? (q == val_sig[v] && stem != val_stem[v]) \
                      : (FILENAME == val_stem[v] ".ml" && !(defines && defined == f))) {
            rest = substr($0, index($0, toks[i]))
            open_span(v, indent, rest)
          }
        }
      }
    }
  }
  END {
    bad = 0
    for (k = 1; k <= nopts; k++) {
      v = opt_val[k]
      key = val_sig[v] "." val_name[v] " ?" opt_label[k]
      if (key in listed) {
        seen[key] = 1
        if (k in passed) {
          printf "%s: ?%s of %s.%s is listed in test/test_only.txt but a run passes it\n", opt_at[k], opt_label[k], val_sig[v], val_name[v]
          bad++
        } else if (!(k in tested)) {
          printf "%s: ?%s of %s.%s is listed in test/test_only.txt but no test passes it\n", opt_at[k], opt_label[k], val_sig[v], val_name[v]
          bad++
        }
      } else if (!(k in passed)) {
        printf "%s: ?%s of %s.%s is passed by no call%s\n", opt_at[k], opt_label[k], val_sig[v], val_name[v], \
          (k in tested) ? " but tests (list it in test/test_only.txt, or make it a constant)" : ""
        bad++
      }
    }
    for (key in listed)
      if (!(key in seen)) {
        printf "test/test_only.txt:%d: %s is no optional argument of an export\n", listed[key], key
        bad++
      }
    if (bad > 0) {
      printf "%d optional arguments fail the guard\n", bad
      exit 1
    }
  }' pass=1 $mlis pass=2 test/test_only.txt $files
