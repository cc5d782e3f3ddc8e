#!/usr/bin/env bash
# Byte-for-byte checks of every output listed in scripts/outputs.manifest,
# whose header describes the entries.
#
#   scripts/check_outputs.sh --matrix
#       Runs every entry on its axes with this tree's build and compares
#       the runs; checks every must-fail status, `same` and `check` line.
#   scripts/check_outputs.sh --against REV
#       Compares every entry's first run (jobs 4, cold corpus) with the
#       same run of REV: captures, exit status, and a must-fail entry's
#       stdout and stderr.  REV is exported with `git archive` and built
#       in build-rev-<sha>/, which later calls reuse.
#
# This tree is built in build/ (configured first if it is not).  Every
# run gets its own working directory under build-outputs/ and its own
# SCHEDFILTER_CORPUS_DIR.  Prints one line per entry and exits 1 if any
# entry differs or fails, naming the first file that differs.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/build-outputs
case "${1:-}:$#" in
  --matrix:1) mode=matrix ;;
  --against:2)
    mode=against
    rev=$(git -C "$root" rev-parse --verify --quiet "$2^{commit}") ||
      { echo "error: unknown revision '$2'" >&2; exit 2; } ;;
  *) echo "usage: $0 --matrix | --against REV" >&2; exit 2 ;;
esac

# build SRC DIR: configures DIR from SRC once, then builds every tool and
# bench driver.
build() {
  local f targets=()
  for f in "$1"/tools/sf-*.cpp "$1"/bench/bench_*.cpp; do
    targets+=("$(basename "$f" .cpp)")
  done
  { [ -f "$2/CMakeCache.txt" ] || cmake -S "$1" -B "$2"; } > /dev/null &&
    cmake --build "$2" -j "$(nproc)" --target "${targets[@]}" > /dev/null ||
    { echo "error: building $1 failed" >&2; exit 2; }
}

declare -A bin=([head]=$root/build) src=([head]=$root) caps=()
trees=(head)
build "$root" "$root/build"
if [ "$mode" = against ]; then
  out=$root/build-rev-${rev:0:12}
  if [ ! -d "$out/src" ]; then
    rm -rf "$out/src.tmp" && mkdir -p "$out/src.tmp" &&
      git -C "$root" archive "$rev" | tar -x -C "$out/src.tmp" &&
      mv "$out/src.tmp" "$out/src" || exit 2
  fi
  build "$out/src" "$out/build"
  bin[rev]=$out/build src[rev]=$out/src
  trees+=(rev)
fi

# shell TREE CORPUS CMD: runs CMD in the current directory with TREE's
# binaries first on PATH and CORPUS as the corpus cache.
shell() {
  PATH="${bin[$1]}:$PATH" SRC="${src[$1]}" SCHEDFILTER_CORPUS_DIR="$2" \
    bash -eo pipefail -c "$3" < /dev/null
}

# run TREE DIR CORPUS CMD: runs CMD in the new directory DIR, keeping its
# stdout, stderr and exit status there.
run() {
  mkdir -p "$2" && ln -s "$work/$1/in" "$2/in" &&
    (cd "$2" && shell "$1" "$3" "$4" > stdout 2> stderr; echo $? > status)
}

# first_diff DIR1 DIR2 CAPTURES: prints the first file of CAPTURES that
# differs between the two run directories, or nothing.
first_diff() {
  local c f
  for c in ${3//,/ }; do
    for f in $({ (cd "$1" && find "$c" -type f)
                 (cd "$2" && find "$c" -type f); } 2> /dev/null | sort -u); do
      cmp -s "$1/$f" "$2/$f" || { echo "$f"; return; }
    done
  done
}

status=0
report() {
  printf '%-5s %-28s %s\n' "$1" "$2" "$3"
  [ "$1" = ok ] || status=1
}

# against NAME CAPTURES CMD: runs CMD for REV and compares NAME's first
# run with REV's.
against() {
  run rev "$work/rev/$1/a" "$work/rev/$1/a.corpus" "$3"
  local f
  f=$(first_diff "$work/head/$1/a" "$work/rev/$1/a" "status,$2")
  [ -z "$f" ] || { report DIFF "$1" "$f differs from ${rev:0:12}"; return 1; }
}

out_entry() {
  local name=$1 axes=,$2, cmd=$4 d=$work/head/$1 r f j=4 corpus
  local -A label=([a]="cold run at jobs 4")
  [[ $axes != *,jobs,* || $cmd == *'{jobs}'* ]] ||
    { report BAD "$name" "the jobs axis needs {jobs} in the command"; return; }
  run head "$d/a" "$d/a.corpus" "${cmd//\{jobs\}/4}"
  if [ "$mode" = matrix ]; then
    [[ $axes == *,jobs,* ]] && j=1
    corpus=$d/b.corpus label[b]="cold rerun at jobs $j"
    if [[ $axes == *,warm,* ]]; then
      corpus=$d/a.corpus label[b]="warm run at jobs $j"
      [ -n "$(ls -A "$corpus" 2> /dev/null)" ] ||
        { report FAIL "$name" "warm axis, but the cold run cached nothing"; return; }
    fi
    run head "$d/b" "$corpus" "${cmd//\{jobs\}/$j}"
    if [[ $axes == *,warm,* && $j == 1 ]]; then
      run head "$d/c" "$corpus" "${cmd//\{jobs\}/4}"
      label[c]="warm run at jobs 4"
    fi
    if [[ $axes == *,nocache,* ]]; then
      run head "$d/n" "$d/n.corpus" "${cmd//\{jobs\}/2} --no-cache"
      label[n]="--no-cache run at jobs 2"
    fi
  fi
  for r in "${!label[@]}"; do
    [ "$(cat "$d/$r/status")" = 0 ] || {
      report FAIL "$name" "${label[$r]} exited $(cat "$d/$r/status"): $(tail -n 1 "$d/$r/stderr")"
      return
    }
  done
  for f in ${3//,/ }; do
    [ -e "$d/a/$f" ] || { report FAIL "$name" "${label[a]} wrote no $f"; return; }
  done
  if [ "$mode" = against ]; then
    against "$name" "$3" "${cmd//\{jobs\}/4}" && report ok "$name" "same"
    return
  fi
  for r in b c n; do
    [ -d "$d/$r" ] || continue
    f=$(first_diff "$d/a" "$d/$r" "$3")
    [ -z "$f" ] ||
      { report DIFF "$name" "$f: ${label[a]} vs ${label[$r]}"; return; }
  done
  report ok "$name" "${#label[@]} runs"
}

fail_entry() {
  local name=$1 d=$work/head/$1 got
  run head "$d/a" "$d/a.corpus" "$3"
  got=$(cat "$d/a/status")
  [ "$got" = "$2" ] || { report FAIL "$name" "exited $got, expected $2"; return; }
  [ "$mode" = matrix ] || against "$name" stdout,stderr "$3" || return
  report ok "$name" "exit $got"
}

# Joins continued lines, then walks the manifest twice: inputs first.
manifest=$(sed -e ':a' -e '/\\$/{N;s/\\\n[[:space:]]*/ /;ba' -e '}' \
  "$root/scripts/outputs.manifest")
rm -rf "$work"
for t in "${trees[@]}"; do
  mkdir -p "$work/$t/in"
  while read -r kind cmd; do
    [ "$kind" = in ] || continue
    (cd "$work/$t/in" && shell "$t" "$work/$t/in.corpus" "$cmd") \
      >> "$work/$t/in.log" 2>&1 ||
      { echo "error: input '$cmd' failed; see $work/$t/in.log" >&2; exit 2; }
  done <<< "$manifest"
done

while read -r kind rest; do
  case "$kind" in
    ''|'#'*|in) ;;
    out)
      read -r name axes cap cmd <<< "$rest"
      caps[$name]=$cap
      out_entry "$name" "${axes#-}" "$cap" "$cmd" ;;
    fail)
      read -r name want cmd <<< "$rest"
      caps[$name]=stdout,stderr
      fail_entry "$name" "$want" "$cmd" ;;
    same)
      read -r name other <<< "$rest"
      f=$(first_diff "$work/head/$name/a" "$work/head/$other/a" "${caps[$name]:-}")
      if [ -z "${caps[$name]:-}" ] || [ -z "${caps[$other]:-}" ]; then
        report BAD "$name" "same as $other: no such entry before this line"
      elif [ -n "$f" ]; then
        report DIFF "$name" "$f differs from $other's"
      else
        report ok "$name" "same as $other"
      fi ;;
    check)
      read -r name cond <<< "$rest"
      if [ -n "${caps[$name]:-}" ] &&
         (cd "$work/head/$name/a" && bash -eo pipefail -c "$cond") &> /dev/null
      then
        report ok "$name" "check: $cond"
      else
        report FAIL "$name" "check failed: $cond"
      fi ;;
    *) report BAD "$kind" "unknown manifest line: $kind $rest" ;;
  esac
done <<< "$manifest"

if [ "$status" = 0 ]; then echo "all outputs match"; else echo "outputs differ"; fi
exit "$status"
