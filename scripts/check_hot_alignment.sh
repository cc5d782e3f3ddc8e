#!/usr/bin/env sh
# Hot-code alignment guard: every function pinned with
# SCHEDFILTER_HOT_ALIGN (src/support/HotAlign.h) must start at 0 mod 64 in
# each given binary, so an unrelated edit cannot shift the per-block hot
# paths and move the measured compile time.  Reads `nm` output; a pinned
# function missing from a binary fails too (a rename must update the
# list below).  Compiler-made clones of a pinned function ("[clone
# .part.0]", which GCC splits off a partly inlined body) inherit the
# attribute and are checked as well.
#
# Usage: scripts/check_hot_alignment.sh BINARY [BINARY ...]
set -eu

if [ $# -eq 0 ]; then
  echo "usage: $0 BINARY [BINARY ...]" >&2
  exit 2
fi

# Demangled name prefixes of the pinned functions.
pinned="schedfilter::DependenceGraph::build(
schedfilter::ListScheduler::scheduleInto(
schedfilter::MethodCompiler::schedulePhase(
schedfilter::MethodCompiler::compileMethod(
schedfilter::extractFeatures(
schedfilter::BlockSimulator::run("

status=0
for bin in "$@"; do
  syms=$(nm -C --defined-only "$bin")
  checked=0
  while IFS= read -r name; do
    found=$(printf '%s\n' "$syms" |
      awk -v name="$name" '$2 ~ /^[Tt]$/ && index($3, name) == 1 { print $1 }')
    if [ -z "$found" ]; then
      echo "$bin: pinned function $name...) not found" >&2
      status=1
      continue
    fi
    for addr in $found; do
      off=$(( 0x$addr % 64 ))
      if [ "$off" -ne 0 ]; then
        echo "$bin: $name...) at 0x$addr, $off mod 64" >&2
        status=1
      fi
      checked=$((checked + 1))
    done
  done <<LIST
$pinned
LIST
  echo "$bin: $checked pinned symbols checked"
done
exit $status
