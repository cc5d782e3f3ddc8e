#!/usr/bin/env sh
# Stale-doc guard, in both directions:
#   - every `sf-*` tool and `bench_*` driver named in the given markdown
#     files must exist as an executable in the build directory, so the
#     docs can never advertise a binary that no longer builds (or was
#     renamed without a doc pass);
#   - every bench/bench_*.cpp driver must be named in EXPERIMENTS.md's
#     artifact map, so a driver that reproduces nothing cannot land
#     unnoticed.
#
# Usage: scripts/check_doc_binaries.sh BUILD_DIR DOC.md [DOC2.md ...]
set -eu

build=$1
shift
root=$(cd "$(dirname "$0")/.." && pwd)

# Documented names that are deliberately not executables.
allowlist="bench_smoke"

status=0
for doc in "$@"; do
  # `name*` is a glob shorthand ("the bench_table* drivers"), not a
  # binary name: capture the optional `*` and drop those tokens.
  for name in $(grep -ohE '(sf-[a-z]+|bench_[a-z0-9_]+)\*?' "$doc" | sort -u); do
    case $name in *\*) continue ;; esac
    skip=0
    for allowed in $allowlist; do
      [ "$name" = "$allowed" ] && skip=1
    done
    [ "$skip" = 1 ] && continue
    if [ ! -x "$build/$name" ]; then
      echo "stale doc: $doc names '$name' but $build/$name is not an executable" >&2
      status=1
    fi
  done
done

mapped=$(grep -ohE 'bench_[a-z0-9_]+' "$root/EXPERIMENTS.md" | sort -u)
for src in "$root"/bench/bench_*.cpp; do
  name=$(basename "$src" .cpp)
  if ! printf '%s\n' "$mapped" | grep -qx "$name"; then
    echo "unmapped driver: bench/$name.cpp is not named in EXPERIMENTS.md" >&2
    status=1
  fi
done

if [ "$status" = 0 ]; then
  echo "doc binary check passed: every sf-*/bench_* name in $* exists in $build,"
  echo "and every bench/bench_*.cpp driver is named in EXPERIMENTS.md"
fi
exit $status
