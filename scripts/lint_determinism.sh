#!/usr/bin/env sh
# Determinism lint: greps result-affecting sources for constructs that
# break the repo's bit-identical-output contract (ROADMAP "deterministic
# at any --jobs").  Each banned pattern either injects wall-clock or OS
# entropy (rand, srand, time(), random_device, wall-clock chrono),
# iterates in hash order (unordered_map/unordered_set), which varies
# across libstdc++ versions and seeds, or -- in src/ -- is a process-wide
# mutable global (static std::atomic) that every thread and tool shares.
#
# Allowlist: files whose use is audited and does not affect any printed
# result (e.g. the stderr-only wall-clock timer).  Keep it short; add a
# line here only together with a comment in the offending file saying
# why the use is result-neutral.
#
# Usage: scripts/lint_determinism.sh [SRC_DIR ...]
#   (defaults to src tools bench, relative to the repo root)
set -eu

cd "$(dirname "$0")/.."
dirs=${*:-"src tools bench"}

# file:pattern pairs exempted after audit.
allow() {
  case "$1" in
  # Timer.h: steady_clock feeds stderr throughput lines only; every
  # stdout byte is derived from the deterministic simulators.
  src/support/Timer.h:*clock*) return 0 ;;
  # Rng.h: names std::mt19937 in the comment explaining why the repo
  # avoids it; no engine is instantiated.
  src/support/Rng.h:*mt19937*) return 0 ;;
  *) return 1 ;;
  esac
}

# Allowlist audit: every exempted file must still exist and still
# contain the construct it is exempted for.  A stale entry -- the file
# renamed, or the use removed -- would otherwise sit in allow() forever,
# silently pre-approving a future reintroduction nobody audited.
audit_allow() {
  file=$1
  pattern=$2
  if [ ! -f "$file" ]; then
    echo "determinism lint: allowlist names missing file '$file'" >&2
    echo "  (remove its entry from allow() in $0)" >&2
    exit 1
  fi
  if ! grep -qE "$pattern" "$file"; then
    echo "determinism lint: allowlist entry '$file' no longer contains" \
      "'$pattern'" >&2
    echo "  (the audited use is gone; remove its entry from allow())" >&2
    exit 1
  fi
}
audit_allow src/support/Timer.h 'steady_clock'
audit_allow src/support/Rng.h 'mt19937'

status=0
check() {
  pattern=$1
  why=$2
  in=${3:-$dirs}
  # -I skips binaries; -n gives file:line for clickable diagnostics.
  hits=$(grep -rInE "$pattern" $in --include='*.h' --include='*.cpp' ||
    true)
  [ -z "$hits" ] && return 0
  printf '%s\n' "$hits" | while IFS= read -r hit; do
    file=${hit%%:*}
    if ! allow "$file:$pattern"; then
      echo "determinism lint: $hit" >&2
      echo "  banned: $why" >&2
      echo 1 >"$tmp/failed"
    fi
  done
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

check '\brand\(' 'rand() draws from hidden global state; use support/Rng'
check '\bsrand\(' 'srand() reseeds global state; use support/Rng with a fixed seed'
check 'time\(nullptr\)|time\(NULL\)|time\(0\)' \
  'wall-clock seeding is nondeterministic; derive seeds from names/indices'
check 'random_device' \
  'std::random_device is OS entropy; use support/Rng with a fixed seed'
check 'system_clock|high_resolution_clock|steady_clock' \
  'wall-clock time must never reach stdout; only the audited Timer may use it'
check 'unordered_map|unordered_set' \
  'hash-order iteration varies across platforms; use std::map/sorted vectors'
check 'mt19937|minstd_rand|ranlux|_distribution\b' \
  'std engines/distributions are implementation-defined; use support/Rng'
check 'static std::atomic' \
  'process-wide mutable state leaks between tools, tests and threads; pass it explicitly' \
  src

# Online retrain path audit: the hot-swap contract says every retrain
# trigger, installed version, and registry byte is a pure function of
# the virtual clock and the session seed.  The sources on that path may
# not even include the (globally allowlisted) stderr timer or any time
# header -- a wall-clock read here would desynchronize the swap sequence
# across job counts.
for f in src/runtime/MultiAppService.h src/runtime/MultiAppService.cpp \
  src/io/FilterRegistry.h src/io/FilterRegistry.cpp; do
  if [ ! -f "$f" ]; then
    echo "determinism lint: expected online-path file '$f' missing" >&2
    echo "  (update the retrain-path audit in $0 if it moved)" >&2
    exit 1
  fi
  if grep -nE 'support/Timer\.h|<chrono>|<ctime>' "$f" >&2; then
    echo "determinism lint: $f must stay wall-clock-free (retrains run" \
      "on the virtual clock only)" >&2
    exit 1
  fi
done

if [ -f "$tmp/failed" ]; then
  echo "determinism lint FAILED (see above)" >&2
  exit 1
fi
echo "determinism lint: clean ($dirs)"
