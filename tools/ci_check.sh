#!/usr/bin/env bash
# Sanitizer gate for the robustness subsystems: builds the repo under
# AddressSanitizer and UndefinedBehaviorSanitizer and runs every test
# labeled faults, audit, recovery, resize, open, control, catalog or setup
# under each. The fault-injection, invariant-audit, online-recovery,
# elastic-membership, open-system and closed-loop-control code paths are
# exactly the ones that exercise coroutine lifetimes, signal-driven
# interrupts and background I/O racing foreground queries — the bugs
# sanitizers exist to catch. The setup label (grid_test, decluster_test)
# covers the grid file's flat bucket arrays and the rebalancer's delta
# array, whose index arithmetic is where an out-of-bounds write would hide.
#
# A third pass builds under ThreadSanitizer and runs the resize, open,
# control and catalog labels, whose *AcrossJobCounts and concurrent-reader
# tests drive the --jobs worker pool (the only multi-threaded run path)
# over one shared catalog set per strategy. A Release build of every target then
# runs a differential smoke: the same quick sweeps serially and with
# --jobs 4 must produce byte-identical output.
#
#   tools/ci_check.sh [--jobs N] [--fresh]
#
# Build trees live in build-asan/, build-ubsan/, build-tsan/ and
# build-relsmoke/ next to the source tree (all gitignored) and are reused
# across runs unless --fresh is given.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FRESH=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --jobs=*) JOBS="${1#*=}"; shift ;;
    --fresh) FRESH=1; shift ;;
    -h|--help)
      sed -n '2,20p' "$0"; exit 0 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

FAILED=0

run_preset() {
  local name="$1" flag="$2" labels="$3"
  shift 3
  local build_dir="$ROOT/build-$name"
  echo "=== $name: configure + build (${build_dir#"$ROOT"/}) ==="
  if [[ "$FRESH" == 1 ]]; then rm -rf "$build_dir"; fi
  cmake -S "$ROOT" -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -D"$flag"=ON \
    -DDECLUST_BUILD_BENCHMARKS=OFF \
    -DDECLUST_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$build_dir" -j"$JOBS" --target "$@"
  echo "=== $name: ctest -L '$labels' ==="
  if ! ctest --test-dir "$build_dir" -L "$labels" --output-on-failure \
      -j"$JOBS"; then
    echo "*** $name: FAILED" >&2
    FAILED=1
  fi
}

# The scale label rides the ASAN pass: its 256-node x 1M-tuple smoke drives
# the threaded catalog-build pass under the sanitizer (the 1,024-node
# Release-only test self-skips there and runs in the relsmoke tree below).
run_preset asan DECLUST_ASAN \
  'faults|audit|recovery|resize|open|control|catalog|scale|setup' \
  fault_test audit_test recovery_test resize_test open_test control_test \
  catalog_share_test scale_test grid_test decluster_test
run_preset ubsan DECLUST_UBSAN \
  'faults|audit|recovery|resize|open|control|catalog|setup' \
  fault_test audit_test recovery_test resize_test open_test control_test \
  catalog_share_test grid_test decluster_test
# The --jobs worker pool is the only place the simulator runs on more than
# one thread; TSAN over the resize/open/control/catalog labels is the race
# gate for it (their *AcrossJobCounts tests run concurrent replications with
# the migration, arrival and feedback-control machinery armed, and the
# catalog label's concurrent readers share one strategy's catalog set).
run_preset tsan DECLUST_TSAN 'resize|open|control|catalog' \
  resize_test open_test control_test catalog_share_test

# Release differential smoke: serial vs --jobs 4 on a quick sweep must be
# byte-identical. Release mode matters here — it is the configuration where
# reordering or racy reads would actually surface as digest drift. The tree
# builds every target, so a Release-only warning (-Werror) fails here too.
echo "=== relsmoke: configure + build (build-relsmoke) ==="
SMOKE_DIR="$ROOT/build-relsmoke"
if [[ "$FRESH" == 1 ]]; then rm -rf "$SMOKE_DIR"; fi
cmake -S "$ROOT" -B "$SMOKE_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$SMOKE_DIR" -j"$JOBS"
SMOKE_ARGS=(--strategies range,hash --mpls 4 --repeats 1 --cardinality 20000
            --processors 8 --warmup 500 --measure 2000)

# jobs_diff LABEL [ARGS...]: the quick sweep plus ARGS, run with --jobs 1
# and with --jobs 4, must print byte-identical results.
jobs_diff() {
  local label="$1"
  shift
  echo "=== relsmoke: $label serial vs --jobs 4 digest ==="
  local serial parallel
  serial="$("$SMOKE_DIR/tools/run_experiment" "${SMOKE_ARGS[@]}" "$@" \
    --jobs 1)"
  parallel="$("$SMOKE_DIR/tools/run_experiment" "${SMOKE_ARGS[@]}" "$@" \
    --jobs 4)"
  if [[ "$serial" == "$parallel" ]]; then
    echo "relsmoke: $label serial and --jobs 4 results are byte-identical"
  else
    echo "*** relsmoke: FAILED — $label --jobs 4 changed the results" >&2
    diff <(printf '%s\n' "$serial") <(printf '%s\n' "$parallel") \
      | head -40 >&2 || true
    FAILED=1
  fi
}

jobs_diff closed
# Elastic membership: a node added mid-measurement, then drained back out —
# migration scheduling is the most multi-coroutine machinery in a run.
jobs_diff --resize --resize 'add:node8@t=1s;remove:node8@t=2s'
# Open system: Poisson arrivals at two offered-load levels, Zipf skew, a
# second relation and a finite admission cap; shed accounting must not
# depend on which worker ran a replication.
OPEN_SPEC='rate:150;zipf:0.8;relation:card=5000,weight=1;cap:64'
jobs_diff --open --open "$OPEN_SPEC" --offered 60,120
# Six of the seven metric column groups on every point (all but control):
# components, open with a second relation, resize and faults at once.
jobs_diff --six-groups --components --open "$OPEN_SPEC" --offered 60,120 \
  --resize 'add:node8@t=1s;remove:node8@t=2s' \
  --faults 'io:node3@t=0,rate=0.01'
# Control plane: SLO windows, elastic membership actions, budgeted
# concurrent migrations and admission degradation, all mutating shared
# state from calendar events mid-run.
CONTROL_SPEC='slo:p95<40ms,every=250ms,settle=2;scale:min=4,max=10;budget:frac=0.3;degrade:floor=8'
jobs_diff --control --open "$OPEN_SPEC" --offered 120 \
  --control "$CONTROL_SPEC"
# Parallel-catalog-build differential: the same quick sweep with the
# two-pass build fanned out over 8 threads (DECLUST_JOBS drives the
# tree-construction pass) must be byte-identical to the serial build —
# extent allocation is serial by design, so any drift here is a bug in the
# build split, not timing noise.
echo "=== relsmoke: DECLUST_JOBS=8 catalog build digest ==="
SERIAL_OUT="$("$SMOKE_DIR/tools/run_experiment" "${SMOKE_ARGS[@]}" --jobs 1)"
JOBS8_OUT="$(DECLUST_JOBS=8 "$SMOKE_DIR/tools/run_experiment" \
  "${SMOKE_ARGS[@]}")"
if [[ "$SERIAL_OUT" == "$JOBS8_OUT" ]]; then
  echo "relsmoke: serial and DECLUST_JOBS=8 catalog builds are byte-identical"
else
  echo "*** relsmoke: FAILED — DECLUST_JOBS=8 changed the results" >&2
  diff <(printf '%s\n' "$SERIAL_OUT") <(printf '%s\n' "$JOBS8_OUT") \
    | head -40 >&2 || true
  FAILED=1
fi
# The Release-only thousand-node test (byte-identical extents at 1,024
# slices, footprint ceiling, run-length vs legacy page sequences) only runs
# with NDEBUG and no sanitizer — exactly this tree.
echo "=== relsmoke: ctest -L scale (thousand-node setup path) ==="
if ! ctest --test-dir "$SMOKE_DIR" -L scale --output-on-failure; then
  echo "*** relsmoke: scale suite FAILED" >&2
  FAILED=1
fi
# audit_sweep's differential harness runs the same config through every
# variant (jobs=1, jobs=1+audit, jobs=N+audit, inactive fault plan) and
# compares result digests — the invariant-level form of the checks above.
# audit_smoke LABEL [ARGS...]: audit_sweep over the quick sweep plus ARGS.
audit_smoke() {
  local label="$1"
  shift
  echo "=== relsmoke: audit_sweep $label differential ==="
  if ! "$SMOKE_DIR/tools/audit_sweep" "${SMOKE_ARGS[@]}" "$@"; then
    echo "*** relsmoke: audit_sweep $label differential FAILED" >&2
    FAILED=1
  fi
}
audit_smoke closed
# Migrating configs: their armed-but-inactive variant builds chained
# backups, which a membership change re-chains, so it is checked against
# its own --jobs N twin rather than the unarmed baseline. 4k tuples (and 32
# slices for the scripted plan) keep each slice small enough to migrate
# inside the 2.5 s horizon.
audit_smoke --resize --cardinality 4000 \
  --resize 'slices:32;add:node8@t=1s;remove:node8@t=2s'
audit_smoke --control --cardinality 4000 \
  --control 'slo:p95<40ms,every=500ms,settle=2;scale:min=8,max=12'

if [[ "$FAILED" != 0 ]]; then
  echo "ci_check: sanitizer gate FAILED" >&2
  exit 1
fi
echo "ci_check: faults|audit|recovery|resize|open|control|catalog|scale" \
  "clean under ASAN/UBSAN, resize|open|control|catalog clean under TSAN," \
  "release digest stable across --jobs"
