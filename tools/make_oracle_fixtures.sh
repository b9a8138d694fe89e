#!/usr/bin/env bash
# Regenerates the physics-oracle reference fixtures that test_oracle checks
# reruns against: each gen-1 scenario runs at a high budget on a fixed seed,
# and `uwb_farm fixture` keeps its per-point counts and intervals, the seed
# and the digest of the expanded scenario document.
#
#   tools/make_oracle_fixtures.sh [BUILD_DIR] [WORKERS]
#
# BUILD_DIR defaults to ./build and WORKERS to 4; run from the repo root.
# Regenerate only when the physics is meant to change, from the commit
# whose physics the fixtures should pin, and say so in CHANGES.md.
set -euo pipefail
build=${1:-build}
workers=${2:-4}
seed=1592590337  # test_oracle reruns on another seed
out=tests/fixtures/oracle
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$out"

run() {
  local scenario=$1 max_trials=$2
  "$build/uwb_sweep" "$scenario" --seed "$seed" --workers "$workers" \
    --min-errors 1000 --max-bits 1000000000 --max-trials "$max_trials" --quiet \
    --out "$tmp/$scenario.json" --dump-scenario "$tmp/$scenario.spec.json"
  "$build/uwb_farm" fixture "$tmp/$scenario.json" "$tmp/$scenario.spec.json" \
    --out "$out/$scenario.json"
}

run gen1_waterfall 6000
run gen1_sync 2000
run gen1_acquisition 3000
