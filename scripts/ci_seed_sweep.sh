#!/usr/bin/env bash
# Crash-simulation seed sweep: run the sim_crash suite once per seed so
# a red CI log names the exact failing schedule.
#
# Usage: scripts/ci_seed_sweep.sh [START] [COUNT]
#   START  first seed (default 0)
#   COUNT  number of seeds (default 32)
#
# Every seed runs with the tiered cold storage off and on (TENDAX_COLD=1
# makes the suite's `common::options()` open cold-enabled databases), so
# both storage tiers get identical crash coverage wherever a test opens
# a database with the suite's default options. Set TENDAX_COLD_SWEEP="0"
# or "1" to run a single cold leg (CI uses this to split the matrix
# across jobs).
#
# Reproducing a failure locally is one command — every assertion in the
# suite embeds its seed, and the suite honors the same variable:
#
#   TENDAX_SIM_SEED=<n> TENDAX_COLD=<0|1> cargo test -p tendax-storage --test sim_crash
#
# (A plain `cargo test --test sim_crash` sweeps seeds 0..32 in-process;
# this script exists so CI can shard, extend the range nightly, and
# report per-seed pass/fail lines.)
set -euo pipefail
cd "$(dirname "$0")/.."

start="${1:-0}"
count="${2:-32}"

echo "==> building sim_crash test binary"
cargo test -q -p tendax-storage --test sim_crash --no-run

cold_legs="${TENDAX_COLD_SWEEP:-0 1}"

failed=()
legs=0
for cold in $cold_legs; do
    for ((seed = start; seed < start + count; seed++)); do
        legs=$((legs + 1))
        if TENDAX_SIM_SEED="$seed" TENDAX_COLD="$cold" \
            cargo test -q -p tendax-storage --test sim_crash >/tmp/sim_seed_$$.log 2>&1; then
            echo "seed $seed (cold=$cold): ok"
        else
            echo "seed $seed (cold=$cold): FAILED"
            echo "--- output (rerun: TENDAX_SIM_SEED=$seed TENDAX_COLD=$cold cargo test -p tendax-storage --test sim_crash) ---"
            cat /tmp/sim_seed_$$.log
            failed+=("$seed/c$cold")
        fi
    done
done
rm -f /tmp/sim_seed_$$.log

if ((${#failed[@]})); then
    echo "==> ${#failed[@]}/$legs seed legs failed: ${failed[*]}"
    echo "==> rerun one with: TENDAX_SIM_SEED=<n> TENDAX_COLD=<0|1> cargo test -p tendax-storage --test sim_crash"
    exit 1
fi
echo "==> all $legs seed legs passed (seeds $start..$((start + count - 1)), cold legs: $cold_legs)"
