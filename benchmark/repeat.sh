#!/usr/bin/env bash
# Run the whole benchmark N times and report how well it repeats.
#
#   benchmark/repeat.sh N [--vary-seed] [--trace] [--seconds S] [--against LOG]
#
# For every (workload, end-to-end metric) pair it prints the median, min
# and max over the N runs, (max - min) / median, the distance between the
# quartiles as a share of the median, the same two spreads of the value
# as measured (without the machine factor), and the metric's bound.
#
# By default every run uses seed 42 and a pair is flagged when
# (max - min) / median exceeds its bound: the issue's rule for a set of
# runs of one seed. Schedule and document digests,
# stored_bytes_per_user_byte and -- with --trace -- every count-type
# layer metric must then be identical across runs; the script says so or
# names the ones that moved.
#
# With --vary-seed run i uses seed 41+i and a pair is flagged when the
# quartile distance exceeds its bound: the driver's rule for ten runs on
# ten seeds. No metric is exempt from either rule.
#
# --against LOG compares this set's medians with those of an earlier
# set (the log path is printed at the end of every invocation) and flags
# a pair whose median is worse than the earlier one by more than the
# bound.
#
# Run from the repository root. Needs cargo, taskset and python3.
set -euo pipefail

runs=${1:?usage: benchmark/repeat.sh N [--vary-seed] [--trace] [--seconds S] [--against LOG]}
shift
vary=0
trace=0
seconds=""
against=""
while [ $# -gt 0 ]; do
  case "$1" in
    --vary-seed) vary=1 ;;
    --trace) trace=1 ;;
    --seconds) seconds=$2; shift ;;
    --against) against=$2; shift ;;
    *) echo "unknown option $1" >&2; exit 2 ;;
  esac
  shift
done

manifest=benchmark/Cargo.toml
[ -f "$manifest" ] || { echo "run from the repository root" >&2; exit 2; }
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/tendax-benchmark"
[ -n "$seconds" ] || seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")

out=benchmark/out
mkdir -p "$out"
log="$out/repeat-$$.jsonl"
: > "$log"
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

for i in $(seq 1 "$runs"); do
  seed=42
  [ "$vary" = 1 ] && seed=$((41 + i))
  for w in $workloads; do
    for t in $(seq 0 "$trace"); do
      text=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t")
      digests=$(printf '%s\n' "$text" | grep -m1 'schedule digest' | tr -s ' ' | sed 's/^ //')
      measured=$(printf '%s\n' "$text" | awk 'NF == 6 && $4 == "as" && $5 == "measured" {printf "%s\"%s\": %s", sep, $1, $6; sep=", "}')
      printf '{"workload": "%s", "seed": %s, "trace": %s, "digests": "%s", "measured": {%s}, "result": %s}\n' \
        "$w" "$seed" "$t" "$digests" "$measured" "$(printf '%s\n' "$text" | tail -1)" >> "$log"
    done
    echo "run $i/$runs  $w  seed $seed  done" >&2
  done
done

python3 - "$log" "$runs" "$vary" "$against" <<'PY'
import json, statistics, sys
from collections import defaultdict

log, runs, vary, against = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
spec = json.load(open("BENCHMARK.json"))
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
count_units = {"count", "bytes", "ratio"}
layer_unit = {m["name"]: m["unit"] for m in spec["per_layer"]}

def read(path):
    e2e, raw, layer, digests, bad = defaultdict(list), defaultdict(list), defaultdict(list), defaultdict(set), 0
    for line in open(path):
        r = json.loads(line)
        res = r["result"]
        if not res["correct"] or res["failed"]:
            bad += 1
        digests[r["workload"]].add(r["digests"])
        for name, m in res["metrics"].items():
            (layer if r["trace"] else e2e)[(r["workload"], name)].append(m["value"])
        if not r["trace"]:
            for name, v in r["measured"].items():
                raw[(r["workload"], name)].append(v)
    return e2e, raw, layer, digests, bad

e2e, raw, layer, digests, bad_runs = read(log)

def spread(values):
    med = statistics.median(values)
    rng = (max(values) - min(values)) / med if med else 0.0
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        iqr = (q[2] - q[0]) / med if med else 0.0
    else:
        iqr = 0.0
    return med, rng, iqr

rule = "IQR/median" if vary else "(max-min)/median"
print(f"{runs} runs, {'seeds 42..' + str(41 + runs) if vary else 'seed 42'}; a pair is flagged when its {rule} exceeds its bound")
print()
print("| workload | metric | median | min | max | (max-min)/median | IQR/median | as measured: (max-min)/median | as measured: IQR/median | bound | |")
print("|---|---|---|---|---|---|---|---|---|---|---|")
over = 0
for (w, name), values in e2e.items():
    med, rng, iqr = spread(values)
    _, raw_rng, raw_iqr = spread(raw[(w, name)])
    b = bound[name]
    checked = iqr if vary else rng
    flag = ""
    if checked > b:
        flag = "OVER BOUND"
        over += 1
    elif checked > b / 3:
        flag = "over a third"
    print(f"| {w} | {name} | {med:.6g} | {min(values):.6g} | {max(values):.6g} | {rng:.2%} | {iqr:.2%} | {raw_rng:.2%} | {raw_iqr:.2%} | {b:.0%} | {flag} |")
print()
print(f"pairs over their bound: {over}; runs with failed ops or wrong output: {bad_runs}")

if not vary:
    moved = [w for w, d in digests.items() if len(d) != 1]
    print("digests identical across runs:", "yes" if not moved else "NO: " + ", ".join(moved))
    exact = [(w, n) for (w, n), v in e2e.items() if n == "stored_bytes_per_user_byte" and len(set(v)) != 1]
    print("stored_bytes_per_user_byte identical across runs:", "yes" if not exact else f"NO: {exact}")
    if layer:
        # Counts that depend on thread timing are named in the README.
        timing = ("wakeups", "threads_peak", "wait_us", "watermark", "reordered", "retries",
                  "delivered_per_publish", "machine_factor")
        moved = sorted(
            f"{w}/{n}" for (w, n), v in layer.items()
            if layer_unit[n] in count_units and len(set(v)) != 1 and not any(t in n for t in timing)
        )
        print("count-type layer metrics identical across runs:", "yes" if not moved else "NO: " + ", ".join(moved))

worse = 0
if against:
    first = read(against)[0]
    print()
    print(f"medians of this set against {against}; `worse by` is in the metric's own direction (negative: this set was better)")
    print()
    print("| workload | metric | median then | median now | worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    for key, values in e2e.items():
        if key not in first:
            continue
        a, b = statistics.median(first[key]), statistics.median(values)
        by = (b - a) / a if better[key[1]] == "lower" else (a - b) / a
        flag = ""
        if by > bound[key[1]]:
            flag = "OVER BOUND"
            worse += 1
        print(f"| {key[0]} | {key[1]} | {a:.6g} | {b:.6g} | {by:+.2%} | {bound[key[1]]:.0%} | {flag} |")
    print()
    print(f"pairs whose median is worse than the earlier set's by more than the bound: {worse}")
print()
print(f"log: {log}")
sys.exit(1 if over or bad_runs or worse else 0)
PY
