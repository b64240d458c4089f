#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark/'s runs, summed up by the
# claim rule (ROADMAP "Benchmarking").
#
#   scripts/pairs.sh <parent-ref> <workload> <pairs> [--cg1] [--trace] [--seconds <s>]
#
# <workload> is anything benchmark/ takes: a name, a comma list or `all`.
# Builds benchmark/'s `e2e` binary (`layers` under --trace) twice: from
# <parent-ref>, exported with `git archive` to target/pairs/, and from the
# working tree, each into a target directory of its own. Under --cg1 both
# builds get RUSTFLAGS="-C codegen-units=1", so code placement is the same
# on both sides; without it neither gets any RUSTFLAGS, as benchmark/run.sh
# builds. Each binary runs from its own checkout's root (it reads
# BENCHMARK.json from there). Pair i runs seed 1 for pairs 1-2, 2 for 3-4,
# and so on, with the parent first in odd pairs and the change first in
# even ones. --seconds defaults to 10, the claim length.
#
# Prints, per metric, the parent's and the change's q1 / median / q3, the
# change in the median, the pairs the change won, and whether the medians
# are further apart than the parent's inter-quartile range; then, for the
# end-to-end set, benchmark/'s own --compare. Edits nothing under
# benchmark/. The runs are kept in target/pairs/runs-<time>/.
set -euo pipefail

usage() {
  echo "usage: scripts/pairs.sh <parent-ref> <workload> <pairs> [--cg1] [--trace] [--seconds <s>]" >&2
  exit 2
}
[[ $# -ge 3 ]] || usage
parent_ref=$1 workload=$2 pairs=$3
shift 3
cg1=0 trace=0 seconds=10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --cg1) cg1=1 ;;
    --trace) trace=1 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds=$2; shift ;;
    *) usage ;;
  esac
  shift
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")
work="$root/target/pairs"
parent_tree="$work/parent-${sha:0:12}"
if [[ ! -f "$parent_tree/.exported" ]]; then
  rm -rf "$parent_tree"
  mkdir -p "$parent_tree"
  git -C "$root" archive "$sha" | tar -x -C "$parent_tree"
  touch "$parent_tree/.exported"
fi

bin=e2e
[[ $trace == 1 ]] && bin=layers
suffix=""
if [[ $cg1 == 1 ]]; then
  export RUSTFLAGS="-C codegen-units=1"
  suffix="-cg1"
else
  unset RUSTFLAGS CARGO_ENCODED_RUSTFLAGS
fi

# build <tree> <target dir>: prints the binary's path.
build() {
  CARGO_TARGET_DIR="$2" cargo build --release --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" --bin "$bin" 1>&2
  echo "$2/release/$bin"
}
echo "building $bin: parent ${sha:0:12}, change (working tree)${suffix:+, codegen-units=1}" >&2
parent_bin=$(build "$parent_tree" "$work/build-parent-${sha:0:12}$suffix")
change_bin=$(build "$root" "$work/build-change$suffix")

out="$work/runs-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

# run <side> <pair> <seed>
run() {
  local tree=$parent_tree exe=$parent_bin
  if [[ $1 == change ]]; then tree=$root exe=$change_bin; fi
  if ! (cd "$tree" && "$exe" --workload "$workload" --seed "$3" --seconds "$seconds" \
      --trace "$trace" --out "$out/$1.json" --label "$1") >"$out/$1-$2.log" 2>&1; then
    echo "pair $2: the $1 run failed; see $out/$1-$2.log" >&2
    tail -5 "$out/$1-$2.log" >&2
    exit 1
  fi
}

for ((i = 1; i <= pairs; i++)); do
  seed=$(( (i - 1) / 2 % 2 + 1 ))
  if (( i % 2 )); then order="parent change"; else order="change parent"; fi
  echo "pair $i/$pairs: seed $seed, $order" >&2
  for side in $order; do run "$side" "$i" "$seed"; done
done

python3 - "$out/parent.json" "$out/change.json" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

parent, change = (json.load(open(p))["runs"] for p in sys.argv[1:3])
catalogue = json.load(open(sys.argv[3]))
better = {m["name"]: m["better"] for m in catalogue["end_to_end"] + catalogue["per_layer"]}

def quartiles(values):
    if len(values) < 2:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]

def show(x):
    return f"{x:.4g}"

print(f"failed ops: parent {sum(r['failed'] for r in parent)}, change "
      f"{sum(r['failed'] for r in change)}; incorrect runs: "
      f"{sum(not r['correct'] for r in parent + change)}")
print("workload metric parent_q1/median/q3 change_q1/median/q3 median_change "
      "pairs_won gap/parent_iqr claim")
for workload in dict.fromkeys(r["workload"] for r in parent):
    # The i-th run of a workload on each side is pair i.
    runs = [[r for r in side if r["workload"] == workload] for side in (parent, change)]
    pairs = len(runs[0])
    for name in runs[0][0]["metrics"]:
        a, b = ([r["metrics"].get(name) for r in side] for side in runs)
        if None in a + b:
            print(f"{workload} {name} (not measured in every run)")
            continue
        qa, qb = quartiles(a), quartiles(b)
        delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        iqr, gap = qa[2] - qa[0], abs(qb[1] - qa[1])
        ratio = gap / iqr if iqr else float("inf") if gap else 0.0
        claim = sign * (qb[1] - qa[1]) > 0 and gap > iqr and won >= 0.9 * pairs
        print(f"{workload} {name} {'/'.join(map(show, qa))} {'/'.join(map(show, qb))} "
              f"{delta:+.2%} {won}/{pairs if sign else '?'} {ratio:.2f} "
              f"{'yes' if claim else 'no'}")
EOF

if [[ $trace == 0 ]]; then
  (cd "$root" && "$change_bin" --compare "$out/parent.json" "$out/change.json" \
    | grep -v ' missing$') || true
fi
echo "runs kept in $out" >&2
