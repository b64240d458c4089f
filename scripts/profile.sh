#!/usr/bin/env bash
# Where the server's CPU goes on one benchmark workload, without `perf`.
#
#   scripts/profile.sh <workload> [--seconds <s>] [--seed <n>]
#
# Builds benchmark/'s `e2e` with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) into target/profile/build,
# and scripts/sampler.c into a preload library beside it; runs the workload
# from the repository root under the library; then prints
# scripts/symbolize.py's tables for the `cache-*` threads. --seconds
# defaults to 10, --seed to 1. Edits nothing under benchmark/.
#
# Resolution: one sample per scheduler tick of CPU time (4 ms at HZ=250),
# so a 10 s run gives a one-loop workload's loop some 1,000-1,600 samples
# (hot_remote's two loops share about 1,300), and a share under about 1 %
# is noise. The dump is kept in target/profile/.
set -euo pipefail

usage() {
  echo "usage: scripts/profile.sh <workload> [--seconds <s>] [--seed <n>]" >&2
  exit 2
}
[[ $# -ge 1 ]] || usage
workload=$1
shift
# One workload, one process: e2e runs a comma list or `all` as a child
# per workload, and each child would write a dump of its own.
[[ $workload != *,* && $workload != all ]] || usage
seconds=10 seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seconds) [[ $# -ge 2 ]] || usage; seconds=$2; shift ;;
    --seed) [[ $# -ge 2 ]] || usage; seed=$2; shift ;;
    *) usage ;;
  esac
  shift
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/target/profile"
mkdir -p "$work"
cc -O2 -shared -fPIC -o "$work/libsampler.so" "$root/scripts/sampler.c"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$work/build" \
  cargo build --release --quiet --manifest-path "$root/benchmark/Cargo.toml" --bin e2e 1>&2

out="$work/$workload-$(date +%Y%m%d-%H%M%S)"
(cd "$root" && SAMPLER_OUT="$out" LD_PRELOAD="$work/libsampler.so" \
  "$work/build/release/e2e" --workload "$workload" --seed "$seed" --seconds "$seconds") \
  >"$out.log" 2>&1 || { tail -5 "$out.log" >&2; exit 1; }
dump=$(ls "$out".[0-9]*)
python3 "$root/scripts/symbolize.py" "$dump"
echo "samples kept in $dump" >&2
