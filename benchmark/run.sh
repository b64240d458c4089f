#!/usr/bin/env bash
# The benchmark's one command. Builds the binary the request needs (inside
# the checkout, from source) and runs it from the repository root:
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --check
#   bash benchmark/run.sh --compare base.json change.json
#
# --trace 0 (default) runs the end-to-end set (`e2e`); --trace 1 runs the
# traced run (`layers`), which alone links the probes of internal APIs, so a
# refactor of a probed API cannot stop the end-to-end set from building.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

bin=e2e
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then bin=layers; fi
  prev="$arg"
done

target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --quiet \
  --manifest-path "$here/Cargo.toml" --bin "$bin" 1>&2
exec "$target/release/$bin" "$@"
