#!/usr/bin/env bash
# The one command of the pads-rs benchmark. Builds the root `pads` binary
# and the harness in release mode, then
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one run; the last stdout line is the JSON result
#       (the contract behind BENCHMARK.json; --trace 1 is the per-layer run)
#   run.sh [--seed N] [--seconds S] [--workload W] [--traced] [--twice]
#       every workload (or W): prints each metric by name with its unit;
#       --traced adds the per-layer run, --twice runs the suite twice on
#       the same build and exits non-zero when a pair of medians disagrees
#       beyond the metric's bound
#
# Works from any directory: it finds the checkout it lives in.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates || ! -d descriptions ]]; then
    echo "run.sh: $root is not a pads-rs checkout (no Cargo.toml, crates/ or descriptions/): nothing to measure" >&2
    exit 1
fi

# One build directory for both workspaces; a relative CARGO_TARGET_DIR is
# taken from the checkout root.
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet -p pads-cli >&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release"

trace=""
for ((i = 1; i <= $#; i++)); do
    if [[ "${!i}" = --trace ]]; then
        next=$((i + 1))
        trace="${!next:-}"
    fi
done
case "$trace" in
    "") exec "$bin/suite" "$@" ;;
    1) exec "$bin/traced" "$@" ;;
    *) exec "$bin/e2e" "$@" ;;
esac
