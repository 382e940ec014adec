#!/usr/bin/env bash
# The one command of the repo's benchmark: build chambench from source,
# then run it with the arguments given.
#
#   benchmark/run.sh                       the whole suite: every workload, untraced then traced
#   benchmark/run.sh --trace               the traced runs only (span files + layer probes)
#   benchmark/run.sh --check               the untraced suite twice; fails if a metric moved past its bound
#   benchmark/run.sh --spread 10           ten seeds per workload; the spread each bound is sized against
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload, as the acceptance driver runs it
#
# Exits non-zero when the build fails, a correctness check fails, or a
# bound is breached. The last line of a --workload run is its result as
# one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in; make it absolute so the binary is found again below.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/chambench" "$@"
