#!/usr/bin/env bash
# Build the benchmark and run it. With no arguments: every workload, both
# passes, each in a child process of its own.
#
#   benchmark/run.sh                  the whole benchmark (about 4 minutes)
#   benchmark/run.sh --smoke          half a second a pass: does it still build,
#                                     run every drive and conserve frames?
#   benchmark/run.sh --check-noise    the whole benchmark twice; fails when an
#                                     end-to-end metric differs by more than its
#                                     bound or a simulator count differs at all
#   benchmark/run.sh --workload pip1-paper --seed 3 --seconds 20 --trace 0
#                                     one pass over one workload
set -euo pipefail
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
