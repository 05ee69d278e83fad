#!/usr/bin/env bash
# How many cores does this host give two processes right now?
#
#   scripts/host-parallel.sh        # prints: alone, together, ratio
#
# One busy loop alone, then two side by side. A ratio near 1.0 means two
# effective cores, near 2.0 means the two shared one. This VM flips
# between the two moods from one process to the next, and a benchmark
# pass taken in the one-core mood reads `frames_per_s` ≈ `frames_per_s_1w`
# (`host.calib_spin_ms` spins one thread and cannot see it). Run it
# before and after each parent/change pair and discard pairs taken
# across a flip (docs/PERFORMANCE.md § Reading a regression). Bash only.
set -euo pipefail

spin() {
    local i=0
    while ((i < 200000)); do ((i += 1)); done
}

# Wall milliseconds of `$1` spins run side by side.
timed() {
    local start=$EPOCHREALTIME k
    for ((k = 0; k < $1; k++)); do spin & done
    wait
    local end=$EPOCHREALTIME
    echo $(((${end/./} - ${start/./}) / 1000))
}

alone=$(timed 1)
together=$(timed 2)
ratio=$((together * 100 / (alone > 0 ? alone : 1)))
printf 'alone %d ms, two together %d ms, ratio %d.%02d (1.0 = two cores, 2.0 = one)\n' \
    "$alone" "$together" $((ratio / 100)) $((ratio % 100))
