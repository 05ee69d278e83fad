#!/usr/bin/env bash
# Compare one benchmark workload at a parent revision with the working tree.
#
#   scripts/bench-pairs.sh <parent-rev> <workload> <pairs> [seconds]
#
# Checks <parent-rev> out in a git worktree (removed again at the end) and
# builds both `benchmark/` binaries --offline. Then runs <pairs> pairs of
# end-to-end passes (`--trace 0`, <seconds> a pass, 20 by default), pair i
# with seed i on both sides, the parent first in odd pairs and the change
# first in even ones. scripts/host-parallel.sh runs before and after every
# pair; a pair whose two readings disagree on the host's mood (ratio below
# 1.5: two cores, else one) straddled a flip, is marked `*` and left out of
# the summary.
#
# For every end-to-end metric of BENCHMARK.json it prints
#   name  median [q1 q3] → median [q1 q3] (wins/N)  verdict
# parent first, wins counting the pairs the change read better. The verdict
# is `WORSE` when the change's median is worse than the parent's by more
# than the metric's bound, `better` when the change won at least nine pairs
# in ten and the medians lie further apart than the parent's quartiles, and
# `within bound` otherwise. Results stay under a temporary directory, named
# at the end.
#
# PARENT_DIR=<checkout of the parent> skips the worktree. Bash and awk only.
set -euo pipefail

if (($# < 3 || $# > 4)); then
    echo "usage: $0 <parent-rev> <workload> <pairs> [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-20}
root=$(git rev-parse --show-toplevel)
out=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")

parent=${PARENT_DIR:-}
if [[ -z $parent ]]; then
    parent=$out/parent
    git -C "$root" worktree add --quiet --detach "$parent" "$rev"
    trap 'git -C "$root" worktree remove --force "$parent"' EXIT
fi

for side in "$parent" "$root"; do
    echo "building $side/benchmark" >&2
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

# The host's mood: 2 for two effective cores, 1 for one.
mood() {
    "$root/scripts/host-parallel.sh" |
        awk '{ for (i = 1; i < NF; i++) if ($i == "ratio") print ($(i + 1) < 1.5 ? 2 : 1) }'
}

# One pass of one side; its result line (the last the benchmark prints).
pass() {
    local dir=$1 seed=$2
    "$dir/benchmark/target/release/benchmark" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1
}

kept=0
for ((i = 1; i <= pairs; i++)); do
    before=$(mood)
    if ((i % 2)); then
        pass "$parent" "$i" >"$out/parent.$i"
        pass "$root" "$i" >"$out/change.$i"
        first=parent
    else
        pass "$root" "$i" >"$out/change.$i"
        pass "$parent" "$i" >"$out/parent.$i"
        first=change
    fi
    after=$(mood)
    mark=' '
    if [[ $before != "$after" ]]; then
        mark='*'
    else
        echo "$i" >>"$out/kept"
        kept=$((kept + 1))
    fi
    for side in parent change; do
        awk -v s="$side" '{ c = $0; sub(/,"metrics".*/, "", c); printf "  %s %s", s, c }' \
            "$out/$side.$i"
    done | awk -v i="$i" -v f="$first" -v m="$mark" -v b="$before" -v a="$after" \
        '{ printf "%s pair %d (%s first, cores %s→%s)%s\n", m, i, f, b, a, $0 }'
done

if ((kept == 0)); then
    echo "every pair straddled a mood flip: nothing to compare" >&2
    exit 1
fi

# name better bound, one end-to-end metric a line
awk '/"end_to_end"/ { on = 1 } on && /"name"/ {
        match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH); gsub(/"name": *|"/, "", n)
        match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH); gsub(/"better": *|"/, "", b)
        match($0, /"bound": *[0-9.]+/); d = substr($0, RSTART, RLENGTH); sub(/"bound": */, "", d)
        print n, b, d
    }
    on && /\]/ { on = 0 }' "$root/BENCHMARK.json" >"$out/metrics"

echo
echo "$workload, $kept of $pairs pairs, ${seconds}s a pass: parent ($rev) → change (wins/N)"
while read -r name better bound; do
    while read -r i; do
        for side in parent change; do
            awk -v n="$name" '{
                if (match($0, "\"" n "\":\\{\"value\":[^,}]*")) {
                    v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v); printf "%s ", v
                } else printf "nan "
            }' "$out/$side.$i"
        done
        echo
    done <"$out/kept" |
        awk -v name="$name" -v better="$better" -v bound="$bound" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function q(a, n, p,    x, k) { x = (n - 1) * p + 1; k = int(x); return k >= n ? a[n] : a[k] + (x - k) * (a[k + 1] - a[k]) }
        { n++; p[n] = $1 + 0; c[n] = $2 + 0; if (better == "higher" ? $2 > $1 : $2 < $1) wins++ }
        END {
            sort(p, n); sort(c, n)
            pm = q(p, n, 0.5); cm = q(c, n, 0.5); iqr = q(p, n, 0.75) - q(p, n, 0.25)
            worse = better == "higher" ? cm < pm * (1 - bound) : cm > pm * (1 + bound)
            gain = better == "higher" ? cm - pm : pm - cm
            verdict = worse ? "WORSE" : (wins >= 0.9 * n && gain > iqr ? "better" : "within bound")
            printf "%-17s %.4g [%.4g %.4g] → %.4g [%.4g %.4g] (%d/%d)  %s\n", name,
                pm, q(p, n, 0.25), q(p, n, 0.75), cm, q(c, n, 0.25), q(c, n, 0.75), wins, n, verdict
        }'
done <"$out/metrics"
echo "results: $out"
