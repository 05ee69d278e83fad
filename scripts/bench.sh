#!/usr/bin/env bash
# Performance snapshot: figures + tracing/metrics overhead benches +
# scheduler throughput.
#
#   scripts/bench.sh          # run everything, rewrite BENCH_insight.json,
#                             # BENCH_native.json and BENCH_serve.json
#
# Runs the paper-figure harness at small scale, the §4.1 cache-stats
# experiment at paper scale (gating the fused JPiP-1 L1-miss ratio at
# <= 2.0x the sequential baseline), the `trace_overhead` and
# `metrics_overhead` Criterion benches, one `hinch-insight` analysis, the
# `throughput` bench (native engine across worker counts, with a jpip
# frames/sec floor), and
# the `hinch-serve bench` serving-runtime snapshot (open-loop fleet +
# telemetry on/off overhead probe + closed-loop SLO adaptation sweep),
# then folds the key numbers into
# BENCH_insight.json, BENCH_native.json and BENCH_serve.json (committed,
# so a reviewer can diff perf-relevant changes without rerunning
# anything). Absolute numbers are machine-dependent; the structure and
# the ratios/bounds are what matter.
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_insight.json
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== figures (small scale) =="
cargo run --offline --release -q -p bench --bin paper-figures -- \
    --fig 8 --scale small --frames 8 | tee "$workdir/fig8.txt"

echo "== fig 8 cache stats (paper scale) + fusion L1 gate =="
# The §4.1 profiling experiment at its original configuration (paper
# scale, 8 frames — the run that measured the 3.19x JPiP-1 L1 blowup).
# Tile-granular decode+IDCT fusion must hold the JPiP-1 XSPCL/sequential
# L1-miss ratio at <= 2.0x. Simulator numbers: deterministic, so this is
# a hard gate, not a noise-tolerant bound.
cargo run --offline --release -q -p bench --bin paper-figures -- \
    --scale paper --frames 8 --cache-stats | tee "$workdir/cache.txt"
python3 - "$workdir/cache.txt" <<'EOF'
import re, sys
gates = {}
with open(sys.argv[1]) as f:
    for line in f:
        m = re.match(r"cache-gate: app=(\S+) unfused_l1_ratio=([\d.]+) "
                     r"fused_l1_ratio=([\d.]+)", line)
        if m:
            gates[m.group(1)] = (float(m.group(2)), float(m.group(3)))
assert "JPiP-1" in gates, f"no JPiP-1 cache-gate line found: {gates}"
unfused, fused = gates["JPiP-1"]
assert fused <= 2.0, f"fused JPiP-1 L1 ratio {fused}x > 2.0x gate"
assert fused < unfused, f"fusion did not reduce the ratio: {fused}x !< {unfused}x"
print(f"fig8 gate: JPiP-1 L1 ratio {unfused}x unfused -> {fused}x fused (<= 2.0x)")
EOF

echo "== bench: trace_overhead =="
cargo bench --offline -q -p bench --bench trace_overhead | tee "$workdir/trace.txt"

echo "== bench: metrics_overhead =="
cargo bench --offline -q -p bench --bench metrics_overhead | tee "$workdir/metrics.txt"

echo "== insight: PiP-1 (sim, deterministic) =="
cargo run --offline --release -q -p insight --bin hinch-insight -- \
    --app pip1 --cores 4 --frames 8 --format json > "$workdir/insight.json"

# "group/name    12.3 ns/iter" (or ns/event) -> "name": 12.3
bench_pairs() {
    awk '/ns\/(iter|event)/ {
        n = split($1, parts, "/");
        printf "        \"%s\": %s,\n", parts[n], $(NF-1)
    }' "$1" | sed '$ s/,$//'
}

# Simulator-deterministic Fig. 8 ratios, folded into the committed JSON
# so a perf-relevant change shows up as a one-line diff.
unfused_ratio=$(sed -n 's/^cache-gate: app=JPiP-1 unfused_l1_ratio=\([0-9.]*\).*/\1/p' "$workdir/cache.txt")
fused_ratio=$(sed -n 's/^cache-gate: app=JPiP-1 .*fused_l1_ratio=\([0-9.]*\)$/\1/p' "$workdir/cache.txt")

{
    echo '{'
    echo '    "generated_by": "scripts/bench.sh",'
    echo '    "note": "absolute numbers are machine-dependent; compare ratios and bounds",'
    echo "    \"fig8_jpip1_l1_ratio\": { \"unfused\": $unfused_ratio, \"fused\": $fused_ratio, \"gate\": 2.0 },"
    echo '    "trace_overhead_ns_per_event": {'
    bench_pairs "$workdir/trace.txt"
    echo '    },'
    echo '    "metrics_overhead_ns_per_event": {'
    bench_pairs "$workdir/metrics.txt"
    echo '    },'
    echo '    "insight_pip1_small_4cores_8frames":'
    sed 's/^/    /' "$workdir/insight.json"
    echo '}'
} > "$out"

python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
disabled = data["metrics_overhead_ns_per_event"]["disabled_branch"]
assert disabled <= 25.0, f"disabled metrics path: {disabled} ns/event"
print(f"{sys.argv[1]}: valid JSON; disabled metrics path {disabled} ns/event")
EOF

echo "bench: wrote $out"

echo "== bench: throughput (native engine) =="
# Absolute path: cargo runs bench binaries with the package dir as cwd.
THROUGHPUT_OUT="$PWD/BENCH_native.json" cargo bench --offline -q -p bench --bench throughput

python3 - BENCH_native.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
# JPiP frames/sec floor: the SIMD kernels + tile-granular fusion must
# keep the 4-worker jpip runs at >= 1.3x the pre-SIMD baseline recorded
# on this machine (3480.1 fps, commit 66476bc). Both the unfused
# (SIMD-only) and fused entries are held to the floor; the measured
# margin is ~1.9x / ~2.1x, so this catches real regressions without
# tripping on scheduler noise.
jpip_floor = 1.3 * 3480.1
apps = data["apps_frames_per_sec"]
for name in ("jpip1", "jpip1_fused"):
    fps = apps[name]["workers_4"]
    assert fps >= jpip_floor, \
        f"{name} at 4 workers: {fps} fps < floor {jpip_floor:.0f}"
j4 = apps["jpip1"]["workers_4"]
jf4 = apps["jpip1_fused"]["workers_4"]
print(f"{sys.argv[1]}: valid JSON; "
      f"jpip1 {j4:.0f} fps, fused {jf4:.0f} fps @4 workers (floor {jpip_floor:.0f})")
EOF

echo "bench: wrote BENCH_native.json"

echo "== bench: serve (open loop + telemetry probe + SLO adaptation) =="
cargo run --offline --release -q -p serve --bin hinch-serve -- \
    bench --json BENCH_serve.json

python3 - BENCH_serve.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
ol = data["open_loop"]
# The acceptance floor: a real concurrent fleet under seeded open-loop
# load, with latency percentiles actually recorded.
assert ol["graphs"] >= 64, f"open loop ran {ol['graphs']} graphs < 64"
assert ol["completed"] > 0 and ol["agg_fps"] > 0, ol
assert ol["latency_p99_ns"] > 0, "p99 latency not recorded"
assert ol["latency_p50_ns"] <= ol["latency_p99_ns"], ol
tel = data["telemetry"]
# The always-on flight recorder must cost <= 3% saturated throughput
# (rings-on vs rings-off, best-of-trials on each side).
assert tel["ratio"] >= 0.97, f"telemetry on/off throughput ratio {tel['ratio']} < 0.97"
adapt = data["adapt"]
# The closed-loop SLO controller, on seeded bursty arrivals, must never
# miss more deadlines than the best static configuration would have on
# the byte-identical arrival schedule (deterministic: virtual time).
assert len(adapt) >= 3, f"adapt sweep covered {len(adapt)} apps < 3"
for row in adapt:
    a, s = row["adaptive_misses"], row["best_static_misses"]
    assert a <= s, (f"{row['app']}: adaptive missed {a} deadlines > "
                    f"best static ({row['best_static']}) {s}")
    assert row["toggles"] >= 1, f"{row['app']}: controller never actuated"
adapt_line = ", ".join(f"{r['app']} {r['adaptive_misses']}/{r['best_static_misses']}"
                       for r in adapt)
print(f"{sys.argv[1]}: valid JSON; {ol['graphs']} graphs, "
      f"{ol['agg_fps']:.0f} fps aggregate, p99 {ol['latency_p99_ns']} ns; "
      f"telemetry on/off ratio {tel['ratio']}; "
      f"adapt misses vs best static: {adapt_line}")
EOF

echo "bench: wrote BENCH_serve.json"
