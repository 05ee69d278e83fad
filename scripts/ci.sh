#!/usr/bin/env bash
# CI gate: formatting, lints, build, full test suite — all offline.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --quick    # skip the release build (debug tests only)
#
# Mirrors what the repository expects of every change:
#   1. cargo fmt --check      — no unformatted code
#   2. cargo clippy -D warnings (workspace, all targets), then four grep
#      lints (engine and stream-slot sync goes through hinch::sync;
#      nothing points at a deleted recorder, knob, measurement path,
#      executor, trace summary, source copy or process-global simulated
#      address allocator; only trace::metrics knows the latency
#      histogram's bucket layout; only apps::output knows the FNV
#      constants of the output digest)
#      and the schedcheck model suite under --cfg hinch_model (engine
#      protocols and their counters, the stream slot ring)
#   3. tier-1 verify: cargo build --release && cargo test -q — includes
#      tests/steady_state_alloc.rs (one #[test], its own counting
#      allocator): a steady-state frame allocates no stream payload, and
#      a second run_native of one spec allocates none from its first
#      frame on (its streams start with the buffers the first run's
#      retired, kept on the spec's shelf)
#   4. cargo test --workspace — every crate's suite; then the media
#      crate once more under HINCH_FORCE_SCALAR=1 so the scalar kernel
#      references run even on hosts whose SIMD paths won the dispatch
#      (both legs run tests/simd_parity.rs, whose `*_checked` hooks reach
#      the SSE2 and AVX2 kernels whatever the dispatch picked), and the
#      oracle corpus's digests under HINCH_FORCE_SCALAR=1 too (JPiP's
#      decoded pixels, blessed on the vector path); then the
#      kernel floors in release: the dispatched box filter at PiP's paper
#      geometry must beat its scalar reference 3×, the dispatched IDCT on
#      JPiP's quality-75 luma plane a loop over `idct_scalar` 2×, and
#      `decode_scan` on that plane the bitwise reference walk 3×, so a
#      dispatch that falls back to a reference, or a combined Huffman
#      table that misses every prefix, is a red CI, not a slow ledger
#   5. xspclc analyze over every generated app spec — zero diagnostics
#      (warnings included) allowed
#   6. hinch-insight determinism: the JSON report for one simulated app
#      must parse and be byte-identical across two separate runs
#   7. hinch-conformance gate: a quick differential matrix (3 apps ×
#      2 core counts × 2 seeded policies) must pass and its JSON summary
#      must be byte-identical across two separate runs; so must the full
#      13-app matrix's, sim digests of the reconfiguring apps included
#      (a simulated run's cache layout belongs to the run, not to the
#      process)
#   8. hinch-serve smoke: start the serving front-end on real sockets,
#      time 20 pings (a median of 10 ms or more fails: a frame sent in
#      two writes, or an end without TCP_NODELAY, costs 88 ms a round
#      trip), push frames over the TCP frame protocol, inject one
#      reconfiguration event over the wire, exercise the HTTP gateway,
#      scrape GET /metrics and validate the exposition as Prometheus
#      text (TYPE lines, label syntax, monotone histogram buckets),
#      fetch wire telemetry in all three formats, render one `top`
#      snapshot, assert responses and clean shutdown
#   9. hinch-serve scenario determinism: the SLO controller's seeded
#      bursty-replay scenario — replay log plus a capped real-runtime
#      execution digest — must be byte-identical across two runs
#  10. perf ledger smoke: `benchmark/` is a workspace of its own that
#      compiles against the crates' public API, so nothing above builds
#      it; `benchmark/run.sh --smoke` builds it and runs every workload
#      for half a second a pass (outputs verified, frames conserved)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== facade lint (engine and stream-slot sync goes through hinch::sync) =="
# Everything under crates/hinch/src/engine/, and the stream slot ring,
# must route its concurrency through the crate::sync facade so
# `--cfg hinch_model` builds can model it — raw primitive imports (or a
# bare UnsafeCell where a ModelCell belongs) silently escape the model
# checker.
if grep -RnE 'std::sync::atomic|std::thread|parking_lot|UnsafeCell' \
    crates/hinch/src/engine/ crates/hinch/src/stream.rs; then
    echo "facade lint: engine and stream code must use crate::sync, not raw sync primitives" >&2
    exit 1
fi
echo "facade lint: clean"
# The metrics registry, the ring on/off knob, the per-worker flight
# recorder ring and its seqlock model (`trace::ring`, `RingEvent`,
# `RingSet`, `ring_model.rs`, `DEFAULT_RING_CAPACITY`, the
# `hinch_live_ring_*` series), the pre-ledger measurement
# stack, the Criterion benches, `paper-figures --insight`, the separate
# reference executor (`engine::reference`, `RefReport`), the trace
# crate's own summary (`utilization_summary`), the source's field copy
# (`Plane::renew_from_pixels`) and the process-global simulated address
# allocator (`SIM_BRK`, `sim_alloc`, `renew_for_overwrite_at`), the
# row-wise read of a composite (`PlaneRead::Materialised`) and the float
# IDCT's SSE2 twin and transposed cosine table (`idct_to_pixels_sse2`,
# `cos_t_table`), the analyzer's second replication expander and its
# debug cross-check (`graph::introspect`, `expand_copies`, `ComposeFn`,
# `cross_check_expansion`), the uncomposed-slices knob
# (`legacy_uncomposed_slices`, `--legacy-slices`), the downscale's SSE2
# twin (`downscale_rows_sse2`), the default-capacity stream table
# (`new_stream_table`), the latency histogram's sparse triples and the
# bucket rebuilds and quantile loops around them (`nonzero_buckets`,
# `bucket_counts`, `counts_from_nonzero`, `quantile_from_counts`,
# `cumulative_from_counts`, `cumulative_buckets`, `merge_latencies`,
# `latency_buckets`), the live analyzer's partial sample copy
# (`GraphDelta`), the tracker's per-iteration DAG (`dag_of`), the PiP
# trace example (`trace_pip`), the shared-capture builds and their
# private twins (`build_isolated`, `build_isolated_sliced`,
# `build_isolated_discarding`, `build_isolated_adaptive`,
# `build_isolated_fused`, `run_sim_fused`), the corpus run lock and
# whole-asset caches (`run_lock`, `mosaic_assets`, `telescope_assets`),
# serve's second output digest (`fold_outputs`), the polling quiescence
# waits (`wait_quiescent`) and the non-JPiP fused arms (`fusion is
# JPiP-only`) are gone
# (benchmark/ is the one perf ledger, insight the one trace analysis,
# engine/sim the one sequential engine, the pools' counters the one
# live source, a source publishes a view of its
# field, a spacecake::Machine lays out its run's buffers, a capture records
# a composite and a reader materialises it whole, the IDCT is fixed point
# with one AVX2 twin, XA001 is decided on the spec, replication is
# expanded once, a recorded latency distribution is one
# `trace::metrics::Histogram` value, a built app owns its outputs and
# apps::output digests them, Runtime::wait_retired is the one quiescence
# wait): no code, doc or script may still point at them.
if grep -rnE 'EngineMetrics|LabeledMetrics|ring_capacity|scripts/bench\.sh|BENCH_(insight|native|serve)\.json|hinch-serve bench|cargo bench|criterion_(group|main)|--bench |paper-figures.*--insight|RefReport|engine::reference|utilization_summary|renew_from_pixels|SIM_BRK|sim_alloc|renew_for_overwrite_at|PlaneRead::Materialised|idct_to_pixels_sse2|cos_t_table|RingEvent|RingSet|trace::ring|ring_model|DEFAULT_RING_CAPACITY|hinch_live_ring_|graph::introspect|expand_copies|ComposeFn|legacy_uncomposed_slices|legacy-slices|cross_check_expansion|downscale_rows_sse2|new_stream_table\b|nonzero_buckets|bucket_counts|counts_from_nonzero|quantile_from_counts|cumulative_from_counts|cumulative_buckets|merge_latencies|latency_buckets|GraphDelta|dag_of|trace_pip|build_isolated|run_sim_fused|run_lock|mosaic_assets|telescope_assets|fold_outputs|wait_quiescent|fusion is JPiP-only' \
    --exclude=ci.sh crates src tests examples docs scripts README.md DESIGN.md EXPERIMENTS.md \
    vendor/README.md; then
    echo "dangling reference to a deleted recorder, knob, measurement path, executor, summary or copy" >&2
    exit 1
fi
echo "dangling-reference lint: clean"
# The latency histogram's bucket layout is trace::metrics's alone: a
# layout change (say, log-linear buckets) must stay a one-file change.
if grep -rn 'LOG_BUCKETS' --exclude=ci.sh crates src tests examples docs scripts README.md \
    DESIGN.md EXPERIMENTS.md | grep -v '^crates/trace/src/metrics.rs:'; then
    echo "LOG_BUCKETS named outside crates/trace/src/metrics.rs" >&2
    exit 1
fi
echo "histogram-layout lint: clean"
# One output digest: the FNV constants live in apps::output alone.
if grep -rn 'FNV_OFFSET' --exclude=ci.sh crates src tests examples docs scripts README.md \
    DESIGN.md EXPERIMENTS.md | grep -v '^crates/apps/src/output.rs:'; then
    echo "FNV_OFFSET named outside crates/apps/src/output.rs: digest outputs with digest_ports" >&2
    exit 1
fi
echo "output-digest lint: clean"

echo "== schedcheck (model-checked engine protocols) =="
# Seeded, bounded exploration of the engine's sync protocols under
# `--cfg hinch_model` (separate target dir: the cfg changes every
# crate's build): engine_model.rs (the real Runtime and run_native,
# per-node counters included), adapt_model.rs and stream_model.rs (the
# real hinch::stream::Stream, slot hand-over included). The smoke budget keeps CI fast; MODEL_DEEP=1 runs the same
# tests with a much larger schedule budget.
model_iters=96
[[ "${MODEL_DEEP:-0}" == "1" ]] && model_iters=1024
RUSTFLAGS="--cfg hinch_model" CARGO_TARGET_DIR=target/hinch_model \
    SCHEDCHECK_ITERS=$model_iters \
    cargo test --offline -q -p schedcheck
echo "schedcheck: model gate passed (SCHEDCHECK_ITERS=$model_iters)"

if [[ $quick -eq 0 ]]; then
    echo "== build (release) =="
    cargo build --offline --release
fi

echo "== test (root package, tier 1) =="
cargo test --offline -q

echo "== test (workspace) =="
cargo test --offline --workspace -q

echo "== test (media: forced-scalar kernel path) =="
# The workspace run above exercised the media crate with native SIMD
# dispatch (SSE2/AVX2 where the host has them). Run it again with
# HINCH_FORCE_SCALAR pinning every kernel to its scalar reference, so
# both sides of the scalar-vs-SIMD parity contract are executed on every
# host regardless of its feature set.
HINCH_FORCE_SCALAR=1 cargo test --offline -q -p media
# the JPiP digests of the oracle corpus were blessed on the vector path:
# the scalar IDCT must reproduce them
HINCH_FORCE_SCALAR=1 cargo test --offline -q -p conformance --test oracle_corpus
echo "media: scalar fallback suite passed"

if [[ $quick -eq 0 ]]; then
    echo "== kernel floors (media: box filter, IDCT and entropy decoder vs their references) =="
    # one at a time: three timing tests side by side on two cores time
    # each other
    cargo test --offline --release -q -p media --test simd_parity -- \
        --ignored kernel_floor --test-threads 1
fi

echo "== analyze (all app specs) =="
specs_dir=target/specs
cargo run --offline -q --example dump_specs -- "$specs_dir"
for spec in "$specs_dir"/*.xml; do
    out=$(cargo run --offline -q -p analyze --bin xspclc -- analyze "$spec" --format json)
    if [[ "$out" != '{"diagnostics":[],"errors":0,"warnings":0}' ]]; then
        echo "analyze: $spec is not clean:" >&2
        cargo run --offline -q -p analyze --bin xspclc -- analyze "$spec" >&2 || true
        exit 1
    fi
    echo "analyze: $spec clean"
done

echo "== insight (deterministic report) =="
insight_dir=target/insight-ci
mkdir -p "$insight_dir"
for run in 1 2; do
    cargo run --offline -q -p insight --bin hinch-insight -- \
        --app pip1 --cores 4 --frames 8 --format json > "$insight_dir/run$run.json"
done
if ! cmp -s "$insight_dir/run1.json" "$insight_dir/run2.json"; then
    echo "insight: report is not stable across two runs" >&2
    diff "$insight_dir/run1.json" "$insight_dir/run2.json" >&2 || true
    exit 1
fi
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$insight_dir/run1.json"
echo "insight: JSON parses and is byte-identical across runs"

echo "== conformance (differential gate) =="
conf_dir=target/conformance-ci
mkdir -p "$conf_dir"
for run in 1 2; do
    cargo run --offline -q -p conformance --bin hinch-conformance -- \
        --format json > "$conf_dir/run$run.json"
done
if ! cmp -s "$conf_dir/run1.json" "$conf_dir/run2.json"; then
    echo "conformance: summary is not stable across two runs" >&2
    diff "$conf_dir/run1.json" "$conf_dir/run2.json" >&2 || true
    exit 1
fi
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$conf_dir/run1.json"
echo "conformance: gate matrix passed, JSON byte-identical across runs"
for run in 1 2; do
    cargo run --offline -q --release -p conformance --bin hinch-conformance -- \
        --full --format json > "$conf_dir/full$run.json"
done
if ! cmp -s "$conf_dir/full1.json" "$conf_dir/full2.json"; then
    echo "conformance: the full matrix's summary is not stable across two processes" >&2
    diff "$conf_dir/full1.json" "$conf_dir/full2.json" >&2 || true
    exit 1
fi
echo "conformance: full matrix passed, JSON byte-identical across processes"

echo "== serve smoke (sockets + ping gate + wire reconfig + /metrics validation) =="
cargo run --offline -q --release -p serve --bin hinch-serve -- smoke

echo "== adapt scenario (seeded decision-plane determinism) =="
# The closed-loop SLO controller's decision path must replay identically
# from its seed: two runs of the virtual scenario plus a capped execution
# on the real runtime (toggles over inject, output digest) byte-compared.
adapt_dir=target/adapt-ci
mkdir -p "$adapt_dir"
for run in 1 2; do
    cargo run --offline -q --release -p serve --bin hinch-serve -- \
        scenario --app pip12 --seed 42 --execute --max-frames 24 \
        > "$adapt_dir/run$run.txt"
done
if ! cmp -s "$adapt_dir/run1.txt" "$adapt_dir/run2.txt"; then
    echo "adapt: scenario replay is not stable across two runs" >&2
    diff "$adapt_dir/run1.txt" "$adapt_dir/run2.txt" >&2 || true
    exit 1
fi
grep -q '^execute frames=24 ' "$adapt_dir/run1.txt" || {
    echo "adapt: real-runtime execution line missing from scenario output" >&2
    exit 1
}
echo "adapt: scenario replay + execution digest byte-identical across runs"

echo "== benchmark smoke (perf ledger builds and runs every workload) =="
benchmark/run.sh --smoke

echo "ci: all green"
