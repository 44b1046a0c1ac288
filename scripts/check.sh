#!/usr/bin/env bash
# Full local gate: release build, the whole test suite, and clippy with
# warnings promoted to errors. Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo clippy --all-targets --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --offline

# The benchmark is a workspace of its own, so the root `cargo test` does not
# reach its smoke and probe tests.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Deprecation gate: the pre-builder run/run_with_faults/run_observed free
# functions are deleted, and so are the degradation configs whose knobs no
# caller set (the hold windows and thresholds are constants), the fault
# matrix's private copy of the median run, the experiment id list that
# shadowed the experiment table, and the BENCH_suite.json writer. The
# symbols must stay gone everywhere — as definitions or as call sites;
# every run goes through Session::builder, every median through the
# runner's one path, and every id through the one table in
# crates/experiments/src/lib.rs.
if grep -rnE '\b(run_with_faults|run_observed|runtime::run|PsConfig|WatchdogConfig|ThermalGuardConfig|median_faulted_run|ALL_IDS|write_bench_report)\b' \
    --include='*.rs' src examples tests crates; then
    echo "deprecation gate FAIL: deleted symbols reappeared" >&2
    exit 1
fi

# Parallel-harness smoke: the full suite on a 2-wide pool must complete and
# rewrite the committed CSVs byte for byte. The committed-CSV gate itself is
# the Tier-1 test `suite_reproduces_every_committed_csv`.
cargo run --release --offline -p aapm-experiments -- all --jobs 2 --csv results/ > /dev/null

# Observability smoke: a suite cell with tracing and metrics enabled must
# emit parseable JSONL traces and a non-trivial aggregate snapshot. The
# byte-for-byte gate on the committed snapshot and the trace names is the
# Tier-1 test `fault_matrix_reproduces_the_committed_metrics_and_traces`.
rm -rf results/trace-smoke
cargo run --release --offline -p aapm-experiments -- fault-matrix --jobs 2 \
    --trace-out results/trace-smoke \
    --metrics-out results/trace-smoke/METRICS.json > /dev/null
python3 - <<'EOF'
import json, pathlib, sys

traces = sorted(pathlib.Path("results/trace-smoke").glob("*.jsonl"))
assert traces, "no trace files written"
events = 0
for trace in traces:
    for i, line in enumerate(trace.read_text().splitlines(), 1):
        event = json.loads(line)
        assert "t" in event and "event" in event, f"{trace}:{i}: malformed event {event}"
        events += 1
assert events > 0, "no events in any trace"

snapshot = json.loads(pathlib.Path("results/trace-smoke/METRICS.json").read_text())
assert snapshot["runs"] > 0, snapshot
counters = snapshot["counters"]
assert any(name.startswith("fault.") for name in counters), counters
assert any(name.startswith("actuator.") for name in counters), counters
assert counters.get("runtime.intervals", 0) > 0, counters
print(f"observability smoke: {len(traces)} trace(s), {events} event(s), "
      f"{snapshot['runs']} run(s) aggregated")
EOF

# Adversarial corpus gate: every committed fixture must replay to its
# recorded verdict (exit 0 means all matched), byte-identically across
# pool widths, and the corpus must hold its 14-fixture floor.
cargo run --release --offline -p aapm-experiments -- --replay-corpus --jobs 1 \
    > results/corpus-replay.jobs1.txt
for jobs in 2 8; do
    cargo run --release --offline -p aapm-experiments -- --replay-corpus --jobs "$jobs" \
        > "results/corpus-replay.jobs${jobs}.txt"
    cmp "results/corpus-replay.jobs1.txt" "results/corpus-replay.jobs${jobs}.txt"
done
fixtures=$(wc -l < results/corpus-replay.jobs1.txt)
if [ "$fixtures" -lt 14 ]; then
    echo "corpus gate FAIL: only ${fixtures} fixture(s) replayed (floor is 14)" >&2
    exit 1
fi
rm -f results/corpus-replay.jobs*.txt
echo "corpus gate: ${fixtures} fixtures replayed byte-identically at --jobs 1/2/8"

# Fuzz smoke: a fixed-seed sweep through the property oracles. Findings
# (cap/floor, the paper-expected model-deception violations) are reported
# but tolerated; any universal failure — panic, non-finite metric,
# conservation or watchdog-liveness breach — fails the gate and prints a
# shrunk counterexample to commit under corpus/.
cargo run --release --offline -p aapm-experiments -- --fuzz \
    --cases 512 --seed 20260807 > /dev/null

echo "check.sh: all gates passed"
