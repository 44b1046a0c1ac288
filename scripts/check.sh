#!/usr/bin/env bash
# Full local gate: release build, the whole test suite, and clippy with
# warnings promoted to errors. Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo clippy --all-targets --offline -- -D warnings
cargo bench --no-run --offline
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --offline

# Deprecation gate: the pre-builder run/run_with_faults/run_observed free
# functions are deleted. The symbols must stay gone everywhere — as
# definitions or as call sites; every run goes through Session::builder.
if grep -rnE '\b(run_with_faults|run_observed|runtime::run)\b' \
    --include='*.rs' src examples tests crates; then
    echo "deprecation gate FAIL: deleted run_*/runtime::run symbols reappeared" >&2
    exit 1
fi

# Parallel-harness smoke: the full suite on a 2-wide pool must complete and
# leave the wall-clock/speedup report behind.
cargo run --release --offline -p aapm-experiments -- all --jobs 2 --csv results/ > /dev/null
test -s results/BENCH_suite.json

# Committed-CSV gate: the smoke above rewrote every results/*.csv, and a
# behaviour-preserving change must leave each one byte-identical.
if ! git diff --exit-code -- 'results/*.csv'; then
    echo "csv gate FAIL: committed results/*.csv drifted (diff above)" >&2
    exit 1
fi

# Observability smoke: a suite cell with tracing and metrics enabled must
# emit parseable JSONL traces and a non-trivial aggregate snapshot.
rm -rf results/trace-smoke results/METRICS_fault_matrix.json
cargo run --release --offline -p aapm-experiments -- fault-matrix --jobs 2 \
    --trace-out results/trace-smoke \
    --metrics-out results/METRICS_fault_matrix.json > /dev/null
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

snapshot = json.loads(pathlib.Path("results/METRICS_fault_matrix.json").read_text())
assert snapshot["runs"] > 0, snapshot
counters = snapshot["counters"]
assert any(name.startswith("fault.") for name in counters), counters
assert any(name.startswith("actuator.") for name in counters), counters
assert counters.get("runtime.intervals", 0) > 0, counters
print(f"observability smoke: {len(traces)} trace(s), {events} event(s), "
      f"{snapshot['runs']} run(s) aggregated")
EOF

# Determinism with the registry installed: the dedicated cross-width test.
cargo test -q --offline -p aapm-experiments --test parallel_determinism \
    observer_outputs_are_byte_identical_across_widths

# Adversarial corpus gate: every committed fixture must replay to its
# recorded verdict (exit 0 means all matched), byte-identically across
# pool widths, and the corpus must hold its 13-fixture floor.
cargo run --release --offline -p aapm-experiments -- --replay-corpus --jobs 1 \
    > results/corpus-replay.jobs1.txt
for jobs in 2 8; do
    cargo run --release --offline -p aapm-experiments -- --replay-corpus --jobs "$jobs" \
        > "results/corpus-replay.jobs${jobs}.txt"
    cmp "results/corpus-replay.jobs1.txt" "results/corpus-replay.jobs${jobs}.txt"
done
fixtures=$(wc -l < results/corpus-replay.jobs1.txt)
if [ "$fixtures" -lt 13 ]; then
    echo "corpus gate FAIL: only ${fixtures} fixture(s) replayed (floor is 13)" >&2
    exit 1
fi
rm -f results/corpus-replay.jobs*.txt
echo "corpus gate: ${fixtures} fixtures replayed byte-identically at --jobs 1/2/8"

# Adaptive-refit smoke: the static-vs-adaptive comparison must run on a
# 2-wide pool and agree byte for byte with the serial run (the refit
# layer's RLS state lives inside each cell, so pool width must not leak
# into the results).
cargo run --release --offline -p aapm-experiments -- adaptive --jobs 1 \
    > results/adaptive.jobs1.txt
cargo run --release --offline -p aapm-experiments -- adaptive --jobs 2 \
    > results/adaptive.jobs2.txt
cmp results/adaptive.jobs1.txt results/adaptive.jobs2.txt
rm -f results/adaptive.jobs*.txt
echo "adaptive gate: static-vs-adaptive experiment byte-identical at --jobs 1/2"

# Fleet smoke: the hierarchical-vs-uniform fleet experiment must run on a
# 2-wide pool and agree byte for byte with the serial run (per-arm fleets
# and controllers live inside each cell, so pool width must not leak into
# the discrete-event schedule or the budget-tree arithmetic).
cargo run --release --offline -p aapm-experiments -- fleet --jobs 1 \
    > results/fleet.jobs1.txt
cargo run --release --offline -p aapm-experiments -- fleet --jobs 2 \
    > results/fleet.jobs2.txt
cmp results/fleet.jobs1.txt results/fleet.jobs2.txt
rm -f results/fleet.jobs*.txt
echo "fleet gate: hierarchical-vs-uniform experiment byte-identical at --jobs 1/2"

# Serve smoke: the open-loop SLO-governor experiment must run on a 2-wide
# pool and agree byte for byte with the serial run (each arm owns its
# arrival streams and meter, so pool width must not perturb one draw of
# the request processes or the fleet spike stage).
cargo run --release --offline -p aapm-experiments -- serve --jobs 1 \
    > results/serve.jobs1.txt
cargo run --release --offline -p aapm-experiments -- serve --jobs 2 \
    > results/serve.jobs2.txt
cmp results/serve.jobs1.txt results/serve.jobs2.txt
rm -f results/serve.jobs*.txt
echo "serve gate: slo-save-vs-static-cap experiment byte-identical at --jobs 1/2"

# Fuzz smoke: a fixed-seed sweep through the property oracles. Findings
# (cap/floor, the paper-expected model-deception violations) are reported
# but tolerated; any universal failure — panic, non-finite metric,
# conservation or watchdog-liveness breach — fails the gate and prints a
# shrunk counterexample to commit under corpus/.
cargo run --release --offline -p aapm-experiments -- --fuzz \
    --cases 512 --seed 20260807 > /dev/null

# bench-gate: re-run the machine bench and compare against the committed
# baseline. An attempt fails on a >20% throughput regression (or a >25%
# slower serial suite) and prints the simulated-seconds-per-wall-second
# headline. The committed baseline is conservative (minimum throughput /
# maximum wall over repeated runs) and the gate allows up to three
# attempts — shared-host scheduler noise can sink any single attempt, but
# a real regression (e.g. losing the fast-forward path) fails all three.
bench_gate_ok=0
for attempt in 1 2 3; do
    cargo run --release --offline -p aapm-experiments -- --bench-machine \
        --out results/BENCH_machine.current.json
    if python3 - <<'EOF'
import json, pathlib, sys

base = json.loads(pathlib.Path("results/BENCH_machine.json").read_text())
cur = json.loads(pathlib.Path("results/BENCH_machine.current.json").read_text())

failures = []
for key in ("ticked_sim_per_wall", "batched_sim_per_wall",
            "fastforward_sim_per_wall", "fleet_sim_per_wall",
            "serve_sim_per_wall", "cache_maccesses_per_sec"):
    floor = base[key] * 0.8
    if cur[key] < floor:
        failures.append(f"{key}: {cur[key]:.1f} < 80% of baseline {base[key]:.1f}")
# The fleet-scale headline claim is absolute, not relative: 10,000 nodes
# must simulate faster than real time.
if cur["fleet_sim_per_wall"] <= 1.0:
    failures.append(
        f"fleet_sim_per_wall: {cur['fleet_sim_per_wall']:.2f} sim-s/wall-s "
        f"is not faster than real time at 10k nodes")
ceiling = base["suite_serial_wall_s"] * 1.25
if cur["suite_serial_wall_s"] > ceiling:
    failures.append(
        f"suite_serial_wall_s: {cur['suite_serial_wall_s']:.3f}s > 125% of "
        f"baseline {base['suite_serial_wall_s']:.3f}s")

print(f"bench-gate: tick {cur['ticked_sim_per_wall']:.0f} sim-s/wall-s, "
      f"batched {cur['batched_sim_per_wall']:.0f} sim-s/wall-s, "
      f"fast-forward {cur['fastforward_sim_per_wall']:.0f} sim-s/wall-s, "
      f"fleet(10k) {cur['fleet_sim_per_wall']:.0f} sim-s/wall-s, "
      f"serve {cur['serve_sim_per_wall']:.0f} sim-s/wall-s, "
      f"cache {cur['cache_maccesses_per_sec']:.1f} Maccess/s, "
      f"serial suite {cur['suite_serial_wall_s']:.3f}s "
      f"(baseline {base['suite_serial_wall_s']:.3f}s)")
for failure in failures:
    print(f"bench-gate: {failure}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
    then
        bench_gate_ok=1
        break
    fi
    echo "bench-gate: attempt ${attempt}/3 missed the baseline; retrying" >&2
done
rm -f results/BENCH_machine.current.json
if [ "${bench_gate_ok}" -ne 1 ]; then
    echo "bench-gate FAIL: three consecutive attempts below baseline" >&2
    exit 1
fi

echo "check.sh: all gates passed"
