#!/usr/bin/env sh
# Offline CI for the UniDrive reproduction. No network access is
# assumed anywhere: the workspace has zero external dependencies and
# every cargo invocation passes --offline.
#
#   ./ci.sh         tier-1 gate + full workspace tests + obs lint
#   ./ci.sh quick   tier-1 gate only
set -eu
cd "$(dirname "$0")"

echo "==> tier-1: release build + root package tests"
cargo build --offline --release
cargo test --offline -q

if [ "${1:-}" = "quick" ]; then
    echo "==> quick mode: parallel-chunker determinism + gear-vs-rabin ingest shape"
    # The tentpole contracts, cheap enough for the quick gate: (a) the
    # parallel cut-point driver must emit byte-identical cuts at any
    # thread count (dumped for both hash kinds over a fixed buffer and
    # cmp'd), and (b) gear-kind ingest must beat rabin-kind ingest at
    # every pool width — the whole point of shipping a second hash.
    cargo build --offline --release -p unidrive-bench --bin bench_kernels
    qout="$(mktemp -d)"
    trap 'rm -rf "$qout"' EXIT
    ./target/release/bench_kernels --cuts-out "$qout/cuts1.txt" --cuts-threads 1
    ./target/release/bench_kernels --cuts-out "$qout/cuts2.txt" --cuts-threads 2
    ./target/release/bench_kernels --cuts-out "$qout/cuts8.txt" --cuts-threads 8
    cmp "$qout/cuts1.txt" "$qout/cuts2.txt"
    cmp "$qout/cuts1.txt" "$qout/cuts8.txt"
    ./target/release/bench_kernels --quick --out "$qout/bench_kernels.json" >/dev/null
    python3 - "$qout/bench_kernels.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rabin = {r["threads"]: r["mb_per_s"] for r in doc["rows"] if r["kernel"] == "ingest"}
gear = {r["threads"]: r["mb_per_s"] for r in doc["rows"] if r["kernel"] == "ingest_gear"}
assert rabin and set(rabin) == set(gear), (sorted(rabin), sorted(gear))
for t in sorted(rabin):
    assert gear[t] >= rabin[t], f"gear ingest slower than rabin at {t} threads: {gear[t]:.0f} < {rabin[t]:.0f} MiB/s"
print("    gear >= rabin ingest at threads " + ", ".join(f"{t} ({gear[t]:.0f} vs {rabin[t]:.0f} MiB/s)" for t in sorted(rabin)))
EOF
    echo "==> quick mode: skipping workspace tests and lints"
    exit 0
fi

echo "==> workspace tests (all crates)"
cargo test --offline --workspace -q

echo "==> bench binaries compile (debug) and build (release)"
cargo build --offline -p unidrive-bench --all-targets
# The determinism and microbench steps below run the release binaries;
# the root release build alone does not produce them.
cargo build --offline --release -p unidrive-bench

echo "==> release examples run to completion"
# Each example asserts its own outcome: devices converge, and
# real_directories also checks that metadata on disk is encrypted and
# that an idle pass is a no-op. A failed assertion exits non-zero.
for example in quickstart outage_failover membership_change real_directories; do
    echo "    $example"
    cargo run --offline -q --release --example "$example" >/dev/null
done

echo "==> clippy on the whole workspace (deny warnings)"
# rustup-managed toolchains ship clippy; if this toolchain has none,
# report and continue rather than failing an otherwise green run.
if cargo clippy --offline --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace -- -D warnings
else
    echo "    clippy not installed; skipped"
fi

echo "==> metrics export determinism (same seed => byte-identical)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
./target/release/fig08_micro quick --metrics-out "$out/a.json" >/dev/null
./target/release/fig08_micro quick --metrics-out "$out/b.json" >/dev/null
cmp "$out/a.json" "$out/b.json"

echo "==> transfer-engine scheduling determinism (same seed => byte-identical)"
# fig11 drives the full sync protocol plus all three baselines through
# the shared notifier-parked transfer engine; identical metrics across
# two runs means worker wake order is reproducible, not just timers.
./target/release/fig11_batch_sync quick --metrics-out "$out/c.json" >/dev/null
./target/release/fig11_batch_sync quick --metrics-out "$out/d.json" >/dev/null
cmp "$out/c.json" "$out/d.json"

echo "==> kernel microbenchmarks (quick) + deterministic export shape"
# Throughput numbers vary with the machine; what CI pins down is that
# every kernel runs to completion and the JSON schema stays stable
# (fixed key set, rows in fixed order). The checked-in
# BENCH_kernels.json at the repo root is a full-mode snapshot.
./target/release/bench_kernels --quick --out "$out/bench_kernels.json"
python3 - "$out/bench_kernels.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench_kernels"] == "unidrive/v1", doc
kernels = [r["kernel"] for r in doc["rows"]]
for expected in ["sha1", "rabin_roll", "gear_roll", "chunker_cut_points", "gear_cut_points",
                 "cut_points_parallel", "rs_encode", "rs_decode", "ingest", "ingest_gear"]:
    assert expected in kernels, f"missing kernel row: {expected}"
for r in doc["rows"]:
    assert set(r) == {"kernel", "bytes", "threads", "iters", "mb_per_s", "mean_ns", "p50_ns", "p95_ns"}, r
    assert r["iters"] > 0 and r["mb_per_s"] > 0, r
EOF

echo "==> span trace determinism + Chrome trace-event shape"
# Two same-seed runs must export byte-identical Chrome traces, and the
# trace must be well-formed: non-negative ts/dur, unique span ids, and
# every parent id present (trace_report --validate exits non-zero
# otherwise).
./target/release/fig11_batch_sync quick --trace-out "$out/t1.json" >/dev/null
./target/release/fig11_batch_sync quick --trace-out "$out/t2.json" >/dev/null
cmp "$out/t1.json" "$out/t2.json"
./target/release/trace_report --validate "$out/t1.json"

echo "==> windowed series export: determinism + schema validation (fig11)"
# The obs series layer (--series-out) must be a pure function of the
# seed and pass its own validator: schema tag, strictly increasing
# window indices, and quantile monotonicity (p50 <= p95 <= p99) in
# every sample window.
./target/release/fig11_batch_sync quick --series-out "$out/s1.json" >/dev/null
./target/release/fig11_batch_sync quick --series-out "$out/s2.json" >/dev/null
cmp "$out/s1.json" "$out/s2.json"
./target/release/obs_report --validate "$out/s1.json"

echo "==> chaos soak: invariants hold, lethal plan minimizes, same seed => byte-identical"
# Randomized (but seeded) fault schedules must never violate an
# invariant; the deliberately lethal schedule must, and must shrink to
# a minimal still-failing plan. The verdict, minimized plan, and
# flight record are all derived from virtual time only, so two
# same-seed runs must be byte-identical — the fig11 gate's analogue
# for the fault-injection layer.
./target/release/chaos_soak quick --out "$out/cs1.json" --series-out "$out/csh1.json" >/dev/null
./target/release/chaos_soak quick --out "$out/cs2.json" --series-out "$out/csh2.json" >/dev/null
cmp "$out/cs1.json" "$out/cs2.json"
cmp "$out/cs1.minplan.json" "$out/cs2.minplan.json"
cmp "$out/cs1.flight.json" "$out/cs2.flight.json"
grep -q '"verdict": "PASS"' "$out/cs1.json"

echo "==> chaos health round: targeted outage visibly degrades, then recovers"
# The health-round acceptance gate: the scoreboard fed by ObservedCloud
# wrappers must show the targeted cloud leaving healthy during its
# outage window and back to healthy once the window closes, while no
# untargeted cloud ever goes down. The same scoreboard is embedded in
# the series export, which must also validate.
cmp "$out/csh1.json" "$out/csh2.json"
./target/release/obs_report --validate "$out/csh1.json"
grep -q '"dipped": true' "$out/cs1.json"
grep -q '"recovered": true' "$out/cs1.json"
python3 - "$out/csh1.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = {h["cloud"]: h for h in doc["health"]}
target = rows["c2"]
dipped = {w["state"] for w in target["timeline"]} & {"degraded", "down"}
assert dipped, [w["state"] for w in target["timeline"]]
assert target["state"] == "healthy", target["state"]
assert any(t["to"] in ("degraded", "down") for t in target["transitions"]), target["transitions"]
for name, row in rows.items():
    if name != "c2":
        assert all(t["to"] != "down" for t in row["transitions"]), (name, row["transitions"])
EOF
# The default run soaks both metadata planes; the oplog-restricted run
# additionally proves the --meta-mode flag itself is honored and that
# the oplog plane passes in isolation (op files absorbing torn uploads
# without the lock plane's rounds masking anything).
grep -q '"meta_modes": \["lock","oplog"\]' "$out/cs1.json"
./target/release/chaos_soak quick --meta-mode oplog --out "$out/cso.json" >/dev/null
grep -q '"meta_modes": \["oplog"\]' "$out/cso.json"
grep -q '"verdict": "PASS"' "$out/cso.json"

echo "==> fleet bench: 10k-device quick run, invariants + schema + byte-identical"
# The fleet simulator must converge with every chaos-soak invariant
# green, emit a schema-stable report, and be a pure function of the
# seed: two quick runs (the second with a different shard and thread
# count) must produce byte-identical BENCH_fleet.json.
./target/release/bench_fleet quick --out "$out/f1.json" --series-out "$out/fs1.json" >/dev/null
./target/release/bench_fleet quick --shards 3 --threads 2 --out "$out/f2.json" --series-out "$out/fs2.json" >/dev/null
cmp "$out/f1.json" "$out/f2.json"
python3 - "$out/f1.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench_fleet"] == "unidrive/v1", doc
assert set(doc) == {"bench_fleet", "config", "counters", "clouds", "hist", "invariants", "run"}, sorted(doc)
assert doc["config"]["devices"] == 10000, doc["config"]
for inv in doc["invariants"]:
    assert inv["pass"] is True, inv
for name in ["lock_rounds", "lock_wait_ns", "sync_latency_ns"]:
    h = doc["hist"][name]
    assert h["count"] > 0 and h["p50"] <= h["p95"] <= h["p99"], (name, h)
assert len(doc["clouds"]) == 5, doc["clouds"]
for c in doc["clouds"]:
    assert c["ops"] == c["lock_ops"] + c["transfer_ops"], c
started = doc["counters"]["sessions.started"]
assert started == doc["counters"]["sessions.completed"] > 0, doc["counters"]
# Contention and compaction-pressure counters must be first-class
# schema members even when zero (lock mode leaves the oplog ones at 0).
for name in ["lock.starved", "oplog.compact_forced", "oplog.compact_overdue"]:
    assert name in doc["counters"], sorted(doc["counters"])
EOF

echo "==> fleet series: byte-identical across shard/thread layouts + health schema"
# The per-shard series banks must merge to the same document no matter
# how the event set is partitioned — the windowed-telemetry analogue
# of the BENCH_fleet.json determinism gate — and the embedded health
# scoreboard must carry one valid row per cloud.
cmp "$out/fs1.json" "$out/fs2.json"
./target/release/obs_report --validate "$out/fs1.json"
python3 - "$out/fs1.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["series"] == "unidrive-obs-series/v1", doc.get("series")
assert doc["window_ns"] > 0
for metric in ["fleet.arrivals", "fleet.sessions", "cloud.ops", "fleet.sync_latency_ns"]:
    assert metric in doc["metrics"], sorted(doc["metrics"])
health = doc["health"]
assert len(health) == 5, [h["cloud"] for h in health]
for row in health:
    assert row["state"] in ("healthy", "degraded", "down"), row
    assert row["ops"] > 0, row
    indices = [w["i"] for w in row["timeline"]]
    assert indices == sorted(set(indices)), row["cloud"]
EOF

echo "==> oplog bench: N-writer scaling shape + schema + byte-identical"
# The metadata-plane headline: on a hot shared folder, oplog commits
# must scale with writer count while lock commits serialize. Two quick
# same-seed runs must be byte-identical (virtual-time determinism
# through the real client protocol), the report schema must stay
# stable, and the shape claim itself is asserted: at the top writer
# count, oplog aggregate throughput must beat lock.
./target/release/bench_oplog quick --out "$out/o1.json" --series-out "$out/os1.json" >/dev/null
./target/release/bench_oplog quick --out "$out/o2.json" --series-out "$out/os2.json" >/dev/null
cmp "$out/o1.json" "$out/o2.json"
cmp "$out/os1.json" "$out/os2.json"
./target/release/obs_report --validate "$out/os1.json"
python3 - "$out/o1.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench_oplog"] == "unidrive/v1", doc
assert set(doc) == {"bench_oplog", "config", "rows"}, sorted(doc)
rows = doc["rows"]
assert len(rows) == 2 * len(doc["config"]["writer_counts"]), rows
by = {}
for r in rows:
    assert set(r) == {"commits", "commits_per_min", "compact_forced", "compact_overdue",
                      "failed", "lock_starved", "mode", "retries", "rounds",
                      "virtual_secs", "writers"}, r
    assert r["commits"] == r["writers"] * r["rounds"] and r["failed"] == 0, r
    # The metadata plane's own counters: an uncontended oplog run must
    # never leave a compaction overdue, and starvation audits belong to
    # the lock plane.
    assert r["compact_overdue"] == 0, r
    if r["mode"] == "oplog":
        assert r["lock_starved"] == 0, r
    by[(r["mode"], r["writers"])] = r["commits_per_min"]
top = max(doc["config"]["writer_counts"])
assert by[("oplog", top)] > by[("lock", top)], (by[("oplog", top)], by[("lock", top)])
EOF

echo "==> bench_compare: identical runs are regression-free; drift is advisory"
# Same-input comparison must report zero regressions across every
# tracked metric and doc type (throughput, failure counts, latency
# percentiles, headline counters) — the tool's own no-false-positive
# gate. Comparing a quick run against the checked-in full-mode
# baseline is informational only: different rounds, expected drift.
./target/release/bench_compare "$out/o1.json" "$out/o2.json" --md "$out/cmp_oplog.md"
grep -q "0 regression" "$out/cmp_oplog.md"
./target/release/bench_compare "$out/f1.json" "$out/f1.json" >/dev/null
./target/release/bench_compare "$out/bench_kernels.json" "$out/bench_kernels.json" >/dev/null
./target/release/bench_compare BENCH_oplog.json "$out/o1.json" --md "$out/cmp_baseline.md" \
    || echo "    advisory: quick run drifts from the full-mode baseline (expected, not a gate)"

echo "==> s3 backend: real-socket sync gate + HTTP bench schema"
# The HTTP backend's acceptance bar: the two-device workload must
# converge through in-process S3 servers over real TCP, and the chaos
# phase (torn uploads + 503 bursts) must end byte-identical to the
# clean phase — asserted inside the test. Release build keeps the
# wall-clock runs snappy. s3_bench throughput varies with the machine;
# CI pins the JSON schema and the fixed row ordering.
cargo test --offline --release --test s3_sync -q
./target/release/s3_bench --quick --out "$out/s3_bench.json" >/dev/null
python3 - "$out/s3_bench.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["s3_bench"] == "unidrive/v1", doc
assert set(doc) == {"s3_bench", "mode", "rows"}, sorted(doc)
ops = [r["op"] for r in doc["rows"]]
assert ops == ["upload"] * 3 + ["download"] * 3 + ["append", "list", "upload_delete"], ops
for r in doc["rows"]:
    assert set(r) == {"op", "bytes", "iters", "mb_per_s", "mean_ns", "p50_ns", "p95_ns"}, r
    assert r["iters"] >= 3 and r["mean_ns"] > 0, r
    assert r["p50_ns"] <= r["p95_ns"], r
    if r["op"] != "list":
        assert r["mb_per_s"] > 0, r
EOF

echo "==> bench_sync: builds against the obs span API, tests pass, traced run drops no span, bulk run fails no round"
# bench_sync is a package of its own (not a workspace member), so the
# workspace steps above never compile it. A short traced run must keep
# every span: its per-layer table is computed from the span ring.
# `edit` fetches only 1-2 segments a round; the untraced `bulk` run
# fetches many segments per batch, so segment decodes overlap block
# transfers, and every round's byte-for-byte check must pass.
cargo build --offline --release --manifest-path bench_sync/Cargo.toml
cargo test --offline --manifest-path bench_sync/Cargo.toml -q
./bench_sync/target/release/bench_sync --workload edit --seed 1 --seconds 4 --trace 1 > "$out/bench_sync.txt"
grep -Eq '^# trace\.dropped_spans +0\.0000 ' "$out/bench_sync.txt"
./bench_sync/target/release/bench_sync --workload bulk --seed 1 --seconds 4 --trace 0 > "$out/bench_sync_bulk.txt"
grep -q '^{"correct": true, "attempted": [1-9][0-9]*, "failed": 0, ' "$out/bench_sync_bulk.txt"

echo "CI OK"
