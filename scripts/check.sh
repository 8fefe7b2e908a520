#!/usr/bin/env bash
# The repo's static-quality gate: formatting, lints (warnings denied), and
# the full test suite. CI and the bench scripts call this before anything
# expensive; run it locally before pushing.
#
# Usage: scripts/check.sh
set -u
cd "$(dirname "$0")/.."

echo "== rustfmt (check) =="
cargo fmt --all -- --check || exit 1

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings || exit 1

echo "== tests =="
cargo test -q || exit 1

echo "== bench_e2e tests =="
# bench_e2e is a workspace of its own, so the tests above never compile
# it; this catches public-API changes that break the benchmark.
cargo test -q --manifest-path bench_e2e/Cargo.toml || exit 1

echo "== xlint (workspace policy lint) =="
# Source-level policy rules (raw-sync, safety-comment, no-unwrap,
# timestamp-in-key); nonzero exit on any finding.
cargo run -q -p warpstl-cli -- xlint || exit 1

echo "== model checker (schedule exploration) =="
# The cfg(warpstl_model) build routes every warpstl-sync primitive through
# the schedule-exploring checker; these suites prove the serve-queue and
# store-commit invariants over all interleavings (own target dir so the
# RUSTFLAGS change does not invalidate the normal build's cache).
RUSTFLAGS="--cfg warpstl_model" CARGO_TARGET_DIR=target/model-cfg \
    cargo test -q -p warpstl-sync -p warpstl-serve -p warpstl-store \
    --test model || exit 1

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q || exit 1

echo "== trace-out smoke test =="
# End-to-end observability check: compact a small PTP with --trace-out and
# validate that the emitted file is real JSON with one complete span per
# pipeline stage (plus the fault-engine worker spans).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run -q --release -p warpstl-cli -- generate IMM --sb-count 4 \
    --out "$SMOKE_DIR/imm.ptp" || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --trace-out "$SMOKE_DIR/trace.json" >/dev/null || exit 1
python3 - "$SMOKE_DIR/trace.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
complete = [e["name"] for e in events if e.get("ph") == "X"]
stages = ["stage.trace", "stage.fsim", "stage.label", "stage.reduce",
          "stage.verify", "stage.eval"]
for stage in stages:
    n = complete.count(stage)
    assert n == 1, f"expected exactly one {stage} span, found {n}"
assert complete.count("fsim.worker") >= 1, "missing fsim.worker spans"
assert "warpstlMetrics" in trace, "missing embedded metrics"
# The Decoder Unit has one instance: no lock-step union pass.
unions = trace["warpstlMetrics"]["counters"].get("fsim.union.runs", 0)
assert unions == 0, f"a one-instance module ran {unions} union pass(es)"
print(f"trace OK: {len(events)} events, all {len(stages)} stage spans present")
EOF

echo "== patterns smoke test =="
# `warpstl patterns` is the one command that captures every module in one
# run (compaction captures only its target): the IMM program must still
# yield the Decoder Unit stream and the SP-core streams its ALU
# instructions drive.
cargo run -q --release -p warpstl-cli -- patterns "$SMOKE_DIR/imm.ptp" \
    --out-dir "$SMOKE_DIR/vcde" >/dev/null || exit 1
[ -s "$SMOKE_DIR/vcde/decoder_unit.vcde" ] || {
    echo "patterns wrote no decoder_unit.vcde" >&2
    exit 1
}
ls "$SMOKE_DIR"/vcde/sp_core*.vcde >/dev/null 2>&1 || {
    echo "patterns wrote no sp_core*.vcde" >&2
    exit 1
}
echo "patterns OK: decoder_unit and sp_core VCDE files written"

echo "== netlist analyzer smoke test =="
# The analyze command must produce valid JSON for a healthy bundled module
# and exit nonzero on the seeded combinational-loop fixture.
cargo run -q --release -p warpstl-cli -- analyze decoder_unit --json \
    > "$SMOKE_DIR/analyze.json" || exit 1
python3 - "$SMOKE_DIR/analyze.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["errors"] == 0, f"decoder_unit should lint clean: {report}"
print(f"analyze OK: {report['netlist']}, {report['gates']} gates, 0 errors")
EOF
if cargo run -q --release -p warpstl-cli -- analyze comb-loop >/dev/null 2>&1; then
    echo "analyze comb-loop should have exited nonzero" >&2
    exit 1
fi
echo "analyze comb-loop: nonzero exit as expected"

echo "== artifact-cache smoke test =="
# Cold run populates the cache, warm run must hit it (the cache summary
# line reports >= 1 hit) and reproduce the report JSON byte-for-byte; the
# cache subcommands must agree the entries are intact.
CACHE_DIR="$SMOKE_DIR/cache"
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --cache-dir "$CACHE_DIR" --json "$SMOKE_DIR/r1.json" \
    > "$SMOKE_DIR/cold.out" || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --cache-dir "$CACHE_DIR" --json "$SMOKE_DIR/r2.json" \
    > "$SMOKE_DIR/warm.out" || exit 1
cmp "$SMOKE_DIR/r1.json" "$SMOKE_DIR/r2.json" || {
    echo "cold and warm report JSON differ" >&2
    exit 1
}
grep -Eq '^cache +[1-9][0-9]* hit' "$SMOKE_DIR/warm.out" || {
    echo "warm run reported no cache hits:" >&2
    cat "$SMOKE_DIR/warm.out" >&2
    exit 1
}
cargo run -q --release -p warpstl-cli -- cache stats --cache-dir "$CACHE_DIR" || exit 1
cargo run -q --release -p warpstl-cli -- cache verify --cache-dir "$CACHE_DIR" || exit 1
echo "cache OK: warm rerun hit the cache with byte-identical report JSON"

echo "== implication-engine smoke test =="
# The redundant-logic fixture must yield a nonzero count of statically
# proven-untestable fault sites in the analyze JSON (and warn, not fail:
# exit code stays zero).
cargo run -q --release -p warpstl-cli -- analyze redundant-logic \
    --implications --json > "$SMOKE_DIR/redundant.json" || exit 1
python3 - "$SMOKE_DIR/redundant.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["errors"] == 0, f"redundant-logic should warn, not fail: {report}"
assert report["untestable"] > 0, f"no untestable proofs: {report}"
assert report["implication_edges"] > 0, f"no implication edges: {report}"
print(f"implications OK: {report['untestable']} proven untestable, "
      f"{report['implication_edges']} edges, {report['equiv_merges']} merges")
EOF

echo "== cache version-miss smoke test =="
# Patch the format-version byte of every cached entry (.fsr fault-sim
# stamps, the one entry kind): the next run must degrade every read to a
# version miss (visible as the cache.miss.version counter in the embedded
# trace metrics) and still complete.
python3 - "$CACHE_DIR" <<'EOF' || exit 1
import pathlib, sys

patched = 0
for p in pathlib.Path(sys.argv[1]).iterdir():
    if p.suffix == ".fsr":
        b = bytearray(p.read_bytes())
        b[8] ^= 0xFF  # format version u32 LE at offset 8
        p.write_bytes(bytes(b))
        patched += 1
assert patched > 0, "no cache entries to patch"
print(f"patched format version of {patched} entries")
EOF
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --cache-dir "$CACHE_DIR" --trace-out "$SMOKE_DIR/vm-trace.json" \
    >/dev/null || exit 1
python3 - "$SMOKE_DIR/vm-trace.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
counters = trace["warpstlMetrics"]["counters"]
n = counters.get("cache.miss.version", 0)
assert n >= 1, f"expected version misses, counters: {counters}"
print(f"version-miss OK: {n} version miss(es) counted")
EOF

echo "== sim-backend smoke test =="
# Fault simulation has one path, but every --sim-backend name stays
# accepted for compatibility: each must complete and produce the same
# report JSON (no cache, so every run actually simulates).
for backend in event kernel kernel64; do
    cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
        --no-cache --sim-backend "$backend" \
        --json "$SMOKE_DIR/be-$backend.json" >/dev/null || exit 1
done
for backend in event kernel64; do
    cmp "$SMOKE_DIR/be-$backend.json" "$SMOKE_DIR/be-kernel.json" || {
        echo "--sim-backend $backend changed the report JSON" >&2
        exit 1
    }
done
echo "backend OK: every --sim-backend name accepted, reports byte-identical"

echo "== transition-fault smoke test =="
# Transition-delay faults run on the threaded kernel: the extension
# experiment's output must not depend on the worker count.
WARPSTL_SCALE=64 WARPSTL_THREADS=1 cargo run -q --release -p warpstl-bench \
    --bin extension_tdf > "$SMOKE_DIR/tdf-t1.out" 2>/dev/null || exit 1
WARPSTL_SCALE=64 cargo run -q --release -p warpstl-bench \
    --bin extension_tdf > "$SMOKE_DIR/tdf-auto.out" 2>/dev/null || exit 1
cmp "$SMOKE_DIR/tdf-t1.out" "$SMOKE_DIR/tdf-auto.out" || {
    echo "extension_tdf output differs between WARPSTL_THREADS=1 and auto" >&2
    exit 1
}
echo "tdf OK: extension_tdf output identical at WARPSTL_THREADS=1 and auto"

echo "== reorder smoke test =="
# Small-Block reordering reads first detections per clock cycle from the
# Fault Sim Report's rows, which sum worker tallies in no fixed order: the
# extension experiment's output must not depend on the worker count.
WARPSTL_SCALE=64 WARPSTL_THREADS=1 cargo run -q --release -p warpstl-bench \
    --bin extension_reorder > "$SMOKE_DIR/reorder-t1.out" 2>/dev/null || exit 1
WARPSTL_SCALE=64 cargo run -q --release -p warpstl-bench \
    --bin extension_reorder > "$SMOKE_DIR/reorder-auto.out" 2>/dev/null || exit 1
cmp "$SMOKE_DIR/reorder-t1.out" "$SMOKE_DIR/reorder-auto.out" || {
    echo "extension_reorder output differs between WARPSTL_THREADS=1 and auto" >&2
    exit 1
}
echo "reorder OK: extension_reorder output identical at WARPSTL_THREADS=1 and auto"

echo "== bridging smoke test =="
# Bridging runs on the shared threaded engine: its report JSON must not
# depend on the worker count, and a warm --cache-dir rerun must hit the
# cache and reproduce the cold bytes.
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --fault-model bridging --no-cache --json "$SMOKE_DIR/br-auto.json" \
    >/dev/null || exit 1
WARPSTL_THREADS=1 cargo run -q --release -p warpstl-cli -- compact \
    "$SMOKE_DIR/imm.ptp" --fault-model bridging --no-cache \
    --json "$SMOKE_DIR/br-t1.json" >/dev/null || exit 1
cmp "$SMOKE_DIR/br-auto.json" "$SMOKE_DIR/br-t1.json" || {
    echo "bridging report JSON differs between WARPSTL_THREADS=1 and auto" >&2
    exit 1
}
BRIDGE_CACHE="$SMOKE_DIR/bridge-cache"
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --fault-model bridging --cache-dir "$BRIDGE_CACHE" \
    --json "$SMOKE_DIR/br-cold.json" > "$SMOKE_DIR/br-cold.out" || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --fault-model bridging --cache-dir "$BRIDGE_CACHE" \
    --json "$SMOKE_DIR/br-warm.json" > "$SMOKE_DIR/br-warm.out" || exit 1
cmp "$SMOKE_DIR/br-cold.json" "$SMOKE_DIR/br-warm.json" || {
    echo "cold and warm bridging report JSON differ" >&2
    exit 1
}
grep -Eq '^cache +[1-9][0-9]* hit' "$SMOKE_DIR/br-warm.out" || {
    echo "warm bridging run reported no cache hits:" >&2
    cat "$SMOKE_DIR/br-warm.out" >&2
    exit 1
}
echo "bridging OK: thread-count and cold/warm reports byte-identical, warm hits"

echo "== evaluation smoke test =="
# Every smoke above compacts a module's first PTP only. An STL with later
# PTPs per module (MEM after IMM, RAND after TPGEN) reaches the masked
# fc_before run over the faults already dropped, and compacted programs
# that apply no new row reach the fc_after run restricted to the
# original's detected set. Witness rows settle part of fc_after without
# simulation: the traced run's eval.witnessed counter must be nonzero.
# TPGEN, RAND and SFU_IMM run on 8, 8 and 2 lock-step instances, so their
# stage-3a fault simulations take the lock-step union pass:
# fsim.union.runs must be nonzero too. MEM after IMM runs a masked D(P)
# detection pass over the faults IMM dropped, so fsim.detect.runs must be
# nonzero as well.
# The report JSON must not depend on the worker count or on tracing, and
# a warm --cache-dir rerun must hit and reproduce the bytes. The store
# looks up, simulates and writes each distinct key once (SFU_IMM's two
# SFUs share one), so the cold run's writes equal its misses and the
# entry files it leaves, and the warm run hits exactly those entries.
for spec in "IMM --sb-count 4" "MEM --sb-count 4" "TPGEN --patterns 48" \
    "RAND --sb-count 4" "SFU_IMM --patterns 12"; do
    # $spec is unquoted on purpose: it is the generator's argument list.
    cargo run -q --release -p warpstl-cli -- generate $spec \
        --out "$SMOKE_DIR/eval-${spec%% *}.ptp" >/dev/null || exit 1
done
{
    echo "; STL eval-smoke"
    for p in IMM MEM TPGEN RAND SFU_IMM; do cat "$SMOKE_DIR/eval-$p.ptp"; done
} > "$SMOKE_DIR/eval.stl"
cargo run -q --release -p warpstl-cli -- compact-stl "$SMOKE_DIR/eval.stl" \
    --no-cache --json "$SMOKE_DIR/eval-auto.json" \
    --trace-out "$SMOKE_DIR/eval-trace.json" >/dev/null || exit 1
python3 - "$SMOKE_DIR/eval-trace.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    counters = json.load(f)["warpstlMetrics"]["counters"]
n = counters.get("eval.witnessed", 0)
assert n > 0, f"no fault settled by a witness row, counters: {counters}"
print(f"witness rows OK: {n} fault(s) settled, "
      f"{counters.get('eval.resimulated', 0)} re-simulated")
unions = counters.get("fsim.union.runs", 0)
assert unions > 0, f"no lock-step union pass, counters: {counters}"
print(f"lock-step rows OK: {unions} union pass(es), "
      f"{counters.get('fsim.union.rows', 0)} of "
      f"{counters.get('fsim.union.instance_rows', 0)} rows simulated")
detects = counters.get("fsim.detect.runs", 0)
assert detects > 0, f"no evaluation detection pass, counters: {counters}"
print(f"detection passes OK: {detects} pass(es) over "
      f"{counters.get('fsim.detect.rows', 0)} first-occurrence rows")
EOF
WARPSTL_THREADS=1 cargo run -q --release -p warpstl-cli -- compact-stl \
    "$SMOKE_DIR/eval.stl" --no-cache --json "$SMOKE_DIR/eval-t1.json" \
    >/dev/null || exit 1
cmp "$SMOKE_DIR/eval-auto.json" "$SMOKE_DIR/eval-t1.json" || {
    echo "STL report JSON differs between WARPSTL_THREADS=1 and auto" >&2
    exit 1
}
EVAL_CACHE="$SMOKE_DIR/eval-cache"
cargo run -q --release -p warpstl-cli -- compact-stl "$SMOKE_DIR/eval.stl" \
    --cache-dir "$EVAL_CACHE" --json "$SMOKE_DIR/eval-cold.json" \
    > "$SMOKE_DIR/eval-cold.out" || exit 1
cargo run -q --release -p warpstl-cli -- compact-stl "$SMOKE_DIR/eval.stl" \
    --cache-dir "$EVAL_CACHE" --json "$SMOKE_DIR/eval-warm.json" \
    > "$SMOKE_DIR/eval-warm.out" || exit 1
cmp "$SMOKE_DIR/eval-cold.json" "$SMOKE_DIR/eval-warm.json" || {
    echo "cold and warm STL report JSON differ" >&2
    exit 1
}
python3 - "$SMOKE_DIR/eval-cold.out" "$SMOKE_DIR/eval-warm.out" \
    "$EVAL_CACHE" <<'EOF' || exit 1
import os, re, sys

def traffic(path):
    with open(path) as f:
        line = next(l for l in f if l.startswith("cache "))
    m = re.match(r"cache +(\d+) hit\(s\), (\d+) miss\(es\), (\d+) write\(s\)", line)
    assert m, f"unparsable cache line: {line!r}"
    return tuple(int(g) for g in m.groups())

cold, warm = traffic(sys.argv[1]), traffic(sys.argv[2])
entries = sum(f.endswith(".fsr") for f in os.listdir(sys.argv[3]))
_, misses, writes = cold
assert entries > 0, "the cold run left no entries"
assert misses == writes == entries, \
    f"cold run: {misses} miss(es), {writes} write(s), {entries} entry file(s)"
assert warm == (entries, 0, 0), f"warm run (hits, misses, writes): {warm}"
print(f"store OK: {entries} distinct key(s) written once, hit once")
EOF
echo "evaluation OK: thread-count and cold/warm STL reports byte-identical, warm hits"

echo "== serve smoke test =="
# Start the daemon on an ephemeral port with a shared cache directory,
# probe /healthz and /metrics, then run two concurrent clients submitting
# the same module while `cache gc` runs against the same directory from
# separate processes. Both responses must be byte-identical to the solo
# CLI run's --json bytes, with no request errors, and POST /shutdown must
# drain cleanly (exit code 0).
SERVE_CACHE="$SMOKE_DIR/serve-cache"
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --no-cache --json "$SMOKE_DIR/serve-oracle.json" >/dev/null || exit 1
cargo run -q --release -p warpstl-cli -- serve --addr 127.0.0.1:0 \
    --workers 2 --cache-dir "$SERVE_CACHE" > "$SMOKE_DIR/serve.out" &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 100); do
    SERVE_URL="$(sed -n 's/^serving on //p' "$SMOKE_DIR/serve.out")"
    [ -n "$SERVE_URL" ] && break
    sleep 0.1
done
if [ -z "$SERVE_URL" ]; then
    echo "serve did not print its URL" >&2
    kill "$SERVE_PID" 2>/dev/null
    exit 1
fi
python3 - "$SERVE_URL" "$SMOKE_DIR/imm.ptp" "$SMOKE_DIR/serve-oracle.json" <<'EOF' &
import json, sys, threading, urllib.request

url, ptp_path, oracle_path = sys.argv[1:4]
with open(ptp_path) as f:
    ptp = f.read()
with open(oracle_path, "rb") as f:
    oracle = f.read()

health = json.load(urllib.request.urlopen(url + "/healthz", timeout=30))
assert health["status"] == "ok", health

body = json.dumps({"ptp": ptp}).encode()
results = [None, None]
def client(i):
    req = urllib.request.Request(url + "/compact?format=report",
                                 data=body, method="POST")
    # urlopen raises on any non-2xx status, so an unexpected 4xx/5xx
    # fails the smoke here.
    results[i] = urllib.request.urlopen(req, timeout=300).read()
threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
for i, r in enumerate(results):
    assert r == oracle, f"client {i} response differs from the CLI --json bytes"

metrics = json.load(urllib.request.urlopen(url + "/metrics", timeout=30))
assert metrics["jobs"]["completed"] >= 2, metrics
assert metrics["jobs"]["failed"] == 0, metrics
assert metrics["jobs"]["rejected"] == 0, metrics
assert metrics["queue"]["workers"] == 2, metrics
assert metrics["cache"]["corrupt"] == 0, metrics
print(f"serve clients OK: 2 byte-identical responses, "
      f"{metrics['jobs']['completed']} job(s) completed")
EOF
CLIENTS_PID=$!
# Concurrent maintenance from separate processes against the same cache
# dir: must never disturb the in-flight jobs (the store's gc lock + temp
# age threshold are what this exercises).
for _ in 1 2 3; do
    cargo run -q --release -p warpstl-cli -- cache gc \
        --cache-dir "$SERVE_CACHE" >/dev/null || exit 1
done
wait "$CLIENTS_PID" || { echo "serve clients failed" >&2; exit 1; }
python3 - "$SERVE_URL" <<'EOF' || exit 1
import sys, urllib.request

req = urllib.request.Request(sys.argv[1] + "/shutdown", data=b"", method="POST")
reply = urllib.request.urlopen(req, timeout=30).read().decode()
assert "draining" in reply, reply
EOF
wait "$SERVE_PID" || { echo "serve exited nonzero" >&2; exit 1; }
grep -q '^drained$' "$SMOKE_DIR/serve.out" || {
    echo "serve did not report a clean drain:" >&2
    cat "$SMOKE_DIR/serve.out" >&2
    exit 1
}
echo "serve OK: concurrent clients byte-identical, gc concurrent, clean drain"

echo "== campaign smoke test =="
# A small matrix (2 modules x 2 lane shapes x both fault models) through
# the campaign runner twice against one cache directory: the second run
# is warm and uses a different pool width, yet the --json report must be
# byte-identical, and the warm run's cache summary must show hits.
CAMPAIGN_CACHE="$SMOKE_DIR/campaign-cache"
cat > "$SMOKE_DIR/campaign.json" <<'EOF'
{
    "name": "smoke",
    "modules": ["decoder_unit", "sfu"],
    "lanes": [8, 16],
    "fault_models": ["stuck-at", "bridging"],
    "sb_count": 3,
    "bridge_pairs": 32
}
EOF
cargo run -q --release -p warpstl-cli -- campaign "$SMOKE_DIR/campaign.json" \
    --cache-dir "$CAMPAIGN_CACHE" --jobs 1 --json "$SMOKE_DIR/c1.json" \
    > "$SMOKE_DIR/campaign-cold.out" || exit 1
cargo run -q --release -p warpstl-cli -- campaign "$SMOKE_DIR/campaign.json" \
    --cache-dir "$CAMPAIGN_CACHE" --jobs 4 --json "$SMOKE_DIR/c2.json" \
    > "$SMOKE_DIR/campaign-warm.out" || exit 1
cmp "$SMOKE_DIR/c1.json" "$SMOKE_DIR/c2.json" || {
    echo "campaign report JSON differs between jobs=1 and warm jobs=4" >&2
    exit 1
}
grep -Eq '^cache +[1-9][0-9]* hit' "$SMOKE_DIR/campaign-warm.out" || {
    echo "warm campaign run reported no cache hits:" >&2
    cat "$SMOKE_DIR/campaign-warm.out" >&2
    exit 1
}
grep -q '8 cell(s), 8 ok' "$SMOKE_DIR/campaign-warm.out" || {
    echo "campaign did not report 8 ok cells:" >&2
    cat "$SMOKE_DIR/campaign-warm.out" >&2
    exit 1
}
echo "campaign OK: 8-cell matrix byte-identical across pool widths, warm hits"

echo "check.sh: all green"
