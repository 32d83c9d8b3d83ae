#!/usr/bin/env bash
# Repository CI gate: build, test, lint, format. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc (deny warnings)"
# First-party rustdoc, broken intra-doc links included. The vendored
# proptest stand-in is excluded: its docs are not ours to keep.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --quiet

echo "==> corruption fuzz smoke test"
# 2000 seeds x 3 base apps = 6000 mutated bundles through the whole
# pipeline; exits non-zero on any panic or silently accepted corruption.
./target/release/fuzz_smoke 2000

echo "==> hot-path throughput smoke test"
# One measuring pass over the 285-app corpus; exits non-zero on any
# panic. Regression verdicts live in the bench_gate step below.
./target/release/hotpath_bench --smoke

echo "==> bench regression gate"
# One declarative check of the recorded BENCH_pipeline.json against the
# committed BENCH_baseline.json tolerances (replaces the old per-bench
# --smoke floors). --smoke tolerates sections a partial bench run did
# not regenerate; out-of-tolerance values still fail.
./target/release/bench_gate --smoke

echo "==> observability smoke test"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/genapp gpslogger "$smoke_dir/app.apk"
./target/release/nchecker --json --metrics "$smoke_dir/app.apk" > "$smoke_dir/report.json"
python3 - "$smoke_dir/report.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
metrics = doc["metrics"]
assert metrics["schema"] == 1, "metrics schema version changed"
assert "summary_cache" in metrics, "metrics lacks summary_cache"
assert metrics["counters"], "metrics lacks recorded counters"
# The default (cached) path runs the same pipeline as --no-cache, so the
# verify and lift stages record their counters here too.
for name in ("verify.errors", "lift.stmts"):
    assert name in metrics["counters"], f"metrics lacks the {name} counter"
assert doc["defects"], "smoke app produced no defects"
for defect in doc["defects"]:
    assert defect["provenance"], f"defect {defect['kind']} lacks provenance"
    assert defect["provenance"][0]["kind"] == "request"
print(f"smoke ok: {len(doc['defects'])} defects, "
      f"{len(metrics['counters'])} counters, provenance present")
EOF

echo "==> telemetry export smoke test"
# Chrome trace + JSONL sinks and the --doctor snapshot, validated for
# shape and the properties the exporters promise: per-lane monotonic
# trace timestamps, typed JSONL records, and byte-identical doctor
# output across --jobs on an unchanged cache directory.
tele_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir"' EXIT
for i in $(seq 0 3); do
    ./target/release/genapp "suite:$i" "$tele_dir/app$i.apk"
done
./target/release/nchecker --quiet --summary --cache-dir "$tele_dir/cache" \
    --trace-out "$tele_dir/trace.json" --log-json "$tele_dir/log.jsonl" \
    "$tele_dir"/app*.apk > /dev/null
python3 - "$tele_dir/trace.json" "$tele_dir/log.jsonl" <<'EOF'
import json, sys
from collections import defaultdict

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
meta = [e for e in events if e["ph"] == "M"]
assert spans, "trace has no duration events"
assert any(m["name"] == "process_name" for m in meta), "missing process_name"
assert any(m["name"] == "thread_name" for m in meta), "missing worker lanes"
for e in spans:
    assert e["dur"] >= 0 and e["ts"] >= 0, f"negative time in {e}"
lanes = defaultdict(list)
for e in spans:
    lanes[e["tid"]].append(e["ts"])
for tid, ts in lanes.items():
    assert ts == sorted(ts), f"lane {tid} timestamps not monotonic"

types = set()
with open(sys.argv[2]) as f:
    for line in f:
        rec = json.loads(line)
        types.add(rec["t"])
assert {"app", "cache", "funnel", "run"} <= types, f"missing record types: {types}"
print(f"telemetry ok: {len(spans)} spans over {len(lanes)} lanes, "
      f"record types {sorted(types)}")
EOF
# Doctor determinism: same snapshot bytes regardless of parallelism,
# run twice against the cache directory the run above warmed.
./target/release/nchecker --quiet --doctor --jobs 1 --cache-dir "$tele_dir/cache" \
    "$tele_dir"/app*.apk > "$tele_dir/doctor1.json"
./target/release/nchecker --quiet --doctor --jobs 8 --cache-dir "$tele_dir/cache" \
    "$tele_dir"/app*.apk > "$tele_dir/doctor8.json"
cmp "$tele_dir/doctor1.json" "$tele_dir/doctor8.json" \
    || { echo "doctor snapshot differs across --jobs"; exit 1; }
python3 - "$tele_dir/doctor1.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema", "build", "config", "cache", "funnel", "last_run"):
    assert key in doc, f"doctor snapshot missing {key}"
assert doc["schema"] == 2
assert doc["cache"]["disk"]["configured"] is True
assert doc["cache"]["hit"] + doc["cache"]["miss"] >= 4, "no cache traffic recorded"
print(f"doctor ok: {doc['cache']['disk']['entries']} cache entries, "
      f"{doc['last_run']['apps']} apps, byte-identical across --jobs")
EOF

echo "==> daemon smoke test"
# The persistent daemon (`nchecker serve`) over --stdio: submit a suite
# app, poll status, fetch the report and require it byte-identical to
# the one-shot --json output, fetch the doctor snapshot (canonical
# document + queue section), exercise a typed protocol error, and shut
# down cleanly with exit 0.
daemon_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir" "$daemon_dir"' EXIT
./target/release/genapp "suite:0" "$daemon_dir/app.apk"
./target/release/nchecker --json --no-cache "$daemon_dir/app.apk" \
    > "$daemon_dir/oneshot.json"
python3 - "$daemon_dir" <<'EOF'
import json, os, subprocess, sys, time

d = sys.argv[1]
proc = subprocess.Popen(
    ["./target/release/nchecker", "serve", "--stdio", "--quiet"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

def rpc(req):
    proc.stdin.write(json.dumps(req) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())

r = rpc({"verb": "submit", "path": os.path.join(d, "app.apk")})
assert r["ok"], r
job = r["id"]
state = None
for _ in range(500):
    s = rpc({"verb": "status", "id": job})
    state = s["state"]
    if state in ("done", "failed"):
        break
    time.sleep(0.01)
assert state == "done", f"job never finished: {state}"
rep = rpc({"verb": "report", "id": job})
with open(os.path.join(d, "oneshot.json")) as f:
    oneshot = f.read()
assert rep["report"] == oneshot, "daemon report differs from one-shot --json"
doc = rpc({"verb": "doctor"})
snap = json.loads(doc["doctor"])
for key in ("schema", "build", "config", "cache", "funnel", "queue"):
    assert key in snap, f"daemon doctor missing {key}"
assert snap["queue"]["completed"] == 1, snap["queue"]
bad = rpc({"verb": "frobnicate"})
assert not bad["ok"] and bad["error"]["code"] == "unknown-verb", bad
sd = rpc({"verb": "shutdown"})
assert sd["ok"], sd
proc.stdin.close()
assert proc.wait(timeout=120) == 0, "daemon must exit 0 after clean shutdown"
print("daemon ok: report byte-identical over the wire, "
      "doctor + queue served, typed errors, clean shutdown")
EOF

echo "==> cache determinism tests"
# Cold/warm differential suite: whole-report hits, prefix replay after
# app updates, disk-tier restarts, no-cache mode, degraded bypass — all
# byte-identical to cold.
cargo test --package nck-svc --test determinism --quiet

echo "==> incremental re-analysis smoke test"
# Small corpus of updated bundles through the analysis service. The
# binary itself exits non-zero if any warm or hot report differs from
# cold; on top of that, require real cache traffic (hits and replay).
incr_out="$(./target/release/incremental_bench --apps 16 --bulk 8 --reps 1 --no-write)"
echo "$incr_out"
echo "$incr_out" | grep -q "byte-identical to cold" \
    || { echo "incremental smoke: missing report-identity line"; exit 1; }
echo "$incr_out" | grep -q "100% whole-report hits" \
    || { echo "incremental smoke: hot pass was not all cache hits"; exit 1; }
echo "$incr_out" | grep -Eq "warm:.* [1-9][0-9]*% classes replayed" \
    || { echo "incremental smoke: warm pass reported no class reuse"; exit 1; }

echo "==> store-scale vetting smoke test"
# A small sharded corpus through the multi-process orchestrator: vet
# output must be byte-identical to the single-process --json run; a
# version-churn rerun over the same cache must emit well-formed report
# deltas; and an explicit GC pass must respect a tight byte budget.
vet_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir" "$daemon_dir" "$vet_dir"' EXIT
./target/release/genapp corpus --seed 7 --count 40 --shards 8 "$vet_dir/corpus"
./target/release/nchecker --json --no-cache \
    $(find "$vet_dir/corpus" -name '*.apk' | sort) > "$vet_dir/oneshot.json"
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --quiet > "$vet_dir/vet.json"
cmp "$vet_dir/oneshot.json" "$vet_dir/vet.json" \
    || { echo "vet smoke: multi-process output differs from one-shot"; exit 1; }
echo "vet smoke ok: 40 apps byte-identical across 2 worker processes"
# Served bytes are checksummed bytes: flip one byte in one entry's JSON
# section (the bytes a disk hit replies with). The re-run must
# quarantine that entry and recompute it, never serve it.
python3 - "$vet_dir/cache" <<'EOF'
import os, sys

d = sys.argv[1]
path = os.path.join(d, sorted(f for f in os.listdir(d) if f.endswith(".json"))[0])
data = bytearray(open(path, "rb").read())
data[data.index(b"\n") + 40] ^= 1
open(path, "wb").write(data)
EOF
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --quiet > "$vet_dir/vet-damaged.json"
cmp "$vet_dir/oneshot.json" "$vet_dir/vet-damaged.json" \
    || { echo "vet smoke: a damaged cache entry was served"; exit 1; }
compgen -G "$vet_dir/cache/*.quarantine" > /dev/null \
    || { echo "vet smoke: the damaged entry was not quarantined"; exit 1; }
echo "vet corruption ok: damaged entry quarantined and recomputed"
./target/release/genapp corpus --seed 7 --count 40 --shards 8 --version 1 \
    "$vet_dir/corpus"
# Keep the summary on stderr this time: the clean path must spawn the
# worker fleet exactly once (one process per shard, zero respawns).
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --delta-out "$vet_dir/deltas.jsonl" \
    --summary 2> "$vet_dir/vet-churn.log"
grep -q "0 restart(s), 2 spawned, 0 reused" "$vet_dir/vet-churn.log" \
    || { echo "vet smoke: worker fleet was not spawned exactly once"; \
         cat "$vet_dir/vet-churn.log"; exit 1; }
echo "vet fleet ok: 2 workers spawned once, 0 respawns on the clean path"
python3 - "$vet_dir/deltas.jsonl" <<'EOF'
import json, sys

deltas = [json.loads(line) for line in open(sys.argv[1])]
assert deltas, "version churn produced no deltas"
for d in deltas:
    assert d["t"] == "delta", d
    for key in ("key", "prev_fp", "new_fp", "added", "fixed", "unchanged"):
        assert key in d, f"delta missing {key}: {d}"
    assert len(d["prev_fp"]) == 16 and len(d["new_fp"]) == 16, d
    assert isinstance(d["added"], list) and isinstance(d["fixed"], list), d
changed = sum(1 for d in deltas if d["added"] or d["fixed"])
print(f"delta smoke ok: {len(deltas)} deltas, {changed} with defect churn")
EOF
./target/release/nchecker cache-gc --cache-dir "$vet_dir/cache" --cache-budget 64K \
    | grep -q "evicted" || { echo "cache-gc smoke: no stats line"; exit 1; }
./target/release/store_scale_bench --smoke --apps 1000 --waves 2

echo "==> nckbench smoke test"
# The benchmark package, built through its own manifest beside the
# release nchecker it drives: all four workloads at toy sizes with every
# byte-identity check on. A program change that breaks what the
# benchmark verifies exits non-zero here.
cargo build --release --offline --manifest-path nckbench/Cargo.toml --target-dir target
bench_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir" "$daemon_dir" "$vet_dir" "$bench_dir"' EXIT
./target/release/nckbench --smoke --out "$bench_dir"

echo "CI green."
