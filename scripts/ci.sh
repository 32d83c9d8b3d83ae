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
# Summaries on demand: a corpus app's checkers ask for no dataflow fact,
# so the summary engine never runs; a helper-mix app's do.
./target/release/genapp corpus:2016:20 "$smoke_dir/corpus.apk"
./target/release/genapp helpermix:2016:22 "$smoke_dir/helpermix.apk"
for app in corpus helpermix; do
    ./target/release/nchecker --json --metrics "$smoke_dir/$app.apk" > "$smoke_dir/$app.json"
done
python3 - "$smoke_dir/corpus.json" "$smoke_dir/helpermix.json" <<'EOF'
import json, sys

corpus, mix = (json.load(open(p))["metrics"] for p in sys.argv[1:])
for metrics in (corpus, mix):
    assert "summary_cache" in metrics, "metrics lacks summary_cache"
assert corpus["counters"].get("summary.method_passes", 0) == 0, "corpus app solved summaries"
assert mix["counters"].get("summary.method_passes", 0) > 0, "helper-mix app solved nothing"
# The class-hierarchy index reports the CHA work it does.
for name in ("context.cha_keys", "context.cha_candidates"):
    assert name in corpus["counters"], f"corpus app lacks the {name} counter"
print(f"on-demand ok: corpus app solved nothing, helper-mix app "
      f"{mix['counters']['summary.method_passes']} method passes")
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
assert doc["schema"] == 4
assert "replay_apps" not in doc["cache"] and "replay_classes" not in doc["cache"]
assert "shards" not in doc["cache"]["mem"] and "shards" not in doc["cache"]["disk"]
assert doc["cache"]["disk"]["configured"] is True
assert doc["cache"]["hit"] + doc["cache"]["miss"] >= 4, "no cache traffic recorded"
print(f"doctor ok: {doc['cache']['disk']['entries']} cache entries, "
      f"{doc['last_run']['apps']} apps, byte-identical across --jobs")
EOF

echo "==> daemon smoke test"
# The persistent daemon (`nchecker serve`) over --stdio: submit a suite
# app, poll status, fetch the report and require it byte-identical to
# the one-shot --json output, fetch the doctor snapshot (canonical
# document + queue section), exercise a typed protocol error, resubmit
# an edited bundle under the same path (its report must `cmp` equal to
# one-shot --json of the edit, with a non-null delta), and shut down
# cleanly with exit 0.
daemon_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir" "$daemon_dir"' EXIT
./target/release/genapp "suite:0" "$daemon_dir/app.apk"
./target/release/nchecker --json --no-cache "$daemon_dir/app.apk" \
    > "$daemon_dir/oneshot.json"
for v in 0 1; do
    ./target/release/genapp corpus --seed 7 --count 1 --shards 1 --clean-frac 0 \
        --version "$v" "$daemon_dir/v$v" > /dev/null
done
./target/release/nchecker --json --no-cache "$daemon_dir"/v1/shard-00/*.apk \
    > "$daemon_dir/edit-oneshot.json"
python3 - "$daemon_dir" <<'EOF'
import glob, json, os, shutil, subprocess, sys, time

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
assert snap["schema"] == 4, snap["schema"]
assert "shards" not in snap["cache"]["mem"] and "shards" not in snap["cache"]["disk"]
assert snap["queue"]["completed"] == 1, snap["queue"]
bad = rpc({"verb": "frobnicate"})
assert not bad["ok"] and bad["error"]["code"] == "unknown-verb", bad
# The edit loop: version 0, then version 1 under the same path.
edit = os.path.join(d, "edit.apk")
replies = []
for v in (0, 1):
    shutil.copy(glob.glob(os.path.join(d, f"v{v}", "shard-00", "*.apk"))[0], edit)
    r = rpc({"verb": "submit", "path": edit})
    assert r["ok"], r
    replies.append(rpc({"verb": "report", "id": r["id"], "wait": True}))
assert replies[0]["delta"] is None, replies[0]["delta"]
assert replies[1]["delta"] is not None, "an edit under a known key has a delta"
with open(os.path.join(d, "edit-served.json"), "w") as f:
    f.write(replies[1]["report"])
sd = rpc({"verb": "shutdown"})
assert sd["ok"], sd
proc.stdin.close()
assert proc.wait(timeout=120) == 0, "daemon must exit 0 after clean shutdown"
print("daemon ok: report byte-identical over the wire, "
      "doctor + queue served, typed errors, edit delta, clean shutdown")
EOF
cmp "$daemon_dir/edit-served.json" "$daemon_dir/edit-oneshot.json" \
    || { echo "daemon smoke: edited report differs from one-shot --json"; exit 1; }

echo "==> store-scale vetting smoke test"
# A small sharded corpus through `nchecker vet`: its output must be
# byte-identical to the one-shot --json run, cold and with a damaged
# cache entry, and so must the reports of a burst through `serve`; a version-churn rerun over the same cache must print
# the one-shot reports and --delta-out bytes of a one-shot run over a
# copy of that cache, and emit well-formed report deltas; and an
# explicit GC pass must respect a tight byte budget.
vet_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir" "$daemon_dir" "$vet_dir"' EXIT
./target/release/genapp corpus --seed 7 --count 40 --shards 8 "$vet_dir/corpus"
./target/release/nchecker --json --no-cache \
    $(find "$vet_dir/corpus" -name '*.apk' | sort) > "$vet_dir/oneshot.json"
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --quiet > "$vet_dir/vet.json"
cmp "$vet_dir/oneshot.json" "$vet_dir/vet.json" \
    || { echo "vet smoke: vet output differs from one-shot"; exit 1; }
echo "vet smoke ok: 40 apps byte-identical to one-shot"
# The same tree in one burst through `serve --jobs 2`: every submit
# first, then each report fetched in order with "wait"; the concatenated
# reports must be the one-shot bytes.
python3 - "$vet_dir" $(find "$vet_dir/corpus" -name '*.apk' | sort) <<'EOF'
import json, os, subprocess, sys

d, apps = sys.argv[1], sys.argv[2:]
proc = subprocess.Popen(
    ["./target/release/nchecker", "serve", "--stdio", "--quiet", "--jobs", "2", "--no-cache"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
proc.stdin.write("".join(json.dumps({"verb": "submit", "path": a}) + "\n" for a in apps))
proc.stdin.flush()
ids = []
for _ in apps:
    r = json.loads(proc.stdout.readline())
    assert r["ok"], r
    ids.append(r["id"])
with open(os.path.join(d, "burst.json"), "w") as out:
    for i in ids:
        proc.stdin.write(json.dumps({"verb": "report", "id": i, "wait": True}) + "\n")
        proc.stdin.flush()
        r = json.loads(proc.stdout.readline())
        assert r["ok"], r
        out.write(r["report"])
proc.stdin.close()
assert proc.wait(timeout=120) == 0, "daemon must exit 0 at EOF"
EOF
cmp "$vet_dir/oneshot.json" "$vet_dir/burst.json" \
    || { echo "serve burst: reports differ from one-shot"; exit 1; }
echo "serve burst ok: 40 apps through serve --jobs 2 byte-identical to one-shot"
# CFGs are built on demand: across the tree some are built, and fewer
# than there are method bodies.
./target/release/nchecker --json --metrics --no-cache \
    $(find "$vet_dir/corpus" -name '*.apk' | sort) > "$vet_dir/metrics.json"
python3 - "$vet_dir/metrics.json" <<'EOF'
import json, sys

# One pretty-printed report per app, back to back.
text, pos, docs = open(sys.argv[1]).read(), 0, []
while pos < len(text):
    if text[pos].isspace():
        pos += 1
        continue
    doc, pos = json.JSONDecoder().raw_decode(text, pos)
    docs.append(doc)
assert len(docs) == 40, len(docs)
total = lambda name: sum(d["metrics"]["counters"].get(name, 0) for d in docs)
built, bodies = total("context.cfgs_built"), total("context.methods_analyzed")
assert 0 < built < bodies, f"{built} CFGs built for {bodies} bodies"
print(f"lazy CFG ok: {built} CFGs built for {bodies} method bodies")
# CHA reads each virtual key's subtype list from the class-hierarchy
# index: fewer candidates than a scan of every class per key.
counter = lambda d, name: d["metrics"]["counters"].get(name, 0)
candidates = total("context.cha_candidates")
scan = sum(counter(d, "context.cha_keys") * counter(d, "parse.classes") for d in docs)
assert 0 < candidates < scan, f"CHA examined {candidates} classes, a full scan {scan}"
print(f"CHA index ok: {candidates} candidate classes where a scan examines {scan}")
EOF
# Served bytes are checksummed bytes: flip one byte in one record's JSON
# section (the bytes a disk hit replies with). The re-run must drop that
# record and recompute it, never serve it; a third run must then hit all
# 40 apps: the recomputed record was kept and the damaged one is not read
# again.
python3 - "$vet_dir/cache" <<'EOF'
import os, sys

d = sys.argv[1]
path = os.path.join(d, sorted(f for f in os.listdir(d) if f.endswith(".seg"))[0])
data = bytearray(open(path, "rb").read())
data[data.index(b"\n") + 40] ^= 1
open(path, "wb").write(data)
EOF
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --quiet > "$vet_dir/vet-damaged.json"
cmp "$vet_dir/oneshot.json" "$vet_dir/vet-damaged.json" \
    || { echo "vet smoke: a damaged cache record was served"; exit 1; }
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" > "$vet_dir/vet-rehit.json" 2> "$vet_dir/vet-rehit.log"
cmp "$vet_dir/oneshot.json" "$vet_dir/vet-rehit.json" \
    || { echo "vet smoke: the run after the damage differs from one-shot"; exit 1; }
grep -q " 40 cache hit(s)" "$vet_dir/vet-rehit.log" \
    || { echo "vet smoke: the recomputed record was not served"; cat "$vet_dir/vet-rehit.log"; exit 1; }
echo "vet corruption ok: damaged record dropped, recomputed, then served"
./target/release/genapp corpus --seed 7 --count 40 --shards 8 --version 1 \
    "$vet_dir/corpus"
cp -r "$vet_dir/cache" "$vet_dir/cache-oneshot"
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --delta-out "$vet_dir/deltas.jsonl" \
    --quiet > "$vet_dir/vet-churn.json"
./target/release/nchecker --json --quiet --cache-dir "$vet_dir/cache-oneshot" \
    --delta-out "$vet_dir/oneshot-deltas.jsonl" \
    $(find "$vet_dir/corpus" -name '*.apk' | sort) \
    > "$vet_dir/oneshot-churn.json" 2> /dev/null
cmp "$vet_dir/oneshot-churn.json" "$vet_dir/vet-churn.json" \
    || { echo "vet smoke: churned vet output differs from one-shot"; exit 1; }
cmp "$vet_dir/oneshot-deltas.jsonl" "$vet_dir/deltas.jsonl" \
    || { echo "vet smoke: vet --delta-out differs from one-shot"; exit 1; }
echo "vet churn ok: reports and deltas byte-identical to one-shot"
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
    | grep -q "kept .*, dropped .*, freed" || { echo "cache-gc smoke: no stats line"; exit 1; }
# A one-batch front end keeps no memory tier: re-checking the corpus over
# the compacted cache recomputes the records GC dropped, appends them to
# disk, and leaves nothing resident.
./target/release/nchecker --quiet --doctor --cache-dir "$vet_dir/cache" \
    $(find "$vet_dir/corpus" -name '*.apk' | sort) > "$vet_dir/doctor.json"
python3 - "$vet_dir/doctor.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == 4, doc["schema"]
cache = doc["cache"]
assert "shards" not in cache["mem"] and "shards" not in cache["disk"], cache
assert cache["miss"] > 0, f"no miss after GC, nothing to check: {cache}"
assert cache["mem"]["entries"] == 0, f"a batch kept memory entries: {cache['mem']}"
assert cache["mem"]["bytes"] == 0, f"a batch kept memory bytes: {cache['mem']}"
print(f"batch memory ok: {cache['miss']} misses recomputed, 0 memory entries")
EOF

echo "==> batch memory gate"
# A batch reads each bundle when a worker claims it and holds at most a
# reorder window of results, so its peak RSS must not grow with the
# batch: `vet` over 1,600 apps may peak at most 10% above `vet` over 200
# (it grew about 4x while every bundle was read up front). `ru_maxrss`
# of a child Python starts includes Python's own RSS at exec (vfork),
# about 13 MiB, so the gate sees growth past that floor: a batch that
# keeps kilobytes per app, not the path list and disk index.
mem_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir" "$daemon_dir" "$vet_dir" "$mem_dir"' EXIT
for n in 200 1600; do
    ./target/release/genapp corpus --seed 7 --count "$n" --shards 16 \
        "$mem_dir/tree-$n" > /dev/null
done
python3 - "$mem_dir" <<'EOF'
import os, subprocess, sys

root = sys.argv[1]
peak = {}
for n in (200, 1600):
    with open(os.devnull, "wb") as out:
        child = subprocess.Popen(
            ["./target/release/nchecker", "vet", "--workers", "2", "--jobs", "1",
             "--cache-dir", f"{root}/cache-{n}", "--corpus-dir", f"{root}/tree-{n}",
             "--quiet"],
            stdout=out,
        )
        _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, f"vet over {n} apps failed"
    peak[n] = usage.ru_maxrss  # KiB on Linux
ratio = peak[1600] / peak[200]
assert ratio <= 1.10, f"batch peak RSS grows with the batch: {peak} KiB ({ratio:.2f}x)"
print(f"batch memory ok: peak RSS {peak[200] // 1024} MiB at 200 apps, "
      f"{peak[1600] // 1024} MiB at 1,600 ({ratio:.2f}x)")
EOF

echo "==> nckbench smoke test"
# The benchmark package, built through its own manifest beside the
# release nchecker it drives: all four workloads at toy sizes with every
# byte-identity check on. A program change that breaks what the
# benchmark verifies exits non-zero here. It gives no performance
# verdict: that is nckbench's full-size run (nckbench/run.sh) under the
# bounds in BENCHMARK.json. Exact work counters and the churn invariant
# are tier-1 tests (tests/corpus.rs, crates/svc/tests/delta.rs).
cargo build --release --offline --manifest-path nckbench/Cargo.toml --target-dir target
bench_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$tele_dir" "$daemon_dir" "$vet_dir" "$mem_dir" "$bench_dir"' EXIT
./target/release/nckbench --smoke --out "$bench_dir"

echo "CI green."
