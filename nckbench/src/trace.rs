//! The traced run (`--trace`): one rep, wave or batch of rounds through
//! the real program (for the outside counts and the byte-identity
//! reference), then the same batch through the in-process twin four
//! times — spans off, on, on, off, so a drift in host speed cancels out
//! of the tracing-overhead estimate. The first spans-on pass is the
//! ledger. Writes `<out>/<workload>.trace.json` (Chrome trace) and
//! `<out>/<workload>.ledger.json`, and returns the per-layer metrics.

use crate::check::{self, Reference, Verdicts};
use crate::dev::{self, Client};
use crate::gen::{DevChain, StoreTree};
use crate::ledger::{chrome_trace, Ledger};
use crate::store::{self, fresh_dir, Inputs, CACHE_BUDGET_BYTES, CHURN_PCT, WORKERS};
use crate::twin::{Twin, TwinReply, TwinStats};
use crate::{Metric, Outcome, Sizes, Workload};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the program did from the outside, next to the twin's replay.
struct Outside {
    /// Wall of the batch through the real program.
    wall_s: f64,
    /// Processes that ran the batch in parallel (vet workers; 1 daemon).
    parallel: usize,
    spawns: f64,
    restarts: f64,
    /// Slowest shard's wall over the mean shard wall.
    skew: f64,
    polls_per_app: f64,
    /// Anything else worth keeping in the ledger file.
    notes: Value,
    /// The program's `(report, delta)` per request, in request order.
    replies: Vec<(String, Value)>,
}

/// What the ledger pass leaves behind once its twin is dropped.
struct Traced {
    ledger: Ledger,
    stats: TwinStats,
    open_ns: u64,
    counters: std::collections::BTreeMap<String, u64>,
    mem_bytes: usize,
    wire: Value,
    chrome: String,
    failed: usize,
}

/// Twin walls: mean of the two spans-off passes and of the two
/// spans-on passes.
struct Walls {
    off_s: f64,
    on_s: f64,
}

pub fn run(
    exe: &Path,
    workload: Workload,
    run_dir: &Path,
    out: &Path,
    seed: u64,
    sizes: &Sizes,
) -> std::io::Result<Outcome> {
    let mut verdicts = Verdicts::default();
    let (outside, traced, walls) = match workload {
        Workload::StoreCold | Workload::StoreChurn => {
            let churn = workload == Workload::StoreChurn;
            trace_store(exe, run_dir, seed, sizes, churn, &mut verdicts)?
        }
        Workload::DevCold | Workload::DevEdit => {
            let edit = workload == Workload::DevEdit;
            trace_dev(exe, run_dir, seed, sizes, edit, &mut verdicts)?
        }
    };
    let failed = traced.failed;
    verdicts.check(failed == 0, || format!("{failed} twin request(s) failed"));

    let metrics = layer_metrics(&traced, &walls, &outside);
    let doc = json!({
        "workload": workload.name(),
        "seed": seed,
        "requests": traced.stats.apps,
        "outside": {
            "wall_s": outside.wall_s,
            "parallel": outside.parallel,
            "notes": outside.notes.clone(),
        },
        "twin_wall_s": { "spans_off": walls.off_s, "spans_on": walls.on_s },
        "store_open_us": traced.open_ns as f64 / 1e3,
        "wire_breakdown": traced.wire.clone(),
        "ledger": traced.ledger.to_json(),
    });
    std::fs::write(
        out.join(format!("{}.ledger.json", workload.name())),
        serde_json::to_string_pretty(&doc).expect("ledger serializes"),
    )?;
    std::fs::write(
        out.join(format!("{}.trace.json", workload.name())),
        &traced.chrome,
    )?;
    Ok(Outcome {
        attempted: traced.stats.apps,
        failed,
        verdicts,
        metrics,
        extra: vec![
            Metric::new("twin.wall_s", "s", walls.off_s, 2),
            Metric::new("outside.wall_s", "s", outside.wall_s, 1),
        ],
        series: Default::default(),
    })
}

/// The per-layer metrics, in a fixed order. Times are mean inclusive
/// microseconds per call of the layer's public function.
fn layer_metrics(traced: &Traced, walls: &Walls, outside: &Outside) -> Vec<Metric> {
    let (ledger, stats) = (&traced.ledger, traced.stats);
    let n = stats.apps;
    let apps = n.max(1) as f64;
    let us = |layer: &str, name: &str| {
        let l = ledger.layer(layer);
        Metric::new(name, "us", l.mean_us(), l.calls as usize)
    };
    let counter = |name: &str| traced.counters.get(name).copied().unwrap_or(0) as f64;
    vec![
        us("dexfile.parse", "dexfile.parse_us"),
        us("dexfile.fingerprint", "dexfile.fingerprint_us"),
        us("dexfile.verify", "dexfile.verify_us"),
        us("ir.lift", "ir.lift_us"),
        us("context.build", "context.build_us"),
        us("context.build/context/callgraph", "context.callgraph_us"),
        us(
            "context.build/context/method_analyses",
            "context.method_analyses_us",
        ),
        us("context.build/context/summaries", "dataflow.summaries_us"),
        us("checks.run", "checks.run_us"),
        Metric::new(
            "checks.sites_per_app",
            "count",
            ledger.layer("checks.run/checkers/find_sites").items as f64
                / stats.analyzed.max(1) as f64,
            stats.analyzed,
        ),
        Metric::new(
            "cache.classes_reused_frac",
            "ratio",
            stats.classes_reused as f64 / stats.classes_total.max(1) as f64,
            stats.classes_total,
        ),
        us("store.mem_lookup", "store.mem_lookup_us"),
        us("store.insert", "store.insert_us"),
        Metric::new("store.open_us", "us", traced.open_ns as f64 / 1e3, 1),
        Metric::new("store.hit_rate", "ratio", stats.hits as f64 / apps, n),
        Metric::new(
            "store.disk_lookup_frac",
            "ratio",
            ledger.self_frac("store.disk_lookup"),
            n,
        ),
        Metric::new("store.evict", "count", counter("svc.cache.evict"), n),
        Metric::new("store.mem_bytes", "B", traced.mem_bytes as f64, n),
        Metric::new("store.gc_runs", "count", counter("svc.cache.gc_runs"), n),
        Metric::new(
            "store.gc_skipped",
            "count",
            counter("svc.cache.gc_skipped"),
            n,
        ),
        us("json.render", "json.render_us"),
        Metric::new(
            "json.report_bytes",
            "B",
            stats.report_bytes as f64 / apps,
            n,
        ),
        Metric::new("delta.emitted", "count", stats.deltas as f64, n),
        us("protocol.encode", "protocol.encode_us"),
        Metric::new(
            "protocol.reply_bytes_per_app",
            "B",
            stats.reply_bytes as f64 / apps,
            n,
        ),
        Metric::new("protocol.polls_per_app", "count", outside.polls_per_app, n),
        // Core-time per app the out-of-process path spends beyond the
        // in-process twin: spawn, pipes, polling, idle workers.
        Metric::new(
            "orchestrator.overhead_us_per_app",
            "us",
            (outside.parallel as f64 * outside.wall_s - walls.off_s) / apps * 1e6,
            n,
        ),
        Metric::new(
            "orchestrator.shard_skew",
            "ratio",
            outside.skew,
            outside.parallel,
        ),
        Metric::new("orchestrator.spawns", "count", outside.spawns, 1),
        Metric::new("orchestrator.restarts", "count", outside.restarts, 1),
        Metric::new(
            "ledger.unattributed_frac",
            "ratio",
            ledger.unattributed_frac(),
            n,
        ),
        Metric::new(
            "ledger.trace_overhead_frac",
            "ratio",
            (walls.on_s - walls.off_s) / walls.off_s.max(1e-9),
            n,
        ),
    ]
}

/// One twin pass over the batch: the twin, its replies, its wall.
type Pass = (Twin, Vec<Result<TwinReply, String>>, f64);

/// Runs the batch through four twins (spans off, on, on, off); `pass(k,
/// trace)` runs pass `k`. Every pass must match the program's replies
/// byte for byte. Each twin is dropped before the next pass starts, so
/// no pass runs beside another's resident cache.
fn passes(
    mut pass: impl FnMut(usize, bool) -> Pass,
    outside: &Outside,
    verdicts: &mut Verdicts,
) -> (Traced, Walls) {
    let mut traced = None;
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for (k, trace) in [false, true, true, false].into_iter().enumerate() {
        let (twin, replies, wall_s) = pass(k, trace);
        check_identity(k, &replies, &outside.replies, verdicts);
        if trace {
            on_s += wall_s / 2.0;
        } else {
            off_s += wall_s / 2.0;
        }
        if k == 1 {
            traced = Some(summarize(twin, &replies));
        }
    }
    (traced.expect("pass 1 is traced"), Walls { off_s, on_s })
}

fn summarize(twin: Twin, replies: &[Result<TwinReply, String>]) -> Traced {
    Traced {
        ledger: Ledger::from_spans(&twin.rec.spans),
        stats: twin.stats,
        open_ns: twin.open_ns,
        counters: twin
            .store()
            .metrics()
            .snapshot()
            .counters
            .into_iter()
            .collect(),
        mem_bytes: twin.store().mem_bytes(),
        wire: wire_breakdown(&twin),
        chrome: chrome_trace(&twin.rec.spans),
        failed: replies.iter().filter(|r| r.is_err()).count(),
    }
}

/// Twin replies must be byte-identical to the program's: the report
/// strings, and the deltas.
fn check_identity(
    pass: usize,
    replies: &[Result<TwinReply, String>],
    program: &[(String, Value)],
    verdicts: &mut Verdicts,
) {
    let same = replies
        .iter()
        .zip(program)
        .filter(|(twin, (report, delta))| match twin {
            Ok(t) => {
                t.report.as_str() == report && t.delta.as_ref().unwrap_or(&Value::Null) == delta
            }
            Err(_) => false,
        })
        .count();
    verdicts.check(
        same == program.len() && replies.len() == program.len(),
        || {
            format!(
                "twin pass {pass}: {same} of {} replies match the program's ({} twin replies)",
                program.len(),
                replies.len()
            )
        },
    );
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fresh_dir(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// `vet -v` stderr: shard skew (from the per-shard walls), then the
/// spawn and restart counts of the fleet summary line.
fn parse_vet_log(stderr: &str) -> (f64, f64, f64) {
    let walls: Vec<f64> = stderr
        .lines()
        .filter(|l| l.contains("vet: shard"))
        .filter_map(|l| l.rsplit(", ").next()?.strip_suffix(" ms")?.parse().ok())
        .collect();
    let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    let skew = walls.iter().copied().fold(0.0, f64::max) / mean.max(1e-9);
    let count_before = |word: &str| -> f64 {
        stderr
            .lines()
            .filter(|l| l.contains("spawned"))
            .find_map(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                let at = words.iter().position(|w| w.trim_end_matches(',') == word)?;
                words.get(at.checked_sub(1)?)?.parse().ok()
            })
            .unwrap_or(0.0)
    };
    (skew, count_before("spawned"), count_before("restart(s)"))
}

fn trace_store(
    exe: &Path,
    run_dir: &Path,
    seed: u64,
    sizes: &Sizes,
    churn: bool,
    verdicts: &mut Verdicts,
) -> std::io::Result<(Outside, Traced, Walls)> {
    let mut tree = StoreTree::create(&run_dir.join("tree"), seed, sizes.store_apps)?;
    let reference = Reference::new();
    let cache = fresh_dir(&run_dir.join("cache"))?;
    let mut churned = Vec::new();
    if churn {
        let warm = store::run_vet(exe, run_dir, &cache, Inputs::Tree(&tree.root), false, false)?;
        store::check_tree_run(&warm, &tree, 0, &reference, verdicts);
        churned = tree.churn(1, CHURN_PCT)?;
    }
    // Each twin pass starts from the cache the program starts from.
    let twin_dirs: Vec<PathBuf> = (0..4).map(|k| run_dir.join(format!("twin-{k}"))).collect();
    for dir in &twin_dirs {
        copy_dir(&cache, dir)?;
    }

    let run = store::run_vet(exe, run_dir, &cache, Inputs::Tree(&tree.root), churn, true)?;
    store::check_tree_run(&run, &tree, 1, &reference, verdicts);
    if churn {
        store::check_deltas(&run, &tree, &churned, 1, &reference, verdicts);
    }
    let deltas = store::parse_deltas(run.deltas.as_deref().unwrap_or(""));
    let replies = check::split_reports(&run.stdout)
        .0
        .iter()
        .zip(&tree.order)
        .map(|(report, &i)| {
            let delta = deltas.get(tree.path(i)).cloned().unwrap_or(Value::Null);
            ((*report).to_owned(), delta)
        })
        .collect();
    let (skew, spawns, restarts) = parse_vet_log(&run.stderr);
    let outside = Outside {
        wall_s: run.wall_s,
        parallel: WORKERS,
        spawns,
        restarts,
        skew,
        polls_per_app: 0.0,
        notes: json!({
            "cpu_ms": run.usage.cpu_us as f64 / 1e3,
            "churned": churned.len(),
            "vet_log": run.stderr.clone(),
        }),
        replies,
    };

    let pass = |k: usize, trace: bool| -> Pass {
        let mut twin = Twin::open(Some(twin_dirs[k].clone()), Some(CACHE_BUDGET_BYTES), trace);
        twin.decode_replies = true;
        let t = Instant::now();
        let replies = tree
            .order
            .iter()
            .enumerate()
            .map(|(pos, &i)| twin.app(pos, tree.path(i), tree.path(i), check::sampled(pos, 0)))
            .collect();
        let wall_s = t.elapsed().as_secs_f64();
        (twin, replies, wall_s)
    };
    let (traced, walls) = passes(pass, &outside, verdicts);
    Ok((outside, traced, walls))
}

fn trace_dev(
    exe: &Path,
    run_dir: &Path,
    seed: u64,
    sizes: &Sizes,
    edit: bool,
    verdicts: &mut Verdicts,
) -> std::io::Result<(Outside, Traced, Walls)> {
    let rounds = sizes.trace_rounds;
    let chain = DevChain::create(&run_dir.join("dev"), seed, rounds)?;
    let reference = Reference::new();

    let mut client = Client::spawn(exe)?;
    let mut failed = 0;
    if edit {
        dev::submit_base(&mut client, &chain, &mut failed)?;
    }
    let polls_before = client.polls;
    let mut latencies = Vec::new();
    let mut all_rounds = Vec::new();
    let t = Instant::now();
    for round in 1..=rounds {
        all_rounds.push(dev::run_round(
            &mut client,
            &chain,
            round,
            edit,
            &|_| true,
            &mut latencies,
            &mut failed,
        )?);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let polls = client.polls - polls_before;
    let (doctor, _) = client.rpc(&json!({"verb": "doctor"}))?;
    client.shutdown()?;
    verdicts.check(failed == 0, || {
        format!("{failed} request(s) failed in the daemon")
    });
    let mut replies = Vec::new();
    for (k, round) in all_rounds.iter().enumerate() {
        dev::check_round(&chain, k + 1, edit, round, &reference, verdicts);
        for (_, reply) in &round.kept {
            replies.push((
                reply["report"].as_str().unwrap_or("").to_owned(),
                reply["delta"].clone(),
            ));
        }
    }
    // The daemon's queue-wait histogram (bucket bounds, so coarse).
    let queue_wait = doctor["doctor"]
        .as_str()
        .and_then(|d| serde_json::from_str(d).ok())
        .map_or(Value::Null, |d: Value| d["queue"]["wait_us"].clone());
    let apps = latencies.len();
    let outside = Outside {
        wall_s,
        parallel: 1,
        spawns: 1.0,
        restarts: 0.0,
        skew: 1.0,
        polls_per_app: polls as f64 / apps.max(1) as f64,
        notes: json!({
            "latency_p50_ms": crate::stats::median(&latencies).unwrap_or(0.0),
            "queue_wait_us": queue_wait,
        }),
        replies,
    };

    let pass = |_k: usize, trace: bool| -> Pass {
        let mut twin = Twin::open(None, None, trace);
        if edit {
            // Version 0 under the stable keys, untraced and untimed.
            twin.rec.set_enabled(false);
            for i in 0..chain.apps() {
                let _ = twin.app(usize::MAX, &dev::key(true, 0, i), chain.path(0, i), false);
            }
            twin.rec.set_enabled(trace);
            twin.stats = TwinStats::default();
        }
        let t = Instant::now();
        let mut replies = Vec::new();
        for round in 1..=rounds {
            for i in 0..chain.apps() {
                let req = round * chain.apps() + i;
                replies.push(twin.app(req, &dev::key(edit, round, i), chain.path(round, i), false));
            }
        }
        let wall_s = t.elapsed().as_secs_f64();
        (twin, replies, wall_s)
    };
    let (traced, walls) = passes(pass, &outside, verdicts);
    Ok((outside, traced, walls))
}

/// The disk tier's codec, timed apart on a sample of reports (inside
/// `store.insert` and `store.disk_lookup` it is not separable).
fn wire_breakdown(twin: &Twin) -> Value {
    if twin.wire_sample.is_empty() || !twin.store().has_disk() {
        return Value::Null;
    }
    let (mut enc_ns, mut dec_ns, mut bytes) = (0u128, 0u128, 0usize);
    for report in &twin.wire_sample {
        let t = Instant::now();
        let text =
            serde_json::to_string(&nck_svc::wire::report_to_wire(report)).expect("wire encodes");
        enc_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let back = serde_json::from_str(&text)
            .ok()
            .and_then(|v| nck_svc::wire::report_from_wire(&v));
        dec_ns += t.elapsed().as_nanos();
        assert!(back.is_some(), "wire round-trips its own output");
        bytes += text.len();
    }
    let n = twin.wire_sample.len() as f64;
    json!({
        "reports": twin.wire_sample.len(),
        "encode_us": enc_ns as f64 / n / 1e3,
        "decode_us": dec_ns as f64 / n / 1e3,
        "bytes": bytes as f64 / n,
    })
}
