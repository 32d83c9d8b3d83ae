//! The multi-process shard orchestrator behind `nchecker vet`.
//!
//! Store-scale vetting wants more isolation than a thread pool gives:
//! one pathological bundle must not take down (or even slow) the other
//! shards, and a corpus worth of cache entries must not live in one
//! address space. So the orchestrator partitions the corpus by content
//! hash of the *key* across N worker **processes** — each a spawned
//! `nchecker serve --stdio` child spoken to over the existing
//! line-delimited wire protocol — and merges their reports back into
//! input order. The workers share nothing in memory; the on-disk
//! [`crate::AnalysisStore`] tier (when `--cache-dir` is passed through)
//! is the common cache, coordination-free because entries are
//! content-addressed and written tmp+rename.
//!
//! Reliability is the orchestrator's job, not the workers':
//!
//! - **Crash-restart** — a worker that dies mid-chunk (EOF on its
//!   stdout, a write failure, a malformed reply) is killed, respawned,
//!   and the chunk's unfinished items are resubmitted, up to
//!   [`OrchestratorOptions::max_restarts`] per shard. The shared disk
//!   cache makes resubmission cheap: items the dead worker finished
//!   writing are whole-report hits the second time.
//! - **Straggler detection** — a shard still running after
//!   `straggler_factor ×` the median completed-shard wall time is
//!   flagged in [`VetOutcome::stragglers`] (detection, not preemption:
//!   killing a slow shard would trade latency for lost work).
//! - **Per-shard accounting** — every [`ShardReport`] carries assigned
//!   / completed / failed counts, restarts, and wall time, so a vetting
//!   run's summary names the shard that misbehaved.
//!
//! Output discipline: results land in input-order slots, and the
//! report string for each app is the daemon's `report` verb payload —
//! which the daemon guarantees is byte-identical to one-shot
//! `--json` output. Concatenating [`VetOutcome::reports`] therefore
//! reproduces exactly what a single `nchecker --json` run over the
//! same paths would print.
//!
//! Workers are owned by a [`WorkerFleet`], which outlives any single
//! [`WorkerFleet::vet`] round: the shard processes stay alive between
//! rounds, so a continuous-vetting loop (re-vetting a corpus wave
//! after wave) pays process spawn and startup exactly once per shard,
//! not once per wave. A shard with no items in a round spawns nothing;
//! a warm worker that died between rounds respawns on demand through
//! the normal restart path. The one-shot [`vet`] entry point wraps a
//! fleet around a single round and shuts it down.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Tuning for a [`vet`] run.
#[derive(Debug, Clone)]
pub struct OrchestratorOptions {
    /// Worker processes to spawn (clamped to at least 1).
    pub workers: usize,
    /// The worker command line: argv[0] plus arguments. Must speak the
    /// serve wire protocol on stdio.
    pub worker_cmd: Vec<String>,
    /// Submits per pipelined window. Two windows are outstanding at a
    /// time, so `2 × window` must stay at or below the worker's queue
    /// capacity, or admission control rejects the overflow. Both
    /// windows' requests sit in the worker's stdin pipe at once, so the
    /// window must also stay small enough for them to fit its buffer.
    pub window: usize,
    /// Worker restarts tolerated per shard before the shard's remaining
    /// items are marked failed.
    pub max_restarts: usize,
    /// A shard is a straggler after `straggler_factor ×` the median
    /// completed-shard wall time (with a small absolute floor so tiny
    /// corpora do not flag noise).
    pub straggler_factor: u32,
}

impl Default for OrchestratorOptions {
    fn default() -> OrchestratorOptions {
        OrchestratorOptions {
            workers: 2,
            worker_cmd: Vec::new(),
            window: 32,
            max_restarts: 2,
            straggler_factor: 4,
        }
    }
}

/// One shard's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index (also the worker index).
    pub shard: usize,
    /// Items partitioned onto this shard.
    pub assigned: usize,
    /// Items with a report.
    pub completed: usize,
    /// Items that failed (analysis error, or worker restarts
    /// exhausted).
    pub failed: usize,
    /// Worker processes respawned for this shard.
    pub restarts: usize,
    /// Shard wall time, milliseconds.
    pub wall_ms: u64,
}

/// A finished [`vet`] run.
#[derive(Debug, Default)]
pub struct VetOutcome {
    /// Per-input report strings (exact one-shot `--json` bytes), in
    /// input order. `None` where that input failed.
    pub reports: Vec<Option<String>>,
    /// Per-input defect deltas (the daemon's `delta` payload), in input
    /// order; `None` for first submissions and failures.
    pub deltas: Vec<Option<Value>>,
    /// `(input index, message)` for every failed input, sorted by
    /// index.
    pub errors: Vec<(usize, String)>,
    /// Inputs whose analysis degraded (methods skipped).
    pub degraded: usize,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardReport>,
    /// Shard indices flagged as stragglers.
    pub stragglers: Vec<usize>,
    /// Worker processes spawned during this round (cold shards plus
    /// crash respawns). A round served entirely by a warm fleet is 0.
    pub worker_spawns: usize,
    /// Shards served by a worker that was already alive when the round
    /// started.
    pub workers_reused: usize,
}

impl VetOutcome {
    /// Inputs that produced a report.
    pub fn completed(&self) -> usize {
        self.reports.iter().flatten().count()
    }
}

/// Which shard an input key belongs to: content hash of the key, not
/// round-robin, so a re-vetting run with the same worker count routes
/// every key to the same shard (and its warm worker-local state).
pub fn shard_of(key: &str, workers: usize) -> usize {
    (nck_dex::wire::fnv1a(key.as_bytes()) as usize) % workers.max(1)
}

/// Pure straggler rule, factored out for testing: given completed
/// shard wall times and a still-running shard's elapsed time, is the
/// runner a straggler? Needs a majority of shards finished to have a
/// meaningful median, and floors the threshold at 50ms so micro-corpora
/// never flag.
pub fn is_straggler(
    completed_walls: &[Duration],
    elapsed: Duration,
    factor: u32,
    total: usize,
) -> bool {
    if completed_walls.len() * 2 < total {
        return false;
    }
    let mut walls = completed_walls.to_vec();
    walls.sort();
    let median = walls[walls.len() / 2];
    let threshold = (median * factor.max(1)).max(Duration::from_millis(50));
    elapsed > threshold
}

/// One worker process and its wire-protocol plumbing.
struct Worker {
    child: Child,
    stdin: BufWriter<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Worker {
    fn spawn(cmd: &[String]) -> std::io::Result<Worker> {
        let (argv0, rest) = cmd.split_first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty worker command")
        })?;
        let mut child = Command::new(argv0)
            .args(rest)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(Worker {
            child,
            stdin: BufWriter::new(stdin),
            stdout: BufReader::new(stdout),
        })
    }

    /// One request/reply round trip. The daemon replies serially in
    /// request order, so pipelined callers read replies in send order.
    fn send(&mut self, req: &Value) -> std::io::Result<()> {
        let line = serde_json::to_string(req).expect("request serializes");
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()
    }

    fn recv(&mut self) -> std::io::Result<Value> {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker closed its stdout",
            ));
        }
        serde_json::from_str(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed worker reply: {e}"),
            )
        })
    }

    fn rpc(&mut self, req: &Value) -> std::io::Result<Value> {
        self.send(req)?;
        self.recv()
    }

    /// Graceful stop: `shutdown` verb, then reap. Kill as the fallback
    /// so a wedged worker cannot hang the orchestrator.
    fn shutdown(mut self) {
        let _ = self.rpc(&serde_json::json!({"verb": "shutdown"}));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one input ended as, inside a shard.
enum ItemResult {
    Done {
        report: String,
        delta: Option<Value>,
        degraded: bool,
    },
    Failed(String),
}

/// How a shard used its worker slot during one round.
#[derive(Debug, Default, Clone, Copy)]
struct ShardUse {
    /// Workers respawned after a death.
    restarts: usize,
    /// Processes spawned (cold start plus respawns).
    spawned: usize,
    /// 1 when the round started on an already-warm worker.
    reused: usize,
}

/// Runs one shard: submits its items through the worker process in
/// `slot` — reusing it warm when present, spawning it when not —
/// restarting it (and resubmitting the chunk's unfinished items) on
/// death. The worker is *left alive in the slot* when the round ends;
/// the owning [`WorkerFleet`] decides when it shuts down. A shard with
/// no items spawns nothing.
fn run_shard(
    slot: &mut Option<Worker>,
    cmd: &[String],
    window: usize,
    max_restarts: usize,
    items: &[(usize, String)],
) -> (BTreeMap<usize, ItemResult>, ShardUse) {
    let mut results: BTreeMap<usize, ItemResult> = BTreeMap::new();
    let mut usage = ShardUse::default();
    if items.is_empty() {
        return (results, usage);
    }
    if slot.is_some() {
        usage.reused = 1;
    } else {
        match Worker::spawn(cmd) {
            Ok(w) => {
                *slot = Some(w);
                usage.spawned += 1;
            }
            Err(e) => {
                for (idx, _) in items {
                    results.insert(
                        *idx,
                        ItemResult::Failed(format!("worker spawn failed: {e}")),
                    );
                }
                return (results, usage);
            }
        }
    }

    // Each pass pipelines every unresolved item through the live worker;
    // a pass that dies leaves its finished items resolved, and the next
    // pass (on a respawned worker) resubmits only the rest.
    loop {
        let pending: Vec<&(usize, String)> = items
            .iter()
            .filter(|(idx, _)| !results.contains_key(idx))
            .collect();
        if pending.is_empty() {
            return (results, usage);
        }
        let w = slot.as_mut().expect("live worker");
        let Err(e) = run_pipelined(w, &pending, window, &mut results) else {
            return (results, usage);
        };
        // Worker I/O died mid-pass. Kill, maybe respawn, and retry the
        // unfinished items — finished ones keep their results, and
        // re-analysis of items the dead worker had completed hits the
        // shared disk cache.
        slot.take().expect("live worker").kill();
        if usage.restarts >= max_restarts {
            for (idx, _) in items {
                results.entry(*idx).or_insert_with(|| {
                    ItemResult::Failed(format!(
                        "worker died ({e}); restart budget ({max_restarts}) exhausted"
                    ))
                });
            }
            return (results, usage);
        }
        usage.restarts += 1;
        match Worker::spawn(cmd) {
            Ok(w) => {
                *slot = Some(w);
                usage.spawned += 1;
            }
            Err(spawn_err) => {
                for (idx, _) in items {
                    results.entry(*idx).or_insert_with(|| {
                        ItemResult::Failed(format!("worker respawn failed: {spawn_err}"))
                    });
                }
                return (results, usage);
            }
        }
    }
}

/// Pipelines `items` through one worker in windows, one window ahead:
/// window *k + 1*'s submits go out before window *k*'s waiting `report`
/// fetches, so the worker's queue already holds the next window while
/// it finishes the current one and never idles between windows. Two
/// windows must fit the worker's queue capacity. The daemon replies
/// serially in request order, so replies are read back in send order.
/// `Err` means the worker connection is unusable (caller restarts);
/// per-item failures are recorded and are *not* errors.
fn run_pipelined(
    worker: &mut Worker,
    items: &[&(usize, String)],
    window: usize,
    results: &mut BTreeMap<usize, ItemResult>,
) -> std::io::Result<()> {
    let mut windows = items.chunks(window.max(1));
    let Some(first) = windows.next() else {
        return Ok(());
    };
    send_submits(worker, first)?;
    let mut current = recv_submits(worker, first, results)?;
    loop {
        let next = windows.next();
        if let Some(next) = next {
            send_submits(worker, next)?;
        }
        for (_, id) in &current {
            worker.send(&serde_json::json!({"verb": "report", "id": id, "wait": true}))?;
        }
        let queued = match next {
            Some(next) => recv_submits(worker, next, results)?,
            None => Vec::new(),
        };
        for (idx, _) in current {
            let reply = worker.recv()?;
            results.insert(idx, item_result(reply)?);
        }
        if next.is_none() {
            return Ok(());
        }
        current = queued;
    }
}

fn send_submits(worker: &mut Worker, items: &[&(usize, String)]) -> std::io::Result<()> {
    for (_, path) in items {
        worker.send(&serde_json::json!({"verb": "submit", "path": path}))?;
    }
    Ok(())
}

/// Reads the submit replies for `items`: the `(input index, job id)`
/// of every accepted submit. A rejected submit fails its item — a
/// protocol-level surprise (two windows fit the queue), not a dead
/// worker.
fn recv_submits(
    worker: &mut Worker,
    items: &[&(usize, String)],
    results: &mut BTreeMap<usize, ItemResult>,
) -> std::io::Result<Vec<(usize, u64)>> {
    let mut accepted = Vec::with_capacity(items.len());
    for (idx, path) in items {
        let reply = worker.recv()?;
        match reply["id"].as_i64() {
            Some(id) if reply["ok"].as_bool() == Some(true) => accepted.push((*idx, id as u64)),
            _ => {
                results.insert(
                    *idx,
                    ItemResult::Failed(format!(
                        "{path}: submit rejected: {}",
                        reply["error"]["code"].as_str().unwrap_or("unknown")
                    )),
                );
            }
        }
    }
    Ok(accepted)
}

/// One `report` reply as an item result. `Err` when the reply carries
/// neither a report nor a typed error (the connection is out of sync).
/// The report and delta are moved out of the parsed reply, not copied.
fn item_result(reply: Value) -> std::io::Result<ItemResult> {
    if reply["ok"].as_bool() == Some(true) {
        let degraded = reply["degraded"].as_bool().unwrap_or(false);
        let Value::Object(mut fields) = reply else {
            unreachable!("an \"ok\" reply is an object");
        };
        return Ok(ItemResult::Done {
            report: match fields.remove("report") {
                Some(Value::String(report)) => report,
                _ => String::new(),
            },
            delta: fields.remove("delta").filter(|d| *d != Value::Null),
            degraded,
        });
    }
    match reply["error"]["code"].as_str() {
        Some(code) => Ok(ItemResult::Failed(format!(
            "{code}: {}",
            reply["error"]["message"]
                .as_str()
                .unwrap_or("analysis failed")
        ))),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "worker reply carries neither ok nor error",
        )),
    }
}

/// A persistent fleet of shard worker processes. One fleet serves any
/// number of [`WorkerFleet::vet`] rounds; workers spawned for a round
/// stay alive for the next, so continuous vetting pays spawn and
/// startup once per shard, not once per wave. Key→shard routing is
/// stable ([`shard_of`]), so a re-vetted key lands on the same warm
/// worker — and its warm memory-tier cache — every round.
pub struct WorkerFleet {
    options: OrchestratorOptions,
    slots: Vec<Option<Worker>>,
}

impl WorkerFleet {
    /// A fleet with every slot cold. No processes spawn until a round
    /// routes items to their shards.
    pub fn new(options: OrchestratorOptions) -> WorkerFleet {
        let workers = options.workers.max(1);
        WorkerFleet {
            options,
            slots: (0..workers).map(|_| None).collect(),
        }
    }

    /// Workers currently alive in the fleet.
    pub fn warm_workers(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Vets `paths` across the fleet: partitions by key hash, runs
    /// every shard concurrently (reusing warm workers, spawning cold
    /// ones), and merges results back into input order.
    pub fn vet(&mut self, paths: &[String]) -> VetOutcome {
        let options = &self.options;
        let workers = options.workers.max(1);
        let mut partitions: Vec<Vec<(usize, String)>> = vec![Vec::new(); workers];
        for (idx, path) in paths.iter().enumerate() {
            partitions[shard_of(path, workers)].push((idx, path.clone()));
        }

        let mut outcome = VetOutcome {
            reports: (0..paths.len()).map(|_| None).collect(),
            deltas: (0..paths.len()).map(|_| None).collect(),
            ..VetOutcome::default()
        };

        let started = Instant::now();
        let shard_walls: Vec<std::sync::Mutex<Option<Duration>>> =
            (0..workers).map(|_| std::sync::Mutex::new(None)).collect();
        let mut shard_results: Vec<Option<(BTreeMap<usize, ItemResult>, ShardUse)>> =
            (0..workers).map(|_| None).collect();
        let mut stragglers: Vec<usize> = Vec::new();

        std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .zip(self.slots.iter_mut())
                .map(|((shard, items), slot)| {
                    let walls = &shard_walls;
                    let opts = options;
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let r = run_shard(
                            slot,
                            &opts.worker_cmd,
                            opts.window,
                            opts.max_restarts,
                            items,
                        );
                        *walls[shard].lock().expect("wall slot") = Some(t0.elapsed());
                        r
                    })
                })
                .collect();

            // Straggler watch: poll until every shard finishes, flagging
            // shards that outlive the completed median by the factor.
            loop {
                let walls: Vec<Duration> = shard_walls
                    .iter()
                    .filter_map(|w| *w.lock().expect("wall slot"))
                    .collect();
                if walls.len() == workers {
                    break;
                }
                let elapsed = started.elapsed();
                for (shard, slot) in shard_walls.iter().enumerate() {
                    if slot.lock().expect("wall slot").is_none()
                        && !stragglers.contains(&shard)
                        && is_straggler(&walls, elapsed, options.straggler_factor, workers)
                    {
                        stragglers.push(shard);
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            for (shard, handle) in handles.into_iter().enumerate() {
                shard_results[shard] = Some(handle.join().unwrap_or_else(|_| {
                    let mut failed = BTreeMap::new();
                    for (idx, _) in &partitions[shard] {
                        failed.insert(*idx, ItemResult::Failed("shard thread panicked".to_owned()));
                    }
                    (failed, ShardUse::default())
                }));
            }
        });

        for (shard, slot) in shard_results.into_iter().enumerate() {
            let (results, usage) = slot.expect("joined shard");
            outcome.worker_spawns += usage.spawned;
            outcome.workers_reused += usage.reused;
            let mut report = ShardReport {
                shard,
                assigned: partitions[shard].len(),
                completed: 0,
                failed: 0,
                restarts: usage.restarts,
                wall_ms: shard_walls[shard]
                    .lock()
                    .expect("wall slot")
                    .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            };
            for (idx, result) in results {
                match result {
                    ItemResult::Done {
                        report: text,
                        delta,
                        degraded,
                    } => {
                        report.completed += 1;
                        outcome.degraded += usize::from(degraded);
                        outcome.reports[idx] = Some(text);
                        outcome.deltas[idx] = delta;
                    }
                    ItemResult::Failed(msg) => {
                        report.failed += 1;
                        outcome.errors.push((idx, msg));
                    }
                }
            }
            outcome.shards.push(report);
        }
        outcome.errors.sort_by_key(|(idx, _)| *idx);
        stragglers.sort_unstable();
        outcome.stragglers = stragglers;
        outcome
    }

    /// Graceful teardown: every warm worker gets the `shutdown` verb
    /// and a reap (with the kill fallback), in shard order.
    pub fn shutdown(mut self) {
        for slot in &mut self.slots {
            if let Some(w) = slot.take() {
                w.shutdown();
            }
        }
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        // A dropped (not shut down) fleet must not leak processes, and
        // must not hang for the graceful-shutdown deadline per worker:
        // kill outright.
        for slot in &mut self.slots {
            if let Some(w) = slot.take() {
                w.kill();
            }
        }
    }
}

/// Vets `paths` across worker processes in one round: a [`WorkerFleet`]
/// spun up for the call and shut down after it. Continuous vetting
/// should hold a fleet instead and call [`WorkerFleet::vet`] per wave.
pub fn vet(options: &OrchestratorOptions, paths: &[String]) -> VetOutcome {
    let mut fleet = WorkerFleet::new(options.clone());
    let outcome = fleet.vet(paths);
    fleet.shutdown();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_partition_is_stable_and_total() {
        let keys = ["a.apk", "b.apk", "dir/c.apk", "dir/d.adx"];
        for workers in 1..=4 {
            for k in keys {
                let s = shard_of(k, workers);
                assert!(s < workers);
                assert_eq!(s, shard_of(k, workers), "stable per key");
            }
        }
        // Hash partitioning actually spreads keys (not all one shard).
        let spread: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_of(&format!("app{i:03}.apk"), 4))
            .collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn straggler_rule_needs_a_median_and_a_margin() {
        let ms = Duration::from_millis;
        // Not enough finished shards: never a straggler.
        assert!(!is_straggler(&[ms(10)], ms(10_000), 4, 4));
        // Majority finished, runner just over the median: fine.
        assert!(!is_straggler(&[ms(100), ms(120), ms(110)], ms(200), 4, 4));
        // Runner far past factor × median: flagged.
        assert!(is_straggler(&[ms(100), ms(120), ms(110)], ms(600), 4, 4));
        // The 50ms floor: micro-shards never flag at micro-elapsed.
        assert!(!is_straggler(&[ms(1), ms(1), ms(1)], ms(40), 4, 4));
        assert!(is_straggler(&[ms(1), ms(1), ms(1)], ms(60), 4, 4));
    }

    #[test]
    fn vet_with_an_unspawnable_worker_fails_every_input_cleanly() {
        let options = OrchestratorOptions {
            workers: 2,
            worker_cmd: vec!["/nonexistent/bin/definitely-not-here".to_owned()],
            ..OrchestratorOptions::default()
        };
        let paths = vec!["a.apk".to_owned(), "b.apk".to_owned(), "c.apk".to_owned()];
        let out = vet(&options, &paths);
        assert_eq!(out.completed(), 0);
        assert_eq!(out.errors.len(), 3);
        assert_eq!(out.reports, vec![None, None, None]);
        assert_eq!(out.shards.len(), 2);
        let assigned: usize = out.shards.iter().map(|s| s.assigned).sum();
        let failed: usize = out.shards.iter().map(|s| s.failed).sum();
        assert_eq!(assigned, 3);
        assert_eq!(failed, 3);
        assert!(out.errors.iter().all(|(_, m)| m.contains("spawn failed")));
        assert_eq!(out.worker_spawns, 0, "failed spawns are not spawns");
        assert_eq!(out.workers_reused, 0);
    }

    #[test]
    fn a_fleet_round_with_no_items_spawns_nothing() {
        let mut fleet = WorkerFleet::new(OrchestratorOptions {
            workers: 3,
            worker_cmd: vec!["/nonexistent/bin/definitely-not-here".to_owned()],
            ..OrchestratorOptions::default()
        });
        let out = fleet.vet(&[]);
        assert_eq!(out.worker_spawns, 0);
        assert_eq!(out.workers_reused, 0);
        assert_eq!(fleet.warm_workers(), 0);
        assert_eq!(out.shards.len(), 3);
        assert!(out.shards.iter().all(|s| s.assigned == 0));
        fleet.shutdown();
    }
}
