//! The long-running analysis daemon behind `nchecker serve`.
//!
//! A [`Daemon`] owns an [`AnalysisService`] and a bounded request
//! queue in front of it. Clients submit bundle paths over the
//! [`crate::protocol`] wire (Unix socket or stdio); a dispatcher
//! thread drains the queue in batches onto the work-stealing pool;
//! finished jobs keep their rendered report — the *exact* bytes the
//! one-shot CLI would print under `--json` — until they age out of
//! retention. A `report` request answers at once (`not-ready` for an
//! unfinished job) unless it asks to `wait`, in which case the reply is
//! held until the dispatcher finishes the job.
//!
//! Admission control is explicit: a submit against a full queue is
//! rejected with a typed `queue-full` reply (never blocked, never
//! silently dropped), and a submit after shutdown began gets
//! `shutting-down`. Shutdown is graceful — in-flight and queued apps
//! drain, then the disk cache tier is flushed before the dispatcher
//! exits.
//!
//! Two invariants worth naming:
//!
//! - The per-app observability template stays **disabled** (tracer and
//!   metrics): enabling it would seal telemetry into the reports and
//!   break byte-identity with plain one-shot `--json` output. Queue
//!   telemetry therefore lives in the daemon's own lifetime registry
//!   ([`Daemon::metrics`]), and cache telemetry in the store's.
//! - [`Daemon::doctor_string`] serves the *same canonical document* as
//!   `nchecker --doctor` over the same store, plus one extra top-level
//!   `"queue"` object — strip that key and the bytes match.

use crate::doctor::{self, DoctorReport};
use crate::protocol::{self, ErrorCode, Line, ProtocolError, Request};
use crate::service::{AnalysisService, ServiceOptions};
use nchecker::CheckerConfig;
use nck_obs::{Events, Metrics, MetricsSnapshot, Obs, PhaseTotals, Tracer};
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Default bound on the request queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Finished jobs retained for `report` fetches; older ones age out
/// (a later `report` gets `not-found`).
pub const DONE_RETENTION: usize = 1024;

/// Queue-wait histogram bounds, in microseconds: 100µs to 10min. The
/// default exponential buckets top out at ~33ms, far too tight for a
/// queue that can legitimately hold work for seconds.
const WAIT_US_BUCKETS: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    60_000_000,
    600_000_000,
];

/// Construction options for [`Daemon`].
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// The underlying batch service (config, jobs, cache tiers).
    pub service: ServiceOptions,
    /// Request-queue bound (`0` is clamped to `1`); `None` =
    /// [`DEFAULT_QUEUE_CAPACITY`].
    pub queue_capacity: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed,
}

impl Phase {
    fn tag(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }
}

struct Job {
    key: String,
    /// Present while queued; taken at dispatch.
    bytes: Option<Vec<u8>>,
    phase: Phase,
    enqueued: Instant,
    /// Exact one-shot `--json` bytes (pretty + trailing newline),
    /// shared with the store's render cell when the report came out of
    /// (or went into) the cache — a repeat hit serves these bytes
    /// without re-encoding the report.
    report_json: Option<std::sync::Arc<String>>,
    /// Defect delta against the previous version of this key, when the
    /// service computed one (JSONL object shape).
    delta: Option<Value>,
    error: Option<String>,
    degraded: bool,
    defects: usize,
}

struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    done_order: VecDeque<u64>,
    next_id: u64,
    accepting: bool,
    stopped: bool,
    inflight: usize,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    degraded: u64,
    /// Watched files that vanished and had their finished state dropped.
    retired: u64,
}

impl State {
    fn new() -> State {
        State {
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            done_order: VecDeque::new(),
            next_id: 1,
            accepting: true,
            stopped: false,
            inflight: 0,
            submitted: 0,
            rejected: 0,
            completed: 0,
            failed: 0,
            degraded: 0,
            retired: 0,
        }
    }
}

/// One protocol reply: the wire line plus whether the connection (and
/// daemon) should begin shutting down after it is written.
pub struct Reply {
    /// The one-line reply, newline included.
    pub line: String,
    /// `true` after a `shutdown` verb was accepted.
    pub shutdown: bool,
}

impl Reply {
    fn plain(v: &Value) -> Reply {
        Reply {
            line: protocol::render_reply(v),
            shutdown: false,
        }
    }

    fn error(code: ErrorCode, message: &str) -> Reply {
        Reply {
            line: protocol::error_line(code, message),
            shutdown: false,
        }
    }
}

/// The daemon: bounded queue + dispatcher + protocol handler.
pub struct Daemon {
    service: AnalysisService,
    config: CheckerConfig,
    capacity: usize,
    /// Lifetime queue telemetry: `svc.queue.{depth,inflight}` gauges,
    /// `svc.queue.{submitted,rejected,completed,failed}` counters, and
    /// the `svc.queue.wait_us` histogram.
    metrics: Metrics,
    state: Mutex<State>,
    /// Signals the dispatcher: work arrived or shutdown began.
    work: Condvar,
    /// Signals waiting `report` requests: a batch finished, or the
    /// dispatcher exited.
    finished: Condvar,
    /// Signals drain waiters: the dispatcher exited.
    idle: Condvar,
}

impl Daemon {
    /// Builds a daemon. The per-app obs template is forced to disabled
    /// tracer/metrics (see the module invariant); `events` flows
    /// through for diagnostics.
    pub fn new(options: DaemonOptions, events: Events) -> Daemon {
        let config = options.service.config;
        let obs = Obs {
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            events,
        };
        Daemon {
            service: AnalysisService::new(options.service, obs),
            config,
            capacity: options
                .queue_capacity
                .unwrap_or(DEFAULT_QUEUE_CAPACITY)
                .max(1),
            metrics: Metrics::enabled(),
            state: Mutex::new(State::new()),
            work: Condvar::new(),
            finished: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// The underlying service (for tests and introspection).
    pub fn service(&self) -> &AnalysisService {
        &self.service
    }

    /// The daemon's lifetime queue-telemetry registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether shutdown has begun (new submits are rejected).
    pub fn shutting_down(&self) -> bool {
        !self.state.lock().expect("daemon state").accepting
    }

    /// Reads `path` and enqueues it under `key` (default: the path
    /// itself, so re-submitting an updated file hits the incremental
    /// ladder).
    pub fn submit_path(
        &self,
        path: &str,
        key: Option<String>,
    ) -> Result<(u64, usize), ProtocolError> {
        let bytes =
            std::fs::read(path).map_err(|e| (ErrorCode::ReadFailed, format!("{path}: {e}")))?;
        self.submit_bytes(key.unwrap_or_else(|| path.to_owned()), bytes)
    }

    /// Enqueues a bundle. Admission control: `queue-full` at capacity,
    /// `shutting-down` after shutdown began. Returns the job id and the
    /// queue depth after the enqueue.
    pub fn submit_bytes(&self, key: String, bytes: Vec<u8>) -> Result<(u64, usize), ProtocolError> {
        let mut st = self.state.lock().expect("daemon state");
        if !st.accepting {
            return Err((
                ErrorCode::ShuttingDown,
                "daemon is shutting down; submit rejected".to_owned(),
            ));
        }
        if st.queue.len() >= self.capacity {
            st.rejected += 1;
            self.metrics.inc("svc.queue.rejected", 1);
            return Err((
                ErrorCode::QueueFull,
                format!(
                    "queue at capacity ({}); retry after jobs drain",
                    self.capacity
                ),
            ));
        }
        let id = st.next_id;
        st.next_id += 1;
        st.submitted += 1;
        st.jobs.insert(
            id,
            Job {
                key,
                bytes: Some(bytes),
                phase: Phase::Queued,
                enqueued: Instant::now(),
                report_json: None,
                delta: None,
                error: None,
                degraded: false,
                defects: 0,
            },
        );
        st.queue.push_back(id);
        let depth = st.queue.len();
        self.metrics.inc("svc.queue.submitted", 1);
        self.metrics.gauge("svc.queue.depth", depth as i64);
        self.work.notify_one();
        Ok((id, depth))
    }

    /// Retires all finished (done or failed) jobs submitted under
    /// `key`: their retained reports are dropped and later `report`
    /// fetches get `not-found`. The watch loop calls this when a
    /// watched bundle file disappears — without it a long watch session
    /// retains state for files that no longer exist, and
    /// [`DONE_RETENTION`] is the only thing that ever frees it. Queued
    /// and running jobs are left alone (their bytes were already read;
    /// the submission is honored). Counts one `svc.watch.retired` per
    /// call, i.e. per vanished path. Returns the jobs dropped.
    pub fn retire_key(&self, key: &str) -> usize {
        let mut st = self.state.lock().expect("daemon state");
        let ids: Vec<u64> = st
            .jobs
            .iter()
            .filter(|(_, j)| j.key == key && matches!(j.phase, Phase::Done | Phase::Failed))
            .map(|(id, _)| *id)
            .collect();
        for id in &ids {
            st.jobs.remove(id);
        }
        st.done_order.retain(|id| !ids.contains(id));
        st.retired += 1;
        self.metrics.inc("svc.watch.retired", 1);
        ids.len()
    }

    /// Stops admission. Idempotent; returns the depth still queued.
    pub fn begin_shutdown(&self) -> usize {
        let mut st = self.state.lock().expect("daemon state");
        st.accepting = false;
        self.work.notify_all();
        st.queue.len()
    }

    /// Blocks until the dispatcher has drained everything and exited.
    /// Only meaningful with [`Daemon::run_dispatcher`] running.
    pub fn await_drained(&self) {
        let mut st = self.state.lock().expect("daemon state");
        while !st.stopped {
            st = self.idle.wait(st).expect("daemon state");
        }
    }

    /// The dispatcher loop: waits for work, drains the queue in
    /// batches onto the pool, and on shutdown flushes the disk cache
    /// before signalling drain waiters. Run on a dedicated thread.
    pub fn run_dispatcher(&self) {
        loop {
            let batch = {
                let mut st = self.state.lock().expect("daemon state");
                loop {
                    if !st.queue.is_empty() {
                        break;
                    }
                    if !st.accepting {
                        drop(st);
                        self.service.store().sync_disk();
                        let mut st = self.state.lock().expect("daemon state");
                        st.stopped = true;
                        self.idle.notify_all();
                        self.finished.notify_all();
                        return;
                    }
                    st = self.work.wait(st).expect("daemon state");
                }
                self.begin_batch(&mut st)
            };
            self.run_batch(batch);
        }
    }

    /// Drains the queue synchronously on the calling thread (tests and
    /// single-shot embedding; the daemon binary uses the dispatcher).
    /// A waiting `report` is only answered by the dispatcher, so issue
    /// one only once the job is finished when draining this way.
    pub fn drain_now(&self) {
        loop {
            let batch = {
                let mut st = self.state.lock().expect("daemon state");
                if st.queue.is_empty() {
                    return;
                }
                self.begin_batch(&mut st)
            };
            self.run_batch(batch);
        }
    }

    /// Takes every queued job: marks it running, records its queue
    /// wait, and returns `(id, key, bytes)` triples for the pool.
    fn begin_batch(&self, st: &mut State) -> Vec<(u64, String, Vec<u8>)> {
        let mut batch = Vec::with_capacity(st.queue.len());
        while let Some(id) = st.queue.pop_front() {
            let Some(job) = st.jobs.get_mut(&id) else {
                continue;
            };
            job.phase = Phase::Running;
            let wait_us = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.metrics
                .observe_with("svc.queue.wait_us", &WAIT_US_BUCKETS, wait_us);
            let bytes = job.bytes.take().unwrap_or_default();
            batch.push((id, job.key.clone(), bytes));
        }
        st.inflight = batch.len();
        self.metrics.gauge("svc.queue.depth", 0);
        self.metrics.gauge("svc.queue.inflight", batch.len() as i64);
        batch
    }

    fn run_batch(&self, batch: Vec<(u64, String, Vec<u8>)>) {
        let (ids, items): (Vec<u64>, Vec<(String, Vec<u8>)>) = batch
            .into_iter()
            .map(|(id, key, bytes)| (id, (key, bytes)))
            .unzip();
        let outcomes = self.service.analyze_batch(&items);
        let mut st = self.state.lock().expect("daemon state");
        for (id, outcome) in ids.into_iter().zip(outcomes) {
            self.finish_job(&mut st, id, outcome);
        }
        st.inflight = 0;
        self.metrics.gauge("svc.queue.inflight", 0);
        self.finished.notify_all();
    }

    fn finish_job(&self, st: &mut State, id: u64, outcome: crate::service::AppOutcome) {
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        match outcome.report {
            Ok(report) => {
                // The exact byte surface the one-shot CLI prints under
                // --json. The daemon's per-app obs is always disabled, so
                // these are the stored bytes of a disk hit or the
                // memoized rendering of a resident entry — a repeat hit
                // costs an Arc clone, not a decode or re-encode.
                job.degraded = report.degraded();
                job.defects = report.defects();
                job.report_json = Some(report.json());
                job.delta = outcome.delta.map(|d| d.to_json());
                job.phase = Phase::Done;
                st.completed += 1;
                self.metrics.inc("svc.queue.completed", 1);
                if job.degraded {
                    st.degraded += 1;
                }
            }
            Err(e) => {
                job.error = Some(e.to_string());
                job.phase = Phase::Failed;
                st.failed += 1;
                self.metrics.inc("svc.queue.failed", 1);
            }
        }
        st.done_order.push_back(id);
        while st.done_order.len() > DONE_RETENTION {
            if let Some(old) = st.done_order.pop_front() {
                st.jobs.remove(&old);
            }
        }
    }

    /// Dispatches one framed read: `None` on EOF (caller closes), a
    /// reply otherwise. Protocol errors become typed error replies —
    /// never panics, never wedges the connection.
    pub fn handle_line(&self, line: &Line) -> Option<Reply> {
        match line {
            Line::Eof => None,
            Line::Oversized => Some(Reply::error(
                ErrorCode::Oversized,
                &format!("request line exceeds {} bytes", protocol::MAX_REQUEST_LINE),
            )),
            Line::Text(text) => Some(match protocol::parse_request(text) {
                Ok(req) => self.handle_request(req),
                Err((code, msg)) => Reply::error(code, &msg),
            }),
        }
    }

    /// Executes one parsed request.
    pub fn handle_request(&self, req: Request) -> Reply {
        match req {
            Request::Submit { path, key } => match self.submit_path(&path, key) {
                Ok((id, pending)) => Reply::plain(&json!({
                    "ok": true,
                    "verb": "submit",
                    "id": id,
                    "pending": pending,
                })),
                Err((code, msg)) => Reply::error(code, &msg),
            },
            Request::Status { id: None } => {
                let st = self.state.lock().expect("daemon state");
                Reply::plain(&json!({
                    "ok": true,
                    "verb": "status",
                    "accepting": st.accepting,
                    "pending": st.queue.len(),
                    "inflight": st.inflight,
                    "submitted": st.submitted,
                    "rejected": st.rejected,
                    "completed": st.completed,
                    "failed": st.failed,
                    "retired": st.retired,
                }))
            }
            Request::Status { id: Some(id) } => {
                let st = self.state.lock().expect("daemon state");
                match st.jobs.get(&id) {
                    None => Reply::error(ErrorCode::NotFound, &format!("no job {id}")),
                    Some(job) => Reply::plain(&json!({
                        "ok": true,
                        "verb": "status",
                        "id": id,
                        "key": job.key,
                        "state": job.phase.tag(),
                    })),
                }
            }
            Request::Report { id, wait } => {
                let mut st = self.state.lock().expect("daemon state");
                // A waiting fetch holds its reply until the job leaves
                // the queue and the pool. Only the dispatcher finishes
                // jobs, so the wait also ends if it has exited.
                while wait
                    && !st.stopped
                    && st
                        .jobs
                        .get(&id)
                        .is_some_and(|j| matches!(j.phase, Phase::Queued | Phase::Running))
                {
                    st = self.finished.wait(st).expect("daemon state");
                }
                match st.jobs.get(&id) {
                    None => Reply::error(ErrorCode::NotFound, &format!("no job {id}")),
                    Some(job) => match job.phase {
                        Phase::Queued | Phase::Running => Reply::error(
                            ErrorCode::NotReady,
                            &format!("job {id} is {}", job.phase.tag()),
                        ),
                        Phase::Failed => Reply::error(
                            ErrorCode::AnalysisFailed,
                            job.error.as_deref().unwrap_or("analysis failed"),
                        ),
                        Phase::Done => Reply::plain(&json!({
                            "ok": true,
                            "verb": "report",
                            "id": id,
                            "key": job.key,
                            "degraded": job.degraded,
                            "defects": job.defects,
                            // The report string stays byte-identical to
                            // one-shot --json; the delta rides alongside
                            // (null on first submission).
                            "delta": job.delta.clone().unwrap_or(Value::Null),
                            "report": job.report_json.as_deref().map_or("", String::as_str),
                        })),
                    },
                }
            }
            Request::Doctor => Reply::plain(&json!({
                "ok": true,
                "verb": "doctor",
                "doctor": self.doctor_string(),
            })),
            Request::Shutdown => {
                let pending = self.begin_shutdown();
                Reply {
                    line: protocol::render_reply(&json!({
                        "ok": true,
                        "verb": "shutdown",
                        "pending": pending,
                    })),
                    shutdown: true,
                }
            }
        }
    }

    /// The canonical doctor document this daemon serves: byte-identical
    /// to `nchecker --doctor` over the same store and config, plus one
    /// top-level `"queue"` object.
    pub fn doctor_string(&self) -> String {
        let st = self.state.lock().expect("daemon state");
        // The daemon has no "last run" in the one-shot sense and its
        // per-app metrics are disabled by construction; the doctor's
        // funnel and phase sections therefore read an empty snapshot,
        // while cache counters come from the store's lifetime registry
        // and queue counters from the daemon's.
        let empty = MetricsSnapshot::default();
        let phases = PhaseTotals::new();
        let report = DoctorReport {
            config: &self.config,
            store: self.service.store(),
            metrics: &empty,
            phases: &phases,
            apps: (st.completed + st.failed) as usize,
            failed: st.failed as usize,
            degraded: st.degraded as usize,
        };
        let mut v = doctor::doctor_json(&report);
        let queue = self.queue_json(&st);
        if let Value::Object(m) = &mut v {
            m.insert("queue".to_owned(), queue);
        }
        let mut text = serde_json::to_string_pretty(&v).expect("doctor snapshot serializes");
        text.push('\n');
        text
    }

    fn queue_json(&self, st: &State) -> Value {
        let snap = self.metrics.snapshot();
        let wait = snap.histograms.get("svc.queue.wait_us");
        let pct = |p: f64| wait.and_then(|h| h.percentile_bound(p)).unwrap_or(0);
        json!({
            "capacity": self.capacity,
            "depth": st.queue.len(),
            "inflight": st.inflight,
            "accepting": st.accepting,
            "submitted": st.submitted,
            "rejected": st.rejected,
            "completed": st.completed,
            "failed": st.failed,
            "degraded": st.degraded,
            "retired": st.retired,
            "wait_us": {
                "count": wait.map_or(0, |h| h.count),
                "p50": pct(50.0),
                "p99": pct(99.0),
            },
        })
    }
}

/// Serves one client connection; returns `true` when the client issued
/// an accepted `shutdown`. A client disconnect (read or write failure)
/// closes this connection only — the daemon survives.
pub fn serve_connection(daemon: &Daemon, stream: UnixStream) -> bool {
    let Ok(read_half) = stream.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match protocol::read_request_line(&mut reader) {
            Ok(line) => line,
            Err(_) => return false,
        };
        let Some(reply) = daemon.handle_line(&line) else {
            return false;
        };
        if writer.write_all(reply.line.as_bytes()).is_err() || writer.flush().is_err() {
            return reply.shutdown;
        }
        if reply.shutdown {
            return true;
        }
    }
}

/// Binds `path` and serves connections until a client issues
/// `shutdown` (each connection gets its own thread). The stale socket
/// file of a dead daemon is replaced; the file is removed on exit.
pub fn serve_socket(daemon: &Arc<Daemon>, path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    loop {
        let (stream, _) = listener.accept()?;
        if daemon.shutting_down() {
            // Woken by the handler's self-connect below (accept has no
            // timeout); the wake connection itself is dropped.
            break;
        }
        let d = Arc::clone(daemon);
        let wake = path.to_path_buf();
        std::thread::spawn(move || {
            if serve_connection(&d, stream) {
                let _ = UnixStream::connect(&wake);
            }
        });
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Serves requests from `reader` to `writer` until EOF or `shutdown`
/// (the stdio transport). EOF counts as an implicit shutdown request:
/// a pipe that closes wants the daemon to drain and exit.
pub fn serve_lines<R: BufRead, W: Write>(
    daemon: &Daemon,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    loop {
        let line = protocol::read_request_line(reader)?;
        let Some(reply) = daemon.handle_line(&line) else {
            break;
        };
        writer.write_all(reply.line.as_bytes())?;
        writer.flush()?;
        if reply.shutdown {
            break;
        }
    }
    daemon.begin_shutdown();
    Ok(())
}
