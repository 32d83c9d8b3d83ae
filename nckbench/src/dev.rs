//! The developer path: one closed-loop client of `nchecker serve
//! --stdio`, sending `submit` then polling `report` for each app of the
//! evaluation corpus, one version round at a time. `dev-cold` submits
//! every version under a never-seen key; `dev-edit` submits the same
//! bytes under the app's stable key, so each submit edits the previous
//! version.

use crate::check::{self, Reference, Verdicts};
use crate::gen::DevChain;
use crate::stats::{median, percentile, tail_percentile};
use crate::sys::{self, ChildGuard};
use crate::{Metric, Outcome, Sizes};
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{ChildStdin, ChildStdout, Command};
use std::time::{Duration, Instant};

/// Back-off between `report` polls of a job that is not ready yet.
pub const POLL_BACKOFF: Duration = Duration::from_micros(200);

/// One `serve --stdio` daemon and the benchmark's connection to it.
pub struct Client {
    guard: ChildGuard,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// `report` polls answered `not-ready`.
    pub polls: usize,
    /// Bytes of `report` replies received.
    pub reply_bytes: usize,
}

/// A finished `report` reply, or the error code the daemon gave.
pub type Reply = Result<Value, String>;

impl Client {
    /// Spawns the daemon with one analysis thread, memory tier only.
    pub fn spawn(exe: &Path) -> std::io::Result<Client> {
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--stdio", "--quiet", "--jobs", "1"]);
        let mut guard = ChildGuard::spawn_piped(&mut cmd)?;
        let stdin = guard.child().stdin.take().expect("piped stdin");
        let stdout = guard.child().stdout.take().expect("piped stdout");
        Ok(Client {
            guard,
            stdin: BufWriter::new(stdin),
            stdout: BufReader::new(stdout),
            polls: 0,
            reply_bytes: 0,
        })
    }

    pub fn pid(&mut self) -> u32 {
        self.guard.child().id()
    }

    /// One request line out, one reply line back.
    pub fn rpc(&mut self, request: &Value) -> std::io::Result<(Value, usize)> {
        let mut line = serde_json::to_string(request).expect("request serializes");
        line.push('\n');
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.flush()?;
        let mut reply = String::new();
        if self.stdout.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed its stdout",
            ));
        }
        let value = serde_json::from_str(&reply).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad reply: {e}"))
        })?;
        Ok((value, reply.len()))
    }

    /// Submits `path` under `key` and polls until its report is ready.
    pub fn analyze(&mut self, path: &str, key: &str) -> std::io::Result<Reply> {
        let (submitted, _) = self.rpc(&json!({"verb": "submit", "path": path, "key": key}))?;
        let Some(id) = submitted["id"].as_i64() else {
            return Ok(Err(error_code(&submitted)));
        };
        loop {
            let (reply, bytes) = self.rpc(&json!({"verb": "report", "id": id}))?;
            if reply["ok"].as_bool() == Some(true) {
                self.reply_bytes += bytes;
                return Ok(Ok(reply));
            }
            let code = error_code(&reply);
            if code != "not-ready" {
                return Ok(Err(code));
            }
            self.polls += 1;
            std::thread::sleep(POLL_BACKOFF);
        }
    }

    /// Asks the daemon to drain and exit, and reaps it.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.rpc(&json!({"verb": "shutdown"}))?;
        drop(self.stdin);
        self.guard.wait().map(|_| ())
    }
}

fn error_code(reply: &Value) -> String {
    reply["error"]["code"]
        .as_str()
        .unwrap_or("malformed-reply")
        .to_owned()
}

/// The key a round submits app `i` under.
pub fn key(edit: bool, round: usize, i: usize) -> String {
    if edit {
        i.to_string()
    } else {
        format!("r{round}:{i}")
    }
}

/// Set-up: spawn `serve` until its first `status` reply, repeated; the
/// median is `setup_s`.
pub fn measure_setup(exe: &Path, reps: usize) -> std::io::Result<Vec<f64>> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut client = Client::spawn(exe)?;
            client.rpc(&json!({"verb": "status"}))?;
            let secs = t.elapsed().as_secs_f64();
            client.shutdown()?;
            Ok(secs)
        })
        .collect()
}

/// The replies of one round that the checks need: the kept ones whole,
/// the rest as defect counts and delta presence.
pub struct RoundReplies {
    pub kept: Vec<(usize, Value)>,
    pub defects: usize,
    pub deltas: usize,
}

/// Sends every app of `round` through the daemon. Records each app's
/// submit→report latency; returns the round's replies, keeping whole
/// the ones `keep` selects.
pub fn run_round(
    client: &mut Client,
    chain: &DevChain,
    round: usize,
    edit: bool,
    keep: &dyn Fn(usize) -> bool,
    latencies_ms: &mut Vec<f64>,
    failed: &mut usize,
) -> std::io::Result<RoundReplies> {
    let mut out = RoundReplies {
        kept: Vec::new(),
        defects: 0,
        deltas: 0,
    };
    for i in 0..chain.apps() {
        let t = Instant::now();
        let reply = client.analyze(chain.path(round, i), &key(edit, round, i))?;
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(reply) => {
                out.defects += reply["defects"].as_i64().unwrap_or(0) as usize;
                out.deltas += usize::from(reply["delta"] != Value::Null);
                if keep(i) {
                    out.kept.push((i, reply));
                }
            }
            Err(_) => *failed += 1,
        }
    }
    Ok(out)
}

/// Checks a round's replies: sampled reports byte-identical to the
/// reference, sampled `dev-edit` deltas equal to `diff_reports` over the
/// reference reports of both versions, a delta on every edit that
/// changed the bundle (and none on a first submission), and the round's
/// defect total equal to the generator oracle's.
pub fn check_round(
    chain: &DevChain,
    round: usize,
    edit: bool,
    replies: &RoundReplies,
    reference: &Reference,
    verdicts: &mut Verdicts,
) {
    // An edit whose bundle bytes did not change is a whole-report hit,
    // which carries no delta.
    let want_deltas = if edit {
        (0..chain.apps())
            .filter(|&i| chain.bytes(round, i) != chain.bytes(round - 1, i))
            .count()
    } else {
        0
    };
    verdicts.check(replies.deltas == want_deltas, || {
        format!(
            "round {round}: {} delta(s), expected {want_deltas}",
            replies.deltas
        )
    });
    verdicts.check(replies.defects == chain.oracle_defects[round], || {
        format!(
            "round {round}: {} defect(s) reported, the oracle expects {}",
            replies.defects, chain.oracle_defects[round]
        )
    });
    for (i, reply) in replies
        .kept
        .iter()
        .filter(|(i, _)| check::sampled(*i, round))
    {
        let bytes = chain.bytes(round, *i);
        let new = reference.report(&bytes);
        let got = reply["report"].as_str();
        verdicts.check(
            new.as_ref().map(check::render).ok().as_deref() == got,
            || format!("round {round}: app {i}: report differs from the reference"),
        );
        if !edit {
            continue;
        }
        let prev_bytes = chain.bytes(round - 1, *i);
        let want = if prev_bytes == bytes {
            Ok(Value::Null)
        } else {
            reference.delta(&key(true, round, *i), &prev_bytes, &bytes)
        };
        verdicts.check(want.as_ref() == Ok(&reply["delta"]), || {
            format!("round {round}: app {i}: delta differs from the reference diff")
        });
    }
}

/// Submits version 0 of every app under its stable key, untimed, so the
/// first timed round edits a known app.
pub fn submit_base(
    client: &mut Client,
    chain: &DevChain,
    failed: &mut usize,
) -> std::io::Result<()> {
    for i in 0..chain.apps() {
        if client.analyze(chain.path(0, i), &key(true, 0, i))?.is_err() {
            *failed += 1;
        }
    }
    Ok(())
}

/// `dev-cold` (`edit == false`) and `dev-edit` (`edit == true`).
pub fn run(
    exe: &Path,
    run_dir: &Path,
    seed: u64,
    sizes: &Sizes,
    edit: bool,
) -> std::io::Result<Outcome> {
    let chain = DevChain::create(&run_dir.join("dev"), seed, sizes.rounds)?;
    let reference = Reference::new();
    let mut verdicts = Verdicts::default();
    let setup = measure_setup(exe, sizes.setups)?;

    let mut client = Client::spawn(exe)?;
    let pid = client.pid();
    let mut failed = 0;
    if edit {
        submit_base(&mut client, &chain, &mut failed)?;
    }
    let mut latencies = Vec::new();
    let mut round_walls = Vec::new();
    let mut round_cpu_ms = Vec::new();
    let mut rounds = Vec::new();
    let mut cpu_mark = sys::proc_cpu_ms(pid).unwrap_or(0.0);
    for round in 1..=sizes.rounds {
        let t = Instant::now();
        let keep = |i| check::sampled(i, round);
        rounds.push(run_round(
            &mut client,
            &chain,
            round,
            edit,
            &keep,
            &mut latencies,
            &mut failed,
        )?);
        round_walls.push(t.elapsed().as_secs_f64());
        let cpu = sys::proc_cpu_ms(pid).unwrap_or(0.0);
        round_cpu_ms.push(cpu - cpu_mark);
        cpu_mark = cpu;
    }
    let peak_rss = sys::proc_peak_rss_mib(pid).unwrap_or(0.0);
    let polls = client.polls;
    let reply_bytes = client.reply_bytes;
    client.shutdown()?;

    verdicts.check(failed == 0, || format!("{failed} request(s) failed"));
    for (k, replies) in rounds.iter().enumerate() {
        check_round(&chain, k + 1, edit, replies, &reference, &mut verdicts);
    }
    let apps = latencies.len();
    let per_app = |total: f64| total / apps.max(1) as f64;
    let wall: f64 = round_walls.iter().sum();
    let cpu_ms: f64 = round_cpu_ms.iter().sum();
    let round_apps = chain.apps() as f64;
    let mut extra = vec![
        Metric::new("peak_rss_mb", "MiB", peak_rss, 1),
        Metric::new("polls_per_app", "count", per_app(polls as f64), apps),
        Metric::new(
            "reply_bytes_per_app",
            "B",
            per_app(reply_bytes as f64),
            apps,
        ),
    ];
    if let Some(p) = tail_percentile(apps) {
        extra.push(Metric::new(
            &format!("latency_p{p}_ms"),
            "ms",
            percentile(&latencies, p).unwrap_or(0.0),
            apps,
        ));
    }
    let n = round_walls.len();
    Ok(Outcome {
        attempted: apps,
        failed,
        verdicts,
        metrics: vec![
            Metric::new("setup_s", "s", median(&setup).unwrap_or(0.0), setup.len()),
            Metric::new("apps_per_s", "apps/s", apps as f64 / wall, n),
            Metric::new("cpu_ms_per_app", "ms", per_app(cpu_ms), n),
            Metric::new(
                "latency_p50_ms",
                "ms",
                median(&latencies).unwrap_or(0.0),
                apps,
            ),
        ],
        extra,
        series: [
            ("setup_s", setup),
            (
                "apps_per_s",
                round_walls.iter().map(|w| round_apps / w).collect(),
            ),
            (
                "cpu_ms_per_app",
                round_cpu_ms.iter().map(|c| c / round_apps).collect(),
            ),
        ]
        .into_iter()
        .collect(),
    })
}
