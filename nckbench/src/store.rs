//! The store path: `nchecker vet` over a corpus tree, as an app store
//! runs it. `store-cold` is intake (every app a miss, every verdict a
//! disk-tier write); `store-churn` is re-vetting (a seeded 3% of apps
//! ship a new version per wave, the rest are disk-tier hits).

use crate::check::{self, Reference, Verdicts};
use crate::gen::StoreTree;
use crate::stats::median;
use crate::sys::{children_usage, Usage};
use crate::{Metric, Outcome, Sizes};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Worker processes and analysis threads per worker: two single-threaded
/// workers fill the two-core host the benchmark was sized on.
pub const WORKERS: usize = 2;
const JOBS: usize = 1;
/// The disk-tier budget vet enforces (far above what a run writes, so
/// only the budget's occupancy bookkeeping runs, never an eviction).
pub const CACHE_BUDGET: &str = "2G";
pub const CACHE_BUDGET_BYTES: u64 = 2 << 30;
/// Share of apps that ship a new version per churn wave.
pub const CHURN_PCT: f64 = 3.0;

/// What `vet` is asked to vet.
pub enum Inputs<'a> {
    Tree(&'a Path),
    One(&'a str),
}

/// One finished `nchecker vet` process.
pub struct VetRun {
    pub wall_s: f64,
    /// CPU of vet and its workers (all reaped by the time vet exits).
    pub usage: Usage,
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
    /// The `--delta-out` file, when one was asked for.
    pub deltas: Option<String>,
}

/// Runs `nchecker vet` to completion. Stdout and stderr go to files in
/// `dir` (as `vet ... > reports` would), so the program never blocks on
/// the benchmark reading a pipe.
pub fn run_vet(
    exe: &Path,
    dir: &Path,
    cache: &Path,
    inputs: Inputs<'_>,
    delta_out: bool,
    verbose: bool,
) -> std::io::Result<VetRun> {
    let out_path = dir.join("vet.out");
    let err_path = dir.join("vet.err");
    let delta_path = dir.join("vet.deltas");
    let mut cmd = Command::new(exe);
    cmd.arg("vet")
        .args([
            "--workers",
            &WORKERS.to_string(),
            "--jobs",
            &JOBS.to_string(),
        ])
        .arg("--cache-dir")
        .arg(cache)
        .args(["--cache-budget", CACHE_BUDGET]);
    if delta_out {
        cmd.arg("--delta-out").arg(&delta_path);
    }
    if verbose {
        cmd.arg("-v");
    }
    match inputs {
        Inputs::Tree(root) => cmd.arg("--corpus-dir").arg(root),
        Inputs::One(path) => cmd.arg(path),
    };
    cmd.stdin(Stdio::null())
        .stdout(std::fs::File::create(&out_path)?)
        .stderr(std::fs::File::create(&err_path)?);
    let before = children_usage();
    let t = Instant::now();
    let status = cmd.status()?;
    let wall_s = t.elapsed().as_secs_f64();
    let after = children_usage();
    Ok(VetRun {
        wall_s,
        usage: Usage {
            cpu_us: after.cpu_us - before.cpu_us,
            maxrss_kib: after.maxrss_kib,
        },
        ok: status.success(),
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
        deltas: if delta_out {
            Some(std::fs::read_to_string(&delta_path)?)
        } else {
            None
        },
    })
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &Path) -> std::io::Result<PathBuf> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}

/// Checks one vet run over the whole tree: the report count equals the
/// input count, and every sampled report is byte-identical to the
/// reference rendering of the same bytes. Returns the apps with no
/// report.
pub fn check_tree_run(
    run: &VetRun,
    tree: &StoreTree,
    batch: usize,
    reference: &Reference,
    verdicts: &mut Verdicts,
) -> usize {
    let (reports, tail) = check::split_reports(&run.stdout);
    let n = tree.len();
    verdicts.check(reports.len() == n && tail.is_empty(), || {
        format!(
            "batch {batch}: {} report(s) (+{} trailing bytes) for {n} input(s)",
            reports.len(),
            tail.len()
        )
    });
    verdicts.check(run.ok, || {
        format!("batch {batch}: vet failed: {}", run.stderr.trim())
    });
    for (pos, &i) in tree.order.iter().enumerate() {
        let Some(got) = reports.get(pos) else { break };
        if check::sampled(pos, batch) {
            let want = reference.rendered(&tree.bytes(i));
            verdicts.check(want.as_deref() == Ok(*got), || {
                format!(
                    "batch {batch}: {}: report differs from the reference",
                    tree.path(i)
                )
            });
        }
    }
    n.saturating_sub(reports.len())
}

/// Parses `--delta-out` JSONL into `key → delta`.
pub fn parse_deltas(text: &str) -> std::collections::BTreeMap<String, Value> {
    text.lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .filter_map(|v: Value| Some((v["key"].as_str()?.to_owned(), v)))
        .collect()
}

/// Set-up: `vet` over one app, repeated; the median wall is `setup_s`.
/// `cache` gives each repetition its cache directory.
fn measure_setup(
    exe: &Path,
    run_dir: &Path,
    tree: &StoreTree,
    sizes: &Sizes,
    mut cache: impl FnMut(usize) -> std::io::Result<PathBuf>,
    verdicts: &mut Verdicts,
) -> std::io::Result<Vec<f64>> {
    let mut walls = Vec::with_capacity(sizes.setups);
    for k in 0..sizes.setups {
        let app = tree.order[k % tree.len()];
        let cache = cache(k)?;
        let run = run_vet(
            exe,
            run_dir,
            &cache,
            Inputs::One(tree.path(app)),
            false,
            false,
        )?;
        let (reports, _) = check::split_reports(&run.stdout);
        verdicts.check(run.ok && reports.len() == 1, || {
            format!(
                "set-up vet over {} returned {} report(s)",
                tree.path(app),
                reports.len()
            )
        });
        walls.push(run.wall_s);
    }
    Ok(walls)
}

/// Timed vet runs over the whole tree, one per rep or wave.
#[derive(Default)]
struct Batches {
    rates: Vec<f64>,
    walls_ms: Vec<f64>,
    cpu_per_app: Vec<f64>,
    maxrss_kib: u64,
    attempted: usize,
    failed: usize,
}

impl Batches {
    fn add(&mut self, run: &VetRun, apps: usize, failed: usize) {
        let n = apps as f64;
        self.rates.push(n / run.wall_s);
        self.walls_ms.push(run.wall_s * 1e3);
        self.cpu_per_app.push(run.usage.cpu_us as f64 / 1e3 / n);
        self.maxrss_kib = self.maxrss_kib.max(run.usage.maxrss_kib);
        self.attempted += apps;
        self.failed += failed;
    }

    fn outcome(self, verdicts: Verdicts, setup: Vec<f64>) -> Outcome {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let n = self.rates.len();
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            verdicts,
            metrics: vec![
                Metric::new("setup_s", "s", med(&setup), setup.len()),
                Metric::new("apps_per_s", "apps/s", med(&self.rates), n),
                Metric::new("cpu_ms_per_app", "ms", med(&self.cpu_per_app), n),
                Metric::new("latency_p50_ms", "ms", med(&self.walls_ms), n),
            ],
            extra: vec![Metric::new(
                "peak_rss_mb",
                "MiB",
                self.maxrss_kib as f64 / 1024.0,
                n,
            )],
            series: [
                ("setup_s", setup),
                ("apps_per_s", self.rates),
                ("cpu_ms_per_app", self.cpu_per_app),
            ]
            .into_iter()
            .collect(),
        }
    }
}

/// `store-cold`: `reps` one-shot vets of the tree, each into an empty
/// cache directory.
pub fn cold(exe: &Path, run_dir: &Path, seed: u64, sizes: &Sizes) -> std::io::Result<Outcome> {
    let tree = StoreTree::create(&run_dir.join("tree"), seed, sizes.store_apps)?;
    let reference = Reference::new();
    let mut verdicts = Verdicts::default();
    let setup = measure_setup(
        exe,
        run_dir,
        &tree,
        sizes,
        |k| fresh_dir(&run_dir.join(format!("setup-cache-{k}"))),
        &mut verdicts,
    )?;
    let mut batches = Batches::default();
    for rep in 0..sizes.reps {
        let cache = fresh_dir(&run_dir.join("cache"))?;
        let run = run_vet(exe, run_dir, &cache, Inputs::Tree(&tree.root), false, false)?;
        let failed = check_tree_run(&run, &tree, rep, &reference, &mut verdicts);
        batches.add(&run, tree.len(), failed);
    }
    Ok(batches.outcome(verdicts, setup))
}

/// `store-churn`: one untimed cold vet warms the cache, then each wave
/// churns 3% of the apps on disk and re-vets the whole tree.
pub fn churn(exe: &Path, run_dir: &Path, seed: u64, sizes: &Sizes) -> std::io::Result<Outcome> {
    let mut tree = StoreTree::create(&run_dir.join("tree"), seed, sizes.store_apps)?;
    let reference = Reference::new();
    let mut verdicts = Verdicts::default();
    let cache = fresh_dir(&run_dir.join("cache"))?;
    let warm = run_vet(exe, run_dir, &cache, Inputs::Tree(&tree.root), false, false)?;
    let warm_failed = check_tree_run(&warm, &tree, 0, &reference, &mut verdicts);
    verdicts.check(warm_failed == 0, || {
        format!("warm-up vet lost {warm_failed} report(s)")
    });
    let setup = measure_setup(
        exe,
        run_dir,
        &tree,
        sizes,
        |_| Ok(cache.clone()),
        &mut verdicts,
    )?;
    let mut batches = Batches::default();
    for wave in 1..=sizes.waves {
        let churned = tree.churn(wave, CHURN_PCT)?;
        let run = run_vet(exe, run_dir, &cache, Inputs::Tree(&tree.root), true, false)?;
        let failed = check_tree_run(&run, &tree, wave, &reference, &mut verdicts);
        check_deltas(&run, &tree, &churned, wave, &reference, &mut verdicts);
        batches.add(&run, tree.len(), failed);
    }
    Ok(batches.outcome(verdicts, setup))
}

/// Every churned app whose bytes changed, and only those, gets a delta;
/// sampled deltas equal `diff_reports` over the reference reports of
/// both versions.
pub fn check_deltas(
    run: &VetRun,
    tree: &StoreTree,
    churned: &[(usize, Vec<u8>)],
    wave: usize,
    reference: &Reference,
    verdicts: &mut Verdicts,
) {
    let deltas = parse_deltas(run.deltas.as_deref().unwrap_or(""));
    // A new version whose bytes equal the old ones is a plain hit.
    let changed = churned
        .iter()
        .filter(|(i, prev)| tree.bytes(*i) != *prev)
        .count();
    verdicts.check(deltas.len() == changed, || {
        format!(
            "wave {wave}: {} delta(s) for {changed} changed app(s)",
            deltas.len()
        )
    });
    for (k, (i, prev_bytes)) in churned.iter().enumerate() {
        if !check::sampled(k, wave) {
            continue;
        }
        let key = tree.path(*i);
        let bytes = tree.bytes(*i);
        // An unchanged bundle is a plain hit, with no delta.
        let want = if *prev_bytes == bytes {
            Ok(None)
        } else {
            reference.delta(key, prev_bytes, &bytes).map(Some)
        };
        verdicts.check(
            want.as_ref().map(Option::as_ref) == Ok(deltas.get(key)),
            || format!("wave {wave}: {key}: delta differs from the reference diff"),
        );
    }
}
