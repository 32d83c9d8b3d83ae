//! The batch analysis service: worker pool + analysis cache + checker.
//!
//! One [`AnalysisService`] owns a configured checker template, a
//! two-tier [`AnalysisStore`], and a pool size; callers feed it keyed
//! bundles (the key is the app's stable identity across versions —
//! package name, file path, corpus index) and get reports plus reuse
//! statistics back. Feeding it a *new version* of a previously analyzed
//! key is the incremental path: unchanged class prefixes replay, dirty
//! methods recompute, and the report is byte-identical to a cold run.
//!
//! Degraded apps (any skipped method) bypass the cache write path
//! entirely: their entries would record unknown behaviour as replayable
//! truth.

use crate::delta::{diff_reports, DeltaReport};
use crate::pool::run_pool;
use crate::store::{render_json, AnalysisStore, RenderCell, StoredEntry};
use nchecker::cache::{config_fingerprint, ReuseStats};
use nchecker::{AnalyzeError, AppReport, CheckerConfig, NChecker};
use nck_obs::Obs;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// One analyzed app: the report (or failure) plus what the cache did.
#[derive(Debug)]
pub struct AppOutcome {
    /// The analysis result.
    pub report: Result<ServedReport, AnalyzeError>,
    /// Cache/reuse accounting for this app.
    pub reuse: ReuseStats,
    /// The defect delta against the previous version of this key, when
    /// the key was seen before (either cache tier) and the bundle
    /// changed. `None` on first submission, identical resubmission
    /// (whole-report reuse — nothing changed), failure, and degraded
    /// runs (an incomplete report would produce phantom "fixes").
    pub delta: Option<DeltaReport>,
}

/// A finished app's report as the service hands it out.
///
/// Misses and memory hits carry the decoded [`AppReport`]. A disk-tier
/// hit carries the stored entry instead: [`ServedReport::json`] serves
/// its one-shot `--json` bytes as they are, and the structured report is
/// decoded from the entry only when a consumer dereferences it (text and
/// summary output, tests).
#[derive(Debug)]
pub struct ServedReport {
    report: OnceLock<AppReport>,
    /// The disk entry of a hit, decoded into `report` on first deref.
    stored: Option<StoredEntry>,
    /// Render-memoization cell shared with the memory-tier entry this
    /// report came from (or was recorded as). Only attached when the
    /// report carries no per-app metrics, so the cell's bytes — rendered
    /// from the unsealed entry — are this report's bytes.
    rendered: Option<Arc<RenderCell>>,
}

impl ServedReport {
    fn decoded(report: AppReport, rendered: Option<Arc<RenderCell>>) -> ServedReport {
        ServedReport {
            report: OnceLock::from(report),
            stored: None,
            rendered,
        }
    }

    fn stored(entry: StoredEntry) -> ServedReport {
        ServedReport {
            report: OnceLock::new(),
            stored: Some(entry),
            rendered: None,
        }
    }

    /// The report's one-shot `--json` bytes (pretty JSON plus trailing
    /// newline): a disk hit's stored bytes, the resident entry's
    /// memoized rendering, or a fresh rendering.
    pub fn json(&self) -> Arc<String> {
        if let Some(entry) = &self.stored {
            return Arc::clone(&entry.json);
        }
        match &self.rendered {
            Some(cell) => cell.get_or_render(|| render_json(self)),
            None => Arc::new(render_json(self)),
        }
    }

    /// Defects in the report, without decoding a stored one.
    pub fn defects(&self) -> usize {
        match (&self.stored, self.report.get()) {
            (_, Some(report)) => report.defects.len(),
            (Some(entry), None) => entry.defects,
            (None, None) => unreachable!("a served report is decoded or stored"),
        }
    }

    /// Whether the analysis degraded. Stored entries never are: degraded
    /// apps bypass the cache.
    pub fn degraded(&self) -> bool {
        self.report.get().is_some_and(AppReport::degraded)
    }

    /// Whether the structured report has been materialized (always, for
    /// a miss or memory hit; after the first deref, for a disk hit).
    pub fn is_decoded(&self) -> bool {
        self.report.get().is_some()
    }
}

impl std::ops::Deref for ServedReport {
    type Target = AppReport;

    fn deref(&self) -> &AppReport {
        self.report.get_or_init(|| {
            self.stored
                .as_ref()
                .expect("a served report is decoded or stored")
                .decode()
        })
    }
}

/// Aggregate cache accounting for a batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCacheStats {
    /// Apps served whole from the cache (memory or disk tier).
    pub hits: usize,
    /// Apps analyzed (fully or partially) this run.
    pub misses: usize,
    /// Classes replayed from cached prefixes, across all apps.
    pub classes_reused: usize,
    /// Classes analyzed, across all apps.
    pub classes_total: usize,
    /// Apps that degraded and bypassed the cache.
    pub degraded: usize,
}

impl BatchCacheStats {
    fn absorb(&mut self, r: &ReuseStats) {
        if r.whole_report {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.classes_reused += r.classes_reused;
        self.classes_total += r.classes_total;
        self.degraded += usize::from(r.degraded);
    }

    /// Whole-report hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Class-level reuse rate in `[0, 1]` (hits count their classes as
    /// reused via the per-app stats).
    pub fn class_reuse_rate(&self) -> f64 {
        if self.classes_total == 0 {
            0.0
        } else {
            self.classes_reused as f64 / self.classes_total as f64
        }
    }
}

/// Construction options for [`AnalysisService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Checker toggles.
    pub config: CheckerConfig,
    /// Worker count override (`None` = [`crate::pool::default_workers`]).
    pub jobs: Option<usize>,
    /// Disk cache directory (`None` = memory tier only).
    pub cache_dir: Option<PathBuf>,
    /// Disable the cache entirely (lookups and writes).
    pub no_cache: bool,
    /// Memory-tier byte budget override
    /// (`None` = [`crate::store::DEFAULT_MEM_BYTES`]).
    pub mem_budget: Option<usize>,
    /// Disk-tier byte budget: when set, every batch ends with a
    /// watermark-gated [`AnalysisStore::maybe_gc_disk`] — a skipped
    /// check while under budget, a collection down to the low
    /// watermark once occupancy crosses it.
    pub cache_budget: Option<u64>,
}

/// The sharded batch-analysis service.
pub struct AnalysisService {
    config: CheckerConfig,
    /// [`config_fingerprint`] of `config`, computed once — it gates
    /// every disk lookup and never changes for a built service.
    config_fp: u64,
    obs: Obs,
    store: AnalysisStore,
    jobs: Option<usize>,
    no_cache: bool,
    cache_budget: Option<u64>,
}

impl AnalysisService {
    /// Builds a service; `obs` is the observability template every app
    /// derives fresh sinks from.
    pub fn new(options: ServiceOptions, obs: Obs) -> AnalysisService {
        AnalysisService {
            config: options.config,
            config_fp: config_fingerprint(&options.config),
            // The byte budget is the service's memory-tier cap; an
            // entry-count cap on top would silently shrink the tier to
            // 256 apps and push every hit beyond that to the disk tier
            // (a ~100x slower lookup) long before memory is at risk.
            store: AnalysisStore::with_budgets(
                usize::MAX,
                options
                    .mem_budget
                    .unwrap_or(crate::store::DEFAULT_MEM_BYTES),
                options.cache_dir,
            ),
            jobs: options.jobs,
            no_cache: options.no_cache,
            cache_budget: options.cache_budget,
            obs,
        }
    }

    /// The underlying store (for tests and introspection).
    pub fn store(&self) -> &AnalysisStore {
        &self.store
    }

    /// Analyzes one keyed bundle through the cache.
    pub fn analyze_one(&self, key: &str, bytes: &[u8]) -> AppOutcome {
        let checker = self.make_checker();
        self.analyze_with_checker(&checker, key, bytes)
    }

    /// Analyzes a batch of keyed bundles on the worker pool, preserving
    /// input order. Panicking apps (contained) report
    /// [`AnalyzeError::Panic`].
    pub fn analyze_batch(&self, items: &[(String, Vec<u8>)]) -> Vec<AppOutcome> {
        let outcomes = run_pool(
            items.len(),
            self.jobs,
            || self.make_checker(),
            |checker, i| {
                let (key, bytes) = &items[i];
                self.analyze_with_checker(checker, key, bytes)
            },
        );
        let outcomes: Vec<AppOutcome> = outcomes
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| AppOutcome {
                    report: Err(AnalyzeError::Panic(
                        "worker died before writing a result".to_owned(),
                    )),
                    reuse: ReuseStats::default(),
                    delta: None,
                })
            })
            .collect();
        // Auto-GC: a budgeted service never lets the disk tier grow
        // unbounded across batches. Watermark-gated — while the live
        // occupancy estimate is under budget this is one atomic load,
        // not a directory rescan.
        if let Some(budget) = self.cache_budget {
            self.store.maybe_gc_disk(budget, &self.obs.fresh());
        }
        outcomes
    }

    /// Folds a batch's outcomes into aggregate cache stats.
    pub fn batch_stats(outcomes: &[AppOutcome]) -> BatchCacheStats {
        let mut stats = BatchCacheStats::default();
        for o in outcomes {
            if o.report.is_ok() {
                stats.absorb(&o.reuse);
            }
        }
        stats
    }

    fn make_checker(&self) -> NChecker {
        let mut checker = NChecker::with_config(self.config);
        checker.obs = self.obs.fresh();
        checker
    }

    fn analyze_with_checker(&self, checker: &NChecker, key: &str, bytes: &[u8]) -> AppOutcome {
        let svc_obs = self.obs.fresh();

        if self.no_cache {
            return AppOutcome {
                report: checker
                    .analyze_bytes_checked(bytes)
                    .map(|r| ServedReport::decoded(r, None)),
                reuse: ReuseStats::default(),
                delta: None,
            };
        }

        // The bundle is hashed exactly once per lookup: this same
        // fingerprint gates the memory tier (inside
        // `analyze_bytes_reusing_fp`), the disk tier, and the recorded
        // entry.
        let bundle_fp = nck_dex::wire::fnv1a(bytes);
        let prev = self.store.lookup(key, &svc_obs);

        // Disk tier: only consulted when the memory tier has nothing for
        // this key (a memory entry subsumes its own disk twin). An exact
        // fingerprint match is a whole-report hit served from the
        // entry's stored bytes — not decoded, rendered, or promoted into
        // the memory tier. A *stale* entry (same key, different bundle —
        // a resubmitted version) becomes the delta base, so version
        // diffs survive process restarts.
        let mut disk_base: Option<(u64, AppReport)> = None;
        if prev.is_none() && self.store.has_disk() {
            match self.store.lookup_disk_entry(key, self.config_fp, &svc_obs) {
                Some(entry) if entry.bundle_fp == bundle_fp => {
                    self.store.count_outcome(true, &svc_obs);
                    // Per-app metrics are sealed into the report, so the
                    // stored bytes (rendered without them) cannot serve.
                    let report = if svc_obs.metrics.is_enabled() {
                        ServedReport::decoded(self.stamp(entry.decode(), &svc_obs), None)
                    } else {
                        ServedReport::stored(entry)
                    };
                    return AppOutcome {
                        report: Ok(report),
                        reuse: ReuseStats {
                            whole_report: true,
                            ..ReuseStats::default()
                        },
                        delta: None,
                    };
                }
                Some(stale) => disk_base = Some((stale.bundle_fp, stale.decode())),
                None => {}
            }
        }

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checker.analyze_bytes_reusing_fp(bytes, bundle_fp, prev.as_deref())
        }))
        .unwrap_or_else(|payload| Err(AnalyzeError::from_panic(payload)));

        match result {
            Ok((report, entry, reuse)) => {
                self.store.count_outcome(reuse.whole_report, &svc_obs);
                if !reuse.whole_report && reuse.classes_reused > 0 {
                    // Rung 2 of the incremental ladder: class-prefix
                    // replay on a whole-report miss.
                    self.store
                        .count_replay(reuse.classes_reused as u64, &svc_obs);
                }
                // Defect delta: a known key whose bundle changed. The
                // previous report comes from whichever tier held it; the
                // fingerprints ride along from the cache entries — no
                // hashing is spent on delta detection itself. Clean runs
                // only (`entry` is `Some` exactly then): diffing against
                // an incomplete report would invent fixes.
                let delta = match (&entry, reuse.whole_report) {
                    (Some(entry), false) => match (&prev, &disk_base) {
                        (Some(p), _) => Some(diff_reports(
                            key,
                            p.bundle_fp,
                            entry.bundle_fp,
                            &p.report,
                            &report,
                        )),
                        (None, Some((stored_fp, base))) => Some(diff_reports(
                            key,
                            *stored_fp,
                            entry.bundle_fp,
                            base,
                            &report,
                        )),
                        (None, None) => None,
                    },
                    _ => None,
                };
                if delta.is_some() {
                    self.store.count_delta(&svc_obs);
                }
                if let Some(entry) = entry {
                    debug_assert!(
                        !entry.report.degraded(),
                        "degraded apps must bypass the cache write path"
                    );
                    self.store.insert(key, entry, &svc_obs);
                }
                // The resident entry's render cell — present after an
                // insert, and on a rung-1 memory hit (the entry that
                // served it is still resident with this fingerprint).
                let rendered = (!svc_obs.metrics.is_enabled())
                    .then(|| self.store.render_cell(key, bundle_fp))
                    .flatten();
                AppOutcome {
                    report: Ok(ServedReport::decoded(
                        self.stamp(report, &svc_obs),
                        rendered,
                    )),
                    reuse,
                    delta,
                }
            }
            Err(e) => {
                self.store.count_outcome(false, &svc_obs);
                AppOutcome {
                    report: Err(e),
                    reuse: ReuseStats::default(),
                    delta: None,
                }
            }
        }
    }

    /// Merges the service-level metrics (cache counters, lookup spans)
    /// into the report's snapshot so `--json` exports carry
    /// `svc.cache.*` under the schema-v1 `"metrics"` key. No-op when
    /// metrics are disabled (keeping cold/warm reports byte-identical in
    /// benchmark mode).
    fn stamp(&self, mut report: AppReport, svc_obs: &Obs) -> AppReport {
        if svc_obs.metrics.is_enabled() {
            let snap = svc_obs.metrics.snapshot();
            match report.metrics.as_mut() {
                Some(m) => m.merge(&snap),
                None => report.metrics = Some(snap),
            }
        }
        report
    }
}
