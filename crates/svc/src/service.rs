//! The batch analysis service: worker pool + analysis cache + checker.
//!
//! One [`AnalysisService`] owns a configured checker template, a
//! two-tier [`AnalysisStore`], and a pool size. A batch is one pass on
//! [`run_in_order`]: a worker claims the next app in input order, loads
//! its bundle, analyzes it on a checker of its own and drops it, and
//! each outcome reaches the caller in input order as it finishes. The
//! pool is the one panic boundary: an app whose analysis panics fails
//! alone ([`AnalyzeError::Panic`]). `serve` runs the same worker loop
//! over its queue. Callers feed it keyed
//! bundles (the key is the app's stable identity across versions —
//! package name, file path, corpus index) and get reports plus cache
//! statistics back. The cache has two rungs: an identical bundle under
//! an identical configuration is served its cached report, and anything
//! else runs the one uncached pipeline. Feeding it a *new version* of a
//! previously analyzed key also yields a defect delta against the
//! previous version's report.
//!
//! Degraded apps (any skipped method) bypass the cache write path
//! entirely: their entries would record unknown behaviour as cached
//! truth.

use crate::delta::{diff_reports, DeltaReport};
use crate::pool::run_in_order;
use crate::store::{render_json, AnalysisStore, RenderCell, StoredEntry};
use nchecker::cache::{config_fingerprint, AppCacheEntry};
use nchecker::{AnalyzeError, AppReport, CheckerConfig, NChecker};
use nck_obs::Obs;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// One analyzed app: the report (or failure) plus what the cache did.
#[derive(Debug)]
pub struct AppOutcome {
    /// The analysis result.
    pub report: Result<ServedReport, AnalyzeError>,
    /// Whether the cache served the whole report (either tier).
    pub hit: bool,
    /// The defect delta against the previous version of this key, when
    /// the key was seen before (either cache tier) and the bundle
    /// changed. `None` on first submission, identical resubmission
    /// (whole-report reuse — nothing changed), failure, and degraded
    /// runs (an incomplete report would produce phantom "fixes").
    pub delta: Option<DeltaReport>,
}

impl AppOutcome {
    /// The outcome of an app whose analysis panicked and was caught by
    /// the pool.
    pub(crate) fn panicked(message: String) -> AppOutcome {
        AppOutcome {
            report: Err(AnalyzeError::Panic(message)),
            hit: false,
            delta: None,
        }
    }
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
    /// report came from (or was recorded as); without a memory tier, a
    /// cell holding the bytes its disk record stores. Only attached when
    /// the report carries no per-app metrics, so the cell's bytes —
    /// rendered from the unsealed entry — are this report's bytes.
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
    /// Apps that degraded and bypassed the cache.
    pub degraded: usize,
}

impl BatchCacheStats {
    /// Adds one outcome: a finished report counts as a hit or a miss,
    /// and as degraded when it is; a failure counts in none.
    pub fn count(&mut self, outcome: &AppOutcome) {
        if let Ok(report) = &outcome.report {
            self.hits += usize::from(outcome.hit);
            self.misses += usize::from(!outcome.hit);
            self.degraded += usize::from(report.degraded());
        }
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
    /// (`None` = [`crate::store::DEFAULT_MEM_BYTES`]). `Some(0)` keeps
    /// no memory tier: entries go to the disk tier alone. That suits a
    /// process that runs one batch, where no later lookup could hit.
    pub mem_budget: Option<usize>,
    /// Disk-tier byte budget: when set, every batch ends (and `serve`
    /// runs one whenever its queue drains) with a watermark-gated
    /// [`AnalysisStore::maybe_gc_disk`] — a skipped check while under
    /// budget, a collection down to the low watermark once occupancy
    /// crosses it.
    pub cache_budget: Option<u64>,
}

/// The batch-analysis service.
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
            store: AnalysisStore::with_budgets(
                0,
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

    /// Analyzes one keyed bundle through the cache: a one-app batch, on
    /// the calling thread.
    pub fn analyze_one(&self, key: &str, bytes: &[u8]) -> AppOutcome {
        let mut outcomes = self.analyze_batch(&[(key.to_owned(), bytes.to_vec())]);
        outcomes.pop().expect("a one-app batch emits its app")
    }

    /// Analyzes a batch of keyed bundles on the worker pool and collects
    /// the outcomes in input order.
    pub fn analyze_batch(&self, items: &[(String, Vec<u8>)]) -> Vec<AppOutcome> {
        let mut outcomes = Vec::with_capacity(items.len());
        let item = |i: usize| Ok::<_, Infallible>((items[i].0.as_str(), &items[i].1));
        self.analyze_each(items.len(), item, false, |_, outcome| {
            let Ok(outcome) = outcome;
            outcomes.push(outcome);
            ControlFlow::Continue(())
        });
        outcomes
    }

    /// Analyzes apps `0..n` in one pass over the worker pool. The worker
    /// that claims app `i` calls `load(i)` for its key and bundle,
    /// analyzes it and drops the bundle; `emit` receives each outcome in
    /// input order, or the error that kept the app from loading. A
    /// panicking analysis reports [`AnalyzeError::Panic`]. With
    /// `fail_fast`, the first app that fails to load or analyze ends the
    /// batch: no later app is claimed, and `emit` sees it last. An `emit`
    /// that breaks ends the batch after that app. The budgeted disk GC
    /// runs once, at the end.
    pub fn analyze_each<'k, B: AsRef<[u8]>, E: Send>(
        &self,
        n: usize,
        load: impl Fn(usize) -> Result<(&'k str, B), E> + Sync,
        fail_fast: bool,
        mut emit: impl FnMut(usize, Result<AppOutcome, E>) -> ControlFlow<()> + Send,
    ) {
        run_in_order(
            n,
            self.jobs,
            || self.make_checker(),
            |checker, i| {
                let (key, bytes) = load(i)?;
                Ok(self.analyze_with_checker(checker, key, bytes.as_ref()))
            },
            |result| fail_fast && !matches!(result, Ok(Ok(o)) if o.report.is_ok()),
            |i, result| emit(i, result.unwrap_or_else(|e| Ok(AppOutcome::panicked(e)))),
        );
        self.collect_garbage();
    }

    /// Auto-GC: a budgeted service never lets the disk tier grow
    /// unbounded across batches. Watermark-gated, but not free: the
    /// occupancy check refreshes the disk index, which lists the cache
    /// directory. So it runs once per batch (for `serve`, whenever its
    /// queue drains), never once per app. A no-op without a budget.
    pub(crate) fn collect_garbage(&self) {
        if let Some(budget) = self.cache_budget {
            self.store.maybe_gc_disk(budget, &self.obs.fresh());
        }
    }

    /// Folds a batch's outcomes into aggregate cache stats.
    pub fn batch_stats(outcomes: &[AppOutcome]) -> BatchCacheStats {
        let mut stats = BatchCacheStats::default();
        for o in outcomes {
            stats.count(o);
        }
        stats
    }

    /// A configured checker, as each pool worker keeps one.
    pub(crate) fn make_checker(&self) -> NChecker {
        let mut checker = NChecker::with_config(self.config);
        checker.obs = self.obs.fresh();
        checker
    }

    /// Analyzes one keyed bundle through the cache on a worker's checker.
    /// A panic in the pipeline unwinds to the pool, which contains it.
    pub(crate) fn analyze_with_checker(
        &self,
        checker: &NChecker,
        key: &str,
        bytes: &[u8],
    ) -> AppOutcome {
        let svc_obs = self.obs.fresh();

        if self.no_cache {
            return AppOutcome {
                report: checker
                    .analyze_bytes(bytes)
                    .map(|r| ServedReport::decoded(r, None)),
                hit: false,
                delta: None,
            };
        }

        // The bundle is hashed exactly once per lookup: this same
        // fingerprint gates the memory tier, the disk tier, and the
        // recorded entry.
        let bundle_fp = nck_dex::wire::fnv1a(bytes);
        let prev = self
            .store
            .lookup(key, &svc_obs)
            .filter(|p| p.config_fp == self.config_fp);

        // Rung 1 on the memory tier: identical bundle and configuration
        // serve the cached report; its entry stays resident, so its
        // render cell serves the bytes.
        if let Some(p) = prev.as_deref().filter(|p| p.bundle_fp == bundle_fp) {
            self.store.count_outcome(true, &svc_obs);
            let rendered = (!svc_obs.metrics.is_enabled())
                .then(|| self.store.render_cell(key, bundle_fp))
                .flatten();
            return AppOutcome {
                report: Ok(ServedReport::decoded(
                    self.stamp(checker.sealed(&p.report), &svc_obs),
                    rendered,
                )),
                hit: true,
                delta: None,
            };
        }

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
                        hit: true,
                        delta: None,
                    };
                }
                Some(stale) => disk_base = Some((stale.bundle_fp, stale.decode())),
                None => {}
            }
        }

        self.store.count_outcome(false, &svc_obs);
        let report = match checker.analyze_bytes(bytes) {
            Ok(report) => report,
            Err(e) => {
                return AppOutcome {
                    report: Err(e),
                    hit: false,
                    delta: None,
                }
            }
        };
        if report.degraded() {
            // An incomplete report is neither cached nor diffed: diffing
            // it would invent fixes.
            return AppOutcome {
                report: Ok(ServedReport::decoded(self.stamp(report, &svc_obs), None)),
                hit: false,
                delta: None,
            };
        }

        // Defect delta: a known key whose bundle changed. The previous
        // report comes from whichever tier held it; the fingerprints
        // ride along from the cache entries — no hashing is spent on
        // delta detection itself.
        let delta = match (&prev, &disk_base) {
            (Some(p), _) => Some(diff_reports(
                key,
                p.bundle_fp,
                bundle_fp,
                &p.report,
                &report,
            )),
            (None, Some((stored_fp, base))) => {
                Some(diff_reports(key, *stored_fp, bundle_fp, base, &report))
            }
            (None, None) => None,
        };
        if delta.is_some() {
            self.store.count_delta(&svc_obs);
        }
        // The entry holds the report unsealed: no trace, no metrics.
        let entry = AppCacheEntry {
            bundle_fp,
            config_fp: self.config_fp,
            report: AppReport {
                trace: None,
                metrics: None,
                ..report.clone()
            },
            ..AppCacheEntry::default()
        };
        let stored_json = self.store.insert(key, entry, &svc_obs);
        // The new resident entry's render cell; without a memory tier,
        // the bytes the disk record stores, so the report is rendered
        // once either way.
        let rendered = (!svc_obs.metrics.is_enabled())
            .then(|| {
                self.store
                    .render_cell(key, bundle_fp)
                    .or_else(|| stored_json.map(|json| Arc::new(RenderCell::filled(json))))
            })
            .flatten();
        AppOutcome {
            report: Ok(ServedReport::decoded(
                self.stamp(report, &svc_obs),
                rendered,
            )),
            hit: false,
            delta,
        }
    }

    /// Merges the service-level metrics (the cache counters)
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
