//! The traced twin: the program's per-app path re-run in process, one
//! public call at a time, in the order `AnalysisService` and
//! `NChecker::analyze_bytes_reusing_fp` make them, with a span around
//! each call. The program's own phase trees (context construction,
//! checkers) are folded in as child spans; no span is added inside the
//! program.
//!
//! The twin must return byte-identical reports to the daemon it mirrors
//! — the check that it takes the same path.

use crate::check::render;
use crate::ledger::Recorder;
use nchecker::cache::{config_fingerprint, AppCacheEntry};
use nchecker::{AnalyzedApp, AppReport, AppReuse, CheckerConfig, NChecker};
use nck_android::apk::Apk;
use nck_netlibs::api::Registry;
use nck_obs::{Events, Metrics, Obs, Tracer};
use nck_svc::{protocol, store::DEFAULT_MEM_BYTES, AnalysisStore, DeltaReport};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Apps between the disk tier's watermark checks: the daemon checks
/// once per dispatched batch, and vet pipelines submits in windows of
/// this size.
const GC_EVERY: usize = 32;

/// What the twin returns per app: the report bytes the daemon would
/// serve, and its delta.
pub struct TwinReply {
    pub report: Arc<String>,
    pub delta: Option<Value>,
}

/// Work counts of a twin run.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwinStats {
    pub apps: usize,
    /// Whole-report hits (memory or disk tier).
    pub hits: usize,
    /// Apps that went through parse/verify/lift/context/checkers.
    pub analyzed: usize,
    pub classes_total: usize,
    pub classes_reused: usize,
    pub deltas: usize,
    pub report_bytes: usize,
    pub reply_bytes: usize,
}

pub struct Twin {
    checker: NChecker,
    registry: Registry,
    store: AnalysisStore,
    config_fp: u64,
    budget: Option<u64>,
    /// Disabled sinks for store calls (the daemon's per-app obs is
    /// always disabled).
    quiet: Obs,
    since_gc: usize,
    pub rec: Recorder,
    pub stats: TwinStats,
    /// `AnalysisStore::with_budgets` plus the first watermark check
    /// (which seeds the disk occupancy estimate with a directory scan).
    pub open_ns: u64,
    /// Reports kept for the wire-codec breakdown sample.
    pub wire_sample: Vec<AppReport>,
    /// Also decode each reply line as `vet`'s orchestrator does before
    /// writing the report out.
    pub decode_replies: bool,
}

impl Twin {
    /// A twin over a fresh store: memory tier only, or with a disk tier
    /// at `disk` under a GC `budget`. `trace` turns spans on.
    pub fn open(disk: Option<PathBuf>, budget: Option<u64>, trace: bool) -> Twin {
        let rec = Recorder::new(trace);
        let quiet = Obs {
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            events: Events::silent(),
        };
        let mut checker = NChecker::with_config(CheckerConfig::default());
        checker.obs = phase_obs(&rec);
        let t = Instant::now();
        let store = AnalysisStore::with_budgets(usize::MAX, DEFAULT_MEM_BYTES, disk);
        if let Some(b) = budget {
            store.maybe_gc_disk(b, &quiet);
        }
        let open_ns = t.elapsed().as_nanos() as u64;
        Twin {
            checker,
            registry: Registry::standard(),
            store,
            config_fp: config_fingerprint(&CheckerConfig::default()),
            budget,
            quiet,
            since_gc: 0,
            rec,
            stats: TwinStats::default(),
            open_ns,
            wire_sample: Vec::new(),
            decode_replies: false,
        }
    }

    pub fn store(&self) -> &AnalysisStore {
        &self.store
    }

    /// One request: app `path` under cache key `key`. `sample` keeps the
    /// report for the wire-codec breakdown.
    pub fn app(
        &mut self,
        request: usize,
        key: &str,
        path: &str,
        sample: bool,
    ) -> Result<TwinReply, String> {
        self.rec.open("app", request);
        let out = self.app_inner(request, key, path, sample);
        self.rec.close();
        self.stats.apps += 1;
        out
    }

    fn app_inner(
        &mut self,
        req: usize,
        key: &str,
        path: &str,
        sample: bool,
    ) -> Result<TwinReply, String> {
        let bytes = self
            .rec
            .time("io.read", req, || std::fs::read(path))
            .map_err(|e| format!("{path}: {e}"))?;
        let bundle_fp = self
            .rec
            .time("svc.bundle_fp", req, || nck_dex::wire::fnv1a(&bytes));
        let prev = self.rec.time("store.mem_lookup", req, || {
            self.store.lookup(key, &self.quiet)
        });

        // Disk tier, consulted only when memory has nothing for the key:
        // an exact fingerprint is a hit (promoted into memory), anything
        // else is the delta base.
        let mut disk_base: Option<(u64, AppReport)> = None;
        if prev.is_none() && self.store.has_disk() {
            let found = self.rec.time("store.disk_lookup", req, || {
                self.store.lookup_disk_any(key, self.config_fp, &self.quiet)
            });
            match found {
                Some((stored, report)) if stored == bundle_fp => {
                    self.store.count_outcome(true, &self.quiet);
                    let entry = AppCacheEntry {
                        bundle_fp,
                        config_fp: self.config_fp,
                        report: report.clone(),
                        ..AppCacheEntry::default()
                    };
                    self.rec.time("store.promote", req, || {
                        self.store.promote(key, entry, &self.quiet)
                    });
                    self.stats.hits += 1;
                    return Ok(self.finish(req, key, bundle_fp, &report, None, sample));
                }
                Some(stale) => disk_base = Some(stale),
                None => {}
            }
        }

        // Rung 1 on the memory tier: identical bundle and config.
        if let Some(p) = prev.as_deref() {
            if p.bundle_fp == bundle_fp && p.config_fp == self.config_fp {
                self.store.count_outcome(true, &self.quiet);
                self.stats.hits += 1;
                let report = p.report.clone();
                return Ok(self.finish(req, key, bundle_fp, &report, None, sample));
            }
        }
        let prev = prev.filter(|p| p.config_fp == self.config_fp);

        let apk = self
            .rec
            .time("dexfile.parse", req, || Apk::from_bytes(&bytes))
            .map_err(|e| format!("{path}: apk: {e}"))?;
        let class_fps = self.rec.time("dexfile.fingerprint", req, || {
            nck_dex::class_fingerprints(&apk.adx)
        });
        let prefix = prev
            .as_deref()
            .map_or(0, |p| p.lift_seed.common_prefix(&class_fps));
        let skip: Vec<bool> = (0..class_fps.len()).map(|i| i < prefix).collect();
        let errors = self.rec.time("dexfile.verify", req, || {
            nck_dex::verify::verify_with_skip(&apk.adx, &skip)
        });
        if !errors.is_empty() {
            // The program would take its degraded cold path; benchmark
            // inputs always verify, so this is a failed request here.
            return Err(format!("{path}: {} verification error(s)", errors.len()));
        }
        let lifted = self
            .rec
            .time("ir.lift", req, || {
                nck_ir::lift::lift_file_seeded(
                    &apk.adx,
                    &class_fps,
                    prev.as_deref().map(|p| &p.lift_seed),
                )
            })
            .map_err(|e| format!("{path}: lift: {e}"))?;
        self.stats.analyzed += 1;
        self.stats.classes_total += class_fps.len();
        self.stats.classes_reused += lifted.reused_classes;

        let reuse = prev.as_deref().map(|p| AppReuse {
            analyses: &p.analyses,
            reused_methods: &lifted.reused_methods,
            callee_fps: &p.callee_fps,
            summary_seed: &p.summary_seed,
        });
        let obs = phase_obs(&self.rec);
        self.rec.open("context.build", req);
        let app = AnalyzedApp::new_reusing(
            apk.manifest.clone(),
            lifted.program,
            &self.registry,
            reuse,
            &obs,
        );
        if let Some(span) = self.rec.close() {
            self.rec.fold(span, &obs.tracer.finish());
        }
        self.rec.open("checks.run", req);
        let mut report = self.checker.analyze(&app);
        if let (Some(span), Some(trace)) = (self.rec.close(), report.trace.take()) {
            self.rec.fold(span, &trace);
        }
        let entry = self.rec.time("svc.entry", req, || AppCacheEntry {
            bundle_fp,
            config_fp: self.config_fp,
            class_fps,
            lift_seed: lifted.seed,
            callee_fps: app.callee_fps().to_vec(),
            analyses: app.analyses_arc().clone(),
            summary_seed: app.summary_seed().clone(),
            report: report.clone(),
        });
        // The program drops the analysis context and parsed bundle here,
        // at the end of `analyze_bytes_reusing_fp`.
        self.rec.time("svc.teardown", req, || drop((app, apk)));
        self.store.count_outcome(false, &self.quiet);
        if lifted.reused_classes > 0 {
            self.store
                .count_replay(lifted.reused_classes as u64, &self.quiet);
        }

        let delta = match (&prev, &disk_base) {
            (Some(p), _) => Some(self.rec.time("delta.diff", req, || {
                nck_svc::diff_reports(key, p.bundle_fp, bundle_fp, &p.report, &report)
            })),
            (None, Some((stored, base))) => Some(self.rec.time("delta.diff", req, || {
                nck_svc::diff_reports(key, *stored, bundle_fp, base, &report)
            })),
            (None, None) => None,
        };
        if delta.is_some() {
            self.store.count_delta(&self.quiet);
            self.stats.deltas += 1;
        }
        self.rec.time("store.insert", req, || {
            self.store.insert(key, entry, &self.quiet)
        });
        // The replaced entry (or stale disk base) is freed when the
        // service's lookup result goes out of scope, before rendering.
        self.rec
            .time("store.release", req, || drop((prev, disk_base)));
        Ok(self.finish(req, key, bundle_fp, &report, delta, sample))
    }

    /// The daemon's `finish_job` and `report` reply: render through the
    /// resident entry's render cell, encode the reply line, and run the
    /// disk tier's watermark check at batch boundaries.
    fn finish(
        &mut self,
        req: usize,
        key: &str,
        bundle_fp: u64,
        report: &AppReport,
        delta: Option<DeltaReport>,
        sample: bool,
    ) -> TwinReply {
        let cell = self.store.render_cell(key, bundle_fp);
        let text = self.rec.time("json.render", req, || match &cell {
            Some(cell) => cell.get_or_render(|| render(report)),
            None => Arc::new(render(report)),
        });
        let (delta, line) = self.rec.time("protocol.encode", req, || {
            let delta = delta.map(|d| d.to_json());
            let line = protocol::render_reply(&json!({
                "ok": true,
                "verb": "report",
                "id": req,
                "key": key,
                "degraded": report.degraded(),
                "defects": report.defects.len(),
                "delta": delta.clone().unwrap_or(Value::Null),
                "report": text.as_str(),
            }));
            (delta, line)
        });
        if self.decode_replies {
            self.rec.time("orchestrator.decode", req, || {
                let reply: Value = serde_json::from_str(&line).expect("reply line parses");
                reply["report"].as_str().map(str::to_owned)
            });
        }
        self.stats.report_bytes += text.len();
        self.stats.reply_bytes += line.len();
        if sample {
            self.wire_sample.push(report.clone());
        }
        self.since_gc += 1;
        if let Some(budget) = self.budget {
            if self.since_gc >= GC_EVERY {
                self.since_gc = 0;
                self.rec.time("store.gc", req, || {
                    self.store.maybe_gc_disk(budget, &self.quiet)
                });
            }
        }
        TwinReply {
            report: text,
            delta,
        }
    }
}

/// Sinks for the program's own phase trees: spans on (on the recorder's
/// epoch, so folded spans share its timeline) exactly when the recorder
/// is on; metrics always off, since a metrics snapshot would change the
/// rendered report.
fn phase_obs(rec: &Recorder) -> Obs {
    Obs {
        tracer: if rec.enabled() {
            Tracer::enabled_with_epoch(rec.epoch())
        } else {
            Tracer::disabled()
        },
        metrics: Metrics::disabled(),
        events: Events::silent(),
    }
}
