//! Content-addressed analysis cache entries.
//!
//! One [`AppCacheEntry`] holds everything a later analysis of an
//! *updated version of the same app* can soundly reuse, keyed by
//! content: the bundle fingerprint for whole-report reuse, per-class
//! fingerprints for prefix replay of verify/lift/per-method dataflow,
//! and per-method call-resolution fingerprints plus the round-0 summary
//! snapshot for seeded interprocedural computation. Entries are only
//! ever written for *clean* (non-degraded) analyses: a degraded run has
//! skipped methods whose behaviour is unknown, which is no foundation to
//! replay anything on.
//!
//! The entry also carries the analysis-configuration fingerprint
//! ([`config_fingerprint`]): toggling any checker or bumping
//! [`ANALYSIS_VERSION`] changes the key, so stale semantics can never be
//! replayed into a differently-configured run.

use crate::checker::{AppReport, CheckerConfig};
use crate::context::MethodAnalysis;
use nck_dataflow::interproc::SummarySeed;
use nck_dex::fingerprint::Fnv;
use nck_ir::body::MethodId;
use nck_ir::lift::LiftSeed;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Version of the analysis semantics. Bump whenever a checker, the
/// lifter, the summary engine, or the report format changes meaning, so
/// persisted cache tiers from older builds miss instead of replaying
/// stale results.
pub const ANALYSIS_VERSION: u32 = 2;

/// Fingerprint of the analysis configuration: every [`CheckerConfig`]
/// toggle plus [`ANALYSIS_VERSION`]. Two runs may share cached results
/// only when these match.
pub fn config_fingerprint(config: &CheckerConfig) -> u64 {
    let mut h = Fnv::new();
    h.u32(ANALYSIS_VERSION);
    for (name, on) in [
        ("connectivity", config.connectivity),
        ("timeout", config.timeout),
        ("retry", config.retry),
        ("retry_params", config.retry_params),
        ("notification", config.notification),
        ("response", config.response),
        ("custom_retry", config.custom_retry),
        ("icc", config.icc),
        ("strict_connectivity", config.strict_connectivity),
        ("interproc", config.interproc),
        ("targeted", false), // retired mode, hashed off so persisted keys still match
    ] {
        h.str(name).u32(u32::from(on));
    }
    match config.strict_caller_depth {
        Some(d) => h.str("strict_caller_depth").u64(d as u64),
        None => h.str("strict_caller_depth_none"),
    };
    h.finish()
}

/// Everything one clean analysis run leaves behind for the next version
/// of the same app.
///
/// Pool-clean runs (the prescan fast path) write *report-only* entries:
/// the fingerprints and the report, with every seed empty. The `Default`
/// impl exists for exactly that shape.
#[derive(Debug, Clone, Default)]
pub struct AppCacheEntry {
    /// FNV-1a of the raw bundle bytes: an exact match (plus config
    /// match) short-circuits to the cached report.
    pub bundle_fp: u64,
    /// The configuration fingerprint this entry was computed under.
    pub config_fp: u64,
    /// Canonical per-class content fingerprints
    /// ([`nck_dex::class_fingerprints`]), in file order.
    pub class_fps: Vec<u64>,
    /// Lift replay data for the class prefix.
    pub lift_seed: LiftSeed,
    /// Per-method call-resolution fingerprints
    /// ([`crate::context::callee_fingerprints`]).
    pub callee_fps: Vec<u64>,
    /// Per-method dataflow artifacts, shared by `Arc` so reuse is a
    /// pointer copy. Memory-tier only: these are derived wholly from the
    /// replayed bodies and are cheap to recompute relative to their
    /// serialized size.
    pub analyses: BTreeMap<MethodId, Arc<MethodAnalysis>>,
    /// Round-0 interprocedural summary snapshot.
    pub summary_seed: SummarySeed,
    /// The finished (unsealed: no trace/metrics) report.
    pub report: AppReport,
}

impl AppCacheEntry {
    /// Approximate resident size of this entry, in bytes.
    ///
    /// Structural accounting, not deep measurement: each retained
    /// artifact class is charged a calibrated per-item cost (a
    /// `MethodAnalysis` holds whatever the run forced: nothing but its
    /// lazy slots for most bodies, a CFG plus per-statement dataflow
    /// facts for some; a lift-seed class holds replayable bodies; a
    /// report defect carries strings and a provenance chain).
    /// Report-only entries hold class fingerprints but no lift seed, so
    /// they pay no per-class share. The absolute numbers are rough by
    /// design — what matters for a byte-budgeted LRU is that an app with
    /// 50× the methods is charged ~50× the bytes, so one batch of huge
    /// apps cannot hide behind an entry-count cap.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 512;
        const PER_CLASS: usize = 384; // lift-seed class: replayable class body
        const PER_CLASS_FP: usize = std::mem::size_of::<u64>();
        // Worst case, a forced CFG + per-stmt dataflow facts; charged
        // whether or not the run forced them, since a later replay may.
        const PER_METHOD_ANALYSIS: usize = 4096;
        const PER_CALLEE_FP: usize = 16;
        const PER_DEFECT: usize = 768; // message, fix, call stack, provenance
        const PER_SKIP: usize = 256;
        ENTRY_OVERHEAD
            + self.class_fps.len() * PER_CLASS_FP
            + self.lift_seed.classes.len() * PER_CLASS
            + self.callee_fps.len() * PER_CALLEE_FP
            + self.analyses.len() * PER_METHOD_ANALYSIS
            + self.report.defects.len() * PER_DEFECT
            + self.report.skipped_methods.len() * PER_SKIP
    }
}

/// Whether a caching analysis builds replay seeds for the next version
/// of the app ([`crate::NChecker::analyze_bytes_reusing_fp`]).
#[derive(Debug, Clone, Copy)]
pub enum Seeds<'a> {
    /// Build them, replaying what the previous entry (if any) still
    /// matches: the entry is a full one.
    Keep(Option<&'a AppCacheEntry>),
    /// Build none: the uncached pipeline runs (no class fingerprints, no
    /// seeded lift) and the entry is report-only. For callers whose
    /// entries no later lookup in the same process can reach.
    Skip,
}

/// What an incremental analysis actually reused, for hit-rate reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReuseStats {
    /// The whole cached report was returned (identical bundle + config).
    pub whole_report: bool,
    /// Classes in the analyzed bundle.
    pub classes_total: usize,
    /// Leading classes replayed from the cache (verify + lift skipped).
    pub classes_reused: usize,
    /// Methods with bodies in the analyzed bundle.
    pub methods_total: usize,
    /// Per-method dataflow artifact sets reused.
    pub analyses_reused: usize,
    /// The analysis degraded, so nothing was reused or written back.
    pub degraded: bool,
}

impl ReuseStats {
    /// Fraction of classes whose verify/lift/dataflow work was reused,
    /// in `[0, 1]`. Whole-report hits count as full reuse.
    pub fn class_hit_rate(&self) -> f64 {
        if self.whole_report {
            return 1.0;
        }
        if self.classes_total == 0 {
            return 0.0;
        }
        self.classes_reused as f64 / self.classes_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fingerprint_is_sensitive_to_every_toggle() {
        let base = CheckerConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base), "deterministic");

        let mut variants: Vec<CheckerConfig> = Vec::new();
        macro_rules! flip {
            ($($field:ident),*) => {
                $( {
                    let mut c = base;
                    c.$field = !c.$field;
                    variants.push(c);
                } )*
            };
        }
        flip!(
            connectivity,
            timeout,
            retry,
            retry_params,
            notification,
            response,
            custom_retry,
            icc,
            strict_connectivity,
            interproc
        );
        let mut c = base;
        c.strict_caller_depth = Some(3);
        variants.push(c);

        let mut fps: Vec<u64> = variants.iter().map(config_fingerprint).collect();
        fps.push(fp);
        let distinct: std::collections::BTreeSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "every toggle moves the key");
    }

    #[test]
    fn approx_bytes_scales_with_retained_artifacts() {
        let empty = AppCacheEntry::default();
        assert!(empty.approx_bytes() > 0, "overhead is always charged");
        let big = AppCacheEntry {
            class_fps: vec![0; 100],
            callee_fps: vec![0; 50],
            ..AppCacheEntry::default()
        };
        assert!(big.approx_bytes() > empty.approx_bytes());
        let bigger = AppCacheEntry {
            class_fps: vec![0; 10_000],
            ..AppCacheEntry::default()
        };
        assert!(
            bigger.approx_bytes() > 50 * empty.approx_bytes(),
            "size scales with artifact counts, not entry count"
        );
    }

    #[test]
    fn report_only_entries_pay_no_lift_seed_share() {
        let mut b = nck_dex::builder::AdxBuilder::new();
        for i in 0..20 {
            b.class(&format!("Lapp/C{i};"), |c| {
                c.method("f", "()V", nck_dex::AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
        }
        let file = b.finish().unwrap();
        let class_fps = nck_dex::class_fingerprints(&file);
        let lifted = nck_ir::lift::lift_file_seeded(&file, &class_fps, None).unwrap();
        let report_only = AppCacheEntry {
            class_fps: class_fps.clone(),
            ..AppCacheEntry::default()
        };
        let seeded = AppCacheEntry {
            class_fps,
            lift_seed: lifted.seed,
            ..AppCacheEntry::default()
        };
        assert!(report_only.approx_bytes() < seeded.approx_bytes());
    }

    #[test]
    fn hit_rate_edges() {
        let mut s = ReuseStats::default();
        assert_eq!(s.class_hit_rate(), 0.0);
        s.whole_report = true;
        assert_eq!(s.class_hit_rate(), 1.0);
        let s = ReuseStats {
            classes_total: 10,
            classes_reused: 9,
            ..ReuseStats::default()
        };
        assert!((s.class_hit_rate() - 0.9).abs() < 1e-9);
    }
}
