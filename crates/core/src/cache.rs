//! Content-addressed analysis cache entries.
//!
//! One [`AppCacheEntry`] is what a later request for the same app key
//! can reuse: the report of an identical bundle (rung 1), or the
//! previous version's report as the base of a defect delta. Entries are
//! report-only — bundle fingerprint, configuration fingerprint and
//! report — and every cache miss runs the one uncached pipeline. They
//! are only ever written for *clean* (non-degraded) analyses: a
//! degraded run skipped methods whose behaviour is unknown.
//!
//! The entry carries the analysis-configuration fingerprint
//! ([`config_fingerprint`]): changing any option or bumping
//! [`ANALYSIS_VERSION`] changes the key, so a report computed under
//! other semantics is never served.

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
/// persisted cache tiers from older builds miss instead of serving
/// stale results.
pub const ANALYSIS_VERSION: u32 = 3;

/// Fingerprint of the analysis configuration: every [`CheckerConfig`]
/// option plus [`ANALYSIS_VERSION`]. Two runs may share cached results
/// only when these match.
pub fn config_fingerprint(config: &CheckerConfig) -> u64 {
    let mut h = Fnv::new();
    h.u32(ANALYSIS_VERSION);
    for (name, on) in [
        ("custom_retry", config.custom_retry),
        ("icc", config.icc),
        ("strict_connectivity", config.strict_connectivity),
        ("interproc", config.interproc),
    ] {
        h.str(name).u32(u32::from(on));
    }
    match config.strict_caller_depth {
        Some(d) => h.str("strict_caller_depth").u64(d as u64),
        None => h.str("strict_caller_depth_none"),
    };
    h.finish()
}

/// What one clean analysis run leaves behind for the next request of
/// the same app key: the fingerprints and the report.
///
/// The program builds every entry with its seed fields (`class_fps`,
/// `lift_seed`, `callee_fps`, `analyses`, `summary_seed`) at their
/// defaults. They exist only for nckbench's traced twin, which still
/// fills them (DESIGN.md, "What nckbench pins").
#[derive(Debug, Clone, Default)]
pub struct AppCacheEntry {
    /// FNV-1a of the raw bundle bytes: an exact match (plus config
    /// match) short-circuits to the cached report.
    pub bundle_fp: u64,
    /// The configuration fingerprint this entry was computed under.
    pub config_fp: u64,
    /// Per-class content fingerprints (empty; twin only).
    pub class_fps: Vec<u64>,
    /// Lift seed (empty; twin only).
    pub lift_seed: LiftSeed,
    /// Per-method call-resolution fingerprints (empty; twin only).
    pub callee_fps: Vec<u64>,
    /// Per-method dataflow artifacts (empty; twin only).
    pub analyses: BTreeMap<MethodId, Arc<MethodAnalysis>>,
    /// Summary seed (empty; twin only).
    pub summary_seed: SummarySeed,
    /// The finished (unsealed: no trace/metrics) report.
    pub report: AppReport,
}

impl AppCacheEntry {
    /// Approximate resident size of this entry, in bytes.
    ///
    /// Structural accounting, not deep measurement: each retained
    /// artifact is charged a calibrated per-item cost (a report defect
    /// carries strings and a provenance chain; a `MethodAnalysis` holds
    /// whatever its run forced). A resident entry also holds its
    /// rendered `--json` bytes once a reply asks for them, so the
    /// overhead and per-defect costs include those: 0.5 KB for an empty
    /// report, and 1.5 KB per defect measured over the 285-app corpus.
    /// The absolute numbers are rough by design — what matters for a
    /// byte-budgeted LRU is that an entry holding 50× the artifacts is
    /// charged ~50× the bytes, so one batch of huge apps evicts as much
    /// as it holds.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 1024;
        const PER_CLASS_FP: usize = std::mem::size_of::<u64>();
        // Worst case, a forced CFG + per-stmt dataflow facts.
        const PER_METHOD_ANALYSIS: usize = 4096;
        const PER_CALLEE_FP: usize = 16;
        // Message, fix, call stack and provenance, then their rendering.
        const PER_DEFECT: usize = 1536 + 1536;
        const PER_SKIP: usize = 256;
        ENTRY_OVERHEAD
            + self.class_fps.len() * PER_CLASS_FP
            + self.callee_fps.len() * PER_CALLEE_FP
            + self.analyses.len() * PER_METHOD_ANALYSIS
            + self.report.defects.len() * PER_DEFECT
            + self.report.skipped_methods.len() * PER_SKIP
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
        flip!(custom_retry, icc, strict_connectivity, interproc);
        let mut c = base;
        c.strict_caller_depth = Some(3);
        variants.push(c);

        let mut fps: Vec<u64> = variants.iter().map(config_fingerprint).collect();
        fps.push(fp);
        let distinct: std::collections::BTreeSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "every option moves the key");
    }

    /// The default key, as `--doctor` prints it: a change that moves it
    /// invalidates every persisted entry.
    #[test]
    fn default_config_fingerprint_is_pinned() {
        assert_eq!(ANALYSIS_VERSION, 3);
        assert_eq!(
            format!("{:016x}", config_fingerprint(&CheckerConfig::default())),
            "a7e1e7c0d122c59d"
        );
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
}
