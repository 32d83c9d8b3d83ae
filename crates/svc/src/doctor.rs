//! The `--doctor` health snapshot: one canonical JSON document
//! describing the deployment — build and config fingerprints, cache
//! occupancy, the prescan funnel, and the last run's phase
//! totals.
//!
//! The snapshot is **byte-deterministic**: repeated runs over an
//! unchanged cache directory produce identical bytes, regardless of
//! `--jobs`. That property is what makes snapshots diffable receipts
//! for a long-lived service, and it constrains the schema:
//!
//! - keys serialize sorted (the vendored `serde_json` backs objects
//!   with a `BTreeMap`),
//! - no floats anywhere (their formatting is a portability hazard and
//!   their values rarely deterministic),
//! - no wall-clock readings — phase totals carry span *counts* and
//!   *item counts* only. Timings belong to `--trace-out`/`--log-json`.
//!
//! Counter-derived fields stay deterministic under parallelism because
//! each app's cache outcome (hit/miss) and workload counters depend
//! only on the input and the cache directory contents, never on
//! scheduling. Disk reads append only to the touch log, which the disk
//! section leaves out, so a warm run leaves that section as it found
//! it. A `--doctor` batch keeps no memory tier (one-batch front ends
//! never do), so its `cache.mem` section and `cache.evict` are zero
//! whatever the scheduling. Only the daemon's snapshot has a memory
//! tier, and there the one soft spot is `cache.mem.bytes`: once the
//! tier evicted, the *membership* of the resident set (unlike its size)
//! depends on completion order.

use crate::store::AnalysisStore;
use nchecker::cache::{config_fingerprint, ANALYSIS_VERSION};
use nchecker::CheckerConfig;
use nck_obs::{MetricsSnapshot, PhaseTotals};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Everything the doctor snapshot reports on.
pub struct DoctorReport<'a> {
    /// The effective checker configuration.
    pub config: &'a CheckerConfig,
    /// The service's analysis store (memory + optional disk tier).
    pub store: &'a AnalysisStore,
    /// Metrics merged across the last run's apps (empty when no run
    /// happened).
    pub metrics: &'a MetricsSnapshot,
    /// Phase totals of the last run (empty when no run happened).
    pub phases: &'a PhaseTotals,
    /// Apps submitted in the last run.
    pub apps: usize,
    /// Apps that failed to analyze.
    pub failed: usize,
    /// Apps analyzed degraded (methods skipped).
    pub degraded: usize,
}

fn counter(metrics: &MetricsSnapshot, name: &str) -> u64 {
    metrics.counters.get(name).copied().unwrap_or(0)
}

/// Builds the canonical snapshot document. Serialize with
/// [`render`] for the canonical byte form.
pub fn doctor_json(r: &DoctorReport<'_>) -> Value {
    let disk = r.store.disk_stats();
    // Cache counters come from the store's own lifetime registry, not
    // the merged per-app metrics: the store is the authoritative owner
    // of its traffic, and a daemon (whose per-app obs handles stay
    // disabled so reports match one-shot `--json` bytes) would
    // otherwise report zeros forever.
    let store_counters = r.store.metrics().snapshot();
    let phases: BTreeMap<String, Value> = r
        .phases
        .iter()
        .map(|(path, t)| {
            (
                path.to_owned(),
                json!({ "count": t.count, "items": t.items }),
            )
        })
        .collect();
    json!({
        "schema": 4,
        "build": {
            "analysis_version": ANALYSIS_VERSION,
            "bin": "nchecker",
            "version": env!("CARGO_PKG_VERSION"),
        },
        "config": {
            "fingerprint": format!("{:016x}", config_fingerprint(r.config)),
            "interproc": r.config.interproc,
            "strict_connectivity": r.config.strict_connectivity,
            "icc": r.config.icc,
        },
        "cache": {
            "disk": {
                "configured": r.store.has_disk(),
                "entries": disk.entries,
                "bytes": disk.bytes,
                "dead_bytes": disk.dead_bytes,
                "segments": disk.segments,
                "files_created": counter(&store_counters, "svc.cache.disk_files_created"),
                "records_appended": counter(&store_counters, "svc.cache.disk_records_appended"),
            },
            "mem": {
                "entries": r.store.len(),
                "bytes": r.store.mem_bytes(),
            },
            "gc": {
                "runs": counter(&store_counters, "svc.cache.gc_runs"),
                "evicted": counter(&store_counters, "svc.cache.gc_evicted"),
                "freed_bytes": counter(&store_counters, "svc.cache.gc_freed_bytes"),
                "skipped": counter(&store_counters, "svc.cache.gc_skipped"),
            },
            "hit": counter(&store_counters, "svc.cache.hit"),
            "miss": counter(&store_counters, "svc.cache.miss"),
            "evict": counter(&store_counters, "svc.cache.evict"),
            "corrupt_evict": counter(&store_counters, "svc.cache.corrupt_evict"),
            "deltas": counter(&store_counters, "svc.cache.deltas"),
        },
        "funnel": {
            "prescan_skipped": counter(r.metrics, "prescan.skipped"),
        },
        "last_run": {
            "apps": r.apps,
            "failed": r.failed,
            "degraded": r.degraded,
            "phases": Value::Object(phases),
        },
    })
}

/// The canonical byte form: pretty-printed (sorted keys come free from
/// the `BTreeMap`-backed object representation) plus a trailing
/// newline.
pub fn render(r: &DoctorReport<'_>) -> String {
    let mut text =
        serde_json::to_string_pretty(&doctor_json(r)).expect("doctor snapshot serializes");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_obs::Metrics;

    fn empty_report<'a>(
        config: &'a CheckerConfig,
        store: &'a AnalysisStore,
        metrics: &'a MetricsSnapshot,
        phases: &'a PhaseTotals,
    ) -> DoctorReport<'a> {
        DoctorReport {
            config,
            store,
            metrics,
            phases,
            apps: 0,
            failed: 0,
            degraded: 0,
        }
    }

    #[test]
    fn snapshot_has_required_sections_and_no_floats() {
        let config = CheckerConfig::default();
        let store = AnalysisStore::new();
        let obs = nck_obs::Obs::disabled();
        store.count_outcome(true, &obs);
        store.count_outcome(true, &obs);
        let m = Metrics::enabled();
        m.inc("prescan.skipped", 10);
        let metrics = m.snapshot();
        let phases = PhaseTotals::new();
        let r = empty_report(&config, &store, &metrics, &phases);
        let v = doctor_json(&r);
        for key in ["schema", "build", "config", "cache", "funnel", "last_run"] {
            assert!(v.get(key).is_some(), "missing section {key}");
        }
        assert_eq!(v["cache"]["hit"], 2);
        assert_eq!(v["cache"]["miss"], 0);
        assert_eq!(v["funnel"]["prescan_skipped"], 10);
        assert_eq!(v["build"]["analysis_version"], ANALYSIS_VERSION);
        assert_eq!(
            v["config"]["fingerprint"].as_str().unwrap().len(),
            16,
            "fingerprint is fixed-width hex"
        );
        let text = render(&r);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn snapshot_bytes_are_stable_across_rebuilds() {
        let config = CheckerConfig::default();
        let store = AnalysisStore::new();
        let metrics = MetricsSnapshot::default();
        let phases = PhaseTotals::new();
        let a = render(&empty_report(&config, &store, &metrics, &phases));
        let b = render(&empty_report(&config, &store, &metrics, &phases));
        assert_eq!(a, b);
    }

    #[test]
    fn config_changes_move_the_fingerprint() {
        let store = AnalysisStore::new();
        let metrics = MetricsSnapshot::default();
        let phases = PhaseTotals::new();
        let default = CheckerConfig::default();
        let strict = CheckerConfig {
            strict_connectivity: true,
            ..CheckerConfig::default()
        };
        let a = doctor_json(&empty_report(&default, &store, &metrics, &phases));
        let b = doctor_json(&empty_report(&strict, &store, &metrics, &phases));
        assert_ne!(a["config"]["fingerprint"], b["config"]["fingerprint"]);
        assert_eq!(b["config"]["strict_connectivity"], true);
    }
}
