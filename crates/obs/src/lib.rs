//! `nck-obs`: the observability layer of the NChecker pipeline.
//!
//! The pipeline (DEX parse → IR lift → CFG/dataflow → call graph →
//! interprocedural summaries → checkers) is instrumented with these
//! facilities, hand-rolled on `std` (the exports encode JSON through the
//! vendored `serde_json::Writer`) — the build environment has no crates
//! registry:
//!
//! - **spans** ([`trace`]): hierarchical wall-time regions with item
//!   counts, one [`trace::PipelineTrace`] tree per analyzed app, plus
//!   [`trace::PhaseTotals`] for corpus-level aggregation;
//! - **metrics** ([`metrics`]): a registry of monotonic counters, gauges,
//!   and fixed-bucket histograms, snapshottable and mergeable across a
//!   corpus;
//! - **events** ([`event`]): leveled diagnostics on stderr behind the
//!   CLI's `--quiet`/`-v` verbosity, keeping machine output untouched;
//! - **series** ([`series`]): exact-sample distributions for
//!   corpus-level latency percentiles;
//! - **export** ([`export`]): machine-readable output — a shared JSONL
//!   sink and a Chrome Trace Event Format renderer for span trees.
//!
//! Every handle has a *disabled* state that records nothing and costs a
//! branch per call, so instrumentation left in place adds no measurable
//! overhead when observability is off (the default).
//!
//! # Example
//!
//! ```
//! use nck_obs::Obs;
//!
//! let obs = Obs::enabled();
//! {
//!     let parse = obs.tracer.span("parse");
//!     parse.add_items(3);
//!     obs.metrics.inc("parse.classes", 3);
//! }
//! let trace = obs.tracer.finish();
//! assert_eq!(trace.roots[0].name, "parse");
//! assert_eq!(obs.metrics.snapshot().counters["parse.classes"], 3);
//! ```

pub mod event;
pub mod export;
pub mod metrics;
pub mod series;
pub mod trace;

pub use event::{Events, Level};
pub use export::{chrome_trace, JsonlSink};
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot, EXP2_BUCKETS};
pub use series::Series;
pub use trace::{PhaseTotals, PipelineTrace, Span, SpanNode, Tracer};

/// The bundle of observability handles one pipeline run carries.
///
/// Cloning shares the underlying sinks; use [`Obs::fresh`] to derive a
/// new, empty set of sinks with the same enablement — the driver keeps a
/// template and mints one `Obs` per analyzed app so traces and metrics
/// stay per-app.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Span recorder.
    pub tracer: Tracer,
    /// Metric registry.
    pub metrics: Metrics,
    /// Diagnostic stream.
    pub events: Events,
}

impl Obs {
    /// All sinks off: records nothing.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// Tracer and metrics on, diagnostics at the default level.
    pub fn enabled() -> Obs {
        Obs {
            tracer: Tracer::enabled(),
            metrics: Metrics::enabled(),
            events: Events::default(),
        }
    }

    /// A new `Obs` with *empty* sinks, enabled exactly where `self` is.
    /// The fresh tracer inherits the template's epoch, so per-app
    /// traces minted from one template lay out on one corpus timeline
    /// (the Chrome-trace exporter depends on this).
    pub fn fresh(&self) -> Obs {
        Obs {
            tracer: match self.tracer.epoch() {
                Some(epoch) => Tracer::enabled_with_epoch(epoch),
                None => Tracer::disabled(),
            },
            metrics: if self.metrics.is_enabled() {
                Metrics::enabled()
            } else {
                Metrics::disabled()
            },
            events: self.events.clone(),
        }
    }

    /// Whether any recording sink (tracer or metrics) is live.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled() || self.metrics.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::disabled();
        let s = obs.tracer.span("x");
        s.add_items(5);
        drop(s);
        obs.metrics.inc("c", 1);
        assert!(!obs.is_enabled());
        assert!(obs.tracer.finish().roots.is_empty());
        assert!(obs.metrics.snapshot().counters.is_empty());
    }

    #[test]
    fn fresh_preserves_enablement_with_empty_sinks() {
        let obs = Obs::enabled();
        obs.metrics.inc("c", 7);
        let f = obs.fresh();
        assert!(f.is_enabled());
        assert!(f.metrics.snapshot().counters.is_empty());
        assert_eq!(obs.metrics.snapshot().counters["c"], 7);
    }

    #[test]
    fn fresh_tracers_inherit_the_template_epoch() {
        let obs = Obs::enabled();
        let epoch = obs.tracer.epoch().unwrap();
        let f = obs.fresh();
        assert_eq!(f.tracer.epoch(), Some(epoch));
    }
}
