//! `nck-svc`: the batch-analysis service.
//!
//! NChecker's corpus experiments re-analyze thousands of app bundles,
//! and real deployments re-analyze *updated versions* of the same apps.
//! This crate packages the batch machinery those workloads share:
//!
//! - [`pool`] — the one worker loop behind batches and `serve`: workers
//!   claim jobs one at a time and finish each as soon as it is done (a
//!   batch emits its results in input order through a bounded reorder
//!   window); panics are contained per job, so one adversarial bundle
//!   cannot take a run down,
//! - [`store`] — a content-addressed report cache with an in-memory
//!   tier (report-only entries in one byte-budgeted LRU) and an
//!   optional on-disk tier (checksummed whole-report records appended
//!   to one segment file per writing process: the rendered `--json`
//!   bytes a hit serves as they are, plus the report in the [`wire`]
//!   format),
//! - [`service`] — the [`service::AnalysisService`] façade gluing pool,
//!   store, and checker together behind a keyed batch API,
//! - [`daemon`] + [`protocol`] — the long-running `nchecker serve`
//!   front end: a bounded admission queue over the service, spoken to
//!   in line-delimited JSON over a Unix socket or stdio,
//! - [`watch`] — polling directory watcher feeding the daemon changed
//!   bundles (the `--watch` mode),
//! - [`delta`] — defect deltas between versions of the same app
//!   (added / fixed / unchanged), computed on resubmission under a
//!   known key.
//!
//! The cache contract, end to end: an identical bundle under an
//! identical configuration is served its cached report; anything else,
//! version *N+1* of a known key included, runs the one uncached
//! pipeline, and a known key also gets a defect delta against its
//! previous report. Either way the report is byte-identical to a cold
//! analysis of the same bytes.

pub mod daemon;
pub mod delta;
pub mod doctor;
pub mod pool;
pub mod protocol;
mod record;
pub mod service;
pub mod store;
pub mod watch;
pub mod wire;

pub use daemon::{Daemon, DaemonOptions};
pub use delta::{defect_id, diff_reports, DeltaReport};
pub use doctor::DoctorReport;
pub use pool::{default_workers, run_in_order};
pub use protocol::{ErrorCode, Request, MAX_REQUEST_LINE};
pub use service::{AnalysisService, AppOutcome, BatchCacheStats, ServedReport, ServiceOptions};
pub use store::{AnalysisStore, DiskStats, GcStats, RenderCell};
pub use watch::Watcher;
