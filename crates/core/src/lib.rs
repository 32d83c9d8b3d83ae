//! `nchecker`: detection of network programming defects (NPDs) in mobile
//! app binaries — the Rust reproduction of *NChecker: Saving Mobile App
//! Developers from Network Disruptions* (EuroSys 2016).
//!
//! The pipeline mirrors the paper's (§4): parse the app binary, lift to a
//! 3-address IR, build an Android-lifecycle-aware call graph
//! ([`callgraph`]), discover entry-reachable request sites and classify
//! their contexts ([`reach`]), then run four analyses —
//!
//! 1. request-setting APIs: connectivity guards
//!    ([`checks::connectivity`]) and timeout/retry config via object-flow
//!    taint ([`checks::config`]);
//! 2. improper API parameters in context ([`checker`] §4.4.2);
//! 3. failure notification in callbacks ([`checks::notification`]);
//! 4. invalid-response checks ([`checks::response`]) —
//!
//! plus customized retry-loop identification ([`retry`], §4.5), and emit
//! Figure 7-style warning reports ([`report`]).
//!
//! # Examples
//!
//! ```
//! use nchecker::{DefectKind, NChecker};
//! use nck_android::apk::Apk;
//! use nck_android::manifest::{ComponentKind, Manifest};
//! use nck_dex::builder::AdxBuilder;
//! use nck_dex::AccessFlags;
//!
//! // An Activity that fires a request with no checks at all.
//! let mut b = AdxBuilder::new();
//! b.class("Lapp/Main;", |c| {
//!     c.super_class("Landroid/app/Activity;");
//!     c.method("onCreate", "(Landroid/os/Bundle;)V", AccessFlags::PUBLIC, 8, |m| {
//!         let cl = m.reg(0);
//!         m.new_instance(cl, "Lcom/turbomanage/httpclient/BasicHttpClient;");
//!         m.invoke_direct("Lcom/turbomanage/httpclient/BasicHttpClient;", "<init>", "()V", &[cl]);
//!         m.invoke_virtual(
//!             "Lcom/turbomanage/httpclient/BasicHttpClient;",
//!             "get",
//!             "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;",
//!             &[cl, m.reg(1), m.reg(2)],
//!         );
//!         m.move_result(m.reg(3));
//!         m.ret(None);
//!     });
//! });
//! let mut manifest = Manifest::new("com.example");
//! manifest.component("Lapp/Main;", ComponentKind::Activity);
//! let apk = Apk::new(manifest, b.finish().unwrap());
//!
//! let report = NChecker::new().analyze_apk(&apk).unwrap();
//! assert!(report.has(DefectKind::MissedConnectivityCheck));
//! assert!(report.has(DefectKind::MissedTimeout));
//! ```

pub mod cache;
pub mod callgraph;
pub mod checker;
pub mod checks;
pub mod context;
pub mod icc;
pub mod json;
pub mod reach;
pub mod report;
pub mod retry;
pub mod stats;

pub use cache::{config_fingerprint, AppCacheEntry, ANALYSIS_VERSION};
pub use callgraph::{CallEdge, CallGraph};
pub use checker::{AnalysisSkip, AnalyzeError, AppReport, AppStats, CheckerConfig, NChecker};
pub use context::{AnalyzedApp, AppReuse, MethodAnalysis};
pub use icc::{find_icc_sends, IccKind, IccSend};
pub use json::{
    app_report_to_json, evidence_to_json, kind_id, metrics_to_json, report_to_json, stats_to_json,
    write_app_report,
};
pub use reach::{find_request_sites, RequestSite};
pub use report::{fix_suggestion, DefectKind, Evidence, Location, OverRetryContext, Report};
pub use retry::{covered_by_retry, find_retry_loops, RetryKind, RetryLoop};
pub use stats::{CorpusStats, Table6Row, Table8Row};
