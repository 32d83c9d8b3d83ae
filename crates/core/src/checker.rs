//! The NChecker driver: binary in, warning reports out.

use crate::checks::{
    check_config, check_notification, check_response, is_guarded, is_guarded_strict,
    methods_invoking_connectivity, methods_observing_connectivity,
};
use crate::context::AnalyzedApp;
use crate::icc::{
    conn_guarded_components, find_icc_sends, icc_send_reachable, some_component_displays_alert,
};
use crate::reach::{find_request_sites, RequestSite};
use crate::report::{fix_suggestion, DefectKind, Evidence, Location, OverRetryContext, Report};
use crate::retry::{covered_by_retry, find_retry_loops};
use nck_android::apk::{Apk, ApkError};
use nck_dex::verify::{VerifyError, VerifyScope};
use nck_dex::AdxFile;
use nck_ir::body::Program;
use nck_netlibs::api::Registry;
use nck_netlibs::library::Library;
use nck_obs::{Metrics, MetricsSnapshot, Obs, PipelineTrace};
use std::any::Any;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Analysis options. Every checker always runs, as in the paper's
/// evaluation; these select the variants and ablations.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// Identify customized retry loops (§4.5); disabling this is the
    /// ablation of the loop rules.
    pub custom_retry: bool,
    /// Model inter-component communication (the paper's §4.7 future
    /// work): connectivity guards and error displays may cross component
    /// boundaries, removing the Table 9 false positives.
    pub icc: bool,
    /// Require connectivity checks to be *control conditions* of the
    /// request (path-sensitive), removing the Table 9 known false
    /// negatives. Off by default, as in the paper.
    pub strict_connectivity: bool,
    /// Use the interprocedural summary engine: guard wrappers,
    /// config-value helpers, and response checks through app helpers.
    /// Disabling this is the ablation of the summary engine, reverting
    /// to the method-local analyses.
    pub interproc: bool,
    /// Bound the strict connectivity check's caller walk to this depth
    /// instead of the default unbounded visited-set traversal. Only
    /// meaningful with `strict_connectivity`; kept for ablation.
    pub strict_caller_depth: Option<usize>,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            custom_retry: true,
            icc: false,
            strict_connectivity: false,
            interproc: true,
            strict_caller_depth: None,
        }
    }
}

/// Per-app aggregate statistics, the raw material of Tables 6 and 8 and
/// Figures 8 and 9.
#[derive(Debug, Clone, Default)]
pub struct AppStats {
    /// Package name.
    pub package: String,
    /// Libraries the app's requests go through.
    pub libraries: BTreeSet<Library>,
    /// Entry-reachable request sites.
    pub requests: usize,
    /// Requests without a connectivity guard.
    pub requests_missing_conn: usize,
    /// Requests without a timeout config.
    pub requests_missing_timeout: usize,
    /// Requests through retry-capable libraries.
    pub retry_capable_requests: usize,
    /// Of those, requests with no retry config and no custom retry loop.
    pub requests_missing_retry: usize,
    /// User-initiated requests.
    pub user_requests: usize,
    /// User-initiated requests without failure notification.
    pub user_requests_missing_notification: usize,
    /// User requests whose library path has an explicit error callback
    /// implemented in the app.
    pub user_requests_explicit_cb: usize,
    /// Of those, notified ones.
    pub user_requests_explicit_cb_notified: usize,
    /// User requests on the implicit (Handler/onPostExecute) path.
    pub user_requests_implicit_cb: usize,
    /// Of those, notified ones.
    pub user_requests_implicit_cb_notified: usize,
    /// Error callbacks that expose typed errors (Volley).
    pub typed_error_callbacks: usize,
    /// Of those, callbacks that consult the error object.
    pub typed_error_callbacks_checked: usize,
    /// Checkable (synchronously captured) responses.
    pub responses: usize,
    /// Responses used without a validity check.
    pub responses_missing_check: usize,
    /// Customized retry loops found.
    pub custom_retry_loops: usize,
    /// User requests with retries disabled (cause 2.1).
    pub no_retry_activity: usize,
    /// Background requests with retries enabled (cause 2.2a).
    pub over_retry_service: usize,
    /// ... of which caused by library defaults.
    pub over_retry_service_default: usize,
    /// POST requests with retries enabled (cause 2.2b).
    pub over_retry_post: usize,
    /// ... of which caused by library defaults.
    pub over_retry_post_default: usize,
    /// Methods summarized by the interprocedural engine (this and the
    /// other `summary_*` counts stay 0 when no checker needed a solve).
    pub summary_methods: usize,
    /// Call-graph SCCs condensed during summary computation.
    pub summary_sccs: usize,
    /// Methods whose summary proves a constant return.
    pub summary_const_returns: usize,
    /// Size of the largest SCC condensed during summary computation.
    pub summary_largest_scc: usize,
    /// Static fields the summary engine proved write-once constant.
    pub summary_field_consts: usize,
    /// Summary-cache lookups served during checking.
    pub summary_hits: usize,
}

/// One method the pipeline skipped while degrading per-method: the
/// verifier flagged it, so it was lifted bodiless. The rest of the app
/// was analyzed normally, but nothing is known about this method's
/// behaviour (so no defect is reported *inside* it, and checks that
/// would have needed its body err on the side of the surrounding
/// evidence). Reports render its cause as `"verify"`, the one stage
/// that skips methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisSkip {
    /// Rendered `class.name(sig)` identity.
    pub method: String,
    /// The method's first verify error, rendered.
    pub detail: String,
}

/// The complete analysis result for one app.
#[derive(Debug, Clone, Default)]
pub struct AppReport {
    /// Aggregate statistics.
    pub stats: AppStats,
    /// Individual warning reports.
    pub defects: Vec<Report>,
    /// Methods dropped by per-method degradation (empty on well-formed
    /// inputs). A non-empty list means the report is *incomplete*, not
    /// wrong: defects listed are real, but the skipped methods were not
    /// examined.
    pub skipped_methods: Vec<AnalysisSkip>,
    /// Phase-level span tree of the run, when tracing was enabled.
    pub trace: Option<PipelineTrace>,
    /// Metrics recorded during the run, when metrics were enabled.
    pub metrics: Option<MetricsSnapshot>,
}

impl AppReport {
    /// Number of defects of `kind`-matching label (exact enum match for
    /// non-parameterized kinds).
    pub fn count(&self, kind: DefectKind) -> usize {
        self.defects.iter().filter(|d| d.kind == kind).count()
    }

    /// Returns `true` when any defect of the given label family exists.
    pub fn has(&self, kind: DefectKind) -> bool {
        self.count(kind) > 0
    }

    /// Returns `true` when the analysis degraded (some methods skipped).
    pub fn degraded(&self) -> bool {
        !self.skipped_methods.is_empty()
    }
}

/// Errors from analyzing an app container.
#[derive(Debug)]
pub enum AnalyzeError {
    /// The container failed to parse.
    Apk(ApkError),
    /// Structural verification found damage wider than a single method
    /// (class- or file-scoped), leaving no sound way to analyze the app.
    Verify(Vec<VerifyError>),
    /// A panic escaped the pipeline and was contained by
    /// [`NChecker::analyze_bytes_checked`] or by the worker pool that ran
    /// it. Always a bug: the pipeline is meant to return typed errors on
    /// any input.
    Panic(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Apk(e) => write!(f, "apk: {e}"),
            AnalyzeError::Verify(errs) => match errs.first() {
                Some(first) if errs.len() > 1 => {
                    write!(f, "verify: {first} (+{} more)", errs.len() - 1)
                }
                Some(first) => write!(f, "verify: {first}"),
                None => write!(f, "verify: structural verification failed"),
            },
            AnalyzeError::Panic(msg) => write!(f, "panic contained in analysis: {msg}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl AnalyzeError {
    /// Wraps a panic payload caught by `catch_unwind` as
    /// [`AnalyzeError::Panic`].
    pub fn from_panic(payload: Box<dyn Any + Send>) -> AnalyzeError {
        AnalyzeError::Panic(AnalyzeError::panic_message(&*payload))
    }

    /// The message a panic payload carries: the `&str` or `String` a
    /// `panic!` formats, or a placeholder for any other payload type.
    pub fn panic_message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    }
}

/// The NChecker tool.
#[derive(Debug, Default)]
pub struct NChecker {
    registry: Registry,
    /// Analysis options.
    pub config: CheckerConfig,
    /// Observability template. Disabled by default; each analyzed app
    /// mints fresh sinks from it via [`Obs::fresh`], so span trees and
    /// metrics stay per-app even under a parallel corpus runner.
    pub obs: Obs,
}

/// What a bundle enters the pipeline as.
enum Input<'a> {
    /// Serialized bytes: the pipeline starts with the parse stage.
    Bytes(&'a [u8]),
    /// A bundle the caller already parsed.
    Parsed(&'a Apk),
}

/// Attaches the finished trace and metrics snapshot to a report. Every
/// live span guard must be dropped before this runs.
fn seal(mut report: AppReport, obs: &Obs) -> AppReport {
    if obs.tracer.is_enabled() {
        report.trace = Some(obs.tracer.finish());
    }
    if obs.metrics.is_enabled() {
        report.metrics = Some(obs.metrics.snapshot());
    }
    report
}

/// Parser volume counters: `parse.bytes` (the ADX payload),
/// `parse.{classes,methods,insns}` and the pool sizes
/// (`parse.pool.{strings,methods}`).
fn record_parse(metrics: &Metrics, payload_len: usize, adx: &AdxFile) {
    if !metrics.is_enabled() {
        return;
    }
    metrics.inc("parse.bytes", payload_len as u64);
    metrics.inc("parse.classes", adx.classes.len() as u64);
    metrics.inc(
        "parse.methods",
        adx.classes.iter().map(|c| c.methods.len() as u64).sum(),
    );
    metrics.inc(
        "parse.insns",
        adx.classes
            .iter()
            .flat_map(|c| &c.methods)
            .filter_map(|m| m.code.as_ref())
            .map(|c| c.insns.len() as u64)
            .sum(),
    );
    metrics.inc("parse.pool.strings", adx.pools.strings().len() as u64);
    metrics.inc("parse.pool.methods", adx.pools.methods().len() as u64);
}

/// Lifter volume counters: `lift.classes`, `lift.methods` (bodies
/// lifted), `lift.bodiless` and `lift.stmts` (IR statements emitted).
fn record_lift(metrics: &Metrics, program: &Program) {
    if !metrics.is_enabled() {
        return;
    }
    let bodies = || program.methods.iter().filter_map(|m| m.body.as_ref());
    metrics.inc("lift.classes", program.classes.len() as u64);
    metrics.inc("lift.methods", bodies().count() as u64);
    metrics.inc(
        "lift.bodiless",
        program.methods.iter().filter(|m| m.body.is_none()).count() as u64,
    );
    metrics.inc("lift.stmts", bodies().map(|b| b.stmts.len() as u64).sum());
}

impl NChecker {
    /// Creates a checker with the standard registry and all analyses on.
    pub fn new() -> NChecker {
        NChecker::default()
    }

    /// Creates a checker with specific options.
    pub fn with_config(config: CheckerConfig) -> NChecker {
        NChecker {
            registry: Registry::standard(),
            config,
            obs: Obs::disabled(),
        }
    }

    /// Analyzes a serialized APK container.
    ///
    /// Binaries from the wild are routinely truncated, corrupted, or
    /// adversarial, so the full pipeline behind this entry point is
    /// fault-tolerant: parse failures and class-level structural damage
    /// return typed errors, while per-method damage *degrades* — the
    /// offending methods are skipped and recorded on
    /// [`AppReport::skipped_methods`], and the rest of the app is
    /// analyzed normally.
    pub fn analyze_bytes(&self, bytes: &[u8]) -> Result<AppReport, AnalyzeError> {
        self.run(Input::Bytes(bytes))
    }

    /// [`NChecker::analyze_bytes`] with a panic-containment backstop.
    ///
    /// The pipeline is designed to return typed errors on any input, and
    /// the fuzz harness holds it to that; this wrapper is the defence in
    /// depth for a corpus run that must survive its worst input even if a
    /// panic slips through, converting it into [`AnalyzeError::Panic`]
    /// instead of unwinding through the caller.
    pub fn analyze_bytes_checked(&self, bytes: &[u8]) -> Result<AppReport, AnalyzeError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.analyze_bytes(bytes)))
            .unwrap_or_else(|payload| Err(AnalyzeError::from_panic(payload)))
    }

    /// Analyzes a parsed APK bundle.
    pub fn analyze_apk(&self, apk: &Apk) -> Result<AppReport, AnalyzeError> {
        self.run(Input::Parsed(apk))
    }

    /// The report a whole-report cache hit returns: `cached` (recorded
    /// unsealed) sealed with this checker's fresh trace and metrics
    /// sinks, as [`NChecker::analyze_bytes`] seals a run.
    pub fn sealed(&self, cached: &AppReport) -> AppReport {
        seal(cached.clone(), &self.obs.fresh())
    }

    /// Mints the run's observability sinks, runs the pipeline under the
    /// `app` span, and seals the report.
    fn run(&self, input: Input<'_>) -> Result<AppReport, AnalyzeError> {
        let obs = self.obs.fresh();
        let report = {
            let _app = obs.tracer.span("app");
            self.pipeline(input, &obs)?
        };
        Ok(seal(report, &obs))
    }

    /// The one analysis pipeline behind every entry point: parse →
    /// verify → prescan fast path → lift → context → checkers.
    fn pipeline(&self, input: Input<'_>, obs: &Obs) -> Result<AppReport, AnalyzeError> {
        let parsed;
        let apk = match input {
            Input::Parsed(apk) => apk,
            Input::Bytes(bytes) => {
                let _s = obs.tracer.span("parse");
                let (manifest, payload) = Apk::split(bytes).map_err(AnalyzeError::Apk)?;
                let adx = nck_dex::read_adx(payload).map_err(|e| AnalyzeError::Apk(e.into()))?;
                record_parse(&obs.metrics, payload.len(), &adx);
                parsed = Apk::new(manifest, adx);
                &parsed
            }
        };

        // Structural verification between parse and lift: the lifter
        // takes only the verifier's witness, and every downstream
        // analysis assumes in-range registers, branch targets, and pool
        // references; nothing downstream re-checks.
        let verified = {
            let s = obs.tracer.span("verify");
            let verified = nck_dex::verify::verify(&apk.adx);
            let n = verified
                .as_ref()
                .map_or_else(Vec::len, |v| v.errors().len());
            s.add_items(n as u64);
            obs.metrics.inc("verify.errors", n as u64);
            verified
        };
        // Damage wider than one method (class or file scope) leaves no
        // sound way to analyze the app.
        let verified = verified.map_err(|errors| {
            AnalyzeError::Verify(
                errors
                    .into_iter()
                    .filter(|e| e.scope != VerifyScope::Method)
                    .collect(),
            )
        })?;
        // A clean bundle lifts whole, so the prescan may answer it.
        if verified.is_clean() {
            if let Some(report) = self.pool_clean_report(apk, obs) {
                return Ok(report);
            }
        }

        // Method-scoped damage skips just that method. The report is
        // then incomplete, so it is never cached.
        let program = {
            let _s = obs.tracer.span("lift");
            let program = nck_ir::lift(&verified);
            record_lift(&obs.metrics, &program);
            program
        };
        let skipped_methods: Vec<AnalysisSkip> = verified
            .flagged()
            .map(|(_, _, first)| AnalysisSkip {
                method: first.method.clone(),
                detail: first.to_string(),
            })
            .collect();
        if !skipped_methods.is_empty() {
            obs.metrics
                .inc("analyze.skipped_methods", skipped_methods.len() as u64);
            obs.events.warn(&format!(
                "{}: degraded analysis, {} method(s) skipped (first: {})",
                apk.manifest.package,
                skipped_methods.len(),
                skipped_methods[0].method
            ));
            for s in &skipped_methods {
                obs.events
                    .debug(&format!("skipped {} [verify]: {}", s.method, s.detail));
            }
        }
        let app = AnalyzedApp::new(apk.manifest.clone(), program, &self.registry, obs);
        let mut report = self.analyze_with(&app, obs);
        report.skipped_methods = skipped_methods;
        Ok(report)
    }

    /// The prescan fast path, shared by every entry point: when no
    /// method-pool entry names a relevant API, no statement anywhere in
    /// the bundle can invoke one, so the checkers find zero request
    /// sites and zero retry loops. For a bundle that verified clean — no
    /// method the lifter could skip — that whole-app report is the empty one, and
    /// it is returned without lifting a single instruction. `None` means
    /// the pipeline must run: the pool names a relevant API, or `icc` is
    /// on (the ICC model reads component bodies beyond request sites).
    ///
    /// Callers must only ask after verification came back clean.
    fn pool_clean_report(&self, apk: &Apk, obs: &Obs) -> Option<AppReport> {
        if self.config.icc {
            return None;
        }
        let touches = {
            let _s = obs.tracer.span("prescan");
            nck_dex::pool_touches(&apk.adx, &|class, name| {
                self.registry.is_relevant_api(class, name)
            })
        };
        if touches {
            return None;
        }
        if obs.metrics.is_enabled() {
            obs.metrics.inc("prescan.skipped", 1);
        }
        let mut report = AppReport::default();
        report.stats.package = apk.manifest.package.clone();
        Some(report)
    }

    /// Runs all configured analyses over an already-built context.
    pub fn analyze(&self, app: &AnalyzedApp<'_>) -> AppReport {
        let obs = self.obs.fresh();
        let report = self.analyze_with(app, &obs);
        seal(report, &obs)
    }

    fn analyze_with(&self, app: &AnalyzedApp<'_>, obs: &Obs) -> AppReport {
        let _checkers = obs.tracer.span("checkers");
        let sites = {
            let s = obs.tracer.span("find_sites");
            let sites = find_request_sites(app);
            s.add_items(sites.len() as u64);
            sites
        };
        let conn_methods = {
            let s = obs.tracer.span("conn_methods");
            let set = if self.config.interproc {
                methods_observing_connectivity(app)
            } else {
                methods_invoking_connectivity(app)
            };
            s.add_items(set.len() as u64);
            set
        };
        let retry_loops = {
            let s = obs.tracer.span("retry_loops");
            let loops = if self.config.custom_retry {
                find_retry_loops(app)
            } else {
                Vec::new()
            };
            s.add_items(loops.len() as u64);
            loops
        };
        let icc_span = self.config.icc.then(|| obs.tracer.span("icc"));
        let icc_sends = if self.config.icc {
            find_icc_sends(app)
        } else {
            Vec::new()
        };
        let icc_guarded = if self.config.icc {
            conn_guarded_components(app, &icc_sends, &conn_methods)
        } else {
            Default::default()
        };
        let icc_alert_component = self.config.icc && some_component_displays_alert(app);
        drop(icc_span);

        if obs.metrics.is_enabled() {
            obs.metrics.inc("check.sites", sites.len() as u64);
            obs.metrics
                .inc("check.conn_methods", conn_methods.len() as u64);
            obs.metrics
                .inc("check.retry_loops", retry_loops.len() as u64);
        }
        let timing = obs.tracer.is_enabled();
        let mut t_conn = Duration::ZERO;
        let mut t_config = Duration::ZERO;
        let mut t_params = Duration::ZERO;
        let mut t_notif = Duration::ZERO;
        let mut t_resp = Duration::ZERO;

        let mut report = AppReport::default();
        report.stats.package = app.manifest.package.clone();
        report.stats.custom_retry_loops = retry_loops.len();

        for site in &sites {
            let stats = &mut report.stats;
            stats.requests += 1;
            stats.libraries.insert(site.library());
            let location = self.location_of(app, site);
            let call_stack = self.call_stack_of(app, site);
            let context = if site.user_initiated {
                "Request made by user. Need to notify users if connection is unavailable."
                    .to_owned()
            } else if site.background {
                "Request made by background service. Cache and stop the operation to save \
                 energy and mobile data."
                    .to_owned()
            } else {
                "Request context unknown.".to_owned()
            };
            let api = format!(
                "{}.{}",
                app.program
                    .symbols
                    .resolve(app.program.method(site.method).key.class),
                site.target.api.name
            );
            let site_method = app.display_method(site.method);

            // Every defect's evidence chain starts from the request
            // itself and the call-graph path that reaches it.
            let mut base_ev = vec![Evidence::Request {
                method: site_method.clone(),
                stmt: site.stmt.0,
                api: api.clone(),
            }];
            if let Some(&entry_idx) = site.entries.first() {
                if let Some(path) = app
                    .callgraph
                    .path(app.entries[entry_idx].method, site.method)
                {
                    for edge in path.iter().take(3) {
                        base_ev.push(Evidence::CallEdge {
                            caller: app.display_method(edge.caller),
                            callee: app.display_method(edge.callee),
                            stmt: edge.stmt.0,
                        });
                    }
                }
            }

            let push = |report: &mut AppReport,
                        kind: DefectKind,
                        message: String,
                        extra: Vec<Evidence>| {
                let fix = fix_suggestion(kind, site.library(), site.user_initiated);
                let mut provenance = base_ev.clone();
                provenance.extend(extra);
                if obs.metrics.is_enabled() {
                    obs.metrics
                        .inc(&format!("defects.{}", crate::json::kind_id(kind)), 1);
                }
                report.defects.push(Report {
                    kind,
                    library: site.library(),
                    location: location.clone(),
                    message,
                    context: context.clone(),
                    call_stack: call_stack.clone(),
                    fix,
                    provenance,
                });
            };

            // §4.4.1 — connectivity. ICC-aware mode also accepts a guard
            // in the component that launched this one.
            let t0 = timing.then(Instant::now);
            let icc_conn_guard = self.config.icc
                && site.entries.iter().any(|&e| {
                    app.entries[e]
                        .component
                        .is_some_and(|c| icc_guarded.contains(&c))
                });
            let conn_ok = if self.config.strict_connectivity {
                is_guarded_strict(
                    app,
                    site,
                    self.config.interproc,
                    self.config.strict_caller_depth,
                )
            } else {
                is_guarded(app, site, &conn_methods, self.config.interproc)
            } || icc_conn_guard;
            if !conn_ok {
                report.stats.requests_missing_conn += 1;
                let mut ev = vec![Evidence::Absence {
                    what: "connectivity check guarding the request".into(),
                    scanned: site
                        .entries
                        .iter()
                        .map(|&e| app.entry_reach[e].len())
                        .max()
                        .unwrap_or(0),
                }];
                if let Some(&m) = conn_methods.iter().next() {
                    ev.push(Evidence::SummaryFact {
                        method: app.display_method(m),
                        what: "observes a connectivity API but does not guard this request".into(),
                    });
                }
                push(
                    &mut report,
                    DefectKind::MissedConnectivityCheck,
                    format!(
                        "Missing network connectivity check before {}",
                        site.target.api.name
                    ),
                    ev,
                );
            }
            if let Some(t0) = t0 {
                t_conn += t0.elapsed();
            }

            // §4.4.1 — config APIs.
            let t0 = timing.then(Instant::now);
            let sc = check_config(app, site, self.config.interproc);
            let custom = covered_by_retry(app, &retry_loops, site);
            // IR facts for the config calls the taint analysis attributed
            // to this request's carrier object, shared by the config and
            // parameter checks below.
            let config_call_ev: Vec<Evidence> = sc
                .config_calls
                .iter()
                .take(3)
                .map(|&(m, s)| Evidence::IrFact {
                    method: app.display_method(m),
                    stmt: s.0,
                    what: "config API call on the request object".into(),
                })
                .collect();
            if !sc.has_timeout {
                report.stats.requests_missing_timeout += 1;
                let mut ev = vec![Evidence::Absence {
                    what: format!("timeout config API call for {api}"),
                    scanned: sc.config_calls.len(),
                }];
                ev.extend(config_call_ev.iter().cloned());
                push(
                    &mut report,
                    DefectKind::MissedTimeout,
                    format!("No timeout set for network request {api}"),
                    ev,
                );
            }
            if site.library().has_retry_api() {
                report.stats.retry_capable_requests += 1;
                if !sc.has_retry_config && !custom {
                    report.stats.requests_missing_retry += 1;
                    let ev = vec![Evidence::Absence {
                        what: format!("retry config API call or custom retry loop for {api}"),
                        scanned: sc.config_calls.len() + retry_loops.len(),
                    }];
                    push(
                        &mut report,
                        DefectKind::MissedRetry,
                        format!("No retry policy set for network request {api}"),
                        ev,
                    );
                }
            }
            if let Some(t0) = t0 {
                t_config += t0.elapsed();
            }

            // §4.4.2 — parameters in context. The paper evaluates retry
            // behaviour only for apps "that use libraries with retry
            // APIs" (Table 8, 91 apps).
            let t0 = timing.then(Instant::now);
            if site.library().has_retry_api() {
                // `None` means a retry API was invoked with an unknown
                // count: retries are enabled.
                let retries_enabled = sc.effective_retries.map(|n| n > 0).unwrap_or(true);
                // How the analysis resolved the retry behaviour, shared
                // by the three parameter-in-context defects.
                let retry_fact = if sc.retry_default_used {
                    "library default retry policy in force (no retry API call found)".to_owned()
                } else {
                    match sc.effective_retries {
                        Some(n) => format!("retry count resolved to the constant {n}"),
                        None => "retry API invoked with a non-constant count".to_owned(),
                    }
                };
                let mut retry_prov = vec![Evidence::SummaryFact {
                    method: site_method.clone(),
                    what: retry_fact,
                }];
                retry_prov.extend(config_call_ev.iter().cloned());
                if site.user_initiated && !retries_enabled && !custom {
                    report.stats.no_retry_activity += 1;
                    push(
                        &mut report,
                        DefectKind::NoRetryInActivity,
                        "Time-sensitive user request performed without retry on transient errors"
                            .to_owned(),
                        retry_prov.clone(),
                    );
                }
                if site.background && retries_enabled {
                    report.stats.over_retry_service += 1;
                    if sc.retry_default_used {
                        report.stats.over_retry_service_default += 1;
                    }
                    push(
                        &mut report,
                        DefectKind::OverRetry {
                            context: OverRetryContext::Service,
                            default_caused: sc.retry_default_used,
                        },
                        "Background service request retries on failure, wasting energy".to_owned(),
                        retry_prov.clone(),
                    );
                }
                // When the default is in force, it only bites POSTs if the
                // library's default retry policy covers non-idempotent
                // methods (Volley and Async HTTP do; Basic does not).
                let post_retries = if sc.retry_default_used {
                    retries_enabled
                        && nck_netlibs::library::defaults(site.library()).retries_apply_to_post
                } else {
                    retries_enabled
                };
                if site.is_post() && post_retries {
                    report.stats.over_retry_post += 1;
                    if sc.retry_default_used {
                        report.stats.over_retry_post_default += 1;
                    }
                    push(
                        &mut report,
                        DefectKind::OverRetry {
                            context: OverRetryContext::Post,
                            default_caused: sc.retry_default_used,
                        },
                        "Non-idempotent POST request is automatically retried".to_owned(),
                        retry_prov.clone(),
                    );
                }
            }
            if let Some(t0) = t0 {
                t_params += t0.elapsed();
            }

            // §4.4.3 — failure notification (user requests only; "the
            // error message is only helpful when the user initiates the
            // request").
            let t0 = timing.then(Instant::now);
            if site.user_initiated {
                report.stats.user_requests += 1;
                let nf = check_notification(app, site);
                if nf.explicit_error_callback {
                    report.stats.user_requests_explicit_cb += 1;
                    if nf.notified {
                        report.stats.user_requests_explicit_cb_notified += 1;
                    }
                } else {
                    report.stats.user_requests_implicit_cb += 1;
                    if nf.notified {
                        report.stats.user_requests_implicit_cb_notified += 1;
                    }
                }
                let icc_notified = self.config.icc
                    && !nf.notified
                    && icc_alert_component
                    && icc_send_reachable(app, &icc_sends, nf.callback.unwrap_or(site.method), 3);
                if !nf.notified && !icc_notified {
                    report.stats.user_requests_missing_notification += 1;
                    let mut ev = vec![match nf.callback {
                        Some(cb) => Evidence::SummaryFact {
                            method: app.display_method(cb),
                            what: "error callback contains no user-visible notification call"
                                .into(),
                        },
                        None => Evidence::Absence {
                            what: "explicit error callback for the request".into(),
                            scanned: 0,
                        },
                    }];
                    ev.push(Evidence::Absence {
                        what: "failure notification (Toast/dialog/setText) on the error path"
                            .into(),
                        scanned: 1,
                    });
                    push(
                        &mut report,
                        DefectKind::MissedFailureNotification,
                        "No failure notification shown to the user when the request fails"
                            .to_owned(),
                        ev,
                    );
                }
                if let Some(checked) = nf.error_types_checked {
                    report.stats.typed_error_callbacks += 1;
                    if checked {
                        report.stats.typed_error_callbacks_checked += 1;
                    } else {
                        let ev = vec![Evidence::SummaryFact {
                            method: app.display_method(nf.callback.unwrap_or(site.method)),
                            what: "typed error parameter never consulted in the callback body"
                                .into(),
                        }];
                        push(
                            &mut report,
                            DefectKind::NoErrorTypeCheck,
                            "Error callback ignores the typed error object".to_owned(),
                            ev,
                        );
                    }
                }
            }
            if let Some(t0) = t0 {
                t_notif += t0.elapsed();
            }

            // §4.4.4 — response validity.
            let t0 = timing.then(Instant::now);
            if let Some(rf) = check_response(app, site, self.config.interproc) {
                if !rf.uses.is_empty() {
                    report.stats.responses += 1;
                    if !rf.unchecked_uses.is_empty() {
                        report.stats.responses_missing_check += 1;
                        let mut ev: Vec<Evidence> = rf
                            .unchecked_uses
                            .iter()
                            .take(3)
                            .map(|u| Evidence::IrFact {
                                method: site_method.clone(),
                                stmt: u.0,
                                what: "response value used without a dominating validity check"
                                    .into(),
                            })
                            .collect();
                        ev.push(Evidence::Absence {
                            what: "null/validity check dominating the response use".into(),
                            scanned: rf.uses.len(),
                        });
                        push(
                            &mut report,
                            DefectKind::MissedResponseCheck,
                            "Response used without a validity/null check".to_owned(),
                            ev,
                        );
                    }
                }
            }
            if let Some(t0) = t0 {
                t_resp += t0.elapsed();
            }
        }

        if timing {
            let n = sites.len() as u64;
            obs.tracer.record("connectivity", t_conn, n);
            obs.tracer.record("config", t_config, n);
            obs.tracer.record("retry_params", t_params, n);
            obs.tracer
                .record("notification", t_notif, report.stats.user_requests as u64);
            obs.tracer
                .record("response", t_resp, report.stats.responses as u64);
        }
        if obs.metrics.is_enabled() {
            obs.metrics
                .inc("check.defects", report.defects.len() as u64);
        }

        if let Some(summaries) = app.solved_summaries() {
            let sstats = summaries.stats();
            report.stats.summary_methods = sstats.methods;
            report.stats.summary_sccs = sstats.sccs;
            report.stats.summary_const_returns = sstats.const_returns;
            report.stats.summary_largest_scc = sstats.largest_scc;
            report.stats.summary_field_consts = sstats.field_consts;
            report.stats.summary_hits = summaries.hits();
        }
        // CFGs are built on demand, so only now is their number known.
        if obs.metrics.is_enabled() {
            obs.metrics
                .inc("context.cfgs_built", app.cfgs_built() as u64);
        }

        report
    }

    fn location_of(&self, app: &AnalyzedApp<'_>, site: &RequestSite) -> Location {
        let key = app.program.method(site.method).key;
        Location {
            class: nck_ir::Type::parse(app.program.symbols.resolve(key.class))
                .map(|t| t.pretty())
                .unwrap_or_else(|| app.program.symbols.resolve(key.class).to_owned()),
            method: app.program.symbols.resolve(key.name).to_owned(),
            stmt: site.stmt.0,
        }
    }

    fn call_stack_of(&self, app: &AnalyzedApp<'_>, site: &RequestSite) -> Vec<String> {
        let Some(&entry_idx) = site.entries.first() else {
            return vec![];
        };
        let entry = &app.entries[entry_idx];
        let mut frames = Vec::new();
        let fmt = |m: nck_ir::MethodId, s: u32| {
            let key = app.program.method(m).key;
            format!(
                "{}.{}: {s}",
                nck_ir::Type::parse(app.program.symbols.resolve(key.class))
                    .map(|t| t.pretty())
                    .unwrap_or_default(),
                app.program.symbols.resolve(key.name)
            )
        };
        if let Some(path) = app.callgraph.path(entry.method, site.method) {
            for e in &path {
                frames.push(fmt(e.caller, e.stmt.0));
            }
        }
        frames.push(fmt(site.method, site.stmt.0));
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_android::manifest::{ComponentKind, Manifest};
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;

    const BASIC: &str = "Lcom/turbomanage/httpclient/BasicHttpClient;";
    const GET_SIG: &str = "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;";

    fn naive_apk() -> Apk {
        let mut b = AdxBuilder::new();
        b.class("Lapp/Main;", |c| {
            c.super_class("Landroid/app/Activity;");
            c.method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                AccessFlags::PUBLIC,
                8,
                |m| {
                    let cl = m.reg(0);
                    m.new_instance(cl, BASIC);
                    m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                    m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(1), m.reg(2)]);
                    m.move_result(m.reg(3));
                    m.invoke_virtual(
                        "Lcom/turbomanage/httpclient/HttpResponse;",
                        "getBodyAsString",
                        "()Ljava/lang/String;",
                        &[m.reg(3)],
                    );
                    m.move_result(m.reg(4));
                    m.ret(None);
                },
            );
        });
        let mut manifest = Manifest::new("com.example.naive");
        manifest
            .permission("android.permission.INTERNET")
            .component("Lapp/Main;", ComponentKind::Activity);
        Apk::new(manifest, b.finish().unwrap())
    }

    #[test]
    fn naive_app_triggers_the_figure5_defects() {
        let checker = NChecker::new();
        let report = checker.analyze_apk(&naive_apk()).unwrap();
        assert_eq!(report.stats.requests, 1);
        assert!(report.has(DefectKind::MissedConnectivityCheck));
        assert!(report.has(DefectKind::MissedTimeout));
        assert!(report.has(DefectKind::MissedRetry));
        assert!(report.has(DefectKind::MissedFailureNotification));
        // BasicHttpClient has no response-check API annotated, so no
        // response defect here.
        assert!(!report.has(DefectKind::MissedResponseCheck));
        // Every defect report renders.
        for d in &report.defects {
            let text = d.render();
            assert!(text.contains("Fix Suggestion"));
            assert!(text.contains("call stack"));
        }
    }

    #[test]
    fn analyze_bytes_roundtrip() {
        let checker = NChecker::new();
        let bytes = naive_apk().to_bytes();
        let report = checker.analyze_bytes(&bytes).unwrap();
        assert_eq!(report.stats.package, "com.example.naive");
        assert!(!report.defects.is_empty());
    }

    #[test]
    fn call_stack_starts_at_the_entry() {
        let checker = NChecker::new();
        let report = checker.analyze_apk(&naive_apk()).unwrap();
        let d = &report.defects[0];
        assert!(d.call_stack[0].contains("onCreate"));
    }

    /// Grafts a method whose body references a register outside its own
    /// frame onto an otherwise healthy app.
    fn apk_with_one_broken_method() -> Apk {
        let mut apk = naive_apk();
        let adx = &mut apk.adx;
        let class_ty = adx.pools.type_("Lapp/Main;");
        let void = adx.pools.type_("V");
        let proto = adx.pools.proto(void, vec![]);
        let name = adx.pools.string("broken");
        let method = adx.pools.method(class_ty, proto, name);
        let class = adx
            .classes
            .iter_mut()
            .find(|c| c.ty == class_ty)
            .expect("Lapp/Main; exists");
        class.methods.push(nck_dex::MethodDef {
            method,
            flags: AccessFlags::PUBLIC,
            code: Some(nck_dex::CodeItem {
                registers: 1,
                ins: 0,
                insns: vec![
                    nck_dex::Insn::Move {
                        dst: nck_dex::Reg(9),
                        src: nck_dex::Reg(0),
                    },
                    nck_dex::Insn::Return { src: None },
                ],
                tries: vec![],
            }),
        });
        apk
    }

    #[test]
    fn method_scoped_damage_degrades_instead_of_failing() {
        let checker = NChecker::new();
        let report = checker.analyze_apk(&apk_with_one_broken_method()).unwrap();
        // The damaged method is skipped and recorded...
        assert!(report.degraded());
        assert_eq!(report.skipped_methods.len(), 1);
        let skip = &report.skipped_methods[0];
        assert!(skip.method.contains("broken"), "skip: {skip:?}");
        assert!(skip.detail.starts_with(&skip.method), "skip: {skip:?}");
        // ...while the healthy entry point still yields its defects.
        assert_eq!(report.stats.requests, 1);
        assert!(report.has(DefectKind::MissedConnectivityCheck));
    }

    #[test]
    fn class_scoped_damage_is_a_typed_error() {
        let mut apk = naive_apk();
        // A dangling superclass reference poisons resolution for the
        // whole class, not just one method.
        apk.adx.classes[0].superclass = Some(nck_dex::TypeIdx(999));
        let err = NChecker::new().analyze_apk(&apk).unwrap_err();
        match err {
            AnalyzeError::Verify(errs) => {
                assert!(errs.iter().all(|e| e.scope != VerifyScope::Method));
            }
            other => panic!("expected AnalyzeError::Verify, got {other}"),
        }
    }

    #[test]
    fn healthy_apps_report_no_skips() {
        let report = NChecker::new().analyze_apk(&naive_apk()).unwrap();
        assert!(!report.degraded());
        assert!(report.skipped_methods.is_empty());
    }
}
