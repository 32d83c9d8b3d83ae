//! Declarative specifications of synthetic apps and their seeded defects.
//!
//! The corpus generator works oracle-first: an [`AppSpec`] states, per
//! request, which good practices the "developer" applied; the generator
//! emits a binary realizing the spec, and [`AppSpec::oracle`] derives the
//! ground-truth defect list the binary actually contains. Calibration to
//! the paper's rates happens in [`profile`](crate::profile).

use nchecker::{DefectKind, OverRetryContext};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::{defaults, Library};

/// Where a request originates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Fired from a click listener in an Activity (user-initiated,
    /// time-sensitive).
    UserClick,
    /// Fired from an Activity lifecycle method (user-facing context).
    ActivityLifecycle,
    /// Fired from a Service (background, energy-sensitive).
    Service,
}

impl Origin {
    /// Returns `true` for user-facing origins.
    pub fn is_user(self) -> bool {
        !matches!(self, Origin::Service)
    }
}

/// How (and whether) the developer checks connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnCheck {
    /// No check at all — a true defect the tool reports.
    Missing,
    /// A proper guard before the request.
    Guarding,
    /// The API is called but its result ignored — a true defect the
    /// path-insensitive tool misses (Table 9 known FN).
    UnusedResult,
    /// The check happens in another component (inter-component flow) — no
    /// true defect, but the tool reports one (Table 9 FP).
    InterComponent,
    /// A proper guard through an app-level wrapper (`if (!isOnline())
    /// return`). No true defect; only the interprocedural summary engine
    /// sees through the wrapper — the method-local analysis reports a
    /// false positive.
    GuardingViaHelper,
}

/// How the failure notification is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notification {
    /// No notification — a true defect for user-initiated requests.
    Missing,
    /// An alert (Toast/TextView/...) in the error callback.
    Alert,
    /// The error code is broadcast and displayed by another activity — no
    /// true defect, but invisible to the tool (Table 9 FP).
    InterComponent,
}

/// How the response object is treated (libraries with response-check
/// APIs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespCheck {
    /// The response is not captured or never read.
    NotUsed,
    /// Read guarded by `isSuccessful()`/null checks.
    Checked,
    /// Read with no validity check — a true defect.
    Unchecked,
    /// Read guarded by an app-level validation helper
    /// (`if (isValidResponse(resp))`). No true defect; visible only to
    /// the interprocedural summary engine.
    CheckedViaHelper,
}

/// The customized retry-loop shape to wrap the request in (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryShape {
    /// Figure 6(b): unconditional success exit out of a `try`.
    SuccessExit,
    /// Figure 6(c): exit variable assigned in the catch block.
    CatchCondition,
    /// Figure 6(d): exit variable from a callee whose catch sets it.
    InterprocCatchCondition,
}

/// One network request in a synthetic app.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// Library used.
    pub library: Library,
    /// Where it fires from.
    pub origin: Origin,
    /// HTTP method.
    pub http_method: HttpMethod,
    /// Connectivity-check behaviour.
    pub conn_check: ConnCheck,
    /// Whether a timeout config API is invoked.
    pub set_timeout: bool,
    /// Retry configuration: `Some(n)` invokes the retry API with count
    /// `n`; `None` leaves the library default in force.
    pub set_retries: Option<u32>,
    /// Route the configured retry count through an app-level helper
    /// (`setMaxRetries(getRetryCount())`): the value is only
    /// recoverable through the interprocedural summaries.
    pub retries_via_helper: bool,
    /// Failure-notification behaviour (user-facing requests).
    pub notification: Notification,
    /// For Volley: whether the error callback consults the error object.
    pub check_error_types: bool,
    /// Response handling (OkHttp/Apache).
    pub response: RespCheck,
    /// Optional customized retry loop around the request.
    pub custom_retry: Option<RetryShape>,
    /// Route each helper idiom the request uses through a second layer
    /// the summary engine must also see through: the guard wrapper
    /// recurses mutually with a link poller, the helper retry count is
    /// a field the host's constructor stores, and the response
    /// validator forwards to a checker. No effect on the oracle.
    pub chained_helpers: bool,
}

impl RequestSpec {
    /// A minimal sane default for `library` from `origin`.
    pub fn new(library: Library, origin: Origin) -> RequestSpec {
        RequestSpec {
            library,
            origin,
            http_method: HttpMethod::Get,
            conn_check: ConnCheck::Missing,
            set_timeout: false,
            set_retries: None,
            retries_via_helper: false,
            notification: Notification::Missing,
            check_error_types: false,
            response: RespCheck::NotUsed,
            custom_retry: None,
            chained_helpers: false,
        }
    }

    /// The retry count effectively in force.
    pub fn effective_retries(&self) -> u32 {
        self.set_retries
            .unwrap_or_else(|| defaults(self.library).retries)
    }

    /// True (oracle) defects this request carries.
    pub fn oracle(&self) -> Vec<DefectKind> {
        let mut out = Vec::new();
        // Connectivity: Missing and UnusedResult are real defects;
        // Guarding and InterComponent are not.
        if matches!(
            self.conn_check,
            ConnCheck::Missing | ConnCheck::UnusedResult
        ) {
            out.push(DefectKind::MissedConnectivityCheck);
        }
        if !self.set_timeout {
            out.push(DefectKind::MissedTimeout);
        }
        if self.library.has_retry_api() && self.set_retries.is_none() && self.custom_retry.is_none()
        {
            out.push(DefectKind::MissedRetry);
        }
        // Retry-parameter causes are only evaluated for libraries with
        // retry APIs (the paper's Table 8 scope).
        if self.library.has_retry_api() {
            let retries = self.effective_retries();
            let default_caused = self.set_retries.is_none();
            if self.origin.is_user() && retries == 0 && self.custom_retry.is_none() {
                out.push(DefectKind::NoRetryInActivity);
            }
            if self.origin == Origin::Service && retries > 0 {
                out.push(DefectKind::OverRetry {
                    context: OverRetryContext::Service,
                    default_caused,
                });
            }
            // A library default that skips non-idempotent methods does
            // not over-retry POSTs.
            let post_retries = if default_caused {
                retries > 0 && defaults(self.library).retries_apply_to_post
            } else {
                retries > 0
            };
            if self.http_method == HttpMethod::Post && post_retries {
                out.push(DefectKind::OverRetry {
                    context: OverRetryContext::Post,
                    default_caused,
                });
            }
        }
        if self.origin.is_user() && self.notification == Notification::Missing {
            out.push(DefectKind::MissedFailureNotification);
        }
        // Our generated Volley apps always implement the error listener,
        // so the typed-error check applies to every user-facing Volley
        // request.
        if self.origin.is_user() && self.library == Library::Volley && !self.check_error_types {
            out.push(DefectKind::NoErrorTypeCheck);
        }
        if self.response == RespCheck::Unchecked {
            out.push(DefectKind::MissedResponseCheck);
        }
        out
    }

    /// Defects the *tool* is expected to report, accounting for the known
    /// deviations: the `UnusedResult` FN and the `InterComponent` FPs.
    pub fn expected_tool_report(&self) -> Vec<DefectKind> {
        let mut out = self.oracle();
        match self.conn_check {
            ConnCheck::UnusedResult => {
                out.retain(|d| *d != DefectKind::MissedConnectivityCheck); // FN.
            }
            ConnCheck::InterComponent => {
                out.push(DefectKind::MissedConnectivityCheck); // FP.
            }
            _ => {}
        }
        if self.origin.is_user() && self.notification == Notification::InterComponent {
            out.push(DefectKind::MissedFailureNotification); // FP.
        }
        out
    }
}

/// A whole synthetic app.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Package name (also used to derive class names).
    pub package: String,
    /// The requests the app makes.
    pub requests: Vec<RequestSpec>,
    /// Self-contained ballast classes emitted ahead of the request
    /// classes: realistic non-network app code (loops, fields, helper
    /// calls) with no network-library references. With `requests`
    /// empty and `bulk > 0` this yields a *clean* app — real code, no
    /// network surface — the shape the prescan fast path skips.
    pub bulk: usize,
}

impl AppSpec {
    /// Creates an app spec.
    pub fn new(package: &str, requests: Vec<RequestSpec>) -> AppSpec {
        AppSpec {
            package: package.to_owned(),
            requests,
            bulk: 0,
        }
    }

    /// Libraries used by the app.
    pub fn libraries(&self) -> std::collections::BTreeSet<Library> {
        self.requests.iter().map(|r| r.library).collect()
    }

    /// True defects over all requests.
    pub fn oracle(&self) -> Vec<DefectKind> {
        self.requests.iter().flat_map(RequestSpec::oracle).collect()
    }

    /// Expected tool reports over all requests.
    pub fn expected_tool_report(&self) -> Vec<DefectKind> {
        self.requests
            .iter()
            .flat_map(RequestSpec::expected_tool_report)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_request_has_the_full_defect_set() {
        let r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        let oracle = r.oracle();
        assert!(oracle.contains(&DefectKind::MissedConnectivityCheck));
        assert!(oracle.contains(&DefectKind::MissedTimeout));
        assert!(oracle.contains(&DefectKind::MissedRetry));
        assert!(oracle.contains(&DefectKind::MissedFailureNotification));
    }

    #[test]
    fn default_retries_cause_over_retry_in_service() {
        let r = RequestSpec::new(Library::AndroidAsyncHttp, Origin::Service);
        let oracle = r.oracle();
        assert!(oracle.contains(&DefectKind::OverRetry {
            context: OverRetryContext::Service,
            default_caused: true,
        }));
    }

    #[test]
    fn explicit_zero_retries_in_activity_is_cause_2_1() {
        let mut r = RequestSpec::new(Library::Volley, Origin::UserClick);
        r.set_retries = Some(0);
        assert!(r.oracle().contains(&DefectKind::NoRetryInActivity));
        // Custom retry suppresses it.
        r.custom_retry = Some(RetryShape::SuccessExit);
        assert!(!r.oracle().contains(&DefectKind::NoRetryInActivity));
    }

    #[test]
    fn fn_and_fp_deviations() {
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.conn_check = ConnCheck::UnusedResult;
        assert!(r.oracle().contains(&DefectKind::MissedConnectivityCheck));
        assert!(!r
            .expected_tool_report()
            .contains(&DefectKind::MissedConnectivityCheck));

        r.conn_check = ConnCheck::InterComponent;
        assert!(!r.oracle().contains(&DefectKind::MissedConnectivityCheck));
        assert!(r
            .expected_tool_report()
            .contains(&DefectKind::MissedConnectivityCheck));
    }

    #[test]
    fn post_over_retry_from_volley_default() {
        let mut r = RequestSpec::new(Library::Volley, Origin::UserClick);
        r.http_method = HttpMethod::Post;
        assert!(r.oracle().contains(&DefectKind::OverRetry {
            context: OverRetryContext::Post,
            default_caused: true,
        }));
    }
}
