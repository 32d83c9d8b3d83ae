//! Warning reports (§4.6, Figure 7).
//!
//! Each detected NPD yields a report with five parts: the NPD information
//! (problematic API + location), its UX impact, the request context, the
//! call stack from an entry point, and a context-aware fix suggestion —
//! the ingredients the user study showed let inexperienced developers fix
//! defects in under two minutes.

use nck_netlibs::library::Library;

/// Context of an over-retry defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverRetryContext {
    /// Retrying a background-service request wastes energy and data.
    Service,
    /// Auto-retrying a non-idempotent POST violates HTTP/1.1.
    Post,
}

/// The defect categories NChecker reports (Table 6 + Table 8 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// No connectivity check guards the request (§2.3 cause 1).
    MissedConnectivityCheck,
    /// No timeout API invoked for the request (§2.3 cause 3.1).
    MissedTimeout,
    /// No retry API ever invoked for the request (§2.3 cause 2).
    MissedRetry,
    /// A time-sensitive (user-initiated) request with retries disabled and
    /// no custom retry logic (§2.3 cause 2.1).
    NoRetryInActivity,
    /// Retries enabled where they should not be (§2.3 cause 2.2).
    OverRetry {
        /// Where the over-retry bites.
        context: OverRetryContext,
        /// `true` when the library's default caused it (developer never
        /// invoked the retry API).
        default_caused: bool,
    },
    /// No failure notification in the request's user-facing callback
    /// (§2.3 cause 3.2).
    MissedFailureNotification,
    /// The error callback ignores the typed error object (§4.2 pattern 3).
    NoErrorTypeCheck,
    /// The response is used without a validity check (§2.3 cause 3.3).
    MissedResponseCheck,
}

impl DefectKind {
    /// Short label as used in the evaluation tables.
    pub fn label(self) -> &'static str {
        match self {
            DefectKind::MissedConnectivityCheck => "Missed conn. checks",
            DefectKind::MissedTimeout => "Missed timeout APIs",
            DefectKind::MissedRetry => "Missed retry APIs",
            DefectKind::NoRetryInActivity => "No retry in Activities",
            DefectKind::OverRetry {
                context: OverRetryContext::Service,
                ..
            } => "Over retry in Services",
            DefectKind::OverRetry {
                context: OverRetryContext::Post,
                ..
            } => "Over retry in POST requests",
            DefectKind::MissedFailureNotification => "Missed failure notifications",
            DefectKind::NoErrorTypeCheck => "No error type check",
            DefectKind::MissedResponseCheck => "Missed response checks",
        }
    }

    /// The negative UX this defect causes (report item 2).
    pub fn impact(self) -> &'static str {
        match self {
            DefectKind::MissedConnectivityCheck => "Bad UX, battery life",
            DefectKind::MissedTimeout => "App hang / freeze on dead connections",
            DefectKind::MissedRetry | DefectKind::NoRetryInActivity => {
                "Dysfunction under transient network errors"
            }
            DefectKind::OverRetry { .. } => "Battery drain, wasted mobile data",
            DefectKind::MissedFailureNotification => "Silent failure, unfriendly UI",
            DefectKind::NoErrorTypeCheck => "Cannot react per error cause",
            DefectKind::MissedResponseCheck => "Crash on invalid/null response",
        }
    }
}

/// Where a defect sits in the app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// Declaring class (dotted form for readability).
    pub class: String,
    /// Method name.
    pub method: String,
    /// Statement index (the "line" of our IR).
    pub stmt: u32,
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}, line {} ({})", self.class, self.stmt, self.method)
    }
}

/// One link in a defect's evidence chain: the concrete analysis fact
/// that led NChecker to report the defect. Together the chain explains
/// *why* the warning fired — which request, which call-graph edges the
/// analysis walked, which IR statements and summary facts it consulted,
/// and what it looked for but did not find.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// The network request the defect is about.
    Request {
        /// Method containing the request statement.
        method: String,
        /// Statement index of the request.
        stmt: u32,
        /// The invoked library API, `Class.name` form.
        api: String,
    },
    /// A call-graph edge the analysis followed from an entry point.
    CallEdge {
        /// Calling method.
        caller: String,
        /// Called method.
        callee: String,
        /// Call-site statement index in the caller.
        stmt: u32,
    },
    /// A statement-level IR fact.
    IrFact {
        /// Method the statement belongs to.
        method: String,
        /// Statement index.
        stmt: u32,
        /// What the statement shows.
        what: String,
    },
    /// A fact proved by an interprocedural method summary.
    SummaryFact {
        /// The summarized method.
        method: String,
        /// The proven fact.
        what: String,
    },
    /// Something the analysis searched for and did not find.
    Absence {
        /// What was missing.
        what: String,
        /// How many candidates were examined before concluding absence.
        scanned: usize,
    },
}

/// The one definition of an evidence item's human-readable line: the
/// text report's `Evidence` section and the JSON `detail` field both
/// write it through this impl.
impl std::fmt::Display for Evidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Evidence::Request { method, stmt, api } => {
                write!(f, "request {api} at {method}:{stmt}")
            }
            Evidence::CallEdge {
                caller,
                callee,
                stmt,
            } => write!(f, "call edge {caller} -> {callee} (stmt {stmt})"),
            Evidence::IrFact { method, stmt, what } => write!(f, "{method}:{stmt}: {what}"),
            Evidence::SummaryFact { method, what } => write!(f, "summary({method}): {what}"),
            Evidence::Absence { what, scanned } => {
                write!(f, "not found: {what} ({scanned} candidates examined)")
            }
        }
    }
}

impl Evidence {
    /// Renders the evidence item as one human-readable line.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// The app method this evidence names, when it names one.
    pub fn method(&self) -> Option<&str> {
        match self {
            Evidence::Request { method, .. }
            | Evidence::IrFact { method, .. }
            | Evidence::SummaryFact { method, .. } => Some(method),
            Evidence::CallEdge { caller, .. } => Some(caller),
            Evidence::Absence { .. } => None,
        }
    }
}

/// One NChecker warning (Figure 7).
#[derive(Debug, Clone)]
pub struct Report {
    /// Defect category.
    pub kind: DefectKind,
    /// The library whose API is misused.
    pub library: Library,
    /// Where.
    pub location: Location,
    /// NPD information: the problematic API usage.
    pub message: String,
    /// Request context: user-initiated or background.
    pub context: String,
    /// Call stack from an entry point to the request.
    pub call_stack: Vec<String>,
    /// Fix suggestion.
    pub fix: String,
    /// Evidence chain: the analysis facts behind this warning.
    pub provenance: Vec<Evidence>,
}

impl Report {
    /// Renders the report in the Figure 7 layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("NPD Information\n");
        out.push_str(&format!("  {}! at {}\n", self.message, self.location));
        out.push_str("NPD impact\n");
        out.push_str(&format!("  {}\n", self.kind.impact()));
        out.push_str("Network request context\n");
        out.push_str(&format!("  {}\n", self.context));
        out.push_str("Network request call stack\n");
        for (i, frame) in self.call_stack.iter().enumerate() {
            let indent = "-".repeat(i.min(4));
            out.push_str(&format!("  {indent}> ({frame})\n"));
        }
        out.push_str("Fix Suggestion\n");
        out.push_str(&format!("  {}\n", self.fix));
        if !self.provenance.is_empty() {
            out.push_str("Evidence\n");
            for e in &self.provenance {
                out.push_str(&format!("  - {e}\n"));
            }
        }
        out
    }
}

/// Builds the fix suggestion text for a defect, considering context
/// (report item 5).
pub fn fix_suggestion(kind: DefectKind, library: Library, user_initiated: bool) -> String {
    match kind {
        DefectKind::MissedConnectivityCheck => {
            let base = "Use getActiveNetworkInfo() to check connectivity before the request.";
            if user_initiated {
                format!("{base} Show error message if no connection.")
            } else {
                format!("{base} Cache and stop the operation to save energy.")
            }
        }
        DefectKind::MissedTimeout => format!(
            "Add a timeout API of {library} to set the timeout value explicitly; the default \
             blocking behavior can wait minutes for a TCP timeout."
        ),
        DefectKind::MissedRetry => {
            format!("Add a retry API of {library} to set retry times for transient network errors.")
        }
        DefectKind::NoRetryInActivity => {
            "Enable retry for this user-initiated request so transient errors are bypassed \
             and the response is delivered timely."
                .to_owned()
        }
        DefectKind::OverRetry {
            context,
            default_caused,
        } => {
            let what = match context {
                OverRetryContext::Service => {
                    "Disable retry for this background request to save energy and mobile data"
                }
                OverRetryContext::Post => {
                    "Disable automatic retry for this POST request: HTTP/1.1 forbids \
                     auto-retrying non-idempotent methods"
                }
            };
            if default_caused {
                format!("{what}. Add the retry API and set retry times to 0 — the library default enables retries.")
            } else {
                format!("{what}.")
            }
        }
        DefectKind::MissedFailureNotification => {
            "Add an error message (e.g. Toast) in the error callback according to the error \
             status so the user can tell a network failure from missing content."
                .to_owned()
        }
        DefectKind::NoErrorTypeCheck => {
            "Examine the error object passed to the error callback to pinpoint the cause \
             (e.g. show a retry button for NoConnectionError, re-authenticate on 401)."
                .to_owned()
        }
        DefectKind::MissedResponseCheck => {
            "Add a null check and status check on the response before reading its body.".to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_all_sections() {
        let r = Report {
            kind: DefectKind::MissedConnectivityCheck,
            library: Library::BasicHttpClient,
            location: Location {
                class: "OpenGTSClient".into(),
                method: "sendHttp".into(),
                stmt: 115,
            },
            message: "Missing network connectivity check before HttpClient.get()".into(),
            context: "Request made by user. Need to notify users if connection is unavailable."
                .into(),
            call_stack: vec![
                "GpsMainActivity: 756".into(),
                "OpenGTSHelper: 43".into(),
                "OpenGTSClient: 91".into(),
                "OpenGTSClient: 115".into(),
            ],
            fix: fix_suggestion(
                DefectKind::MissedConnectivityCheck,
                Library::BasicHttpClient,
                true,
            ),
            provenance: vec![
                Evidence::Request {
                    method: "LOpenGTSClient;.sendHttp".into(),
                    stmt: 115,
                    api: "HttpClient.get".into(),
                },
                Evidence::Absence {
                    what: "connectivity check guarding the request".into(),
                    scanned: 4,
                },
            ],
        };
        let text = r.render();
        assert!(text.contains("NPD Information"));
        assert!(text.contains("NPD impact"));
        assert!(text.contains("Bad UX, battery life"));
        assert!(text.contains("call stack"));
        assert!(text.contains("GpsMainActivity: 756"));
        assert!(text.contains("Show error message if no connection"));
        // The evidence section trails the Figure 7 sections.
        let fix_at = text.find("Fix Suggestion").unwrap();
        let ev_at = text.find("Evidence").unwrap();
        assert!(ev_at > fix_at);
        assert!(text.contains("request HttpClient.get at LOpenGTSClient;.sendHttp:115"));
        assert!(text.contains("not found: connectivity check"));
    }

    #[test]
    fn evidence_names_methods() {
        let e = Evidence::CallEdge {
            caller: "La/Main;.onCreate".into(),
            callee: "La/Helper;.run".into(),
            stmt: 3,
        };
        assert_eq!(e.method(), Some("La/Main;.onCreate"));
        assert!(e.render().contains("->"));
        let a = Evidence::Absence {
            what: "x".into(),
            scanned: 0,
        };
        assert_eq!(a.method(), None);
    }

    #[test]
    fn fix_suggestions_are_context_aware() {
        let user = fix_suggestion(DefectKind::MissedConnectivityCheck, Library::Volley, true);
        let bg = fix_suggestion(DefectKind::MissedConnectivityCheck, Library::Volley, false);
        assert!(user.contains("error message"));
        assert!(bg.contains("save energy"));
    }

    #[test]
    fn over_retry_labels_distinguish_contexts() {
        let a = DefectKind::OverRetry {
            context: OverRetryContext::Service,
            default_caused: true,
        };
        let b = DefectKind::OverRetry {
            context: OverRetryContext::Post,
            default_caused: false,
        };
        assert_ne!(a.label(), b.label());
        assert!(fix_suggestion(a, Library::AndroidAsyncHttp, false).contains("library default"));
        assert!(!fix_suggestion(b, Library::Volley, true).contains("library default"));
    }
}
