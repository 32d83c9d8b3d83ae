//! The six mobile network libraries NChecker annotates (§3, Table 4) plus
//! their default behaviours.

use std::fmt;

/// One of the annotated network libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Library {
    /// `java.net.HttpURLConnection` — Android native.
    HttpUrlConnection,
    /// Apache `HttpClient` — Android native (until API 22).
    ApacheHttpClient,
    /// Google Volley.
    Volley,
    /// Square OkHttp.
    OkHttp,
    /// Android Asynchronous Http Client (loopj).
    AndroidAsyncHttp,
    /// Basic Http Client (turbomanage).
    BasicHttpClient,
}

/// All libraries in Table 4 column order.
pub const ALL_LIBRARIES: &[Library] = &[
    Library::HttpUrlConnection,
    Library::ApacheHttpClient,
    Library::Volley,
    Library::OkHttp,
    Library::AndroidAsyncHttp,
    Library::BasicHttpClient,
];

impl Library {
    /// Human-readable name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Library::HttpUrlConnection => "HttpURLConnection",
            Library::ApacheHttpClient => "Apache HttpClient",
            Library::Volley => "Volley",
            Library::OkHttp => "OkHttp",
            Library::AndroidAsyncHttp => "Android Async HTTP",
            Library::BasicHttpClient => "Basic HTTP",
        }
    }

    /// Returns `true` for the two Android native libraries.
    pub fn is_native(self) -> bool {
        matches!(self, Library::HttpUrlConnection | Library::ApacheHttpClient)
    }

    /// Returns `true` when the library exposes retry-policy APIs.
    pub fn has_retry_api(self) -> bool {
        matches!(
            self,
            Library::Volley | Library::AndroidAsyncHttp | Library::BasicHttpClient
        )
    }

    /// Returns `true` when the library exposes a response-validity API.
    pub fn has_response_check_api(self) -> bool {
        matches!(self, Library::OkHttp | Library::ApacheHttpClient)
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Default behaviours of a library when the developer configures nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibraryDefaults {
    /// Default request timeout in milliseconds; `None` means no timeout
    /// (a blocking connect that can hang for minutes — §2.3 cause 3.1).
    pub timeout_ms: Option<u32>,
    /// Default automatic retry count on transient failure.
    pub retries: u32,
    /// Whether the default retries also apply to POST requests (violating
    /// HTTP/1.1's non-idempotent retry rule when they do).
    pub retries_apply_to_post: bool,
    /// Whether the library checks connectivity before sending.
    pub auto_connectivity_check: bool,
    /// Whether the library validates responses before handing them over.
    pub auto_response_check: bool,
}

/// Returns the defaults of `lib` as modeled from the paper (§1.2, §3,
/// §5.2.2).
pub fn defaults(lib: Library) -> LibraryDefaults {
    match lib {
        // Blocking connect; since Android 4.4 the OkHttp backend retries
        // alternate addresses on connect failure (§7).
        Library::HttpUrlConnection => LibraryDefaults {
            timeout_ms: None,
            retries: 1,
            retries_apply_to_post: false,
            auto_connectivity_check: false,
            auto_response_check: false,
        },
        Library::ApacheHttpClient => LibraryDefaults {
            timeout_ms: None,
            retries: 0,
            retries_apply_to_post: false,
            auto_connectivity_check: false,
            auto_response_check: false,
        },
        // "the default timeout is 2500ms... the library will automatically
        // retry once" (§1.2, Figure 3). Volley also auto-checks response
        // validity (Table 4).
        Library::Volley => LibraryDefaults {
            timeout_ms: Some(2500),
            retries: 1,
            retries_apply_to_post: true,
            auto_connectivity_check: false,
            auto_response_check: true,
        },
        // "OkHttp does not set request timeouts by default" (§3); it does
        // retry connection failures automatically.
        Library::OkHttp => LibraryDefaults {
            timeout_ms: None,
            retries: 1,
            retries_apply_to_post: false,
            auto_connectivity_check: false,
            auto_response_check: false,
        },
        // "Android Async HTTP library retries 5 times for all kinds of
        // requests by default" (§4.2 pattern 2), default timeout 10 s.
        Library::AndroidAsyncHttp => LibraryDefaults {
            timeout_ms: Some(10_000),
            retries: 5,
            retries_apply_to_post: true,
            auto_connectivity_check: false,
            auto_response_check: false,
        },
        Library::BasicHttpClient => LibraryDefaults {
            timeout_ms: Some(2000),
            retries: 1,
            retries_apply_to_post: false,
            auto_connectivity_check: false,
            auto_response_check: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_classification() {
        assert!(Library::HttpUrlConnection.is_native());
        assert!(Library::ApacheHttpClient.is_native());
        assert!(!Library::Volley.is_native());
    }

    #[test]
    fn volley_defaults_match_the_paper() {
        let d = defaults(Library::Volley);
        assert_eq!(d.timeout_ms, Some(2500));
        assert_eq!(d.retries, 1);
        assert!(d.retries_apply_to_post);
        assert!(d.auto_response_check);
    }

    #[test]
    fn async_http_retries_five_times() {
        let d = defaults(Library::AndroidAsyncHttp);
        assert_eq!(d.retries, 5);
        assert!(d.retries_apply_to_post);
    }

    #[test]
    fn okhttp_has_no_default_timeout() {
        assert_eq!(defaults(Library::OkHttp).timeout_ms, None);
    }

    #[test]
    fn retry_api_availability() {
        let with: Vec<_> = ALL_LIBRARIES.iter().filter(|l| l.has_retry_api()).collect();
        assert_eq!(with.len(), 3);
    }
}
