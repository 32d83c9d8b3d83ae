//! The API annotation registry (§4.3): target, config, response-checking,
//! and connectivity APIs of the six libraries, plus callback interfaces.
//!
//! NChecker's analyses are entirely driven by these annotations — exactly
//! 14 target APIs, 77 config APIs, and 2 response-checking APIs, matching
//! the counts the paper reports.

use crate::library::Library;
use std::collections::HashMap;

/// A static reference to a framework/library method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApiRef {
    /// Declaring class descriptor.
    pub class: &'static str,
    /// Method name.
    pub name: &'static str,
    /// Signature descriptor.
    pub sig: &'static str,
}

/// The HTTP method of a request, where statically determinable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpMethod {
    /// Idempotent read.
    Get,
    /// Non-idempotent write: must not be auto-retried (HTTP/1.1).
    Post,
    /// PUT (idempotent write).
    Put,
    /// DELETE.
    Delete,
    /// HEAD.
    Head,
}

/// How the HTTP method of a target API call is determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodDetermination {
    /// The API always issues this method (e.g. `AsyncHttpClient.post`).
    Always(HttpMethod),
    /// An integer argument selects the method, using Volley's
    /// `Request.Method` constants (`0`=GET, `1`=POST, `2`=PUT, `3`=DELETE).
    ByIntArg {
        /// Zero-based argument index (receiver excluded).
        arg: usize,
    },
    /// The runtime type of an argument selects it (Apache: `HttpPost`
    /// vs. `HttpGet` request objects).
    ByArgType {
        /// Zero-based argument index (receiver excluded).
        arg: usize,
    },
    /// A config API on the client selects it (`setRequestMethod("POST")`).
    ByConfigApi,
    /// Not statically determinable.
    Unknown,
}

/// Decodes Volley's `Request.Method` integer constants.
pub fn volley_method_constant(v: i64) -> Option<HttpMethod> {
    match v {
        -1 | 0 => Some(HttpMethod::Get), // DEPRECATED_GET_OR_POST treated as GET.
        1 => Some(HttpMethod::Post),
        2 => Some(HttpMethod::Put),
        3 => Some(HttpMethod::Delete),
        4 => Some(HttpMethod::Head),
        _ => None,
    }
}

/// A request-sending (target) API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetApi {
    /// The method itself.
    pub api: ApiRef,
    /// Which library it belongs to.
    pub library: Library,
    /// How the HTTP method is determined.
    pub method: MethodDetermination,
    /// `true` when the call is asynchronous and completion is delivered
    /// through callbacks.
    pub is_async: bool,
}

/// What a config API configures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// Connect-phase timeout.
    ConnectTimeout,
    /// Read/socket timeout.
    ReadTimeout,
    /// A single API covering both phases.
    CombinedTimeout,
    /// Retry count / policy; `count_arg` is the argument carrying the
    /// retry count when there is one.
    Retry {
        /// Zero-based argument index (receiver excluded) of the count.
        count_arg: Option<usize>,
    },
    /// Selects which exception classes are retried.
    RetryException,
    /// A single API carrying both a timeout and a retry count, like
    /// Volley's `DefaultRetryPolicy(timeoutMs, maxRetries, backoff)`.
    TimeoutAndRetry {
        /// Zero-based argument index of the timeout in milliseconds.
        timeout_arg: usize,
        /// Zero-based argument index of the retry count.
        count_arg: usize,
    },
    /// Any other reliability-relevant knob.
    Other,
}

impl ConfigKind {
    /// Returns `true` for any timeout-setting flavour.
    pub fn is_timeout(self) -> bool {
        matches!(
            self,
            ConfigKind::ConnectTimeout
                | ConfigKind::ReadTimeout
                | ConfigKind::CombinedTimeout
                | ConfigKind::TimeoutAndRetry { .. }
        )
    }

    /// Returns `true` for retry configuration.
    pub fn is_retry(self) -> bool {
        matches!(
            self,
            ConfigKind::Retry { .. }
                | ConfigKind::RetryException
                | ConfigKind::TimeoutAndRetry { .. }
        )
    }

    /// Returns the argument index carrying a retry count, if any.
    pub fn retry_count_arg(self) -> Option<usize> {
        match self {
            ConfigKind::Retry { count_arg } => count_arg,
            ConfigKind::TimeoutAndRetry { count_arg, .. } => Some(count_arg),
            _ => None,
        }
    }
}

/// A request-configuration API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigApi {
    /// The method itself.
    pub api: ApiRef,
    /// Which library it belongs to.
    pub library: Library,
    /// What it configures.
    pub kind: ConfigKind,
}

/// A response-validity-checking API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseCheckApi {
    /// The method itself.
    pub api: ApiRef,
    /// Which library it belongs to.
    pub library: Library,
}

/// An error/success callback interface associated with a library's async
/// requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallbackApi {
    /// Interface descriptor.
    pub interface: &'static str,
    /// Callback method name.
    pub method: &'static str,
    /// Callback method signature.
    pub sig: &'static str,
    /// Which library it belongs to.
    pub library: Library,
    /// `true` for the error (vs. success) callback.
    pub is_error: bool,
    /// `true` when the callback's argument exposes typed error causes the
    /// developer can branch on (only Volley's `VolleyError`, §4.4.3).
    pub exposes_error_types: bool,
}

/// Connectivity-state APIs (Android framework, not library-specific).
pub const CONNECTIVITY_APIS: &[ApiRef] = &[
    ApiRef {
        class: "Landroid/net/ConnectivityManager;",
        name: "getActiveNetworkInfo",
        sig: "()Landroid/net/NetworkInfo;",
    },
    ApiRef {
        class: "Landroid/net/ConnectivityManager;",
        name: "getNetworkInfo",
        sig: "(I)Landroid/net/NetworkInfo;",
    },
    ApiRef {
        class: "Landroid/net/NetworkInfo;",
        name: "isConnected",
        sig: "()Z",
    },
    ApiRef {
        class: "Landroid/net/NetworkInfo;",
        name: "isConnectedOrConnecting",
        sig: "()Z",
    },
    ApiRef {
        class: "Landroid/net/NetworkInfo;",
        name: "isAvailable",
        sig: "()Z",
    },
];

fn target_apis() -> Vec<TargetApi> {
    use Library::*;
    use MethodDetermination::*;
    let t = |class, name, sig, library, method, is_async| TargetApi {
        api: ApiRef { class, name, sig },
        library,
        method,
        is_async,
    };
    vec![
        // HttpURLConnection: the request is sent when the response is
        // first demanded.
        t(
            "Ljava/net/HttpURLConnection;",
            "getInputStream",
            "()Ljava/io/InputStream;",
            HttpUrlConnection,
            ByConfigApi,
            false,
        ),
        t(
            "Ljava/net/HttpURLConnection;",
            "getResponseCode",
            "()I",
            HttpUrlConnection,
            ByConfigApi,
            false,
        ),
        t(
            "Ljava/net/HttpURLConnection;",
            "connect",
            "()V",
            HttpUrlConnection,
            ByConfigApi,
            false,
        ),
        // Apache HttpClient.
        t(
            "Lorg/apache/http/client/HttpClient;",
            "execute",
            "(Lorg/apache/http/client/methods/HttpUriRequest;)Lorg/apache/http/HttpResponse;",
            ApacheHttpClient,
            ByArgType { arg: 0 },
            false,
        ),
        t(
            "Lorg/apache/http/impl/client/DefaultHttpClient;",
            "execute",
            "(Lorg/apache/http/client/methods/HttpUriRequest;)Lorg/apache/http/HttpResponse;",
            ApacheHttpClient,
            ByArgType { arg: 0 },
            false,
        ),
        // Volley: requests are dispatched by adding them to the queue; the
        // request constructor's first int argument is the HTTP method.
        t(
            "Lcom/android/volley/RequestQueue;",
            "add",
            "(Lcom/android/volley/Request;)Lcom/android/volley/Request;",
            Volley,
            ByIntArg { arg: 0 },
            true,
        ),
        // OkHttp.
        t(
            "Lcom/squareup/okhttp/Call;",
            "execute",
            "()Lcom/squareup/okhttp/Response;",
            OkHttp,
            ByConfigApi,
            false,
        ),
        t(
            "Lcom/squareup/okhttp/Call;",
            "enqueue",
            "(Lcom/squareup/okhttp/Callback;)V",
            OkHttp,
            ByConfigApi,
            true,
        ),
        // Android Async HTTP.
        t(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "get",
            "(Ljava/lang/String;Lcom/loopj/android/http/ResponseHandlerInterface;)Lcom/loopj/android/http/RequestHandle;",
            AndroidAsyncHttp,
            Always(HttpMethod::Get),
            true,
        ),
        t(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "post",
            "(Ljava/lang/String;Lcom/loopj/android/http/ResponseHandlerInterface;)Lcom/loopj/android/http/RequestHandle;",
            AndroidAsyncHttp,
            Always(HttpMethod::Post),
            true,
        ),
        t(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "put",
            "(Ljava/lang/String;Lcom/loopj/android/http/ResponseHandlerInterface;)Lcom/loopj/android/http/RequestHandle;",
            AndroidAsyncHttp,
            Always(HttpMethod::Put),
            true,
        ),
        t(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "delete",
            "(Ljava/lang/String;Lcom/loopj/android/http/ResponseHandlerInterface;)Lcom/loopj/android/http/RequestHandle;",
            AndroidAsyncHttp,
            Always(HttpMethod::Delete),
            true,
        ),
        // Basic HTTP client.
        t(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "get",
            "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;",
            BasicHttpClient,
            Always(HttpMethod::Get),
            false,
        ),
        t(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "post",
            "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;",
            BasicHttpClient,
            Always(HttpMethod::Post),
            false,
        ),
    ]
}

fn config_apis() -> Vec<ConfigApi> {
    use ConfigKind::*;
    use Library::*;
    let c = |class, name, sig, library, kind| ConfigApi {
        api: ApiRef { class, name, sig },
        library,
        kind,
    };
    vec![
        // --- HttpURLConnection (10) ---
        c(
            "Ljava/net/HttpURLConnection;",
            "setConnectTimeout",
            "(I)V",
            HttpUrlConnection,
            ConnectTimeout,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setReadTimeout",
            "(I)V",
            HttpUrlConnection,
            ReadTimeout,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setRequestMethod",
            "(Ljava/lang/String;)V",
            HttpUrlConnection,
            Other,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setDoOutput",
            "(Z)V",
            HttpUrlConnection,
            Other,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setDoInput",
            "(Z)V",
            HttpUrlConnection,
            Other,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setUseCaches",
            "(Z)V",
            HttpUrlConnection,
            Other,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setRequestProperty",
            "(Ljava/lang/String;Ljava/lang/String;)V",
            HttpUrlConnection,
            Other,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setInstanceFollowRedirects",
            "(Z)V",
            HttpUrlConnection,
            Other,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setChunkedStreamingMode",
            "(I)V",
            HttpUrlConnection,
            Other,
        ),
        c(
            "Ljava/net/HttpURLConnection;",
            "setFixedLengthStreamingMode",
            "(I)V",
            HttpUrlConnection,
            Other,
        ),
        // --- Apache HttpClient (16) ---
        c(
            "Lorg/apache/http/params/HttpConnectionParams;",
            "setConnectionTimeout",
            "(Lorg/apache/http/params/HttpParams;I)V",
            ApacheHttpClient,
            ConnectTimeout,
        ),
        c(
            "Lorg/apache/http/params/HttpConnectionParams;",
            "setSoTimeout",
            "(Lorg/apache/http/params/HttpParams;I)V",
            ApacheHttpClient,
            ReadTimeout,
        ),
        c(
            "Lorg/apache/http/params/HttpConnectionParams;",
            "setSocketBufferSize",
            "(Lorg/apache/http/params/HttpParams;I)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/params/HttpConnectionParams;",
            "setLinger",
            "(Lorg/apache/http/params/HttpParams;I)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/params/HttpConnectionParams;",
            "setStaleCheckingEnabled",
            "(Lorg/apache/http/params/HttpParams;Z)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/params/HttpConnectionParams;",
            "setTcpNoDelay",
            "(Lorg/apache/http/params/HttpParams;Z)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/params/HttpParams;",
            "setParameter",
            "(Ljava/lang/String;Ljava/lang/Object;)Lorg/apache/http/params/HttpParams;",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/params/HttpParams;",
            "setIntParameter",
            "(Ljava/lang/String;I)Lorg/apache/http/params/HttpParams;",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/params/HttpParams;",
            "setLongParameter",
            "(Ljava/lang/String;J)Lorg/apache/http/params/HttpParams;",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/params/HttpParams;",
            "setBooleanParameter",
            "(Ljava/lang/String;Z)Lorg/apache/http/params/HttpParams;",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/impl/client/DefaultHttpClient;",
            "setHttpRequestRetryHandler",
            "(Lorg/apache/http/client/HttpRequestRetryHandler;)V",
            ApacheHttpClient,
            Retry { count_arg: None },
        ),
        c(
            "Lorg/apache/http/impl/client/DefaultHttpClient;",
            "setRedirectHandler",
            "(Lorg/apache/http/client/RedirectHandler;)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/impl/client/DefaultHttpClient;",
            "setKeepAliveStrategy",
            "(Lorg/apache/http/conn/ConnectionKeepAliveStrategy;)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/impl/client/DefaultHttpClient;",
            "setReuseStrategy",
            "(Lorg/apache/http/ConnectionReuseStrategy;)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/client/params/HttpClientParams;",
            "setRedirecting",
            "(Lorg/apache/http/params/HttpParams;Z)V",
            ApacheHttpClient,
            Other,
        ),
        c(
            "Lorg/apache/http/client/params/HttpClientParams;",
            "setAuthenticating",
            "(Lorg/apache/http/params/HttpParams;Z)V",
            ApacheHttpClient,
            Other,
        ),
        // --- Volley (9) ---
        c(
            "Lcom/android/volley/Request;",
            "setRetryPolicy",
            "(Lcom/android/volley/RetryPolicy;)Lcom/android/volley/Request;",
            Volley,
            Retry { count_arg: None },
        ),
        c(
            "Lcom/android/volley/DefaultRetryPolicy;",
            "<init>",
            "(IIF)V",
            Volley,
            TimeoutAndRetry {
                timeout_arg: 0,
                count_arg: 1,
            },
        ),
        c(
            "Lcom/android/volley/Request;",
            "setShouldCache",
            "(Z)Lcom/android/volley/Request;",
            Volley,
            Other,
        ),
        c(
            "Lcom/android/volley/Request;",
            "setTag",
            "(Ljava/lang/Object;)Lcom/android/volley/Request;",
            Volley,
            Other,
        ),
        c(
            "Lcom/android/volley/Request;",
            "setPriority",
            "(Lcom/android/volley/Request$Priority;)Lcom/android/volley/Request;",
            Volley,
            Other,
        ),
        c(
            "Lcom/android/volley/Request;",
            "setSequence",
            "(I)Lcom/android/volley/Request;",
            Volley,
            Other,
        ),
        c(
            "Lcom/android/volley/Request;",
            "setShouldRetryServerErrors",
            "(Z)Lcom/android/volley/Request;",
            Volley,
            Retry { count_arg: None },
        ),
        c(
            "Lcom/android/volley/Request;",
            "setRequestQueue",
            "(Lcom/android/volley/RequestQueue;)Lcom/android/volley/Request;",
            Volley,
            Other,
        ),
        c(
            "Lcom/android/volley/RequestQueue;",
            "start",
            "()V",
            Volley,
            Other,
        ),
        // --- OkHttp (20) ---
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setConnectTimeout",
            "(JLjava/util/concurrent/TimeUnit;)V",
            OkHttp,
            ConnectTimeout,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setReadTimeout",
            "(JLjava/util/concurrent/TimeUnit;)V",
            OkHttp,
            ReadTimeout,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setWriteTimeout",
            "(JLjava/util/concurrent/TimeUnit;)V",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setRetryOnConnectionFailure",
            "(Z)V",
            OkHttp,
            Retry { count_arg: None },
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setFollowRedirects",
            "(Z)V",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setFollowSslRedirects",
            "(Z)V",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setCache",
            "(Lcom/squareup/okhttp/Cache;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setConnectionPool",
            "(Lcom/squareup/okhttp/ConnectionPool;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setProtocols",
            "(Ljava/util/List;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setProxy",
            "(Ljava/net/Proxy;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setAuthenticator",
            "(Lcom/squareup/okhttp/Authenticator;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setConnectionSpecs",
            "(Ljava/util/List;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setDns",
            "(Lcom/squareup/okhttp/Dns;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setSocketFactory",
            "(Ljavax/net/SocketFactory;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setSslSocketFactory",
            "(Ljavax/net/ssl/SSLSocketFactory;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setHostnameVerifier",
            "(Ljavax/net/ssl/HostnameVerifier;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setCertificatePinner",
            "(Lcom/squareup/okhttp/CertificatePinner;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setCookieHandler",
            "(Ljava/net/CookieHandler;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "setDispatcher",
            "(Lcom/squareup/okhttp/Dispatcher;)Lcom/squareup/okhttp/OkHttpClient;",
            OkHttp,
            Other,
        ),
        c(
            "Lcom/squareup/okhttp/OkHttpClient;",
            "interceptors",
            "()Ljava/util/List;",
            OkHttp,
            Other,
        ),
        // --- Android Async HTTP (14) ---
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setTimeout",
            "(I)V",
            AndroidAsyncHttp,
            CombinedTimeout,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setConnectTimeout",
            "(I)V",
            AndroidAsyncHttp,
            ConnectTimeout,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setResponseTimeout",
            "(I)V",
            AndroidAsyncHttp,
            ReadTimeout,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setMaxRetriesAndTimeout",
            "(II)V",
            AndroidAsyncHttp,
            Retry { count_arg: Some(0) },
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "allowRetryExceptionClass",
            "(Ljava/lang/Class;)V",
            AndroidAsyncHttp,
            RetryException,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "blockRetryExceptionClass",
            "(Ljava/lang/Class;)V",
            AndroidAsyncHttp,
            RetryException,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setMaxConnections",
            "(I)V",
            AndroidAsyncHttp,
            Other,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setUserAgent",
            "(Ljava/lang/String;)V",
            AndroidAsyncHttp,
            Other,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setEnableRedirects",
            "(Z)V",
            AndroidAsyncHttp,
            Other,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setProxy",
            "(Ljava/lang/String;I)V",
            AndroidAsyncHttp,
            Other,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setSSLSocketFactory",
            "(Lcom/loopj/android/http/MySSLSocketFactory;)V",
            AndroidAsyncHttp,
            Other,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setThreadPool",
            "(Ljava/util/concurrent/ExecutorService;)V",
            AndroidAsyncHttp,
            Other,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setURLEncodingEnabled",
            "(Z)V",
            AndroidAsyncHttp,
            Other,
        ),
        c(
            "Lcom/loopj/android/http/AsyncHttpClient;",
            "setAuthenticationPreemptive",
            "(Z)V",
            AndroidAsyncHttp,
            Other,
        ),
        // --- Basic HTTP client (8) ---
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "setConnectionTimeout",
            "(I)V",
            BasicHttpClient,
            ConnectTimeout,
        ),
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "setReadTimeout",
            "(I)V",
            BasicHttpClient,
            ReadTimeout,
        ),
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "setMaxRetries",
            "(I)V",
            BasicHttpClient,
            Retry { count_arg: Some(0) },
        ),
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "addHeader",
            "(Ljava/lang/String;Ljava/lang/String;)V",
            BasicHttpClient,
            Other,
        ),
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "setLogger",
            "(Lcom/turbomanage/httpclient/RequestLogger;)V",
            BasicHttpClient,
            Other,
        ),
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "setRequestHandler",
            "(Lcom/turbomanage/httpclient/RequestHandler;)V",
            BasicHttpClient,
            Other,
        ),
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "setAsync",
            "(Z)V",
            BasicHttpClient,
            Other,
        ),
        c(
            "Lcom/turbomanage/httpclient/BasicHttpClient;",
            "addQueryParameter",
            "(Ljava/lang/String;Ljava/lang/String;)V",
            BasicHttpClient,
            Other,
        ),
    ]
}

fn response_check_apis() -> Vec<ResponseCheckApi> {
    vec![
        ResponseCheckApi {
            api: ApiRef {
                class: "Lcom/squareup/okhttp/Response;",
                name: "isSuccessful",
                sig: "()Z",
            },
            library: Library::OkHttp,
        },
        ResponseCheckApi {
            api: ApiRef {
                class: "Lorg/apache/http/HttpResponse;",
                name: "getStatusLine",
                sig: "()Lorg/apache/http/StatusLine;",
            },
            library: Library::ApacheHttpClient,
        },
    ]
}

fn callback_apis() -> Vec<CallbackApi> {
    use Library::*;
    vec![
        CallbackApi {
            interface: "Lcom/android/volley/Response$ErrorListener;",
            method: "onErrorResponse",
            sig: "(Lcom/android/volley/VolleyError;)V",
            library: Volley,
            is_error: true,
            exposes_error_types: true,
        },
        CallbackApi {
            interface: "Lcom/android/volley/Response$Listener;",
            method: "onResponse",
            sig: "(Ljava/lang/Object;)V",
            library: Volley,
            is_error: false,
            exposes_error_types: false,
        },
        CallbackApi {
            interface: "Lcom/squareup/okhttp/Callback;",
            method: "onFailure",
            sig: "(Lcom/squareup/okhttp/Request;Ljava/io/IOException;)V",
            library: OkHttp,
            is_error: true,
            exposes_error_types: false,
        },
        CallbackApi {
            interface: "Lcom/squareup/okhttp/Callback;",
            method: "onResponse",
            sig: "(Lcom/squareup/okhttp/Response;)V",
            library: OkHttp,
            is_error: false,
            exposes_error_types: false,
        },
        CallbackApi {
            interface: "Lcom/loopj/android/http/AsyncHttpResponseHandler;",
            method: "onFailure",
            sig: "(I[Lorg/apache/http/Header;[BLjava/lang/Throwable;)V",
            library: AndroidAsyncHttp,
            is_error: true,
            exposes_error_types: false,
        },
        CallbackApi {
            interface: "Lcom/loopj/android/http/AsyncHttpResponseHandler;",
            method: "onSuccess",
            sig: "(I[Lorg/apache/http/Header;[B)V",
            library: AndroidAsyncHttp,
            is_error: false,
            exposes_error_types: false,
        },
        // AsyncTask-based native requests deliver completion through
        // onPostExecute — an *implicit* callback with no error/success
        // separation (Table 11 ties this to the guideline on explicit
        // callbacks).
        CallbackApi {
            interface: "Landroid/os/AsyncTask;",
            method: "onPostExecute",
            sig: "(Ljava/lang/Object;)V",
            library: HttpUrlConnection,
            is_error: true,
            exposes_error_types: false,
        },
    ]
}

/// The complete annotation registry with indexed lookups.
#[derive(Debug)]
pub struct Registry {
    targets: Vec<TargetApi>,
    configs: Vec<ConfigApi>,
    response_checks: Vec<ResponseCheckApi>,
    callbacks: Vec<CallbackApi>,
    roles: HashMap<(&'static str, &'static str), ApiRoles>,
}

/// Every role one `(class, name)` key plays in the registry. The indices
/// point into [`Registry::targets`], [`Registry::configs`] and
/// [`Registry::response_checks`]; when two entries of one table share a
/// key, the later one wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApiRoles {
    /// Index of the target API with this key.
    pub target: Option<usize>,
    /// Index of the config API with this key.
    pub config: Option<usize>,
    /// Index of the response-checking API with this key.
    pub response_check: Option<usize>,
    /// Whether the key is a connectivity-state API.
    pub connectivity: bool,
}

impl Registry {
    /// Builds the standard registry of the six libraries.
    pub fn standard() -> Registry {
        let targets = target_apis();
        let configs = config_apis();
        let response_checks = response_check_apis();
        let callbacks = callback_apis();
        let mut roles: HashMap<(&'static str, &'static str), ApiRoles> = HashMap::new();
        for (i, t) in targets.iter().enumerate() {
            roles.entry((t.api.class, t.api.name)).or_default().target = Some(i);
        }
        for (i, c) in configs.iter().enumerate() {
            roles.entry((c.api.class, c.api.name)).or_default().config = Some(i);
        }
        for (i, r) in response_checks.iter().enumerate() {
            roles
                .entry((r.api.class, r.api.name))
                .or_default()
                .response_check = Some(i);
        }
        for api in CONNECTIVITY_APIS {
            roles.entry((api.class, api.name)).or_default().connectivity = true;
        }
        Registry {
            targets,
            configs,
            response_checks,
            callbacks,
            roles,
        }
    }

    /// All target APIs.
    pub fn targets(&self) -> &[TargetApi] {
        &self.targets
    }

    /// All config APIs.
    pub fn configs(&self) -> &[ConfigApi] {
        &self.configs
    }

    /// All response-checking APIs.
    pub fn response_checks(&self) -> &[ResponseCheckApi] {
        &self.response_checks
    }

    /// All library callback interfaces.
    pub fn callbacks(&self) -> &[CallbackApi] {
        &self.callbacks
    }

    /// Every `(class, name)` key of the registry with its roles, in no
    /// particular order.
    pub fn roles(&self) -> impl Iterator<Item = (&'static str, &'static str, ApiRoles)> + '_ {
        self.roles.iter().map(|(&(c, n), &r)| (c, n, r))
    }

    /// The roles of `class.name`; all empty for a key the registry lacks.
    pub fn roles_of(&self, class: &str, name: &str) -> ApiRoles {
        self.roles.get(&(class, name)).copied().unwrap_or_default()
    }

    /// Looks up a target API by the call's class and method name.
    pub fn target(&self, class: &str, name: &str) -> Option<&TargetApi> {
        self.roles_of(class, name).target.map(|i| &self.targets[i])
    }

    /// Looks up a config API by class and method name.
    pub fn config(&self, class: &str, name: &str) -> Option<&ConfigApi> {
        self.roles_of(class, name).config.map(|i| &self.configs[i])
    }

    /// Looks up a response-checking API by class and method name.
    pub fn response_check(&self, class: &str, name: &str) -> Option<&ResponseCheckApi> {
        self.roles_of(class, name)
            .response_check
            .map(|i| &self.response_checks[i])
    }

    /// Returns `true` when `class.name` is a connectivity-state API.
    pub fn is_connectivity_check(&self, class: &str, name: &str) -> bool {
        self.roles_of(class, name).connectivity
    }

    /// Returns the error callback of `library`, if it has an explicit one.
    pub fn error_callback(&self, library: Library) -> Option<&CallbackApi> {
        self.callbacks
            .iter()
            .find(|c| c.library == library && c.is_error)
    }

    /// Looks up a library callback spec by interface and method name.
    pub fn callback(&self, interface: &str, method: &str) -> Option<&CallbackApi> {
        self.callbacks
            .iter()
            .find(|c| c.interface == interface && c.method == method)
    }

    /// Whether `(class, name)` names *any* API the checkers care about:
    /// a request target, a config setter, a response check, or a
    /// connectivity check. This is the prescan predicate — an app whose
    /// constant pool references none of these can be skipped outright.
    /// Every key in the registry has at least one role, so this is one
    /// map lookup.
    pub fn is_relevant_api(&self, class: &str, name: &str) -> bool {
        self.roles.contains_key(&(class, name))
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_the_paper() {
        let r = Registry::standard();
        assert_eq!(r.targets().len(), 14, "paper annotates 14 target APIs");
        assert_eq!(r.configs().len(), 77, "paper annotates 77 config APIs");
        assert_eq!(
            r.response_checks().len(),
            2,
            "paper annotates 2 response checking APIs"
        );
    }

    #[test]
    fn target_lookup() {
        let r = Registry::standard();
        let t = r
            .target("Lcom/android/volley/RequestQueue;", "add")
            .unwrap();
        assert_eq!(t.library, Library::Volley);
        assert!(t.is_async);
        assert!(r
            .target("Lcom/android/volley/RequestQueue;", "remove")
            .is_none());
    }

    #[test]
    fn config_lookup_and_kinds() {
        let r = Registry::standard();
        let c = r
            .config(
                "Lcom/turbomanage/httpclient/BasicHttpClient;",
                "setMaxRetries",
            )
            .unwrap();
        assert_eq!(c.kind, ConfigKind::Retry { count_arg: Some(0) });
        assert!(c.kind.is_retry());
        let t = r
            .config("Ljava/net/HttpURLConnection;", "setReadTimeout")
            .unwrap();
        assert!(t.kind.is_timeout());
    }

    #[test]
    fn connectivity_apis_recognized() {
        let r = Registry::standard();
        assert!(
            r.is_connectivity_check("Landroid/net/ConnectivityManager;", "getActiveNetworkInfo")
        );
        assert!(r.is_connectivity_check("Landroid/net/NetworkInfo;", "isConnected"));
        assert!(!r.is_connectivity_check("Lcom/app/Net;", "isConnected"));
    }

    #[test]
    fn volley_error_callback_exposes_types() {
        let r = Registry::standard();
        let cb = r.error_callback(Library::Volley).unwrap();
        assert!(cb.exposes_error_types);
        let ok = r.error_callback(Library::OkHttp).unwrap();
        assert!(!ok.exposes_error_types);
    }

    #[test]
    fn one_map_answers_like_the_tables() {
        // Each accessor returns the last table entry with the key, as
        // the per-role maps collected from the tables did.
        let r = Registry::standard();
        let last = |keys: Vec<(&str, &str)>, class: &str, name: &str| {
            keys.iter().rposition(|&k| k == (class, name))
        };
        let mut probes: Vec<(&str, &str)> = r.roles().map(|(c, n, _)| (c, n)).collect();
        probes.push(("Lcom/app/Net;", "isConnected"));
        probes.push(("Ljava/net/HttpURLConnection;", "isConnected"));
        for (class, name) in probes {
            let targets = r
                .targets()
                .iter()
                .map(|t| (t.api.class, t.api.name))
                .collect();
            let configs = r
                .configs()
                .iter()
                .map(|c| (c.api.class, c.api.name))
                .collect();
            let checks = r
                .response_checks()
                .iter()
                .map(|c| (c.api.class, c.api.name))
                .collect();
            let conn = CONNECTIVITY_APIS
                .iter()
                .any(|a| (a.class, a.name) == (class, name));
            let roles = r.roles_of(class, name);
            assert_eq!(roles.target, last(targets, class, name));
            assert_eq!(roles.config, last(configs, class, name));
            assert_eq!(roles.response_check, last(checks, class, name));
            assert_eq!(roles.connectivity, conn);
            assert_eq!(r.is_relevant_api(class, name), roles != ApiRoles::default());
        }
    }

    #[test]
    fn volley_method_constants() {
        assert_eq!(volley_method_constant(1), Some(HttpMethod::Post));
        assert_eq!(volley_method_constant(0), Some(HttpMethod::Get));
        assert_eq!(volley_method_constant(99), None);
    }

    #[test]
    fn every_library_has_a_timeout_config() {
        let r = Registry::standard();
        for &lib in crate::library::ALL_LIBRARIES {
            assert!(
                r.configs()
                    .iter()
                    .any(|c| c.library == lib && c.kind.is_timeout()),
                "{lib} lacks a timeout config API"
            );
        }
    }

    #[test]
    fn retry_capable_libraries_have_retry_configs() {
        let r = Registry::standard();
        for &lib in crate::library::ALL_LIBRARIES {
            if lib.has_retry_api() {
                assert!(
                    r.configs()
                        .iter()
                        .any(|c| c.library == lib && c.kind.is_retry()),
                    "{lib} claims retry APIs but has none annotated"
                );
            }
        }
    }
}
