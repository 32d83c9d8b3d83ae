//! Code generation: compiling an [`AppSpec`] into an APK binary.
//!
//! Every request spec expands into realistic Android shapes: Activities
//! with click listeners, Services, AsyncTask wrappers for native
//! requests, Volley error listeners, loopj response handlers, and the
//! three customized retry-loop shapes of Figure 6.

use crate::spec::{AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck, RetryShape};
use nck_android::apk::Apk;
use nck_android::manifest::{ComponentKind, Manifest};
use nck_dex::builder::{AdxBuilder, CodeBuilder};
use nck_dex::{AccessFlags, BinOp, CondOp};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::Library;

const CM: &str = "Landroid/net/ConnectivityManager;";
const NETINFO: &str = "Landroid/net/NetworkInfo;";
const TOAST: &str = "Landroid/widget/Toast;";
const CONTEXT: &str = "Landroid/content/Context;";
const INTENT: &str = "Landroid/content/Intent;";
const IOE: &str = "Ljava/io/IOException;";

const BASIC: &str = "Lcom/turbomanage/httpclient/BasicHttpClient;";
const BASIC_REQ_SIG: &str =
    "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;";

const ASYNC: &str = "Lcom/loopj/android/http/AsyncHttpClient;";
const ASYNC_REQ_SIG: &str =
    "(Ljava/lang/String;Lcom/loopj/android/http/ResponseHandlerInterface;)Lcom/loopj/android/http/RequestHandle;";
const ASYNC_HANDLER_BASE: &str = "Lcom/loopj/android/http/AsyncHttpResponseHandler;";

const VOLLEY_QUEUE: &str = "Lcom/android/volley/RequestQueue;";
const VOLLEY_ADD_SIG: &str = "(Lcom/android/volley/Request;)Lcom/android/volley/Request;";
const VOLLEY_STRING_REQ: &str = "Lcom/android/volley/toolbox/StringRequest;";
const VOLLEY_REQ_INIT_SIG: &str = "(ILcom/android/volley/Response$ErrorListener;)V";
const VOLLEY_REQUEST: &str = "Lcom/android/volley/Request;";
const VOLLEY_POLICY: &str = "Lcom/android/volley/DefaultRetryPolicy;";
const VOLLEY_ERR_IFACE: &str = "Lcom/android/volley/Response$ErrorListener;";
const VOLLEY_ERR_SIG: &str = "(Lcom/android/volley/VolleyError;)V";

const OK_CLIENT: &str = "Lcom/squareup/okhttp/OkHttpClient;";
const OK_CALL: &str = "Lcom/squareup/okhttp/Call;";
const OK_RESP: &str = "Lcom/squareup/okhttp/Response;";

const APACHE: &str = "Lorg/apache/http/impl/client/DefaultHttpClient;";
const APACHE_EXEC_SIG: &str =
    "(Lorg/apache/http/client/methods/HttpUriRequest;)Lorg/apache/http/HttpResponse;";
const APACHE_RESP: &str = "Lorg/apache/http/HttpResponse;";
const APACHE_PARAMS: &str = "Lorg/apache/http/params/HttpParams;";
const APACHE_CONN_PARAMS: &str = "Lorg/apache/http/params/HttpConnectionParams;";

const HUC: &str = "Ljava/net/HttpURLConnection;";

const ONCLICK_IFACE: &str = "Landroid/view/View$OnClickListener;";
const ONCLICK_SIG: &str = "(Landroid/view/View;)V";
const ASYNCTASK: &str = "Landroid/os/AsyncTask;";

/// Fixed frame size for all generated methods.
const REGS: u16 = 16;

/// Converts a package (`com.gen.app7`) into a class-path prefix
/// (`Lcom/gen/app7/`).
fn base_of(package: &str) -> String {
    format!("L{}/", package.replace('.', "/"))
}

/// Per-request naming context.
struct Ctx<'a> {
    spec: &'a RequestSpec,
    /// Class that hosts the request-sending method (for `shouldRetry`/
    /// `trySend` helpers).
    host_class: String,
}

fn emit_toast(m: &mut CodeBuilder<'_>) {
    let t = m.reg(11);
    let s = m.reg(12);
    m.const_str(s, "Network error");
    m.invoke_static(
        TOAST,
        "makeText",
        "(Ljava/lang/String;)Landroid/widget/Toast;",
        &[s],
    );
    m.move_result(t);
    m.invoke_virtual(TOAST, "show", "()V", &[t]);
}

fn emit_broadcast(m: &mut CodeBuilder<'_>) {
    let i = m.reg(11);
    let this = m.param(0).expect("instance method");
    m.new_instance(i, INTENT);
    m.invoke_direct(INTENT, "<init>", "()V", &[i]);
    m.invoke_virtual(
        CONTEXT,
        "sendBroadcast",
        "(Landroid/content/Intent;)V",
        &[this, i],
    );
}

fn emit_log(m: &mut CodeBuilder<'_>) {
    let tag = m.reg(11);
    let msg = m.reg(12);
    m.const_str(tag, "net");
    m.const_str(msg, "request failed");
    m.invoke_static(
        "Landroid/util/Log;",
        "d",
        "(Ljava/lang/String;Ljava/lang/String;)I",
        &[tag, msg],
    );
    m.move_result(m.reg(13));
}

/// Emits the connectivity prefix; returns the skip label for a guarding
/// check (to be bound at the end of the request block).
fn emit_conn_prefix(
    m: &mut CodeBuilder<'_>,
    spec: &RequestSpec,
    host: &str,
) -> Option<nck_dex::builder::Label> {
    match spec.conn_check {
        ConnCheck::GuardingViaHelper => {
            // The guard-wrapper idiom: the connectivity APIs live in an
            // app helper and only the boolean comes back.
            let ok = m.reg(10);
            let skip = m.new_label();
            let this = m.param(0).expect("instance method");
            m.invoke_virtual(host, "isOnline", "()Z", &[this]);
            m.move_result(ok);
            m.ifz(CondOp::Eq, ok, skip);
            Some(skip)
        }
        ConnCheck::Guarding => {
            // The recommended pattern: `info != null && info.isConnected()`
            // — getActiveNetworkInfo() returns null when offline.
            let cm = m.reg(8);
            let info = m.reg(9);
            let ok = m.reg(10);
            let skip = m.new_label();
            m.new_instance(cm, CM);
            m.invoke_direct(CM, "<init>", "()V", &[cm]);
            m.invoke_virtual(
                CM,
                "getActiveNetworkInfo",
                "()Landroid/net/NetworkInfo;",
                &[cm],
            );
            m.move_result(info);
            m.ifz(CondOp::Eq, info, skip);
            m.invoke_virtual(NETINFO, "isConnected", "()Z", &[info]);
            m.move_result(ok);
            m.ifz(CondOp::Eq, ok, skip);
            Some(skip)
        }
        ConnCheck::UnusedResult => {
            // The Table 9 FN idiom: the APIs are called but the result
            // never becomes a control condition of the request.
            let cm = m.reg(8);
            let info = m.reg(9);
            let ok = m.reg(10);
            let cont = m.new_label();
            m.new_instance(cm, CM);
            m.invoke_direct(CM, "<init>", "()V", &[cm]);
            m.invoke_virtual(
                CM,
                "getActiveNetworkInfo",
                "()Landroid/net/NetworkInfo;",
                &[cm],
            );
            m.move_result(info);
            m.ifz(CondOp::Eq, info, cont); // Null-safe, but...
            m.invoke_virtual(NETINFO, "isConnected", "()Z", &[info]);
            m.move_result(ok);
            m.bind(cont); // ...both paths fall through to the request.
            None
        }
        _ => None,
    }
}

/// Emits the library-specific request core using registers 0..7.
///
/// Callback-based libraries take `err_class` (the generated error
/// listener / response handler class) when one exists.
fn emit_core(m: &mut CodeBuilder<'_>, spec: &RequestSpec, err_class: Option<&str>, host: &str) {
    match spec.library {
        Library::BasicHttpClient => {
            let cl = m.reg(0);
            let v = m.reg(1);
            let url = m.reg(2);
            let pm = m.reg(3);
            m.new_instance(cl, BASIC);
            m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
            if spec.set_timeout {
                m.const_int(v, 5000);
                m.invoke_virtual(BASIC, "setReadTimeout", "(I)V", &[cl, v]);
            }
            if let Some(n) = spec.set_retries {
                emit_retry_count(m, spec, v, n, host);
                m.invoke_virtual(BASIC, "setMaxRetries", "(I)V", &[cl, v]);
            }
            m.const_str(url, "http://api.example.com/data");
            m.const_null(pm);
            let name = if spec.http_method == HttpMethod::Post {
                "post"
            } else {
                "get"
            };
            m.invoke_virtual(BASIC, name, BASIC_REQ_SIG, &[cl, url, pm]);
            m.move_result(m.reg(4));
        }
        Library::AndroidAsyncHttp => {
            let cl = m.reg(0);
            let v = m.reg(1);
            let t = m.reg(2);
            let url = m.reg(3);
            let h = m.reg(4);
            m.new_instance(cl, ASYNC);
            m.invoke_direct(ASYNC, "<init>", "()V", &[cl]);
            if spec.set_timeout {
                m.const_int(v, 10000);
                m.invoke_virtual(ASYNC, "setTimeout", "(I)V", &[cl, v]);
            }
            if let Some(n) = spec.set_retries {
                emit_retry_count(m, spec, v, n, host);
                m.const_int(t, 1500);
                m.invoke_virtual(ASYNC, "setMaxRetriesAndTimeout", "(II)V", &[cl, v, t]);
            }
            m.const_str(url, "http://api.example.com/data");
            let handler = err_class.expect("async http needs a handler class");
            m.new_instance(h, handler);
            m.invoke_direct(handler, "<init>", "()V", &[h]);
            let name = if spec.http_method == HttpMethod::Post {
                "post"
            } else {
                "get"
            };
            m.invoke_virtual(ASYNC, name, ASYNC_REQ_SIG, &[cl, url, h]);
            m.move_result(m.reg(5));
        }
        Library::Volley => {
            // A volley spec must couple timeout and retry: both travel in
            // the same DefaultRetryPolicy object.
            debug_assert_eq!(
                spec.set_timeout,
                spec.set_retries.is_some(),
                "volley specs must couple set_timeout and set_retries"
            );
            let q = m.reg(0);
            let req = m.reg(1);
            let l = m.reg(2);
            let mc = m.reg(3);
            m.invoke_static(
                "Lcom/android/volley/toolbox/Volley;",
                "newRequestQueue",
                "()Lcom/android/volley/RequestQueue;",
                &[],
            );
            m.move_result(q);
            let listener = err_class.expect("volley needs an error listener class");
            m.new_instance(l, listener);
            m.invoke_direct(listener, "<init>", "()V", &[l]);
            m.new_instance(req, VOLLEY_STRING_REQ);
            let method_const = match spec.http_method {
                HttpMethod::Get => 0,
                HttpMethod::Post => 1,
                HttpMethod::Put => 2,
                HttpMethod::Delete => 3,
                HttpMethod::Head => 4,
            };
            m.const_int(mc, method_const);
            m.invoke_direct(
                VOLLEY_STRING_REQ,
                "<init>",
                VOLLEY_REQ_INIT_SIG,
                &[req, mc, l],
            );
            if let Some(n) = spec.set_retries {
                let pol = m.reg(4);
                let t = m.reg(5);
                let nreg = m.reg(6);
                let f = m.reg(7);
                m.new_instance(pol, VOLLEY_POLICY);
                m.const_int(t, 5000);
                emit_retry_count(m, spec, nreg, n, host);
                m.const_int(f, 1);
                m.invoke_direct(VOLLEY_POLICY, "<init>", "(IIF)V", &[pol, t, nreg, f]);
                m.invoke_virtual(
                    VOLLEY_REQUEST,
                    "setRetryPolicy",
                    "(Lcom/android/volley/RetryPolicy;)Lcom/android/volley/Request;",
                    &[req, pol],
                );
            }
            m.invoke_virtual(VOLLEY_QUEUE, "add", VOLLEY_ADD_SIG, &[q, req]);
            m.move_result(m.reg(3));
        }
        Library::OkHttp => {
            let cl = m.reg(0);
            let v = m.reg(1);
            let tu = m.reg(2);
            let req = m.reg(3);
            let call = m.reg(4);
            let resp = m.reg(5);
            m.new_instance(cl, OK_CLIENT);
            m.invoke_direct(OK_CLIENT, "<init>", "()V", &[cl]);
            if spec.set_timeout {
                m.const_int(v, 10);
                m.const_null(tu);
                m.invoke_virtual(
                    OK_CLIENT,
                    "setConnectTimeout",
                    "(JLjava/util/concurrent/TimeUnit;)V",
                    &[cl, v, tu],
                );
                m.invoke_virtual(
                    OK_CLIENT,
                    "setReadTimeout",
                    "(JLjava/util/concurrent/TimeUnit;)V",
                    &[cl, v, tu],
                );
            }
            m.const_null(req);
            m.invoke_virtual(
                OK_CLIENT,
                "newCall",
                "(Lcom/squareup/okhttp/Request;)Lcom/squareup/okhttp/Call;",
                &[cl, req],
            );
            m.move_result(call);
            m.invoke_virtual(
                OK_CALL,
                "execute",
                "()Lcom/squareup/okhttp/Response;",
                &[call],
            );
            m.move_result(resp);
            emit_response_use(
                m,
                spec,
                resp,
                OK_RESP,
                "isSuccessful",
                "()Z",
                "body",
                "()Lcom/squareup/okhttp/ResponseBody;",
                host,
            );
        }
        Library::ApacheHttpClient => {
            let cl = m.reg(0);
            let params = m.reg(1);
            let v = m.reg(2);
            let req = m.reg(3);
            let resp = m.reg(4);
            m.new_instance(cl, APACHE);
            m.invoke_direct(APACHE, "<init>", "()V", &[cl]);
            if spec.set_timeout {
                m.invoke_virtual(
                    APACHE,
                    "getParams",
                    "()Lorg/apache/http/params/HttpParams;",
                    &[cl],
                );
                m.move_result(params);
                m.const_int(v, 5000);
                m.invoke_static(
                    APACHE_CONN_PARAMS,
                    "setSoTimeout",
                    &format!("({APACHE_PARAMS}I)V"),
                    &[params, v],
                );
            }
            let req_class = if spec.http_method == HttpMethod::Post {
                "Lorg/apache/http/client/methods/HttpPost;"
            } else {
                "Lorg/apache/http/client/methods/HttpGet;"
            };
            m.new_instance(req, req_class);
            m.invoke_direct(req_class, "<init>", "()V", &[req]);
            m.invoke_virtual(APACHE, "execute", APACHE_EXEC_SIG, &[cl, req]);
            m.move_result(resp);
            emit_response_use(
                m,
                spec,
                resp,
                APACHE_RESP,
                "getStatusLine",
                "()Lorg/apache/http/StatusLine;",
                "getEntity",
                "()Lorg/apache/http/HttpEntity;",
                host,
            );
        }
        Library::HttpUrlConnection => {
            let conn = m.reg(0);
            let v = m.reg(1);
            let s = m.reg(2);
            m.new_instance(conn, HUC);
            m.invoke_direct(HUC, "<init>", "()V", &[conn]);
            if spec.set_timeout {
                m.const_int(v, 15000);
                m.invoke_virtual(HUC, "setConnectTimeout", "(I)V", &[conn, v]);
                m.invoke_virtual(HUC, "setReadTimeout", "(I)V", &[conn, v]);
            }
            if spec.http_method == HttpMethod::Post {
                m.const_str(s, "POST");
                m.invoke_virtual(HUC, "setRequestMethod", "(Ljava/lang/String;)V", &[conn, s]);
            }
            m.invoke_virtual(HUC, "getInputStream", "()Ljava/io/InputStream;", &[conn]);
            m.move_result(m.reg(3));
        }
    }
}

/// Loads the configured retry count into `v`: a plain constant, or a
/// `getRetryCount()` helper call when the spec routes it through one.
fn emit_retry_count(
    m: &mut CodeBuilder<'_>,
    spec: &RequestSpec,
    v: nck_dex::Reg,
    n: u32,
    host: &str,
) {
    if spec.retries_via_helper {
        let this = m.param(0).expect("instance method");
        m.invoke_virtual(host, "getRetryCount", "()I", &[this]);
        m.move_result(v);
    } else {
        m.const_int(v, i64::from(n));
    }
}

/// Emits the response-consumption tail for a response-returning library.
#[allow(clippy::too_many_arguments)]
fn emit_response_use(
    m: &mut CodeBuilder<'_>,
    spec: &RequestSpec,
    resp: nck_dex::Reg,
    resp_class: &str,
    check_name: &str,
    check_sig: &str,
    read_name: &str,
    read_sig: &str,
    host: &str,
) {
    match spec.response {
        RespCheck::NotUsed => {}
        RespCheck::Checked => {
            // Table 10's DevFest fix: "add null check AND status check on
            // the response before reading its body".
            let ok = m.reg(6);
            let skip = m.new_label();
            m.ifz(CondOp::Eq, resp, skip);
            m.invoke_virtual(resp_class, check_name, check_sig, &[resp]);
            m.move_result(ok);
            m.ifz(CondOp::Eq, ok, skip);
            m.invoke_virtual(resp_class, read_name, read_sig, &[resp]);
            m.move_result(m.reg(7));
            m.bind(skip);
        }
        RespCheck::Unchecked => {
            m.invoke_virtual(resp_class, read_name, read_sig, &[resp]);
            m.move_result(m.reg(7));
        }
        RespCheck::CheckedViaHelper => {
            // The validation lives in an app helper; only the summary
            // engine can tell the read is guarded.
            let ok = m.reg(6);
            let skip = m.new_label();
            m.invoke_static(
                host,
                "isValidResponse",
                &format!("({resp_class})Z"),
                &[resp],
            );
            m.move_result(ok);
            m.ifz(CondOp::Eq, ok, skip);
            m.invoke_virtual(resp_class, read_name, read_sig, &[resp]);
            m.move_result(m.reg(7));
            m.bind(skip);
        }
    }
}

/// Returns `true` when the library delivers completion synchronously in
/// the sending method (so the notification lives there too).
fn is_sync(library: Library) -> bool {
    matches!(
        library,
        Library::BasicHttpClient
            | Library::OkHttp
            | Library::ApacheHttpClient
            | Library::HttpUrlConnection
    )
}

/// Emits the full request block (prefix, optional retry loop, core,
/// sync-path notification) into the current method.
fn emit_request_block(m: &mut CodeBuilder<'_>, ctx: &Ctx<'_>, err_class: Option<&str>) {
    let spec = ctx.spec;
    let skip = emit_conn_prefix(m, spec, &ctx.host_class);

    match spec.custom_retry {
        // Synchronous libraries throw checked IOExceptions, which Java
        // forces apps to catch: the failure handling (or its absence)
        // lives in the catch block, as in the paper's examples.
        None if is_sync(spec.library) => {
            let handler = m.new_label();
            let done = m.new_label();
            let t = m.begin_try();
            emit_core(m, spec, err_class, &ctx.host_class);
            m.end_try(t, &[(Some(IOE), handler)]);
            m.goto(done);
            m.bind(handler);
            m.move_exception(m.reg(13));
            if spec.origin.is_user() {
                match spec.notification {
                    Notification::Alert => emit_toast(m),
                    Notification::InterComponent => emit_broadcast(m),
                    Notification::Missing => emit_log(m),
                }
            }
            m.bind(done);
        }
        None => emit_core(m, spec, err_class, &ctx.host_class),
        Some(RetryShape::SuccessExit) => {
            let head = m.new_label();
            let handler = m.new_label();
            let done = m.new_label();
            m.bind(head);
            let t = m.begin_try();
            emit_core(m, spec, err_class, &ctx.host_class);
            m.end_try(t, &[(Some(IOE), handler)]);
            m.goto(done);
            m.bind(handler);
            m.move_exception(m.reg(13));
            m.goto(head);
            m.bind(done);
        }
        Some(RetryShape::CatchCondition) => {
            let retry = m.reg(13);
            let head = m.new_label();
            let handler = m.new_label();
            let done = m.new_label();
            m.const_int(retry, 1);
            m.bind(head);
            m.ifz(CondOp::Eq, retry, done);
            let t = m.begin_try();
            emit_core(m, spec, err_class, &ctx.host_class);
            m.end_try(t, &[(Some(IOE), handler)]);
            m.goto(done);
            m.bind(handler);
            m.move_exception(m.reg(14));
            m.invoke_virtual(
                &ctx.host_class,
                "shouldRetry",
                "()Z",
                &[m.param(0).expect("instance method")],
            );
            m.move_result(retry);
            m.goto(head);
            m.bind(done);
        }
        Some(RetryShape::InterprocCatchCondition) => {
            let ok = m.reg(13);
            let head = m.new_label();
            let done = m.new_label();
            m.const_int(ok, 0);
            m.bind(head);
            m.ifz(CondOp::Ne, ok, done);
            m.invoke_virtual(
                &ctx.host_class,
                "trySend",
                "()Z",
                &[m.param(0).expect("instance method")],
            );
            m.move_result(ok);
            m.goto(head);
            m.bind(done);
        }
    }

    // Custom-retry shapes surface the final outcome after the loop; the
    // plain sync path already notified inside its catch block.
    if spec.custom_retry.is_some() && is_sync(spec.library) && spec.origin.is_user() {
        match spec.notification {
            Notification::Alert => emit_toast(m),
            Notification::InterComponent => emit_broadcast(m),
            Notification::Missing => emit_log(m),
        }
    }

    if let Some(skip) = skip {
        m.bind(skip);
    }
}

/// Emits every helper method the spec needs on the host class: the
/// retry-shape helpers (`shouldRetry`, `trySend`), the connectivity
/// guard wrapper (`isOnline`), the retry-count getter (`getRetryCount`),
/// and the response validator (`isValidResponse`). With
/// [`RequestSpec::chained_helpers`], each helper goes through a second
/// layer (see there).
fn emit_spec_helpers(c: &mut nck_dex::builder::ClassBuilder<'_>, spec: &RequestSpec, host: &str) {
    match spec.custom_retry {
        Some(RetryShape::CatchCondition) => {
            c.method("shouldRetry", "()Z", AccessFlags::PUBLIC, 4, |m| {
                m.const_int(m.reg(0), 0);
                m.ret(Some(m.reg(0)));
            });
        }
        Some(RetryShape::InterprocCatchCondition) => {
            let spec = spec.clone();
            let host = host.to_owned();
            c.method("trySend", "()Z", AccessFlags::PUBLIC, REGS, move |m| {
                let ok = m.reg(13);
                let handler = m.new_label();
                let out = m.new_label();
                m.const_int(ok, 1);
                let t = m.begin_try();
                // The core request without retry wrapping.
                let mut inner = spec.clone();
                inner.custom_retry = None;
                emit_core(m, &inner, None, &host);
                m.end_try(t, &[(Some(IOE), handler)]);
                m.goto(out);
                m.bind(handler);
                m.move_exception(m.reg(14));
                m.const_int(ok, 0);
                m.bind(out);
                m.ret(Some(ok));
            });
        }
        _ => {}
    }
    let chained = spec.chained_helpers;
    if spec.conn_check == ConnCheck::GuardingViaHelper && chained {
        // isOnline() { return pollLink(2); } and pollLink(n) returns
        // isOnline() while n > 0: one recursive component.
        let host_c = host.to_owned();
        c.method("isOnline", "()Z", AccessFlags::PUBLIC, 4, move |m| {
            let this = m.param(0).expect("instance method");
            m.const_int(m.reg(0), 2);
            m.invoke_virtual(&host_c, "pollLink", "(I)Z", &[this, m.reg(0)]);
            m.move_result(m.reg(1));
            m.ret(Some(m.reg(1)));
        });
    }
    if spec.conn_check == ConnCheck::GuardingViaHelper {
        let (name, sig) = if chained {
            ("pollLink", "(I)Z")
        } else {
            ("isOnline", "()Z")
        };
        let host_c = host.to_owned();
        c.method(name, sig, AccessFlags::PUBLIC, 8, move |m| {
            if chained {
                let probe = m.new_label();
                let budget = m.param(1).expect("budget param");
                m.ifz(CondOp::Le, budget, probe);
                m.invoke_virtual(&host_c, "isOnline", "()Z", &[m.param(0).unwrap()]);
                m.move_result(m.reg(2));
                m.ret(Some(m.reg(2)));
                m.bind(probe);
            }
            let cm = m.reg(0);
            let info = m.reg(1);
            let ok = m.reg(2);
            let offline = m.new_label();
            m.new_instance(cm, CM);
            m.invoke_direct(CM, "<init>", "()V", &[cm]);
            m.invoke_virtual(
                CM,
                "getActiveNetworkInfo",
                "()Landroid/net/NetworkInfo;",
                &[cm],
            );
            m.move_result(info);
            m.ifz(CondOp::Eq, info, offline);
            m.invoke_virtual(NETINFO, "isConnected", "()Z", &[info]);
            m.move_result(ok);
            m.ret(Some(ok));
            m.bind(offline);
            m.const_int(ok, 0);
            m.ret(Some(ok));
        });
    }
    if spec.retries_via_helper {
        if let Some(n) = spec.set_retries {
            let host_c = host.to_owned();
            c.method("getRetryCount", "()I", AccessFlags::PUBLIC, 2, move |m| {
                if chained {
                    let this = m.param(0).expect("instance method");
                    m.iget(m.reg(0), this, &host_c, "retries", "I");
                } else {
                    m.const_int(m.reg(0), i64::from(n));
                }
                m.ret(Some(m.reg(0)));
            });
            if chained {
                // The constructor stores the count the getter reads.
                let host_c = host.to_owned();
                c.method("<init>", "()V", AccessFlags::PUBLIC, 2, move |m| {
                    let this = m.param(0).expect("instance method");
                    m.const_int(m.reg(0), i64::from(n));
                    m.iput(m.reg(0), this, &host_c, "retries", "I");
                    m.ret(None);
                });
            }
        }
    }
    if spec.response == RespCheck::CheckedViaHelper {
        let resp_check = match spec.library {
            Library::OkHttp => Some((OK_RESP, "isSuccessful", "()Z")),
            Library::ApacheHttpClient => Some((
                APACHE_RESP,
                "getStatusLine",
                "()Lorg/apache/http/StatusLine;",
            )),
            _ => None,
        };
        if let Some((resp_class, check_name, check_sig)) = resp_check {
            let sig = format!("({resp_class})Z");
            if chained {
                // isValidResponse(r) { return checkResponse(r); }
                let host_c = host.to_owned();
                let sig_c = sig.clone();
                c.method(
                    "isValidResponse",
                    &sig,
                    AccessFlags::PUBLIC | AccessFlags::STATIC,
                    4,
                    move |m| {
                        let resp = m.param(0).expect("response param");
                        m.invoke_static(&host_c, "checkResponse", &sig_c, &[resp]);
                        m.move_result(m.reg(0));
                        m.ret(Some(m.reg(0)));
                    },
                );
            }
            c.method(
                if chained {
                    "checkResponse"
                } else {
                    "isValidResponse"
                },
                &sig,
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                4,
                move |m| {
                    let resp = m.param(0).expect("response param");
                    let ok = m.reg(0);
                    let bad = m.new_label();
                    m.ifz(CondOp::Eq, resp, bad);
                    m.invoke_virtual(resp_class, check_name, check_sig, &[resp]);
                    m.move_result(ok);
                    m.ifz(CondOp::Eq, ok, bad);
                    m.const_int(ok, 1);
                    m.ret(Some(ok));
                    m.bind(bad);
                    m.const_int(ok, 0);
                    m.ret(Some(ok));
                },
            );
        }
    }
}

/// Emits the callback class for callback-based libraries; returns its
/// descriptor.
fn emit_callback_class(
    b: &mut AdxBuilder,
    base: &str,
    i: usize,
    spec: &RequestSpec,
) -> Option<String> {
    match spec.library {
        Library::Volley => {
            let name = format!("{base}Err{i};");
            let spec = spec.clone();
            b.class(&name, move |c| {
                c.interface(VOLLEY_ERR_IFACE);
                c.method(
                    "onErrorResponse",
                    VOLLEY_ERR_SIG,
                    AccessFlags::PUBLIC,
                    REGS,
                    |m| {
                        if spec.check_error_types {
                            let err = m.param(1).expect("error param");
                            m.invoke_virtual(
                                "Lcom/android/volley/VolleyError;",
                                "getMessage",
                                "()Ljava/lang/String;",
                                &[err],
                            );
                            m.move_result(m.reg(0));
                        }
                        match spec.notification {
                            Notification::Alert => emit_toast(m),
                            Notification::InterComponent => emit_broadcast(m),
                            Notification::Missing => emit_log(m),
                        }
                        m.ret(None);
                    },
                );
            });
            Some(name)
        }
        Library::AndroidAsyncHttp => {
            let name = format!("{base}RespHandler{i};");
            let spec = spec.clone();
            b.class(&name, move |c| {
                c.super_class(ASYNC_HANDLER_BASE);
                c.method(
                    "onFailure",
                    "(I[Lorg/apache/http/Header;[BLjava/lang/Throwable;)V",
                    AccessFlags::PUBLIC,
                    REGS,
                    |m| {
                        match spec.notification {
                            Notification::Alert => emit_toast(m),
                            Notification::InterComponent => emit_broadcast(m),
                            Notification::Missing => emit_log(m),
                        }
                        m.ret(None);
                    },
                );
                c.method(
                    "onSuccess",
                    "(I[Lorg/apache/http/Header;[B)V",
                    AccessFlags::PUBLIC,
                    REGS,
                    |m| m.ret(None),
                );
            });
            Some(name)
        }
        _ => None,
    }
}

/// Emits one request's classes and manifest entries.
fn emit_request(
    b: &mut AdxBuilder,
    manifest: &mut Manifest,
    base: &str,
    i: usize,
    spec: &RequestSpec,
) {
    let err_class = emit_callback_class(b, base, i, spec);

    // Native user-facing requests go through an AsyncTask; the request
    // lives in doInBackground and notification in onPostExecute.
    let native_task = spec.library == Library::HttpUrlConnection && spec.origin.is_user();
    let task_class = format!("{base}Task{i};");
    if native_task {
        let spec_c = spec.clone();
        let host = task_class.clone();
        b.class(&task_class, move |c| {
            c.super_class(ASYNCTASK);
            let ctx = Ctx {
                spec: &spec_c,
                host_class: host.clone(),
            };
            c.method(
                "doInBackground",
                "([Ljava/lang/Object;)Ljava/lang/Object;",
                AccessFlags::PUBLIC,
                REGS,
                |m| {
                    emit_request_block(m, &ctx, None);
                    m.const_null(m.reg(7));
                    m.ret(Some(m.reg(7)));
                },
            );
            c.method(
                "onPostExecute",
                "(Ljava/lang/Object;)V",
                AccessFlags::PUBLIC,
                REGS,
                |m| {
                    match spec_c.notification {
                        Notification::Alert => emit_toast(m),
                        Notification::InterComponent => emit_broadcast(m),
                        Notification::Missing => emit_log(m),
                    }
                    m.ret(None);
                },
            );
            emit_spec_helpers(c, &spec_c, &host);
        });
    }

    match spec.origin {
        Origin::UserClick => {
            let act = format!("{base}Act{i};");
            let listener = format!("{base}Act{i}$L;");
            manifest.component(&act, ComponentKind::Activity);
            {
                let listener_c = listener.clone();
                b.class(&act, move |c| {
                    c.super_class("Landroid/app/Activity;");
                    c.method(
                        "onCreate",
                        "(Landroid/os/Bundle;)V",
                        AccessFlags::PUBLIC,
                        REGS,
                        |m| {
                            let l = m.reg(0);
                            m.new_instance(l, &listener_c);
                            m.invoke_direct(&listener_c, "<init>", "()V", &[l]);
                            m.ret(None);
                        },
                    );
                });
            }
            let spec_c = spec.clone();
            let host = listener.clone();
            let err = err_class.clone();
            let task = task_class.clone();
            b.class(&listener, move |c| {
                c.interface(ONCLICK_IFACE);
                let ctx = Ctx {
                    spec: &spec_c,
                    host_class: host.clone(),
                };
                c.method("onClick", ONCLICK_SIG, AccessFlags::PUBLIC, REGS, |m| {
                    if native_task {
                        let t = m.reg(0);
                        m.new_instance(t, &task);
                        m.invoke_direct(&task, "<init>", "()V", &[t]);
                        m.invoke_virtual(
                            &task,
                            "execute",
                            "([Ljava/lang/Object;)Landroid/os/AsyncTask;",
                            &[t, m.reg(1)],
                        );
                        m.move_result(m.reg(2));
                    } else {
                        emit_request_block(m, &ctx, err.as_deref());
                    }
                    m.ret(None);
                });
                if !native_task {
                    emit_spec_helpers(c, &spec_c, &host);
                }
            });
        }
        Origin::ActivityLifecycle => {
            let act = format!("{base}Act{i};");
            manifest.component(&act, ComponentKind::Activity);
            let spec_c = spec.clone();
            let host = act.clone();
            let err = err_class.clone();
            let task = task_class.clone();
            b.class(&act, move |c| {
                c.super_class("Landroid/app/Activity;");
                let ctx = Ctx {
                    spec: &spec_c,
                    host_class: host.clone(),
                };
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    REGS,
                    |m| {
                        if native_task {
                            let t = m.reg(0);
                            m.new_instance(t, &task);
                            m.invoke_direct(&task, "<init>", "()V", &[t]);
                            m.invoke_virtual(
                                &task,
                                "execute",
                                "([Ljava/lang/Object;)Landroid/os/AsyncTask;",
                                &[t, m.reg(1)],
                            );
                            m.move_result(m.reg(2));
                        } else {
                            emit_request_block(m, &ctx, err.as_deref());
                        }
                        m.ret(None);
                    },
                );
                if !native_task {
                    emit_spec_helpers(c, &spec_c, &host);
                }
            });
        }
        Origin::Service => {
            let svc = format!("{base}Svc{i};");
            manifest.component(&svc, ComponentKind::Service);
            let spec_c = spec.clone();
            let host = svc.clone();
            let err = err_class.clone();
            b.class(&svc, move |c| {
                c.super_class("Landroid/app/Service;");
                let ctx = Ctx {
                    spec: &spec_c,
                    host_class: host.clone(),
                };
                c.method(
                    "onStartCommand",
                    "(Landroid/content/Intent;II)I",
                    AccessFlags::PUBLIC,
                    REGS,
                    |m| {
                        emit_request_block(m, &ctx, err.as_deref());
                        m.const_int(m.reg(7), 0);
                        m.ret(Some(m.reg(7)));
                    },
                );
                emit_spec_helpers(c, &spec_c, &host);
            });
        }
    }

    // Inter-component connectivity check: a receiver that checks the
    // network and only then launches the requesting component through an
    // explicit Intent. The flow is off the entry→request call-graph
    // path, so the default (paper) analysis reports a false positive;
    // the ICC-aware mode resolves the Intent target and clears it.
    if spec.conn_check == ConnCheck::InterComponent {
        let gate = format!("{base}Gate{i};");
        let target = match spec.origin {
            Origin::Service => format!("{base}Svc{i};"),
            _ => format!("{base}Act{i};"),
        };
        let launch = if spec.origin == Origin::Service {
            "startService"
        } else {
            "startActivity"
        };
        manifest.component(&gate, ComponentKind::Receiver);
        b.class(&gate, move |c| {
            c.super_class("Landroid/content/BroadcastReceiver;");
            c.method(
                "onReceive",
                "(Landroid/content/Context;Landroid/content/Intent;)V",
                AccessFlags::PUBLIC,
                REGS,
                |m| {
                    let cm = m.reg(0);
                    let info = m.reg(1);
                    let ok = m.reg(2);
                    let skip = m.new_label();
                    m.new_instance(cm, CM);
                    m.invoke_direct(CM, "<init>", "()V", &[cm]);
                    m.invoke_virtual(
                        CM,
                        "getActiveNetworkInfo",
                        "()Landroid/net/NetworkInfo;",
                        &[cm],
                    );
                    m.move_result(info);
                    m.ifz(CondOp::Eq, info, skip);
                    m.invoke_virtual(NETINFO, "isConnected", "()Z", &[info]);
                    m.move_result(ok);
                    m.ifz(CondOp::Eq, ok, skip);
                    let intent = m.reg(3);
                    let cls = m.reg(4);
                    m.new_instance(intent, INTENT);
                    m.const_class(cls, &target);
                    m.invoke_direct(INTENT, "<init>", "(Ljava/lang/Class;)V", &[intent, cls]);
                    m.invoke_virtual(
                        CONTEXT,
                        launch,
                        "(Landroid/content/Intent;)V",
                        &[m.param(1).unwrap(), intent],
                    );
                    m.bind(skip);
                    m.ret(None);
                },
            );
        });
    }

    // Inter-component notification: a second activity that shows the
    // broadcast error (Table 9 FP idiom).
    if spec.origin.is_user() && spec.notification == Notification::InterComponent {
        let view = format!("{base}ErrView{i};");
        manifest.component(&view, ComponentKind::Activity);
        b.class(&view, |c| {
            c.super_class("Landroid/app/Activity;");
            c.method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                AccessFlags::PUBLIC,
                REGS,
                |m| {
                    emit_toast(m);
                    m.ret(None);
                },
            );
        });
    }
}

/// Compiles `spec` into an APK bundle, honouring the spec's own
/// [`AppSpec::bulk`] ballast-class count.
pub fn generate(spec: &AppSpec) -> Apk {
    generate_with_bulk(spec, spec.bulk)
}

/// Like [`generate`], but prepends `bulk` deterministic, self-contained
/// "ballast" classes before the request classes.
///
/// Real apps bundle far more code than their networking paths; ballast
/// classes stand in for that bulk. Each is loop-heavy (the fixpoint
/// dataflow engine has real work to do per method), touches no network
/// API (the checkers stay silent on them), and calls only within itself
/// (no edges into the request classes). They are emitted *first*, so a
/// versioned update that changes request specs perturbs only the file
/// tail.
pub fn generate_with_bulk(spec: &AppSpec, bulk: usize) -> Apk {
    let mut b = AdxBuilder::new();
    let base = base_of(&spec.package);
    let mut manifest = Manifest::new(&spec.package);
    manifest.permission("android.permission.INTERNET");
    if spec
        .requests
        .iter()
        .any(|r| r.conn_check != ConnCheck::Missing)
    {
        manifest.permission("android.permission.ACCESS_NETWORK_STATE");
    }
    for i in 0..bulk {
        emit_ballast_class(&mut b, &base, i);
    }
    for (i, req) in spec.requests.iter().enumerate() {
        emit_request(&mut b, &mut manifest, &base, i, req);
    }
    let adx = b.finish().expect("generator binds all labels");
    debug_assert!(
        nck_dex::verify::verify(&adx).is_empty(),
        "generated binary must verify"
    );
    Apk::new(manifest, adx)
}

/// One ballast class: arithmetic loop kernels plus an intra-class
/// caller, salted by `i` so every class has distinct code (and so a
/// distinct content fingerprint).
fn emit_ballast_class(b: &mut AdxBuilder, base: &str, i: usize) {
    let name = format!("{base}Ballast{i};");
    let salt = (i as i64) % 97 + 3;
    let churn_host = name.clone();
    b.class(&name, |c| {
        c.super_class("Ljava/lang/Object;");
        // churn(n): a counted loop of mixed arithmetic.
        c.method(
            "churn",
            "(I)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            8,
            move |m| {
                let n = m.param(0).expect("churn arg");
                let acc = m.reg(0);
                let j = m.reg(1);
                let t = m.reg(2);
                let head = m.new_label();
                let out = m.new_label();
                m.const_int(acc, salt);
                m.const_int(j, 0);
                m.bind(head);
                m.if_(CondOp::Ge, j, n, out);
                m.binop(BinOp::Mul, t, acc, j);
                m.binop_lit(BinOp::Add, acc, t, (salt as i32) + 1);
                m.binop(BinOp::Xor, acc, acc, j);
                m.binop_lit(BinOp::Add, j, j, 1);
                m.goto(head);
                m.bind(out);
                m.ret(Some(acc));
            },
        );
        // weave(): a nested loop driving churn through an intra-class
        // call, with a data-dependent early exit.
        c.method(
            "weave",
            "()I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            8,
            move |m| {
                let acc = m.reg(0);
                let k = m.reg(1);
                let lim = m.reg(2);
                let t = m.reg(3);
                let head = m.new_label();
                let out = m.new_label();
                m.const_int(acc, 0);
                m.const_int(k, 0);
                m.const_int(lim, salt + 5);
                m.bind(head);
                m.if_(CondOp::Ge, k, lim, out);
                m.invoke_static(&churn_host, "churn", "(I)I", &[k]);
                m.move_result(t);
                m.binop(BinOp::Add, acc, acc, t);
                m.binop_lit(BinOp::Rem, t, acc, 251);
                m.ifz(CondOp::Lt, t, out);
                m.binop_lit(BinOp::Add, k, k, 1);
                m.goto(head);
                m.bind(out);
                m.ret(Some(acc));
            },
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use nchecker::{DefectKind, NChecker};
    use nck_netlibs::library::ALL_LIBRARIES;

    fn report_kinds(spec: &AppSpec) -> Vec<DefectKind> {
        let apk = generate(spec);
        let report = NChecker::new().analyze_apk(&apk).unwrap();
        report.defects.iter().map(|d| d.kind).collect()
    }

    fn sorted(mut v: Vec<DefectKind>) -> Vec<String> {
        let mut out: Vec<String> = v.drain(..).map(|k| format!("{k:?}")).collect();
        out.sort();
        out
    }

    /// The generator's oracle and the checker's report must agree for
    /// straightforward specs, for every library and origin.
    #[test]
    fn tool_matches_oracle_on_naive_specs() {
        for &lib in ALL_LIBRARIES {
            for origin in [
                Origin::UserClick,
                Origin::ActivityLifecycle,
                Origin::Service,
            ] {
                let spec = AppSpec::new("com.gen.naive", vec![RequestSpec::new(lib, origin)]);
                let got = sorted(report_kinds(&spec));
                let want = sorted(spec.expected_tool_report());
                assert_eq!(got, want, "library {lib}, origin {origin:?}");
            }
        }
    }

    #[test]
    fn tool_matches_oracle_on_well_configured_specs() {
        for &lib in ALL_LIBRARIES {
            let mut r = RequestSpec::new(lib, Origin::UserClick);
            r.conn_check = ConnCheck::Guarding;
            r.set_timeout = true;
            if lib.has_retry_api() {
                r.set_retries = Some(2);
            }
            if lib == Library::Volley {
                // Coupled timeout/retry.
                r.set_retries = Some(2);
                r.check_error_types = true;
            }
            r.notification = Notification::Alert;
            if lib.has_response_check_api() {
                r.response = RespCheck::Checked;
            }
            let spec = AppSpec::new("com.gen.good", vec![r]);
            let got = sorted(report_kinds(&spec));
            let want = sorted(spec.expected_tool_report());
            assert_eq!(got, want, "library {lib}");
            assert!(
                got.is_empty(),
                "well-configured app must be clean: {lib}: {got:?}"
            );
        }
    }

    #[test]
    fn fn_and_fp_idioms_behave_as_in_table9() {
        // Known FN: unused connectivity result.
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.conn_check = ConnCheck::UnusedResult;
        let spec = AppSpec::new("com.gen.fnapp", vec![r]);
        let got = report_kinds(&spec);
        assert!(!got.contains(&DefectKind::MissedConnectivityCheck));

        // Known FP: inter-component check.
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.conn_check = ConnCheck::InterComponent;
        let spec = AppSpec::new("com.gen.fpapp", vec![r]);
        let got = report_kinds(&spec);
        assert!(got.contains(&DefectKind::MissedConnectivityCheck));
    }

    #[test]
    fn custom_retry_shapes_are_recognized() {
        for shape in [
            RetryShape::SuccessExit,
            RetryShape::CatchCondition,
            RetryShape::InterprocCatchCondition,
        ] {
            let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
            r.custom_retry = Some(shape);
            let spec = AppSpec::new("com.gen.retry", vec![r]);
            let apk = generate(&spec);
            let report = NChecker::new().analyze_apk(&apk).unwrap();
            assert_eq!(
                report.stats.custom_retry_loops, 1,
                "shape {shape:?} must be detected"
            );
            // A custom retry suppresses the missed-retry defect.
            assert!(!report
                .defects
                .iter()
                .any(|d| d.kind == DefectKind::MissedRetry));
        }
    }

    #[test]
    fn helper_idioms_are_seen_by_the_summary_engine() {
        // Guard wrapper, helper-provided retry count, and helper-checked
        // response: clean under the default (interprocedural) analysis.
        let mut r = RequestSpec::new(Library::OkHttp, Origin::UserClick);
        r.conn_check = ConnCheck::GuardingViaHelper;
        r.set_timeout = true;
        r.notification = Notification::Alert;
        r.response = RespCheck::CheckedViaHelper;
        let spec = AppSpec::new("com.gen.helpers", vec![r]);
        let got = sorted(report_kinds(&spec));
        let want = sorted(spec.expected_tool_report());
        assert_eq!(got, want);
        assert!(
            got.is_empty(),
            "helper-mediated practices must be clean: {got:?}"
        );
    }

    #[test]
    fn helper_idioms_defeat_the_method_local_analysis() {
        use nchecker::CheckerConfig;
        let mut r = RequestSpec::new(Library::OkHttp, Origin::UserClick);
        r.conn_check = ConnCheck::GuardingViaHelper;
        r.set_timeout = true;
        r.notification = Notification::Alert;
        r.response = RespCheck::CheckedViaHelper;
        let spec = AppSpec::new("com.gen.helpersoff", vec![r]);
        let apk = generate(&spec);
        let off = NChecker::with_config(CheckerConfig {
            interproc: false,
            ..CheckerConfig::default()
        });
        let report = off.analyze_apk(&apk).unwrap();
        assert!(report.has(DefectKind::MissedConnectivityCheck));
        assert!(report.has(DefectKind::MissedResponseCheck));
    }

    #[test]
    fn helper_retry_count_recovers_the_no_retry_defect() {
        use nchecker::CheckerConfig;
        // setMaxRetries(getRetryCount()) with a helper returning 0 in an
        // activity: a true NoRetryInActivity defect only the summary
        // engine can see (the local analysis cannot prove the count).
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.set_retries = Some(0);
        r.retries_via_helper = true;
        r.set_timeout = true;
        r.conn_check = ConnCheck::Guarding;
        r.notification = Notification::Alert;
        let spec = AppSpec::new("com.gen.retryhelper", vec![r]);
        assert!(spec.oracle().contains(&DefectKind::NoRetryInActivity));
        let apk = generate(&spec);
        let on = NChecker::new().analyze_apk(&apk).unwrap();
        assert!(
            on.has(DefectKind::NoRetryInActivity),
            "summary engine recovers the count"
        );
        let off = NChecker::with_config(CheckerConfig {
            interproc: false,
            ..CheckerConfig::default()
        });
        let report = off.analyze_apk(&apk).unwrap();
        assert!(
            !report.has(DefectKind::NoRetryInActivity),
            "method-local analysis cannot prove retries are disabled"
        );
    }

    #[test]
    fn generated_binaries_roundtrip_and_verify() {
        let mut r = RequestSpec::new(Library::Volley, Origin::UserClick);
        r.set_retries = Some(1);
        r.set_timeout = true;
        let spec = AppSpec::new("com.gen.round", vec![r]);
        let apk = generate(&spec);
        let bytes = apk.to_bytes();
        let parsed = Apk::from_bytes(&bytes).unwrap();
        assert!(nck_dex::verify::verify(&parsed.adx).is_empty());
    }

    #[test]
    fn multi_request_apps_accumulate_defects() {
        let spec = AppSpec::new(
            "com.gen.multi",
            vec![
                RequestSpec::new(Library::BasicHttpClient, Origin::UserClick),
                RequestSpec::new(Library::AndroidAsyncHttp, Origin::Service),
                RequestSpec::new(Library::HttpUrlConnection, Origin::ActivityLifecycle),
            ],
        );
        let apk = generate(&spec);
        let report = NChecker::new().analyze_apk(&apk).unwrap();
        assert_eq!(report.stats.requests, 3);
        let got = sorted(report.defects.iter().map(|d| d.kind).collect());
        let want = sorted(spec.expected_tool_report());
        assert_eq!(got, want);
    }
}
