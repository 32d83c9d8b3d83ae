//! Request-site discovery, reachability, and context classification
//! (§4.4, §4.4.2).
//!
//! NChecker "first performs reachability analysis and determines if there
//! exist a target API which can be reached by the entry point"; it then
//! classifies each request as user-initiated (reached from an Activity
//! entry) or background (reached from a Service), and determines the HTTP
//! method (POST detection) via the target API, argument types, or constant
//! propagation.

use crate::context::AnalyzedApp;
use nck_dataflow::taint::{object_flow, FlowOptions, ObjectFlow};
use nck_ir::body::{Body, LocalId, MethodId, StmtId};
use nck_netlibs::api::{volley_method_constant, HttpMethod, MethodDetermination, TargetApi};
use nck_netlibs::library::Library;

/// One network request call site with its classification.
#[derive(Debug, Clone)]
pub struct RequestSite {
    /// The method containing the call.
    pub method: MethodId,
    /// The call statement.
    pub stmt: StmtId,
    /// The matched target API.
    pub target: TargetApi,
    /// Statically determined HTTP method, when known.
    pub http_method: Option<HttpMethod>,
    /// Indices into [`AnalyzedApp::entries`] of entries reaching the site.
    pub entries: Vec<usize>,
    /// `true` when some reaching entry is user-triggered.
    pub user_initiated: bool,
    /// `true` when some reaching entry belongs to a Service.
    pub background: bool,
}

impl RequestSite {
    /// Returns `true` for POST requests.
    pub fn is_post(&self) -> bool {
        self.http_method == Some(HttpMethod::Post)
    }

    /// The library the request goes through.
    pub fn library(&self) -> Library {
        self.target.library
    }
}

/// Returns the local carrying the configuration for a request: the request
/// object for Volley (`add(request)`), otherwise the client receiver.
pub fn config_carrier_local(body: &Body, stmt: StmtId, target: &TargetApi) -> Option<LocalId> {
    let inv = body.stmt(stmt).invoke_expr()?;
    let op = if target.library == Library::Volley {
        // Receiver is the queue; the request object is the first argument.
        *inv.args.get(1)?
    } else {
        // The client receiver for instance calls; the first argument is
        // the best available carrier for static ones.
        *inv.args.first()?
    };
    op.as_local()
}

/// Computes the object flow of a request's config carrier.
pub fn carrier_flow(body: &Body, stmt: StmtId, target: &TargetApi) -> Option<ObjectFlow> {
    let seed = config_carrier_local(body, stmt, target)?;
    Some(object_flow(body, seed, FlowOptions::default()))
}

fn str_of<'a>(app: &'a AnalyzedApp<'_>, sym: nck_ir::Symbol) -> &'a str {
    app.program.symbols.resolve(sym)
}

/// Determines the HTTP method of the request at `stmt`.
fn http_method_of(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    stmt: StmtId,
    target: &TargetApi,
) -> Option<HttpMethod> {
    let body = app.body(method);
    let ma = app.analysis(method);
    let inv = body.stmt(stmt).invoke_expr()?;
    let recv_offset = usize::from(inv.kind.has_receiver());
    match target.method {
        MethodDetermination::Always(m) => Some(m),
        MethodDetermination::ByIntArg { arg } => {
            // Volley: the request object's constructor's first int arg is
            // the Request.Method constant.
            let flow = carrier_flow(body, stmt, target)?;
            for &call in &flow.invoked_on {
                let cinv = body.stmt(call).invoke_expr()?;
                if str_of(app, cinv.callee.name) != "<init>" {
                    continue;
                }
                if let Some(op) = cinv.args.get(1 + arg) {
                    if let Some(v) = ma.cp().operand_value(call, *op).as_int() {
                        return volley_method_constant(v);
                    }
                }
            }
            None
        }
        MethodDetermination::ByArgType { arg } => {
            let op = inv.args.get(recv_offset + arg)?;
            let local = op.as_local()?;
            let ty = body.locals.get(local.0 as usize)?.ty?;
            let name = str_of(app, ty);
            if name.contains("HttpPost") {
                Some(HttpMethod::Post)
            } else if name.contains("HttpGet") {
                Some(HttpMethod::Get)
            } else if name.contains("HttpPut") {
                Some(HttpMethod::Put)
            } else if name.contains("HttpDelete") {
                Some(HttpMethod::Delete)
            } else {
                None
            }
        }
        MethodDetermination::ByConfigApi => {
            // setRequestMethod("POST") on the tainted client.
            let flow = carrier_flow(body, stmt, target)?;
            for &call in &flow.invoked_on {
                let cinv = body.stmt(call).invoke_expr()?;
                if str_of(app, cinv.callee.name) != "setRequestMethod" {
                    continue;
                }
                let arg = cinv.args.get(1)?;
                if let Some(s) = ma.cp().operand_value(call, *arg).as_str() {
                    return match str_of(app, s) {
                        "POST" => Some(HttpMethod::Post),
                        "GET" => Some(HttpMethod::Get),
                        "PUT" => Some(HttpMethod::Put),
                        "DELETE" => Some(HttpMethod::Delete),
                        "HEAD" => Some(HttpMethod::Head),
                        _ => None,
                    };
                }
            }
            // HttpURLConnection defaults to GET when never set.
            Some(HttpMethod::Get)
        }
        MethodDetermination::Unknown => None,
    }
}

/// Finds every entry-reachable request site in the app.
pub fn find_request_sites(app: &AnalyzedApp<'_>) -> Vec<RequestSite> {
    let mut sites = Vec::new();
    for (mid, m) in app.program.iter_methods() {
        let Some(body) = &m.body else { continue };
        for (sid, stmt) in body.iter() {
            let Some(inv) = stmt.invoke_expr() else {
                continue;
            };
            let Some(target) = app.api_target(inv) else {
                continue;
            };
            let entries = app.entries_reaching(mid);
            if entries.is_empty() {
                // Dead code: no framework path triggers it.
                continue;
            }
            let user_initiated = entries.iter().any(|&e| app.entries[e].is_user_context());
            let background = entries.iter().any(|&e| {
                app.entries[e].component_kind == nck_android::manifest::ComponentKind::Service
            });
            let target = *target;
            let http_method = http_method_of(app, mid, sid, &target);
            sites.push(RequestSite {
                method: mid,
                stmt: sid,
                target,
                http_method,
                entries,
                user_initiated,
                background,
            });
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalyzedApp;
    use nck_android::manifest::{ComponentKind, Manifest};
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;
    use nck_ir::lift_file;
    use nck_netlibs::api::Registry;

    fn registry() -> &'static Registry {
        use std::sync::OnceLock;
        static R: OnceLock<Registry> = OnceLock::new();
        R.get_or_init(Registry::standard)
    }

    fn analyze(build: impl FnOnce(&mut AdxBuilder), manifest: Manifest) -> AnalyzedApp<'static> {
        let mut b = AdxBuilder::new();
        build(&mut b);
        let program = lift_file(&b.finish().unwrap()).unwrap();
        AnalyzedApp::new(manifest, program, registry(), &nck_obs::Obs::disabled())
    }

    #[test]
    fn activity_request_is_user_initiated() {
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        let app = analyze(
            |b| {
                b.class("Lapp/Main;", |c| {
                    c.super_class("Landroid/app/Activity;");
                    c.method(
                        "onCreate",
                        "(Landroid/os/Bundle;)V",
                        AccessFlags::PUBLIC,
                        6,
                        |m| {
                            let cl = m.reg(0);
                            m.new_instance(cl, "Lcom/turbomanage/httpclient/BasicHttpClient;");
                            m.invoke_direct(
                                "Lcom/turbomanage/httpclient/BasicHttpClient;",
                                "<init>",
                                "()V",
                                &[cl],
                            );
                            m.invoke_virtual(
                                "Lcom/turbomanage/httpclient/BasicHttpClient;",
                                "get",
                                "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;",
                                &[cl, m.reg(1), m.reg(2)],
                            );
                            m.move_result(m.reg(3));
                            m.ret(None);
                        },
                    );
                });
            },
            manifest,
        );
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        let s = &sites[0];
        assert!(s.user_initiated);
        assert!(!s.background);
        assert_eq!(s.http_method, Some(HttpMethod::Get));
        assert_eq!(s.library(), Library::BasicHttpClient);
    }

    #[test]
    fn service_request_is_background() {
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Sync;", ComponentKind::Service);
        let app = analyze(
            |b| {
                b.class("Lapp/Sync;", |c| {
                    c.super_class("Landroid/app/Service;");
                    c.method("onCreate", "()V", AccessFlags::PUBLIC, 6, |m| {
                        let cl = m.reg(0);
                        m.new_instance(cl, "Lcom/loopj/android/http/AsyncHttpClient;");
                        m.invoke_direct(
                            "Lcom/loopj/android/http/AsyncHttpClient;",
                            "<init>",
                            "()V",
                            &[cl],
                        );
                        m.invoke_virtual(
                            "Lcom/loopj/android/http/AsyncHttpClient;",
                            "post",
                            "(Ljava/lang/String;Lcom/loopj/android/http/ResponseHandlerInterface;)Lcom/loopj/android/http/RequestHandle;",
                            &[cl, m.reg(1), m.reg(2)],
                        );
                        m.ret(None);
                    });
                });
            },
            manifest,
        );
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].background);
        assert!(!sites[0].user_initiated);
        assert!(sites[0].is_post());
    }

    #[test]
    fn unreachable_request_is_skipped() {
        let manifest = Manifest::new("app");
        let app = analyze(
            |b| {
                b.class("Lapp/Dead;", |c| {
                    c.method("never", "()V", AccessFlags::PUBLIC, 6, |m| {
                        let cl = m.reg(0);
                        m.new_instance(cl, "Lcom/turbomanage/httpclient/BasicHttpClient;");
                        m.invoke_direct(
                            "Lcom/turbomanage/httpclient/BasicHttpClient;",
                            "<init>",
                            "()V",
                            &[cl],
                        );
                        m.invoke_virtual(
                            "Lcom/turbomanage/httpclient/BasicHttpClient;",
                            "get",
                            "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;",
                            &[cl, m.reg(1), m.reg(2)],
                        );
                        m.ret(None);
                    });
                });
            },
            manifest,
        );
        assert!(find_request_sites(&app).is_empty());
    }

    #[test]
    fn volley_post_detected_via_constructor_constant() {
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        let app = analyze(
            |b| {
                b.class("Lapp/Main;", |c| {
                    c.super_class("Landroid/app/Activity;");
                    c.method(
                        "onCreate",
                        "(Landroid/os/Bundle;)V",
                        AccessFlags::PUBLIC,
                        8,
                        |m| {
                            let q = m.reg(0);
                            let req = m.reg(1);
                            let method = m.reg(2);
                            m.invoke_static(
                                "Lcom/android/volley/toolbox/Volley;",
                                "newRequestQueue",
                                "()Lcom/android/volley/RequestQueue;",
                                &[],
                            );
                            m.move_result(q);
                            m.new_instance(req, "Lcom/android/volley/toolbox/StringRequest;");
                            m.const_int(method, 1); // Request.Method.POST.
                            m.invoke_direct(
                                "Lcom/android/volley/toolbox/StringRequest;",
                                "<init>",
                                "(ILjava/lang/String;)V",
                                &[req, method, m.reg(3)],
                            );
                            m.invoke_virtual(
                                "Lcom/android/volley/RequestQueue;",
                                "add",
                                "(Lcom/android/volley/Request;)Lcom/android/volley/Request;",
                                &[q, req],
                            );
                            m.ret(None);
                        },
                    );
                });
            },
            manifest,
        );
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].is_post());
        assert_eq!(sites[0].library(), Library::Volley);
    }

    #[test]
    fn http_url_connection_set_request_method_post() {
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        let app = analyze(
            |b| {
                b.class("Lapp/Main;", |c| {
                    c.super_class("Landroid/app/Activity;");
                    c.method(
                        "onCreate",
                        "(Landroid/os/Bundle;)V",
                        AccessFlags::PUBLIC,
                        8,
                        |m| {
                            let conn = m.reg(0);
                            let s = m.reg(1);
                            m.new_instance(conn, "Ljava/net/HttpURLConnection;");
                            m.invoke_direct(
                                "Ljava/net/HttpURLConnection;",
                                "<init>",
                                "()V",
                                &[conn],
                            );
                            m.const_str(s, "POST");
                            m.invoke_virtual(
                                "Ljava/net/HttpURLConnection;",
                                "setRequestMethod",
                                "(Ljava/lang/String;)V",
                                &[conn, s],
                            );
                            m.invoke_virtual(
                                "Ljava/net/HttpURLConnection;",
                                "getInputStream",
                                "()Ljava/io/InputStream;",
                                &[conn],
                            );
                            m.move_result(m.reg(2));
                            m.ret(None);
                        },
                    );
                });
            },
            manifest,
        );
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].is_post());
    }
}
