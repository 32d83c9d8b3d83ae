//! Config-API analysis (§4.4.1 taint step + §4.4.2 parameters).
//!
//! For each request, taint the config carrier (the HTTP client object, or
//! the request object for Volley), propagate backward to its creation and
//! forward through aliases (including fields), collect the config APIs
//! invoked on it, and recover parameter values by constant propagation.

use crate::context::AnalyzedApp;
use crate::reach::{carrier_flow, RequestSite};
use nck_dataflow::taint::{object_flow, FlowOptions, ObjectFlow};
use nck_dataflow::CVal;
use nck_ir::body::{Body, FieldKey, MethodId, Operand, Rvalue, Stmt, StmtId};
use nck_netlibs::api::ConfigKind;
use nck_netlibs::library::{defaults, Library};
use std::collections::BTreeSet;

/// The config-API findings for one request site.
#[derive(Debug, Clone, Default)]
pub struct SiteConfig {
    /// Timeout config API invoked on the carrier.
    pub has_timeout: bool,
    /// Retry config API invoked on the carrier.
    pub has_retry_config: bool,
    /// A retry-exception-class API invoked (Async HTTP).
    pub has_retry_exception: bool,
    /// The effective retry count in force for the request: configured
    /// value when known, library default otherwise; `None` when a retry
    /// API was invoked with a statically unknown count.
    pub effective_retries: Option<u32>,
    /// `true` when the effective count comes from the library default.
    pub retry_default_used: bool,
    /// Every `(method, stmt)` recognized as a config call for this site.
    pub config_calls: Vec<(MethodId, StmtId)>,
}

/// One recognized config call.
#[derive(Debug, Clone, Copy)]
struct ConfigCall {
    method: MethodId,
    stmt: StmtId,
    kind: ConfigKind,
    /// Constant retry count argument, when the kind carries one.
    retry_count: Option<i64>,
}

/// Recovers an operand's constant int through the interprocedural
/// summaries when intraprocedural constant propagation fails: every
/// reaching definition must resolve — a constant-returning helper call
/// (`setMaxRetries(getRetryCount())`) or a load of a field only ever
/// stored one constant — and all resolved values must agree.
fn operand_int_via_summaries(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    body: &Body,
    at: StmtId,
    op: Operand,
) -> Option<i64> {
    let local = op.as_local()?;
    let ma = app.analysis(method);
    let summaries = app.summaries();
    let defs = ma.rd().reaching(at, local);
    if defs.is_empty() {
        return None;
    }
    let mut joined = CVal::Undef;
    for d in defs {
        let v = match body.stmt(d) {
            Stmt::Assign {
                rvalue: Rvalue::Invoke(_),
                ..
            } => {
                // Join the constant returns over the explicit callees.
                let mut v = CVal::Undef;
                let mut any = false;
                for e in app
                    .callgraph
                    .callees(method)
                    .iter()
                    .filter(|e| e.stmt == d && !e.implicit)
                {
                    any = true;
                    v = v.join(summaries.summary(e.callee.0 as usize).const_return);
                }
                if any {
                    v
                } else {
                    CVal::NonConst
                }
            }
            Stmt::Assign {
                rvalue: Rvalue::InstanceField { field, .. } | Rvalue::StaticField { field },
                ..
            } => summaries.field_const(field),
            _ => CVal::NonConst,
        };
        joined = joined.join(v);
    }
    joined.as_int()
}

fn match_config_calls(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    body: &Body,
    flow: &ObjectFlow,
    library: Library,
    interproc: bool,
    out: &mut Vec<ConfigCall>,
) {
    let ma = app.analysis(method);
    for (call, stmt) in body.iter() {
        let Some(inv) = stmt.invoke_expr() else {
            continue;
        };
        let Some(cfg) = app.api_config(inv) else {
            continue;
        };
        if cfg.library != library {
            continue;
        }
        // The call configures the carrier when the carrier is the receiver
        // — or, for static helpers like Apache's
        // `HttpConnectionParams.setSoTimeout(params, v)`, any argument.
        let in_flow =
            |op: &nck_ir::Operand| op.as_local().is_some_and(|l| flow.locals.contains(&l));
        let relevant = if inv.kind.has_receiver() {
            inv.args.first().is_some_and(&in_flow)
        } else {
            inv.args.iter().any(in_flow)
        };
        if !relevant {
            continue;
        }
        let offset = usize::from(inv.kind.has_receiver());
        let retry_count = cfg.kind.retry_count_arg().and_then(|arg| {
            inv.args.get(offset + arg).and_then(|&op| {
                ma.cp().operand_value(call, op).as_int().or_else(|| {
                    interproc
                        .then(|| operand_int_via_summaries(app, method, body, call, op))
                        .flatten()
                })
            })
        });
        out.push(ConfigCall {
            method,
            stmt: call,
            kind: cfg.kind,
            retry_count,
        });
    }
}

/// Collects config calls on objects held in `fields` across every method
/// of the app (the carrier escaped into a field, e.g. `mConnection`).
fn config_calls_via_fields(
    app: &AnalyzedApp<'_>,
    fields: &BTreeSet<FieldKey>,
    library: Library,
    skip_method: MethodId,
    interproc: bool,
    out: &mut Vec<ConfigCall>,
) {
    if fields.is_empty() {
        return;
    }
    for (mid, m) in app.program.iter_methods() {
        if mid == skip_method {
            continue;
        }
        let Some(body) = &m.body else { continue };
        // Seed locals that load or store any of the carrier fields.
        let mut seeds = Vec::new();
        for (_, stmt) in body.iter() {
            match stmt {
                Stmt::Assign {
                    local,
                    rvalue: Rvalue::InstanceField { field, .. } | Rvalue::StaticField { field },
                } if fields.contains(field) => seeds.push(*local),
                Stmt::StoreInstanceField { field, value, .. }
                | Stmt::StoreStaticField { field, value }
                    if fields.contains(field) =>
                {
                    if let Some(l) = value.as_local() {
                        seeds.push(l);
                    }
                }
                _ => {}
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        for seed in seeds {
            let flow = object_flow(body, seed, FlowOptions::default());
            match_config_calls(app, mid, body, &flow, library, interproc, out);
        }
    }
}

/// For Volley: a `setRetryPolicy` on the request means the policy object's
/// `DefaultRetryPolicy(timeout, retries, backoff)` constructor carries the
/// actual values; find it in the same method.
fn volley_policy_calls(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    body: &Body,
    interproc: bool,
    out: &mut Vec<ConfigCall>,
) {
    let ma = app.analysis(method);
    for (sid, stmt) in body.iter() {
        let Some(inv) = stmt.invoke_expr() else {
            continue;
        };
        let class = app.program.symbols.resolve(inv.callee.class);
        let name = app.program.symbols.resolve(inv.callee.name);
        if class != "Lcom/android/volley/DefaultRetryPolicy;" || name != "<init>" {
            continue;
        }
        let retry_count = inv.args.get(2).and_then(|&op| {
            // Receiver, timeoutMs, maxRetries.
            ma.cp().operand_value(sid, op).as_int().or_else(|| {
                interproc
                    .then(|| operand_int_via_summaries(app, method, body, sid, op))
                    .flatten()
            })
        });
        out.push(ConfigCall {
            method,
            stmt: sid,
            kind: ConfigKind::TimeoutAndRetry {
                timeout_arg: 0,
                count_arg: 1,
            },
            retry_count,
        });
    }
}

/// Analyzes the config APIs in force for `site`. `interproc` enables
/// resolving config parameters through constant-returning helpers and
/// app-wide field constants when local constant propagation fails.
pub fn check_config(app: &AnalyzedApp<'_>, site: &RequestSite, interproc: bool) -> SiteConfig {
    let body = app.body(site.method);
    let library = site.library();
    let mut calls = Vec::new();

    if let Some(flow) = carrier_flow(body, site.stmt, &site.target) {
        match_config_calls(
            app,
            site.method,
            body,
            &flow,
            library,
            interproc,
            &mut calls,
        );
        config_calls_via_fields(
            app,
            &flow.fields,
            library,
            site.method,
            interproc,
            &mut calls,
        );
        if library == Library::Volley
            && calls
                .iter()
                .any(|c| matches!(c.kind, ConfigKind::Retry { .. }))
        {
            volley_policy_calls(app, site.method, body, interproc, &mut calls);
        }
    }

    let mut sc = SiteConfig::default();
    let mut configured_count: Option<Option<i64>> = None; // Some(None) = set but unknown.
    for call in &calls {
        if call.kind.is_timeout() {
            sc.has_timeout = true;
        }
        if call.kind.is_retry() {
            sc.has_retry_config = true;
            if call.kind.retry_count_arg().is_some() {
                configured_count = Some(call.retry_count);
            } else if configured_count.is_none() {
                // A retry API without a literal count (setRetryPolicy,
                // setRetryOnConnectionFailure): enabled but count unknown.
                configured_count = Some(None);
            }
        }
        if matches!(call.kind, ConfigKind::RetryException) {
            sc.has_retry_exception = true;
        }
        sc.config_calls.push((call.method, call.stmt));
    }

    match configured_count {
        Some(Some(n)) => {
            sc.effective_retries = Some(n.max(0) as u32);
            sc.retry_default_used = false;
        }
        Some(None) => {
            sc.effective_retries = None;
            sc.retry_default_used = false;
        }
        None => {
            sc.effective_retries = Some(defaults(library).retries);
            sc.retry_default_used = true;
        }
    }
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalyzedApp;
    use crate::reach::find_request_sites;
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

    const BASIC: &str = "Lcom/turbomanage/httpclient/BasicHttpClient;";
    const GET_SIG: &str = "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;";

    fn app_of(build: impl FnOnce(&mut AdxBuilder)) -> AnalyzedApp<'static> {
        let mut b = AdxBuilder::new();
        build(&mut b);
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        AnalyzedApp::new(manifest, program, registry())
    }

    #[test]
    fn fully_configured_basic_client() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let cl = m.reg(0);
                        let v = m.reg(1);
                        m.new_instance(cl, BASIC);
                        m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                        m.const_int(v, 5000);
                        m.invoke_virtual(BASIC, "setReadTimeout", "(I)V", &[cl, v]);
                        m.const_int(v, 3);
                        m.invoke_virtual(BASIC, "setMaxRetries", "(I)V", &[cl, v]);
                        m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(2), m.reg(3)]);
                        m.move_result(m.reg(4));
                        m.ret(None);
                    },
                );
            });
        });
        let sites = find_request_sites(&app);
        let sc = check_config(&app, &sites[0], true);
        assert!(sc.has_timeout);
        assert!(sc.has_retry_config);
        assert_eq!(sc.effective_retries, Some(3));
        assert!(!sc.retry_default_used);
    }

    #[test]
    fn unconfigured_client_uses_library_defaults() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let cl = m.reg(0);
                        m.new_instance(cl, "Lcom/loopj/android/http/AsyncHttpClient;");
                        m.invoke_direct("Lcom/loopj/android/http/AsyncHttpClient;", "<init>", "()V", &[cl]);
                        m.invoke_virtual(
                            "Lcom/loopj/android/http/AsyncHttpClient;",
                            "get",
                            "(Ljava/lang/String;Lcom/loopj/android/http/ResponseHandlerInterface;)Lcom/loopj/android/http/RequestHandle;",
                            &[cl, m.reg(1), m.reg(2)],
                        );
                        m.ret(None);
                    },
                );
            });
        });
        let sites = find_request_sites(&app);
        let sc = check_config(&app, &sites[0], true);
        assert!(!sc.has_timeout);
        assert!(!sc.has_retry_config);
        // Async HTTP defaults to 5 retries — the over-retry trap.
        assert_eq!(sc.effective_retries, Some(5));
        assert!(sc.retry_default_used);
    }

    #[test]
    fn config_through_field_is_found() {
        // onCreate stores the client into a field and configures it in a
        // helper; the request is sent in onResume via the field.
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let this = m.param(0).unwrap();
                        let cl = m.reg(0);
                        let v = m.reg(1);
                        m.new_instance(cl, BASIC);
                        m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                        m.const_int(v, 8000);
                        m.invoke_virtual(BASIC, "setReadTimeout", "(I)V", &[cl, v]);
                        m.iput(cl, this, "Lapp/Main;", "client", BASIC);
                        m.ret(None);
                    },
                );
                c.method("onResume", "()V", AccessFlags::PUBLIC, 8, |m| {
                    let this = m.param(0).unwrap();
                    let cl = m.reg(0);
                    m.iget(cl, this, "Lapp/Main;", "client", BASIC);
                    m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(1), m.reg(2)]);
                    m.move_result(m.reg(3));
                    m.ret(None);
                });
            });
        });
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        let sc = check_config(&app, &sites[0], true);
        assert!(sc.has_timeout, "cross-method config via field must be seen");
    }

    #[test]
    fn volley_retry_policy_constant_recovered() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    10,
                    |m| {
                        let q = m.reg(0);
                        let req = m.reg(1);
                        let pol = m.reg(2);
                        let t = m.reg(3);
                        let n = m.reg(4);
                        let f = m.reg(5);
                        m.invoke_static(
                            "Lcom/android/volley/toolbox/Volley;",
                            "newRequestQueue",
                            "()Lcom/android/volley/RequestQueue;",
                            &[],
                        );
                        m.move_result(q);
                        m.new_instance(req, "Lcom/android/volley/toolbox/StringRequest;");
                        m.const_int(m.reg(6), 0);
                        m.invoke_direct(
                            "Lcom/android/volley/toolbox/StringRequest;",
                            "<init>",
                            "(ILjava/lang/String;)V",
                            &[req, m.reg(6), m.reg(7)],
                        );
                        m.new_instance(pol, "Lcom/android/volley/DefaultRetryPolicy;");
                        m.const_int(t, 5000);
                        m.const_int(n, 2);
                        m.const_int(f, 1);
                        m.invoke_direct(
                            "Lcom/android/volley/DefaultRetryPolicy;",
                            "<init>",
                            "(IIF)V",
                            &[pol, t, n, f],
                        );
                        m.invoke_virtual(
                            "Lcom/android/volley/Request;",
                            "setRetryPolicy",
                            "(Lcom/android/volley/RetryPolicy;)Lcom/android/volley/Request;",
                            &[req, pol],
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
        });
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        let sc = check_config(&app, &sites[0], true);
        assert!(sc.has_retry_config);
        assert!(sc.has_timeout, "DefaultRetryPolicy carries the timeout");
        assert_eq!(sc.effective_retries, Some(2));
    }

    #[test]
    fn setting_wrong_object_does_not_count() {
        // Configure a *different* client than the one used for the
        // request: must not count.
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    10,
                    |m| {
                        let used = m.reg(0);
                        let other = m.reg(1);
                        let v = m.reg(2);
                        m.new_instance(used, BASIC);
                        m.invoke_direct(BASIC, "<init>", "()V", &[used]);
                        m.new_instance(other, BASIC);
                        m.invoke_direct(BASIC, "<init>", "()V", &[other]);
                        m.const_int(v, 5000);
                        m.invoke_virtual(BASIC, "setReadTimeout", "(I)V", &[other, v]);
                        m.invoke_virtual(BASIC, "get", GET_SIG, &[used, m.reg(3), m.reg(4)]);
                        m.move_result(m.reg(5));
                        m.ret(None);
                    },
                );
            });
        });
        let sites = find_request_sites(&app);
        let sc = check_config(&app, &sites[0], true);
        assert!(
            !sc.has_timeout,
            "config on an unrelated object must not count"
        );
    }
}
