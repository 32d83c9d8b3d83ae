//! Failure-notification analysis (§4.4.3, step 3 of Figure 5).
//!
//! Maps a user-initiated request to its completion callback, then checks
//! whether the callback (or anything it reaches on the UI path) calls one
//! of the alert classes; for Volley, additionally checks whether the
//! typed error object is consulted.

use crate::context::AnalyzedApp;
use crate::reach::RequestSite;
use nck_android::ui::is_alert_call;
use nck_ir::body::{IdentityKind, MethodId, Rvalue, Stmt};
use std::collections::{BTreeSet, VecDeque};

/// The notification findings for one request site.
#[derive(Debug, Clone)]
pub struct NotificationFinding {
    /// The callback method that was examined, when one was found.
    pub callback: Option<MethodId>,
    /// `true` when the library offers an explicit error callback and the
    /// app implements it.
    pub explicit_error_callback: bool,
    /// `true` when a failure notification (alert-class call) is reachable
    /// from the callback.
    pub notified: bool,
    /// For libraries exposing typed errors (Volley): whether the callback
    /// consults the error object. `None` when not applicable.
    pub error_types_checked: Option<bool>,
}

/// Finds the error callback method associated with `site`.
fn find_callback(app: &AnalyzedApp<'_>, site: &RequestSite) -> (Option<MethodId>, bool) {
    let Some(spec) = app.registry.error_callback(site.library()) else {
        return (None, false);
    };

    // Candidate classes implementing the callback interface (in class
    // order; an interface the app never names has none) and defining the
    // callback method.
    let mut candidates: Vec<(nck_ir::Symbol, MethodId)> = Vec::new();
    let implementors = match app.program.symbols.get(spec.interface) {
        Some(base) => app.types.subtypes(base),
        None => &[],
    };
    for &cid in implementors {
        let class = &app.program.classes[cid.0 as usize];
        for &mid in &class.methods {
            let m = app.program.method(mid);
            if app.program.symbols.resolve(m.key.name) == spec.method && m.body.is_some() {
                candidates.push((class.name, mid));
            }
        }
    }
    if candidates.is_empty() {
        return (None, false);
    }

    // Prefer a candidate instantiated in the request's method, or the
    // request method's own class (AsyncTask onPostExecute pattern).
    let site_class = app.program.method(site.method).key.class;
    let body = app.body(site.method);
    let instantiated: BTreeSet<nck_ir::Symbol> = body
        .iter()
        .filter_map(|(_, s)| match s {
            Stmt::Assign {
                rvalue: Rvalue::New { ty },
                ..
            } => Some(*ty),
            _ => None,
        })
        .collect();
    let chosen = candidates
        .iter()
        .find(|(cls, _)| instantiated.contains(cls))
        .or_else(|| candidates.iter().find(|(cls, _)| *cls == site_class))
        .or_else(|| candidates.first().filter(|_| candidates.len() == 1));
    match chosen {
        Some(&(_, mid)) => (Some(mid), true),
        None => (None, false),
    }
}

/// Returns `true` when an alert-class call is reachable from `start`
/// within `depth` call-graph hops.
fn alert_reachable(app: &AnalyzedApp<'_>, start: MethodId, depth: usize) -> bool {
    let mut seen = BTreeSet::from([start]);
    let mut queue = VecDeque::from([(start, 0usize)]);
    while let Some((m, d)) = queue.pop_front() {
        if let Some(body) = &app.program.method(m).body {
            for (_, stmt) in body.iter() {
                let Some(inv) = stmt.invoke_expr() else {
                    continue;
                };
                let class = app.program.symbols.resolve(inv.callee.class);
                let name = app.program.symbols.resolve(inv.callee.name);
                if is_alert_call(class, name) {
                    return true;
                }
            }
        }
        if d < depth {
            for e in app.callgraph.callees(m) {
                if seen.insert(e.callee) {
                    queue.push_back((e.callee, d + 1));
                }
            }
        }
    }
    false
}

/// Returns `true` when the callback's first declared parameter (the error
/// object) is used beyond its identity binding.
fn error_param_used(app: &AnalyzedApp<'_>, callback: MethodId) -> bool {
    let Some(body) = &app.program.method(callback).body else {
        return false;
    };
    let Some(param_local) = body.iter().find_map(|(_, s)| match s {
        Stmt::Identity {
            local,
            kind: IdentityKind::Param(0),
        } => Some(*local),
        _ => None,
    }) else {
        return false;
    };
    body.iter()
        .any(|(_, s)| !matches!(s, Stmt::Identity { .. }) && s.uses().contains(&param_local))
}

/// Analyzes the failure notification for `site`.
pub fn check_notification(app: &AnalyzedApp<'_>, site: &RequestSite) -> NotificationFinding {
    let (callback, explicit) = find_callback(app, site);
    let notified = match callback {
        Some(cb) => alert_reachable(app, cb, 3),
        None => {
            // Synchronous request with no callback interface: the
            // notification lives in the sending method or in a direct
            // caller (the request may sit in a helper like `trySend`).
            alert_reachable(app, site.method, 3)
                || app
                    .callgraph
                    .callers(site.method)
                    .iter()
                    .any(|e| alert_reachable(app, e.caller, 3))
        }
    };
    let error_types_checked = match (callback, app.registry.error_callback(site.library())) {
        (Some(cb), Some(spec)) if spec.exposes_error_types => Some(error_param_used(app, cb)),
        _ => None,
    };
    NotificationFinding {
        callback,
        explicit_error_callback: explicit,
        notified,
        error_types_checked,
    }
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

    fn app_of(build: impl FnOnce(&mut AdxBuilder)) -> AnalyzedApp<'static> {
        let mut b = AdxBuilder::new();
        build(&mut b);
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        AnalyzedApp::new(manifest, program, registry(), &nck_obs::Obs::disabled())
    }

    const ERR_LISTENER: &str = "Lcom/android/volley/Response$ErrorListener;";
    const ON_ERR_SIG: &str = "(Lcom/android/volley/VolleyError;)V";

    fn volley_app(
        listener_body: impl FnOnce(&mut nck_dex::builder::CodeBuilder<'_>),
    ) -> AnalyzedApp<'static> {
        app_of(move |b| {
            b.class("Lapp/Main$Err;", |c| {
                c.interface(ERR_LISTENER);
                c.method(
                    "onErrorResponse",
                    ON_ERR_SIG,
                    AccessFlags::PUBLIC,
                    6,
                    listener_body,
                );
            });
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
                        let l = m.reg(2);
                        m.invoke_static(
                            "Lcom/android/volley/toolbox/Volley;",
                            "newRequestQueue",
                            "()Lcom/android/volley/RequestQueue;",
                            &[],
                        );
                        m.move_result(q);
                        m.new_instance(l, "Lapp/Main$Err;");
                        m.invoke_direct("Lapp/Main$Err;", "<init>", "()V", &[l]);
                        m.new_instance(req, "Lcom/android/volley/toolbox/StringRequest;");
                        m.const_int(m.reg(3), 0);
                        m.invoke_direct(
                            "Lcom/android/volley/toolbox/StringRequest;",
                            "<init>",
                            "(ILcom/android/volley/Response$ErrorListener;)V",
                            &[req, m.reg(3), l],
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
        })
    }

    #[test]
    fn toast_in_error_callback_counts_as_notified() {
        let app = volley_app(|m| {
            let t = m.reg(0);
            m.invoke_static(
                "Landroid/widget/Toast;",
                "makeText",
                "(Ljava/lang/String;)Landroid/widget/Toast;",
                &[m.reg(1)],
            );
            m.move_result(t);
            m.invoke_virtual("Landroid/widget/Toast;", "show", "()V", &[t]);
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        let f = check_notification(&app, &sites[0]);
        assert!(f.explicit_error_callback);
        assert!(f.notified);
        // The error param was never consulted.
        assert_eq!(f.error_types_checked, Some(false));
    }

    #[test]
    fn silent_error_callback_is_flagged() {
        let app = volley_app(|m| {
            // Only logs; no UI notification.
            m.invoke_static(
                "Landroid/util/Log;",
                "d",
                "(Ljava/lang/String;Ljava/lang/String;)I",
                &[m.reg(0), m.reg(1)],
            );
            m.move_result(m.reg(2));
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        let f = check_notification(&app, &sites[0]);
        assert!(f.explicit_error_callback);
        assert!(!f.notified);
    }

    #[test]
    fn error_type_usage_detected() {
        let app = volley_app(|m| {
            let err = m.param(1).unwrap();
            let t = m.reg(0);
            // Consults the error object...
            m.invoke_virtual(
                "Lcom/android/volley/VolleyError;",
                "getMessage",
                "()Ljava/lang/String;",
                &[err],
            );
            m.move_result(m.reg(1));
            // ...and shows it.
            m.invoke_static(
                "Landroid/widget/Toast;",
                "makeText",
                "(Ljava/lang/String;)Landroid/widget/Toast;",
                &[m.reg(1)],
            );
            m.move_result(t);
            m.invoke_virtual("Landroid/widget/Toast;", "show", "()V", &[t]);
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        let f = check_notification(&app, &sites[0]);
        assert!(f.notified);
        assert_eq!(f.error_types_checked, Some(true));
    }

    #[test]
    fn async_task_on_post_execute_is_the_callback() {
        // Native HttpURLConnection request inside doInBackground; the
        // notification site is onPostExecute of the same task class.
        let app = app_of(|b| {
            b.class("Lapp/FetchTask;", |c| {
                c.super_class("Landroid/os/AsyncTask;");
                c.method(
                    "doInBackground",
                    "([Ljava/lang/Object;)Ljava/lang/Object;",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let conn = m.reg(0);
                        m.new_instance(conn, "Ljava/net/HttpURLConnection;");
                        m.invoke_direct("Ljava/net/HttpURLConnection;", "<init>", "()V", &[conn]);
                        m.invoke_virtual(
                            "Ljava/net/HttpURLConnection;",
                            "getInputStream",
                            "()Ljava/io/InputStream;",
                            &[conn],
                        );
                        m.move_result(m.reg(1));
                        m.const_null(m.reg(2));
                        m.ret(Some(m.reg(2)));
                    },
                );
                c.method(
                    "onPostExecute",
                    "(Ljava/lang/Object;)V",
                    AccessFlags::PUBLIC,
                    6,
                    |m| {
                        let tv = m.reg(0);
                        m.new_instance(tv, "Landroid/widget/TextView;");
                        m.invoke_direct("Landroid/widget/TextView;", "<init>", "()V", &[tv]);
                        m.invoke_virtual(
                            "Landroid/widget/TextView;",
                            "setText",
                            "(Ljava/lang/String;)V",
                            &[tv, m.reg(1)],
                        );
                        m.ret(None);
                    },
                );
            });
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    6,
                    |m| {
                        m.new_instance(m.reg(0), "Lapp/FetchTask;");
                        m.invoke_direct("Lapp/FetchTask;", "<init>", "()V", &[m.reg(0)]);
                        m.invoke_virtual(
                            "Lapp/FetchTask;",
                            "execute",
                            "([Ljava/lang/Object;)Landroid/os/AsyncTask;",
                            &[m.reg(0), m.reg(1)],
                        );
                        m.ret(None);
                    },
                );
            });
        });
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        let f = check_notification(&app, &sites[0]);
        assert!(f.callback.is_some());
        assert!(f.notified, "TextView.setText in onPostExecute notifies");
    }
}
