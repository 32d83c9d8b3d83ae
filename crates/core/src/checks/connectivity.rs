//! Connectivity-check analysis (§4.4.1, step 1 of Figure 5).
//!
//! "For each path from the entry point to the target API, NChecker checks
//! if there is connectivity checking API invoked on the path."
//!
//! The check is deliberately *path-insensitive*, like the paper's: a
//! connectivity API invoked somewhere before the request counts as a
//! guard even when its result is never used as a control condition —
//! which is exactly the source of the 5 known false negatives in Table 9.
//! Conversely a check living in another component (reached only through
//! inter-component communication) is invisible, producing the Table 9
//! false positives.

use crate::context::AnalyzedApp;
use crate::reach::RequestSite;
use nck_ir::body::{MethodId, StmtId};
use std::collections::{BTreeSet, VecDeque};

/// Returns the methods of the app that invoke any connectivity API.
pub fn methods_invoking_connectivity(app: &AnalyzedApp<'_>) -> BTreeSet<MethodId> {
    let mut out = BTreeSet::new();
    for (mid, m) in app.program.iter_methods() {
        let Some(body) = &m.body else { continue };
        for (_, stmt) in body.iter() {
            let Some(inv) = stmt.invoke_expr() else {
                continue;
            };
            if app.api_is_connectivity(inv) {
                out.insert(mid);
                break;
            }
        }
    }
    out
}

/// Returns the methods that *observe* connectivity: they invoke a
/// connectivity API directly or through any chain of app helpers
/// (`isOnline()`-style wrappers), per [`AnalyzedApp::calls_source`]. A
/// superset of [`methods_invoking_connectivity`].
pub fn methods_observing_connectivity(app: &AnalyzedApp<'_>) -> BTreeSet<MethodId> {
    app.program
        .iter_methods()
        .filter(|(id, m)| m.body.is_some() && app.calls_source(*id))
        .map(|(id, _)| id)
        .collect()
}

/// Returns `true` when the call at `stmt` in `method` resolves (via
/// explicit edges) to at least one app method satisfying `pred`.
fn explicit_callee_matches(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    stmt: StmtId,
    pred: impl Fn(MethodId) -> bool,
) -> bool {
    app.callgraph
        .callees(method)
        .iter()
        .filter(|e| e.stmt == stmt && !e.implicit)
        .any(|e| pred(e.callee))
}

/// Returns the set of methods from which `target` is reachable in the
/// call graph (inclusive).
fn methods_reaching(app: &AnalyzedApp<'_>, target: MethodId) -> BTreeSet<MethodId> {
    let mut seen = BTreeSet::from([target]);
    let mut queue = VecDeque::from([target]);
    while let Some(m) = queue.pop_front() {
        for e in app.callgraph.callers(m) {
            if seen.insert(e.caller) {
                queue.push_back(e.caller);
            }
        }
    }
    seen
}

/// Returns `true` when a connectivity check inside `method` can reach
/// `site` along CFG edges (i.e. occurs "before" the request). With
/// `interproc`, a call to an app helper that transitively performs a
/// connectivity check counts as a check statement too.
fn guarded_intra(app: &AnalyzedApp<'_>, method: MethodId, site: StmtId, interproc: bool) -> bool {
    let body = app.body(method);
    let ma = app.analysis(method);
    let checks: Vec<StmtId> = body
        .iter()
        .filter(|(id, stmt)| {
            stmt.invoke_expr().is_some_and(|inv| {
                app.api_is_connectivity(inv)
                    || (interproc
                        && explicit_callee_matches(app, method, *id, |c| app.calls_source(c)))
            })
        })
        .map(|(id, _)| id)
        .collect();
    if checks.is_empty() {
        return false;
    }
    // Forward reachability from each check to the request site.
    for check in checks {
        let mut seen = vec![false; body.len()];
        let mut stack = vec![check];
        seen[check.index()] = true;
        while let Some(s) = stack.pop() {
            if s == site {
                return true;
            }
            for t in ma.cfg().succs(s, false) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
    }
    false
}

/// Strict (path-sensitive) variant: the request must be transitively
/// *control-dependent* on a branch whose condition derives from a
/// connectivity API result.
///
/// This is the fix for the paper's five known false negatives (§5.3):
/// the default analysis treats a connectivity API call whose result is
/// ignored as a guard; this one does not.
///
/// `interproc` enables summary-based guard recognition (`if
/// (isOnline())` wrappers), and `caller_depth` optionally restores the
/// historical bounded caller recursion (`Some(3)`) instead of the
/// exhaustive visited-set walk (`None`).
pub fn is_guarded_strict(
    app: &AnalyzedApp<'_>,
    site: &RequestSite,
    interproc: bool,
    caller_depth: Option<usize>,
) -> bool {
    match caller_depth {
        Some(depth) => strict_rec(app, site.method, site.stmt, depth, interproc),
        None => {
            // Exhaustive caller walk: visit each (method, call-site)
            // pair once, so recursion and diamond caller graphs cost
            // nothing extra and no guard is missed by a depth cutoff.
            let mut seen: BTreeSet<(MethodId, StmtId)> = BTreeSet::new();
            let mut work = vec![(site.method, site.stmt)];
            while let Some((method, stmt)) = work.pop() {
                if !seen.insert((method, stmt)) {
                    continue;
                }
                if guarded_by_conn_branch(app, method, stmt, interproc) {
                    return true;
                }
                for e in app.callgraph.callers(method) {
                    work.push((e.caller, e.stmt));
                }
            }
            false
        }
    }
}

fn strict_rec(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    stmt: StmtId,
    depth: usize,
    interproc: bool,
) -> bool {
    if guarded_by_conn_branch(app, method, stmt, interproc) {
        return true;
    }
    if depth == 0 {
        return false;
    }
    // The guarding branch may live in a caller, dominating the call that
    // leads to the request.
    app.callgraph
        .callers(method)
        .iter()
        .any(|e| strict_rec(app, e.caller, e.stmt, depth - 1, interproc))
}

/// Returns `true` when `stmt` is transitively control-dependent on an
/// `if` whose condition data-derives from a connectivity API result
/// within `method`. With `interproc`, results of app helpers whose
/// summaries return connectivity-derived values count as connectivity
/// definitions too.
fn guarded_by_conn_branch(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    stmt: StmtId,
    interproc: bool,
) -> bool {
    use nck_dataflow::slice::{backward_slice, SliceKind};
    let body = app.body(method);
    let ma = app.analysis(method);

    // Connectivity-result definitions: direct API results, plus (with
    // summaries) results of guard wrappers like `isOnline()`.
    let conn_defs: BTreeSet<StmtId> = body
        .iter()
        .filter(|(id, s)| {
            matches!(s, nck_ir::Stmt::Assign { .. })
                && s.invoke_expr().is_some_and(|inv| {
                    app.api_is_connectivity(inv)
                        || (interproc
                            && explicit_callee_matches(app, method, *id, |c| {
                                // A connectivity-derived result needs a
                                // source below it; skip the solve if none.
                                app.calls_source(c)
                                    && app.summaries().summary(c.0 as usize).returns_connectivity()
                            }))
                })
        })
        .map(|(id, _)| id)
        .collect();
    if conn_defs.is_empty() {
        return false;
    }

    // Branches whose condition derives from a connectivity result.
    let guard_branches: BTreeSet<StmtId> = body
        .iter()
        .filter(|(id, s)| {
            matches!(s, nck_ir::Stmt::If { .. } | nck_ir::Stmt::Switch { .. }) && {
                let slice = backward_slice(body, ma.rd(), ma.cdeps(), *id, SliceKind::Data);
                slice.iter().any(|d| conn_defs.contains(d))
            }
        })
        .map(|(id, _)| id)
        .collect();
    if guard_branches.is_empty() {
        return false;
    }

    // Transitive control dependence of the request on a guard branch,
    // over the exception-free CFG (exceptional edges would make the
    // request "depend" on every throwing call before it).
    let mut seen = BTreeSet::new();
    let mut work = vec![stmt];
    while let Some(s) = work.pop() {
        if !seen.insert(s) {
            continue;
        }
        for &dep in ma.cdeps_normal().deps_of(s) {
            if guard_branches.contains(&dep) {
                return true;
            }
            work.push(dep);
        }
    }
    false
}

/// Decides whether `site` is guarded by a connectivity check on some
/// entry-to-request path. `conn_methods` is the set of
/// connectivity-checking methods the caller considers (typically
/// [`methods_observing_connectivity`] when `interproc` is on, or
/// [`methods_invoking_connectivity`] when off).
pub fn is_guarded(
    app: &AnalyzedApp<'_>,
    site: &RequestSite,
    conn_methods: &BTreeSet<MethodId>,
    interproc: bool,
) -> bool {
    // Same-method check must occur before the request in the CFG.
    if conn_methods.contains(&site.method) && guarded_intra(app, site.method, site.stmt, interproc)
    {
        return true;
    }
    // Otherwise: any method on an entry→site call path that invokes a
    // connectivity API counts (path-insensitive interprocedural check).
    let to_site = methods_reaching(app, site.method);
    for &e in &site.entries {
        let from_entry = &app.entry_reach[e];
        for &m in conn_methods {
            if m != site.method && from_entry.contains(m) && to_site.contains(&m) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalyzedApp;
    use crate::reach::find_request_sites;
    use nck_android::manifest::{ComponentKind, Manifest};
    use nck_dex::builder::AdxBuilder;
    use nck_dex::{AccessFlags, CondOp};
    use nck_ir::lift_file;
    use nck_netlibs::api::Registry;

    fn registry() -> &'static Registry {
        use std::sync::OnceLock;
        static R: OnceLock<Registry> = OnceLock::new();
        R.get_or_init(Registry::standard)
    }

    const BASIC: &str = "Lcom/turbomanage/httpclient/BasicHttpClient;";
    const GET_SIG: &str = "(Ljava/lang/String;Lcom/turbomanage/httpclient/ParameterMap;)Lcom/turbomanage/httpclient/HttpResponse;";

    fn emit_request(m: &mut nck_dex::builder::CodeBuilder<'_>) {
        let cl = m.reg(0);
        m.new_instance(cl, BASIC);
        m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
        m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(1), m.reg(2)]);
        m.ret(None);
    }

    fn app_of(build: impl FnOnce(&mut AdxBuilder)) -> AnalyzedApp<'static> {
        let mut b = AdxBuilder::new();
        build(&mut b);
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        AnalyzedApp::new(manifest, program, registry(), &nck_obs::Obs::disabled())
    }

    #[test]
    fn unguarded_request_is_flagged() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    6,
                    emit_request,
                );
            });
        });
        let sites = find_request_sites(&app);
        let conn = methods_invoking_connectivity(&app);
        assert!(!is_guarded(&app, &sites[0], &conn, true));
    }

    #[test]
    fn check_before_request_guards() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let cm = m.reg(3);
                        let info = m.reg(4);
                        let ok = m.reg(5);
                        let done = m.new_label();
                        m.new_instance(cm, "Landroid/net/ConnectivityManager;");
                        m.invoke_direct(
                            "Landroid/net/ConnectivityManager;",
                            "<init>",
                            "()V",
                            &[cm],
                        );
                        m.invoke_virtual(
                            "Landroid/net/ConnectivityManager;",
                            "getActiveNetworkInfo",
                            "()Landroid/net/NetworkInfo;",
                            &[cm],
                        );
                        m.move_result(info);
                        m.invoke_virtual(
                            "Landroid/net/NetworkInfo;",
                            "isConnected",
                            "()Z",
                            &[info],
                        );
                        m.move_result(ok);
                        m.ifz(CondOp::Eq, ok, done);
                        emit_request_inner(m);
                        m.bind(done);
                        m.ret(None);
                    },
                );
            });
        });
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        let conn = methods_invoking_connectivity(&app);
        assert!(is_guarded(&app, &sites[0], &conn, true));
    }

    fn emit_request_inner(m: &mut nck_dex::builder::CodeBuilder<'_>) {
        let cl = m.reg(0);
        m.new_instance(cl, BASIC);
        m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
        m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(1), m.reg(2)]);
    }

    #[test]
    fn check_after_request_does_not_guard() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        emit_request_inner(m);
                        let cm = m.reg(3);
                        m.new_instance(cm, "Landroid/net/ConnectivityManager;");
                        m.invoke_direct(
                            "Landroid/net/ConnectivityManager;",
                            "<init>",
                            "()V",
                            &[cm],
                        );
                        m.invoke_virtual(
                            "Landroid/net/ConnectivityManager;",
                            "getActiveNetworkInfo",
                            "()Landroid/net/NetworkInfo;",
                            &[cm],
                        );
                        m.move_result(m.reg(4));
                        m.ret(None);
                    },
                );
            });
        });
        let sites = find_request_sites(&app);
        let conn = methods_invoking_connectivity(&app);
        assert!(!is_guarded(&app, &sites[0], &conn, true));
    }

    #[test]
    fn check_in_caller_guards_interprocedurally() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let cm = m.reg(3);
                        m.new_instance(cm, "Landroid/net/ConnectivityManager;");
                        m.invoke_direct(
                            "Landroid/net/ConnectivityManager;",
                            "<init>",
                            "()V",
                            &[cm],
                        );
                        m.invoke_virtual(
                            "Landroid/net/ConnectivityManager;",
                            "getActiveNetworkInfo",
                            "()Landroid/net/NetworkInfo;",
                            &[cm],
                        );
                        m.move_result(m.reg(4));
                        m.invoke_virtual("Lapp/Main;", "send", "()V", &[m.param(0).unwrap()]);
                        m.ret(None);
                    },
                );
                c.method("send", "()V", AccessFlags::PUBLIC, 6, emit_request);
            });
        });
        let sites = find_request_sites(&app);
        let conn = methods_invoking_connectivity(&app);
        assert!(is_guarded(&app, &sites[0], &conn, true));
    }

    #[test]
    fn check_off_path_does_not_guard() {
        // The connectivity check lives in a method never on the
        // entry→request path (models the inter-component FP of Table 9).
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    6,
                    emit_request,
                );
                c.method("unrelatedCheck", "()V", AccessFlags::PUBLIC, 6, |m| {
                    let cm = m.reg(0);
                    m.new_instance(cm, "Landroid/net/ConnectivityManager;");
                    m.invoke_direct("Landroid/net/ConnectivityManager;", "<init>", "()V", &[cm]);
                    m.invoke_virtual(
                        "Landroid/net/ConnectivityManager;",
                        "getActiveNetworkInfo",
                        "()Landroid/net/NetworkInfo;",
                        &[cm],
                    );
                    m.move_result(m.reg(1));
                    m.ret(None);
                });
            });
        });
        let sites = find_request_sites(&app);
        let conn = methods_invoking_connectivity(&app);
        assert_eq!(conn.len(), 1);
        assert!(!is_guarded(&app, &sites[0], &conn, true));
    }

    #[test]
    fn paper_fn_check_without_control_condition_still_guards() {
        // The app calls the connectivity API but ignores its result — a
        // real NPD the path-insensitive analysis misses (Table 9 FN).
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let cm = m.reg(3);
                        m.new_instance(cm, "Landroid/net/ConnectivityManager;");
                        m.invoke_direct(
                            "Landroid/net/ConnectivityManager;",
                            "<init>",
                            "()V",
                            &[cm],
                        );
                        m.invoke_virtual(
                            "Landroid/net/ConnectivityManager;",
                            "getActiveNetworkInfo",
                            "()Landroid/net/NetworkInfo;",
                            &[cm],
                        );
                        m.move_result(m.reg(4));
                        // Result ignored; request sent unconditionally.
                        emit_request_inner(m);
                        m.ret(None);
                    },
                );
            });
        });
        let sites = find_request_sites(&app);
        let conn = methods_invoking_connectivity(&app);
        assert!(
            is_guarded(&app, &sites[0], &conn, true),
            "path-insensitivity: treated as guarded"
        );
    }

    /// `onCreate` guards the request with `if (w1())`, where `w1..wD`
    /// forward to each other and only `wD` touches the connectivity APIs.
    fn wrapper_chain_app(depth: usize) -> AnalyzedApp<'static> {
        app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let ok = m.reg(5);
                        let skip = m.new_label();
                        m.invoke_virtual("Lapp/Main;", "w1", "()Z", &[m.param(0).unwrap()]);
                        m.move_result(ok);
                        m.ifz(CondOp::Eq, ok, skip);
                        emit_request_inner(m);
                        m.bind(skip);
                        m.ret(None);
                    },
                );
                for i in 1..depth {
                    let next = format!("w{}", i + 1);
                    c.method(&format!("w{i}"), "()Z", AccessFlags::PUBLIC, 4, move |m| {
                        m.invoke_virtual("Lapp/Main;", &next, "()Z", &[m.param(0).unwrap()]);
                        m.move_result(m.reg(0));
                        m.ret(Some(m.reg(0)));
                    });
                }
                c.method(&format!("w{depth}"), "()Z", AccessFlags::PUBLIC, 6, |m| {
                    let cm = m.reg(0);
                    let info = m.reg(1);
                    let ok = m.reg(2);
                    let offline = m.new_label();
                    m.new_instance(cm, "Landroid/net/ConnectivityManager;");
                    m.invoke_direct("Landroid/net/ConnectivityManager;", "<init>", "()V", &[cm]);
                    m.invoke_virtual(
                        "Landroid/net/ConnectivityManager;",
                        "getActiveNetworkInfo",
                        "()Landroid/net/NetworkInfo;",
                        &[cm],
                    );
                    m.move_result(info);
                    m.ifz(CondOp::Eq, info, offline);
                    m.invoke_virtual("Landroid/net/NetworkInfo;", "isConnected", "()Z", &[info]);
                    m.move_result(ok);
                    m.ret(Some(ok));
                    m.bind(offline);
                    m.const_int(ok, 0);
                    m.ret(Some(ok));
                });
            });
        })
    }

    #[test]
    fn guard_wrappers_guard_at_depths_one_through_five() {
        for depth in 1..=5 {
            let app = wrapper_chain_app(depth);
            let sites = find_request_sites(&app);
            assert_eq!(sites.len(), 1, "depth {depth}");
            let observing = methods_observing_connectivity(&app);
            assert!(
                is_guarded(&app, &sites[0], &observing, true),
                "summaries see through the wrapper chain at depth {depth}"
            );
            assert!(
                is_guarded_strict(&app, &sites[0], true, None),
                "the strict check accepts the wrapper-derived branch at depth {depth}"
            );
        }
    }

    #[test]
    fn guard_wrappers_defeat_the_method_local_analysis() {
        for depth in 1..=5 {
            let app = wrapper_chain_app(depth);
            let sites = find_request_sites(&app);
            let invoking = methods_invoking_connectivity(&app);
            assert!(
                !is_guarded(&app, &sites[0], &invoking, false),
                "without summaries the wrapper is invisible at depth {depth}"
            );
            assert!(
                !is_guarded_strict(&app, &sites[0], false, Some(3)),
                "the bounded local strict walk misses the wrapper at depth {depth}"
            );
        }
    }
}
