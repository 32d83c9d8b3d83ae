//! Customized retry-loop identification (§4.5, Figure 6).
//!
//! Retry loops are distinguished from ordinary request loops by their exit
//! conditions: either (a) an unconditional exit that only executes when
//! the request succeeds (unreachable from the catch block, Figure 6(b)),
//! or (b) a conditional exit whose condition data-depends — directly
//! (Figure 6(c)) or through a callee's return value (Figure 6(d)) — on
//! statements in a catch block.

use crate::context::AnalyzedApp;
use crate::reach::RequestSite;
use nck_dataflow::slice::{backward_slice, SliceKind};
use nck_ir::body::{Body, MethodId, Rvalue, Stmt, StmtId};
use nck_ir::cfg::Cfg;
use nck_ir::loops::NaturalLoop;
use std::collections::{BTreeSet, VecDeque};

/// Why a loop was classified as a retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryKind {
    /// Unconditional exit unreachable from the catch block (Figure 6(b)).
    SuccessExit,
    /// Conditional exit data-dependent on the catch block (Figure 6(c)).
    CatchCondition,
    /// Conditional exit dependent on a callee whose return value depends
    /// on its own catch block (Figure 6(d)).
    InterprocCatchCondition,
}

/// One identified customized retry loop.
#[derive(Debug, Clone)]
pub struct RetryLoop {
    /// The containing method.
    pub method: MethodId,
    /// The loop header statement.
    pub header: StmtId,
    /// All statements of the loop.
    pub body: BTreeSet<StmtId>,
    /// Why it is a retry loop.
    pub kind: RetryKind,
}

/// Computes the statements reachable from the catch handlers that lie
/// inside `scope` (or the whole body when `scope` is `None`), without
/// passing through `stop` (the loop header).
fn catch_region(
    body: &Body,
    cfg: &Cfg,
    scope: Option<&NaturalLoop>,
    stop: Option<StmtId>,
) -> BTreeSet<StmtId> {
    let mut region = BTreeSet::new();
    for trap in &body.traps {
        let h = trap.handler;
        if let Some(l) = scope {
            if !l.contains(h) {
                continue;
            }
        }
        let mut queue = VecDeque::from([h]);
        while let Some(s) = queue.pop_front() {
            if Some(s) == stop {
                continue;
            }
            if let Some(l) = scope {
                if !l.contains(s) {
                    continue;
                }
            }
            if !region.insert(s) {
                continue;
            }
            for t in cfg.succs(s, false) {
                queue.push_back(t);
            }
        }
    }
    region
}

/// Returns `true` when some `return v` of `method` data-depends on its own
/// catch block (the Figure 6(d) callee shape: `success = false` in catch).
fn return_depends_on_catch(app: &AnalyzedApp<'_>, method: MethodId) -> bool {
    let Some(body) = &app.program.method(method).body else {
        return false;
    };
    if body.traps.is_empty() {
        return false;
    }
    let ma = app.analysis(method);
    let region = catch_region(body, ma.cfg(), None, None);
    if region.is_empty() {
        return false;
    }
    body.iter()
        .filter(|(_, s)| matches!(s, Stmt::Return { value: Some(_) }))
        .any(|(id, _)| {
            let slice = backward_slice(body, ma.rd(), ma.cdeps(), id, SliceKind::Data);
            slice.iter().any(|s| region.contains(s))
        })
}

/// Methods from which a target API call is reachable (inclusive of the
/// methods containing the calls).
fn methods_reaching_targets(app: &AnalyzedApp<'_>) -> BTreeSet<MethodId> {
    let mut seeds = BTreeSet::new();
    for (mid, m) in app.program.iter_methods() {
        let Some(body) = &m.body else { continue };
        for (_, stmt) in body.iter() {
            if let Some(inv) = stmt.invoke_expr() {
                if app.api_target(inv).is_some() {
                    seeds.insert(mid);
                    break;
                }
            }
        }
    }
    // Reverse closure over the call graph.
    let mut out = seeds.clone();
    let mut queue: VecDeque<MethodId> = seeds.into_iter().collect();
    while let Some(m) = queue.pop_front() {
        for e in app.callgraph.callers(m) {
            if out.insert(e.caller) {
                queue.push_back(e.caller);
            }
        }
    }
    out
}

/// Finds every customized retry loop in the app.
pub fn find_retry_loops(app: &AnalyzedApp<'_>) -> Vec<RetryLoop> {
    let reach_targets = methods_reaching_targets(app);
    // Whether statement `s` of `mid` (transitively) issues a request: a
    // target API call, or a call into a method that reaches one.
    let issues_request = |mid: MethodId, s: StmtId, stmt: &Stmt| {
        let Some(inv) = stmt.invoke_expr() else {
            return false;
        };
        app.api_target(inv).is_some()
            || app
                .callgraph
                .callees_at(mid, s)
                .any(|c| reach_targets.contains(&c))
    };
    let mut out = Vec::new();

    for (mid, m) in app.program.iter_methods() {
        let Some(body) = &m.body else { continue };
        // A loop's statements are a subset of its method's, so a method
        // with no request-issuing statement has no loop step 1 keeps:
        // skip it before its CFG is built.
        if !body.iter().any(|(s, stmt)| issues_request(mid, s, stmt)) {
            continue;
        }
        let ma = app.analysis(mid);
        for l in ma.loops() {
            // Step 1: the loop must (transitively) issue a request.
            if !l.body.iter().any(|&s| issues_request(mid, s, body.stmt(s))) {
                continue;
            }

            let region = catch_region(body, ma.cfg(), Some(l), Some(l.header));
            let exits = l.exits(body, ma.cfg());

            // Rule (a): an unconditional exit unreachable from the catch
            // block, with a catch present inside the loop.
            let success_exit = !region.is_empty()
                && exits
                    .iter()
                    .any(|e| !e.conditional && !region.contains(&e.from));

            // Rule (b): a conditional exit whose condition data-depends on
            // the catch block, directly or through a callee.
            let mut catch_condition = false;
            let mut interproc = false;
            for e in exits.iter().filter(|e| e.conditional) {
                let slice = backward_slice(body, ma.rd(), ma.cdeps(), e.from, SliceKind::Data);
                if !region.is_empty() && slice.iter().any(|s| s != &e.from && region.contains(s)) {
                    catch_condition = true;
                    break;
                }
                // Figure 6(d): dependence through a callee's return value.
                for &s in &slice {
                    if let Stmt::Assign {
                        rvalue: Rvalue::Invoke(_),
                        ..
                    } = body.stmt(s)
                    {
                        if app
                            .callgraph
                            .callees_at(mid, s)
                            .any(|c| return_depends_on_catch(app, c))
                        {
                            interproc = true;
                        }
                    }
                }
                if interproc {
                    break;
                }
            }

            let kind = if catch_condition {
                RetryKind::CatchCondition
            } else if success_exit {
                RetryKind::SuccessExit
            } else if interproc {
                RetryKind::InterprocCatchCondition
            } else {
                continue; // An ordinary loop over requests.
            };

            out.push(RetryLoop {
                method: mid,
                header: l.header,
                body: l.body.clone(),
                kind,
            });
        }
    }
    out
}

/// Returns `true` when `site` is covered by a customized retry loop: the
/// call sits inside one, or a retry loop transitively calls into the
/// site's method.
pub fn covered_by_retry(app: &AnalyzedApp<'_>, loops: &[RetryLoop], site: &RequestSite) -> bool {
    for l in loops {
        if l.method == site.method && l.body.contains(&site.stmt) {
            return true;
        }
        // A loop elsewhere that calls a method reaching the site's method.
        for &s in &l.body {
            for callee in app.callgraph.callees_at(l.method, s) {
                if callee == site.method
                    || app.callgraph.reachable_from(callee).contains(&site.method)
                {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalyzedApp;
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

    fn app_of(build: impl FnOnce(&mut AdxBuilder)) -> AnalyzedApp<'static> {
        let mut b = AdxBuilder::new();
        build(&mut b);
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        AnalyzedApp::new(manifest, program, registry(), &nck_obs::Obs::disabled())
    }

    /// Figure 6(b): `for(;;) { try { send(request); return; } catch {} }`.
    #[test]
    fn firefox_style_success_exit_loop() {
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
                        m.new_instance(cl, BASIC);
                        m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                        let head = m.new_label();
                        let handler = m.new_label();
                        m.bind(head);
                        let t = m.begin_try();
                        m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(1), m.reg(2)]);
                        m.move_result(m.reg(3));
                        m.ret(None); // Success: leave the method.
                        m.end_try(t, &[(Some("Ljava/io/IOException;"), handler)]);
                        m.bind(handler);
                        m.move_exception(m.reg(4));
                        m.goto(head);
                    },
                );
            });
        });
        let loops = find_retry_loops(&app);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].kind, RetryKind::SuccessExit);
    }

    /// Figure 6(c): `while(retry) { try { send } catch { retry = f() } }`.
    #[test]
    fn volley_style_catch_condition_loop() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    10,
                    |m| {
                        let cl = m.reg(0);
                        let retry = m.reg(1);
                        m.new_instance(cl, BASIC);
                        m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                        m.const_int(retry, 1);
                        let head = m.new_label();
                        let handler = m.new_label();
                        let done = m.new_label();
                        m.bind(head);
                        m.ifz(CondOp::Eq, retry, done); // Exit condition uses retry.
                        let t = m.begin_try();
                        m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(2), m.reg(3)]);
                        m.move_result(m.reg(4));
                        m.end_try(t, &[(Some("Ljava/io/IOException;"), handler)]);
                        m.goto(done);
                        m.bind(handler);
                        m.move_exception(m.reg(5));
                        // retry = shouldRetry()
                        m.invoke_virtual(
                            "Lapp/Main;",
                            "shouldRetry",
                            "()Z",
                            &[m.param(0).unwrap()],
                        );
                        m.move_result(retry);
                        m.goto(head);
                        m.bind(done);
                        m.ret(None);
                    },
                );
                c.method("shouldRetry", "()Z", AccessFlags::PUBLIC, 2, |m| {
                    m.const_int(m.reg(0), 0);
                    m.ret(Some(m.reg(0)));
                });
            });
        });
        let loops = find_retry_loops(&app);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].kind, RetryKind::CatchCondition);
    }

    /// Figure 6(d): `while(!success) { success = send(req); }` with the
    /// catch inside the callee.
    #[test]
    fn okhttp_style_interproc_loop() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let success = m.reg(0);
                        m.const_int(success, 0);
                        let head = m.new_label();
                        let done = m.new_label();
                        m.bind(head);
                        m.ifz(CondOp::Ne, success, done);
                        m.invoke_virtual("Lapp/Main;", "send", "()Z", &[m.param(0).unwrap()]);
                        m.move_result(success);
                        m.goto(head);
                        m.bind(done);
                        m.ret(None);
                    },
                );
                c.method("send", "()Z", AccessFlags::PUBLIC, 8, |m| {
                    let ok = m.reg(0);
                    let cl = m.reg(1);
                    let handler = m.new_label();
                    let out = m.new_label();
                    m.const_int(ok, 1);
                    m.new_instance(cl, BASIC);
                    m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                    let t = m.begin_try();
                    m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(2), m.reg(3)]);
                    m.move_result(m.reg(4));
                    m.end_try(t, &[(Some("Ljava/io/IOException;"), handler)]);
                    m.goto(out);
                    m.bind(handler);
                    m.move_exception(m.reg(5));
                    m.const_int(ok, 0); // success = false in catch.
                    m.bind(out);
                    m.ret(Some(ok));
                });
            });
        });
        let loops = find_retry_loops(&app);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].kind, RetryKind::InterprocCatchCondition);
    }

    /// A loop sending a sequence of requests (no dependence on failure)
    /// must NOT be classified as a retry loop.
    #[test]
    fn sequence_loop_is_not_a_retry_loop() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    10,
                    |m| {
                        let cl = m.reg(0);
                        let i = m.reg(1);
                        let n = m.reg(2);
                        m.new_instance(cl, BASIC);
                        m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                        m.const_int(i, 0);
                        m.const_int(n, 10);
                        let head = m.new_label();
                        let done = m.new_label();
                        m.bind(head);
                        m.if_(CondOp::Ge, i, n, done);
                        m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(3), m.reg(4)]);
                        m.move_result(m.reg(5));
                        m.binop_lit(nck_dex::BinOp::Add, i, i, 1);
                        m.goto(head);
                        m.bind(done);
                        m.ret(None);
                    },
                );
            });
        });
        let loops = find_retry_loops(&app);
        assert!(loops.is_empty(), "iteration over requests is not retry");
    }

    /// A loop with no request inside is ignored even if it has catches.
    #[test]
    fn non_request_loop_is_ignored() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    8,
                    |m| {
                        let head = m.new_label();
                        let handler = m.new_label();
                        m.bind(head);
                        let t = m.begin_try();
                        m.invoke_virtual("Lapp/Main;", "compute", "()V", &[m.param(0).unwrap()]);
                        m.ret(None);
                        m.end_try(t, &[(None, handler)]);
                        m.bind(handler);
                        m.move_exception(m.reg(0));
                        m.goto(head);
                    },
                );
                c.method("compute", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
            });
        });
        assert!(find_retry_loops(&app).is_empty());
    }

    /// The scan builds a CFG only for a method with a statement that
    /// issues a request: `onCreate`'s only loop calls a request-free
    /// helper, while `fetch()` (loop-free) calls the library.
    #[test]
    fn a_method_whose_only_loop_issues_no_request_gets_no_cfg() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    4,
                    |m| {
                        let head = m.new_label();
                        m.bind(head);
                        m.invoke_virtual("Lapp/Main;", "compute", "()V", &[m.param(0).unwrap()]);
                        m.goto(head);
                    },
                );
                c.method("compute", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
                c.method("fetch", "()V", AccessFlags::PUBLIC, 8, |m| {
                    let cl = m.reg(0);
                    m.new_instance(cl, BASIC);
                    m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                    m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(1), m.reg(2)]);
                    m.move_result(m.reg(3));
                    m.ret(None);
                });
            });
        });
        let method = |name: &str| {
            let (id, _) = app
                .program
                .iter_methods()
                .find(|(_, m)| app.program.symbols.resolve(m.key.name) == name)
                .unwrap();
            app.analysis(id)
        };
        assert!(find_retry_loops(&app).is_empty());
        assert!(!method("onCreate").has_cfg());
        assert!(!method("compute").has_cfg());
        assert!(method("fetch").has_cfg());
        assert_eq!(app.cfgs_built(), 1);
        // The loop is real: asking for it builds the CFG.
        assert_eq!(method("onCreate").loops().len(), 1);
    }

    /// `for(;;) { try { this.send(); return; } catch {} }` where only
    /// the helper `send()` calls the library: the loop still issues a
    /// request, through the call graph.
    #[test]
    fn loop_reaching_a_request_through_a_helper_is_reported() {
        let app = app_of(|b| {
            b.class("Lapp/Main;", |c| {
                c.super_class("Landroid/app/Activity;");
                c.method(
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                    AccessFlags::PUBLIC,
                    4,
                    |m| {
                        let head = m.new_label();
                        let handler = m.new_label();
                        m.bind(head);
                        let t = m.begin_try();
                        m.invoke_virtual("Lapp/Main;", "send", "()V", &[m.param(0).unwrap()]);
                        m.ret(None);
                        m.end_try(t, &[(Some("Ljava/io/IOException;"), handler)]);
                        m.bind(handler);
                        m.move_exception(m.reg(0));
                        m.goto(head);
                    },
                );
                c.method("send", "()V", AccessFlags::PUBLIC, 8, |m| {
                    let cl = m.reg(0);
                    m.new_instance(cl, BASIC);
                    m.invoke_direct(BASIC, "<init>", "()V", &[cl]);
                    m.invoke_virtual(BASIC, "get", GET_SIG, &[cl, m.reg(1), m.reg(2)]);
                    m.move_result(m.reg(3));
                    m.ret(None);
                });
            });
        });
        let loops = find_retry_loops(&app);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].kind, RetryKind::SuccessExit);
        assert_eq!(
            app.display_method(loops[0].method),
            "Lapp/Main;.onCreate(Landroid/os/Bundle;)V"
        );
    }
}
