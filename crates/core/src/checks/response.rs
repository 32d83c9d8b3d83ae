//! Invalid-response analysis (§4.4.4, step 4 of Figure 5).
//!
//! Taints the response object at the request's result, propagates it
//! forward, and requires every body-reading use to be dominated by a
//! validity check — a null test on the response or a response-checking
//! API such as OkHttp's `isSuccessful()`.

use crate::context::AnalyzedApp;
use crate::reach::RequestSite;
use nck_dataflow::taint::{object_flow, FlowOptions, ObjectFlow};
use nck_ir::body::{InvokeExpr, LocalId, MethodId, Operand, Stmt, StmtId};

/// The response-check findings for one request site.
#[derive(Debug, Clone)]
pub struct ResponseFinding {
    /// The local holding the response object.
    pub response_local: LocalId,
    /// Statements that read the response.
    pub uses: Vec<StmtId>,
    /// Uses not dominated by any validity check.
    pub unchecked_uses: Vec<StmtId>,
}

/// Analyzes the response usage of `site`.
///
/// Returns `None` when the target does not produce a checkable response
/// (async delivery, or a library without response-check APIs — the paper
/// evaluates this check only on "apps that use libs that have resp. check
/// APIs", Table 6). `interproc` lets a call that hands the response to
/// an app helper count as a validity check when the helper's summary
/// proves it checks that argument.
pub fn check_response(
    app: &AnalyzedApp<'_>,
    site: &RequestSite,
    interproc: bool,
) -> Option<ResponseFinding> {
    if !site.library().has_response_check_api() {
        return None;
    }
    let body = app.body(site.method);
    let ma = app.analysis(site.method);
    // The response must be captured synchronously.
    let response_local = match body.stmt(site.stmt) {
        Stmt::Assign { local, .. } => *local,
        _ => return None,
    };

    // No fluent aliasing here: `resp = call.execute()` must not drag the
    // client/call objects into the response's alias set, or their config
    // calls would read as unchecked "uses".
    let flow = object_flow(
        body,
        response_local,
        FlowOptions {
            fluent_returns: false,
            through_fields: true,
        },
    );

    let mut checks: Vec<StmtId> = Vec::new();
    let mut uses: Vec<StmtId> = Vec::new();
    for (sid, stmt) in body.iter() {
        if sid == site.stmt {
            continue;
        }
        match stmt {
            // Null tests on any alias of the response.
            Stmt::If { a, b, .. } => {
                let a_resp = a.as_local().is_some_and(|l| flow.locals.contains(&l));
                let b_null = matches!(b, Operand::Null | Operand::IntConst(0));
                let b_resp = b.as_local().is_some_and(|l| flow.locals.contains(&l));
                let a_null = matches!(a, Operand::Null | Operand::IntConst(0));
                if (a_resp && b_null) || (b_resp && a_null) {
                    checks.push(sid);
                }
            }
            _ => {
                let Some(inv) = stmt.invoke_expr() else {
                    continue;
                };
                // Interprocedural: passing the response to an app helper
                // whose summary proves it validity-checks that argument
                // position counts as a check at this site.
                if interproc && callee_checks_flow_arg(app, site.method, sid, inv, &flow) {
                    checks.push(sid);
                    continue;
                }
                let Some(Operand::Local(recv)) = inv.receiver() else {
                    continue;
                };
                if !flow.locals.contains(&recv) {
                    continue;
                }
                if app.api_response_check(inv).is_some() {
                    checks.push(sid);
                } else if app.program.symbols.resolve(inv.callee.name) != "<init>" {
                    uses.push(sid);
                }
            }
        }
    }

    let unchecked_uses = uses
        .iter()
        .copied()
        .filter(|&u| !checks.iter().any(|&c| ma.doms().dominates(c, u)))
        .collect();

    Some(ResponseFinding {
        response_local,
        uses,
        unchecked_uses,
    })
}

/// Does every explicit callee of the invoke at `stmt` check some
/// argument position that carries an alias of the response?
fn callee_checks_flow_arg(
    app: &AnalyzedApp<'_>,
    method: MethodId,
    stmt: StmtId,
    inv: &InvokeExpr,
    flow: &ObjectFlow,
) -> bool {
    let positions: Vec<usize> = inv
        .args
        .iter()
        .enumerate()
        .filter(|(_, op)| op.as_local().is_some_and(|l| flow.locals.contains(&l)))
        .map(|(j, _)| j)
        .collect();
    if positions.is_empty() {
        return false;
    }
    let callees: Vec<usize> = app
        .callgraph
        .callees(method)
        .iter()
        .filter(|e| e.stmt == stmt && !e.implicit)
        .map(|e| e.callee.0 as usize)
        .collect();
    if callees.is_empty() {
        return false;
    }
    let summaries = app.summaries();
    positions
        .iter()
        .any(|&j| callees.iter().all(|&c| summaries.summary(c).checks_arg(j)))
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

    const CALL: &str = "Lcom/squareup/okhttp/Call;";
    const RESP: &str = "Lcom/squareup/okhttp/Response;";
    const EXEC_SIG: &str = "()Lcom/squareup/okhttp/Response;";

    fn app_of(emit: impl FnOnce(&mut nck_dex::builder::CodeBuilder<'_>)) -> AnalyzedApp<'static> {
        let mut b = AdxBuilder::new();
        b.class("Lapp/Main;", |c| {
            c.super_class("Landroid/app/Activity;");
            c.method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                AccessFlags::PUBLIC,
                10,
                emit,
            );
        });
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        AnalyzedApp::new(manifest, program, registry())
    }

    fn emit_call(m: &mut nck_dex::builder::CodeBuilder<'_>) -> nck_dex::Reg {
        let call = m.reg(0);
        let resp = m.reg(1);
        m.new_instance(call, CALL);
        m.invoke_direct(CALL, "<init>", "()V", &[call]);
        m.invoke_virtual(CALL, "execute", EXEC_SIG, &[call]);
        m.move_result(resp);
        resp
    }

    #[test]
    fn unchecked_body_read_is_flagged() {
        let app = app_of(|m| {
            let resp = emit_call(m);
            m.invoke_virtual(RESP, "body", "()Ljava/lang/String;", &[resp]);
            m.move_result(m.reg(2));
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        assert_eq!(sites.len(), 1);
        let f = check_response(&app, &sites[0], true).unwrap();
        assert_eq!(f.uses.len(), 1);
        assert_eq!(f.unchecked_uses.len(), 1);
    }

    #[test]
    fn is_successful_guard_clears_the_use() {
        let app = app_of(|m| {
            let resp = emit_call(m);
            let ok = m.reg(2);
            let done = m.new_label();
            m.invoke_virtual(RESP, "isSuccessful", "()Z", &[resp]);
            m.move_result(ok);
            m.ifz(CondOp::Eq, ok, done);
            m.invoke_virtual(RESP, "body", "()Ljava/lang/String;", &[resp]);
            m.move_result(m.reg(3));
            m.bind(done);
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        let f = check_response(&app, &sites[0], true).unwrap();
        assert_eq!(f.uses.len(), 1);
        assert!(f.unchecked_uses.is_empty());
    }

    #[test]
    fn null_check_guard_clears_the_use() {
        let app = app_of(|m| {
            let resp = emit_call(m);
            let done = m.new_label();
            m.ifz(CondOp::Eq, resp, done); // if (resp == null) skip.
            m.invoke_virtual(RESP, "body", "()Ljava/lang/String;", &[resp]);
            m.move_result(m.reg(2));
            m.bind(done);
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        let f = check_response(&app, &sites[0], true).unwrap();
        assert!(f.unchecked_uses.is_empty());
    }

    #[test]
    fn check_that_does_not_dominate_does_not_clear() {
        // The check sits on only one of two paths to the use.
        let app = app_of(|m| {
            let resp = emit_call(m);
            let skip_check = m.new_label();
            let use_site = m.new_label();
            let flag = m.reg(4);
            m.ifz(CondOp::Ne, flag, skip_check);
            m.invoke_virtual(RESP, "isSuccessful", "()Z", &[resp]);
            m.move_result(m.reg(2));
            m.goto(use_site);
            m.bind(skip_check);
            m.nop();
            m.bind(use_site);
            m.invoke_virtual(RESP, "body", "()Ljava/lang/String;", &[resp]);
            m.move_result(m.reg(3));
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        let f = check_response(&app, &sites[0], true).unwrap();
        assert_eq!(
            f.unchecked_uses.len(),
            1,
            "non-dominating check is not a guard"
        );
    }

    #[test]
    fn discarded_response_is_not_checked() {
        let app = app_of(|m| {
            let call = m.reg(0);
            m.new_instance(call, CALL);
            m.invoke_direct(CALL, "<init>", "()V", &[call]);
            m.invoke_virtual(CALL, "execute", EXEC_SIG, &[call]);
            // Result discarded entirely.
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        assert!(check_response(&app, &sites[0], true).is_none());
    }

    #[test]
    fn volley_is_exempt() {
        let app = app_of(|m| {
            let q = m.reg(0);
            let req = m.reg(1);
            m.invoke_static(
                "Lcom/android/volley/toolbox/Volley;",
                "newRequestQueue",
                "()Lcom/android/volley/RequestQueue;",
                &[],
            );
            m.move_result(q);
            m.new_instance(req, "Lcom/android/volley/toolbox/StringRequest;");
            m.const_int(m.reg(2), 0);
            m.invoke_direct(
                "Lcom/android/volley/toolbox/StringRequest;",
                "<init>",
                "(ILjava/lang/String;)V",
                &[req, m.reg(2), m.reg(3)],
            );
            m.invoke_virtual(
                "Lcom/android/volley/RequestQueue;",
                "add",
                "(Lcom/android/volley/Request;)Lcom/android/volley/Request;",
                &[q, req],
            );
            m.move_result(m.reg(4));
            m.ret(None);
        });
        let sites = find_request_sites(&app);
        assert!(check_response(&app, &sites[0], true).is_none());
    }
}
