//! Inter-component communication (ICC) analysis — the paper's stated
//! future work (§4.7: "we plan to integrate NChecker with IccTA").
//!
//! The Table 9 false positives all stem from flows NChecker cannot see:
//! a connectivity check in one component guarding an activity started
//! through an `Intent`, and an error broadcast displayed by another
//! activity. This module models the three `Context` ICC primitives and
//! resolves explicit intent targets, letting the connectivity and
//! notification checks cross component boundaries when
//! [`CheckerConfig::icc`](crate::checker::CheckerConfig) is enabled.

use crate::context::AnalyzedApp;
use nck_dataflow::taint::{object_flow, FlowOptions};
use nck_ir::body::{MethodId, Operand, StmtId};
use nck_ir::symbols::Symbol;
use std::collections::BTreeSet;

/// The kind of an ICC send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IccKind {
    /// `Context.startActivity(Intent)`.
    StartActivity,
    /// `Context.startService(Intent)`.
    StartService,
    /// `Context.sendBroadcast(Intent)`.
    SendBroadcast,
}

impl IccKind {
    fn of(name: &str) -> Option<IccKind> {
        match name {
            "startActivity" => Some(IccKind::StartActivity),
            "startService" => Some(IccKind::StartService),
            "sendBroadcast" | "sendOrderedBroadcast" => Some(IccKind::SendBroadcast),
            _ => None,
        }
    }
}

/// One ICC send site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IccSend {
    /// Sending method.
    pub method: MethodId,
    /// The `startActivity`/... call statement.
    pub stmt: StmtId,
    /// Which primitive.
    pub kind: IccKind,
    /// The explicit intent target (component class symbol), when the
    /// intent was constructed with a class literal.
    pub target: Option<Symbol>,
}

/// Resolves the explicit target of the intent passed at `stmt`'s last
/// argument: follows the intent object back to its construction and
/// looks for a class constant handed to `<init>`, `setClass`, or
/// `setComponent`.
fn resolve_target(app: &AnalyzedApp<'_>, method: MethodId, stmt: StmtId) -> Option<Symbol> {
    let body = app.body(method);
    let inv = body.stmt(stmt).invoke_expr()?;
    let intent_local = inv.args.last()?.as_local()?;
    let flow = object_flow(
        body,
        intent_local,
        FlowOptions {
            fluent_returns: true,
            through_fields: true,
        },
    );
    let ma = app.analysis(method);
    for &call in &flow.invoked_on {
        let cinv = body.stmt(call).invoke_expr()?;
        let name = app.program.symbols.resolve(cinv.callee.name);
        if !matches!(
            name,
            "<init>" | "setClass" | "setComponent" | "setClassName"
        ) {
            continue;
        }
        // The class literal usually travels through a register: chase the
        // reaching definitions of each argument.
        for op in cinv.args.iter().skip(1) {
            match op {
                Operand::ClassConst(ty) => return Some(*ty),
                Operand::Local(l) => {
                    for def in ma.rd().reaching(call, *l) {
                        if let nck_ir::Stmt::Assign {
                            rvalue: nck_ir::Rvalue::Use(Operand::ClassConst(ty)),
                            ..
                        } = body.stmt(def)
                        {
                            return Some(*ty);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Finds every ICC send in the app.
pub fn find_icc_sends(app: &AnalyzedApp<'_>) -> Vec<IccSend> {
    let mut out = Vec::new();
    for (mid, m) in app.program.iter_methods() {
        let Some(body) = &m.body else { continue };
        for (sid, stmt) in body.iter() {
            let Some(inv) = stmt.invoke_expr() else {
                continue;
            };
            let name = app.program.symbols.resolve(inv.callee.name);
            let Some(kind) = IccKind::of(name) else {
                continue;
            };
            let target = resolve_target(app, mid, sid);
            out.push(IccSend {
                method: mid,
                stmt: sid,
                kind,
                target,
            });
        }
    }
    out
}

/// Returns the component classes whose launch is guarded by a
/// connectivity check: an ICC send with an explicit target, issued from
/// a method that invokes a connectivity API at a point that reaches the
/// send.
pub fn conn_guarded_components(
    app: &AnalyzedApp<'_>,
    sends: &[IccSend],
    conn_methods: &BTreeSet<MethodId>,
) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    for send in sends {
        let Some(target) = send.target else { continue };
        if !conn_methods.contains(&send.method) {
            continue;
        }
        // The check must be able to reach the send in the CFG.
        let body = app.body(send.method);
        let ma = app.analysis(send.method);
        let guarded = body.iter().any(|(cid, cstmt)| {
            let Some(inv) = cstmt.invoke_expr() else {
                return false;
            };
            if !app.api_is_connectivity(inv) {
                return false;
            }
            // Forward reachability from check to send.
            let mut seen = vec![false; body.len()];
            let mut stack = vec![cid];
            seen[cid.index()] = true;
            while let Some(s) = stack.pop() {
                if s == send.stmt {
                    return true;
                }
                for t in ma.cfg().succs(s, false) {
                    if !seen[t.index()] {
                        seen[t.index()] = true;
                        stack.push(t);
                    }
                }
            }
            false
        });
        if guarded {
            out.insert(target);
        }
    }
    out
}

/// Returns `true` when an ICC send is reachable from `start` within
/// `depth` call-graph hops (the error-broadcast side of the
/// notification FP idiom).
pub fn icc_send_reachable(
    app: &AnalyzedApp<'_>,
    sends: &[IccSend],
    start: MethodId,
    depth: usize,
) -> bool {
    let send_methods: BTreeSet<MethodId> = sends.iter().map(|s| s.method).collect();
    let mut seen = BTreeSet::from([start]);
    let mut queue = std::collections::VecDeque::from([(start, 0usize)]);
    while let Some((m, d)) = queue.pop_front() {
        if send_methods.contains(&m) {
            return true;
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

/// Returns `true` when some declared component shows a UI alert in one
/// of its lifecycle entry points — the "another activity displays the
/// error" half of the notification FP idiom.
pub fn some_component_displays_alert(app: &AnalyzedApp<'_>) -> bool {
    use nck_android::ui::is_alert_call;
    for entry in &app.entries {
        if entry.kind != nck_android::entrypoints::EntryKind::Lifecycle {
            continue;
        }
        let Some(body) = &app.program.method(entry.method).body else {
            continue;
        };
        for (_, stmt) in body.iter() {
            if let Some(inv) = stmt.invoke_expr() {
                let class = app.program.symbols.resolve(inv.callee.class);
                let name = app.program.symbols.resolve(inv.callee.name);
                if is_alert_call(class, name) {
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

    fn app_of(build: impl FnOnce(&mut AdxBuilder), manifest: Manifest) -> AnalyzedApp<'static> {
        let mut b = AdxBuilder::new();
        build(&mut b);
        let program = lift_file(&b.finish().unwrap()).unwrap();
        AnalyzedApp::new(manifest, program, registry(), &nck_obs::Obs::disabled())
    }

    #[test]
    fn targeted_start_activity_is_resolved() {
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Gate;", ComponentKind::Receiver);
        let app = app_of(
            |b| {
                b.class("Lapp/Gate;", |c| {
                    c.super_class("Landroid/content/BroadcastReceiver;");
                    c.method(
                        "onReceive",
                        "(Landroid/content/Context;Landroid/content/Intent;)V",
                        AccessFlags::PUBLIC,
                        8,
                        |m| {
                            let i = m.reg(0);
                            let cls = m.reg(1);
                            m.new_instance(i, "Landroid/content/Intent;");
                            m.const_class(cls, "Lapp/Main;");
                            m.invoke_direct(
                                "Landroid/content/Intent;",
                                "<init>",
                                "(Ljava/lang/Class;)V",
                                &[i, cls],
                            );
                            m.invoke_virtual(
                                "Landroid/content/Context;",
                                "startActivity",
                                "(Landroid/content/Intent;)V",
                                &[m.param(1).unwrap(), i],
                            );
                            m.ret(None);
                        },
                    );
                });
            },
            manifest,
        );
        let sends = find_icc_sends(&app);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].kind, IccKind::StartActivity);
        assert_eq!(
            sends[0]
                .target
                .map(|t| app.program.symbols.resolve(t).to_owned()),
            Some("Lapp/Main;".to_owned())
        );
    }

    #[test]
    fn untargeted_broadcast_has_no_target() {
        let app = app_of(
            |b| {
                b.class("Lapp/A;", |c| {
                    c.method("f", "()V", AccessFlags::PUBLIC, 8, |m| {
                        let i = m.reg(0);
                        m.new_instance(i, "Landroid/content/Intent;");
                        m.invoke_direct("Landroid/content/Intent;", "<init>", "()V", &[i]);
                        m.invoke_virtual(
                            "Landroid/content/Context;",
                            "sendBroadcast",
                            "(Landroid/content/Intent;)V",
                            &[m.param(0).unwrap(), i],
                        );
                        m.ret(None);
                    });
                });
            },
            Manifest::new("app"),
        );
        let sends = find_icc_sends(&app);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].kind, IccKind::SendBroadcast);
        assert!(sends[0].target.is_none());
    }

    #[test]
    fn conn_guarded_component_requires_check_before_send() {
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Gate;", ComponentKind::Receiver);
        let app = app_of(
            |b| {
                b.class("Lapp/Gate;", |c| {
                    c.super_class("Landroid/content/BroadcastReceiver;");
                    c.method(
                        "onReceive",
                        "(Landroid/content/Context;Landroid/content/Intent;)V",
                        AccessFlags::PUBLIC,
                        12,
                        |m| {
                            let cm = m.reg(0);
                            let info = m.reg(1);
                            let ok = m.reg(2);
                            let skip = m.new_label();
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
                            m.ifz(CondOp::Eq, ok, skip);
                            let i = m.reg(3);
                            let cls = m.reg(4);
                            m.new_instance(i, "Landroid/content/Intent;");
                            m.const_class(cls, "Lapp/Main;");
                            m.invoke_direct(
                                "Landroid/content/Intent;",
                                "<init>",
                                "(Ljava/lang/Class;)V",
                                &[i, cls],
                            );
                            m.invoke_virtual(
                                "Landroid/content/Context;",
                                "startActivity",
                                "(Landroid/content/Intent;)V",
                                &[m.param(1).unwrap(), i],
                            );
                            m.bind(skip);
                            m.ret(None);
                        },
                    );
                });
            },
            manifest,
        );
        let sends = find_icc_sends(&app);
        let conn = crate::checks::methods_invoking_connectivity(&app);
        let guarded = conn_guarded_components(&app, &sends, &conn);
        assert_eq!(guarded.len(), 1);
        assert_eq!(
            app.program.symbols.resolve(*guarded.iter().next().unwrap()),
            "Lapp/Main;"
        );
    }
}
