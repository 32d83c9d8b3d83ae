//! Summary-based interprocedural dataflow.
//!
//! NChecker's checks are method-local at heart, which makes them blind to
//! the helper-method idioms real apps use: a guard wrapped in
//! `isOnline()`, a timeout fetched through `getTimeout()`, a response
//! validated by `checkResp(resp)`. The paper's Soot/FlowDroid substrate
//! resolves these with interprocedural dataflow; this module is the
//! equivalent built from first principles.
//!
//! The design is the classic bottom-up summary scheme: condense the call
//! graph into strongly connected components (Tarjan), process components
//! callees-first, and compute one reusable [`MethodSummary`] per method
//! by running a flow-insensitive abstract interpretation of its body.
//! Recursive components iterate to a fixpoint; the lattice is finite and
//! all transfers are monotone, so termination needs no widening.
//!
//! A summary answers the three questions the checkers ask:
//!
//! - **constant returns** — does the method always return a known
//!   constant (`getRetryCount() { return 0; }`)? Constant folding here
//!   mirrors [`crate::constprop`] exactly (same [`CVal`] lattice, same
//!   `BinOp::eval` semantics), so a value the intraprocedural pass
//!   recovers is recovered identically through a call.
//! - **connectivity derivation** — does the return value data-derive
//!   from a connectivity *source* API, or does the method branch on one
//!   (`isOnline() { return netInfo.isConnected(); }`)? A call to such a
//!   method can then guard a request just like a direct API call.
//! - **argument checks** — which argument positions does the method
//!   null-test or pass to a recognized *check sink*
//!   (`checkResp(r) { if (r == null) ... }`)? A call forwarding a
//!   response object to such a helper counts as validating it.
//!
//! Values loaded from fields consult an app-wide field-constant map (the
//! join of every store to that field), refined over a couple of rounds so
//! `getTimeout() { return this.timeout; }` resolves when the field is
//! only ever stored a constant.
//!
//! The module is deliberately ignorant of Android and of the checker's
//! API registry: call sites are classified by a caller-supplied closure
//! into [`CallKind`]s, keeping `nck-dataflow` dependency-free.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::constprop::CVal;
use crate::solver::{solve, Analysis, Solution};
use nck_dex::CondOp;
use nck_ir::body::{Body, FieldKey, IdentityKind, InvokeExpr, Operand, Rvalue, Stmt, StmtId};
use nck_ir::cfg::Cfg;

/// What a call site means to the analysis, as decided by the caller of
/// [`Summaries::compute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// A connectivity source API (e.g. `NetworkInfo.isConnected()`):
    /// its result is connectivity-derived.
    Source,
    /// A response-validity check API (e.g. `Response.isSuccessful()`):
    /// invoking it on a value checks that value.
    CheckSink,
    /// An app-internal call resolved to these method indices.
    Callees(Vec<usize>),
    /// Anything else: unknown effect, unknown result.
    Opaque,
}

/// One method's reusable summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSummary {
    /// Join of all returned values on the constant lattice.
    pub const_return: CVal,
    /// `Some(j)` when every return is exactly a copy of argument
    /// position `j` (receiver = position 0). Callers substitute their
    /// argument value wholesale.
    pub return_ident_arg: Option<u16>,
    /// Argument positions the return value data-derives from.
    pub return_from_args: u32,
    /// The return value data-derives from a connectivity source.
    pub return_from_source: bool,
    /// The method branches on a connectivity-derived value, so its
    /// behavior (path-insensitively) reflects connectivity state.
    pub branches_on_source: bool,
    /// Argument positions the method null-tests or forwards to a check
    /// sink (directly or through further summarized callees).
    pub args_checked: u32,
}

impl MethodSummary {
    /// The optimistic starting point for fixpoint iteration.
    fn bottom() -> MethodSummary {
        MethodSummary {
            const_return: CVal::Undef,
            return_ident_arg: None,
            return_from_args: 0,
            return_from_source: false,
            branches_on_source: false,
            args_checked: 0,
        }
    }

    /// The summary of a method we cannot see into (no body).
    fn opaque() -> MethodSummary {
        MethodSummary {
            const_return: CVal::NonConst,
            ..MethodSummary::bottom()
        }
    }

    /// A call to this method observes connectivity state — either the
    /// return value derives from a source or the method branches on one.
    /// This is what makes `if (isOnline())` a recognized guard.
    pub fn returns_connectivity(&self) -> bool {
        self.return_from_source || self.branches_on_source
    }

    /// The method checks argument position `j`.
    pub fn checks_arg(&self, j: usize) -> bool {
        j < 32 && self.args_checked & (1 << j) != 0
    }
}

/// One method as seen by the engine.
#[derive(Clone, Copy)]
pub struct MethodInput<'a> {
    /// The lifted body, or `None` for abstract/native methods.
    pub body: Option<&'a Body>,
    /// Whether the method is static (shifts `Param(i)` to argument
    /// position `i` instead of `i + 1`).
    pub is_static: bool,
}

/// Aggregate statistics about one summary computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SummaryStats {
    /// Methods with bodies that were summarized.
    pub methods: usize,
    /// Strongly connected components in the call graph.
    pub sccs: usize,
    /// Size of the largest (recursive) component.
    pub largest_scc: usize,
    /// Methods whose return folded to a known constant value.
    pub const_returns: usize,
    /// Fields whose app-wide stored value is a known constant.
    pub field_consts: usize,
}

/// The computed summaries for one app, cached and queried by checkers.
#[derive(Debug)]
pub struct Summaries {
    summaries: Vec<MethodSummary>,
    field_consts: BTreeMap<FieldKey, CVal>,
    stats: SummaryStats,
    hits: AtomicUsize,
}

/// An empty summary seed. Exists only for nckbench's traced twin.
#[derive(Debug, Clone, Default)]
pub struct SummarySeed {}

/// The abstract value of one local: a constant-lattice value plus
/// provenance (which argument positions and whether a connectivity
/// source flow into it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AVal {
    cval: CVal,
    /// `Some(j)` when the value is exactly argument position `j`.
    ident: Option<u16>,
    /// Argument positions the value data-derives from (bit `j` =
    /// position `j`; positions ≥ 32 saturate out of the mask).
    args: u32,
    /// Data-derives from a connectivity source result.
    source: bool,
}

const BOTTOM: AVal = AVal {
    cval: CVal::Undef,
    ident: None,
    args: 0,
    source: false,
};

const OPAQUE: AVal = AVal {
    cval: CVal::NonConst,
    ident: None,
    args: 0,
    source: false,
};

impl AVal {
    fn join(self, other: AVal) -> AVal {
        if self == BOTTOM {
            return other;
        }
        if other == BOTTOM {
            return self;
        }
        AVal {
            cval: self.cval.join(other.cval),
            ident: if self.ident == other.ident {
                self.ident
            } else {
                None
            },
            args: self.args | other.args,
            source: self.source || other.source,
        }
    }

    fn constant(cval: CVal) -> AVal {
        AVal { cval, ..BOTTOM }
    }
}

fn arg_bit(pos: u16) -> u32 {
    if pos < 32 {
        1 << pos
    } else {
        0
    }
}

fn eval(env: &[AVal], op: Operand) -> AVal {
    match op {
        Operand::Local(l) => env.get(l.0 as usize).copied().unwrap_or(OPAQUE),
        Operand::IntConst(v) => AVal::constant(CVal::Int(v)),
        Operand::StrConst(s) => AVal::constant(CVal::Str(s)),
        Operand::Null => AVal::constant(CVal::Null),
        Operand::ClassConst(_) => OPAQUE,
    }
}

/// Safety cap on fixpoint rounds; the lattice is finite so these are
/// never hit in practice, but a bound keeps pathological inputs cheap.
const MAX_SCC_ITERS: usize = 64;
const MAX_FIELD_ROUNDS: usize = 4;

impl Summaries {
    /// Computes summaries for all `methods`, classifying each call site
    /// via `classify` (called once per site, up front) and reusing the
    /// caller's CFGs (`cfgs[i]` for `methods[i]`). Every method is
    /// solved from the bottom.
    ///
    /// `obs` receives a `scc_fixpoint` span per recursive (size > 1)
    /// component, an SCC size histogram (`summary.scc_size`), fixpoint
    /// iteration and per-method solve counters (`summary.fixpoint_iters`,
    /// `summary.method_passes`), field refinement rounds
    /// (`summary.field_rounds`), and the final [`SummaryStats`] as
    /// `summary.*` counters.
    pub fn compute<F>(
        methods: &[MethodInput<'_>],
        cfgs: &[Option<&Cfg>],
        mut classify: F,
        obs: &nck_obs::Obs,
    ) -> Summaries
    where
        F: FnMut(usize, StmtId, &InvokeExpr) -> CallKind,
    {
        let n = methods.len();
        assert_eq!(cfgs.len(), n, "one CFG slot per method");

        // Resolve every call site once.
        let mut kinds: Vec<BTreeMap<StmtId, CallKind>> = vec![BTreeMap::new(); n];
        for (m, input) in methods.iter().enumerate() {
            if let Some(body) = input.body {
                for (id, stmt) in body.iter() {
                    if let Some(inv) = stmt.invoke_expr() {
                        kinds[m].insert(id, classify(m, id, inv));
                    }
                }
            }
        }

        // App-internal call edges for the condensation.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (m, sites) in kinds.iter().enumerate() {
            for kind in sites.values() {
                if let CallKind::Callees(cs) = kind {
                    succs[m].extend(cs.iter().copied().filter(|&c| c < n));
                }
            }
            succs[m].sort_unstable();
            succs[m].dedup();
        }

        // Tarjan emits components callees-first: exactly bottom-up order.
        let components = tarjan_sccs(n, &succs);
        if obs.metrics.is_enabled() {
            for comp in &components {
                obs.metrics.observe("summary.scc_size", comp.len() as u64);
            }
        }
        // Fixpoint effort counters, written once at the end.
        let fixpoint_iters = std::cell::Cell::new(0u64);
        let method_passes = std::cell::Cell::new(0u64);

        // Reverse edges and self-loops drive the recompute: a changed
        // summary only dirties its callers, and a singleton
        // component without a self-call needs exactly one pass.
        let self_loop: Vec<bool> = (0..n).map(|m| succs[m].binary_search(&m).is_ok()).collect();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (m, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(m);
            }
        }

        // Which fields each method loads (field-round dirtying).
        let field_loads: Vec<Vec<FieldKey>> = methods
            .iter()
            .map(|input| {
                let mut loads = Vec::new();
                if let Some(body) = input.body {
                    for (_, stmt) in body.iter() {
                        if let Stmt::Assign {
                            rvalue:
                                Rvalue::InstanceField { field, .. } | Rvalue::StaticField { field },
                            ..
                        } = stmt
                        {
                            loads.push(*field);
                        }
                    }
                }
                loads.sort_unstable();
                loads.dedup();
                loads
            })
            .collect();

        let mut summaries: Vec<MethodSummary> = methods
            .iter()
            .map(|m| {
                if m.body.is_some() {
                    MethodSummary::bottom()
                } else {
                    MethodSummary::opaque()
                }
            })
            .collect();
        let mut contribs: Vec<BTreeMap<FieldKey, CVal>> = vec![BTreeMap::new(); n];
        let mut dirty: BTreeSet<usize> = (0..n).collect();
        let mut field_consts: BTreeMap<FieldKey, CVal> = BTreeMap::new();

        // Recomputes the methods in `dirty`, components bottom-up in
        // Tarjan order; a summary change dirties the method's callers,
        // which always come later (or sit in the same recursive
        // component).
        let recompute = |summaries: &mut Vec<MethodSummary>,
                         contribs: &mut Vec<BTreeMap<FieldKey, CVal>>,
                         field_consts: &BTreeMap<FieldKey, CVal>,
                         dirty: &mut BTreeSet<usize>| {
            for comp in &components {
                if !comp.iter().any(|m| dirty.contains(m)) {
                    continue;
                }
                let span = (comp.len() > 1).then(|| obs.tracer.span("scc_fixpoint"));
                if let Some(s) = &span {
                    s.add_items(comp.len() as u64);
                }
                // A non-recursive singleton never reads its own entry, so
                // one pass suffices; members of a recursive component
                // read each other's working summaries until none moves.
                let recursive = comp.len() > 1 || self_loop[comp[0]];
                for _ in 0..if recursive { MAX_SCC_ITERS } else { 1 } {
                    fixpoint_iters.set(fixpoint_iters.get() + 1);
                    let mut changed = false;
                    for &m in comp {
                        let Some(body) = methods[m].body else {
                            continue;
                        };
                        method_passes.set(method_passes.get() + 1);
                        let analysis = IpAnalysis {
                            n_locals: body.locals.len(),
                            is_static: methods[m].is_static,
                            kinds: &kinds[m],
                            summaries,
                            field_consts,
                        };
                        let sol = solve(body, cfgs[m].expect("cfg exists for body"), &analysis);
                        let s = summarize(body, &sol, &kinds[m], summaries);
                        contribs[m] = field_contrib(body, &sol);
                        if s != summaries[m] {
                            changed = true;
                            summaries[m] = s;
                            dirty.extend(preds[m].iter().copied());
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
        };

        // Field-constant refinement: summaries and the field map feed
        // each other, so alternate until the map is stable (2 rounds in
        // practice: one to see the stores, one to use them). Later
        // rounds only revisit methods that load a changed field, plus
        // the transitive callers of anything that shifted.
        let mut stable = false;
        let mut field_rounds = 0u64;
        for _ in 0..MAX_FIELD_ROUNDS {
            field_rounds += 1;
            let _round = obs.tracer.span("field_round");
            recompute(&mut summaries, &mut contribs, &field_consts, &mut dirty);
            let next = merge_contribs(&contribs);
            if next == field_consts {
                stable = true;
                break;
            }
            dirty = (0..n)
                .filter(|&m| {
                    field_loads[m].iter().any(|f| {
                        next.get(f).copied().unwrap_or(CVal::Undef)
                            != field_consts.get(f).copied().unwrap_or(CVal::Undef)
                    })
                })
                .collect();
            field_consts = next;
        }
        if !stable {
            field_rounds += 1;
            let _round = obs.tracer.span("field_round");
            let mut all: BTreeSet<usize> = (0..n).collect();
            recompute(&mut summaries, &mut contribs, &field_consts, &mut all);
        }

        let stats = SummaryStats {
            methods: methods.iter().filter(|i| i.body.is_some()).count(),
            sccs: components.len(),
            largest_scc: components.iter().map(Vec::len).max().unwrap_or(0),
            const_returns: summaries
                .iter()
                .zip(methods)
                .filter(|(s, i)| {
                    i.body.is_some()
                        && matches!(s.const_return, CVal::Int(_) | CVal::Str(_) | CVal::Null)
                })
                .count(),
            field_consts: field_consts
                .values()
                .filter(|v| matches!(v, CVal::Int(_) | CVal::Str(_) | CVal::Null))
                .count(),
        };

        if obs.metrics.is_enabled() {
            obs.metrics.inc("summary.methods", stats.methods as u64);
            obs.metrics.inc("summary.sccs", stats.sccs as u64);
            obs.metrics
                .gauge("summary.largest_scc", stats.largest_scc as i64);
            obs.metrics
                .inc("summary.const_returns", stats.const_returns as u64);
            obs.metrics
                .inc("summary.field_consts", stats.field_consts as u64);
            obs.metrics
                .inc("summary.fixpoint_iters", fixpoint_iters.get());
            obs.metrics
                .inc("summary.method_passes", method_passes.get());
            obs.metrics.inc("summary.field_rounds", field_rounds);
        }

        Summaries {
            summaries,
            field_consts,
            stats,
            hits: AtomicUsize::new(0),
        }
    }

    /// Number of methods covered (dense-index space).
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// Whether the app had no methods at all.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// The summary for method index `m`. Counts as a cache hit.
    pub fn summary(&self, m: usize) -> &MethodSummary {
        self.hits.fetch_add(1, Ordering::Relaxed);
        &self.summaries[m]
    }

    /// The app-wide constant value of `field` (the join of every store
    /// to it), or `NonConst` if unknown. Counts as a cache hit.
    pub fn field_const(&self, field: &FieldKey) -> CVal {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.field_consts
            .get(field)
            .copied()
            .unwrap_or(CVal::NonConst)
    }

    /// Statistics from the computation.
    pub fn stats(&self) -> SummaryStats {
        self.stats
    }

    /// Number of summary/field lookups served so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

/// The per-method abstract interpretation, run flow-sensitively through
/// the shared worklist [`solve`]r (same shape as `constprop`, with
/// strong updates at each definition so register reuse doesn't smear
/// values together). Reads the current callee summaries and field map;
/// the enclosing SCC loop re-runs it until summaries stabilize.
struct IpAnalysis<'x> {
    n_locals: usize,
    is_static: bool,
    kinds: &'x BTreeMap<StmtId, CallKind>,
    summaries: &'x [MethodSummary],
    field_consts: &'x BTreeMap<FieldKey, CVal>,
}

impl Analysis for IpAnalysis<'_> {
    type Fact = Vec<AVal>;

    fn bottom(&self) -> Vec<AVal> {
        vec![BOTTOM; self.n_locals]
    }

    fn join(&self, fact: &mut Vec<AVal>, other: &Vec<AVal>) -> bool {
        let mut changed = false;
        for (a, &b) in fact.iter_mut().zip(other) {
            let new = a.join(b);
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    fn transfer(&self, id: StmtId, stmt: &Stmt, fact: &mut Vec<AVal>) {
        let this_offset: u16 = if self.is_static { 0 } else { 1 };
        let (local, val) = match stmt {
            Stmt::Identity { local, kind } => {
                let val = match kind {
                    IdentityKind::This if !self.is_static => AVal {
                        cval: CVal::NonConst,
                        ident: Some(0),
                        args: arg_bit(0),
                        source: false,
                    },
                    IdentityKind::Param(i) => {
                        let pos = i.saturating_add(this_offset);
                        AVal {
                            cval: CVal::NonConst,
                            ident: Some(pos),
                            args: arg_bit(pos),
                            source: false,
                        }
                    }
                    _ => OPAQUE,
                };
                (*local, val)
            }
            Stmt::Assign { local, rvalue } => {
                let val = match rvalue {
                    Rvalue::Use(op) => eval(fact, *op),
                    Rvalue::BinOp { op, a, b } => {
                        let va = eval(fact, *a);
                        let vb = eval(fact, *b);
                        let cval = match (va.cval, vb.cval) {
                            (CVal::Int(x), CVal::Int(y)) => {
                                op.eval(x, y).map(CVal::Int).unwrap_or(CVal::NonConst)
                            }
                            _ => CVal::NonConst,
                        };
                        AVal {
                            cval,
                            ident: None,
                            args: va.args | vb.args,
                            source: va.source || vb.source,
                        }
                    }
                    Rvalue::UnOp { op, a } => {
                        let va = eval(fact, *a);
                        let cval = match va.cval {
                            CVal::Int(x) => CVal::Int(match op {
                                nck_dex::UnOp::Neg => x.wrapping_neg(),
                                nck_dex::UnOp::Not => !x,
                            }),
                            _ => CVal::NonConst,
                        };
                        AVal {
                            cval,
                            ident: None,
                            args: va.args,
                            source: va.source,
                        }
                    }
                    Rvalue::Cast { op, .. } => eval(fact, *op),
                    Rvalue::InstanceField { field, .. } | Rvalue::StaticField { field } => {
                        AVal::constant(
                            self.field_consts
                                .get(field)
                                .copied()
                                .unwrap_or(CVal::NonConst),
                        )
                    }
                    Rvalue::Invoke(inv) => {
                        invoke_result(self.kinds.get(&id), inv, fact, self.summaries)
                    }
                    _ => OPAQUE,
                };
                (*local, val)
            }
            _ => return,
        };
        if let Some(slot) = fact.get_mut(local.0 as usize) {
            *slot = val;
        }
    }
}

/// The abstract result of a call, substituting caller arguments into the
/// callee summary.
fn invoke_result(
    kind: Option<&CallKind>,
    inv: &InvokeExpr,
    env: &[AVal],
    summaries: &[MethodSummary],
) -> AVal {
    match kind {
        Some(CallKind::Source) => AVal {
            source: true,
            ..OPAQUE
        },
        Some(CallKind::Callees(cs)) if !cs.is_empty() => {
            let mut out = BOTTOM;
            for &c in cs {
                let Some(s) = summaries.get(c) else {
                    return OPAQUE;
                };
                let mut r = AVal {
                    cval: s.const_return,
                    ident: None,
                    args: 0,
                    source: s.return_from_source,
                };
                if let Some(k) = s.return_ident_arg {
                    // The callee returns argument `k` verbatim: the
                    // result is exactly our value for that argument.
                    if let Some(&arg) = inv.args.get(k as usize) {
                        let a = eval(env, arg);
                        r = AVal {
                            source: r.source || a.source,
                            ..a
                        };
                    }
                } else {
                    for j in 0..inv.args.len().min(32) {
                        if s.return_from_args & (1 << j) != 0 {
                            let a = eval(env, inv.args[j]);
                            r.args |= a.args;
                            r.source |= a.source;
                        }
                    }
                }
                out = out.join(r);
            }
            out
        }
        _ => OPAQUE,
    }
}

/// Derives the summary of one method from its flow-sensitive solution.
fn summarize(
    body: &Body,
    sol: &Solution<Vec<AVal>>,
    kinds: &BTreeMap<StmtId, CallKind>,
    summaries: &[MethodSummary],
) -> MethodSummary {
    let mut ret = BOTTOM;
    let mut branches_on_source = false;
    let mut args_checked = 0u32;

    for (id, stmt) in body.iter() {
        let env: &[AVal] = sol.before(id);
        match stmt {
            Stmt::Return { value: Some(op) } => ret = ret.join(eval(env, *op)),
            Stmt::If { cond, a, b, .. } => {
                let va = eval(env, *a);
                let vb = eval(env, *b);
                if va.source || vb.source {
                    branches_on_source = true;
                }
                // `p == null` / `p != null` / `p ==/!= 0` style tests
                // count as checking argument position p.
                if matches!(cond, CondOp::Eq | CondOp::Ne) {
                    for (x, y) in [(va, vb), (vb, va)] {
                        if let Some(p) = x.ident {
                            if matches!(y.cval, CVal::Null | CVal::Int(0)) {
                                args_checked |= arg_bit(p);
                            }
                        }
                    }
                }
            }
            Stmt::Switch { key, .. } if eval(env, *key).source => {
                branches_on_source = true;
            }
            _ => {}
        }
        if let Some(inv) = stmt.invoke_expr() {
            match kinds.get(&id) {
                Some(CallKind::CheckSink) => {
                    if let Some(recv) = inv.receiver() {
                        if let Some(p) = eval(env, recv).ident {
                            args_checked |= arg_bit(p);
                        }
                    }
                }
                Some(CallKind::Callees(cs)) if !cs.is_empty() => {
                    // Forwarding our argument to a position every callee
                    // checks means we check it too.
                    for (j, &arg) in inv.args.iter().enumerate().take(32) {
                        if let Some(p) = eval(env, arg).ident {
                            if cs
                                .iter()
                                .all(|&c| summaries.get(c).is_some_and(|s| s.checks_arg(j)))
                            {
                                args_checked |= arg_bit(p);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    MethodSummary {
        const_return: ret.cval,
        return_ident_arg: ret.ident,
        return_from_args: ret.args,
        return_from_source: ret.source,
        branches_on_source,
        args_checked,
    }
}

/// Joins every store this one method makes to each field: its reusable
/// contribution to the app-wide field-constant map. The field lattice
/// join is associative and commutative, so merging per-method
/// contributions reproduces the global fold exactly — and a method whose
/// body did not change keeps its cached contribution verbatim.
fn field_contrib(body: &Body, sol: &Solution<Vec<AVal>>) -> BTreeMap<FieldKey, CVal> {
    let mut map: BTreeMap<FieldKey, CVal> = BTreeMap::new();
    for (id, stmt) in body.iter() {
        let (field, value) = match stmt {
            Stmt::StoreInstanceField { field, value, .. } => (field, value),
            Stmt::StoreStaticField { field, value } => (field, value),
            _ => continue,
        };
        let v = eval(sol.before(id), *value).cval;
        map.entry(*field)
            .and_modify(|e| *e = e.join(v))
            .or_insert(v);
    }
    map
}

/// Merges per-method field contributions into the app-wide constant map.
fn merge_contribs(contribs: &[BTreeMap<FieldKey, CVal>]) -> BTreeMap<FieldKey, CVal> {
    let mut map: BTreeMap<FieldKey, CVal> = BTreeMap::new();
    for contrib in contribs {
        for (&field, &v) in contrib {
            map.entry(field).and_modify(|e| *e = e.join(v)).or_insert(v);
        }
    }
    map
}

/// Iterative Tarjan SCC. Components are emitted callees-first (reverse
/// topological order of the condensation), which is exactly the order a
/// bottom-up summary computation wants. Public because the callgraph's
/// multi-source reachability sweep condenses on the same routine.
pub fn tarjan_sccs(n: usize, succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, pi)) = frames.last() {
            if pi == 0 && index[v] == UNVISITED {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let mut pushed = false;
            let mut i = pi;
            while i < succs[v].len() {
                let w = succs[v][i];
                i += 1;
                if index[w] == UNVISITED {
                    frames.last_mut().expect("frame present").1 = i;
                    frames.push((w, 0));
                    pushed = true;
                    break;
                }
                if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if pushed {
                continue;
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comp.sort_unstable();
                components.push(comp);
            }
            frames.pop();
            if let Some(&(u, _)) = frames.last() {
                low[u] = low[u].min(low[v]);
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::{AccessFlags, BinOp, CondOp as Op};
    use nck_ir::body::Program;

    const CONN: &str = "Lnet/Conn;";
    const SINK: &str = "Lresp/R;";

    fn lift(b: AdxBuilder) -> Program {
        nck_ir::lift_file(&b.finish().unwrap()).unwrap()
    }

    fn compute(p: &Program) -> Summaries {
        let inputs: Vec<MethodInput<'_>> = p
            .methods
            .iter()
            .map(|m| MethodInput {
                body: m.body.as_deref(),
                is_static: m.flags.contains(AccessFlags::STATIC),
            })
            .collect();
        let owned: Vec<Option<Cfg>> = inputs.iter().map(|i| i.body.map(Cfg::build)).collect();
        let cfgs: Vec<Option<&Cfg>> = owned.iter().map(Option::as_ref).collect();
        Summaries::compute(
            &inputs,
            &cfgs,
            |_, _, inv| {
                let class = p.symbols.resolve(inv.callee.class);
                if class == CONN {
                    CallKind::Source
                } else if class == SINK {
                    CallKind::CheckSink
                } else if let Some(id) = p.lookup_method(inv.callee) {
                    CallKind::Callees(vec![id.0 as usize])
                } else {
                    CallKind::Opaque
                }
            },
            &nck_obs::Obs::disabled(),
        )
    }

    fn idx(p: &Program, class: &str, name: &str) -> usize {
        p.iter_methods()
            .find(|(_, m)| {
                p.symbols.resolve(m.key.class) == class && p.symbols.resolve(m.key.name) == name
            })
            .map(|(id, _)| id.0 as usize)
            .unwrap()
    }

    #[test]
    fn constant_returns_fold_through_call_chains() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.method(
                "base",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.const_int(m.reg(0), 7);
                    m.ret(Some(m.reg(0)));
                },
            );
            c.method(
                "mid",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                2,
                |m| {
                    m.invoke_static("Lapp/A;", "base", "()I", &[]);
                    m.move_result(m.reg(0));
                    m.const_int(m.reg(1), 1);
                    m.binop(BinOp::Add, m.reg(0), m.reg(0), m.reg(1));
                    m.ret(Some(m.reg(0)));
                },
            );
            c.method(
                "top",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                2,
                |m| {
                    m.invoke_static("Lapp/A;", "mid", "()I", &[]);
                    m.move_result(m.reg(0));
                    m.binop_lit(BinOp::Mul, m.reg(0), m.reg(0), 2);
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        let p = lift(b);
        let s = compute(&p);
        assert_eq!(
            s.summary(idx(&p, "Lapp/A;", "base")).const_return,
            CVal::Int(7)
        );
        assert_eq!(
            s.summary(idx(&p, "Lapp/A;", "mid")).const_return,
            CVal::Int(8)
        );
        assert_eq!(
            s.summary(idx(&p, "Lapp/A;", "top")).const_return,
            CVal::Int(16)
        );
        assert_eq!(s.stats().const_returns, 3);
        assert!(s.hits() >= 3);
    }

    #[test]
    fn mutual_recursion_reaches_a_fixpoint() {
        // f() { return cond ? 3 : g(); }  g() { return f(); } — both
        // only ever return 3, and they form one SCC of size 2.
        let mut b = AdxBuilder::new();
        b.class("Lapp/R;", |c| {
            c.method(
                "f",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                2,
                |m| {
                    let other = m.new_label();
                    m.const_int(m.reg(0), 3);
                    m.ifz(Op::Eq, m.reg(0), other);
                    m.ret(Some(m.reg(0)));
                    m.bind(other);
                    m.invoke_static("Lapp/R;", "g", "()I", &[]);
                    m.move_result(m.reg(1));
                    m.ret(Some(m.reg(1)));
                },
            );
            c.method(
                "g",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.invoke_static("Lapp/R;", "f", "()I", &[]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        let p = lift(b);
        let s = compute(&p);
        assert_eq!(
            s.summary(idx(&p, "Lapp/R;", "f")).const_return,
            CVal::Int(3)
        );
        assert_eq!(
            s.summary(idx(&p, "Lapp/R;", "g")).const_return,
            CVal::Int(3)
        );
        assert_eq!(s.stats().largest_scc, 2);
    }

    #[test]
    fn guard_wrappers_derive_connectivity() {
        // isOnline() { return Conn.up(); } — a classic guard wrapper;
        // use() branches on its result without returning it.
        let mut b = AdxBuilder::new();
        b.class("Lapp/G;", |c| {
            c.method(
                "isOnline",
                "()Z",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.invoke_static(CONN, "up", "()Z", &[]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                },
            );
            c.method(
                "use",
                "()V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    let out = m.new_label();
                    m.invoke_static("Lapp/G;", "isOnline", "()Z", &[]);
                    m.move_result(m.reg(0));
                    m.ifz(Op::Eq, m.reg(0), out);
                    m.bind(out);
                    m.ret(None);
                },
            );
        });
        let p = lift(b);
        let s = compute(&p);
        let wrapper = s.summary(idx(&p, "Lapp/G;", "isOnline"));
        assert!(wrapper.return_from_source);
        assert!(wrapper.returns_connectivity());
        let user = s.summary(idx(&p, "Lapp/G;", "use"));
        assert!(user.branches_on_source);
        assert!(!user.return_from_source);
    }

    #[test]
    fn identity_passthrough_substitutes_caller_arguments() {
        // id(x) { return x; }  caller() { return id(5); }
        let mut b = AdxBuilder::new();
        b.class("Lapp/P;", |c| {
            c.method(
                "id",
                "(I)I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    let p0 = m.param(0).unwrap();
                    m.ret(Some(p0));
                },
            );
            c.method(
                "caller",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.const_int(m.reg(0), 5);
                    m.invoke_static("Lapp/P;", "id", "(I)I", &[m.reg(0)]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        let p = lift(b);
        let s = compute(&p);
        assert_eq!(
            s.summary(idx(&p, "Lapp/P;", "id")).return_ident_arg,
            Some(0)
        );
        assert_eq!(
            s.summary(idx(&p, "Lapp/P;", "caller")).const_return,
            CVal::Int(5)
        );
    }

    #[test]
    fn argument_checks_propagate_through_forwarders() {
        // check(r) { if (r == null) return 0; return 1; } null-tests
        // param 0; forward(r) { return check(r); } inherits the check;
        // sink(r) { r.ok(); } checks via the recognized check API.
        let mut b = AdxBuilder::new();
        b.class("Lapp/C;", |c| {
            c.method(
                "check",
                "(Lresp/R;)I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    let isnull = m.new_label();
                    let p0 = m.param(0).unwrap();
                    m.ifz(Op::Eq, p0, isnull);
                    m.const_int(m.reg(0), 1);
                    m.ret(Some(m.reg(0)));
                    m.bind(isnull);
                    m.const_int(m.reg(0), 0);
                    m.ret(Some(m.reg(0)));
                },
            );
            c.method(
                "forward",
                "(Lresp/R;)I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                2,
                |m| {
                    let p0 = m.param(0).unwrap();
                    m.invoke_static("Lapp/C;", "check", "(Lresp/R;)I", &[p0]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                },
            );
            c.method(
                "sink",
                "(Lresp/R;)V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    let p0 = m.param(0).unwrap();
                    m.invoke_virtual(SINK, "ok", "()Z", &[p0]);
                    m.ret(None);
                },
            );
        });
        let p = lift(b);
        let s = compute(&p);
        assert!(s.summary(idx(&p, "Lapp/C;", "check")).checks_arg(0));
        assert!(s.summary(idx(&p, "Lapp/C;", "forward")).checks_arg(0));
        assert!(s.summary(idx(&p, "Lapp/C;", "sink")).checks_arg(0));
    }

    #[test]
    fn instance_helpers_shift_params_past_the_receiver() {
        // Instance helper: argument position 0 is the receiver, the
        // checked response is position 1.
        let mut b = AdxBuilder::new();
        b.class("Lapp/I;", |c| {
            c.method("check", "(Lresp/R;)Z", AccessFlags::PUBLIC, 2, |m| {
                let isnull = m.new_label();
                let p1 = m.param(1).unwrap();
                m.ifz(Op::Eq, p1, isnull);
                m.const_int(m.reg(0), 1);
                m.ret(Some(m.reg(0)));
                m.bind(isnull);
                m.const_int(m.reg(0), 0);
                m.ret(Some(m.reg(0)));
            });
        });
        let p = lift(b);
        let s = compute(&p);
        let sum = s.summary(idx(&p, "Lapp/I;", "check"));
        assert!(sum.checks_arg(1));
        assert!(!sum.checks_arg(0));
    }

    #[test]
    fn field_constants_resolve_getter_returns() {
        // <init> stores 42 into this.t once; getT() { return this.t; }
        // resolves through the app-wide field-constant map (round 2).
        let mut b = AdxBuilder::new();
        b.class("Lapp/F;", |c| {
            c.method("<init>", "()V", AccessFlags::PUBLIC, 2, |m| {
                let this = m.param(0).unwrap();
                m.const_int(m.reg(0), 42);
                m.iput(m.reg(0), this, "Lapp/F;", "t", "I");
                m.ret(None);
            });
            c.method("getT", "()I", AccessFlags::PUBLIC, 2, |m| {
                let this = m.param(0).unwrap();
                m.iget(m.reg(0), this, "Lapp/F;", "t", "I");
                m.ret(Some(m.reg(0)));
            });
        });
        let p = lift(b);
        let s = compute(&p);
        assert_eq!(
            s.summary(idx(&p, "Lapp/F;", "getT")).const_return,
            CVal::Int(42)
        );
        assert_eq!(s.stats().field_consts, 1);
    }

    #[test]
    fn conflicting_field_stores_stay_nonconst() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/F2;", |c| {
            c.method(
                "a",
                "()V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.const_int(m.reg(0), 1);
                    m.sput(m.reg(0), "Lapp/F2;", "t", "I");
                    m.ret(None);
                },
            );
            c.method(
                "b",
                "()V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.const_int(m.reg(0), 2);
                    m.sput(m.reg(0), "Lapp/F2;", "t", "I");
                    m.ret(None);
                },
            );
            c.method(
                "get",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.sget(m.reg(0), "Lapp/F2;", "t", "I");
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        let p = lift(b);
        let s = compute(&p);
        assert_eq!(
            s.summary(idx(&p, "Lapp/F2;", "get")).const_return,
            CVal::NonConst
        );
        assert_eq!(s.stats().field_consts, 0);
    }

    #[test]
    fn bodiless_methods_are_opaque() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/O;", |c| {
            c.method(
                "f",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.const_int(m.reg(0), 9);
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        let mut p = lift(b);
        // Simulate an abstract sibling by erasing the body.
        let id = idx(&p, "Lapp/O;", "f");
        p.methods[id].body = None;
        let s = compute(&p);
        assert_eq!(s.summary(id).const_return, CVal::NonConst);
        assert!(!s.summary(id).returns_connectivity());
    }

    #[test]
    fn deep_wrapper_chains_keep_connectivity() {
        // w5 -> w4 -> w3 -> w2 -> w1 -> Conn.up(), all passing the
        // result straight through.
        let mut b = AdxBuilder::new();
        b.class("Lapp/D;", |c| {
            c.method(
                "w1",
                "()Z",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.invoke_static(CONN, "up", "()Z", &[]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                },
            );
            for d in 2..=5 {
                let name = format!("w{d}");
                let inner = format!("w{}", d - 1);
                c.method(
                    &name,
                    "()Z",
                    AccessFlags::PUBLIC | AccessFlags::STATIC,
                    1,
                    |m| {
                        m.invoke_static("Lapp/D;", &inner, "()Z", &[]);
                        m.move_result(m.reg(0));
                        m.ret(Some(m.reg(0)));
                    },
                );
            }
        });
        let p = lift(b);
        let s = compute(&p);
        for d in 1..=5 {
            let sum = s.summary(idx(&p, "Lapp/D;", &format!("w{d}")));
            assert!(sum.return_from_source, "w{d} must derive from the source");
        }
    }

    #[test]
    fn unresolved_calls_are_opaque_results() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/U;", |c| {
            c.method(
                "f",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.invoke_static("Llib/Unknown;", "g", "()I", &[]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        let p = lift(b);
        let s = compute(&p);
        let sum = s.summary(idx(&p, "Lapp/U;", "f"));
        assert_eq!(sum.const_return, CVal::NonConst);
        assert!(!sum.return_from_source);
    }
}
