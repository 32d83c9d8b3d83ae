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
use crate::solver::{solve, Analysis, Direction, Solution};
use nck_dex::CondOp;
use nck_ir::body::{Body, FieldKey, IdentityKind, InvokeExpr, Operand, Rvalue, Stmt, StmtId};
use nck_ir::cfg::Cfg;

/// What a call site means to the analysis, as decided by the caller of
/// [`Summaries::compute_incremental`].
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
    /// The method transitively invokes a connectivity source.
    pub calls_source: bool,
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
            calls_source: false,
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

/// A reusable snapshot of the engine's state after the *first* fixpoint
/// round (before field-constant refinement), indexed by dense method
/// index.
///
/// Seeding a later run with this snapshot lets the engine skip every
/// method whose body, callee resolution, and transitive callee cone are
/// unchanged: their round-0 summaries and field-store contributions are
/// taken verbatim, and only the dirty set (plus its transitive callers,
/// via the existing dirty-set recompute) is re-solved. The snapshot is
/// taken at round 0 — not after field refinement — so the seeded run
/// replays the exact same refinement trajectory as a cold run and
/// converges to byte-identical summaries.
#[derive(Debug, Clone, Default)]
pub struct SummarySeed {
    /// Post-round-0 summary per method.
    pub round0_summaries: Vec<MethodSummary>,
    /// Post-round-0 field-store contribution per method: the join of the
    /// values this method stores to each field.
    pub round0_contribs: Vec<BTreeMap<FieldKey, CVal>>,
}

impl SummarySeed {
    /// Number of methods covered by the snapshot.
    pub fn len(&self) -> usize {
        self.round0_summaries.len()
    }

    /// Whether the snapshot covers no methods.
    pub fn is_empty(&self) -> bool {
        self.round0_summaries.is_empty()
    }
}

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

/// Minimum independent components and total statements in one
/// condensation level before the fixpoint fans out to worker threads;
/// below this, thread spawn overhead dwarfs the solve cost (typical
/// corpus apps stay sequential, big real-world apps fan out).
const PAR_MIN_COMPS: usize = 4;
const PAR_MIN_STMTS: usize = 4096;

/// Worker threads for the per-level parallel fixpoint: capped low since
/// this nests inside the per-app service pool.
fn par_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

impl Summaries {
    /// Computes summaries for all `methods`, classifying each call site
    /// via `classify` (called once per site, up front) and reusing the
    /// caller's CFGs (`cfgs[i]` for `methods[i]`). The one engine behind
    /// both cold and warm computation.
    ///
    /// With `seed = None` every method is solved from the bottom — this
    /// *is* the cold path, so the two can never diverge. With
    /// `seed = Some((snapshot, dirty))`, methods outside `dirty` start
    /// from their cached round-0 summaries and contributions; dirty
    /// methods (changed bodies, changed callee resolution, or indices
    /// beyond the snapshot) are re-solved, and any summary movement
    /// dirties their callers through the component walk exactly as in a
    /// cold run. Recursive components touching the dirty set are reset
    /// wholesale to the bottom so their fixpoint iterates from the same
    /// starting point a cold run uses.
    ///
    /// `obs` receives a `scc_fixpoint` span per recursive (size > 1)
    /// component, an SCC size histogram (`summary.scc_size`), fixpoint
    /// iteration and per-method solve counters (`summary.fixpoint_iters`,
    /// `summary.method_passes`), field refinement rounds
    /// (`summary.field_rounds`), and the final [`SummaryStats`] as
    /// `summary.*` counters.
    ///
    /// Returns the summaries plus a fresh [`SummarySeed`] for the *next*
    /// run.
    pub fn compute_incremental<F>(
        methods: &[MethodInput<'_>],
        cfgs: &[Option<&Cfg>],
        mut classify: F,
        seed: Option<(&SummarySeed, &BTreeSet<usize>)>,
        obs: &nck_obs::Obs,
    ) -> (Summaries, SummarySeed)
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

        // Reverse edges and self-loops drive the incremental recompute:
        // a changed summary only dirties its callers, and a singleton
        // component without a self-call needs exactly one pass.
        let self_loop: Vec<bool> = (0..n).map(|m| succs[m].binary_search(&m).is_ok()).collect();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (m, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(m);
            }
        }

        // Condensation-depth levels: level(c) = 1 + max level over callee
        // components (0 with none). Components at the same level share no
        // edges — an edge between components always strictly increases the
        // level — so they read only summaries frozen at level entry and
        // can be solved independently, in parallel. Tarjan emits callees
        // first, so callee levels are always computed before their
        // callers'.
        let mut comp_of = vec![0u32; n];
        for (ci, comp) in components.iter().enumerate() {
            for &m in comp {
                comp_of[m] = ci as u32;
            }
        }
        let mut comp_level = vec![0u32; components.len()];
        let mut max_level = 0u32;
        for (ci, comp) in components.iter().enumerate() {
            let mut lvl = 0;
            for &m in comp {
                for &s in &succs[m] {
                    let sc = comp_of[s] as usize;
                    if sc != ci {
                        lvl = lvl.max(comp_level[sc] + 1);
                    }
                }
            }
            comp_level[ci] = lvl;
            max_level = max_level.max(lvl);
        }
        let mut levels: Vec<Vec<usize>> = vec![
            Vec::new();
            if components.is_empty() {
                0
            } else {
                max_level as usize + 1
            }
        ];
        for (ci, &lvl) in comp_level.iter().enumerate() {
            levels[lvl as usize].push(ci);
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

        // Seed the lattice: clean methods start from the cached round-0
        // snapshot, everything else (and every method in an unseeded
        // run) from the bottom. `force` carries the initially dirty
        // methods: their callers must be revisited even when a re-solved
        // summary happens to equal the bottom it was seeded with,
        // because the *cached* caller value may have been computed
        // against a different callee summary in the previous run.
        let bottom_of = |m: usize| {
            if methods[m].body.is_some() {
                MethodSummary::bottom()
            } else {
                MethodSummary::opaque()
            }
        };
        let mut summaries: Vec<MethodSummary>;
        let mut contribs: Vec<BTreeMap<FieldKey, CVal>>;
        let mut dirty: BTreeSet<usize>;
        let mut force: BTreeSet<usize> = BTreeSet::new();
        match seed {
            Some((snapshot, changed)) => {
                let covered = |m: usize| m < snapshot.len() && m < snapshot.round0_contribs.len();
                dirty = changed.iter().copied().filter(|&m| m < n).collect();
                dirty.extend((0..n).filter(|&m| !covered(m)));
                // A recursive component touching the dirty set must
                // iterate from the bottom, as a cold run would; seeding
                // part of it mid-lattice could converge elsewhere.
                for comp in &components {
                    if (comp.len() > 1 || self_loop[comp[0]])
                        && comp.iter().any(|m| dirty.contains(m))
                    {
                        dirty.extend(comp.iter().copied());
                    }
                }
                summaries = (0..n)
                    .map(|m| {
                        if dirty.contains(&m) {
                            bottom_of(m)
                        } else {
                            snapshot.round0_summaries[m]
                        }
                    })
                    .collect();
                contribs = (0..n)
                    .map(|m| {
                        if dirty.contains(&m) {
                            BTreeMap::new()
                        } else {
                            snapshot.round0_contribs[m].clone()
                        }
                    })
                    .collect();
                force = dirty.clone();
                if obs.metrics.is_enabled() {
                    obs.metrics.inc("summary.seed_dirty", dirty.len() as u64);
                    obs.metrics
                        .inc("summary.seed_reused", (n - dirty.len()) as u64);
                }
            }
            None => {
                summaries = (0..n).map(bottom_of).collect();
                contribs = vec![BTreeMap::new(); n];
                dirty = (0..n).collect();
            }
        }
        let mut field_consts: BTreeMap<FieldKey, CVal> = BTreeMap::new();

        // Solves one component to fixpoint against a frozen summary
        // vector, without touching shared state — the unit of work for
        // both the sequential and the parallel recompute path. Returns
        // the final summary and field contribution per body-bearing
        // member, plus the members whose update branch fired (whose
        // callers must be dirtied) and the effort counters.
        struct CompOutcome {
            results: Vec<(usize, MethodSummary, BTreeMap<FieldKey, CVal>)>,
            touched: Vec<usize>,
            iters: u64,
            passes: u64,
        }
        let solve_comp = |ci: usize,
                          base: &[MethodSummary],
                          field_consts: &BTreeMap<FieldKey, CVal>,
                          force: &BTreeSet<usize>|
         -> CompOutcome {
            let comp = &components[ci];
            let mut out = CompOutcome {
                results: Vec::with_capacity(comp.len()),
                touched: Vec::new(),
                iters: 0,
                passes: 0,
            };
            let solve_one = |m: usize, body: &Body, view: &[MethodSummary]| {
                let cfg = cfgs[m].expect("cfg exists for body");
                let analysis = IpAnalysis {
                    n_locals: body.locals.len(),
                    is_static: methods[m].is_static,
                    kinds: &kinds[m],
                    summaries: view,
                    field_consts,
                };
                let sol = solve(body, cfg, &analysis);
                let s = summarize(body, &sol, &kinds[m], view);
                (s, field_contrib(body, &sol))
            };
            if comp.len() == 1 && !self_loop[comp[0]] {
                // A non-recursive singleton cannot feed itself: one pass
                // against the frozen base suffices (it never reads its
                // own entry), no confirmation iteration needed.
                out.iters = 1;
                let m = comp[0];
                if let Some(body) = methods[m].body {
                    out.passes = 1;
                    let (s, contrib) = solve_one(m, body, base);
                    if s != base[m] || force.contains(&m) {
                        out.touched.push(m);
                    }
                    out.results.push((m, s, contrib));
                }
            } else {
                // Recursive component: members read each other's working
                // summaries, so iterate on a private copy of the vector.
                let mut local: Vec<MethodSummary> = base.to_vec();
                let mut latest: BTreeMap<usize, BTreeMap<FieldKey, CVal>> = BTreeMap::new();
                for _ in 0..MAX_SCC_ITERS {
                    out.iters += 1;
                    let mut changed = false;
                    for &m in comp {
                        let Some(body) = methods[m].body else {
                            continue;
                        };
                        out.passes += 1;
                        let (s, contrib) = solve_one(m, body, &local);
                        if s != local[m] || force.contains(&m) {
                            if s != local[m] {
                                changed = true;
                            }
                            local[m] = s;
                            if !out.touched.contains(&m) {
                                out.touched.push(m);
                            }
                        }
                        latest.insert(m, contrib);
                    }
                    if !changed {
                        break;
                    }
                }
                for &m in comp {
                    if let Some(contrib) = latest.remove(&m) {
                        out.results.push((m, local[m], contrib));
                    }
                }
            }
            out
        };

        // Recomputes the methods in `dirty` (bottom-up, level by level);
        // a summary change dirties the method's callers, which always
        // live at a later level (or in the same recursive component).
        // Within a level the active components are independent, so when
        // the level carries enough work they are solved on scoped worker
        // threads; outcomes are applied in component-index order either
        // way, which replicates the sequential schedule exactly.
        let recompute = |summaries: &mut Vec<MethodSummary>,
                         contribs: &mut Vec<BTreeMap<FieldKey, CVal>>,
                         field_consts: &BTreeMap<FieldKey, CVal>,
                         dirty: &mut BTreeSet<usize>,
                         force: &BTreeSet<usize>| {
            for level in &levels {
                let active: Vec<usize> = level
                    .iter()
                    .copied()
                    .filter(|&ci| components[ci].iter().any(|m| dirty.contains(m)))
                    .collect();
                if active.is_empty() {
                    continue;
                }
                let apply = |outcome: CompOutcome,
                             summaries: &mut Vec<MethodSummary>,
                             contribs: &mut Vec<BTreeMap<FieldKey, CVal>>,
                             dirty: &mut BTreeSet<usize>| {
                    fixpoint_iters.set(fixpoint_iters.get() + outcome.iters);
                    method_passes.set(method_passes.get() + outcome.passes);
                    for (m, s, contrib) in outcome.results {
                        summaries[m] = s;
                        contribs[m] = contrib;
                    }
                    for m in outcome.touched {
                        dirty.extend(preds[m].iter().copied());
                    }
                };
                let level_stmts: usize = active
                    .iter()
                    .flat_map(|&ci| components[ci].iter())
                    .map(|&m| methods[m].body.map_or(0, |b| b.len()))
                    .sum();
                let workers = par_workers().min(active.len());
                if workers > 1 && active.len() >= PAR_MIN_COMPS && level_stmts >= PAR_MIN_STMTS {
                    // Heavy level: stripe the active components across
                    // scoped threads against the frozen summary vector.
                    // The span sits on this thread; worker outcomes carry
                    // the counters back.
                    let span = obs.tracer.span("scc_level_parallel");
                    span.add_items(active.len() as u64);
                    let frozen: &[MethodSummary] = summaries;
                    let active_ref = &active;
                    let solve_comp_ref = &solve_comp;
                    let mut slots: Vec<Option<CompOutcome>> =
                        (0..active.len()).map(|_| None).collect();
                    crossbeam::scope(|scope| {
                        let mut handles = Vec::with_capacity(workers);
                        for w in 0..workers {
                            handles.push(scope.spawn(move |_| {
                                let mut done = Vec::new();
                                let mut i = w;
                                while i < active_ref.len() {
                                    done.push((
                                        i,
                                        solve_comp_ref(active_ref[i], frozen, field_consts, force),
                                    ));
                                    i += workers;
                                }
                                done
                            }));
                        }
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("scc worker"))
                            .collect::<Vec<_>>()
                    })
                    .expect("scc scope")
                    .into_iter()
                    .for_each(|(i, outcome)| slots[i] = Some(outcome));
                    for outcome in slots {
                        apply(
                            outcome.expect("every component solved"),
                            summaries,
                            contribs,
                            dirty,
                        );
                    }
                } else {
                    for &ci in &active {
                        let span =
                            (components[ci].len() > 1).then(|| obs.tracer.span("scc_fixpoint"));
                        if let Some(s) = &span {
                            s.add_items(components[ci].len() as u64);
                        }
                        let outcome = solve_comp(ci, summaries, field_consts, force);
                        apply(outcome, summaries, contribs, dirty);
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
        // Post-round-0 snapshot: per-method summaries plus per-method
        // field-constant contributions, the seed for an incremental run.
        type Round0 = (Vec<MethodSummary>, Vec<BTreeMap<FieldKey, CVal>>);
        let mut round0: Option<Round0> = None;
        for _ in 0..MAX_FIELD_ROUNDS {
            field_rounds += 1;
            let _round = obs.tracer.span("field_round");
            recompute(
                &mut summaries,
                &mut contribs,
                &field_consts,
                &mut dirty,
                &force,
            );
            if round0.is_none() {
                // Snapshot the post-round-0 state (the seed for a later
                // incremental run) before refinement perturbs it.
                round0 = Some((summaries.clone(), contribs.clone()));
                force = BTreeSet::new();
            }
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
            recompute(
                &mut summaries,
                &mut contribs,
                &field_consts,
                &mut all,
                &force,
            );
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

        let (round0_summaries, round0_contribs) = round0.unwrap_or_default();
        (
            Summaries {
                summaries,
                field_consts,
                stats,
                hits: AtomicUsize::new(0),
            },
            SummarySeed {
                round0_summaries,
                round0_contribs,
            },
        )
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

    fn direction(&self) -> Direction {
        Direction::Forward
    }

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
    let mut calls_source = false;

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
                Some(CallKind::Source) => calls_source = true,
                Some(CallKind::CheckSink) => {
                    if let Some(recv) = inv.receiver() {
                        if let Some(p) = eval(env, recv).ident {
                            args_checked |= arg_bit(p);
                        }
                    }
                }
                Some(CallKind::Callees(cs)) if !cs.is_empty() => {
                    if cs
                        .iter()
                        .any(|&c| summaries.get(c).is_some_and(|s| s.calls_source))
                    {
                        calls_source = true;
                    }
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
        calls_source,
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
        compute_seeded(p, None, &nck_obs::Obs::disabled()).0
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
        assert!(wrapper.calls_source);
        assert!(wrapper.returns_connectivity());
        let user = s.summary(idx(&p, "Lapp/G;", "use"));
        assert!(user.branches_on_source);
        assert!(user.calls_source);
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
        assert!(!s.summary(id).calls_source);
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
            assert!(sum.calls_source, "w{d} must transitively call the source");
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

    fn compute_seeded(
        p: &Program,
        seed: Option<(&SummarySeed, &BTreeSet<usize>)>,
        obs: &nck_obs::Obs,
    ) -> (Summaries, SummarySeed) {
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
        Summaries::compute_incremental(
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
            seed,
            obs,
        )
    }

    /// The `base → mid → top` chain of
    /// [`constant_returns_fold_through_call_chains`], with `base`'s
    /// constant as a parameter, plus one method with no call edges at
    /// all.
    fn chain_program(base_const: i64) -> Program {
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.method(
                "base",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                move |m| {
                    m.const_int(m.reg(0), base_const);
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
                    m.binop_lit(BinOp::Add, m.reg(0), m.reg(0), 1);
                    m.ret(Some(m.reg(0)));
                },
            );
            c.method(
                "top",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.invoke_static("Lapp/A;", "mid", "()I", &[]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        b.class("Lapp/B;", |c| {
            c.method(
                "loner",
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                1,
                |m| {
                    m.const_int(m.reg(0), 42);
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        lift(b)
    }

    #[test]
    fn dirty_callee_invalidates_cached_callers_transitively() {
        // Version 1: base() = 7, so mid() = 8 and top() = 8 through the
        // chain. Snapshot the seed.
        let v1 = chain_program(7);
        let (s1, seed1) = compute_seeded(&v1, None, &nck_obs::Obs::disabled());
        assert_eq!(
            s1.summary(idx(&v1, "Lapp/A;", "top")).const_return,
            CVal::Int(8)
        );

        // Version 2 changes only base(); the incremental dirty set is
        // exactly {base} — mid and top are "cached" but must still move
        // because dirtiness propagates along reverse call edges.
        let v2 = chain_program(20);
        let dirty: BTreeSet<usize> = [idx(&v2, "Lapp/A;", "base")].into_iter().collect();
        let obs = nck_obs::Obs::enabled();
        let (warm, _) = compute_seeded(&v2, Some((&seed1, &dirty)), &obs);
        let (cold, _) = compute_seeded(&v2, None, &nck_obs::Obs::disabled());

        for name in ["base", "mid", "top"] {
            let i = idx(&v2, "Lapp/A;", name);
            assert_eq!(
                warm.summary(i).const_return,
                cold.summary(i).const_return,
                "warm {name} must match cold"
            );
        }
        assert_eq!(
            warm.summary(idx(&v2, "Lapp/A;", "top")).const_return,
            CVal::Int(21)
        );

        // The method with no path to the dirty set kept its seeded
        // summary: the engine reports at least one seed reuse.
        assert_eq!(
            warm.summary(idx(&v2, "Lapp/B;", "loner")).const_return,
            CVal::Int(42)
        );
        let snap = obs.metrics.snapshot();
        assert!(
            snap.counters
                .get("summary.seed_reused")
                .copied()
                .unwrap_or(0)
                >= 1,
            "loner should be served from the seed: {:?}",
            snap.counters
        );
    }
}
