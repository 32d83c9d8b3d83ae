//! The per-app analysis context shared by all checkers: lifted program,
//! entry points, call graph, and per-method dataflow results.

use crate::callgraph::{CallGraph, MethodSet};
use nck_android::entrypoints::{entry_points, EntryPoint};
use nck_android::manifest::Manifest;
use nck_dataflow::interproc::{CallKind, MethodInput, Summaries, SummarySeed};
use nck_dataflow::{ConstProp, ControlDeps, ReachingDefs};
use nck_ir::body::{Body, InvokeExpr, MethodId, MethodKey, Program};
use nck_ir::cfg::Cfg;
use nck_ir::dom::{dominators, post_dominators, DomTree};
use nck_ir::hierarchy::TypeIndex;
use nck_ir::loops::{natural_loops, NaturalLoop};
use nck_ir::symbols::Interner;
use nck_netlibs::api::{ApiRoles, ConfigApi, Registry, ResponseCheckApi, TargetApi};
use nck_obs::Obs;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// All dataflow artifacts of one method body.
///
/// Nothing is computed up front, not even the CFG: every artifact
/// initializes on first access. Most methods issue no request and sit
/// in no loop a checker inspects, so an eager CFG per body was mostly
/// built for nobody. `OnceLock` keeps the struct `Sync`, so
/// lazily-initialized analyses still share across threads via `Arc`.
#[derive(Debug)]
pub struct MethodAnalysis {
    body: Arc<Body>,
    cfg: OnceLock<Cfg>,
    rd: OnceLock<ReachingDefs>,
    cp: OnceLock<ConstProp>,
    doms: OnceLock<DomTree>,
    pdoms: OnceLock<DomTree>,
    cdeps: OnceLock<ControlDeps>,
    cdeps_normal: OnceLock<ControlDeps>,
    loops: OnceLock<Vec<NaturalLoop>>,
}

impl MethodAnalysis {
    /// Sets up empty lazy slots for `body`; builds nothing.
    pub fn compute(body: &Arc<Body>) -> MethodAnalysis {
        MethodAnalysis {
            body: Arc::clone(body),
            cfg: OnceLock::new(),
            rd: OnceLock::new(),
            cp: OnceLock::new(),
            doms: OnceLock::new(),
            pdoms: OnceLock::new(),
            cdeps: OnceLock::new(),
            cdeps_normal: OnceLock::new(),
            loops: OnceLock::new(),
        }
    }

    /// Statement-level CFG.
    pub fn cfg(&self) -> &Cfg {
        self.cfg.get_or_init(|| Cfg::build(&self.body))
    }

    /// Whether the CFG has been built.
    pub fn has_cfg(&self) -> bool {
        self.cfg.get().is_some()
    }

    /// Reaching definitions.
    pub fn rd(&self) -> &ReachingDefs {
        self.rd
            .get_or_init(|| ReachingDefs::compute(&self.body, self.cfg()))
    }

    /// Constant propagation.
    pub fn cp(&self) -> &ConstProp {
        self.cp
            .get_or_init(|| ConstProp::compute(&self.body, self.cfg()))
    }

    /// Dominator tree.
    pub fn doms(&self) -> &DomTree {
        self.doms.get_or_init(|| dominators(self.cfg()))
    }

    /// Post-dominator tree.
    pub fn pdoms(&self) -> &DomTree {
        self.pdoms.get_or_init(|| post_dominators(self.cfg()))
    }

    /// Control dependences.
    pub fn cdeps(&self) -> &ControlDeps {
        self.cdeps
            .get_or_init(|| ControlDeps::compute(self.cfg(), self.pdoms()))
    }

    /// Control dependences over the exception-free CFG (used by the
    /// strict connectivity check: "is the request control-dependent on a
    /// branch?" is only meaningful without exceptional edges).
    pub fn cdeps_normal(&self) -> &ControlDeps {
        self.cdeps_normal.get_or_init(|| {
            let normal = self.cfg().normal_only();
            let pdoms_normal = post_dominators(&normal);
            ControlDeps::compute(&normal, &pdoms_normal)
        })
    }

    /// Natural loops.
    pub fn loops(&self) -> &[NaturalLoop] {
        self.loops.get_or_init(|| {
            // A CFG with only forward edges is a DAG: no loops, and no
            // need to build the dominator tree to prove it.
            if !self.cfg().has_backward_edge() {
                return Vec::new();
            }
            natural_loops(self.cfg(), self.doms())
        })
    }
}

/// Prior-run artifacts. Exists only for nckbench's traced twin;
/// [`AnalyzedApp::new_reusing`] ignores it.
#[derive(Debug, Clone, Copy)]
pub struct AppReuse<'a> {
    /// Previous run's per-method dataflow artifacts.
    pub analyses: &'a BTreeMap<MethodId, Arc<MethodAnalysis>>,
    /// Method ids whose bodies were replayed.
    pub reused_methods: &'a [MethodId],
    /// Previous run's per-method call-resolution fingerprints.
    pub callee_fps: &'a [u64],
    /// Previous run's summary seed.
    pub summary_seed: &'a SummarySeed,
}

/// The registry's roles keyed by one app's interned callee symbols, so a
/// checker classifies a call without resolving its names to strings.
#[derive(Debug)]
struct ApiIndex {
    /// One bit per symbol, set for the class of some registry key: most
    /// invokes are rejected with one load.
    classes: Vec<u64>,
    /// `(class, name)` symbol pairs packed into a `u64`, sorted.
    roles: Vec<(u64, ApiRoles)>,
}

impl ApiIndex {
    fn build(symbols: &Interner, registry: &Registry) -> ApiIndex {
        let mut classes = vec![0u64; symbols.len().div_ceil(64)];
        let mut roles = Vec::new();
        for (class, name, r) in registry.roles() {
            let Some(c) = symbols.get(class) else {
                continue;
            };
            let Some(n) = symbols.get(name) else {
                continue;
            };
            classes[c.0 as usize / 64] |= 1 << (c.0 % 64);
            roles.push((Self::key(c.0, n.0), r));
        }
        roles.sort_unstable_by_key(|&(k, _)| k);
        ApiIndex { classes, roles }
    }

    fn key(class: u32, name: u32) -> u64 {
        (u64::from(class) << 32) | u64::from(name)
    }

    fn roles(&self, callee: MethodKey) -> ApiRoles {
        let c = callee.class.0 as usize;
        let word = self.classes.get(c / 64).copied().unwrap_or(0);
        if word & (1 << (c % 64)) == 0 {
            return ApiRoles::default();
        }
        let key = Self::key(callee.class.0, callee.name.0);
        self.roles
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or_else(|_| ApiRoles::default(), |i| self.roles[i].1)
    }
}

/// The fully analyzed app every checker consumes.
#[derive(Debug)]
pub struct AnalyzedApp<'r> {
    /// The manifest the APK carried.
    pub manifest: Manifest,
    /// The lifted program.
    pub program: Program,
    /// The annotation registry in force.
    pub registry: &'r Registry,
    /// The program's class-hierarchy index.
    pub types: TypeIndex,
    /// Framework entry points.
    pub entries: Vec<EntryPoint>,
    /// The call graph.
    pub callgraph: CallGraph,
    /// Per-entry reachable method sets (parallel to `entries`). Entries
    /// in the same call-graph component share one underlying bitset.
    pub entry_reach: Vec<MethodSet>,
    analyses: BTreeMap<MethodId, Arc<MethodAnalysis>>,
    apis: ApiIndex,
    calls_source: OnceLock<Vec<bool>>,
    obs: Obs,
    solved: OnceLock<Summaries>,
}

/// The empty seed [`AnalyzedApp::summary_seed`] returns.
const EMPTY_SEED: &SummarySeed = &SummarySeed {};

impl<'r> AnalyzedApp<'r> {
    /// [`AnalyzedApp::new`]; `reuse` is ignored. Exists only for
    /// nckbench's traced twin.
    pub fn new_reusing(
        manifest: Manifest,
        program: Program,
        registry: &'r Registry,
        _reuse: Option<AppReuse<'r>>,
        obs: &Obs,
    ) -> AnalyzedApp<'r> {
        AnalyzedApp::new(manifest, program, registry, obs)
    }

    /// Builds the class-hierarchy and API-role indexes, entry points, the
    /// call graph and entry reachability, and sets up the lazy
    /// per-method dataflow analyses, recording per-phase spans and
    /// metrics into `obs`. Summaries are solved on first use
    /// ([`AnalyzedApp::summaries`]).
    pub fn new(
        manifest: Manifest,
        program: Program,
        registry: &'r Registry,
        obs: &Obs,
    ) -> AnalyzedApp<'r> {
        let _ctx = obs.tracer.span("context");
        let types = TypeIndex::build(&program);
        let apis = ApiIndex::build(&program.symbols, registry);
        let entries = {
            let s = obs.tracer.span("entry_points");
            let entries = entry_points(&program, &types, &manifest);
            s.add_items(entries.len() as u64);
            entries
        };
        let callgraph = {
            let _s = obs.tracer.span("callgraph");
            CallGraph::build(&program, &types)
        };
        let entry_reach: Vec<MethodSet> = {
            let _s = obs.tracer.span("entry_reach");
            let entry_methods: Vec<MethodId> = entries.iter().map(|e| e.method).collect();
            callgraph.entry_reach_sets(&entry_methods, program.methods.len())
        };
        let analyses: BTreeMap<MethodId, Arc<MethodAnalysis>> = {
            let s = obs.tracer.span("method_analyses");
            let mut analyses: BTreeMap<MethodId, Arc<MethodAnalysis>> = BTreeMap::new();
            for (id, m) in program.iter_methods() {
                let Some(body) = m.body.as_ref() else {
                    continue;
                };
                analyses.insert(id, Arc::new(MethodAnalysis::compute(body)));
            }
            s.add_items(analyses.len() as u64);
            analyses
        };
        if obs.metrics.is_enabled() {
            obs.metrics.inc("context.entries", entries.len() as u64);
            obs.metrics
                .inc("context.methods_analyzed", analyses.len() as u64);
            obs.metrics
                .inc("context.cha_keys", callgraph.cha_keys() as u64);
            obs.metrics
                .inc("context.cha_candidates", callgraph.cha_candidates() as u64);
        }
        AnalyzedApp {
            manifest,
            program,
            registry,
            types,
            entries,
            callgraph,
            entry_reach,
            analyses,
            apis,
            calls_source: OnceLock::new(),
            obs: obs.clone(),
            solved: OnceLock::new(),
        }
    }

    /// Whether `method` invokes a connectivity source, directly or
    /// through any chain of explicit calls into app methods with bodies.
    /// Answered from the call graph; the summary engine is not consulted.
    pub fn calls_source(&self, method: MethodId) -> bool {
        self.calls_source.get_or_init(|| self.source_callers())[method.0 as usize]
    }

    /// The reverse walk behind [`AnalyzedApp::calls_source`]: from direct
    /// connectivity callers along explicit caller edges whose site
    /// [`AnalyzedApp::solve`] classifies as app-internal (neither source
    /// nor check sink), which is the least fixpoint the engine reaches.
    fn source_callers(&self) -> Vec<bool> {
        let mut calls = vec![false; self.program.methods.len()];
        let mut work: Vec<MethodId> = crate::checks::methods_invoking_connectivity(self)
            .into_iter()
            .collect();
        for m in &work {
            calls[m.0 as usize] = true;
        }
        while let Some(callee) = work.pop() {
            for e in self.callgraph.callers(callee) {
                if e.implicit || calls[e.caller.0 as usize] {
                    continue;
                }
                let Some(inv) = self.body(e.caller).stmt(e.stmt).invoke_expr() else {
                    continue;
                };
                let roles = self.api_roles(inv);
                if !roles.connectivity && roles.response_check.is_none() {
                    calls[e.caller.0 as usize] = true;
                    work.push(e.caller);
                }
            }
        }
        calls
    }

    /// The registry roles of `inv`'s callee `(class, name)`.
    pub fn api_roles(&self, inv: &InvokeExpr) -> ApiRoles {
        self.apis.roles(inv.callee)
    }

    /// The target API `inv` calls, if any.
    pub fn api_target(&self, inv: &InvokeExpr) -> Option<&'r TargetApi> {
        let registry = self.registry;
        self.api_roles(inv).target.map(|i| &registry.targets()[i])
    }

    /// The config API `inv` calls, if any.
    pub fn api_config(&self, inv: &InvokeExpr) -> Option<&'r ConfigApi> {
        let registry = self.registry;
        self.api_roles(inv).config.map(|i| &registry.configs()[i])
    }

    /// The response-checking API `inv` calls, if any.
    pub fn api_response_check(&self, inv: &InvokeExpr) -> Option<&'r ResponseCheckApi> {
        let registry = self.registry;
        self.api_roles(inv)
            .response_check
            .map(|i| &registry.response_checks()[i])
    }

    /// Whether `inv` calls a connectivity-state API.
    pub fn api_is_connectivity(&self, inv: &InvokeExpr) -> bool {
        self.api_roles(inv).connectivity
    }

    /// The interprocedural method summaries. The first call solves the
    /// whole program, recording the `summaries` span and the `summary.*`
    /// counters into the context's `Obs` under whatever span is open
    /// then. Method indices are dense: `MethodId(i)` ↔ summary index `i`.
    pub fn summaries(&self) -> &Summaries {
        self.solved.get_or_init(|| self.solve())
    }

    /// The summaries if a checker asked for them, without solving.
    pub fn solved_summaries(&self) -> Option<&Summaries> {
        self.solved.get()
    }

    /// An empty summary seed. Exists only for nckbench's traced twin.
    pub fn summary_seed(&self) -> &SummarySeed {
        EMPTY_SEED
    }

    /// No call-resolution fingerprints. Exists only for nckbench's
    /// traced twin.
    pub fn callee_fps(&self) -> &[u64] {
        &[]
    }

    /// Solves every method's summary, classifying each call site against
    /// the API registry (connectivity APIs are sources, response-validity
    /// APIs are check sinks) and the explicit call-graph edges
    /// (app-internal callees). Everything else — framework calls,
    /// implicit edges — stays opaque to keep the summaries conservative.
    fn solve(&self) -> Summaries {
        let _s = self.obs.tracer.span("summaries");
        let inputs: Vec<MethodInput<'_>> = self
            .program
            .methods
            .iter()
            .map(|m| MethodInput {
                body: m.body.as_deref(),
                is_static: m.flags.contains(nck_dex::AccessFlags::STATIC),
            })
            .collect();
        // Share the per-method CFGs with the context (building any not
        // yet built).
        let cfgs: Vec<Option<&Cfg>> = (0..inputs.len())
            .map(|i| self.analyses.get(&MethodId(i as u32)).map(|a| a.cfg()))
            .collect();
        Summaries::compute(
            &inputs,
            &cfgs,
            |m, stmt, inv| {
                let roles = self.api_roles(inv);
                if roles.connectivity {
                    return CallKind::Source;
                }
                if roles.response_check.is_some() {
                    return CallKind::CheckSink;
                }
                let callees: Vec<usize> = self
                    .callgraph
                    .callees(MethodId(m as u32))
                    .iter()
                    .filter(|e| e.stmt == stmt && !e.implicit)
                    .map(|e| e.callee.0 as usize)
                    .collect();
                if callees.is_empty() {
                    CallKind::Opaque
                } else {
                    CallKind::Callees(callees)
                }
            },
            &self.obs,
        )
    }

    /// The full per-method analysis map.
    pub fn analyses_arc(&self) -> &BTreeMap<MethodId, Arc<MethodAnalysis>> {
        &self.analyses
    }

    /// How many CFGs were built since construction.
    pub fn cfgs_built(&self) -> usize {
        self.analyses.values().filter(|a| a.has_cfg()).count()
    }

    /// The dataflow artifacts of `method`.
    ///
    /// # Panics
    ///
    /// Panics when `method` has no body.
    pub fn analysis(&self, method: MethodId) -> &MethodAnalysis {
        self.analyses
            .get(&method)
            .expect("analysis requested for a bodiless method")
    }

    /// The body of `method`.
    ///
    /// # Panics
    ///
    /// Panics when `method` has no body.
    pub fn body(&self, method: MethodId) -> &Body {
        self.program
            .method(method)
            .body
            .as_ref()
            .expect("body requested for a bodiless method")
    }

    /// Indices into [`Self::entries`] of the entry points that reach
    /// `method`.
    pub fn entries_reaching(&self, method: MethodId) -> Vec<usize> {
        self.entry_reach
            .iter()
            .enumerate()
            .filter(|(_, set)| set.contains(method))
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders `method` as `Lcls;.name(sig)`.
    pub fn display_method(&self, method: MethodId) -> String {
        self.program
            .display_method_key(self.program.method(method).key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_android::manifest::ComponentKind;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;
    use nck_ir::lift_file;

    #[test]
    fn analyzed_app_wires_everything() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/Main;", |c| {
            c.super_class("Landroid/app/Activity;");
            c.method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                AccessFlags::PUBLIC,
                4,
                |m| {
                    m.invoke_virtual("Lapp/Main;", "helper", "()V", &[m.param(0).unwrap()]);
                    m.ret(None);
                },
            );
            c.method("helper", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
        });
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("app");
        manifest.component("Lapp/Main;", ComponentKind::Activity);
        let registry = Registry::standard();
        let app = AnalyzedApp::new(manifest, program, &registry, &Obs::disabled());
        assert_eq!(app.entries.len(), 1);
        let helper = app
            .program
            .iter_methods()
            .find(|(_, m)| app.program.symbols.resolve(m.key.name) == "helper")
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(app.entries_reaching(helper).len(), 1);
        // Method analyses exist for both bodies.
        let _ = app.analysis(helper);
    }

    #[test]
    fn a_fresh_method_analysis_holds_no_cfg() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.method("f", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
        });
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let body = program.methods[0].body.clone().unwrap();
        let ma = MethodAnalysis::compute(&body);
        assert!(!ma.has_cfg());
        assert!(ma.loops().is_empty());
        assert!(ma.has_cfg(), "a reader builds it");

        let registry = Registry::standard();
        let app = AnalyzedApp::new(Manifest::new("app"), program, &registry, &Obs::disabled());
        assert!(app.analyses_arc().values().all(|a| !a.has_cfg()));
        assert_eq!(app.cfgs_built(), 0);
        let _ = app.analysis(MethodId(0)).cfg();
        assert_eq!(app.cfgs_built(), 1);
    }

    fn method_id(app: &AnalyzedApp<'_>, class: &str, name: &str) -> MethodId {
        app.program
            .iter_methods()
            .find(|(_, m)| {
                app.program.symbols.resolve(m.key.class) == class
                    && app.program.symbols.resolve(m.key.name) == name
            })
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn calls_source_follows_explicit_callers_from_the_call_graph() {
        // w1 -> NetworkInfo.isConnected(); w2..w5 wrap it in a chain;
        // use() calls w5. Response.isSuccessful() is an app method here
        // that calls w1, but a call to it is a check-sink site, so its
        // caller does not inherit the source; gone() loses its body.
        let static_ = AccessFlags::PUBLIC | AccessFlags::STATIC;
        let mut b = AdxBuilder::new();
        b.class("Lapp/G;", |c| {
            c.method("w1", "()Z", static_, 1, |m| {
                m.invoke_static("Landroid/net/NetworkInfo;", "isConnected", "()Z", &[]);
                m.move_result(m.reg(0));
                m.ret(Some(m.reg(0)));
            });
            for d in 2..=5 {
                let inner = format!("w{}", d - 1);
                c.method(&format!("w{d}"), "()Z", static_, 1, |m| {
                    m.invoke_static("Lapp/G;", &inner, "()Z", &[]);
                    m.move_result(m.reg(0));
                    m.ret(Some(m.reg(0)));
                });
            }
            for (name, callee_class, callee) in [
                ("use", "Lapp/G;", "w5"),
                ("viaSink", "Lcom/squareup/okhttp/Response;", "isSuccessful"),
                ("gone", "Lapp/G;", "w1"),
                ("callsGone", "Lapp/G;", "gone"),
            ] {
                c.method(name, "()V", static_, 1, |m| {
                    m.invoke_static(callee_class, callee, "()Z", &[]);
                    m.ret(None);
                });
            }
            c.method("plain", "()V", static_, 1, |m| m.ret(None));
        });
        b.class("Lcom/squareup/okhttp/Response;", |c| {
            c.method("isSuccessful", "()Z", static_, 1, |m| {
                m.invoke_static("Lapp/G;", "w1", "()Z", &[]);
                m.move_result(m.reg(0));
                m.ret(Some(m.reg(0)));
            });
        });
        let mut program = lift_file(&b.finish().unwrap()).unwrap();
        let gone = program
            .iter_methods()
            .find(|(_, m)| program.symbols.resolve(m.key.name) == "gone")
            .map(|(id, _)| id)
            .unwrap();
        program.methods[gone.0 as usize].body = None;
        let registry = Registry::standard();
        let app = AnalyzedApp::new(Manifest::new("app"), program, &registry, &Obs::disabled());
        let calls = |class: &str, name: &str| app.calls_source(method_id(&app, class, name));
        for d in 1..=5 {
            assert!(
                calls("Lapp/G;", &format!("w{d}")),
                "w{d} reaches the source"
            );
        }
        assert!(calls("Lapp/G;", "use"));
        assert!(calls("Lcom/squareup/okhttp/Response;", "isSuccessful"));
        let via_sink = method_id(&app, "Lapp/G;", "viaSink");
        assert!(app.callgraph.callees(via_sink).iter().any(|e| !e.implicit));
        assert!(
            !app.calls_source(via_sink),
            "a check-sink site is not followed"
        );
        assert!(!calls("Lapp/G;", "gone"), "a bodiless method calls nothing");
        assert!(!calls("Lapp/G;", "callsGone"));
        assert!(!calls("Lapp/G;", "plain"));
        assert!(app.solved_summaries().is_none(), "the walk solves nothing");
        // The engine agrees wherever it derives connectivity.
        let w5 = method_id(&app, "Lapp/G;", "w5");
        assert!(app.summaries().summary(w5.0 as usize).return_from_source);
    }

    #[test]
    fn summaries_solve_on_first_use_only() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.method("f", "()I", AccessFlags::PUBLIC, 2, |m| {
                m.const_int(m.reg(0), 3);
                m.ret(Some(m.reg(0)));
            });
        });
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let registry = Registry::standard();
        let obs = Obs::enabled();
        let app = AnalyzedApp::new(Manifest::new("app"), program, &registry, &obs);
        assert!(app.solved_summaries().is_none());
        assert!(!obs
            .metrics
            .snapshot()
            .counters
            .contains_key("summary.method_passes"));

        let f = method_id(&app, "Lapp/A;", "f");
        assert_eq!(
            app.summaries().summary(f.0 as usize).const_return,
            nck_dataflow::CVal::Int(3)
        );
        assert!(app.solved_summaries().is_some());
        assert_eq!(
            obs.metrics.snapshot().counters.get("summary.method_passes"),
            Some(&1)
        );
        assert!(obs
            .tracer
            .finish()
            .roots
            .iter()
            .any(|r| r.name == "summaries"));
    }
}
