//! The per-app analysis context shared by all checkers: lifted program,
//! entry points, call graph, and per-method dataflow results.

use crate::callgraph::{CallGraph, MethodSet};
use nck_android::entrypoints::{entry_points, EntryPoint};
use nck_android::manifest::Manifest;
use nck_dataflow::interproc::{CallKind, MethodInput, Summaries, SummarySeed};
use nck_dataflow::{ConstProp, ControlDeps, ReachingDefs};
use nck_dex::fingerprint::Fnv;
use nck_ir::body::{Body, MethodId, Program};
use nck_ir::cfg::Cfg;
use nck_ir::dom::{dominators, post_dominators, DomTree};
use nck_ir::loops::{natural_loops, NaturalLoop};
use nck_netlibs::api::Registry;
use nck_obs::Obs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Minimum number of method bodies to analyze before fanning out to
/// threads; below this, spawn overhead beats the parallelism.
const PAR_MIN_METHODS: usize = 64;

/// Worker count for intra-app parallel phases, capped so one large app
/// cannot monopolize a shared service host.
fn par_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// All dataflow artifacts of one method body.
///
/// Only the CFG is computed eagerly: every consumer (including the
/// summary engine) needs it. The remaining artifacts initialize lazily
/// on first access — most methods are never touched by a checker beyond
/// their summary, so the old eager-everything constructor spent the bulk
/// of the `method_analyses` phase on results nobody read. `OnceLock`
/// keeps the struct `Sync`, so lazily-initialized analyses still share
/// across threads and across incremental runs via `Arc`.
#[derive(Debug)]
pub struct MethodAnalysis {
    body: Arc<Body>,
    /// Statement-level CFG.
    pub cfg: Cfg,
    rd: OnceLock<ReachingDefs>,
    cp: OnceLock<ConstProp>,
    doms: OnceLock<DomTree>,
    pdoms: OnceLock<DomTree>,
    cdeps: OnceLock<ControlDeps>,
    cdeps_normal: OnceLock<ControlDeps>,
    loops: OnceLock<Vec<NaturalLoop>>,
}

impl MethodAnalysis {
    /// Builds the CFG for `body` and sets up lazy slots for the rest.
    pub fn compute(body: &Arc<Body>) -> MethodAnalysis {
        let cfg = Cfg::build(body);
        MethodAnalysis {
            body: Arc::clone(body),
            cfg,
            rd: OnceLock::new(),
            cp: OnceLock::new(),
            doms: OnceLock::new(),
            pdoms: OnceLock::new(),
            cdeps: OnceLock::new(),
            cdeps_normal: OnceLock::new(),
            loops: OnceLock::new(),
        }
    }

    /// Reaching definitions.
    pub fn rd(&self) -> &ReachingDefs {
        self.rd
            .get_or_init(|| ReachingDefs::compute(&self.body, &self.cfg))
    }

    /// Constant propagation.
    pub fn cp(&self) -> &ConstProp {
        self.cp
            .get_or_init(|| ConstProp::compute(&self.body, &self.cfg))
    }

    /// Dominator tree.
    pub fn doms(&self) -> &DomTree {
        self.doms.get_or_init(|| dominators(&self.cfg))
    }

    /// Post-dominator tree.
    pub fn pdoms(&self) -> &DomTree {
        self.pdoms.get_or_init(|| post_dominators(&self.cfg))
    }

    /// Control dependences.
    pub fn cdeps(&self) -> &ControlDeps {
        self.cdeps
            .get_or_init(|| ControlDeps::compute(&self.cfg, self.pdoms()))
    }

    /// Control dependences over the exception-free CFG (used by the
    /// strict connectivity check: "is the request control-dependent on a
    /// branch?" is only meaningful without exceptional edges).
    pub fn cdeps_normal(&self) -> &ControlDeps {
        self.cdeps_normal.get_or_init(|| {
            let normal = self.cfg.normal_only();
            let pdoms_normal = post_dominators(&normal);
            ControlDeps::compute(&normal, &pdoms_normal)
        })
    }

    /// Natural loops.
    pub fn loops(&self) -> &[NaturalLoop] {
        self.loops.get_or_init(|| {
            // A CFG with only forward edges is a DAG: no loops, and no
            // need to build the dominator tree to prove it.
            if !self.cfg.has_backward_edge() {
                return Vec::new();
            }
            natural_loops(&self.cfg, self.doms())
        })
    }
}

/// Prior-run artifacts the context constructor may reuse for methods the
/// lift replayed unchanged. All reuse is gated per method: a method id is
/// only consulted when it appears in `reused_methods`, whose bodies are
/// literal clones of the recording run's.
pub struct AppReuse<'a> {
    /// Previous run's per-method dataflow artifacts.
    pub analyses: &'a BTreeMap<MethodId, Arc<MethodAnalysis>>,
    /// Method ids whose bodies were replayed byte-identically.
    pub reused_methods: &'a [MethodId],
    /// Previous run's per-method call-resolution fingerprints
    /// ([`callee_fingerprints`]); a mismatch dirties the method's summary
    /// even though its own body is unchanged (a call it makes may resolve
    /// differently in the new version).
    pub callee_fps: &'a [u64],
    /// Previous run's round-0 summary snapshot.
    pub summary_seed: &'a SummarySeed,
}

/// How much prior work the context constructor actually reused.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContextReuse {
    /// Method analyses cloned from the previous run.
    pub analyses_reused: usize,
    /// Method analyses recomputed.
    pub analyses_computed: usize,
    /// Summary indices seeded clean from the previous run.
    pub summaries_clean: usize,
    /// Summary indices recomputed (body changed, new, or callee drift).
    pub summaries_dirty: usize,
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
    /// Framework entry points.
    pub entries: Vec<EntryPoint>,
    /// The call graph.
    pub callgraph: CallGraph,
    /// Per-entry reachable method sets (parallel to `entries`). Entries
    /// in the same call-graph component share one underlying bitset.
    pub entry_reach: Vec<MethodSet>,
    analyses: BTreeMap<MethodId, Arc<MethodAnalysis>>,
    summaries: Summaries,
    summary_seed: SummarySeed,
    callee_fps: Vec<u64>,
    reuse: ContextReuse,
}

impl<'r> AnalyzedApp<'r> {
    /// Lifts, builds the call graph, discovers entry points, and runs the
    /// per-method dataflow analyses.
    pub fn new(manifest: Manifest, program: Program, registry: &'r Registry) -> AnalyzedApp<'r> {
        AnalyzedApp::new_reusing(manifest, program, registry, None, &Obs::disabled())
    }

    /// Like [`AnalyzedApp::new`], reusing prior-run artifacts for methods
    /// the incremental lift replayed unchanged (none when `reuse` is
    /// `None`) and recording per-phase spans and metrics into `obs`.
    ///
    /// Entry points, the call graph, and entry reachability are always
    /// rebuilt: they are whole-program properties whose inputs (method
    /// ids, resolution targets) can shift under any class change, and
    /// they are cheap relative to the per-method dataflow they guard.
    pub fn new_reusing(
        manifest: Manifest,
        program: Program,
        registry: &'r Registry,
        reuse: Option<AppReuse<'_>>,
        obs: &Obs,
    ) -> AnalyzedApp<'r> {
        let _ctx = obs.tracer.span("context");
        let entries = {
            let s = obs.tracer.span("entry_points");
            let entries = entry_points(&program, &manifest);
            s.add_items(entries.len() as u64);
            entries
        };
        let callgraph = {
            let _s = obs.tracer.span("callgraph");
            CallGraph::build(&program)
        };
        let entry_reach: Vec<MethodSet> = {
            let _s = obs.tracer.span("entry_reach");
            let entry_methods: Vec<MethodId> = entries.iter().map(|e| e.method).collect();
            callgraph.entry_reach_sets(&entry_methods, program.methods.len())
        };
        let callee_fps = callee_fingerprints(&program, &callgraph);
        let mut stats = ContextReuse::default();
        let reused: BTreeSet<MethodId> = reuse
            .as_ref()
            .map(|r| r.reused_methods.iter().copied().collect())
            .unwrap_or_default();
        let analyses: BTreeMap<MethodId, Arc<MethodAnalysis>> = {
            let s = obs.tracer.span("method_analyses");
            let mut analyses: BTreeMap<MethodId, Arc<MethodAnalysis>> = BTreeMap::new();
            let mut to_compute: Vec<(MethodId, &Arc<Body>)> = Vec::new();
            for (id, m) in program.iter_methods() {
                let Some(body) = m.body.as_ref() else {
                    continue;
                };
                if reused.contains(&id) {
                    if let Some(prev) = reuse.as_ref().and_then(|r| r.analyses.get(&id)) {
                        stats.analyses_reused += 1;
                        analyses.insert(id, Arc::clone(prev));
                        continue;
                    }
                }
                stats.analyses_computed += 1;
                to_compute.push((id, body));
            }
            // Per-method analyses are independent, so fan the batch out
            // over striped worker threads when there is enough of it to
            // amortize spawning. Results land in a `BTreeMap`, so the
            // map's contents — and everything downstream — are identical
            // to the sequential order.
            let workers = par_workers();
            if workers > 1 && to_compute.len() >= PAR_MIN_METHODS {
                let items = &to_compute;
                let computed: Vec<(MethodId, Arc<MethodAnalysis>)> = crossbeam::scope(|sc| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            sc.spawn(move |_| {
                                items
                                    .iter()
                                    .skip(w)
                                    .step_by(workers)
                                    .map(|&(id, body)| {
                                        (id, Arc::new(MethodAnalysis::compute(body)))
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("method-analysis worker panicked"))
                        .collect()
                })
                .expect("method-analysis scope");
                analyses.extend(computed);
            } else {
                for (id, body) in to_compute {
                    analyses.insert(id, Arc::new(MethodAnalysis::compute(body)));
                }
            }
            s.add_items(analyses.len() as u64);
            analyses
        };
        let (summaries, summary_seed) = {
            let _s = obs.tracer.span("summaries");
            let seed_input = reuse.as_ref().map(|r| {
                let n = program.methods.len();
                let mut dirty: BTreeSet<usize> = (0..n)
                    .filter(|&i| !reused.contains(&MethodId(i as u32)))
                    .collect();
                // A replayed body whose calls now resolve differently is
                // just as dirty as a changed one.
                for (i, &fp) in callee_fps.iter().enumerate() {
                    if reused.contains(&MethodId(i as u32))
                        && r.callee_fps.get(i).copied() != Some(fp)
                    {
                        dirty.insert(i);
                    }
                }
                (r.summary_seed, dirty)
            });
            stats.summaries_dirty = seed_input
                .as_ref()
                .map_or(program.methods.len(), |(_, d)| d.len());
            stats.summaries_clean = program.methods.len() - stats.summaries_dirty;
            compute_summaries(
                &program,
                &callgraph,
                registry,
                &analyses,
                seed_input.as_ref().map(|(s, d)| (*s, d)),
                obs,
            )
        };
        if obs.metrics.is_enabled() {
            obs.metrics.inc("context.entries", entries.len() as u64);
            obs.metrics
                .inc("context.methods_analyzed", analyses.len() as u64);
        }
        AnalyzedApp {
            manifest,
            program,
            registry,
            entries,
            callgraph,
            entry_reach,
            analyses,
            summaries,
            summary_seed,
            callee_fps,
            reuse: stats,
        }
    }

    /// The interprocedural method summaries, computed once per app.
    /// Method indices are dense: `MethodId(i)` ↔ summary index `i`.
    pub fn summaries(&self) -> &Summaries {
        &self.summaries
    }

    /// The round-0 summary snapshot, the seed for the next version's
    /// incremental summary computation.
    pub fn summary_seed(&self) -> &SummarySeed {
        &self.summary_seed
    }

    /// Per-method call-resolution fingerprints for this run (dense,
    /// parallel to `program.methods`).
    pub fn callee_fps(&self) -> &[u64] {
        &self.callee_fps
    }

    /// The full per-method analysis map, shareable with a cache.
    pub fn analyses_arc(&self) -> &BTreeMap<MethodId, Arc<MethodAnalysis>> {
        &self.analyses
    }

    /// How much prior work this context reused.
    pub fn reuse_stats(&self) -> ContextReuse {
        self.reuse
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

/// Computes per-method summaries, classifying each call site against the
/// API registry (connectivity APIs are sources, response-validity APIs
/// are check sinks) and the explicit call-graph edges (app-internal
/// callees). Everything else — framework calls, implicit edges — stays
/// opaque to keep the summaries conservative.
fn compute_summaries(
    program: &Program,
    callgraph: &CallGraph,
    registry: &Registry,
    analyses: &BTreeMap<MethodId, Arc<MethodAnalysis>>,
    seed: Option<(&SummarySeed, &BTreeSet<usize>)>,
    obs: &Obs,
) -> (Summaries, SummarySeed) {
    let inputs: Vec<MethodInput<'_>> = program
        .methods
        .iter()
        .map(|m| MethodInput {
            body: m.body.as_deref(),
            is_static: m.flags.contains(nck_dex::AccessFlags::STATIC),
        })
        .collect();
    // Reuse the per-method CFGs the analysis context just built.
    let cfgs: Vec<Option<&Cfg>> = (0..inputs.len())
        .map(|i| analyses.get(&MethodId(i as u32)).map(|a| &a.cfg))
        .collect();
    Summaries::compute_incremental(
        &inputs,
        &cfgs,
        |m, stmt, inv| {
            let class = program.symbols.resolve(inv.callee.class);
            let name = program.symbols.resolve(inv.callee.name);
            if registry.is_connectivity_check(class, name) {
                return CallKind::Source;
            }
            if registry.response_check(class, name).is_some() {
                return CallKind::CheckSink;
            }
            let callees: Vec<usize> = callgraph
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
        seed,
        obs,
    )
}

/// Per-method fingerprints of *how this run resolved each method's
/// calls*: explicit and implicit call-graph edges in edge order, with
/// callee identity taken from its resolved key strings (stable across
/// versions) rather than its `MethodId` (not stable past the first
/// changed class).
///
/// A replayed method body is only as reusable as its call resolution: if
/// an update makes a previously opaque call resolve to a real callee (or
/// retargets one), the caller's summary context changed even though its
/// bytecode did not. Comparing these fingerprints across versions is how
/// the incremental path notices.
pub fn callee_fingerprints(program: &Program, callgraph: &CallGraph) -> Vec<u64> {
    program
        .methods
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut h = Fnv::new();
            for edge in callgraph.callees(MethodId(i as u32)) {
                let key = program.method(edge.callee).key;
                h.u32(edge.stmt.0)
                    .u32(u32::from(edge.implicit))
                    .str(program.symbols.resolve(key.class))
                    .str(program.symbols.resolve(key.name))
                    .str(program.symbols.resolve(key.sig));
            }
            h.finish()
        })
        .collect()
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
        let app = AnalyzedApp::new(manifest, program, &registry);
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
}
