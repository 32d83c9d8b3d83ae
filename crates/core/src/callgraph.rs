//! Android-aware call-graph construction (the FlowDroid role).
//!
//! Class-hierarchy-analysis edges for explicit calls, plus implicit
//! framework edges: `AsyncTask.execute` → `doInBackground`/`onPostExecute`,
//! `Thread.start` → `run`, `Handler.post(Runnable)` → `run` (§4.4, the
//! running example's dashed "callback" arrow in Figure 5).

use nck_android::callbacks::implicit_edges_for;
use nck_dataflow::{tarjan_sccs, BitSet};
use nck_ir::body::{MethodId, MethodKey, Operand, Program, StmtId};
use nck_ir::hierarchy::TypeIndex;
use nck_ir::symbols::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// One call edge: a statement in a caller resolving to a callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// The calling method.
    pub caller: MethodId,
    /// The call statement within the caller.
    pub stmt: StmtId,
    /// The resolved callee.
    pub callee: MethodId,
    /// `true` for framework-mediated (implicit) edges.
    pub implicit: bool,
}

/// The program call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per caller.
    out_edges: BTreeMap<MethodId, Vec<CallEdge>>,
    /// Incoming edges per callee.
    in_edges: BTreeMap<MethodId, Vec<CallEdge>>,
    /// Distinct virtual/interface keys CHA resolved.
    cha_keys: usize,
    /// Candidate subclasses CHA examined over those keys.
    cha_candidates: usize,
}

/// A read-only set of methods backed by a shared bitset.
///
/// Entry-reach sets used to be one `BTreeSet<MethodId>` per entry point,
/// recomputed by an independent BFS each. Entries whose methods sit in the
/// same call-graph component now share a single allocation via `Arc`, and
/// membership tests are O(1) bit probes.
#[derive(Debug, Clone)]
pub struct MethodSet {
    bits: Arc<BitSet>,
}

impl MethodSet {
    /// `true` when `m` is in the set.
    pub fn contains(&self, m: MethodId) -> bool {
        self.bits.contains(m.0 as usize)
    }

    /// Number of methods in the set.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.bits.iter().map(|i| MethodId(i as u32))
    }
}

/// Resolves a virtual/interface call key to program methods via CHA:
/// the statically named class (walking supertypes for inherited
/// implementations) plus every program subclass overriding the method.
/// Also returns how many candidate classes it examined.
fn resolve_virtual(program: &Program, types: &TypeIndex, key: MethodKey) -> (Vec<MethodId>, usize) {
    let mut out = Vec::new();
    // Walk up from the static receiver class for an inherited definition.
    for cls in types.chain(key.class) {
        if let Some(id) = program.lookup_method(MethodKey { class: cls, ..key }) {
            out.push(id);
            break;
        }
    }
    // Every subclass of the static class that defines the method.
    let subs = types.subtypes(key.class);
    for &cid in subs {
        let class = &program.classes[cid.0 as usize];
        if class.name == key.class {
            continue;
        }
        if let Some(id) = program.lookup_method(MethodKey {
            class: class.name,
            ..key
        }) {
            out.push(id);
        }
    }
    out.sort_unstable();
    out.dedup();
    (out, subs.len())
}

impl CallGraph {
    /// Builds the call graph of `program`, whose class hierarchy `types`
    /// indexes.
    pub fn build(program: &Program, types: &TypeIndex) -> CallGraph {
        let mut cg = CallGraph::default();
        // Apps invoke the same (class, name, sig) key from many sites, so
        // memoize the CHA resolution per key for the duration of the build.
        let mut virt_cache: HashMap<MethodKey, Vec<MethodId>> = HashMap::new();

        for (caller, method) in program.iter_methods() {
            let Some(body) = &method.body else { continue };
            for (stmt_id, stmt) in body.iter() {
                let Some(inv) = stmt.invoke_expr() else {
                    continue;
                };
                let key = inv.callee;

                // Explicit edges.
                let callees: Vec<MethodId> = match inv.kind {
                    nck_dex::InvokeKind::Static | nck_dex::InvokeKind::Direct => {
                        program.lookup_method(key).into_iter().collect()
                    }
                    nck_dex::InvokeKind::Super => {
                        // Look strictly above the caller's class.
                        let found = types
                            .chain(method.key.class)
                            .skip(1)
                            .find_map(|cls| program.lookup_method(MethodKey { class: cls, ..key }));
                        found.into_iter().collect()
                    }
                    nck_dex::InvokeKind::Virtual | nck_dex::InvokeKind::Interface => virt_cache
                        .entry(key)
                        .or_insert_with(|| {
                            let (callees, candidates) = resolve_virtual(program, types, key);
                            cg.cha_keys += 1;
                            cg.cha_candidates += candidates;
                            callees
                        })
                        .clone(),
                };
                for callee in callees {
                    cg.add_edge(CallEdge {
                        caller,
                        stmt: stmt_id,
                        callee,
                        implicit: false,
                    });
                }

                // Implicit framework edges.
                let name = program.symbols.resolve(key.name);
                for rule in implicit_edges_for(name) {
                    let flow_class: Option<Symbol> = if rule.via_argument {
                        // The flow target is the first non-receiver arg;
                        // use its local's type hint.
                        let arg_pos = usize::from(inv.kind.has_receiver());
                        inv.args.get(arg_pos).and_then(|op| match op {
                            Operand::Local(l) => body.locals.get(l.0 as usize)?.ty,
                            _ => None,
                        })
                    } else {
                        Some(key.class)
                    };
                    let Some(flow_class) = flow_class else {
                        continue;
                    };
                    // The receiver (or argument) class must extend the
                    // rule's trigger class.
                    let trigger_matches = if rule.via_argument {
                        // For Runnable-like arguments, require the target
                        // class to define `run` etc.; the interface check
                        // is implicit in the lookup below.
                        true
                    } else {
                        // A trigger class the app never names is nobody's
                        // supertype.
                        program
                            .symbols
                            .get(rule.trigger_class)
                            .is_some_and(|base| types.is_subtype(flow_class, base))
                    };
                    if !trigger_matches {
                        continue;
                    }
                    for &(tname, tsig) in rule.targets {
                        // Look for the target on the flow class or any
                        // superclass defined in the program.
                        for cls in types.chain(flow_class) {
                            let Some(name_sym) = program.symbols.get(tname) else {
                                continue;
                            };
                            let Some(sig_sym) = program.symbols.get(tsig) else {
                                continue;
                            };
                            let tkey = MethodKey {
                                class: cls,
                                name: name_sym,
                                sig: sig_sym,
                            };
                            if let Some(callee) = program.lookup_method(tkey) {
                                cg.add_edge(CallEdge {
                                    caller,
                                    stmt: stmt_id,
                                    callee,
                                    implicit: true,
                                });
                                break;
                            }
                        }
                    }
                }
            }
        }

        cg
    }

    fn add_edge(&mut self, edge: CallEdge) {
        // CHA and the implicit-edge rules can derive the same edge more
        // than once (e.g. a target reachable both as an override and an
        // inherited definition); keep the edge lists duplicate-free so
        // downstream traversals never visit a callee twice per site.
        let out = self.out_edges.entry(edge.caller).or_default();
        if out.contains(&edge) {
            return;
        }
        out.push(edge);
        self.in_edges.entry(edge.callee).or_default().push(edge);
    }

    /// Outgoing edges of `caller`.
    pub fn callees(&self, caller: MethodId) -> &[CallEdge] {
        self.out_edges
            .get(&caller)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Incoming edges of `callee`.
    pub fn callers(&self, callee: MethodId) -> &[CallEdge] {
        self.in_edges.get(&callee).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Callees of one specific call statement, yielded lazily (no
    /// per-query allocation).
    pub fn callees_at(
        &self,
        caller: MethodId,
        stmt: StmtId,
    ) -> impl Iterator<Item = MethodId> + '_ {
        self.callees(caller)
            .iter()
            .filter(move |e| e.stmt == stmt)
            .map(|e| e.callee)
    }

    /// Methods reachable from `entry` (inclusive).
    pub fn reachable_from(&self, entry: MethodId) -> BTreeSet<MethodId> {
        let mut seen = BTreeSet::from([entry]);
        let mut queue = VecDeque::from([entry]);
        while let Some(m) = queue.pop_front() {
            for e in self.callees(m) {
                if seen.insert(e.callee) {
                    queue.push_back(e.callee);
                }
            }
        }
        seen
    }

    /// Reachable-method sets for every entry at once (each inclusive of
    /// its entry), replacing one independent BFS per entry.
    ///
    /// The graph is condensed with Tarjan (components emitted
    /// callees-first), then per-component reach bitsets are built
    /// bottom-up: reach(c) = members(c) ∪ ⋃ reach(callee components).
    /// All methods of one SCC are mutually reachable, so every entry in a
    /// component — and every entry in distinct components with identical
    /// closures — shares the same `Arc`'d bitset.
    pub fn entry_reach_sets(&self, entries: &[MethodId], n_methods: usize) -> Vec<MethodSet> {
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n_methods];
        for (caller, edges) in &self.out_edges {
            let slot = &mut succs[caller.0 as usize];
            slot.extend(edges.iter().map(|e| e.callee.0 as usize));
            slot.sort_unstable();
            slot.dedup();
        }
        let components = tarjan_sccs(n_methods, &succs);
        let mut comp_of = vec![0usize; n_methods];
        for (ci, comp) in components.iter().enumerate() {
            for &m in comp {
                comp_of[m] = ci;
            }
        }
        // Callees-first emission order means every callee component's
        // reach set exists by the time its callers are processed.
        let mut reach: Vec<Arc<BitSet>> = Vec::with_capacity(components.len());
        for (ci, comp) in components.iter().enumerate() {
            let mut callee_comps: Vec<usize> = comp
                .iter()
                .flat_map(|&m| succs[m].iter().map(|&t| comp_of[t]))
                .filter(|&cj| cj != ci)
                .collect();
            callee_comps.sort_unstable();
            callee_comps.dedup();
            let mut bits = BitSet::new(n_methods);
            for &m in comp {
                bits.insert(m);
            }
            for cj in callee_comps {
                bits.union_with(&reach[cj]);
            }
            reach.push(Arc::new(bits));
        }
        entries
            .iter()
            .map(|e| MethodSet {
                bits: Arc::clone(&reach[comp_of[e.0 as usize]]),
            })
            .collect()
    }

    /// Finds one call path `entry → ... → target` as a list of edges, BFS
    /// (shortest by hops). Returns `None` when unreachable.
    pub fn path(&self, entry: MethodId, target: MethodId) -> Option<Vec<CallEdge>> {
        if entry == target {
            return Some(vec![]);
        }
        let mut parent: HashMap<MethodId, CallEdge> = HashMap::new();
        let mut queue = VecDeque::from([entry]);
        let mut seen = BTreeSet::from([entry]);
        while let Some(m) = queue.pop_front() {
            for &e in self.callees(m) {
                if seen.insert(e.callee) {
                    parent.insert(e.callee, e);
                    if e.callee == target {
                        let mut path = vec![e];
                        let mut cur = m;
                        while cur != entry {
                            let pe = parent[&cur];
                            path.push(pe);
                            cur = pe.caller;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(e.callee);
                }
            }
        }
        None
    }

    /// Distinct virtual/interface call keys CHA resolved.
    pub fn cha_keys(&self) -> usize {
        self.cha_keys
    }

    /// Candidate subclasses CHA examined, summed over its keys: the
    /// length of each key's subtype list, where a scan of every program
    /// class would examine them all.
    pub fn cha_candidates(&self) -> usize {
        self.cha_candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;
    use nck_ir::lift_file;

    fn program_of(build: impl FnOnce(&mut AdxBuilder)) -> Program {
        let mut b = AdxBuilder::new();
        build(&mut b);
        lift_file(&b.finish().unwrap()).unwrap()
    }

    fn method_named(p: &Program, class: &str, name: &str) -> MethodId {
        p.iter_methods()
            .find(|(_, m)| {
                p.symbols.resolve(m.key.class) == class && p.symbols.resolve(m.key.name) == name
            })
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no method {class}.{name}"))
    }

    #[test]
    fn direct_call_edges() {
        let p = program_of(|b| {
            b.class("La/A;", |c| {
                c.method("f", "()V", AccessFlags::PUBLIC, 2, |m| {
                    m.invoke_virtual("La/A;", "g", "()V", &[m.param(0).unwrap()]);
                    m.ret(None);
                });
                c.method("g", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
        });
        let cg = CallGraph::build(&p, &TypeIndex::build(&p));
        let f = method_named(&p, "La/A;", "f");
        let g = method_named(&p, "La/A;", "g");
        assert_eq!(cg.callees(f).len(), 1);
        assert_eq!(cg.callees(f)[0].callee, g);
        assert_eq!(cg.callers(g).len(), 1);
        assert!(cg.reachable_from(f).contains(&g));
    }

    #[test]
    fn virtual_dispatch_includes_overrides() {
        let p = program_of(|b| {
            b.class("La/Base;", |c| {
                c.method("work", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
            b.class("La/Derived;", |c| {
                c.super_class("La/Base;");
                c.method("work", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
            b.class("La/User;", |c| {
                c.method("use", "()V", AccessFlags::PUBLIC, 2, |m| {
                    // Static type Base: CHA must include Derived.work too.
                    m.invoke_virtual("La/Base;", "work", "()V", &[m.reg(0)]);
                    m.ret(None);
                });
            });
        });
        let cg = CallGraph::build(&p, &TypeIndex::build(&p));
        let use_ = method_named(&p, "La/User;", "use");
        assert_eq!(cg.callees(use_).len(), 2);
        // One virtual key; its candidates are Base and Derived, not User.
        assert_eq!((cg.cha_keys(), cg.cha_candidates()), (1, 2));
    }

    #[test]
    fn inherited_method_resolves_to_superclass_definition() {
        let p = program_of(|b| {
            b.class("La/Base;", |c| {
                c.method("work", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
            b.class("La/Derived;", |c| {
                c.super_class("La/Base;");
                c.method("other", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
            b.class("La/User;", |c| {
                c.method("use", "()V", AccessFlags::PUBLIC, 2, |m| {
                    m.invoke_virtual("La/Derived;", "work", "()V", &[m.reg(0)]);
                    m.ret(None);
                });
            });
        });
        let cg = CallGraph::build(&p, &TypeIndex::build(&p));
        let use_ = method_named(&p, "La/User;", "use");
        let base_work = method_named(&p, "La/Base;", "work");
        assert_eq!(cg.callees(use_).len(), 1);
        assert_eq!(cg.callees(use_)[0].callee, base_work);
    }

    #[test]
    fn async_task_execute_adds_implicit_edges() {
        let p = program_of(|b| {
            b.class("Lapp/FetchTask;", |c| {
                c.super_class("Landroid/os/AsyncTask;");
                c.method(
                    "doInBackground",
                    "([Ljava/lang/Object;)Ljava/lang/Object;",
                    AccessFlags::PUBLIC,
                    4,
                    |m| {
                        m.const_null(m.reg(0));
                        m.ret(Some(m.reg(0)));
                    },
                );
                c.method(
                    "onPostExecute",
                    "(Ljava/lang/Object;)V",
                    AccessFlags::PUBLIC,
                    4,
                    |m| m.ret(None),
                );
            });
            b.class("Lapp/Main;", |c| {
                c.method(
                    "onClick",
                    "(Landroid/view/View;)V",
                    AccessFlags::PUBLIC,
                    4,
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
        let cg = CallGraph::build(&p, &TypeIndex::build(&p));
        let onclick = method_named(&p, "Lapp/Main;", "onClick");
        let dib = method_named(&p, "Lapp/FetchTask;", "doInBackground");
        let ope = method_named(&p, "Lapp/FetchTask;", "onPostExecute");
        let reach = cg.reachable_from(onclick);
        assert!(reach.contains(&dib), "execute() must reach doInBackground");
        assert!(reach.contains(&ope), "execute() must reach onPostExecute");
        assert!(cg
            .callees(onclick)
            .iter()
            .any(|e| e.implicit && e.callee == dib));
    }

    #[test]
    fn handler_post_flows_to_runnable_run() {
        let p = program_of(|b| {
            b.class("Lapp/Job;", |c| {
                c.interface("Ljava/lang/Runnable;");
                c.method("run", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
            b.class("Lapp/Main;", |c| {
                c.method("go", "()V", AccessFlags::PUBLIC, 4, |m| {
                    m.new_instance(m.reg(0), "Landroid/os/Handler;");
                    m.invoke_direct("Landroid/os/Handler;", "<init>", "()V", &[m.reg(0)]);
                    m.new_instance(m.reg(1), "Lapp/Job;");
                    m.invoke_direct("Lapp/Job;", "<init>", "()V", &[m.reg(1)]);
                    m.invoke_virtual(
                        "Landroid/os/Handler;",
                        "post",
                        "(Ljava/lang/Runnable;)Z",
                        &[m.reg(0), m.reg(1)],
                    );
                    m.ret(None);
                });
            });
        });
        let cg = CallGraph::build(&p, &TypeIndex::build(&p));
        let go = method_named(&p, "Lapp/Main;", "go");
        let run = method_named(&p, "Lapp/Job;", "run");
        assert!(cg.reachable_from(go).contains(&run));
    }

    #[test]
    fn edges_are_deduplicated_per_site() {
        // Base defines run(); Job overrides it AND inherits the slot, so
        // naive CHA resolution can surface Job.run twice for one call.
        let p = program_of(|b| {
            b.class("La/Base;", |c| {
                c.method("run", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
            b.class("La/Job;", |c| {
                c.super_class("La/Base;");
                c.method("run", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
            b.class("La/User;", |c| {
                c.method("use", "()V", AccessFlags::PUBLIC, 2, |m| {
                    m.invoke_virtual("La/Base;", "run", "()V", &[m.reg(0)]);
                    m.invoke_virtual("La/Base;", "run", "()V", &[m.reg(0)]);
                    m.ret(None);
                });
            });
        });
        let cg = CallGraph::build(&p, &TypeIndex::build(&p));
        let use_ = method_named(&p, "La/User;", "use");
        let mut seen = std::collections::BTreeSet::new();
        for e in cg.callees(use_) {
            assert!(
                seen.insert((e.stmt, e.callee, e.implicit)),
                "duplicate edge at {:?} -> {:?}",
                e.stmt,
                e.callee
            );
        }
        // Each of the two call sites resolves to both implementations.
        let first_site = cg.callees(use_)[0].stmt;
        assert_eq!(cg.callees_at(use_, first_site).count(), 2);
    }

    #[test]
    fn path_reconstruction() {
        let p = program_of(|b| {
            b.class("La/A;", |c| {
                c.method("a", "()V", AccessFlags::PUBLIC, 2, |m| {
                    m.invoke_virtual("La/A;", "b", "()V", &[m.param(0).unwrap()]);
                    m.ret(None);
                });
                c.method("b", "()V", AccessFlags::PUBLIC, 2, |m| {
                    m.invoke_virtual("La/A;", "c", "()V", &[m.param(0).unwrap()]);
                    m.ret(None);
                });
                c.method("c", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
            });
        });
        let cg = CallGraph::build(&p, &TypeIndex::build(&p));
        let a = method_named(&p, "La/A;", "a");
        let c = method_named(&p, "La/A;", "c");
        let path = cg.path(a, c).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].caller, a);
        assert_eq!(path[1].callee, c);
        assert!(cg.path(c, a).is_none());
    }
}
