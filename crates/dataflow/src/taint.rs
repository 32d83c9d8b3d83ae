//! Object-flow (taint) analysis over one method body.
//!
//! This is the engine behind NChecker's config-API detection (§4.4.1):
//! taint the HTTP client object at the target API call site, propagate
//! *backward* to its creation site, then *forward* through every alias, and
//! collect all methods invoked on the tainted object. The implementation
//! computes the may-alias closure of a seed local over copies, casts,
//! field loads/stores, and (optionally) fluent-builder returns, then reads
//! the facts off the closure.

use nck_ir::body::{Body, FieldKey, LocalId, Operand, Rvalue, Stmt, StmtId};
use nck_ir::symbols::DenseInterner;
use std::collections::BTreeSet;

/// Options controlling object-flow propagation.
#[derive(Debug, Clone, Copy)]
pub struct FlowOptions {
    /// Treat `x = tainted.m(...)` as also tainting `x` (fluent builders
    /// returning `this`). Matches how the paper's taint records config
    /// methods in OkHttp-style chains.
    pub fluent_returns: bool,
    /// Propagate through instance and static fields (field-insensitively
    /// by [`FieldKey`]).
    pub through_fields: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            fluent_returns: true,
            through_fields: true,
        }
    }
}

/// The result of an object-flow query.
#[derive(Debug, Clone, Default)]
pub struct ObjectFlow {
    /// Locals that may alias the seed object.
    pub locals: BTreeSet<LocalId>,
    /// Field keys that may hold the seed object.
    pub fields: BTreeSet<FieldKey>,
    /// Statements that create the object (`new` or factory-call results).
    pub alloc_sites: Vec<StmtId>,
    /// Call statements whose receiver may be the object.
    pub invoked_on: Vec<StmtId>,
}

/// A growable union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Computes the object-flow closure of `seed` within `body`.
///
/// Every propagation rule of the closure is bidirectional (copies, casts,
/// field loads *and* stores, fluent dst↔receiver), so the may-alias
/// closure is exactly the connected component of `seed` in the graph of
/// those edges. One union-find pass over the body replaces the old
/// whole-body rescan fixpoint: the component is order-independent, so the
/// resulting sets are identical.
pub fn object_flow(body: &Body, seed: LocalId, opts: FlowOptions) -> ObjectFlow {
    let n_locals = body.locals.len().max(seed.0 as usize + 1);
    // Dense node space: locals first, fields appended on first sight.
    let mut uf = UnionFind::new(n_locals);
    let mut fields: DenseInterner<FieldKey> = DenseInterner::new();
    let field_node = |uf: &mut UnionFind, fields: &mut DenseInterner<FieldKey>, f: &FieldKey| {
        match fields.get(f) {
            Some(id) => n_locals as u32 + id,
            None => {
                fields.intern(f);
                uf.push()
            }
        }
    };

    for (_, stmt) in body.iter() {
        match stmt {
            Stmt::Assign { local, rvalue } => match rvalue {
                Rvalue::Use(Operand::Local(src))
                | Rvalue::Cast {
                    op: Operand::Local(src),
                    ..
                } => uf.union(local.0, src.0),
                Rvalue::InstanceField { field, .. } | Rvalue::StaticField { field }
                    if opts.through_fields =>
                {
                    let fnode = field_node(&mut uf, &mut fields, field);
                    uf.union(local.0, fnode);
                }
                Rvalue::Invoke(inv) if opts.fluent_returns => {
                    if let Some(Operand::Local(recv)) = inv.receiver() {
                        uf.union(local.0, recv.0);
                    }
                }
                _ => {}
            },
            Stmt::StoreInstanceField { field, value, .. }
            | Stmt::StoreStaticField { field, value }
                if opts.through_fields =>
            {
                if let Operand::Local(v) = value {
                    let fnode = field_node(&mut uf, &mut fields, field);
                    uf.union(v.0, fnode);
                }
            }
            _ => {}
        }
    }

    let root = uf.find(seed.0);
    let mut flow = ObjectFlow::default();
    for l in 0..body.locals.len().max(seed.0 as usize + 1) as u32 {
        if uf.find(l) == root {
            flow.locals.insert(LocalId(l));
        }
    }
    for (i, f) in fields.items().iter().enumerate() {
        if uf.find((n_locals + i) as u32) == root {
            flow.fields.insert(*f);
        }
    }

    // Read the derived facts off the closure.
    for (id, stmt) in body.iter() {
        if let Stmt::Assign { local, rvalue } = stmt {
            if flow.locals.contains(local) {
                match rvalue {
                    Rvalue::New { .. } | Rvalue::NewArray { .. } => flow.alloc_sites.push(id),
                    Rvalue::Invoke(inv) => {
                        // A call result assigned to an alias is a creation
                        // site unless it is a fluent return of the object
                        // itself.
                        let self_returning = matches!(
                            inv.receiver(),
                            Some(Operand::Local(r)) if flow.locals.contains(&r)
                        );
                        if !self_returning {
                            flow.alloc_sites.push(id);
                        }
                    }
                    _ => {}
                }
            }
        }
        if let Some(inv) = stmt.invoke_expr() {
            if let Some(Operand::Local(recv)) = inv.receiver() {
                if flow.locals.contains(&recv) {
                    flow.invoked_on.push(id);
                }
            }
        }
    }

    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;
    use nck_ir::lift::lift_file;
    use nck_ir::Program;

    /// Builds `Lapp/T;.run()V` from `emit` and returns the lifted program.
    fn lift(emit: impl FnOnce(&mut nck_dex::builder::CodeBuilder<'_>)) -> Program {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            c.method("run", "()V", AccessFlags::PUBLIC, 8, emit);
        });
        lift_file(&b.finish().unwrap()).unwrap()
    }

    /// The object flow seeded at register `seed` (`"v0"`, `"v1"`, ...).
    fn flow_of(p: &Program, seed: &str) -> ObjectFlow {
        let body = p.methods[0].body.as_ref().unwrap();
        let reg: u32 = seed[1..].parse().expect("a register name");
        assert!((reg as usize) < body.locals.len(), "seed local");
        object_flow(body, LocalId(reg), FlowOptions::default())
    }

    #[test]
    fn backward_to_allocation_forward_to_config_calls() {
        // c = new Client; c.setMaxRetries(5); r = c.get(url);
        // Seeding the receiver of get() must find the alloc and the config
        // call.
        let p = lift(|m| {
            let c = m.reg(0);
            let five = m.reg(1);
            m.new_instance(c, "Lnet/Client;");
            m.invoke_direct("Lnet/Client;", "<init>", "()V", &[c]);
            m.const_int(five, 5);
            m.invoke_virtual("Lnet/Client;", "setMaxRetries", "(I)V", &[c, five]);
            m.invoke_virtual("Lnet/Client;", "get", "()V", &[c]);
            m.ret(None);
        });
        let flow = flow_of(&p, "v0");
        assert_eq!(flow.alloc_sites.len(), 1);
        // init, setMaxRetries, get all invoked on the object.
        assert_eq!(flow.invoked_on.len(), 3);
    }

    #[test]
    fn aliases_through_copies() {
        let p = lift(|m| {
            let c = m.reg(0);
            let d = m.reg(1);
            m.new_instance(c, "Lnet/Client;");
            m.invoke_direct("Lnet/Client;", "<init>", "()V", &[c]);
            m.mov(d, c);
            m.invoke_virtual("Lnet/Client;", "setTimeout", "(I)V", &[d, m.reg(2)]);
            m.ret(None);
        });
        let flow = flow_of(&p, "v0");
        assert!(flow.locals.contains(&LocalId(1)));
        assert_eq!(flow.invoked_on.len(), 2);
    }

    #[test]
    fn fields_carry_the_object_across_statements() {
        // this.client = c; ... d = this.client; d.get()
        let p = lift(|m| {
            let this = m.param(0).unwrap();
            let c = m.reg(0);
            let d = m.reg(1);
            m.new_instance(c, "Lnet/Client;");
            m.invoke_direct("Lnet/Client;", "<init>", "()V", &[c]);
            m.iput(c, this, "Lapp/T;", "client", "Lnet/Client;");
            m.iget(d, this, "Lapp/T;", "client", "Lnet/Client;");
            m.invoke_virtual("Lnet/Client;", "get", "()V", &[d]);
            m.ret(None);
        });
        let flow = flow_of(&p, "v1");
        assert_eq!(flow.fields.len(), 1);
        assert_eq!(flow.alloc_sites.len(), 1);
    }

    #[test]
    fn fluent_builder_chain_links_receivers() {
        // b = new Builder; b2 = b.timeout(…); b2.build()
        let p = lift(|m| {
            let b = m.reg(0);
            let b2 = m.reg(1);
            m.new_instance(b, "Lnet/Builder;");
            m.invoke_direct("Lnet/Builder;", "<init>", "()V", &[b]);
            m.invoke_virtual(
                "Lnet/Builder;",
                "timeout",
                "(I)Lnet/Builder;",
                &[b, m.reg(2)],
            );
            m.move_result(b2);
            m.invoke_virtual("Lnet/Builder;", "build", "()V", &[b2]);
            m.ret(None);
        });
        let flow = flow_of(&p, "v1");
        assert!(flow.locals.contains(&LocalId(0)));
        assert_eq!(flow.alloc_sites.len(), 1);
        assert_eq!(flow.invoked_on.len(), 3);
    }

    #[test]
    fn factory_result_is_an_alloc_site() {
        let p = lift(|m| {
            let q = m.reg(0);
            m.invoke_static(
                "Lcom/android/volley/toolbox/Volley;",
                "newRequestQueue",
                "()Lcom/android/volley/RequestQueue;",
                &[],
            );
            m.move_result(q);
            m.invoke_virtual("Lcom/android/volley/RequestQueue;", "add", "()V", &[q]);
            m.ret(None);
        });
        let flow = flow_of(&p, "v0");
        assert_eq!(flow.alloc_sites.len(), 1);
        assert_eq!(flow.invoked_on.len(), 1);
    }

    #[test]
    fn unrelated_objects_stay_untainted() {
        let p = lift(|m| {
            let c = m.reg(0);
            let other = m.reg(1);
            m.new_instance(c, "Lnet/Client;");
            m.invoke_direct("Lnet/Client;", "<init>", "()V", &[c]);
            m.new_instance(other, "Lnet/Other;");
            m.invoke_direct("Lnet/Other;", "<init>", "()V", &[other]);
            m.invoke_virtual("Lnet/Other;", "doThing", "()V", &[other]);
            m.invoke_virtual("Lnet/Client;", "get", "()V", &[c]);
            m.ret(None);
        });
        let flow = flow_of(&p, "v0");
        assert!(!flow.locals.contains(&LocalId(1)));
        assert_eq!(flow.invoked_on.len(), 2); // <init> and get on v0 only.
        assert_eq!(flow.alloc_sites.len(), 1);
    }
}
