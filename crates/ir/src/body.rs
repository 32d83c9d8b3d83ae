//! The Jimple-like 3-address IR: programs, classes, methods, and bodies.
//!
//! Every ADX instruction lifts to at most one IR statement; `invoke` +
//! `move-result` pairs fuse into a single assigning call. Statements are
//! the unit of all downstream analyses (CFG nodes, dataflow facts, slicing
//! criteria), mirroring how Soot's Jimple units drive FlowDroid.

use crate::symbols::{Interner, Symbol};
use nck_dex::{AccessFlags, BinOp, CondOp, InvokeKind, UnOp};
use std::collections::HashMap;

/// Index of a local variable within a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Index of a statement within a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl StmtId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a method within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Index of a class within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Fully qualified method identity: class, name, and signature descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodKey {
    /// Declaring class descriptor symbol (`Lcom/app/Main;`).
    pub class: Symbol,
    /// Simple name symbol (`onCreate`).
    pub name: Symbol,
    /// Signature descriptor symbol (`(Landroid/os/Bundle;)V`).
    pub sig: Symbol,
}

/// Fully qualified field identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldKey {
    /// Declaring class descriptor symbol.
    pub class: Symbol,
    /// Field name symbol.
    pub name: Symbol,
    /// Field type descriptor symbol.
    pub ty: Symbol,
}

/// A value operand: a local or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A local variable.
    Local(LocalId),
    /// An integer constant.
    IntConst(i64),
    /// A string constant.
    StrConst(Symbol),
    /// The `null` reference.
    Null,
    /// A class object constant.
    ClassConst(Symbol),
}

impl Operand {
    /// Returns the local if this operand is one.
    pub fn as_local(self) -> Option<LocalId> {
        match self {
            Operand::Local(l) => Some(l),
            _ => None,
        }
    }
}

/// The source of an identity statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdentityKind {
    /// The receiver of an instance method.
    This,
    /// The `i`-th declared parameter (receiver excluded).
    Param(u16),
    /// The exception caught at a handler entry.
    CaughtException,
}

/// A method call expression.
#[derive(Debug, Clone, PartialEq)]
pub struct InvokeExpr {
    /// Dispatch kind.
    pub kind: InvokeKind,
    /// Callee identity.
    pub callee: MethodKey,
    /// Arguments; the receiver is `args[0]` for non-static kinds.
    pub args: Vec<Operand>,
}

impl InvokeExpr {
    /// Returns the receiver operand for instance calls.
    pub fn receiver(&self) -> Option<Operand> {
        if self.kind.has_receiver() {
            self.args.first().copied()
        } else {
            None
        }
    }
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum Rvalue {
    /// A plain operand copy.
    Use(Operand),
    /// Binary operation.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Unary operation.
    UnOp {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Operand,
    },
    /// Checked cast.
    Cast {
        /// Target type descriptor symbol.
        ty: Symbol,
        /// Value being cast.
        op: Operand,
    },
    /// `instanceof` test.
    InstanceOf {
        /// Tested type descriptor symbol.
        ty: Symbol,
        /// Value being tested.
        op: Operand,
    },
    /// Object allocation.
    New {
        /// Allocated class descriptor symbol.
        ty: Symbol,
    },
    /// Array allocation.
    NewArray {
        /// Array type descriptor symbol.
        ty: Symbol,
        /// Length operand.
        len: Operand,
    },
    /// Instance field read.
    InstanceField {
        /// Base object.
        base: Operand,
        /// Field identity.
        field: FieldKey,
    },
    /// Static field read.
    StaticField {
        /// Field identity.
        field: FieldKey,
    },
    /// Array element read.
    ArrayElem {
        /// Array reference.
        array: Operand,
        /// Index operand.
        index: Operand,
    },
    /// Array length read.
    ArrayLength {
        /// Array reference.
        array: Operand,
    },
    /// Call with a result.
    Invoke(InvokeExpr),
}

impl Rvalue {
    /// Returns the operands read by this rvalue.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Rvalue::Use(o) | Rvalue::UnOp { a: o, .. } => vec![*o],
            Rvalue::BinOp { a, b, .. } => vec![*a, *b],
            Rvalue::Cast { op, .. } | Rvalue::InstanceOf { op, .. } => vec![*op],
            Rvalue::New { .. } | Rvalue::StaticField { .. } => vec![],
            Rvalue::NewArray { len, .. } => vec![*len],
            Rvalue::InstanceField { base, .. } => vec![*base],
            Rvalue::ArrayElem { array, index } => vec![*array, *index],
            Rvalue::ArrayLength { array } => vec![*array],
            Rvalue::Invoke(i) => i.args.clone(),
        }
    }

    /// Visits the operands read by this rvalue without allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        match self {
            Rvalue::Use(o) | Rvalue::UnOp { a: o, .. } => f(*o),
            Rvalue::BinOp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Rvalue::Cast { op, .. } | Rvalue::InstanceOf { op, .. } => f(*op),
            Rvalue::New { .. } | Rvalue::StaticField { .. } => {}
            Rvalue::NewArray { len, .. } => f(*len),
            Rvalue::InstanceField { base, .. } => f(*base),
            Rvalue::ArrayElem { array, index } => {
                f(*array);
                f(*index);
            }
            Rvalue::ArrayLength { array } => f(*array),
            Rvalue::Invoke(i) => {
                for &a in &i.args {
                    f(a);
                }
            }
        }
    }
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Parameter/receiver/exception binding at method or handler entry.
    Identity {
        /// Bound local.
        local: LocalId,
        /// What the local is bound to.
        kind: IdentityKind,
    },
    /// `local = rvalue`.
    Assign {
        /// Assigned local.
        local: LocalId,
        /// Right-hand side.
        rvalue: Rvalue,
    },
    /// A call whose result (if any) is discarded.
    Invoke(InvokeExpr),
    /// `base.field = value`.
    StoreInstanceField {
        /// Base object.
        base: Operand,
        /// Field identity.
        field: FieldKey,
        /// Stored value.
        value: Operand,
    },
    /// `Class.field = value`.
    StoreStaticField {
        /// Field identity.
        field: FieldKey,
        /// Stored value.
        value: Operand,
    },
    /// `array[index] = value`.
    StoreArrayElem {
        /// Array reference.
        array: Operand,
        /// Index operand.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// Conditional branch; falls through when the condition is false.
    If {
        /// Comparison operator.
        cond: CondOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Branch target when the condition holds.
        target: StmtId,
    },
    /// Unconditional branch.
    Goto {
        /// Branch target.
        target: StmtId,
    },
    /// Multi-way branch; falls through on no match.
    Switch {
        /// Key operand.
        key: Operand,
        /// `(key, target)` arms.
        arms: Vec<(i32, StmtId)>,
    },
    /// Method return.
    Return {
        /// Returned operand, or `None` for `void`.
        value: Option<Operand>,
    },
    /// Exception throw.
    Throw {
        /// Thrown operand.
        value: Operand,
    },
    /// No operation.
    Nop,
}

impl Stmt {
    /// Returns the local defined by this statement, if any.
    pub fn def(&self) -> Option<LocalId> {
        match self {
            Stmt::Identity { local, .. } | Stmt::Assign { local, .. } => Some(*local),
            _ => None,
        }
    }

    /// Returns the locals read by this statement.
    pub fn uses(&self) -> Vec<LocalId> {
        let ops: Vec<Operand> = match self {
            Stmt::Identity { .. } | Stmt::Nop | Stmt::Goto { .. } => vec![],
            Stmt::Assign { rvalue, .. } => rvalue.operands(),
            Stmt::Invoke(i) => i.args.clone(),
            Stmt::StoreInstanceField { base, value, .. } => vec![*base, *value],
            Stmt::StoreStaticField { value, .. } => vec![*value],
            Stmt::StoreArrayElem {
                array,
                index,
                value,
            } => vec![*array, *index, *value],
            Stmt::If { a, b, .. } => vec![*a, *b],
            Stmt::Switch { key, .. } => vec![*key],
            Stmt::Return { value } => value.iter().copied().collect(),
            Stmt::Throw { value } => vec![*value],
        };
        ops.into_iter().filter_map(Operand::as_local).collect()
    }

    /// Visits the locals read by this statement without allocating; the
    /// hot-path twin of [`Stmt::uses`], visiting in the same order.
    pub fn for_each_use(&self, mut f: impl FnMut(LocalId)) {
        let mut op = |o: Operand| {
            if let Some(l) = o.as_local() {
                f(l);
            }
        };
        match self {
            Stmt::Identity { .. } | Stmt::Nop | Stmt::Goto { .. } => {}
            Stmt::Assign { rvalue, .. } => rvalue.for_each_operand(op),
            Stmt::Invoke(i) => {
                for &a in &i.args {
                    op(a);
                }
            }
            Stmt::StoreInstanceField { base, value, .. } => {
                op(*base);
                op(*value);
            }
            Stmt::StoreStaticField { value, .. } => op(*value),
            Stmt::StoreArrayElem {
                array,
                index,
                value,
            } => {
                op(*array);
                op(*index);
                op(*value);
            }
            Stmt::If { a, b, .. } => {
                op(*a);
                op(*b);
            }
            Stmt::Switch { key, .. } => op(*key),
            Stmt::Return { value } => {
                if let Some(v) = value {
                    op(*v);
                }
            }
            Stmt::Throw { value } => op(*value),
        }
    }

    /// Returns the call expression if this is a call (with or without a
    /// result).
    pub fn invoke_expr(&self) -> Option<&InvokeExpr> {
        match self {
            Stmt::Invoke(i) => Some(i),
            Stmt::Assign {
                rvalue: Rvalue::Invoke(i),
                ..
            } => Some(i),
            _ => None,
        }
    }

    /// Returns `true` when control never falls through to the next
    /// statement.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Stmt::Return { .. } | Stmt::Throw { .. } | Stmt::Goto { .. }
        )
    }

    /// Returns the explicit branch targets.
    pub fn branch_targets(&self) -> Vec<StmtId> {
        match self {
            Stmt::Goto { target } | Stmt::If { target, .. } => vec![*target],
            Stmt::Switch { arms, .. } => arms.iter().map(|&(_, t)| t).collect(),
            _ => vec![],
        }
    }

    /// Returns `true` if executing the statement can raise an exception.
    pub fn can_throw(&self) -> bool {
        match self {
            Stmt::Invoke(_) | Stmt::Throw { .. } => true,
            Stmt::Assign { rvalue, .. } => matches!(
                rvalue,
                Rvalue::Invoke(_)
                    | Rvalue::New { .. }
                    | Rvalue::NewArray { .. }
                    | Rvalue::Cast { .. }
                    | Rvalue::InstanceField { .. }
                    | Rvalue::ArrayElem { .. }
                    | Rvalue::ArrayLength { .. }
                    | Rvalue::BinOp {
                        op: BinOp::Div | BinOp::Rem,
                        ..
                    }
            ),
            Stmt::StoreInstanceField { .. } | Stmt::StoreArrayElem { .. } => true,
            _ => false,
        }
    }
}

/// A declared local variable: local `i` is register `vi`. The pretty
/// printer names the receiver `this`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalDecl {
    /// Best-effort type descriptor symbol, when known.
    pub ty: Option<Symbol>,
}

/// One catch clause as a statement-range trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// First covered statement.
    pub start: StmtId,
    /// One past the last covered statement.
    pub end: StmtId,
    /// Caught exception type symbol, `None` for catch-all.
    pub exception: Option<Symbol>,
    /// Handler entry statement.
    pub handler: StmtId,
}

impl Trap {
    /// Returns `true` when `s` lies inside the covered range.
    pub fn covers(&self, s: StmtId) -> bool {
        self.start <= s && s < self.end
    }
}

/// A lifted method body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Body {
    /// Local declarations.
    pub locals: Vec<LocalDecl>,
    /// Statements in program order.
    pub stmts: Vec<Stmt>,
    /// Exception traps, one per catch clause, in original order.
    pub traps: Vec<Trap>,
}

impl Body {
    /// Returns the statement at `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.index()]
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Returns `true` for an empty body.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Iterates `(StmtId, &Stmt)` in program order.
    pub fn iter(&self) -> impl Iterator<Item = (StmtId, &Stmt)> {
        self.stmts
            .iter()
            .enumerate()
            .map(|(i, s)| (StmtId(i as u32), s))
    }

    /// Iterates the traps covering `s` in declaration order — the
    /// runtime's handler search order (compilers emit inner try ranges
    /// first, as the builder does). Allocation-free: CFG construction
    /// calls this for every throwing statement.
    pub fn traps_at(&self, s: StmtId) -> impl Iterator<Item = &Trap> {
        self.traps.iter().filter(move |t| t.covers(s))
    }
}

/// A lifted method.
///
/// The body is `Arc`-shared: bodies are immutable once lifted, and each
/// method's lazily built dataflow analyses hold the same body instead of
/// a deep copy of every statement.
#[derive(Debug, Clone)]
pub struct Method {
    /// Identity.
    pub key: MethodKey,
    /// Access flags carried over from the container.
    pub flags: AccessFlags,
    /// Body; `None` for abstract methods.
    pub body: Option<std::sync::Arc<Body>>,
}

/// A lifted class.
#[derive(Debug, Clone)]
pub struct Class {
    /// Class descriptor symbol.
    pub name: Symbol,
    /// Superclass descriptor symbol, when declared.
    pub superclass: Option<Symbol>,
    /// Implemented interface descriptor symbols.
    pub interfaces: Vec<Symbol>,
    /// Access flags.
    pub flags: AccessFlags,
    /// Declared fields.
    pub fields: Vec<FieldKey>,
    /// Declared methods (indices into [`Program::methods`]).
    pub methods: Vec<MethodId>,
}

/// A whole lifted program: the unit NChecker analyzes.
#[derive(Debug, Default, Clone)]
pub struct Program {
    /// Shared string interner for all names and descriptors.
    pub symbols: Interner,
    /// Classes defined in the app.
    pub classes: Vec<Class>,
    /// All methods of all classes.
    pub methods: Vec<Method>,
    class_map: HashMap<Symbol, ClassId>,
    method_map: HashMap<MethodKey, MethodId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class, indexing it by name.
    pub fn add_class(&mut self, class: Class) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.class_map.insert(class.name, id);
        self.classes.push(class);
        id
    }

    /// Adds a method, indexing it by key.
    pub fn add_method(&mut self, method: Method) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.method_map.insert(method.key, id);
        self.methods.push(method);
        id
    }

    /// Looks up a class by name symbol.
    pub fn class(&self, name: Symbol) -> Option<&Class> {
        self.class_map
            .get(&name)
            .map(|&id| &self.classes[id.0 as usize])
    }

    /// Returns the method with id `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.0 as usize]
    }

    /// Looks up a method id by its key.
    pub fn lookup_method(&self, key: MethodKey) -> Option<MethodId> {
        self.method_map.get(&key).copied()
    }

    /// Iterates `(MethodId, &Method)` over all methods.
    pub fn iter_methods(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId(i as u32), m))
    }

    /// Returns the superclass chain of `class` starting at the class itself
    /// and walking `extends` edges as far as classes defined in this program
    /// allow; the final element is the first type not defined here (e.g. a
    /// framework class) or the chain end.
    pub fn hierarchy(&self, class: Symbol) -> Vec<Symbol> {
        let mut chain = vec![class];
        let mut cur = class;
        let mut guard = 0;
        while let Some(c) = self.class(cur) {
            let Some(sup) = c.superclass else { break };
            chain.push(sup);
            cur = sup;
            guard += 1;
            if guard > 64 {
                break; // Defensive: malformed cyclic hierarchies.
            }
        }
        chain
    }

    /// Returns every interface implemented by `class` or any superclass
    /// defined in this program.
    pub fn all_interfaces(&self, class: Symbol) -> Vec<Symbol> {
        let mut out = Vec::new();
        for c in self.hierarchy(class) {
            if let Some(cls) = self.class(c) {
                out.extend(cls.interfaces.iter().copied());
            }
        }
        out
    }

    /// Renders a method key as `Lcls;.name(sig)` for diagnostics.
    pub fn display_method_key(&self, key: MethodKey) -> String {
        format!(
            "{}.{}{}",
            self.symbols.resolve(key.class),
            self.symbols.resolve(key.name),
            self.symbols.resolve(key.sig)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(p: &mut Program, s: &str) -> Symbol {
        p.symbols.intern(s)
    }

    #[test]
    fn stmt_def_use() {
        let s = Stmt::Assign {
            local: LocalId(0),
            rvalue: Rvalue::BinOp {
                op: BinOp::Add,
                a: Operand::Local(LocalId(1)),
                b: Operand::IntConst(3),
            },
        };
        assert_eq!(s.def(), Some(LocalId(0)));
        assert_eq!(s.uses(), vec![LocalId(1)]);
    }

    #[test]
    fn invoke_expr_accessible_from_both_forms() {
        let mut p = Program::new();
        let key = MethodKey {
            class: sym(&mut p, "La/B;"),
            name: sym(&mut p, "f"),
            sig: sym(&mut p, "()V"),
        };
        let inv = InvokeExpr {
            kind: InvokeKind::Virtual,
            callee: key,
            args: vec![Operand::Local(LocalId(0))],
        };
        let s1 = Stmt::Invoke(inv.clone());
        let s2 = Stmt::Assign {
            local: LocalId(1),
            rvalue: Rvalue::Invoke(inv),
        };
        assert!(s1.invoke_expr().is_some());
        assert!(s2.invoke_expr().is_some());
        assert_eq!(
            s2.invoke_expr().unwrap().receiver(),
            Some(Operand::Local(LocalId(0)))
        );
    }

    #[test]
    fn hierarchy_walks_defined_classes() {
        let mut p = Program::new();
        let a = sym(&mut p, "La/A;");
        let b = sym(&mut p, "La/B;");
        let act = sym(&mut p, "Landroid/app/Activity;");
        p.add_class(Class {
            name: b,
            superclass: Some(act),
            interfaces: vec![],
            flags: AccessFlags::PUBLIC,
            fields: vec![],
            methods: vec![],
        });
        p.add_class(Class {
            name: a,
            superclass: Some(b),
            interfaces: vec![],
            flags: AccessFlags::PUBLIC,
            fields: vec![],
            methods: vec![],
        });
        assert_eq!(p.hierarchy(a), vec![a, b, act]);
        // Framework class is opaque: chain stops there.
        assert_eq!(p.hierarchy(act), vec![act]);
    }

    #[test]
    fn traps_at_keeps_declaration_order() {
        // Inner ranges are declared first, like compilers emit them.
        let body = Body {
            locals: vec![],
            stmts: vec![Stmt::Nop, Stmt::Nop, Stmt::Nop],
            traps: vec![
                Trap {
                    start: StmtId(1),
                    end: StmtId(2),
                    exception: None,
                    handler: StmtId(2),
                },
                Trap {
                    start: StmtId(0),
                    end: StmtId(3),
                    exception: None,
                    handler: StmtId(2),
                },
            ],
        };
        let at1: Vec<&Trap> = body.traps_at(StmtId(1)).collect();
        assert_eq!(at1.len(), 2);
        assert_eq!(at1[0].start, StmtId(1), "inner (declared first) leads");
        assert_eq!(body.traps_at(StmtId(0)).count(), 1);
    }

    #[test]
    fn terminators_and_throwing() {
        assert!(Stmt::Return { value: None }.is_terminator());
        assert!(!Stmt::Nop.is_terminator());
        assert!(Stmt::Throw {
            value: Operand::Local(LocalId(0))
        }
        .can_throw());
        assert!(!Stmt::Goto { target: StmtId(0) }.can_throw());
    }
}
