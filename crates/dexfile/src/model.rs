//! The ADX file model: classes, fields, methods, code items, and traps.

use crate::insn::Insn;
use crate::pool::{FieldIdx, MethodIdx, Pools, TypeIdx};

/// Access and kind flags for classes, fields, and methods.
///
/// The numeric values match the JVM/DEX `access_flags` encoding for the
/// subset we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessFlags(pub u32);

impl AccessFlags {
    /// `public` visibility.
    pub const PUBLIC: AccessFlags = AccessFlags(0x1);
    /// `private` visibility.
    pub const PRIVATE: AccessFlags = AccessFlags(0x2);
    /// `protected` visibility.
    pub const PROTECTED: AccessFlags = AccessFlags(0x4);
    /// `static` member.
    pub const STATIC: AccessFlags = AccessFlags(0x8);
    /// `final` class or member.
    pub const FINAL: AccessFlags = AccessFlags(0x10);
    /// `interface` class.
    pub const INTERFACE: AccessFlags = AccessFlags(0x200);
    /// `abstract` class or method (no code item).
    pub const ABSTRACT: AccessFlags = AccessFlags(0x400);
    /// Synthetic (compiler-generated) member.
    pub const SYNTHETIC: AccessFlags = AccessFlags(0x1000);
    /// Constructor method.
    pub const CONSTRUCTOR: AccessFlags = AccessFlags(0x10000);

    /// Returns `true` if every bit of `flag` is set in `self`.
    pub fn contains(self, flag: AccessFlags) -> bool {
        self.0 & flag.0 == flag.0
    }

    /// Returns the union of two flag sets.
    pub fn union(self, other: AccessFlags) -> AccessFlags {
        AccessFlags(self.0 | other.0)
    }
}

impl std::ops::BitOr for AccessFlags {
    type Output = AccessFlags;

    fn bitor(self, rhs: AccessFlags) -> AccessFlags {
        self.union(rhs)
    }
}

/// An exception table entry covering a half-open range of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TryBlock {
    /// First covered instruction index.
    pub start: u32,
    /// One past the last covered instruction index.
    pub end: u32,
    /// Catch clauses in declaration order.
    pub handlers: Vec<CatchHandler>,
}

impl TryBlock {
    /// Returns `true` if instruction index `pc` is covered by this range.
    pub fn covers(&self, pc: u32) -> bool {
        self.start <= pc && pc < self.end
    }
}

/// A single catch clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchHandler {
    /// Caught exception type, or `None` for a catch-all.
    pub exception: Option<TypeIdx>,
    /// Handler entry instruction index.
    pub target: u32,
}

/// The executable body of a concrete method.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CodeItem {
    /// Total number of virtual registers in the frame.
    pub registers: u16,
    /// Number of incoming parameter registers (including the receiver for
    /// instance methods). Parameters occupy the *last* `ins` registers.
    pub ins: u16,
    /// The instruction stream.
    pub insns: Vec<Insn>,
    /// Exception table.
    pub tries: Vec<TryBlock>,
}

impl CodeItem {
    /// Returns the register holding parameter `i` (0-based; for instance
    /// methods parameter 0 is the receiver).
    ///
    /// Returns `None` when `i` is out of range for the declared `ins`,
    /// or when the frame lies (`ins > registers`) and no parameter
    /// register exists at all — adversarial inputs can declare such
    /// frames, and this accessor must stay total on them.
    pub fn param_reg(&self, i: u16) -> Option<crate::insn::Reg> {
        if i >= self.ins {
            return None;
        }
        let base = self.registers.checked_sub(self.ins)?;
        Some(crate::insn::Reg(base + i))
    }

    /// Returns the try blocks covering instruction index `pc` in
    /// declaration order — the runtime's handler search order (inner
    /// ranges are emitted first).
    pub fn traps_at(&self, pc: u32) -> Vec<&TryBlock> {
        self.tries.iter().filter(|t| t.covers(pc)).collect()
    }
}

/// A field definition inside a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDef {
    /// Reference into the field pool.
    pub field: FieldIdx,
    /// Access flags.
    pub flags: AccessFlags,
}

/// A method definition inside a class.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDef {
    /// Reference into the method pool.
    pub method: MethodIdx,
    /// Access flags.
    pub flags: AccessFlags,
    /// Body, absent for `abstract`/`native` methods.
    pub code: Option<CodeItem>,
}

/// A class definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// This class's type.
    pub ty: TypeIdx,
    /// Superclass type, `None` only for the root object type.
    pub superclass: Option<TypeIdx>,
    /// Implemented interface types.
    pub interfaces: Vec<TypeIdx>,
    /// Access flags.
    pub flags: AccessFlags,
    /// Declared fields.
    pub fields: Vec<FieldDef>,
    /// Declared methods.
    pub methods: Vec<MethodDef>,
}

/// A complete ADX file: pools plus class definitions.
///
/// This is the in-memory form of the binary container produced by
/// [`write`](crate::write::write_adx) and consumed by
/// [`read`](crate::read::read_adx).
#[derive(Debug, Clone, Default)]
pub struct AdxFile {
    /// Constant pools.
    pub pools: Pools,
    /// Class definitions, in file order.
    pub classes: Vec<ClassDef>,
}

impl AdxFile {
    /// Creates an empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a class definition by its descriptor string.
    pub fn class_by_name(&self, descriptor: &str) -> Option<&ClassDef> {
        self.classes
            .iter()
            .find(|c| self.pools.get_type(c.ty) == Some(descriptor))
    }

    /// Iterates over every concrete (code-bearing) method in the file.
    pub fn concrete_methods(&self) -> impl Iterator<Item = (&ClassDef, &MethodDef, &CodeItem)> {
        self.classes.iter().flat_map(|c| {
            c.methods
                .iter()
                .filter_map(move |m| m.code.as_ref().map(|code| (c, m, code)))
        })
    }

    /// Returns the total number of instructions across all methods.
    pub fn insn_count(&self) -> usize {
        self.concrete_methods().map(|(_, _, c)| c.insns.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Reg;

    #[test]
    fn access_flags_compose() {
        let f = AccessFlags::PUBLIC | AccessFlags::STATIC;
        assert!(f.contains(AccessFlags::PUBLIC));
        assert!(f.contains(AccessFlags::STATIC));
        assert!(!f.contains(AccessFlags::FINAL));
    }

    #[test]
    fn param_registers_are_trailing() {
        let code = CodeItem {
            registers: 6,
            ins: 2,
            insns: vec![],
            tries: vec![],
        };
        assert_eq!(code.param_reg(0), Some(Reg(4)));
        assert_eq!(code.param_reg(1), Some(Reg(5)));
        assert_eq!(code.param_reg(2), None);
    }

    #[test]
    fn try_block_coverage() {
        let t = TryBlock {
            start: 2,
            end: 5,
            handlers: vec![],
        };
        assert!(!t.covers(1));
        assert!(t.covers(2));
        assert!(t.covers(4));
        assert!(!t.covers(5));
    }

    #[test]
    fn traps_at_returns_declaration_order() {
        let inner = TryBlock {
            start: 2,
            end: 5,
            handlers: vec![],
        };
        let outer = TryBlock {
            start: 0,
            end: 10,
            handlers: vec![],
        };
        let code = CodeItem {
            registers: 1,
            ins: 0,
            insns: vec![],
            tries: vec![inner.clone(), outer.clone()],
        };
        let at3 = code.traps_at(3);
        assert_eq!(at3.len(), 2);
        assert_eq!(at3[0], &inner, "inner (declared first) leads");
        assert_eq!(at3[1], &outer);
        assert_eq!(code.traps_at(7).len(), 1);
    }

    #[test]
    fn class_lookup_by_name() {
        let mut f = AdxFile::new();
        let ty = f.pools.type_("Lcom/app/A;");
        let sup = f.pools.type_("Ljava/lang/Object;");
        f.classes.push(ClassDef {
            ty,
            superclass: Some(sup),
            interfaces: vec![],
            flags: AccessFlags::PUBLIC,
            fields: vec![],
            methods: vec![],
        });
        assert!(f.class_by_name("Lcom/app/A;").is_some());
        assert!(f.class_by_name("Lcom/app/B;").is_none());
    }
}
