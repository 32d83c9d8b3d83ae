//! The ADX register-based instruction set.
//!
//! ADX instructions are Dalvik-inspired: methods execute over a fixed-size
//! virtual register file, method parameters arrive in the *highest*
//! registers (as in DEX), and call results are consumed by an explicit
//! `move-result`. One deliberate simplification relative to DEX: branch
//! targets are *instruction indices*, not code-unit offsets, which removes
//! an entire class of mis-alignment concerns without changing anything the
//! analyses observe.

use crate::pool::{FieldIdx, MethodIdx, StringIdx, TypeIdx};

/// A virtual register number within a method frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The dispatch kind of an `invoke` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvokeKind {
    /// Virtual dispatch on the receiver (first argument).
    Virtual,
    /// Static call; no receiver.
    Static,
    /// Direct (non-virtual) call: constructors and private methods.
    Direct,
    /// Interface dispatch on the receiver.
    Interface,
    /// Superclass call from an overriding method.
    Super,
}

impl InvokeKind {
    /// Returns `true` if the call has a receiver object in its first slot.
    pub fn has_receiver(self) -> bool {
        !matches!(self, InvokeKind::Static)
    }
}

/// Comparison operator for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed greater-than.
    Gt,
    /// Signed less-or-equal.
    Le,
}

impl CondOp {
    /// Returns the operator that accepts exactly the complementary inputs.
    pub fn negate(self) -> CondOp {
        match self {
            CondOp::Eq => CondOp::Ne,
            CondOp::Ne => CondOp::Eq,
            CondOp::Lt => CondOp::Ge,
            CondOp::Ge => CondOp::Lt,
            CondOp::Gt => CondOp::Le,
            CondOp::Le => CondOp::Gt,
        }
    }

    /// Evaluates the comparison on concrete integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CondOp::Eq => a == b,
            CondOp::Ne => a != b,
            CondOp::Lt => a < b,
            CondOp::Ge => a >= b,
            CondOp::Gt => a > b,
            CondOp::Le => a <= b,
        }
    }
}

/// Arithmetic and logical binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (can throw on a zero divisor).
    Div,
    /// Remainder (can throw on a zero divisor).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
}

impl BinOp {
    /// Returns `true` when the operation can throw `ArithmeticException`.
    pub fn can_throw(self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }

    /// Evaluates the operation on concrete integers, if defined.
    ///
    /// This is the *single* evaluation function shared by the
    /// interpreter, constant propagation, and the interprocedural
    /// summary engine, so all three agree by construction.
    ///
    /// Shift semantics: ADX has one integer width, `i64`, so `Shl`/`Shr`
    /// mask the shift amount with 63 — Dalvik's rule for its *long*-width
    /// ops (`shl-long` masks with 0x3f). Dalvik's int-width ops mask with
    /// 0x1f instead, but ADX deliberately has no 32-bit lane; a Dalvik
    /// int shift lowered to ADX is widened to 64 bits first, and the
    /// 63-mask is the correct mask for that width. Negative shift
    /// amounts therefore behave as their low six bits (e.g. `-1` shifts
    /// by 63), exactly as on Dalvik.
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        match self {
            BinOp::Add => Some(a.wrapping_add(b)),
            BinOp::Sub => Some(a.wrapping_sub(b)),
            BinOp::Mul => Some(a.wrapping_mul(b)),
            BinOp::Div => a.checked_div(b),
            BinOp::Rem => a.checked_rem(b),
            BinOp::And => Some(a & b),
            BinOp::Or => Some(a | b),
            BinOp::Xor => Some(a ^ b),
            BinOp::Shl => Some(a.wrapping_shl(b as u32 & 63)),
            BinOp::Shr => Some(a.wrapping_shr(b as u32 & 63)),
        }
    }
}

/// Unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise not.
    Not,
}

/// A single ADX instruction.
///
/// Branch targets (`target` fields) are indices into the enclosing
/// [`CodeItem`](crate::model::CodeItem)'s instruction vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    /// No operation.
    Nop,
    /// `dst = src` register copy.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Load an integer constant.
    ConstInt {
        /// Destination register.
        dst: Reg,
        /// Constant value.
        value: i64,
    },
    /// Load a string constant from the pool.
    ConstString {
        /// Destination register.
        dst: Reg,
        /// String pool index.
        idx: StringIdx,
    },
    /// Load the `null` reference.
    ConstNull {
        /// Destination register.
        dst: Reg,
    },
    /// Load a class object.
    ConstClass {
        /// Destination register.
        dst: Reg,
        /// Type pool index.
        ty: TypeIdx,
    },
    /// Allocate a new instance (uninitialized until `<init>` is invoked).
    NewInstance {
        /// Destination register.
        dst: Reg,
        /// Class to instantiate.
        ty: TypeIdx,
    },
    /// Allocate a new array.
    NewArray {
        /// Destination register.
        dst: Reg,
        /// Register holding the length.
        len: Reg,
        /// Array type (e.g. `[I`).
        ty: TypeIdx,
    },
    /// Checked downcast; throws `ClassCastException` on mismatch.
    CheckCast {
        /// Register holding the reference, cast in place.
        reg: Reg,
        /// Target type.
        ty: TypeIdx,
    },
    /// `dst = src instanceof ty` (0 or 1).
    InstanceOf {
        /// Destination register.
        dst: Reg,
        /// Reference to test.
        src: Reg,
        /// Type to test against.
        ty: TypeIdx,
    },
    /// `dst = src.length`.
    ArrayLength {
        /// Destination register.
        dst: Reg,
        /// Array reference.
        arr: Reg,
    },
    /// `dst = arr[idx]`.
    Aget {
        /// Destination register.
        dst: Reg,
        /// Array reference.
        arr: Reg,
        /// Index register.
        idx: Reg,
    },
    /// `arr[idx] = src`.
    Aput {
        /// Source register.
        src: Reg,
        /// Array reference.
        arr: Reg,
        /// Index register.
        idx: Reg,
    },
    /// `dst = obj.field`.
    Iget {
        /// Destination register.
        dst: Reg,
        /// Object reference.
        obj: Reg,
        /// Field reference.
        field: FieldIdx,
    },
    /// `obj.field = src`.
    Iput {
        /// Source register.
        src: Reg,
        /// Object reference.
        obj: Reg,
        /// Field reference.
        field: FieldIdx,
    },
    /// `dst = Class.field` (static read).
    Sget {
        /// Destination register.
        dst: Reg,
        /// Field reference.
        field: FieldIdx,
    },
    /// `Class.field = src` (static write).
    Sput {
        /// Source register.
        src: Reg,
        /// Field reference.
        field: FieldIdx,
    },
    /// Method call; result (if any) is picked up by a following
    /// [`Insn::MoveResult`].
    Invoke {
        /// Dispatch kind.
        kind: InvokeKind,
        /// Callee reference.
        method: MethodIdx,
        /// Argument registers; for non-static calls the receiver is first.
        args: Vec<Reg>,
    },
    /// Capture the result of the immediately preceding `invoke`.
    MoveResult {
        /// Destination register.
        dst: Reg,
    },
    /// Capture the caught exception at the start of a handler.
    MoveException {
        /// Destination register.
        dst: Reg,
    },
    /// Return from the method.
    Return {
        /// Returned register, or `None` for `void`.
        src: Option<Reg>,
    },
    /// Throw the exception object in `src`.
    Throw {
        /// Exception reference.
        src: Reg,
    },
    /// Unconditional branch.
    Goto {
        /// Target instruction index.
        target: u32,
    },
    /// Two-register conditional branch; falls through when false.
    If {
        /// Comparison operator.
        cond: CondOp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Target instruction index when the comparison holds.
        target: u32,
    },
    /// Compare-with-zero conditional branch; falls through when false.
    IfZ {
        /// Comparison operator (against zero / null).
        cond: CondOp,
        /// Operand register.
        a: Reg,
        /// Target instruction index when the comparison holds.
        target: u32,
    },
    /// `dst = a <op> b`.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a <op> literal`.
    BinOpLit {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Literal right operand.
        lit: i32,
    },
    /// `dst = <op> src`.
    UnOp {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        src: Reg,
    },
    /// Multi-way branch on an integer key; falls through on no match.
    Switch {
        /// Key register.
        src: Reg,
        /// `(key, target)` pairs.
        targets: Vec<(i32, u32)>,
    },
}

impl Insn {
    /// Returns the register defined (written) by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Insn::Move { dst, .. }
            | Insn::ConstInt { dst, .. }
            | Insn::ConstString { dst, .. }
            | Insn::ConstNull { dst }
            | Insn::ConstClass { dst, .. }
            | Insn::NewInstance { dst, .. }
            | Insn::NewArray { dst, .. }
            | Insn::InstanceOf { dst, .. }
            | Insn::ArrayLength { dst, .. }
            | Insn::Aget { dst, .. }
            | Insn::Iget { dst, .. }
            | Insn::Sget { dst, .. }
            | Insn::MoveResult { dst }
            | Insn::MoveException { dst }
            | Insn::BinOp { dst, .. }
            | Insn::BinOpLit { dst, .. }
            | Insn::UnOp { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Returns the registers used (read) by this instruction, without
    /// allocating.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        let none = Reg(0);
        let (fixed, n, rest): ([Reg; 3], usize, &[Reg]) = match *self {
            Insn::Move { src, .. }
            | Insn::InstanceOf { src, .. }
            | Insn::Sput { src, .. }
            | Insn::Throw { src }
            | Insn::UnOp { src, .. }
            | Insn::Switch { src, .. } => ([src, none, none], 1, &[]),
            Insn::NewArray { len, .. } => ([len, none, none], 1, &[]),
            Insn::CheckCast { reg, .. } => ([reg, none, none], 1, &[]),
            Insn::ArrayLength { arr, .. } => ([arr, none, none], 1, &[]),
            Insn::Aget { arr, idx, .. } => ([arr, idx, none], 2, &[]),
            Insn::Aput { src, arr, idx } => ([src, arr, idx], 3, &[]),
            Insn::Iget { obj, .. } => ([obj, none, none], 1, &[]),
            Insn::Iput { src, obj, .. } => ([src, obj, none], 2, &[]),
            Insn::Invoke { ref args, .. } => ([none; 3], 0, args.as_slice()),
            Insn::Return { src } => (
                [src.unwrap_or(none), none, none],
                usize::from(src.is_some()),
                &[],
            ),
            Insn::If { a, b, .. } | Insn::BinOp { a, b, .. } => ([a, b, none], 2, &[]),
            Insn::IfZ { a, .. } | Insn::BinOpLit { a, .. } => ([a, none, none], 1, &[]),
            _ => ([none; 3], 0, &[]),
        };
        fixed.into_iter().take(n).chain(rest.iter().copied())
    }

    /// Returns `true` if control cannot fall through to the next instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Insn::Return { .. } | Insn::Throw { .. } | Insn::Goto { .. }
        )
    }

    /// Returns `true` if the instruction can branch somewhere other than
    /// falling through.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Insn::Goto { .. } | Insn::If { .. } | Insn::IfZ { .. } | Insn::Switch { .. }
        )
    }

    /// Returns all explicit branch targets of this instruction, without
    /// allocating.
    pub fn branch_targets(&self) -> impl Iterator<Item = u32> + '_ {
        let (single, arms): (Option<u32>, &[(i32, u32)]) = match self {
            Insn::Goto { target } | Insn::If { target, .. } | Insn::IfZ { target, .. } => {
                (Some(*target), &[])
            }
            Insn::Switch { targets, .. } => (None, targets),
            _ => (None, &[]),
        };
        single.into_iter().chain(arms.iter().map(|&(_, t)| t))
    }

    /// Rewrites all explicit branch targets through `f`, used by the builder
    /// to patch labels.
    pub fn map_targets(&mut self, mut f: impl FnMut(u32) -> u32) {
        match self {
            Insn::Goto { target } => *target = f(*target),
            Insn::If { target, .. } | Insn::IfZ { target, .. } => *target = f(*target),
            Insn::Switch { targets, .. } => {
                for (_, t) in targets.iter_mut() {
                    *t = f(*t);
                }
            }
            _ => {}
        }
    }

    /// Returns `true` if the instruction may raise a runtime exception and
    /// therefore induces an edge to any enclosing trap handler.
    pub fn can_throw(&self) -> bool {
        match self {
            Insn::Invoke { .. }
            | Insn::Throw { .. }
            | Insn::NewInstance { .. }
            | Insn::NewArray { .. }
            | Insn::CheckCast { .. }
            | Insn::ArrayLength { .. }
            | Insn::Aget { .. }
            | Insn::Aput { .. }
            | Insn::Iget { .. }
            | Insn::Iput { .. } => true,
            Insn::BinOp { op, .. } => op.can_throw(),
            Insn::BinOpLit { op, lit, .. } => op.can_throw() && *lit == 0,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses_cover_invoke() {
        let i = Insn::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodIdx(0),
            args: vec![Reg(1), Reg(2)],
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(1), Reg(2)]);
        assert!(i.can_throw());
    }

    #[test]
    fn move_result_defines() {
        let i = Insn::MoveResult { dst: Reg(3) };
        assert_eq!(i.def(), Some(Reg(3)));
        assert!(i.uses().next().is_none());
    }

    #[test]
    fn terminators_and_branches() {
        assert!(Insn::Return { src: None }.is_terminator());
        assert!(Insn::Goto { target: 0 }.is_terminator());
        assert!(!Insn::IfZ {
            cond: CondOp::Eq,
            a: Reg(0),
            target: 5
        }
        .is_terminator());
        assert!(Insn::IfZ {
            cond: CondOp::Eq,
            a: Reg(0),
            target: 5
        }
        .is_branch());
    }

    #[test]
    fn branch_targets_of_switch() {
        let i = Insn::Switch {
            src: Reg(0),
            targets: vec![(1, 10), (2, 20)],
        };
        assert_eq!(i.branch_targets().collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn map_targets_patches_labels() {
        let mut i = Insn::If {
            cond: CondOp::Lt,
            a: Reg(0),
            b: Reg(1),
            target: 7,
        };
        i.map_targets(|t| t + 100);
        assert_eq!(i.branch_targets().collect::<Vec<_>>(), vec![107]);
    }

    #[test]
    fn cond_negate_roundtrips() {
        for c in [
            CondOp::Eq,
            CondOp::Ne,
            CondOp::Lt,
            CondOp::Ge,
            CondOp::Gt,
            CondOp::Le,
        ] {
            assert_eq!(c.negate().negate(), c);
            assert_ne!(c.eval(1, 2), c.negate().eval(1, 2));
        }
    }

    #[test]
    fn binop_eval_checks_division() {
        assert_eq!(BinOp::Div.eval(10, 2), Some(5));
        assert_eq!(BinOp::Div.eval(10, 0), None);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(i64::MIN));
    }

    #[test]
    fn shifts_mask_to_long_width() {
        // ADX integers are 64-bit, so shift amounts take Dalvik's
        // long-op 0x3f mask: 64 wraps to 0, 65 to 1, and a negative
        // amount acts as its low six bits.
        assert_eq!(BinOp::Shl.eval(1, 63), Some(i64::MIN));
        assert_eq!(BinOp::Shl.eval(5, 64), Some(5));
        assert_eq!(BinOp::Shl.eval(5, 65), Some(10));
        assert_eq!(BinOp::Shl.eval(1, -1), Some(i64::MIN)); // -1 & 63 == 63
        assert_eq!(BinOp::Shr.eval(i64::MIN, 63), Some(-1));
        assert_eq!(BinOp::Shr.eval(-8, 64), Some(-8));
        assert_eq!(BinOp::Shr.eval(-8, 1), Some(-4)); // arithmetic, not logical
                                                      // Shifts never fail: the mask makes every amount defined.
        for amt in [-65i64, -64, -1, 0, 31, 32, 63, 64, 127, i64::MAX] {
            assert!(BinOp::Shl.eval(0x1234, amt).is_some());
            assert!(BinOp::Shr.eval(0x1234, amt).is_some());
        }
    }

    #[test]
    fn throwing_instructions() {
        assert!(Insn::Iget {
            dst: Reg(0),
            obj: Reg(1),
            field: FieldIdx(0)
        }
        .can_throw());
        assert!(!Insn::ConstInt {
            dst: Reg(0),
            value: 1
        }
        .can_throw());
        assert!(!Insn::BinOpLit {
            op: BinOp::Div,
            dst: Reg(0),
            a: Reg(1),
            lit: 2
        }
        .can_throw());
    }
}
