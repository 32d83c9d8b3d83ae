//! `nck-dataflow`: the from-scratch dataflow framework behind NChecker.
//!
//! The paper builds its analyses on Soot and FlowDroid; this crate is the
//! equivalent substrate implemented from first principles:
//!
//! - a generic forward worklist [`solver`] parameterized by lattice and
//!   transfer function;
//! - a bit-vector analysis: [`reachdefs`] (reaching definitions / def-use
//!   chains);
//! - [`constprop`]: flat-lattice constant propagation, used to recover
//!   config-API argument values (§4.4.2);
//! - [`taint`]: object-flow analysis (backward-to-allocation plus
//!   forward-through-aliases) used for config-API and response checking
//!   (§4.4.1, §4.4.4);
//! - [`ctrldep`]: control dependence from post-dominators; and
//! - [`mod@slice`]: backward slicing over data + control dependences, used by
//!   retry-loop identification (§4.5).
//!
//! # Examples
//!
//! ```
//! use nck_dataflow::constprop::{CVal, ConstProp};
//! use nck_dex::builder::AdxBuilder;
//! use nck_dex::AccessFlags;
//! use nck_ir::cfg::Cfg;
//!
//! let mut b = AdxBuilder::new();
//! b.class("Lapp/A;", |c| {
//!     c.method("f", "()I", AccessFlags::PUBLIC, 2, |m| {
//!         m.const_int(m.reg(0), 21);
//!         m.binop_lit(nck_dex::BinOp::Mul, m.reg(0), m.reg(0), 2);
//!         m.ret(Some(m.reg(0)));
//!     });
//! });
//! let p = nck_ir::lift_file(&b.finish().unwrap()).unwrap();
//! let body = p.methods[0].body.as_ref().unwrap();
//! let cfg = Cfg::build(body);
//! let cp = ConstProp::compute(body, &cfg);
//! let ret = nck_ir::StmtId(3);
//! assert_eq!(cp.value_before(ret, nck_ir::LocalId(0)), CVal::Int(42));
//! ```

pub mod bitset;
pub mod constprop;
pub mod ctrldep;
pub mod interproc;
pub mod reachdefs;
pub mod slice;
pub mod solver;
pub mod taint;

pub use bitset::BitSet;
pub use constprop::{CVal, ConstProp};
pub use ctrldep::ControlDeps;
pub use interproc::{tarjan_sccs, CallKind, MethodInput, MethodSummary, Summaries, SummaryStats};
pub use reachdefs::ReachingDefs;
pub use slice::{backward_slice, handler_entries, slice_reaches, SliceKind};
pub use solver::{solve, Analysis, Solution};
pub use taint::{object_flow, FlowOptions, ObjectFlow};
