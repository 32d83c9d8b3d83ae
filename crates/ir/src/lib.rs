//! `nck-ir`: a Jimple-like typed 3-address IR for ADX binaries.
//!
//! This crate plays the role of Soot's Jimple plus Dexpler in the paper's
//! pipeline: [`lift::lift_file`] turns a parsed [`nck_dex::AdxFile`] into a
//! [`Program`] of 3-address [`Stmt`]s, over which the crate provides
//! statement-level CFGs ([`cfg::Cfg`]), dominator and post-dominator trees
//! ([`dom`]), natural loops ([`loops`]), and a pretty printer ([`pretty`]).
//!
//! # Examples
//!
//! ```
//! use nck_dex::builder::AdxBuilder;
//! use nck_dex::AccessFlags;
//! use nck_ir::{cfg::Cfg, dom, lift::lift_file, loops};
//!
//! let mut b = AdxBuilder::new();
//! b.class("Lapp/Main;", |c| {
//!     c.method("f", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
//! });
//! let program = lift_file(&b.finish().unwrap()).unwrap();
//! let body = program.methods[0].body.as_ref().unwrap();
//! let cfg = Cfg::build(body);
//! let doms = dom::dominators(&cfg);
//! assert!(loops::natural_loops(&cfg, &doms).is_empty());
//! ```

pub mod body;
pub mod cfg;
pub mod dom;
pub mod hierarchy;
pub mod lift;
pub mod loops;
pub mod pretty;
pub mod symbols;
pub mod types;

pub use body::{
    Body, Class, ClassId, FieldKey, IdentityKind, InvokeExpr, LocalDecl, LocalId, Method, MethodId,
    MethodKey, Operand, Program, Rvalue, Stmt, StmtId, Trap,
};
pub use hierarchy::TypeIndex;
pub use lift::{lift_file, lift_skipping, LiftError, MethodSkip, SkipPolicy, SkipReason};
pub use symbols::{Interner, Symbol};
pub use types::Type;
