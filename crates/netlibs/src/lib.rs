//! `nck-netlibs`: annotations of the six mobile network libraries.
//!
//! NChecker detects NPDs "when developers misuse network library APIs"
//! (§4); the tool itself never inspects library internals — it consumes a
//! registry of *annotated* APIs (§4.3). This crate is that registry:
//!
//! - [`library`]: the six libraries and their default behaviours;
//! - [`api`]: the 14 target, 77 config, and 2 response-checking APIs plus
//!   connectivity APIs and callback interfaces;
//! - [`mod@capability`]: the Table 4 matrix (auto ⋆ vs. manual ©);
//! - [`patterns`]: the Table 5 misuse pattern catalogue.
//!
//! # Examples
//!
//! ```
//! use nck_netlibs::api::Registry;
//! use nck_netlibs::library::Library;
//!
//! let registry = Registry::standard();
//! let t = registry
//!     .target("Lcom/android/volley/RequestQueue;", "add")
//!     .unwrap();
//! assert_eq!(t.library, Library::Volley);
//! ```

pub mod api;
pub mod capability;
pub mod library;
pub mod patterns;

pub use api::{
    volley_method_constant, ApiRef, ApiRoles, CallbackApi, ConfigApi, ConfigKind, HttpMethod,
    MethodDetermination, Registry, ResponseCheckApi, TargetApi, CONNECTIVITY_APIS,
};
pub use capability::{capability, render_table4, NpdCause, Support, ALL_CAUSES};
pub use library::{defaults, Library, LibraryDefaults, ALL_LIBRARIES};
pub use patterns::{render_table5, MisusePattern, PatternRow, ALL_PATTERNS, TABLE5};
