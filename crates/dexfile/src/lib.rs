//! `nck-dex`: the ADX binary app container.
//!
//! ADX is a Dalvik-inspired register-based bytecode container used as the
//! binary substrate of the NChecker reproduction. Real Android apps ship
//! DEX inside an APK; this crate plays the role of the DEX format plus the
//! Dexpler front-end's input: a binary on disk that the analysis pipeline
//! must *parse* before it can lift and analyze anything.
//!
//! The crate provides:
//!
//! - the in-memory model ([`AdxFile`], [`ClassDef`], [`CodeItem`], ...),
//! - the instruction set ([`Insn`]),
//! - a binary writer ([`write_adx`]) and defensive parser ([`read_adx`]),
//! - a structural verifier ([`verify::verify`]),
//! - an ergonomic programmatic builder ([`builder::AdxBuilder`]), and
//! - a disassembler ([`disasm::disassemble`]).
//!
//! # Examples
//!
//! ```
//! use nck_dex::builder::AdxBuilder;
//! use nck_dex::model::AccessFlags;
//!
//! let mut b = AdxBuilder::new();
//! b.class("Lcom/app/Main;", |c| {
//!     c.super_class("Ljava/lang/Object;");
//!     c.method("answer", "()I", AccessFlags::PUBLIC, 2, |m| {
//!         let v = m.reg(0);
//!         m.const_int(v, 42);
//!         m.ret(Some(v));
//!     });
//! });
//! let file = b.finish().unwrap();
//! let bytes = nck_dex::write_adx(&file);
//! let parsed = nck_dex::read_adx(&bytes).unwrap();
//! assert_eq!(parsed.classes.len(), 1);
//! ```

pub mod builder;
pub mod disasm;
pub mod fingerprint;
pub mod insn;
pub mod model;
pub mod pool;
pub mod read;
pub mod verify;
pub mod wire;
pub mod write;

pub use fingerprint::class_fingerprints;
pub use insn::{BinOp, CondOp, Insn, InvokeKind, Reg, UnOp};
pub use model::{
    AccessFlags, AdxFile, CatchHandler, ClassDef, CodeItem, FieldDef, MethodDef, TryBlock,
};
pub use pool::{
    pool_touches, FieldIdx, FieldRef, MethodIdx, MethodRef, ParamTypes, Pools, Proto, ProtoIdx,
    StringIdx, TypeIdx,
};
pub use read::read_adx;
pub use verify::{VerifyError, VerifyScope};
pub use write::write_adx;

/// Errors produced while reading or constructing ADX containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdxError {
    /// The file does not start with the `ADX1` magic.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The format version is not supported.
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// Fewer bytes were available than a field required.
    Truncated {
        /// Byte offset of the read.
        at: usize,
        /// Bytes wanted.
        wanted: usize,
        /// Bytes available.
        available: usize,
    },
    /// The payload checksum did not match.
    ChecksumMismatch {
        /// Checksum declared in the header.
        expected: u64,
        /// Checksum computed over the payload.
        actual: u64,
    },
    /// A string was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string body.
        at: usize,
    },
    /// A section count was impossibly large for the remaining input.
    BadCount {
        /// Byte offset of the count.
        at: usize,
        /// The declared count.
        count: usize,
    },
    /// A pool cross-reference was out of range.
    BadIndex {
        /// Byte offset of the index.
        at: usize,
        /// Which pool the index refers to.
        kind: &'static str,
        /// The out-of-range value.
        index: u32,
    },
    /// An enum discriminant byte was out of range.
    BadEnum {
        /// Byte offset of the discriminant.
        at: usize,
        /// The unknown value.
        value: u8,
    },
    /// An unknown opcode byte.
    BadOpcode {
        /// Byte offset of the instruction.
        at: usize,
        /// The unknown opcode.
        opcode: u8,
    },
    /// A structural constraint was violated.
    Malformed {
        /// Byte offset of the violation.
        at: usize,
        /// Description of the violation.
        what: &'static str,
    },
    /// The builder finished with an unbound label.
    UnboundLabel {
        /// The label's id.
        label: usize,
    },
    /// An invalid method signature string was supplied to the builder.
    BadSignature {
        /// The offending signature.
        signature: String,
    },
}

impl std::fmt::Display for AdxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdxError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            AdxError::BadVersion { found } => write!(f, "unsupported version {found}"),
            AdxError::Truncated {
                at,
                wanted,
                available,
            } => write!(
                f,
                "truncated input at offset {at}: wanted {wanted} bytes, have {available}"
            ),
            AdxError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch: header says {expected:#018x}, computed {actual:#018x}"
            ),
            AdxError::BadUtf8 { at } => write!(f, "invalid UTF-8 string at offset {at}"),
            AdxError::BadCount { at, count } => {
                write!(f, "implausible element count {count} at offset {at}")
            }
            AdxError::BadIndex { at, kind, index } => {
                write!(f, "out-of-range {kind} index {index} at offset {at}")
            }
            AdxError::BadEnum { at, value } => {
                write!(f, "invalid enum discriminant {value} at offset {at}")
            }
            AdxError::BadOpcode { at, opcode } => {
                write!(f, "unknown opcode {opcode:#04x} at offset {at}")
            }
            AdxError::Malformed { at, what } => write!(f, "malformed file at offset {at}: {what}"),
            AdxError::UnboundLabel { label } => {
                write!(f, "builder finished with unbound label {label}")
            }
            AdxError::BadSignature { signature } => {
                write!(f, "invalid method signature {signature:?}")
            }
        }
    }
}

impl std::error::Error for AdxError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AdxError>;

/// Parses the parameter and return descriptors out of a JVM-style method
/// signature such as `(Landroid/os/Bundle;I)V`.
///
/// Returns `(params, return_type)` as descriptor strings.
pub fn parse_signature(sig: &str) -> Result<(Vec<String>, String)> {
    let err = || AdxError::BadSignature {
        signature: sig.to_owned(),
    };
    let rest = sig.strip_prefix('(').ok_or_else(err)?;
    let close = rest.find(')').ok_or_else(err)?;
    let (param_str, ret) = rest.split_at(close);
    let ret = &ret[1..];
    if ret.is_empty() {
        return Err(err());
    }
    validate_descriptor(ret).map_err(|_| err())?;
    let mut params = Vec::new();
    let mut i = 0;
    while i < param_str.len() {
        let end = param_token_end(param_str, i).ok_or_else(err)?;
        params.push(param_str[i..end].to_owned());
        i = end;
    }
    Ok((params, ret.to_owned()))
}

/// The end of the parameter descriptor starting at byte `i` of
/// `params`: array dimensions, then a primitive or an `L...;` class up
/// to the first `;`.
fn param_token_end(params: &str, mut i: usize) -> Option<usize> {
    let bytes = params.as_bytes();
    while i < bytes.len() && bytes[i] == b'[' {
        i += 1;
    }
    match bytes.get(i)? {
        b'L' => params[i..].find(';').map(|semi| i + semi + 1),
        b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D' => Some(i + 1),
        _ => None,
    }
}

/// Whether [`parse_signature`] of `(` + `params` concatenated + `)` +
/// `ret` would return exactly `params` and `ret`: each parameter is one
/// whole descriptor without `)`, and `ret` is a valid return type. A
/// caller holding a prototype's descriptors then needs no signature
/// string to know its parameters.
pub fn signature_splits_as<'a>(params: impl IntoIterator<Item = &'a str>, ret: &str) -> bool {
    validate_descriptor(ret).is_ok()
        && params
            .into_iter()
            .all(|p| !p.contains(')') && param_token_end(p, 0) == Some(p.len()))
}

fn validate_descriptor(d: &str) -> std::result::Result<(), ()> {
    let inner = d.trim_start_matches('[');
    match inner.as_bytes().first() {
        Some(b'L') => {
            if inner.ends_with(';') && inner.len() > 2 {
                Ok(())
            } else {
                Err(())
            }
        }
        Some(b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D') if inner.len() == 1 => Ok(()),
        Some(b'V') if inner.len() == 1 && d == "V" => Ok(()),
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_empty_signature() {
        let (p, r) = parse_signature("()V").unwrap();
        assert!(p.is_empty());
        assert_eq!(r, "V");
    }

    #[test]
    fn parse_mixed_signature() {
        let (p, r) = parse_signature("(Landroid/os/Bundle;I[BLjava/lang/String;)I").unwrap();
        assert_eq!(
            p,
            vec!["Landroid/os/Bundle;", "I", "[B", "Ljava/lang/String;"]
        );
        assert_eq!(r, "I");
    }

    #[test]
    fn parse_array_of_objects() {
        let (p, r) = parse_signature("([[Ljava/lang/String;)V").unwrap();
        assert_eq!(p, vec!["[[Ljava/lang/String;"]);
        assert_eq!(r, "V");
    }

    #[test]
    fn malformed_signatures_rejected() {
        assert!(parse_signature("I)V").is_err());
        assert!(parse_signature("(I").is_err());
        assert!(parse_signature("(Q)V").is_err());
        assert!(parse_signature("(Ljava/lang/String)V").is_err());
        assert!(parse_signature("(I)").is_err());
        assert!(parse_signature("([)V").is_err());
        assert!(parse_signature("(I)[V").is_err());
    }

    #[test]
    fn signature_splits_as_agrees_with_parse_signature() {
        let cases: &[(&[&str], &str)] = &[
            (&[], "V"),
            (&["I", "[[Ljava/lang/String;", "Landroid/os/Bundle;"], "Z"),
            (&["II"], "V"),
            (&["Lfoo"], "V"),
            (&["Lfoo", ";"], "V"),
            (&["La)b;"], "V"),
            (&[""], "V"),
            (&["["], "V"),
            (&["Q"], "V"),
            (&["I"], "[V"),
            (&["I"], ""),
            (&["I"], "La/B;"),
            (&["<bad>"], "V"),
        ];
        for &(params, ret) in cases {
            let sig = format!("({}){ret}", params.concat());
            let exact = parse_signature(&sig).is_ok_and(|(p, r)| p == params && r == ret);
            assert_eq!(
                signature_splits_as(params.iter().copied(), ret),
                exact,
                "{sig}"
            );
        }
    }
}
