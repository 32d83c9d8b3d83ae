//! Parsing of the ADX binary container back into an [`AdxFile`].
//!
//! The parser is defensive: every index, count, and length is
//! bounds-checked while reading, and the payload checksum is verified
//! before any section is decoded. Structural (cross-reference) validation
//! beyond what parsing needs lives in [`verify`](crate::verify).

use crate::insn::{BinOp, CondOp, Insn, InvokeKind, Reg, UnOp};
use crate::model::{
    AccessFlags, AdxFile, CatchHandler, ClassDef, CodeItem, FieldDef, MethodDef, TryBlock,
};
use crate::pool::{FieldIdx, MethodIdx, Pools, Proto, StringIdx, TypeIdx};
use crate::wire::{fnv1a, Reader};
use crate::write::{opcode, MAGIC, VERSION};
use crate::{AdxError, Result};

fn decode_invoke_kind(code: u8, at: usize) -> Result<InvokeKind> {
    Ok(match code {
        0 => InvokeKind::Virtual,
        1 => InvokeKind::Static,
        2 => InvokeKind::Direct,
        3 => InvokeKind::Interface,
        4 => InvokeKind::Super,
        _ => return Err(AdxError::BadEnum { at, value: code }),
    })
}

fn decode_cond(code: u8, at: usize) -> Result<CondOp> {
    Ok(match code {
        0 => CondOp::Eq,
        1 => CondOp::Ne,
        2 => CondOp::Lt,
        3 => CondOp::Ge,
        4 => CondOp::Gt,
        5 => CondOp::Le,
        _ => return Err(AdxError::BadEnum { at, value: code }),
    })
}

fn decode_binop(code: u8, at: usize) -> Result<BinOp> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        _ => return Err(AdxError::BadEnum { at, value: code }),
    })
}

fn decode_unop(code: u8, at: usize) -> Result<UnOp> {
    Ok(match code {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        _ => return Err(AdxError::BadEnum { at, value: code }),
    })
}

fn read_insn(r: &mut Reader<'_>) -> Result<Insn> {
    let at = r.position();
    let op = r.u8()?;
    Ok(match op {
        opcode::NOP => Insn::Nop,
        opcode::MOVE => Insn::Move {
            dst: Reg(r.u16()?),
            src: Reg(r.u16()?),
        },
        opcode::CONST_INT => Insn::ConstInt {
            dst: Reg(r.u16()?),
            value: r.i64()?,
        },
        opcode::CONST_STRING => Insn::ConstString {
            dst: Reg(r.u16()?),
            idx: StringIdx(r.u32()?),
        },
        opcode::CONST_NULL => Insn::ConstNull { dst: Reg(r.u16()?) },
        opcode::CONST_CLASS => Insn::ConstClass {
            dst: Reg(r.u16()?),
            ty: TypeIdx(r.u32()?),
        },
        opcode::NEW_INSTANCE => Insn::NewInstance {
            dst: Reg(r.u16()?),
            ty: TypeIdx(r.u32()?),
        },
        opcode::NEW_ARRAY => Insn::NewArray {
            dst: Reg(r.u16()?),
            len: Reg(r.u16()?),
            ty: TypeIdx(r.u32()?),
        },
        opcode::CHECK_CAST => Insn::CheckCast {
            reg: Reg(r.u16()?),
            ty: TypeIdx(r.u32()?),
        },
        opcode::INSTANCE_OF => Insn::InstanceOf {
            dst: Reg(r.u16()?),
            src: Reg(r.u16()?),
            ty: TypeIdx(r.u32()?),
        },
        opcode::ARRAY_LENGTH => Insn::ArrayLength {
            dst: Reg(r.u16()?),
            arr: Reg(r.u16()?),
        },
        opcode::AGET => Insn::Aget {
            dst: Reg(r.u16()?),
            arr: Reg(r.u16()?),
            idx: Reg(r.u16()?),
        },
        opcode::APUT => Insn::Aput {
            src: Reg(r.u16()?),
            arr: Reg(r.u16()?),
            idx: Reg(r.u16()?),
        },
        opcode::IGET => Insn::Iget {
            dst: Reg(r.u16()?),
            obj: Reg(r.u16()?),
            field: FieldIdx(r.u32()?),
        },
        opcode::IPUT => Insn::Iput {
            src: Reg(r.u16()?),
            obj: Reg(r.u16()?),
            field: FieldIdx(r.u32()?),
        },
        opcode::SGET => Insn::Sget {
            dst: Reg(r.u16()?),
            field: FieldIdx(r.u32()?),
        },
        opcode::SPUT => Insn::Sput {
            src: Reg(r.u16()?),
            field: FieldIdx(r.u32()?),
        },
        opcode::INVOKE => {
            let kind = decode_invoke_kind(r.u8()?, at)?;
            let method = MethodIdx(r.u32()?);
            let argc = r.u8()? as usize;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(Reg(r.u16()?));
            }
            Insn::Invoke { kind, method, args }
        }
        opcode::MOVE_RESULT => Insn::MoveResult { dst: Reg(r.u16()?) },
        opcode::MOVE_EXCEPTION => Insn::MoveException { dst: Reg(r.u16()?) },
        opcode::RETURN_VOID => Insn::Return { src: None },
        opcode::RETURN_VALUE => Insn::Return {
            src: Some(Reg(r.u16()?)),
        },
        opcode::THROW => Insn::Throw { src: Reg(r.u16()?) },
        opcode::GOTO => Insn::Goto { target: r.u32()? },
        opcode::IF => Insn::If {
            cond: decode_cond(r.u8()?, at)?,
            a: Reg(r.u16()?),
            b: Reg(r.u16()?),
            target: r.u32()?,
        },
        opcode::IFZ => Insn::IfZ {
            cond: decode_cond(r.u8()?, at)?,
            a: Reg(r.u16()?),
            target: r.u32()?,
        },
        opcode::BINOP => Insn::BinOp {
            op: decode_binop(r.u8()?, at)?,
            dst: Reg(r.u16()?),
            a: Reg(r.u16()?),
            b: Reg(r.u16()?),
        },
        opcode::BINOP_LIT => Insn::BinOpLit {
            op: decode_binop(r.u8()?, at)?,
            dst: Reg(r.u16()?),
            a: Reg(r.u16()?),
            lit: r.i32()?,
        },
        opcode::UNOP => Insn::UnOp {
            op: decode_unop(r.u8()?, at)?,
            dst: Reg(r.u16()?),
            src: Reg(r.u16()?),
        },
        opcode::SWITCH => {
            let src = Reg(r.u16()?);
            let n = r.count(8)?;
            let mut targets = Vec::with_capacity(n);
            for _ in 0..n {
                let k = r.i32()?;
                let t = r.u32()?;
                targets.push((k, t));
            }
            Insn::Switch { src, targets }
        }
        _ => return Err(AdxError::BadOpcode { at, opcode: op }),
    })
}

fn read_code(r: &mut Reader<'_>) -> Result<CodeItem> {
    let registers = r.u16()?;
    let ins = r.u16()?;
    if ins > registers {
        return Err(AdxError::Malformed {
            at: r.position(),
            what: "ins exceeds registers",
        });
    }
    let n = r.count(1)?;
    let mut insns = Vec::with_capacity(n);
    for _ in 0..n {
        insns.push(read_insn(r)?);
    }
    let nt = r.count(12)?;
    let mut tries = Vec::with_capacity(nt);
    for _ in 0..nt {
        let start = r.u32()?;
        let end = r.u32()?;
        let nh = r.count(5)?;
        let mut handlers = Vec::with_capacity(nh);
        for _ in 0..nh {
            let exception = if r.u8()? != 0 {
                Some(TypeIdx(r.u32()?))
            } else {
                None
            };
            let target = r.u32()?;
            handlers.push(CatchHandler { exception, target });
        }
        tries.push(TryBlock {
            start,
            end,
            handlers,
        });
    }
    Ok(CodeItem {
        registers,
        ins,
        insns,
        tries,
    })
}

fn read_pools(r: &mut Reader<'_>) -> Result<Pools> {
    let mut pools = Pools::new();

    let ns = r.count(4)?;
    for _ in 0..ns {
        pools.push_string_raw(r.str()?);
    }
    let n_strings = ns as u32;

    let nt = r.count(4)?;
    for _ in 0..nt {
        let at = r.position();
        let s = r.u32()?;
        if s >= n_strings {
            return Err(AdxError::BadIndex {
                at,
                kind: "string",
                index: s,
            });
        }
        pools.push_type_raw(StringIdx(s));
    }
    let n_types = nt as u32;
    let check_type = |at: usize, t: u32| -> Result<TypeIdx> {
        if t >= n_types {
            return Err(AdxError::BadIndex {
                at,
                kind: "type",
                index: t,
            });
        }
        Ok(TypeIdx(t))
    };

    let np = r.count(8)?;
    for _ in 0..np {
        let at = r.position();
        let ret = check_type(at, r.u32()?)?;
        let nparams = r.count(4)?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            let at = r.position();
            params.push(check_type(at, r.u32()?)?);
        }
        pools.push_proto_raw(Proto {
            return_type: ret,
            params,
        });
    }
    let n_protos = np as u32;

    let nf = r.count(12)?;
    for _ in 0..nf {
        let at = r.position();
        let class = check_type(at, r.u32()?)?;
        let ty = check_type(at, r.u32()?)?;
        let name = r.u32()?;
        if name >= n_strings {
            return Err(AdxError::BadIndex {
                at,
                kind: "string",
                index: name,
            });
        }
        pools.push_field_raw(crate::pool::FieldRef {
            class,
            ty,
            name: StringIdx(name),
        });
    }

    let nm = r.count(12)?;
    for _ in 0..nm {
        let at = r.position();
        let class = check_type(at, r.u32()?)?;
        let proto = r.u32()?;
        if proto >= n_protos {
            return Err(AdxError::BadIndex {
                at,
                kind: "proto",
                index: proto,
            });
        }
        let name = r.u32()?;
        if name >= n_strings {
            return Err(AdxError::BadIndex {
                at,
                kind: "string",
                index: name,
            });
        }
        pools.push_method_raw(crate::pool::MethodRef {
            class,
            proto: crate::pool::ProtoIdx(proto),
            name: StringIdx(name),
        });
    }

    Ok(pools)
}

/// Parses the ADX binary container in `bytes`.
///
/// Verifies the magic, version, declared length, and payload checksum
/// before decoding. Pool cross-references are bounds-checked during the
/// decode; run [`verify::verify`](crate::verify::verify) afterwards for
/// deeper structural checks (branch targets, register bounds, ...).
pub fn read_adx(bytes: &[u8]) -> Result<AdxFile> {
    let mut r = Reader::new(bytes);
    let at = r.position();
    let mut magic = [0u8; 4];
    for m in &mut magic {
        *m = r.u8()?;
    }
    if &magic != MAGIC {
        return Err(AdxError::BadMagic { found: magic });
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(AdxError::BadVersion { found: version });
    }
    let reserved_at = r.position();
    let reserved = r.u16()?;
    // The reserved field must be zero (it is outside the checksummed
    // payload, so damage here would otherwise go unnoticed).
    if reserved != 0 {
        return Err(AdxError::Malformed {
            at: reserved_at,
            what: "nonzero reserved header field",
        });
    }
    let length = r.u64()? as usize;
    let checksum = r.u64()?;
    if r.remaining() != length {
        return Err(AdxError::Truncated {
            at: r.position(),
            wanted: length,
            available: r.remaining(),
        });
    }
    let payload = &bytes[r.position()..];
    let actual = fnv1a(payload);
    if actual != checksum {
        return Err(AdxError::ChecksumMismatch {
            expected: checksum,
            actual,
        });
    }

    let mut r = Reader::new(payload);
    let pools = read_pools(&mut r)?;
    let n_types = pools.types().len() as u32;
    let n_fields = pools.fields().len() as u32;
    let n_methods = pools.methods().len() as u32;

    let nc = r.count(4)?;
    let mut classes = Vec::with_capacity(nc);
    for _ in 0..nc {
        let at = r.position();
        let ty = r.u32()?;
        if ty >= n_types {
            return Err(AdxError::BadIndex {
                at,
                kind: "type",
                index: ty,
            });
        }
        let superclass = if r.u8()? != 0 {
            let at = r.position();
            let s = r.u32()?;
            if s >= n_types {
                return Err(AdxError::BadIndex {
                    at,
                    kind: "type",
                    index: s,
                });
            }
            Some(TypeIdx(s))
        } else {
            None
        };
        let ni = r.count(4)?;
        let mut interfaces = Vec::with_capacity(ni);
        for _ in 0..ni {
            let at = r.position();
            let i = r.u32()?;
            if i >= n_types {
                return Err(AdxError::BadIndex {
                    at,
                    kind: "type",
                    index: i,
                });
            }
            interfaces.push(TypeIdx(i));
        }
        let flags = AccessFlags(r.u32()?);
        let nf = r.count(8)?;
        let mut fields = Vec::with_capacity(nf);
        for _ in 0..nf {
            let at = r.position();
            let f = r.u32()?;
            if f >= n_fields {
                return Err(AdxError::BadIndex {
                    at,
                    kind: "field",
                    index: f,
                });
            }
            fields.push(FieldDef {
                field: FieldIdx(f),
                flags: AccessFlags(r.u32()?),
            });
        }
        let nm = r.count(9)?;
        let mut methods = Vec::with_capacity(nm);
        for _ in 0..nm {
            let at = r.position();
            let m = r.u32()?;
            if m >= n_methods {
                return Err(AdxError::BadIndex {
                    at,
                    kind: "method",
                    index: m,
                });
            }
            let flags = AccessFlags(r.u32()?);
            let code = if r.u8()? != 0 {
                Some(read_code(&mut r)?)
            } else {
                None
            };
            methods.push(MethodDef {
                method: MethodIdx(m),
                flags,
                code,
            });
        }
        classes.push(ClassDef {
            ty: TypeIdx(ty),
            superclass,
            interfaces,
            flags,
            fields,
            methods,
        });
    }

    if r.remaining() != 0 {
        return Err(AdxError::Malformed {
            at: at + r.position(),
            what: "trailing bytes after class table",
        });
    }

    Ok(AdxFile { pools, classes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::write_adx;

    #[test]
    fn empty_roundtrip() {
        let f = AdxFile::new();
        let bytes = write_adx(&f);
        let g = read_adx(&bytes).unwrap();
        assert!(g.classes.is_empty());
        assert!(g.pools.strings().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let f = AdxFile::new();
        let mut bytes = write_adx(&f);
        bytes[0] = b'X';
        assert!(matches!(read_adx(&bytes), Err(AdxError::BadMagic { .. })));
    }

    #[test]
    fn bad_version_rejected() {
        let f = AdxFile::new();
        let mut bytes = write_adx(&f);
        bytes[4] = 99;
        assert!(matches!(read_adx(&bytes), Err(AdxError::BadVersion { .. })));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut f = AdxFile::new();
        f.pools.string("hello world");
        let mut bytes = write_adx(&f);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            read_adx(&bytes),
            Err(AdxError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let mut f = AdxFile::new();
        f.pools.string("hello");
        let bytes = write_adx(&f);
        assert!(read_adx(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn nonzero_reserved_field_rejected() {
        // The reserved u16 sits outside the checksummed payload; damage
        // there must still be detected.
        let f = AdxFile::new();
        for byte in [6usize, 7] {
            let mut bytes = write_adx(&f);
            bytes[byte] = 1;
            assert!(
                matches!(read_adx(&bytes), Err(AdxError::Malformed { .. })),
                "flip in reserved byte {byte} accepted"
            );
        }
    }
}
