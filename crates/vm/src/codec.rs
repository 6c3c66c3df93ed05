//! Compact binary serialization of translated module code
//! ([`crate::flat::ModuleCode`]), the payload of the on-disk prepared
//! session cache.
//!
//! The format is versioned by the *caller* (the cache layer stores a format
//! version and checksum around this payload); this module guarantees only
//! that [`decode`] of an [`encode`] output reproduces the code exactly, and
//! that [`decode`] of arbitrary bytes never panics — it bounds-checks every
//! read and rejects unknown tags, so corruption degrades to `None`, never
//! to wrong code that a checksum missed. It also rejects ops that point
//! past the module-wide tables the interpreter indexes unchecked (a
//! host call's argument template in `args`, a `call_indirect` signature in
//! `sigs`), so a crafted file with a valid checksum cannot panic the first
//! call into it.
//!
//! Encoding choices:
//!
//! - integers are little-endian (`u32`/`u64`), lengths are `u32`,
//! - [`Val`] is a type tag plus its 64-bit **bit pattern** (NaN payloads
//!   and signed zeros round-trip exactly),
//! - the `wasabi_wasm` operation enums serialize as their binary-format
//!   opcode byte (stable across compiler versions, unlike discriminants),
//! - [`Op`] variants carry hand-assigned tag bytes; adding or changing a
//!   variant means bumping the cache layer's format version (tags 9 and 11
//!   belonged to host-call forms since merged into [`Op::HostCall`] and
//!   stay unassigned).

use wasabi_wasm::instr::{BinaryOp, LoadOp, StoreOp, UnaryOp, Val};
use wasabi_wasm::types::{FuncType, ValType};

use crate::flat::{ArgSrc, BrDest, BrTableOp, FuncCode, HookImport, ModuleCode, Op};

// ---- Encoding ----------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, len as u32);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_val(out: &mut Vec<u8>, v: Val) {
    let (tag, bits) = match v {
        Val::I32(x) => (0u8, x as u32 as u64),
        Val::I64(x) => (1, x as u64),
        Val::F32(x) => (2, u64::from(x.to_bits())),
        Val::F64(x) => (3, x.to_bits()),
    };
    out.push(tag);
    put_u64(out, bits);
}

fn put_valtype(out: &mut Vec<u8>, ty: ValType) {
    let idx = ValType::ALL
        .iter()
        .position(|&t| t == ty)
        .expect("ValType::ALL is exhaustive");
    out.push(idx as u8);
}

fn put_functype(out: &mut Vec<u8>, ty: &FuncType) {
    put_len(out, ty.params.len());
    for &p in &ty.params {
        put_valtype(out, p);
    }
    put_len(out, ty.results.len());
    for &r in &ty.results {
        put_valtype(out, r);
    }
}

fn put_dest(out: &mut Vec<u8>, d: &BrDest) {
    put_u32(out, d.target);
    put_u32(out, d.keep);
    put_u32(out, d.height);
}

#[allow(clippy::too_many_lines)]
fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Skip => out.push(0),
        Op::Unreachable => out.push(1),
        Op::Goto(t) => {
            out.push(2);
            put_u32(out, *t);
        }
        Op::IfNot(t) => {
            out.push(3);
            put_u32(out, *t);
        }
        Op::Br(d) => {
            out.push(4);
            put_dest(out, d);
        }
        Op::BrIf(d) => {
            out.push(5);
            put_dest(out, d);
        }
        Op::BrTable(bt) => {
            out.push(6);
            put_len(out, bt.dests.len());
            for d in &bt.dests {
                put_dest(out, d);
            }
            put_dest(out, &bt.default);
        }
        Op::Return => out.push(7),
        Op::Call { callee, params } => {
            out.push(8);
            put_u32(out, *callee);
            put_u32(out, *params);
        }
        Op::HostCall {
            func,
            stack_argc,
            retc,
            args_at,
            args_len,
        } => {
            out.push(10);
            for v in [func, stack_argc, retc, args_at, args_len] {
                put_u32(out, *v);
            }
        }
        Op::CallIndirect { sig, params } => {
            out.push(12);
            put_u32(out, *sig);
            put_u32(out, *params);
        }
        Op::Drop => out.push(13),
        Op::Select => out.push(14),
        Op::LocalGet(i) => {
            out.push(15);
            put_u32(out, *i);
        }
        Op::LocalSet(i) => {
            out.push(16);
            put_u32(out, *i);
        }
        Op::LocalTee(i) => {
            out.push(17);
            put_u32(out, *i);
        }
        Op::GlobalGet(i) => {
            out.push(18);
            put_u32(out, *i);
        }
        Op::GlobalSet(i) => {
            out.push(19);
            put_u32(out, *i);
        }
        Op::Load { op, offset } => {
            out.push(20);
            out.push(op.opcode());
            put_u32(out, *offset);
        }
        Op::Store { op, offset } => {
            out.push(21);
            out.push(op.opcode());
            put_u32(out, *offset);
        }
        Op::MemorySize => out.push(22),
        Op::MemoryGrow => out.push(23),
        Op::Const(v) => {
            out.push(24);
            put_val(out, *v);
        }
        Op::Unary(op) => {
            out.push(25);
            out.push(op.opcode());
        }
        Op::Binary(op) => {
            out.push(26);
            out.push(op.opcode());
        }
        Op::ConstBinary { value, op } => {
            out.push(27);
            put_val(out, *value);
            out.push(op.opcode());
        }
        Op::LocalBinary { local, op } => {
            out.push(28);
            put_u32(out, *local);
            out.push(op.opcode());
        }
        Op::LocalLocalBinary { a, b, op } => {
            out.push(29);
            put_u32(out, *a);
            put_u32(out, *b);
            out.push(op.opcode());
        }
        Op::LocalConstBinary { a, value, op } => {
            out.push(30);
            put_u32(out, *a);
            put_val(out, *value);
            out.push(op.opcode());
        }
        Op::LocalConstBinarySet { a, value, op, dst } => {
            out.push(31);
            put_u32(out, *a);
            put_val(out, *value);
            out.push(op.opcode());
            put_u32(out, *dst);
        }
        Op::CmpBrIf { op, dest } => {
            out.push(32);
            out.push(op.opcode());
            put_dest(out, dest);
        }
        Op::LocalConstCmpBrIf { a, value, op, dest } => {
            out.push(33);
            put_u32(out, *a);
            put_val(out, *value);
            out.push(op.opcode());
            put_dest(out, dest);
        }
        Op::LocalLocalCmpBrIf { a, b, op, dest } => {
            out.push(34);
            put_u32(out, *a);
            put_u32(out, *b);
            out.push(op.opcode());
            put_dest(out, dest);
        }
        Op::AffineAddr { a, c1, b, c2 } => {
            out.push(35);
            put_u32(out, *a);
            put_u32(out, *c1 as u32);
            put_u32(out, *b);
            put_u32(out, *c2 as u32);
        }
        Op::AffineLoad {
            a,
            c1,
            b,
            c2,
            load,
            offset,
        } => {
            out.push(36);
            put_u32(out, *a);
            put_u32(out, *c1 as u32);
            put_u32(out, *b);
            put_u32(out, *c2 as u32);
            out.push(load.opcode());
            put_u32(out, *offset);
        }
    }
}

/// Serialize translated module code to the compact binary form.
pub(crate) fn encode(code: &ModuleCode) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, code.funcs.len());
    for f in &code.funcs {
        put_len(&mut out, f.ops.len());
        for op in &f.ops {
            put_op(&mut out, op);
        }
        put_len(&mut out, f.zeros.len());
        for &z in &f.zeros {
            put_val(&mut out, z);
        }
        put_u32(&mut out, f.arity as u32);
    }
    put_len(&mut out, code.sigs.len());
    for sig in &code.sigs {
        put_functype(&mut out, sig);
    }
    put_len(&mut out, code.args.len());
    for arg in &code.args {
        match arg {
            ArgSrc::Local(i) => {
                out.push(0);
                put_u32(&mut out, *i);
            }
            ArgSrc::Value(v) => {
                out.push(1);
                put_val(&mut out, *v);
            }
        }
    }
    put_len(&mut out, code.hook_imports.len());
    for import in &code.hook_imports {
        put_str(&mut out, &import.module);
        put_str(&mut out, &import.name);
        put_functype(&mut out, &import.ty);
    }
    out
}

// ---- Decoding ----------------------------------------------------------

/// Bounds-checked cursor over untrusted bytes: every read either yields a
/// value or `None`, never panics, never reads past the end.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let slice = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(slice.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let slice = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(slice.try_into().ok()?))
    }

    /// A length prefix, rejected when it exceeds the bytes that remain
    /// (each element consumes at least one byte), so a lying prefix cannot
    /// trigger a huge pre-allocation.
    fn len(&mut self) -> Option<usize> {
        let len = self.u32()? as usize;
        (len <= self.remaining()).then_some(len)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.len()?;
        let slice = self.bytes.get(self.pos..self.pos + len)?;
        self.pos += len;
        String::from_utf8(slice.to_vec()).ok()
    }

    fn val(&mut self) -> Option<Val> {
        let tag = self.u8()?;
        let bits = self.u64()?;
        Some(match tag {
            0 => Val::I32(bits as u32 as i32),
            1 => Val::I64(bits as i64),
            2 => Val::F32(f32::from_bits(u32::try_from(bits).ok()?)),
            3 => Val::F64(f64::from_bits(bits)),
            _ => return None,
        })
    }

    fn valtype(&mut self) -> Option<ValType> {
        ValType::ALL.get(self.u8()? as usize).copied()
    }

    fn functype(&mut self) -> Option<FuncType> {
        let params: Vec<ValType> = (0..self.len()?)
            .map(|_| self.valtype())
            .collect::<Option<_>>()?;
        let results: Vec<ValType> = (0..self.len()?)
            .map(|_| self.valtype())
            .collect::<Option<_>>()?;
        Some(FuncType::new(&params, &results))
    }

    fn dest(&mut self) -> Option<BrDest> {
        Some(BrDest {
            target: self.u32()?,
            keep: self.u32()?,
            height: self.u32()?,
        })
    }

    #[allow(clippy::too_many_lines)]
    fn op(&mut self) -> Option<Op> {
        Some(match self.u8()? {
            0 => Op::Skip,
            1 => Op::Unreachable,
            2 => Op::Goto(self.u32()?),
            3 => Op::IfNot(self.u32()?),
            4 => Op::Br(self.dest()?),
            5 => Op::BrIf(self.dest()?),
            6 => {
                let dests: Vec<BrDest> = (0..self.len()?)
                    .map(|_| self.dest())
                    .collect::<Option<_>>()?;
                let default = self.dest()?;
                Op::BrTable(Box::new(BrTableOp { dests, default }))
            }
            7 => Op::Return,
            8 => Op::Call {
                callee: self.u32()?,
                params: self.u32()?,
            },
            10 => Op::HostCall {
                func: self.u32()?,
                stack_argc: self.u32()?,
                retc: self.u32()?,
                args_at: self.u32()?,
                args_len: self.u32()?,
            },
            12 => Op::CallIndirect {
                sig: self.u32()?,
                params: self.u32()?,
            },
            13 => Op::Drop,
            14 => Op::Select,
            15 => Op::LocalGet(self.u32()?),
            16 => Op::LocalSet(self.u32()?),
            17 => Op::LocalTee(self.u32()?),
            18 => Op::GlobalGet(self.u32()?),
            19 => Op::GlobalSet(self.u32()?),
            20 => Op::Load {
                op: LoadOp::from_opcode(self.u8()?)?,
                offset: self.u32()?,
            },
            21 => Op::Store {
                op: StoreOp::from_opcode(self.u8()?)?,
                offset: self.u32()?,
            },
            22 => Op::MemorySize,
            23 => Op::MemoryGrow,
            24 => Op::Const(self.val()?),
            25 => Op::Unary(UnaryOp::from_opcode(self.u8()?)?),
            26 => Op::Binary(BinaryOp::from_opcode(self.u8()?)?),
            27 => Op::ConstBinary {
                value: self.val()?,
                op: BinaryOp::from_opcode(self.u8()?)?,
            },
            28 => Op::LocalBinary {
                local: self.u32()?,
                op: BinaryOp::from_opcode(self.u8()?)?,
            },
            29 => Op::LocalLocalBinary {
                a: self.u32()?,
                b: self.u32()?,
                op: BinaryOp::from_opcode(self.u8()?)?,
            },
            30 => Op::LocalConstBinary {
                a: self.u32()?,
                value: self.val()?,
                op: BinaryOp::from_opcode(self.u8()?)?,
            },
            31 => Op::LocalConstBinarySet {
                a: self.u32()?,
                value: self.val()?,
                op: BinaryOp::from_opcode(self.u8()?)?,
                dst: self.u32()?,
            },
            32 => Op::CmpBrIf {
                op: BinaryOp::from_opcode(self.u8()?)?,
                dest: self.dest()?,
            },
            33 => Op::LocalConstCmpBrIf {
                a: self.u32()?,
                value: self.val()?,
                op: BinaryOp::from_opcode(self.u8()?)?,
                dest: self.dest()?,
            },
            34 => Op::LocalLocalCmpBrIf {
                a: self.u32()?,
                b: self.u32()?,
                op: BinaryOp::from_opcode(self.u8()?)?,
                dest: self.dest()?,
            },
            35 => Op::AffineAddr {
                a: self.u32()?,
                c1: self.u32()? as i32,
                b: self.u32()?,
                c2: self.u32()? as i32,
            },
            36 => Op::AffineLoad {
                a: self.u32()?,
                c1: self.u32()? as i32,
                b: self.u32()?,
                c2: self.u32()? as i32,
                load: LoadOp::from_opcode(self.u8()?)?,
                offset: self.u32()?,
            },
            _ => return None,
        })
    }
}

/// Deserialize module code encoded by [`encode`]. Returns `None` for any
/// malformed input (truncated, unknown tags, bad lengths, trailing bytes,
/// an op indexing past the `args` or `sigs` table) — never panics.
pub(crate) fn decode(bytes: &[u8]) -> Option<ModuleCode> {
    let mut r = Reader::new(bytes);
    let funcs: Vec<FuncCode> = (0..r.len()?)
        .map(|_| {
            let ops: Vec<Op> = (0..r.len()?).map(|_| r.op()).collect::<Option<_>>()?;
            let zeros: Vec<Val> = (0..r.len()?).map(|_| r.val()).collect::<Option<_>>()?;
            let arity = r.u32()? as usize;
            Some(FuncCode { ops, zeros, arity })
        })
        .collect::<Option<_>>()?;
    let sigs: Vec<FuncType> = (0..r.len()?).map(|_| r.functype()).collect::<Option<_>>()?;
    let args: Vec<ArgSrc> = (0..r.len()?)
        .map(|_| {
            Some(match r.u8()? {
                0 => ArgSrc::Local(r.u32()?),
                1 => ArgSrc::Value(r.val()?),
                _ => return None,
            })
        })
        .collect::<Option<_>>()?;
    let hook_imports: Vec<HookImport> = (0..r.len()?)
        .map(|_| {
            Some(HookImport {
                module: r.str()?,
                name: r.str()?,
                ty: r.functype()?,
            })
        })
        .collect::<Option<_>>()?;
    // The interpreter slices `args` and indexes `sigs` unchecked.
    let in_tables = |op: &Op| match *op {
        Op::HostCall {
            args_at, args_len, ..
        } => args_at
            .checked_add(args_len)
            .is_some_and(|end| end as usize <= args.len()),
        Op::CallIndirect { sig, .. } => (sig as usize) < sigs.len(),
        _ => true,
    };
    if !funcs.iter().flat_map(|f| &f.ops).all(in_tables) {
        return None;
    }
    // Trailing bytes mean the writer and reader disagree about the format:
    // reject rather than silently ignore.
    (r.remaining() == 0).then_some(ModuleCode {
        funcs,
        sigs,
        args,
        hook_imports,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::flat::{translate_module_with, TranslateOptions};
    use crate::TranslatedModule;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::module::Module;
    use wasabi_wasm::validate::validate;

    fn sample_module() -> Module {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        let host = builder.import_function("env", "host", &[ValType::I32, ValType::I32], &[]);
        let f = builder.function("f", &[ValType::I32], &[ValType::I32], |f| {
            f.local(ValType::I32);
            f.get_local(0u32).i32_const(12).i32_mul();
            f.get_local(1u32).i32_add();
            f.i32_const(8).i32_mul();
            f.load(wasabi_wasm::LoadOp::F64Load, 64);
            f.unary(wasabi_wasm::UnaryOp::I32TruncSF64);
        });
        builder.function("g", &[], &[ValType::I32], |g| {
            g.i32_const(3).i32_const(7).call(host);
            g.block(None).loop_(None);
            g.i32_const(1)
                .i32_const(2)
                .binary(BinaryOp::I32GeS)
                .br_if(1);
            g.br(0).end().end();
            g.i32_const(5).i32_const(0);
            g.call_indirect(&[ValType::I32], &[ValType::I32]);
        });
        builder.table(2);
        builder.elements(0, vec![f]);
        let module = builder.finish();
        validate(&module).expect("validates");
        module
    }

    fn sample_code() -> ModuleCode {
        translate_module_with(&sample_module(), TranslateOptions::default())
    }

    #[test]
    fn roundtrips_translated_code_exactly() {
        let code = sample_code();
        let bytes = encode(&code);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(format!("{code:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn rejects_truncation_at_every_length_without_panicking() {
        let bytes = encode(&sample_code());
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_none(), "truncated at {len}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample_code());
        bytes.push(0);
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn rejects_ops_indexing_past_their_tables() {
        let module = Arc::new(sample_module());
        let clean = encode(&sample_code());
        assert!(TranslatedModule::from_encoded_code(Arc::clone(&module), &clean).is_some());

        // Each edit rewrites the first op it applies to, given the lengths
        // of `args` and `sigs`, and reports whether it applied.
        type Edit = fn(&mut Op, u32, u32) -> bool;
        let edits: [(&str, Edit); 3] = [
            ("args_len past args", |op, args, _| match op {
                Op::HostCall {
                    args_at, args_len, ..
                } if *args_len > 0 => {
                    *args_len = args - *args_at + 1;
                    true
                }
                _ => false,
            }),
            ("args_at + args_len overflows", |op, _, _| match op {
                Op::HostCall {
                    args_at, args_len, ..
                } if *args_len > 0 => {
                    *args_at = u32::MAX;
                    true
                }
                _ => false,
            }),
            ("sig past sigs", |op, _, sigs| match op {
                Op::CallIndirect { sig, .. } => {
                    *sig = sigs;
                    true
                }
                _ => false,
            }),
        ];
        for (what, edit) in edits {
            let mut code = sample_code();
            let (args, sigs) = (code.args.len() as u32, code.sigs.len() as u32);
            let edited = code
                .funcs
                .iter_mut()
                .flat_map(|f| f.ops.iter_mut())
                .any(|op| edit(op, args, sigs));
            assert!(edited, "{what}: the sample has an op to edit");
            let bytes = encode(&code);
            assert!(decode(&bytes).is_none(), "{what}");
            assert!(
                TranslatedModule::from_encoded_code(Arc::clone(&module), &bytes).is_none(),
                "{what}"
            );
        }
    }

    #[test]
    fn single_byte_flips_never_panic() {
        // Bit flips may legitimately decode to *different* valid code at
        // this layer (the disk cache's checksum catches them); the codec's
        // own contract is only: no panic, no out-of-bounds.
        let bytes = encode(&sample_code());
        for i in 0..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0x5a;
            let _ = decode(&garbled);
        }
    }

    #[test]
    fn hook_imports_roundtrip() {
        let code = ModuleCode {
            hook_imports: vec![HookImport {
                module: "__wasabi_hooks".to_string(),
                name: "i32.add".to_string(),
                ty: FuncType::new(&[ValType::I32, ValType::I32], &[]),
            }],
            ..ModuleCode::default()
        };
        let decoded = decode(&encode(&code)).expect("decodes");
        assert_eq!(decoded.hook_imports, code.hook_imports);
    }
}
