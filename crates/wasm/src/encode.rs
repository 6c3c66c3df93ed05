//! Binary format encoder: [`Module`] AST → bytes.
//!
//! The binary format requires all imports to precede all local definitions
//! in each index space. The AST does not (so that Wasabi can append hook
//! imports without renumbering); the encoder therefore computes a
//! permutation per index space and remaps every reference:
//! `call` immediates, element segments, exports, and the start function.

use std::collections::HashMap;

use crate::decode::{MAGIC, VERSION};
use crate::instr::{FunctionSpace, GlobalSpace, Idx, Instr, Val};
use crate::leb128;
use crate::module::{GlobalKind, Module};
use crate::types::{FuncType, GlobalType, Limits, ValType};

/// Encode a module into the WebAssembly binary format.
pub fn encode(module: &Module) -> Vec<u8> {
    Encoder::new(module).run()
}

/// Heuristic estimate of the encoded size of `module`, used to preallocate
/// the output buffer in [`encode`] (instrumented modules are encode-heavy,
/// and growing the buffer through repeated doubling copies the whole
/// prefix each time). Deliberately a slight over-estimate for typical
/// instruction mixes; it is **not** a guaranteed upper bound (e.g. bodies
/// dominated by `f64.const`, at 9 bytes per instruction, exceed it).
pub fn size_hint(module: &Module) -> usize {
    // Magic + version + per-section headers and counts.
    let mut hint = 8 + 12 * 8;
    for f in &module.functions {
        // Type-section entry (over-counts duplicates, which is fine for a
        // capacity hint).
        hint += 4 + f.type_.params.len() + f.type_.results.len();
        if let Some(import) = f.import() {
            hint += 8 + import.module.len() + import.name.len();
        }
        if let Some(code) = f.code() {
            // Body size prefix + locals RLE + ~3 bytes per instruction
            // (opcode + a short LEB immediate).
            hint += 16 + code.locals.len() + code.body.len() * 3;
        }
        for name in &f.export {
            hint += 8 + name.len();
        }
        if let Some(name) = &f.name {
            hint += 8 + name.len();
        }
    }
    for t in &module.tables {
        hint += 16;
        for e in &t.elements {
            hint += 16 + e.functions.len() * 3;
        }
    }
    for m in &module.memories {
        hint += 16;
        for d in &m.data {
            hint += 16 + d.bytes.len();
        }
    }
    hint += module.globals.len() * 16;
    for c in &module.custom_sections {
        hint += 16 + c.name.len() + c.bytes.len();
    }
    if let Some(name) = &module.name {
        hint += 16 + name.len();
    }
    hint
}

/// Mapping from stable AST indices to binary indices (imports first).
///
/// Exposed so that tooling (e.g. the WAT printer or debuggers) can relate
/// AST indices to the indices an engine will report.
#[derive(Debug, Clone)]
pub struct IndexPermutation {
    /// `ast_to_binary[ast_index] == binary_index`.
    ast_to_binary: Vec<u32>,
    /// Number of imported entries (binary indices `0..import_count`).
    import_count: u32,
}

impl IndexPermutation {
    /// Compute the permutation for a sequence of `is_import` flags.
    pub fn compute(is_import: impl Iterator<Item = bool>) -> Self {
        let flags: Vec<bool> = is_import.collect();
        let import_count = flags.iter().filter(|&&b| b).count() as u32;
        let mut next_import = 0u32;
        let mut next_local = import_count;
        let ast_to_binary = flags
            .iter()
            .map(|&is_import| {
                if is_import {
                    let idx = next_import;
                    next_import += 1;
                    idx
                } else {
                    let idx = next_local;
                    next_local += 1;
                    idx
                }
            })
            .collect();
        IndexPermutation {
            ast_to_binary,
            import_count,
        }
    }

    /// Map an AST index to its binary index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds for the module that produced
    /// this permutation.
    pub fn binary_index(&self, ast_index: u32) -> u32 {
        self.ast_to_binary[ast_index as usize]
    }

    /// Number of imported entries in this index space.
    pub fn import_count(&self) -> u32 {
        self.import_count
    }
}

struct Encoder<'a> {
    module: &'a Module,
    types: Vec<FuncType>,
    type_indices: HashMap<FuncType, u32>,
    functions: IndexPermutation,
    globals: IndexPermutation,
}

impl<'a> Encoder<'a> {
    fn new(module: &'a Module) -> Self {
        let types = module.collect_types();
        let type_indices = types
            .iter()
            .enumerate()
            .map(|(i, ty)| (ty.clone(), i as u32))
            .collect();
        let functions =
            IndexPermutation::compute(module.functions.iter().map(|f| f.import().is_some()));
        let globals =
            IndexPermutation::compute(module.globals.iter().map(|g| g.import().is_some()));
        Encoder {
            module,
            types,
            type_indices,
            functions,
            globals,
        }
    }

    fn type_idx(&self, ty: &FuncType) -> u32 {
        *self
            .type_indices
            .get(ty)
            .expect("collect_types covers all types in the module")
    }

    fn run(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(size_hint(self.module));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION);

        self.section(&mut out, 1, Self::type_section);
        self.section(&mut out, 2, Self::import_section);
        self.section(&mut out, 3, Self::function_section);
        self.section(&mut out, 4, Self::table_section);
        self.section(&mut out, 5, Self::memory_section);
        self.section(&mut out, 6, Self::global_section);
        self.section(&mut out, 7, Self::export_section);
        self.section(&mut out, 8, Self::start_section);
        self.section(&mut out, 9, Self::element_section);
        self.section(&mut out, 10, Self::code_section);
        self.section(&mut out, 11, Self::data_section);

        self.name_section(&mut out);

        for custom in &self.module.custom_sections {
            let mut body = Vec::with_capacity(custom.bytes.len() + custom.name.len() + 5);
            write_name(&mut body, &custom.name);
            body.extend_from_slice(&custom.bytes);
            out.push(0);
            leb128::write_u32(&mut out, body.len() as u32);
            out.extend_from_slice(&body);
        }

        out
    }

    /// Emit the standard "name" custom section if the module carries a
    /// module name or any function names. Function indices are the binary
    /// indices (imports-first permutation applied), in increasing order.
    fn name_section(&self, out: &mut Vec<u8>) {
        let mut named: Vec<(u32, &str)> = self
            .module
            .functions
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                f.name
                    .as_deref()
                    .map(|name| (self.functions.binary_index(i as u32), name))
            })
            .collect();
        if self.module.name.is_none() && named.is_empty() {
            return;
        }
        named.sort_by_key(|&(idx, _)| idx);

        let mut body = Vec::new();
        write_name(&mut body, "name");
        if let Some(module_name) = &self.module.name {
            let mut sub = Vec::new();
            write_name(&mut sub, module_name);
            body.push(0);
            leb128::write_u32(&mut body, sub.len() as u32);
            body.extend_from_slice(&sub);
        }
        if !named.is_empty() {
            let mut sub = Vec::new();
            leb128::write_u32(&mut sub, named.len() as u32);
            for (idx, name) in named {
                leb128::write_u32(&mut sub, idx);
                write_name(&mut sub, name);
            }
            body.push(1);
            leb128::write_u32(&mut body, sub.len() as u32);
            body.extend_from_slice(&sub);
        }
        out.push(0);
        leb128::write_u32(out, body.len() as u32);
        out.extend_from_slice(&body);
    }

    /// Emit one section if its body is non-empty.
    fn section(&self, out: &mut Vec<u8>, id: u8, emit: fn(&Self, &mut Vec<u8>)) {
        let mut body = Vec::new();
        emit(self, &mut body);
        if body.is_empty() {
            return;
        }
        out.push(id);
        leb128::write_u32(out, body.len() as u32);
        out.extend_from_slice(&body);
    }

    fn type_section(&self, out: &mut Vec<u8>) {
        if self.types.is_empty() {
            return;
        }
        leb128::write_u32(out, self.types.len() as u32);
        for ty in &self.types {
            write_func_type(out, ty);
        }
    }

    fn import_section(&self, out: &mut Vec<u8>) {
        let mut imports = Vec::new();
        let mut count = 0u32;

        // Binary import order must match the permutation: functions keep
        // their relative AST order, as do tables, memories, and globals.
        for f in &self.module.functions {
            if let Some(import) = f.import() {
                write_name(&mut imports, &import.module);
                write_name(&mut imports, &import.name);
                imports.push(0x00);
                leb128::write_u32(&mut imports, self.type_idx(&f.type_));
                count += 1;
            }
        }
        for t in &self.module.tables {
            if let Some(import) = &t.import {
                write_name(&mut imports, &import.module);
                write_name(&mut imports, &import.name);
                imports.push(0x01);
                imports.push(0x70);
                write_limits(&mut imports, t.type_.0);
                count += 1;
            }
        }
        for m in &self.module.memories {
            if let Some(import) = &m.import {
                write_name(&mut imports, &import.module);
                write_name(&mut imports, &import.name);
                imports.push(0x02);
                write_limits(&mut imports, m.type_.0);
                count += 1;
            }
        }
        for g in &self.module.globals {
            if let Some(import) = g.import() {
                write_name(&mut imports, &import.module);
                write_name(&mut imports, &import.name);
                imports.push(0x03);
                write_global_type(&mut imports, g.type_);
                count += 1;
            }
        }

        if count == 0 {
            return;
        }
        leb128::write_u32(out, count);
        out.extend_from_slice(&imports);
    }

    fn function_section(&self, out: &mut Vec<u8>) {
        let local: Vec<&FuncType> = self
            .module
            .functions
            .iter()
            .filter(|f| f.import().is_none())
            .map(|f| &f.type_)
            .collect();
        if local.is_empty() {
            return;
        }
        leb128::write_u32(out, local.len() as u32);
        for ty in local {
            leb128::write_u32(out, self.type_idx(ty));
        }
    }

    fn table_section(&self, out: &mut Vec<u8>) {
        let local: Vec<_> = self
            .module
            .tables
            .iter()
            .filter(|t| t.import.is_none())
            .collect();
        if local.is_empty() {
            return;
        }
        leb128::write_u32(out, local.len() as u32);
        for t in local {
            out.push(0x70);
            write_limits(out, t.type_.0);
        }
    }

    fn memory_section(&self, out: &mut Vec<u8>) {
        let local: Vec<_> = self
            .module
            .memories
            .iter()
            .filter(|m| m.import.is_none())
            .collect();
        if local.is_empty() {
            return;
        }
        leb128::write_u32(out, local.len() as u32);
        for m in local {
            write_limits(out, m.type_.0);
        }
    }

    fn global_section(&self, out: &mut Vec<u8>) {
        let local: Vec<_> = self
            .module
            .globals
            .iter()
            .filter_map(|g| match &g.kind {
                GlobalKind::Init(init) => Some((g.type_, init)),
                GlobalKind::Import(_) => None,
            })
            .collect();
        if local.is_empty() {
            return;
        }
        leb128::write_u32(out, local.len() as u32);
        for (ty, init) in local {
            write_global_type(out, ty);
            for instr in init {
                self.instr(out, instr);
            }
        }
    }

    fn export_section(&self, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        let mut count = 0u32;
        for (i, f) in self.module.functions.iter().enumerate() {
            for name in &f.export {
                write_name(&mut body, name);
                body.push(0x00);
                leb128::write_u32(&mut body, self.functions.binary_index(i as u32));
                count += 1;
            }
        }
        for (i, t) in self.module.tables.iter().enumerate() {
            for name in &t.export {
                write_name(&mut body, name);
                body.push(0x01);
                leb128::write_u32(&mut body, i as u32);
                count += 1;
            }
        }
        for (i, m) in self.module.memories.iter().enumerate() {
            for name in &m.export {
                write_name(&mut body, name);
                body.push(0x02);
                leb128::write_u32(&mut body, i as u32);
                count += 1;
            }
        }
        for (i, g) in self.module.globals.iter().enumerate() {
            for name in &g.export {
                write_name(&mut body, name);
                body.push(0x03);
                leb128::write_u32(&mut body, self.globals.binary_index(i as u32));
                count += 1;
            }
        }
        if count == 0 {
            return;
        }
        leb128::write_u32(out, count);
        out.extend_from_slice(&body);
    }

    fn start_section(&self, out: &mut Vec<u8>) {
        if let Some(start) = self.module.start {
            leb128::write_u32(out, self.functions.binary_index(start.to_u32()));
        }
    }

    fn element_section(&self, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        let mut count = 0u32;
        for (table_idx, table) in self.module.tables.iter().enumerate() {
            for element in &table.elements {
                leb128::write_u32(&mut body, table_idx as u32);
                for instr in &element.offset {
                    self.instr(&mut body, instr);
                }
                leb128::write_u32(&mut body, element.functions.len() as u32);
                for f in &element.functions {
                    leb128::write_u32(&mut body, self.functions.binary_index(f.to_u32()));
                }
                count += 1;
            }
        }
        if count == 0 {
            return;
        }
        leb128::write_u32(out, count);
        out.extend_from_slice(&body);
    }

    fn code_section(&self, out: &mut Vec<u8>) {
        let local: Vec<_> = self
            .module
            .functions
            .iter()
            .filter_map(|f| f.code())
            .collect();
        if local.is_empty() {
            return;
        }
        leb128::write_u32(out, local.len() as u32);
        for code in local {
            let mut body = Vec::with_capacity(code.body.len() * 3 + code.locals.len() + 16);

            // Locals are run-length encoded by type.
            let mut groups: Vec<(ValType, u32)> = Vec::new();
            for &ty in &code.locals {
                match groups.last_mut() {
                    Some((last_ty, n)) if *last_ty == ty => *n += 1,
                    _ => groups.push((ty, 1)),
                }
            }
            leb128::write_u32(&mut body, groups.len() as u32);
            for (ty, n) in groups {
                leb128::write_u32(&mut body, n);
                body.push(val_type_byte(ty));
            }

            for instr in &code.body {
                self.instr(&mut body, instr);
            }

            leb128::write_u32(out, body.len() as u32);
            out.extend_from_slice(&body);
        }
    }

    fn data_section(&self, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        let mut count = 0u32;
        for (mem_idx, memory) in self.module.memories.iter().enumerate() {
            for data in &memory.data {
                leb128::write_u32(&mut body, mem_idx as u32);
                for instr in &data.offset {
                    self.instr(&mut body, instr);
                }
                leb128::write_u32(&mut body, data.bytes.len() as u32);
                body.extend_from_slice(&data.bytes);
                count += 1;
            }
        }
        if count == 0 {
            return;
        }
        leb128::write_u32(out, count);
        out.extend_from_slice(&body);
    }

    fn instr(&self, out: &mut Vec<u8>, instr: &Instr) {
        match instr {
            Instr::Unreachable => out.push(0x00),
            Instr::Nop => out.push(0x01),
            Instr::Block(bt) => {
                out.push(0x02);
                out.push(block_type_byte(*bt));
            }
            Instr::Loop(bt) => {
                out.push(0x03);
                out.push(block_type_byte(*bt));
            }
            Instr::If(bt) => {
                out.push(0x04);
                out.push(block_type_byte(*bt));
            }
            Instr::Else => out.push(0x05),
            Instr::End => out.push(0x0b),
            Instr::Br(label) => {
                out.push(0x0c);
                leb128::write_u32(out, label.to_u32());
            }
            Instr::BrIf(label) => {
                out.push(0x0d);
                leb128::write_u32(out, label.to_u32());
            }
            Instr::BrTable { table, default } => {
                out.push(0x0e);
                leb128::write_u32(out, table.len() as u32);
                for label in table {
                    leb128::write_u32(out, label.to_u32());
                }
                leb128::write_u32(out, default.to_u32());
            }
            Instr::Return => out.push(0x0f),
            Instr::Call(idx) => {
                out.push(0x10);
                leb128::write_u32(out, self.functions.binary_index(idx.to_u32()));
            }
            Instr::CallIndirect(ty, table_idx) => {
                out.push(0x11);
                leb128::write_u32(out, self.type_idx(ty));
                leb128::write_u32(out, table_idx.to_u32());
            }
            Instr::Drop => out.push(0x1a),
            Instr::Select => out.push(0x1b),
            Instr::Local(op, idx) => {
                out.push(op.opcode());
                leb128::write_u32(out, idx.to_u32());
            }
            Instr::Global(op, idx) => {
                out.push(op.opcode());
                leb128::write_u32(out, self.globals.binary_index(idx.to_u32()));
            }
            Instr::Load(op, memarg) => {
                out.push(op.opcode());
                leb128::write_u32(out, memarg.alignment_exp);
                leb128::write_u32(out, memarg.offset);
            }
            Instr::Store(op, memarg) => {
                out.push(op.opcode());
                leb128::write_u32(out, memarg.alignment_exp);
                leb128::write_u32(out, memarg.offset);
            }
            Instr::MemorySize(idx) => {
                out.push(0x3f);
                leb128::write_u32(out, idx.to_u32());
            }
            Instr::MemoryGrow(idx) => {
                out.push(0x40);
                leb128::write_u32(out, idx.to_u32());
            }
            Instr::Const(val) => match val {
                Val::I32(v) => {
                    out.push(0x41);
                    leb128::write_i32(out, *v);
                }
                Val::I64(v) => {
                    out.push(0x42);
                    leb128::write_i64(out, *v);
                }
                Val::F32(v) => {
                    out.push(0x43);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Val::F64(v) => {
                    out.push(0x44);
                    out.extend_from_slice(&v.to_le_bytes());
                }
            },
            Instr::Unary(op) => out.push(op.opcode()),
            Instr::Binary(op) => out.push(op.opcode()),
        }
    }
}

/// Compute the binary function-index permutation of a module without
/// encoding it (used by `ModuleInfo` to report engine-visible indices).
pub fn function_permutation(module: &Module) -> IndexPermutation {
    IndexPermutation::compute(module.functions.iter().map(|f| f.import().is_some()))
}

fn val_type_byte(ty: ValType) -> u8 {
    match ty {
        ValType::I32 => 0x7f,
        ValType::I64 => 0x7e,
        ValType::F32 => 0x7d,
        ValType::F64 => 0x7c,
    }
}

fn block_type_byte(bt: crate::instr::BlockType) -> u8 {
    match bt.0 {
        None => 0x40,
        Some(ty) => val_type_byte(ty),
    }
}

fn write_func_type(out: &mut Vec<u8>, ty: &FuncType) {
    out.push(0x60);
    leb128::write_u32(out, ty.params.len() as u32);
    for &p in &ty.params {
        out.push(val_type_byte(p));
    }
    leb128::write_u32(out, ty.results.len() as u32);
    for &r in &ty.results {
        out.push(val_type_byte(r));
    }
}

fn write_limits(out: &mut Vec<u8>, limits: Limits) {
    match limits.max {
        None => {
            out.push(0x00);
            leb128::write_u32(out, limits.initial);
        }
        Some(max) => {
            out.push(0x01);
            leb128::write_u32(out, limits.initial);
            leb128::write_u32(out, max);
        }
    }
}

fn write_global_type(out: &mut Vec<u8>, ty: GlobalType) {
    out.push(val_type_byte(ty.val_type));
    out.push(u8::from(ty.mutable));
}

fn write_name(out: &mut Vec<u8>, name: &str) {
    leb128::write_u32(out, name.len() as u32);
    out.extend_from_slice(name.as_bytes());
}

// Re-exported index space marker aliases for doc clarity.
#[allow(unused)]
type FunctionIdx = Idx<FunctionSpace>;
#[allow(unused)]
type GlobalIdx = Idx<GlobalSpace>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::instr::{BinaryOp, LocalOp};
    use crate::module::{Function, Global};
    use crate::types::{FuncType, GlobalType, Limits, ValType};

    fn sample_module() -> Module {
        let mut module = Module::new();
        let add = module.add_function(
            FuncType::new(&[ValType::I32, ValType::I32], &[ValType::I32]),
            vec![ValType::I64],
            vec![
                Instr::Local(LocalOp::Get, Idx::from(0u32)),
                Instr::Local(LocalOp::Get, Idx::from(1u32)),
                Instr::Binary(BinaryOp::I32Add),
                Instr::End,
            ],
        );
        module.function_mut(add).export.push("add".to_string());
        module
    }

    #[test]
    fn encode_decode_roundtrip() {
        let module = sample_module();
        let bytes = encode(&module);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(module, decoded);
    }

    #[test]
    fn size_hint_covers_typical_modules() {
        // The hint is a heuristic, but for ordinary instruction mixes it
        // should preallocate enough that `encode` never regrows, while not
        // overshooting absurdly.
        let mut module = sample_module();
        let mut memory = crate::module::Memory::new(Limits::at_least(1));
        memory.data.push(crate::module::Data {
            offset: vec![Instr::Const(Val::I32(0)), Instr::End],
            bytes: vec![0u8; 4096],
        });
        module.memories.push(memory);
        let bytes = encode(&module);
        let hint = size_hint(&module);
        assert!(hint >= bytes.len(), "hint {hint} < encoded {}", bytes.len());
        assert!(hint <= bytes.len() * 8 + 1024, "hint {hint} overshoots");
        // The returned buffer was allocated up front, not grown by
        // doubling past the hint.
        assert!(bytes.capacity() <= hint.max(bytes.len()));
    }

    #[test]
    fn late_import_is_sorted_first_and_calls_remapped() {
        let mut module = sample_module();
        // Add an import *after* the local function, then call it from a new
        // function: AST index 1 refers to the import.
        let import_idx = module.add_function_import(FuncType::new(&[], &[]), "env", "hook");
        module.add_function(
            FuncType::new(&[], &[]),
            vec![],
            vec![Instr::Call(import_idx), Instr::End],
        );

        let bytes = encode(&module);
        let decoded = decode(&bytes).expect("decodes");

        // After decoding, the import must be function 0.
        assert!(decoded.functions[0].import().is_some());
        // The caller (now at some local index) must call function 0.
        let caller = decoded
            .functions
            .iter()
            .find(|f| {
                f.code()
                    .is_some_and(|c| c.body.iter().any(|i| matches!(i, Instr::Call(_))))
            })
            .expect("caller exists");
        let call = caller
            .code()
            .unwrap()
            .body
            .iter()
            .find_map(|i| match i {
                Instr::Call(idx) => Some(*idx),
                _ => None,
            })
            .unwrap();
        assert_eq!(call.to_u32(), 0);
        // Once normalized (imports first), encoding is a fixed point.
        let bytes2 = encode(&decoded);
        let decoded2 = decode(&bytes2).expect("decodes");
        assert_eq!(decoded, decoded2);
        assert_eq!(encode(&decoded2), bytes2);
    }

    #[test]
    fn globals_permuted_and_remapped() {
        let mut module = Module::new();
        module.add_global(GlobalType::mutable(ValType::I32), Val::I32(7));
        module.globals.push(Global::new_import(
            GlobalType::const_(ValType::F64),
            "env",
            "g",
        ));
        module.add_function(
            FuncType::new(&[], &[ValType::I32]),
            vec![],
            vec![
                Instr::Global(crate::instr::GlobalOp::Get, Idx::from(0u32)),
                Instr::End,
            ],
        );
        let bytes = encode(&module);
        let decoded = decode(&bytes).expect("decodes");
        // Imported global must be binary index 0, so the get_global of the
        // (formerly first) local global must now reference index 1.
        assert!(decoded.globals[0].import().is_some());
        let body = &decoded.functions[0].code().unwrap().body;
        assert_eq!(
            body[0],
            Instr::Global(crate::instr::GlobalOp::Get, Idx::from(1u32))
        );
    }

    #[test]
    fn table_memory_elements_data_roundtrip() {
        let mut module = sample_module();
        let mut table = crate::module::Table::new(Limits::bounded(2, 2));
        table.elements.push(crate::module::Element {
            offset: vec![Instr::Const(Val::I32(0)), Instr::End],
            functions: vec![Idx::from(0u32)],
        });
        module.tables.push(table);
        let mut memory = crate::module::Memory::new(Limits::at_least(1));
        memory.data.push(crate::module::Data {
            offset: vec![Instr::Const(Val::I32(16)), Instr::End],
            bytes: vec![1, 2, 3, 4],
        });
        module.memories.push(memory);
        module.start = Some(Idx::from(0u32));

        let bytes = encode(&module);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(module, decoded);
    }

    #[test]
    fn name_section_roundtrip() {
        let mut module = sample_module();
        module.name = Some("my_module".to_string());
        module.functions[0].name = Some("my_add".to_string());
        // A late import that the encoder permutes to binary index 0: its
        // name must follow it.
        let import = module.add_function_import(FuncType::new(&[], &[]), "env", "h");
        module.functions[import.to_usize()].name = Some("h_dbg".to_string());

        let decoded = decode(&encode(&module)).expect("decodes");
        assert_eq!(decoded.name.as_deref(), Some("my_module"));
        // After decoding, the import is function 0 and carries its name.
        assert_eq!(decoded.functions[0].name.as_deref(), Some("h_dbg"));
        assert_eq!(decoded.functions[1].name.as_deref(), Some("my_add"));
        // No opaque "name" custom section is kept around.
        assert!(decoded.custom_sections.iter().all(|c| c.name != "name"));
    }

    #[test]
    fn malformed_name_section_kept_opaque() {
        let mut module = sample_module();
        module.custom_sections.push(crate::module::CustomSection {
            name: "name".to_string(),
            bytes: vec![0xff, 0xff, 0xff], // not a valid subsection
        });
        let decoded = decode(&encode(&module)).expect("decodes");
        assert!(decoded.custom_sections.iter().any(|c| c.name == "name"));
    }

    #[test]
    fn imported_function_before_local_is_identity() {
        let mut module = Module::new();
        module
            .functions
            .push(Function::new_import(FuncType::new(&[], &[]), "env", "f"));
        module.add_function(FuncType::new(&[], &[]), vec![], vec![Instr::End]);
        let perm = function_permutation(&module);
        assert_eq!(perm.binary_index(0), 0);
        assert_eq!(perm.binary_index(1), 1);
        assert_eq!(perm.import_count(), 1);
    }

    #[test]
    fn all_instruction_encodings_roundtrip() {
        use crate::instr::*;
        let mut body: Vec<Instr> = vec![
            Instr::Nop,
            Instr::Block(BlockType(Some(ValType::I32))),
            Instr::Const(Val::I32(42)),
            Instr::End,
            Instr::Drop,
            Instr::Block(BlockType(None)),
            Instr::Br(Label(0)),
            Instr::End,
            Instr::Const(Val::I64(-1)),
            Instr::Drop,
            Instr::Const(Val::F32(1.5)),
            Instr::Drop,
            Instr::Const(Val::F64(-2.5)),
            Instr::Drop,
            Instr::Const(Val::I32(0)),
            Instr::If(BlockType(None)),
            Instr::Nop,
            Instr::Else,
            Instr::Unreachable,
            Instr::End,
        ];
        for op in UnaryOp::ALL {
            body.push(Instr::Const(Val::zero(op.input())));
            body.push(Instr::Unary(*op));
            body.push(Instr::Drop);
        }
        for op in BinaryOp::ALL {
            body.push(Instr::Const(Val::zero(op.input())));
            body.push(Instr::Const(match op.input() {
                ValType::I32 => Val::I32(1),
                ValType::I64 => Val::I64(1),
                ValType::F32 => Val::F32(1.0),
                ValType::F64 => Val::F64(1.0),
            }));
            body.push(Instr::Binary(*op));
            body.push(Instr::Drop);
        }
        for op in LoadOp::ALL {
            body.push(Instr::Const(Val::I32(0)));
            body.push(Instr::Load(*op, Memarg::natural(op.access_bytes())));
            body.push(Instr::Drop);
        }
        for op in StoreOp::ALL {
            body.push(Instr::Const(Val::I32(0)));
            body.push(Instr::Const(Val::zero(op.value_type())));
            body.push(Instr::Store(*op, Memarg::natural(op.access_bytes())));
        }
        body.push(Instr::MemorySize(Idx::from(0u32)));
        body.push(Instr::Drop);
        body.push(Instr::Const(Val::I32(1)));
        body.push(Instr::MemoryGrow(Idx::from(0u32)));
        body.push(Instr::Drop);
        body.push(Instr::End);

        let mut module = Module::new();
        module
            .memories
            .push(crate::module::Memory::new(Limits::at_least(1)));
        module.add_function(FuncType::new(&[], &[]), vec![], body);

        let bytes = encode(&module);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(module, decoded);
    }
}
