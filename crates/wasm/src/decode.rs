//! Binary format decoder: bytes → [`Module`] AST.
//!
//! Because the binary format places all imports before all local
//! definitions, the decoder's AST indices coincide with binary indices (the
//! encoder's remapping is the identity on freshly-decoded modules).

use crate::error::{DecodeError, DecodeErrorKind};
use crate::instr::{
    BinaryOp, BlockType, GlobalOp, Idx, Instr, Label, LoadOp, LocalOp, Memarg, StoreOp, UnaryOp,
    Val,
};
use crate::leb128::Reader;
use crate::module::{
    Code, CustomSection, Data, Element, Function, FunctionKind, Global, GlobalKind, Import, Memory,
    Module, Table,
};
use crate::types::{FuncType, GlobalType, Limits, MemoryType, TableType, ValType};

/// Magic bytes at the start of every Wasm binary: `\0asm`.
pub const MAGIC: [u8; 4] = [0x00, 0x61, 0x73, 0x6d];
/// Binary format version 1 (little-endian u32).
pub const VERSION: [u8; 4] = [0x01, 0x00, 0x00, 0x00];

/// Most parameters plus locals one function may declare (the WebAssembly
/// JS API's implementation limit). The VM keeps a 16-byte zero slot per
/// declared local and copies them on every call, so without a cap a
/// 52-byte upload could ask for tens of megabytes.
pub const MAX_FUNCTION_LOCALS: usize = 50_000;

/// Most locals all functions of one module may declare together: at
/// 16 bytes a slot, a module's zero slots stay within 16 MB.
pub const MAX_MODULE_LOCALS: usize = 1_000_000;

/// Decode a WebAssembly binary into a [`Module`].
///
/// # Errors
///
/// Returns a [`DecodeError`] with byte-offset information if the input is
/// malformed. Note that decoding does not type check; use
/// [`crate::validate::validate`] for that.
pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
    Decoder::new(bytes).run()
}

struct Decoder<'a> {
    r: Reader<'a>,
    module: Module,
    /// Type section contents, referenced by later sections.
    types: Vec<FuncType>,
    /// AST indices of local (non-imported) functions declared by the
    /// function section; their bodies are filled in by the code section.
    local_function_indices: Vec<usize>,
    /// Number of imported functions (= index of the first local function).
    imported_function_count: usize,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Decoder {
            r: Reader::new(bytes),
            module: Module::new(),
            types: Vec::new(),
            local_function_indices: Vec::new(),
            imported_function_count: 0,
        }
    }

    fn err(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError::new(self.r.pos(), kind)
    }

    fn run(mut self) -> Result<Module, DecodeError> {
        if self.r.bytes(4)? != MAGIC {
            return Err(self.err(DecodeErrorKind::InvalidMagic));
        }
        if self.r.bytes(4)? != VERSION {
            return Err(self.err(DecodeErrorKind::InvalidVersion));
        }

        let mut last_section_id = 0u8;
        while !self.r.is_at_end() {
            let id = self.r.byte()?;
            let size = self.r.u32()? as usize;
            let section_end = self.r.pos() + size;
            if self.r.remaining() < size {
                return Err(self.err(DecodeErrorKind::UnexpectedEof));
            }
            if id > 11 {
                return Err(self.err(DecodeErrorKind::InvalidSection(id)));
            }
            // Non-custom sections must appear in increasing id order.
            if id != 0 {
                if id <= last_section_id {
                    return Err(self.err(DecodeErrorKind::InvalidSection(id)));
                }
                last_section_id = id;
            }
            match id {
                0 => self.custom_section(section_end)?,
                1 => self.type_section()?,
                2 => self.import_section()?,
                3 => self.function_section()?,
                4 => self.table_section()?,
                5 => self.memory_section()?,
                6 => self.global_section()?,
                7 => self.export_section()?,
                8 => self.start_section()?,
                9 => self.element_section()?,
                10 => self.code_section()?,
                11 => self.data_section()?,
                _ => unreachable!("section id checked above"),
            }
            if self.r.pos() != section_end {
                return Err(self.err(DecodeErrorKind::SizeMismatch));
            }
        }

        Ok(self.module)
    }

    fn val_type(&mut self) -> Result<ValType, DecodeError> {
        let byte = self.r.byte()?;
        match byte {
            0x7f => Ok(ValType::I32),
            0x7e => Ok(ValType::I64),
            0x7d => Ok(ValType::F32),
            0x7c => Ok(ValType::F64),
            other => Err(self.err(DecodeErrorKind::InvalidType(other))),
        }
    }

    fn block_type(&mut self) -> Result<BlockType, DecodeError> {
        let byte = self.r.byte()?;
        match byte {
            0x40 => Ok(BlockType(None)),
            0x7f => Ok(BlockType(Some(ValType::I32))),
            0x7e => Ok(BlockType(Some(ValType::I64))),
            0x7d => Ok(BlockType(Some(ValType::F32))),
            0x7c => Ok(BlockType(Some(ValType::F64))),
            other => Err(self.err(DecodeErrorKind::InvalidType(other))),
        }
    }

    fn func_type(&mut self) -> Result<FuncType, DecodeError> {
        let tag = self.r.byte()?;
        if tag != 0x60 {
            return Err(self.err(DecodeErrorKind::InvalidType(tag)));
        }
        let param_count = self.r.u32()? as usize;
        let mut params = Vec::with_capacity(param_count.min(64));
        for _ in 0..param_count {
            params.push(self.val_type()?);
        }
        let result_count = self.r.u32()? as usize;
        let mut results = Vec::with_capacity(result_count.min(8));
        for _ in 0..result_count {
            results.push(self.val_type()?);
        }
        Ok(FuncType { params, results })
    }

    fn limits(&mut self) -> Result<Limits, DecodeError> {
        let flag = self.r.byte()?;
        let initial = self.r.u32()?;
        let max = match flag {
            0x00 => None,
            0x01 => Some(self.r.u32()?),
            other => return Err(self.err(DecodeErrorKind::InvalidKind(other))),
        };
        Ok(Limits { initial, max })
    }

    fn table_type(&mut self) -> Result<TableType, DecodeError> {
        let elem_type = self.r.byte()?;
        if elem_type != 0x70 {
            return Err(self.err(DecodeErrorKind::InvalidType(elem_type)));
        }
        Ok(TableType(self.limits()?))
    }

    fn global_type(&mut self) -> Result<GlobalType, DecodeError> {
        let val_type = self.val_type()?;
        let mutable = match self.r.byte()? {
            0x00 => false,
            0x01 => true,
            other => return Err(self.err(DecodeErrorKind::InvalidKind(other))),
        };
        Ok(GlobalType { val_type, mutable })
    }

    fn lookup_type(&self, idx: u32) -> Result<FuncType, DecodeError> {
        self.types
            .get(idx as usize)
            .cloned()
            .ok_or_else(|| DecodeError::new(self.r.pos(), DecodeErrorKind::IndexOutOfBounds))
    }

    fn custom_section(&mut self, section_end: usize) -> Result<(), DecodeError> {
        let name = self.r.name()?;
        if self.r.pos() > section_end {
            return Err(self.err(DecodeErrorKind::SizeMismatch));
        }
        let bytes = self.r.bytes(section_end - self.r.pos())?.to_vec();
        if name == "name" {
            // Parse the standard debug-name section into structured names.
            // A malformed name section is ignored (engines do the same)
            // and kept as an opaque custom section instead.
            if self.parse_name_section(&bytes).is_ok() {
                return Ok(());
            }
        }
        self.module
            .custom_sections
            .push(CustomSection { name, bytes });
        Ok(())
    }

    /// The "name" custom section: subsections for the module name (id 0)
    /// and function names (id 1). Local-name subsections (id 2) are
    /// dropped, like in the original Wasabi.
    fn parse_name_section(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        let mut module_name = None;
        let mut function_names: Vec<(u32, String)> = Vec::new();
        while !r.is_at_end() {
            let id = r.byte()?;
            let size = r.u32()? as usize;
            if r.remaining() < size {
                return Err(DecodeError::new(r.pos(), DecodeErrorKind::UnexpectedEof));
            }
            let mut sub = Reader::new(r.bytes(size)?);
            match id {
                0 => module_name = Some(sub.name()?),
                1 => {
                    let count = sub.u32()?;
                    for _ in 0..count {
                        let func_idx = sub.u32()?;
                        let name = sub.name()?;
                        if func_idx as usize >= self.module.functions.len() {
                            return Err(DecodeError::new(0, DecodeErrorKind::IndexOutOfBounds));
                        }
                        function_names.push((func_idx, name));
                    }
                }
                _ => {} // local names and nonstandard subsections: dropped
            }
        }
        self.module.name = module_name;
        for (func_idx, name) in function_names {
            self.module.functions[func_idx as usize].name = Some(name);
        }
        Ok(())
    }

    fn type_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let ty = self.func_type()?;
            self.types.push(ty);
        }
        Ok(())
    }

    fn import_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let module = self.r.name()?;
            let name = self.r.name()?;
            let import = Import { module, name };
            match self.r.byte()? {
                0x00 => {
                    let type_idx = self.r.u32()?;
                    let type_ = self.lookup_type(type_idx)?;
                    self.module.functions.push(Function {
                        type_,
                        kind: FunctionKind::Import(import),
                        export: Vec::new(),
                        name: None,
                    });
                    self.imported_function_count += 1;
                }
                0x01 => {
                    let type_ = self.table_type()?;
                    self.module.tables.push(Table {
                        type_,
                        import: Some(import),
                        elements: Vec::new(),
                        export: Vec::new(),
                    });
                }
                0x02 => {
                    let type_ = MemoryType(self.limits()?);
                    self.module.memories.push(Memory {
                        type_,
                        import: Some(import),
                        data: Vec::new(),
                        export: Vec::new(),
                    });
                }
                0x03 => {
                    let type_ = self.global_type()?;
                    self.module.globals.push(Global {
                        type_,
                        kind: GlobalKind::Import(import),
                        export: Vec::new(),
                    });
                }
                other => return Err(self.err(DecodeErrorKind::InvalidKind(other))),
            }
        }
        Ok(())
    }

    fn function_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let type_idx = self.r.u32()?;
            let type_ = self.lookup_type(type_idx)?;
            // Placeholder body; the code section fills it in. Creating the
            // entry now gives later sections (export, element, start) valid
            // function indices to reference.
            self.local_function_indices
                .push(self.module.functions.len());
            self.module.functions.push(Function {
                type_,
                kind: FunctionKind::Local(Code::default()),
                export: Vec::new(),
                name: None,
            });
        }
        Ok(())
    }

    fn table_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let type_ = self.table_type()?;
            self.module.tables.push(Table {
                type_,
                import: None,
                elements: Vec::new(),
                export: Vec::new(),
            });
        }
        Ok(())
    }

    fn memory_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let type_ = MemoryType(self.limits()?);
            self.module.memories.push(Memory {
                type_,
                import: None,
                data: Vec::new(),
                export: Vec::new(),
            });
        }
        Ok(())
    }

    fn global_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let type_ = self.global_type()?;
            let init = self.const_expr()?;
            self.module.globals.push(Global {
                type_,
                kind: GlobalKind::Init(init),
                export: Vec::new(),
            });
        }
        Ok(())
    }

    fn export_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let name = self.r.name()?;
            let kind = self.r.byte()?;
            let idx = self.r.u32()? as usize;
            let export_list = match kind {
                0x00 => self.module.functions.get_mut(idx).map(|f| &mut f.export),
                0x01 => self.module.tables.get_mut(idx).map(|t| &mut t.export),
                0x02 => self.module.memories.get_mut(idx).map(|m| &mut m.export),
                0x03 => self.module.globals.get_mut(idx).map(|g| &mut g.export),
                other => return Err(self.err(DecodeErrorKind::InvalidKind(other))),
            };
            match export_list {
                Some(list) => list.push(name),
                None => return Err(self.err(DecodeErrorKind::IndexOutOfBounds)),
            }
        }
        Ok(())
    }

    fn start_section(&mut self) -> Result<(), DecodeError> {
        let idx = self.r.u32()?;
        self.module.start = Some(Idx::from(idx));
        Ok(())
    }

    fn element_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let table_idx = self.r.u32()? as usize;
            let offset = self.const_expr()?;
            let func_count = self.r.u32()? as usize;
            let mut functions = Vec::with_capacity(func_count.min(1024));
            for _ in 0..func_count {
                functions.push(Idx::from(self.r.u32()?));
            }
            let table = self
                .module
                .tables
                .get_mut(table_idx)
                .ok_or_else(|| DecodeError::new(0, DecodeErrorKind::IndexOutOfBounds))?;
            table.elements.push(Element { offset, functions });
        }
        Ok(())
    }

    fn code_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()? as usize;
        if count != self.local_function_indices.len() {
            return Err(self.err(DecodeErrorKind::Malformed(
                "function and code section disagree",
            )));
        }
        let mut module_locals = 0;
        for i in 0..count {
            let size = self.r.u32()? as usize;
            let body_end = self.r.pos() + size;
            let ast_index = self.local_function_indices[i];
            let params = self.module.functions[ast_index].type_.params.len();

            let local_group_count = self.r.u32()? as usize;
            let mut locals = Vec::new();
            for _ in 0..local_group_count {
                let n = self.r.u32()? as usize;
                let ty = self.val_type()?;
                let declared = locals.len() + n;
                if params + declared > MAX_FUNCTION_LOCALS
                    || module_locals + declared > MAX_MODULE_LOCALS
                {
                    return Err(self.err(DecodeErrorKind::Malformed("too many locals")));
                }
                locals.extend(std::iter::repeat_n(ty, n));
            }
            module_locals += locals.len();

            let body = self.instr_seq()?;
            if self.r.pos() != body_end {
                return Err(self.err(DecodeErrorKind::SizeMismatch));
            }

            self.module.functions[ast_index].kind = FunctionKind::Local(Code { locals, body });
        }
        Ok(())
    }

    fn data_section(&mut self) -> Result<(), DecodeError> {
        let count = self.r.u32()?;
        for _ in 0..count {
            let mem_idx = self.r.u32()? as usize;
            let offset = self.const_expr()?;
            let len = self.r.u32()? as usize;
            let bytes = self.r.bytes(len)?.to_vec();
            let memory = self
                .module
                .memories
                .get_mut(mem_idx)
                .ok_or_else(|| DecodeError::new(0, DecodeErrorKind::IndexOutOfBounds))?;
            memory.data.push(Data { offset, bytes });
        }
        Ok(())
    }

    /// A constant expression: instructions up to and including `end`.
    fn const_expr(&mut self) -> Result<Vec<Instr>, DecodeError> {
        let mut instrs = Vec::new();
        loop {
            let instr = self.instr()?;
            let done = instr == Instr::End;
            instrs.push(instr);
            if done {
                return Ok(instrs);
            }
        }
    }

    /// A function body: instructions up to and including the `end` that
    /// closes the function block (nesting-aware).
    fn instr_seq(&mut self) -> Result<Vec<Instr>, DecodeError> {
        let mut instrs = Vec::new();
        let mut depth = 0usize;
        loop {
            let instr = self.instr()?;
            match &instr {
                Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => depth += 1,
                Instr::End => {
                    if depth == 0 {
                        instrs.push(instr);
                        return Ok(instrs);
                    }
                    depth -= 1;
                }
                _ => {}
            }
            instrs.push(instr);
        }
    }

    fn memarg(&mut self) -> Result<Memarg, DecodeError> {
        let alignment_exp = self.r.u32()?;
        let offset = self.r.u32()?;
        Ok(Memarg {
            alignment_exp,
            offset,
        })
    }

    fn instr(&mut self) -> Result<Instr, DecodeError> {
        let opcode = self.r.byte()?;
        Ok(match opcode {
            0x00 => Instr::Unreachable,
            0x01 => Instr::Nop,
            0x02 => Instr::Block(self.block_type()?),
            0x03 => Instr::Loop(self.block_type()?),
            0x04 => Instr::If(self.block_type()?),
            0x05 => Instr::Else,
            0x0b => Instr::End,
            0x0c => Instr::Br(Label(self.r.u32()?)),
            0x0d => Instr::BrIf(Label(self.r.u32()?)),
            0x0e => {
                let count = self.r.u32()? as usize;
                let mut table = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    table.push(Label(self.r.u32()?));
                }
                let default = Label(self.r.u32()?);
                Instr::BrTable { table, default }
            }
            0x0f => Instr::Return,
            0x10 => Instr::Call(Idx::from(self.r.u32()?)),
            0x11 => {
                let type_idx = self.r.u32()?;
                let ty = self.lookup_type(type_idx)?;
                let table_idx = self.r.u32()?;
                Instr::CallIndirect(ty, Idx::from(table_idx))
            }
            0x1a => Instr::Drop,
            0x1b => Instr::Select,
            0x20 => Instr::Local(LocalOp::Get, Idx::from(self.r.u32()?)),
            0x21 => Instr::Local(LocalOp::Set, Idx::from(self.r.u32()?)),
            0x22 => Instr::Local(LocalOp::Tee, Idx::from(self.r.u32()?)),
            0x23 => Instr::Global(GlobalOp::Get, Idx::from(self.r.u32()?)),
            0x24 => Instr::Global(GlobalOp::Set, Idx::from(self.r.u32()?)),
            0x28..=0x35 => {
                let op = LoadOp::from_opcode(opcode).expect("load opcode in range");
                Instr::Load(op, self.memarg()?)
            }
            0x36..=0x3e => {
                let op = StoreOp::from_opcode(opcode).expect("store opcode in range");
                Instr::Store(op, self.memarg()?)
            }
            0x3f => Instr::MemorySize(Idx::from(self.r.u32()?)),
            0x40 => Instr::MemoryGrow(Idx::from(self.r.u32()?)),
            0x41 => Instr::Const(Val::I32(self.r.i32()?)),
            0x42 => Instr::Const(Val::I64(self.r.i64()?)),
            0x43 => Instr::Const(Val::F32(self.r.f32()?)),
            0x44 => Instr::Const(Val::F64(self.r.f64()?)),
            other => {
                if let Some(op) = UnaryOp::from_opcode(other) {
                    Instr::Unary(op)
                } else if let Some(op) = BinaryOp::from_opcode(other) {
                    Instr::Binary(op)
                } else {
                    return Err(self.err(DecodeErrorKind::InvalidOpcode(other)));
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_module_roundtrip() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION);
        let module = decode(&bytes).expect("decodes");
        assert_eq!(module, Module::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = [0x00, 0x61, 0x73, 0x00, 0x01, 0x00, 0x00, 0x00];
        let err = decode(&bytes).expect_err("must fail");
        assert_eq!(err.kind(), DecodeErrorKind::InvalidMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let bytes = [0x00, 0x61, 0x73, 0x6d, 0x02, 0x00, 0x00, 0x00];
        let err = decode(&bytes).expect_err("must fail");
        assert_eq!(err.kind(), DecodeErrorKind::InvalidVersion);
    }

    #[test]
    fn truncated_section_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION);
        bytes.push(1); // type section
        bytes.push(10); // declared size larger than remaining
        bytes.push(0);
        let err = decode(&bytes).expect_err("must fail");
        assert_eq!(err.kind(), DecodeErrorKind::UnexpectedEof);
    }

    #[test]
    fn out_of_order_sections_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION);
        // code section (10) followed by type section (1)
        bytes.extend_from_slice(&[10, 1, 0]);
        bytes.extend_from_slice(&[1, 1, 0]);
        let err = decode(&bytes).expect_err("must fail");
        assert!(matches!(err.kind(), DecodeErrorKind::InvalidSection(1)));
    }

    /// `functions` functions of type `() -> ()` with `locals` `i64` locals
    /// each and an empty body, encoded.
    fn many_locals(functions: usize, locals: usize) -> Vec<u8> {
        let mut module = Module::new();
        for _ in 0..functions {
            module.add_function(
                FuncType::new(&[], &[]),
                vec![ValType::I64; locals],
                vec![Instr::End],
            );
        }
        crate::encode::encode(&module)
    }

    #[test]
    fn huge_local_declarations_are_rejected() {
        // A 52-byte module declaring about four million locals.
        let bomb = many_locals(4, 999_990);
        assert!(bomb.len() <= 64, "{} bytes", bomb.len());
        let err = decode(&bomb).expect_err("must fail");
        assert_eq!(err.kind(), DecodeErrorKind::Malformed("too many locals"));

        // Parameters count against the per-function cap.
        let mut module = Module::new();
        module.add_function(
            FuncType::new(&[ValType::I32], &[]),
            vec![ValType::I64; MAX_FUNCTION_LOCALS],
            vec![Instr::End],
        );
        let err = decode(&crate::encode::encode(&module)).expect_err("must fail");
        assert_eq!(err.kind(), DecodeErrorKind::Malformed("too many locals"));

        // Functions each within their cap, together over the module's.
        let per_function = MAX_FUNCTION_LOCALS;
        let functions = MAX_MODULE_LOCALS / per_function + 1;
        let err = decode(&many_locals(functions, per_function)).expect_err("must fail");
        assert_eq!(err.kind(), DecodeErrorKind::Malformed("too many locals"));
    }

    #[test]
    fn locals_up_to_the_caps_decode() {
        let module = decode(&many_locals(1, MAX_FUNCTION_LOCALS)).expect("decodes");
        assert_eq!(
            module.functions[0].code().expect("local").locals.len(),
            MAX_FUNCTION_LOCALS
        );
        let functions = MAX_MODULE_LOCALS / MAX_FUNCTION_LOCALS;
        let module = decode(&many_locals(functions, MAX_FUNCTION_LOCALS)).expect("decodes");
        assert_eq!(module.functions.len(), functions);
    }

    #[test]
    fn custom_section_preserved() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION);
        let payload = [4u8, b'n', b'a', b'm', b'e', 1, 2, 3];
        bytes.push(0);
        bytes.push(payload.len() as u8);
        bytes.extend_from_slice(&payload);
        let module = decode(&bytes).expect("decodes");
        assert_eq!(module.custom_sections.len(), 1);
        assert_eq!(module.custom_sections[0].name, "name");
        assert_eq!(module.custom_sections[0].bytes, vec![1, 2, 3]);
    }
}
