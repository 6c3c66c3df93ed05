//! Instruction mix analysis (paper Table 4, 42 LoC in JS): counts how often
//! each kind of instruction is executed, "which can serve as a basis for
//! performance and security analyses".

use std::collections::BTreeMap;

use wasabi::event::{
    AnalysisCtx, BinaryEvt, BlockEvt, BranchEvt, BranchTableEvt, CallEvt, GlobalEvt, IfEvt,
    LoadEvt, LocalEvt, MemGrowEvt, MemSizeEvt, ReturnEvt, SelectEvt, StoreEvt, UnaryEvt, ValEvt,
};
use wasabi::hooks::{Analysis, BlockKind};
use wasabi::report::{JsonValue, Report};
use wasabi_wasm::instr::{mnemonic, Val};

// MVP opcodes of the counted instructions whose events carry no op enum.
const UNREACHABLE: u8 = 0x00;
const NOP: u8 = 0x01;
const BLOCK: u8 = 0x02;
const LOOP: u8 = 0x03;
const IF: u8 = 0x04;
const BR: u8 = 0x0c;
const BR_IF: u8 = 0x0d;
const BR_TABLE: u8 = 0x0e;
const RETURN: u8 = 0x0f;
const CALL: u8 = 0x10;
const CALL_INDIRECT: u8 = 0x11;
const DROP: u8 = 0x1a;
const SELECT: u8 = 0x1b;
const MEMORY_SIZE: u8 = 0x3f;
const MEMORY_GROW: u8 = 0x40;
const I32_CONST: u8 = 0x41;
const I64_CONST: u8 = 0x42;
const F32_CONST: u8 = 0x43;
const F64_CONST: u8 = 0x44;

/// Counts executed instructions by mnemonic. Uses all hooks.
///
/// Counts are kept by binary opcode, so each event is one array
/// increment; they are named through [`mnemonic`] only when read
/// ([`InstructionMix::counts`], [`InstructionMix::top`], the report).
#[derive(Debug, Clone)]
pub struct InstructionMix {
    counts: [u64; 256],
}

impl Default for InstructionMix {
    fn default() -> Self {
        InstructionMix { counts: [0; 256] }
    }
}

impl InstructionMix {
    /// An empty profile.
    pub fn new() -> Self {
        InstructionMix::default()
    }

    fn bump(&mut self, opcode: u8) {
        self.counts[usize::from(opcode)] += 1;
    }

    /// Executed count per instruction mnemonic, alphabetically ordered.
    /// Instructions that never executed are absent.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        (0..=u8::MAX)
            .zip(self.counts)
            .filter(|&(_, count)| count > 0)
            .map(|(opcode, count)| {
                let name = mnemonic(opcode).expect("only MVP opcodes are counted");
                (name, count)
            })
            .collect()
    }

    /// Total number of instructions observed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `n` most frequent instructions.
    pub fn top(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut entries: Vec<(&'static str, u64)> = self.counts().into_iter().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        entries.truncate(n);
        entries
    }
}

impl Analysis for InstructionMix {
    // Default `hooks()` = all hooks: this analysis observes everything.

    fn name(&self) -> &str {
        "instruction_mix"
    }

    fn report(&self) -> Report {
        Report::new(
            self.name(),
            JsonValue::object([
                ("total", self.total().into()),
                (
                    "counts",
                    JsonValue::object(
                        self.counts()
                            .into_iter()
                            .map(|(name, count)| (name, JsonValue::from(count))),
                    ),
                ),
            ]),
        )
    }

    fn nop(&mut self, _: &AnalysisCtx) {
        self.bump(NOP);
    }
    fn unreachable(&mut self, _: &AnalysisCtx) {
        self.bump(UNREACHABLE);
    }
    fn if_(&mut self, _: &AnalysisCtx, _: &IfEvt) {
        self.bump(IF);
    }
    fn br(&mut self, _: &AnalysisCtx, _: &BranchEvt) {
        self.bump(BR);
    }
    fn br_if(&mut self, _: &AnalysisCtx, _: &BranchEvt) {
        self.bump(BR_IF);
    }
    fn br_table(&mut self, _: &AnalysisCtx, _: &BranchTableEvt<'_>) {
        self.bump(BR_TABLE);
    }
    fn begin(&mut self, _: &AnalysisCtx, evt: &BlockEvt) {
        match evt.kind {
            BlockKind::Block => self.bump(BLOCK),
            BlockKind::Loop => self.bump(LOOP),
            _ => {}
        }
    }
    fn memory_size(&mut self, _: &AnalysisCtx, _: &MemSizeEvt) {
        self.bump(MEMORY_SIZE);
    }
    fn memory_grow(&mut self, _: &AnalysisCtx, _: &MemGrowEvt) {
        self.bump(MEMORY_GROW);
    }
    fn const_(&mut self, _: &AnalysisCtx, evt: &ValEvt) {
        self.bump(match evt.value {
            Val::I32(_) => I32_CONST,
            Val::I64(_) => I64_CONST,
            Val::F32(_) => F32_CONST,
            Val::F64(_) => F64_CONST,
        });
    }
    fn drop_(&mut self, _: &AnalysisCtx, _: &ValEvt) {
        self.bump(DROP);
    }
    fn select(&mut self, _: &AnalysisCtx, _: &SelectEvt) {
        self.bump(SELECT);
    }
    fn unary(&mut self, _: &AnalysisCtx, evt: &UnaryEvt) {
        self.bump(evt.op.opcode());
    }
    fn binary(&mut self, _: &AnalysisCtx, evt: &BinaryEvt) {
        self.bump(evt.op.opcode());
    }
    fn load(&mut self, _: &AnalysisCtx, evt: &LoadEvt) {
        self.bump(evt.op.opcode());
    }
    fn store(&mut self, _: &AnalysisCtx, evt: &StoreEvt) {
        self.bump(evt.op.opcode());
    }
    fn local(&mut self, _: &AnalysisCtx, evt: &LocalEvt) {
        self.bump(evt.op.opcode());
    }
    fn global(&mut self, _: &AnalysisCtx, evt: &GlobalEvt) {
        self.bump(evt.op.opcode());
    }
    fn return_(&mut self, _: &AnalysisCtx, _: &ReturnEvt<'_>) {
        self.bump(RETURN);
    }
    fn call_pre(&mut self, _: &AnalysisCtx, evt: &CallEvt<'_>) {
        self.bump(if evt.is_indirect() {
            CALL_INDIRECT
        } else {
            CALL
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi::AnalysisSession;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::types::ValType;

    #[test]
    fn counts_executed_instructions() {
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[], &[ValType::I32], |f| {
            f.i32_const(1).i32_const(2).i32_add();
        });
        let mut mix = InstructionMix::new();
        let session = AnalysisSession::for_analysis(&builder.finish(), &mix).unwrap();
        session.run(&mut mix, "f", &[]).unwrap();
        assert_eq!(mix.counts()["i32.const"], 2);
        assert_eq!(mix.counts()["i32.add"], 1);
        assert_eq!(mix.total(), 3);
    }

    #[test]
    fn loop_iterations_multiply_counts() {
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[], &[], |f| {
            let i = f.local(ValType::I32);
            f.block(None).loop_(None);
            f.get_local(i)
                .i32_const(5)
                .binary(wasabi_wasm::BinaryOp::I32GeS)
                .br_if(1);
            f.get_local(i).i32_const(1).i32_add().set_local(i);
            f.br(0).end().end();
        });
        let mut mix = InstructionMix::new();
        let session = AnalysisSession::for_analysis(&builder.finish(), &mix).unwrap();
        session.run(&mut mix, "f", &[]).unwrap();
        assert_eq!(mix.counts()["loop"], 6); // 5 full + 1 exiting iteration
        assert_eq!(mix.counts()["i32.add"], 5);
        assert_eq!(mix.counts()["br"], 5);
        assert_eq!(mix.counts()["br_if"], 6);
    }

    #[test]
    fn top_orders_by_count() {
        let mut mix = InstructionMix::new();
        for _ in 0..3 {
            mix.bump(wasabi_wasm::BinaryOp::I32Add.opcode());
        }
        mix.bump(wasabi_wasm::BinaryOp::I32Mul.opcode());
        assert_eq!(mix.top(1), vec![("i32.add", 3)]);
        assert_eq!(mix.top(5), vec![("i32.add", 3), ("i32.mul", 1)]);
    }
}
