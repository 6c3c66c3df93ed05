//! The opcode-indexed counters of `InstructionMix` and
//! `CryptominerDetection` against a by-name reference.
//!
//! Both analyses count per event into fixed arrays and name their entries
//! only when read. The reference below counts the way they used to: one
//! `BTreeMap<&'static str, u64>` bump per event, keyed by the mnemonic the
//! event's op names. All three run fused in one pipeline over every
//! PolyBench kernel, a few synthetic apps, a mining loop and a function
//! that runs every instruction kind without an op enum, and must agree on
//! maps, totals and report JSON. The report oracle of the end-to-end
//! benchmark cannot catch a miscount, because it computes its expected
//! reports with these same analyses.

use std::collections::BTreeMap;

use wasabi_repro::analyses::{cryptominer::SIGNATURE_OPS, CryptominerDetection, InstructionMix};
use wasabi_repro::core::event::{
    AnalysisCtx, BinaryEvt, BlockEvt, BranchEvt, BranchTableEvt, CallEvt, GlobalEvt, IfEvt,
    LoadEvt, LocalEvt, MemGrowEvt, MemSizeEvt, ReturnEvt, SelectEvt, StoreEvt, UnaryEvt, ValEvt,
};
use wasabi_repro::core::hooks::{Analysis, BlockKind};
use wasabi_repro::core::report::{JsonValue, Report};
use wasabi_repro::core::Wasabi;
use wasabi_repro::wasm::builder::ModuleBuilder;
use wasabi_repro::wasm::instr::mnemonic;
use wasabi_repro::wasm::{
    BinaryOp, GlobalOp, LoadOp, LocalOp, Module, StoreOp, UnaryOp, Val, ValType,
};
use wasabi_repro::workloads::synthetic::{self, synthetic_app, SyntheticConfig};
use wasabi_repro::workloads::{compile, polybench};

/// Counts every event by mnemonic string, plus the Fig. 1 signature.
#[derive(Default)]
struct ByName {
    mix: BTreeMap<&'static str, u64>,
    signature: BTreeMap<&'static str, u64>,
    total_binary: u64,
}

impl ByName {
    fn bump(&mut self, name: &'static str) {
        *self.mix.entry(name).or_insert(0) += 1;
    }

    fn mix_report(&self) -> Report {
        Report::new(
            "instruction_mix",
            JsonValue::object([
                ("total", self.mix.values().sum::<u64>().into()),
                (
                    "counts",
                    JsonValue::object(
                        self.mix
                            .iter()
                            .map(|(&name, &count)| (name, JsonValue::from(count))),
                    ),
                ),
            ]),
        )
    }

    fn miner_report(&self) -> Report {
        let hits: u64 = self.signature.values().sum();
        let ratio = if self.total_binary == 0 {
            0.0
        } else {
            hits as f64 / self.total_binary as f64
        };
        let likely = hits >= 10_000 && ratio > 0.8 && self.signature.len() == 5;
        Report::new(
            "cryptominer_detection",
            JsonValue::object([
                (
                    "signature",
                    JsonValue::object(
                        self.signature
                            .iter()
                            .map(|(&op, &count)| (op, JsonValue::from(count))),
                    ),
                ),
                ("total_binary", self.total_binary.into()),
                ("signature_ratio", ratio.into()),
                ("likely_miner", likely.into()),
            ]),
        )
    }
}

impl Analysis for ByName {
    fn name(&self) -> &str {
        "by_name_reference"
    }

    fn nop(&mut self, _: &AnalysisCtx) {
        self.bump("nop");
    }
    fn unreachable(&mut self, _: &AnalysisCtx) {
        self.bump("unreachable");
    }
    fn if_(&mut self, _: &AnalysisCtx, _: &IfEvt) {
        self.bump("if");
    }
    fn br(&mut self, _: &AnalysisCtx, _: &BranchEvt) {
        self.bump("br");
    }
    fn br_if(&mut self, _: &AnalysisCtx, _: &BranchEvt) {
        self.bump("br_if");
    }
    fn br_table(&mut self, _: &AnalysisCtx, _: &BranchTableEvt<'_>) {
        self.bump("br_table");
    }
    fn begin(&mut self, _: &AnalysisCtx, evt: &BlockEvt) {
        match evt.kind {
            BlockKind::Block => self.bump("block"),
            BlockKind::Loop => self.bump("loop"),
            _ => {}
        }
    }
    fn memory_size(&mut self, _: &AnalysisCtx, _: &MemSizeEvt) {
        self.bump("memory.size");
    }
    fn memory_grow(&mut self, _: &AnalysisCtx, _: &MemGrowEvt) {
        self.bump("memory.grow");
    }
    fn const_(&mut self, _: &AnalysisCtx, evt: &ValEvt) {
        self.bump(match evt.value {
            Val::I32(_) => "i32.const",
            Val::I64(_) => "i64.const",
            Val::F32(_) => "f32.const",
            Val::F64(_) => "f64.const",
        });
    }
    fn drop_(&mut self, _: &AnalysisCtx, _: &ValEvt) {
        self.bump("drop");
    }
    fn select(&mut self, _: &AnalysisCtx, _: &SelectEvt) {
        self.bump("select");
    }
    fn unary(&mut self, _: &AnalysisCtx, evt: &UnaryEvt) {
        self.bump(evt.op.name());
    }
    fn binary(&mut self, _: &AnalysisCtx, evt: &BinaryEvt) {
        self.bump(evt.op.name());
        self.total_binary += 1;
        if SIGNATURE_OPS.contains(&evt.op) {
            *self.signature.entry(evt.op.name()).or_insert(0) += 1;
        }
    }
    fn load(&mut self, _: &AnalysisCtx, evt: &LoadEvt) {
        self.bump(evt.op.name());
    }
    fn store(&mut self, _: &AnalysisCtx, evt: &StoreEvt) {
        self.bump(evt.op.name());
    }
    fn local(&mut self, _: &AnalysisCtx, evt: &LocalEvt) {
        self.bump(evt.op.name());
    }
    fn global(&mut self, _: &AnalysisCtx, evt: &GlobalEvt) {
        self.bump(evt.op.name());
    }
    fn return_(&mut self, _: &AnalysisCtx, _: &ReturnEvt<'_>) {
        self.bump("return");
    }
    fn call_pre(&mut self, _: &AnalysisCtx, evt: &CallEvt<'_>) {
        self.bump(if evt.is_indirect() {
            "call_indirect"
        } else {
            "call"
        });
    }
}

/// What one fused run left behind, for checks beyond the comparison.
struct Checked {
    /// The run returned instead of trapping.
    completed: bool,
    detector: CryptominerDetection,
    reference: ByName,
}

/// Run the three analyses fused over `export` and compare them. A trap
/// ends the run but not the comparison: the counts up to it must agree.
fn check(label: &str, module: &Module, export: &str) -> Checked {
    let mut mix = InstructionMix::new();
    let mut miner = CryptominerDetection::new();
    let mut reference = ByName::default();
    let mut pipeline = Wasabi::builder()
        .analysis(&mut mix)
        .analysis(&mut miner)
        .analysis(&mut reference)
        .build(module)
        .expect("instruments");
    let completed = pipeline.run(export, &[]).is_ok();
    drop(pipeline);

    assert!(!reference.mix.is_empty(), "{label}: nothing was counted");
    assert_eq!(mix.counts(), reference.mix, "{label}: instruction mix");
    assert_eq!(
        mix.total(),
        reference.mix.values().sum::<u64>(),
        "{label}: total"
    );
    assert_eq!(
        mix.report().to_json(),
        reference.mix_report().to_json(),
        "{label}: instruction_mix report"
    );

    assert_eq!(miner.signature(), reference.signature, "{label}: signature");
    assert_eq!(
        miner.total_binary_instructions(),
        reference.total_binary,
        "{label}: binary total"
    );
    assert_eq!(
        miner.report().to_json(),
        reference.miner_report().to_json(),
        "{label}: cryptominer_detection report"
    );
    Checked {
        completed,
        detector: miner,
        reference,
    }
}

/// Executes every counted instruction kind that has no op enum (whose
/// opcode the analysis spells out itself), then traps on `unreachable`.
fn every_event_kind() -> Module {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    let g = builder.global(Val::I32(0));
    let callee = builder.function("", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32).return_();
    });
    builder.table(1);
    builder.elements(0, vec![callee]);
    builder.function("main", &[], &[], |f| {
        let l = f.local(ValType::I32);
        f.nop();
        f.i32_const(1).tee_local(l).set_global(g);
        f.i32_const(2).set_local(l);
        f.get_global(g).get_local(l).i32_const(0).select().drop_();
        f.i64_const(1).drop_();
        f.f32_const(1.0).drop_();
        f.f64_const(1.0).drop_();
        f.memory_size().drop_();
        f.i32_const(1).memory_grow().drop_();
        f.i32_const(1).if_(None).end();
        f.block(None).loop_(None);
        f.i32_const(0).br_if(0).br(1);
        f.end().end();
        f.block(None).i32_const(0).br_table(vec![0], 0).end();
        f.i32_const(1).call(callee).drop_();
        f.i32_const(2).i32_const(0);
        f.call_indirect(&[ValType::I32], &[ValType::I32]).drop_();
        f.unreachable();
    });
    builder.finish()
}

#[test]
fn opcode_counters_match_by_name_counting_on_every_kernel() {
    let programs = polybench::all(4);
    assert_eq!(programs.len(), 30);
    for program in programs {
        let checked = check(program.name, &compile(&program), "main");
        assert!(checked.completed, "{}", program.name);
        assert!(!checked.detector.is_likely_miner(), "{}", program.name);
    }
}

#[test]
fn opcode_counters_match_by_name_counting_on_synthetic_apps() {
    for seed in [1, 2, 3] {
        let config = SyntheticConfig {
            seed,
            ..SyntheticConfig::small()
        };
        let label = format!("synthetic_app({seed})");
        assert!(check(&label, &synthetic_app(&config), "main").completed);
    }
    // All five signature ops, hot enough to be flagged.
    let checked = check("miner", &synthetic::miner(5000), "mine");
    assert!(checked.completed && checked.detector.is_likely_miner());
}

#[test]
fn opcode_counters_match_by_name_counting_on_every_event_kind() {
    let checked = check("every event kind", &every_event_kind(), "main");
    assert!(!checked.completed, "the run ends on `unreachable`");
    for kind in [
        "unreachable",
        "nop",
        "block",
        "loop",
        "if",
        "br",
        "br_if",
        "br_table",
        "return",
        "call",
        "call_indirect",
        "drop",
        "select",
        "memory.size",
        "memory.grow",
        "i32.const",
        "i64.const",
        "f32.const",
        "f64.const",
        "get_local",
        "set_local",
        "tee_local",
        "get_global",
        "set_global",
    ] {
        assert!(checked.reference.mix.contains_key(kind), "{kind} never ran");
    }
}

#[test]
fn mnemonic_of_every_op_opcode_is_its_name() {
    for &op in UnaryOp::ALL {
        assert_eq!(mnemonic(op.opcode()), Some(op.name()));
    }
    for &op in BinaryOp::ALL {
        assert_eq!(mnemonic(op.opcode()), Some(op.name()));
    }
    for &op in LoadOp::ALL {
        assert_eq!(mnemonic(op.opcode()), Some(op.name()));
    }
    for &op in StoreOp::ALL {
        assert_eq!(mnemonic(op.opcode()), Some(op.name()));
    }
    for &op in LocalOp::ALL {
        assert_eq!(mnemonic(op.opcode()), Some(op.name()));
    }
    for &op in GlobalOp::ALL {
        assert_eq!(mnemonic(op.opcode()), Some(op.name()));
    }
}
