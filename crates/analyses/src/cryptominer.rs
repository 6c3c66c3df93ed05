//! Cryptominer detection (paper Fig. 1, 10 LoC in JS): "Unauthorized use of
//! computing resources is detected by monitoring the WebAssembly program
//! and gathering an instruction signature that is unique for typical mining
//! algorithms" — the profiling part of SEISMIC \[47\], reimplemented on the
//! Wasabi API.

use std::collections::BTreeMap;

use wasabi::event::{AnalysisCtx, BinaryEvt};
use wasabi::hooks::{Analysis, Hook, HookSet};
use wasabi::report::{JsonValue, Report};
use wasabi_wasm::instr::BinaryOp;

/// The five instructions profiled by the paper's Figure 1.
pub const SIGNATURE_OPS: [BinaryOp; 5] = [
    BinaryOp::I32Add,
    BinaryOp::I32And,
    BinaryOp::I32Shl,
    BinaryOp::I32ShrU,
    BinaryOp::I32Xor,
];

/// Gathers the executed-instruction signature of Figure 1 and classifies
/// hash-like workloads.
#[derive(Debug, Default, Clone)]
pub struct CryptominerDetection {
    /// Executed count per entry of [`SIGNATURE_OPS`], by position.
    hits: [u64; SIGNATURE_OPS.len()],
    total_binary: u64,
}

impl CryptominerDetection {
    /// An empty signature.
    pub fn new() -> Self {
        CryptominerDetection::default()
    }

    /// Counts per signature instruction (the paper's `signature` object),
    /// by mnemonic. Instructions that never executed are absent.
    pub fn signature(&self) -> BTreeMap<&'static str, u64> {
        SIGNATURE_OPS
            .iter()
            .zip(self.hits)
            .filter(|&(_, count)| count > 0)
            .map(|(op, count)| (op.name(), count))
            .collect()
    }

    /// Total executed binary instructions (denominator for the ratio).
    pub fn total_binary_instructions(&self) -> u64 {
        self.total_binary
    }

    /// Fraction of executed binary instructions that belong to the
    /// signature set.
    pub fn signature_ratio(&self) -> f64 {
        if self.total_binary == 0 {
            return 0.0;
        }
        let hits: u64 = self.hits.iter().sum();
        hits as f64 / self.total_binary as f64
    }

    /// Heuristic verdict: hash-like kernels execute predominantly integer
    /// bit-mixing (SEISMIC's observation). Requires both a minimum amount
    /// of work and a dominant signature share, with all five signature
    /// instructions present (hash rounds use the full mix).
    pub fn is_likely_miner(&self) -> bool {
        let hits: u64 = self.hits.iter().sum();
        hits >= 10_000 && self.signature_ratio() > 0.8 && self.hits.iter().all(|&count| count > 0)
    }
}

impl Analysis for CryptominerDetection {
    fn name(&self) -> &str {
        "cryptominer_detection"
    }

    fn hooks(&self) -> HookSet {
        // Figure 1 implements only the `binary` hook.
        HookSet::of(&[Hook::Binary])
    }

    fn report(&self) -> Report {
        Report::new(
            self.name(),
            JsonValue::object([
                (
                    "signature",
                    JsonValue::object(
                        self.signature()
                            .into_iter()
                            .map(|(op, count)| (op, JsonValue::from(count))),
                    ),
                ),
                ("total_binary", self.total_binary.into()),
                ("signature_ratio", self.signature_ratio().into()),
                ("likely_miner", self.is_likely_miner().into()),
            ]),
        )
    }

    fn binary(&mut self, _: &AnalysisCtx, evt: &BinaryEvt) {
        self.total_binary += 1;
        if let Some(i) = SIGNATURE_OPS.iter().position(|&op| op == evt.op) {
            self.hits[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi::AnalysisSession;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::types::ValType;

    /// A hash-round-like kernel: xor/shift/add/and mixing in a hot loop.
    fn miner_like(rounds: i32) -> wasabi_wasm::Module {
        let mut builder = ModuleBuilder::new();
        builder.function("mine", &[], &[ValType::I32], |f| {
            let h = f.local(ValType::I32);
            let i = f.local(ValType::I32);
            f.i32_const(0x6a09_e667u32 as i32).set_local(h);
            f.block(None).loop_(None);
            f.get_local(i)
                .i32_const(rounds)
                .binary(BinaryOp::I32GeS)
                .br_if(1);
            f.get_local(h).i32_const(13).binary(BinaryOp::I32Shl);
            f.get_local(h).i32_const(7).binary(BinaryOp::I32ShrU);
            f.binary(BinaryOp::I32Xor);
            f.get_local(h).binary(BinaryOp::I32Add);
            f.i32_const(0x7fff_ffff).binary(BinaryOp::I32And);
            f.set_local(h);
            f.get_local(i).i32_const(1).i32_add().set_local(i);
            f.br(0).end().end();
            f.get_local(h);
        });
        builder.finish()
    }

    /// A float-heavy numeric kernel (PolyBench-like): not a miner.
    fn numeric_kernel(rounds: i32) -> wasabi_wasm::Module {
        let mut builder = ModuleBuilder::new();
        builder.function("compute", &[], &[ValType::F64], |f| {
            let acc = f.local(ValType::F64);
            let i = f.local(ValType::I32);
            f.block(None).loop_(None);
            f.get_local(i)
                .i32_const(rounds)
                .binary(BinaryOp::I32GeS)
                .br_if(1);
            f.get_local(acc)
                .f64_const(1.0001)
                .f64_mul()
                .f64_const(0.5)
                .f64_add();
            f.set_local(acc);
            f.get_local(i).i32_const(1).i32_add().set_local(i);
            f.br(0).end().end();
            f.get_local(acc);
        });
        builder.finish()
    }

    fn profile(module: &wasabi_wasm::Module, export: &str) -> CryptominerDetection {
        let mut detector = CryptominerDetection::new();
        let session = AnalysisSession::for_analysis(module, &detector).unwrap();
        session.run(&mut detector, export, &[]).unwrap();
        detector
    }

    #[test]
    fn flags_hash_like_kernel() {
        let detector = profile(&miner_like(5000), "mine");
        assert!(detector.is_likely_miner(), "{:?}", detector.signature());
        assert_eq!(detector.signature().len(), 5);
        assert!(detector.signature_ratio() > 0.8);
    }

    #[test]
    fn does_not_flag_numeric_kernel() {
        let detector = profile(&numeric_kernel(5000), "compute");
        assert!(!detector.is_likely_miner());
        assert!(detector.signature_ratio() < 0.8);
    }

    #[test]
    fn does_not_flag_short_executions() {
        // Even a perfect signature must meet the work threshold.
        let detector = profile(&miner_like(10), "mine");
        assert!(!detector.is_likely_miner());
    }

    #[test]
    fn uses_only_binary_hook() {
        assert_eq!(
            CryptominerDetection::new().hooks(),
            HookSet::of(&[Hook::Binary])
        );
    }
}
