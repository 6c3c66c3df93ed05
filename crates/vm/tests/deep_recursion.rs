//! WebAssembly calls run on heap frames, not on the native stack: with the
//! call-depth limit raised, a recursion 50,000 calls deep completes on a
//! thread with a 128 KiB native stack, and the raised limit still traps at
//! its exact point.
//!
//! An interpreter that recursed natively once per WebAssembly call would
//! overflow that thread, and a stack overflow aborts the whole test
//! process, so these tests have a binary of their own.

use wasabi_vm::host::EmptyHost;
use wasabi_vm::{Instance, Trap};
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::instr::{BinaryOp, Idx, Val};
use wasabi_wasm::types::ValType;

const NATIVE_STACK: usize = 128 * 1024;
const MAX_CALL_DEPTH: usize = 100_000;

/// Run `main(n)`, which recurses `n` calls deep below itself and returns
/// `n`, on a thread with a [`NATIVE_STACK`]-byte stack and the call-depth
/// limit raised to [`MAX_CALL_DEPTH`].
fn recurse_on_small_stack(n: i32) -> Result<Vec<Val>, Trap> {
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        // if n <= 0 { return 0 } else { main(n - 1) + 1 }; `main` is
        // function 0, the module's only function.
        f.get_local(0u32)
            .i32_const(0)
            .binary(BinaryOp::I32LeS)
            .if_(None)
            .i32_const(0)
            .return_()
            .end();
        f.get_local(0u32)
            .i32_const(1)
            .i32_sub()
            .call(Idx::from(0u32))
            .i32_const(1)
            .i32_add();
    });
    let mut host = EmptyHost;
    let mut instance = Instance::instantiate(builder.finish(), &mut host).expect("instantiates");
    instance.set_max_call_depth(MAX_CALL_DEPTH);
    std::thread::Builder::new()
        .stack_size(NATIVE_STACK)
        .spawn(move || instance.invoke_export("main", &[Val::I32(n)], &mut EmptyHost))
        .expect("spawns")
        .join()
        .expect("the interpreter thread does not panic")
}

#[test]
fn deep_recursion_runs_on_a_small_native_stack() {
    assert_eq!(recurse_on_small_stack(50_000), Ok(vec![Val::I32(50_000)]));
}

#[test]
fn raised_depth_limit_traps_at_its_exact_point() {
    // `main(n)` needs n + 1 frames.
    let deepest = MAX_CALL_DEPTH as i32 - 1;
    assert_eq!(recurse_on_small_stack(deepest), Ok(vec![Val::I32(deepest)]));
    assert_eq!(
        recurse_on_small_stack(MAX_CALL_DEPTH as i32),
        Err(Trap::CallStackExhausted)
    );
}
