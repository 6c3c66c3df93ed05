//! Evaluation of the 123 numeric instructions with WebAssembly 1.0
//! semantics: two's-complement wrapping arithmetic, trapping division and
//! float→int truncation, IEEE 754 floats with NaN-propagating min/max and
//! round-half-to-even `nearest`.

use wasabi_wasm::instr::{BinaryOp, UnaryOp, Val};

use crate::trap::Trap;

/// Evaluate a unary numeric instruction.
///
/// # Errors
///
/// Trapping conversions ([`Trap::InvalidConversionToInteger`]) for `trunc`
/// of NaN or out-of-range floats.
///
/// # Panics
///
/// Panics if the operand type does not match the operation (callers run
/// validated code only).
pub fn unary(op: UnaryOp, v: Val) -> Result<Val, Trap> {
    use UnaryOp::*;
    macro_rules! get {
        ($as:ident) => {
            v.$as()
                .unwrap_or_else(|| panic!("unary {op} applied to {v:?}: module not validated?"))
        };
    }
    Ok(match op {
        I32Eqz => Val::I32((get!(as_i32) == 0) as i32),
        I64Eqz => Val::I32((get!(as_i64) == 0) as i32),

        I32Clz => Val::I32(get!(as_i32).leading_zeros() as i32),
        I32Ctz => Val::I32(get!(as_i32).trailing_zeros() as i32),
        I32Popcnt => Val::I32(get!(as_i32).count_ones() as i32),
        I64Clz => Val::I64(i64::from(get!(as_i64).leading_zeros())),
        I64Ctz => Val::I64(i64::from(get!(as_i64).trailing_zeros())),
        I64Popcnt => Val::I64(i64::from(get!(as_i64).count_ones())),

        F32Abs => Val::F32(get!(as_f32).abs()),
        F32Neg => Val::F32(-get!(as_f32)),
        F32Ceil => Val::F32(get!(as_f32).ceil()),
        F32Floor => Val::F32(get!(as_f32).floor()),
        F32Trunc => Val::F32(get!(as_f32).trunc()),
        F32Nearest => Val::F32(get!(as_f32).round_ties_even()),
        F32Sqrt => Val::F32(get!(as_f32).sqrt()),
        F64Abs => Val::F64(get!(as_f64).abs()),
        F64Neg => Val::F64(-get!(as_f64)),
        F64Ceil => Val::F64(get!(as_f64).ceil()),
        F64Floor => Val::F64(get!(as_f64).floor()),
        F64Trunc => Val::F64(get!(as_f64).trunc()),
        F64Nearest => Val::F64(get!(as_f64).round_ties_even()),
        F64Sqrt => Val::F64(get!(as_f64).sqrt()),

        I32WrapI64 => Val::I32(get!(as_i64) as i32),
        I64ExtendSI32 => Val::I64(i64::from(get!(as_i32))),
        I64ExtendUI32 => Val::I64(i64::from(get!(as_i32) as u32)),

        I32TruncSF32 => Val::I32(trunc_s32(f64::from(get!(as_f32)))?),
        I32TruncUF32 => Val::I32(trunc_u32(f64::from(get!(as_f32)))?),
        I32TruncSF64 => Val::I32(trunc_s32(get!(as_f64))?),
        I32TruncUF64 => Val::I32(trunc_u32(get!(as_f64))?),
        I64TruncSF32 => Val::I64(trunc_s64(f64::from(get!(as_f32)))?),
        I64TruncUF32 => Val::I64(trunc_u64(f64::from(get!(as_f32)))?),
        I64TruncSF64 => Val::I64(trunc_s64(get!(as_f64))?),
        I64TruncUF64 => Val::I64(trunc_u64(get!(as_f64))?),

        F32ConvertSI32 => Val::F32(get!(as_i32) as f32),
        F32ConvertUI32 => Val::F32(get!(as_i32) as u32 as f32),
        F32ConvertSI64 => Val::F32(get!(as_i64) as f32),
        F32ConvertUI64 => Val::F32(get!(as_i64) as u64 as f32),
        F64ConvertSI32 => Val::F64(f64::from(get!(as_i32))),
        F64ConvertUI32 => Val::F64(f64::from(get!(as_i32) as u32)),
        F64ConvertSI64 => Val::F64(get!(as_i64) as f64),
        F64ConvertUI64 => Val::F64(get!(as_i64) as u64 as f64),

        F32DemoteF64 => Val::F32(get!(as_f64) as f32),
        F64PromoteF32 => Val::F64(f64::from(get!(as_f32))),

        I32ReinterpretF32 => Val::I32(get!(as_f32).to_bits() as i32),
        I64ReinterpretF64 => Val::I64(get!(as_f64).to_bits() as i64),
        F32ReinterpretI32 => Val::F32(f32::from_bits(get!(as_i32) as u32)),
        F64ReinterpretI64 => Val::F64(f64::from_bits(get!(as_i64) as u64)),
    })
}

/// Evaluate a binary numeric instruction with operands `a` (first pushed)
/// and `b` (second pushed).
///
/// # Errors
///
/// [`Trap::IntegerDivideByZero`] and [`Trap::IntegerOverflow`] per the spec.
///
/// # Panics
///
/// Panics if operand types do not match the operation.
pub fn binary(op: BinaryOp, a: Val, b: Val) -> Result<Val, Trap> {
    use BinaryOp::*;
    match op {
        // i32 comparisons
        I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS | I32GeU => {
            let (x, y) = i32_pair(op, a, b);
            let r = match op {
                I32Eq => x == y,
                I32Ne => x != y,
                I32LtS => x < y,
                I32LtU => (x as u32) < (y as u32),
                I32GtS => x > y,
                I32GtU => (x as u32) > (y as u32),
                I32LeS => x <= y,
                I32LeU => (x as u32) <= (y as u32),
                I32GeS => x >= y,
                _ => (x as u32) >= (y as u32),
            };
            Ok(Val::I32(r as i32))
        }
        // i64 comparisons
        I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS | I64GeU => {
            let (x, y) = i64_pair(op, a, b);
            let r = match op {
                I64Eq => x == y,
                I64Ne => x != y,
                I64LtS => x < y,
                I64LtU => (x as u64) < (y as u64),
                I64GtS => x > y,
                I64GtU => (x as u64) > (y as u64),
                I64LeS => x <= y,
                I64LeU => (x as u64) <= (y as u64),
                I64GeS => x >= y,
                _ => (x as u64) >= (y as u64),
            };
            Ok(Val::I32(r as i32))
        }
        // float comparisons
        F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge => {
            let (x, y) = f32_pair(op, a, b);
            let r = match op {
                F32Eq => x == y,
                F32Ne => x != y,
                F32Lt => x < y,
                F32Gt => x > y,
                F32Le => x <= y,
                _ => x >= y,
            };
            Ok(Val::I32(r as i32))
        }
        F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge => {
            let (x, y) = f64_pair(op, a, b);
            let r = match op {
                F64Eq => x == y,
                F64Ne => x != y,
                F64Lt => x < y,
                F64Gt => x > y,
                F64Le => x <= y,
                _ => x >= y,
            };
            Ok(Val::I32(r as i32))
        }
        // i32 arithmetic
        I32Add | I32Sub | I32Mul | I32And | I32Or | I32Xor | I32Shl | I32ShrS | I32ShrU
        | I32Rotl | I32Rotr => {
            let (x, y) = i32_pair(op, a, b);
            let r = match op {
                I32Add => x.wrapping_add(y),
                I32Sub => x.wrapping_sub(y),
                I32Mul => x.wrapping_mul(y),
                I32And => x & y,
                I32Or => x | y,
                I32Xor => x ^ y,
                I32Shl => x.wrapping_shl(y as u32),
                I32ShrS => x.wrapping_shr(y as u32),
                I32ShrU => ((x as u32).wrapping_shr(y as u32)) as i32,
                I32Rotl => x.rotate_left((y as u32) % 32),
                _ => x.rotate_right((y as u32) % 32),
            };
            Ok(Val::I32(r))
        }
        I32DivS => {
            let (x, y) = i32_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else if x == i32::MIN && y == -1 {
                Err(Trap::IntegerOverflow)
            } else {
                Ok(Val::I32(x.wrapping_div(y)))
            }
        }
        I32DivU => {
            let (x, y) = i32_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(Val::I32(((x as u32) / (y as u32)) as i32))
            }
        }
        I32RemS => {
            let (x, y) = i32_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(Val::I32(x.wrapping_rem(y)))
            }
        }
        I32RemU => {
            let (x, y) = i32_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(Val::I32(((x as u32) % (y as u32)) as i32))
            }
        }
        // i64 arithmetic
        I64Add | I64Sub | I64Mul | I64And | I64Or | I64Xor | I64Shl | I64ShrS | I64ShrU
        | I64Rotl | I64Rotr => {
            let (x, y) = i64_pair(op, a, b);
            let r = match op {
                I64Add => x.wrapping_add(y),
                I64Sub => x.wrapping_sub(y),
                I64Mul => x.wrapping_mul(y),
                I64And => x & y,
                I64Or => x | y,
                I64Xor => x ^ y,
                I64Shl => x.wrapping_shl(y as u32),
                I64ShrS => x.wrapping_shr(y as u32),
                I64ShrU => ((x as u64).wrapping_shr(y as u32)) as i64,
                I64Rotl => x.rotate_left((y as u64 % 64) as u32),
                _ => x.rotate_right((y as u64 % 64) as u32),
            };
            Ok(Val::I64(r))
        }
        I64DivS => {
            let (x, y) = i64_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else if x == i64::MIN && y == -1 {
                Err(Trap::IntegerOverflow)
            } else {
                Ok(Val::I64(x.wrapping_div(y)))
            }
        }
        I64DivU => {
            let (x, y) = i64_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(Val::I64(((x as u64) / (y as u64)) as i64))
            }
        }
        I64RemS => {
            let (x, y) = i64_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(Val::I64(x.wrapping_rem(y)))
            }
        }
        I64RemU => {
            let (x, y) = i64_pair(op, a, b);
            if y == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(Val::I64(((x as u64) % (y as u64)) as i64))
            }
        }
        // f32 arithmetic
        F32Add | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign => {
            let (x, y) = f32_pair(op, a, b);
            let r = match op {
                F32Add => x + y,
                F32Sub => x - y,
                F32Mul => x * y,
                F32Div => x / y,
                F32Min => fmin32(x, y),
                F32Max => fmax32(x, y),
                _ => x.copysign(y),
            };
            Ok(Val::F32(r))
        }
        // f64 arithmetic
        F64Add | F64Sub | F64Mul | F64Div | F64Min | F64Max | F64Copysign => {
            let (x, y) = f64_pair(op, a, b);
            let r = match op {
                F64Add => x + y,
                F64Sub => x - y,
                F64Mul => x * y,
                F64Div => x / y,
                F64Min => fmin64(x, y),
                F64Max => fmax64(x, y),
                _ => x.copysign(y),
            };
            Ok(Val::F64(r))
        }
    }
}

fn i32_pair(op: BinaryOp, a: Val, b: Val) -> (i32, i32) {
    match (a, b) {
        (Val::I32(x), Val::I32(y)) => (x, y),
        _ => panic!("binary {op} applied to ({a:?}, {b:?}): module not validated?"),
    }
}

fn i64_pair(op: BinaryOp, a: Val, b: Val) -> (i64, i64) {
    match (a, b) {
        (Val::I64(x), Val::I64(y)) => (x, y),
        _ => panic!("binary {op} applied to ({a:?}, {b:?}): module not validated?"),
    }
}

fn f32_pair(op: BinaryOp, a: Val, b: Val) -> (f32, f32) {
    match (a, b) {
        (Val::F32(x), Val::F32(y)) => (x, y),
        _ => panic!("binary {op} applied to ({a:?}, {b:?}): module not validated?"),
    }
}

fn f64_pair(op: BinaryOp, a: Val, b: Val) -> (f64, f64) {
    match (a, b) {
        (Val::F64(x), Val::F64(y)) => (x, y),
        _ => panic!("binary {op} applied to ({a:?}, {b:?}): module not validated?"),
    }
}

// Wasm min/max propagate NaN (unlike IEEE 754 minNum / Rust's f32::min) and
// order -0 < +0.
fn fmin32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

fn fmax32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

fn fmin64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

fn fmax64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

// Trapping float→int truncations. All f32 inputs are converted to f64 first
// (exact), so range checks are done once, in f64.
fn trunc_s32(v: f64) -> Result<i32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    if !(-2147483648.0..=2147483647.0).contains(&t) {
        return Err(Trap::InvalidConversionToInteger);
    }
    Ok(t as i32)
}

fn trunc_u32(v: f64) -> Result<i32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    if !(0.0..=4294967295.0).contains(&t) {
        return Err(Trap::InvalidConversionToInteger);
    }
    Ok(t as u32 as i32)
}

fn trunc_s64(v: f64) -> Result<i64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    // 2^63 is exactly representable; i64::MAX is not. Valid: [-2^63, 2^63).
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(Trap::InvalidConversionToInteger);
    }
    Ok(t as i64)
}

fn trunc_u64(v: f64) -> Result<i64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    if !(0.0..18446744073709551616.0).contains(&t) {
        return Err(Trap::InvalidConversionToInteger);
    }
    Ok(t as u64 as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use BinaryOp::*;
    use UnaryOp::*;

    fn un(op: UnaryOp, v: Val) -> Val {
        unary(op, v).expect("no trap")
    }

    fn bi(op: BinaryOp, a: Val, b: Val) -> Val {
        binary(op, a, b).expect("no trap")
    }

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(
            bi(I32Add, Val::I32(i32::MAX), Val::I32(1)),
            Val::I32(i32::MIN)
        );
        assert_eq!(
            bi(I32Mul, Val::I32(0x10000), Val::I32(0x10000)),
            Val::I32(0)
        );
        assert_eq!(
            bi(I64Sub, Val::I64(i64::MIN), Val::I64(1)),
            Val::I64(i64::MAX)
        );
    }

    #[test]
    fn division_traps() {
        assert_eq!(
            binary(I32DivS, Val::I32(1), Val::I32(0)),
            Err(Trap::IntegerDivideByZero)
        );
        assert_eq!(
            binary(I32DivS, Val::I32(i32::MIN), Val::I32(-1)),
            Err(Trap::IntegerOverflow)
        );
        assert_eq!(
            binary(I64RemU, Val::I64(1), Val::I64(0)),
            Err(Trap::IntegerDivideByZero)
        );
        // rem_s(MIN, -1) is 0, not a trap.
        assert_eq!(bi(I32RemS, Val::I32(i32::MIN), Val::I32(-1)), Val::I32(0));
    }

    #[test]
    fn unsigned_vs_signed_division() {
        assert_eq!(bi(I32DivS, Val::I32(-7), Val::I32(2)), Val::I32(-3));
        assert_eq!(
            bi(I32DivU, Val::I32(-7), Val::I32(2)),
            Val::I32(((u32::MAX - 6) / 2) as i32)
        );
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(bi(I32Shl, Val::I32(1), Val::I32(33)), Val::I32(2));
        assert_eq!(bi(I32ShrU, Val::I32(-1), Val::I32(32)), Val::I32(-1));
        assert_eq!(bi(I64Shl, Val::I64(1), Val::I64(65)), Val::I64(2));
    }

    #[test]
    fn shr_s_vs_shr_u() {
        assert_eq!(bi(I32ShrS, Val::I32(-8), Val::I32(1)), Val::I32(-4));
        assert_eq!(bi(I32ShrU, Val::I32(-8), Val::I32(1)), Val::I32(0x7ffffffc));
    }

    #[test]
    fn rotates() {
        assert_eq!(
            bi(I32Rotl, Val::I32(0x8000_0001u32 as i32), Val::I32(1)),
            Val::I32(3)
        );
        assert_eq!(
            bi(I32Rotr, Val::I32(3), Val::I32(1)),
            Val::I32(0x8000_0001u32 as i32)
        );
    }

    #[test]
    fn bit_counting() {
        assert_eq!(un(I32Clz, Val::I32(1)), Val::I32(31));
        assert_eq!(un(I32Ctz, Val::I32(8)), Val::I32(3));
        assert_eq!(un(I32Popcnt, Val::I32(-1)), Val::I32(32));
        assert_eq!(un(I64Clz, Val::I64(1)), Val::I64(63));
    }

    #[test]
    fn comparisons_signedness() {
        assert_eq!(bi(I32LtS, Val::I32(-1), Val::I32(0)), Val::I32(1));
        assert_eq!(bi(I32LtU, Val::I32(-1), Val::I32(0)), Val::I32(0));
        assert_eq!(bi(I64GtU, Val::I64(-1), Val::I64(1)), Val::I32(1));
    }

    #[test]
    fn float_min_max_nan_propagation() {
        let r = bi(F64Min, Val::F64(f64::NAN), Val::F64(1.0));
        assert!(r.as_f64().unwrap().is_nan());
        let r = bi(F32Max, Val::F32(1.0), Val::F32(f32::NAN));
        assert!(r.as_f32().unwrap().is_nan());
    }

    #[test]
    fn float_min_max_signed_zero() {
        assert!(bi(F64Min, Val::F64(0.0), Val::F64(-0.0))
            .as_f64()
            .unwrap()
            .is_sign_negative());
        assert!(bi(F64Max, Val::F64(0.0), Val::F64(-0.0))
            .as_f64()
            .unwrap()
            .is_sign_positive());
    }

    #[test]
    fn nearest_rounds_ties_to_even() {
        assert_eq!(un(F64Nearest, Val::F64(2.5)), Val::F64(2.0));
        assert_eq!(un(F64Nearest, Val::F64(3.5)), Val::F64(4.0));
        assert_eq!(un(F64Nearest, Val::F64(-2.5)), Val::F64(-2.0));
        assert_eq!(un(F32Nearest, Val::F32(0.5)), Val::F32(0.0));
    }

    #[test]
    fn trunc_conversions_trap() {
        assert_eq!(
            unary(I32TruncSF64, Val::F64(f64::NAN)),
            Err(Trap::InvalidConversionToInteger)
        );
        assert_eq!(
            unary(I32TruncSF64, Val::F64(2147483648.0)),
            Err(Trap::InvalidConversionToInteger)
        );
        assert_eq!(
            un(I32TruncSF64, Val::F64(2147483647.9)),
            Val::I32(2147483647)
        );
        assert_eq!(
            un(I32TruncSF64, Val::F64(-2147483648.9)),
            Val::I32(i32::MIN)
        );
        assert_eq!(
            unary(I32TruncUF64, Val::F64(-1.0)),
            Err(Trap::InvalidConversionToInteger)
        );
        assert_eq!(un(I32TruncUF64, Val::F64(-0.5)), Val::I32(0));
        assert_eq!(
            unary(I64TruncSF64, Val::F64(9.3e18)),
            Err(Trap::InvalidConversionToInteger)
        );
        assert_eq!(
            un(I64TruncSF64, Val::F64(-9223372036854775808.0)),
            Val::I64(i64::MIN)
        );
        assert_eq!(
            un(I64TruncUF64, Val::F64(18446744073709549568.0)),
            Val::I64(-2048)
        );
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(un(I64ExtendSI32, Val::I32(-1)), Val::I64(-1));
        assert_eq!(un(I64ExtendUI32, Val::I32(-1)), Val::I64(0xffff_ffff));
        assert_eq!(un(I32WrapI64, Val::I64(0x1_0000_0002)), Val::I32(2));
        assert_eq!(un(F64ConvertUI32, Val::I32(-1)), Val::F64(4294967295.0));
        assert_eq!(
            un(F32ConvertSI64, Val::I64(1 << 40)),
            Val::F32(1.0995116e12)
        );
    }

    #[test]
    fn reinterpret_is_bit_preserving() {
        let v = Val::F64(-0.0);
        let bits = un(I64ReinterpretF64, v);
        assert_eq!(bits, Val::I64(i64::MIN));
        assert_eq!(un(F64ReinterpretI64, bits), v);
        let v32 = Val::F32(f32::NAN);
        let b32 = un(I32ReinterpretF32, v32);
        assert_eq!(un(F32ReinterpretI32, b32), v32);
    }

    #[test]
    fn copysign() {
        assert_eq!(
            bi(F64Copysign, Val::F64(3.0), Val::F64(-1.0)),
            Val::F64(-3.0)
        );
        assert_eq!(
            bi(F32Copysign, Val::F32(-3.0), Val::F32(1.0)),
            Val::F32(3.0)
        );
    }

    #[test]
    fn eqz() {
        assert_eq!(un(I32Eqz, Val::I32(0)), Val::I32(1));
        assert_eq!(un(I32Eqz, Val::I32(5)), Val::I32(0));
        assert_eq!(un(I64Eqz, Val::I64(0)), Val::I32(1));
    }

    #[test]
    fn all_ops_evaluable_on_zero_inputs() {
        // Smoke test: every numeric instruction accepts zero operands of its
        // declared type (division traps are expected).
        for &op in UnaryOp::ALL {
            let _ = unary(op, Val::zero(op.input()));
        }
        for &op in BinaryOp::ALL {
            let _ = binary(op, Val::zero(op.input()), Val::zero(op.input()));
        }
    }
}
