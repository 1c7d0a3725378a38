//! Randomized tests: every canonical-form instruction -- the subset the
//! assembler emits and the encoder accepts -- round-trips through the
//! encoder and decoder at random addresses, driven by a deterministic
//! seeded generator so failures are reproducible offline (no external
//! property-testing dependency).

use redfat_vm::{layout, Rng64};
use redfat_x86::{
    decode_one, encode, AluOp, Cond, Inst, Mem, MulDivOp, Op, Operands, Reg, Seg, ShiftOp, Width,
};

const CASES: u64 = 50_000;

fn any_reg(r: &mut Rng64) -> Reg {
    Reg::from_code(r.below(16) as u8)
}

fn any_index_reg(r: &mut Rng64) -> Reg {
    loop {
        let reg = any_reg(r);
        if reg != Reg::Rsp {
            return reg;
        }
    }
}

fn any_width(r: &mut Rng64) -> Width {
    [Width::W8, Width::W32, Width::W64][r.below_usize(3)]
}

fn any_wide_width(r: &mut Rng64) -> Width {
    [Width::W32, Width::W64][r.below_usize(2)]
}

fn any_scale(r: &mut Rng64) -> u8 {
    [1u8, 2, 4, 8][r.below_usize(4)]
}

fn any_disp(r: &mut Rng64) -> i64 {
    match r.below(5) {
        0 => 0,
        // The disp8/disp32 boundary, where canonical-form bugs live.
        1 => r.range_i64(-0x81, 0x81),
        2 => r.range_i64(-0x1_0000, 0x1_0000),
        _ => r.range_i64(i32::MIN.into(), i64::from(i32::MAX) + 1),
    }
}

/// An instruction address in the program text or in the trampoline
/// area, where the rewriter re-encodes displaced instructions.
fn any_addr(r: &mut Rng64) -> u64 {
    [layout::CODE_BASE, layout::TRAMPOLINE_BASE][r.below_usize(2)] + r.below(0x10_0000)
}

/// A branch or rip-relative target within rel32 reach of `addr`: around
/// the rel8 boundary, near, or in either of the text and trampoline
/// areas (a relocated instruction still points back into the text).
fn any_target(r: &mut Rng64, addr: u64) -> u64 {
    match r.below(3) {
        0 => (addr + 2).wrapping_add_signed(r.range_i64(-0x81, 0x81)),
        1 => addr.wrapping_add(r.below(0x10_0000)).wrapping_sub(0x8_0000),
        _ => any_addr(r),
    }
}

fn any_mem(r: &mut Rng64, addr: u64) -> Mem {
    let disp = any_disp(r);
    let mut m = match r.below(8) {
        0 => Mem::base(any_reg(r)),
        1 | 2 => Mem::base_disp(any_reg(r), disp),
        3 | 4 => Mem::bis(any_reg(r), any_index_reg(r), any_scale(r), disp),
        5 => Mem::index_scale(any_index_reg(r), any_scale(r), disp),
        6 => Mem::abs(r.range_i64(0, 0x7000_0000)),
        // RIP-relative: `disp` holds the absolute target.
        _ => Mem::rip(any_target(r, addr)),
    };
    if !m.rip && r.below(10) == 0 {
        m.seg = Some(if r.coin() { Seg::Fs } else { Seg::Gs });
    }
    m
}

/// Immediate fitting the canonical form for `w` in ALU/test/mov-to-memory
/// encodings (sign-extended imm32 at 64-bit width).
fn any_imm(r: &mut Rng64, w: Width) -> i64 {
    match w {
        Width::W8 => r.range_i64(-0x80, 0x80),
        _ => match r.below(3) {
            // The imm8 sign-extension boundary.
            0 => r.range_i64(-0x81, 0x81),
            1 => r.range_i64(-0x1_0000, 0x1_0000),
            _ => r.range_i64(i32::MIN.into(), i64::from(i32::MAX) + 1),
        },
    }
}

fn any_cond(r: &mut Rng64) -> Cond {
    Cond::from_code(r.below(16) as u8)
}

fn any_alu(r: &mut Rng64) -> Op {
    Op::Alu(
        [
            AluOp::Add,
            AluOp::Or,
            AluOp::And,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Cmp,
        ][r.below_usize(6)],
    )
}

fn any_shift(r: &mut Rng64) -> ShiftOp {
    [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][r.below_usize(3)]
}

/// A register or memory operand, chosen by a coin.
fn any_rm(r: &mut Rng64, addr: u64) -> Operands {
    if r.coin() {
        Operands::R(any_reg(r))
    } else {
        Operands::M(any_mem(r, addr))
    }
}

/// `dst, src` as two registers or a register and memory, chosen by a
/// coin.
fn any_r_rm(r: &mut Rng64, addr: u64) -> Operands {
    let dst = any_reg(r);
    if r.coin() {
        Operands::RR {
            dst,
            src: any_reg(r),
        }
    } else {
        Operands::RM {
            dst,
            src: any_mem(r, addr),
        }
    }
}

/// A random canonical-form instruction at `addr`.
fn any_inst(r: &mut Rng64, addr: u64) -> Inst {
    let rr = |r: &mut Rng64| Operands::RR {
        dst: any_reg(r),
        src: any_reg(r),
    };
    match r.below(28) {
        0 => Inst::new(Op::Mov, any_width(r), rr(r)),
        1 => Inst::new(
            Op::Mov,
            any_width(r),
            Operands::RM {
                dst: any_reg(r),
                src: any_mem(r, addr),
            },
        ),
        2 => Inst::new(
            Op::Mov,
            any_width(r),
            Operands::MR {
                dst: any_mem(r, addr),
                src: any_reg(r),
            },
        ),
        3 => {
            // Canonical mov-immediate: W32 takes the *unsigned* 32-bit
            // range (the decoder reports the zero-extended value), W64
            // any 64-bit value (the encoder picks imm32 or movabs).
            let w = any_width(r);
            let imm = match w {
                Width::W8 => r.range_i64(-0x80, 0x80),
                Width::W32 => r.below(1 << 32) as i64,
                Width::W64 => r.next_u64() as i64,
            };
            Inst::new(
                Op::Mov,
                w,
                Operands::RI {
                    dst: any_reg(r),
                    imm,
                },
            )
        }
        4 => {
            let w = any_width(r);
            Inst::new(
                Op::Mov,
                w,
                Operands::MI {
                    dst: any_mem(r, addr),
                    imm: any_imm(r, w),
                },
            )
        }
        5 => Inst::new(any_alu(r), any_width(r), rr(r)),
        6 => Inst::new(
            any_alu(r),
            any_width(r),
            Operands::RM {
                dst: any_reg(r),
                src: any_mem(r, addr),
            },
        ),
        7 => Inst::new(
            any_alu(r),
            any_width(r),
            Operands::MR {
                dst: any_mem(r, addr),
                src: any_reg(r),
            },
        ),
        8 => {
            let w = any_width(r);
            Inst::new(
                any_alu(r),
                w,
                Operands::RI {
                    dst: any_reg(r),
                    imm: any_imm(r, w),
                },
            )
        }
        9 => {
            let w = any_width(r);
            Inst::new(
                any_alu(r),
                w,
                Operands::MI {
                    dst: any_mem(r, addr),
                    imm: any_imm(r, w),
                },
            )
        }
        10 => Inst::new(Op::Test, any_width(r), rr(r)),
        11 => {
            let w = any_width(r);
            Inst::new(
                Op::Test,
                w,
                Operands::RI {
                    dst: any_reg(r),
                    imm: any_imm(r, w),
                },
            )
        }
        12 => Inst::new(
            Op::Shift(any_shift(r)),
            any_wide_width(r),
            Operands::RI {
                dst: any_reg(r),
                imm: r.range_i64(0, 64),
            },
        ),
        13 => Inst::new(
            Op::Shift(any_shift(r)),
            any_wide_width(r),
            Operands::MI {
                dst: any_mem(r, addr),
                imm: r.range_i64(0, 64),
            },
        ),
        14 => Inst::new(
            Op::ShiftCl(any_shift(r)),
            any_wide_width(r),
            any_rm(r, addr),
        ),
        15 => {
            let op = [MulDivOp::Mul, MulDivOp::Div, MulDivOp::Idiv][r.below_usize(3)];
            Inst::new(Op::MulDiv(op), any_wide_width(r), any_rm(r, addr))
        }
        16 => {
            let op = if r.coin() { Op::Neg } else { Op::Not };
            Inst::new(op, any_wide_width(r), any_rm(r, addr))
        }
        17 => Inst::new(Op::Imul2, any_wide_width(r), any_r_rm(r, addr)),
        18 => {
            let (w, dst) = (any_wide_width(r), any_reg(r));
            let imm = any_imm(r, w);
            let operands = if r.coin() {
                Operands::RRI {
                    dst,
                    src: any_reg(r),
                    imm,
                }
            } else {
                Operands::RMI {
                    dst,
                    src: any_mem(r, addr),
                    imm,
                }
            };
            Inst::new(Op::Imul3, w, operands)
        }
        19 => {
            let op = if r.coin() { Op::Movzx8 } else { Op::Movsx8 };
            Inst::new(op, any_wide_width(r), any_r_rm(r, addr))
        }
        20 => Inst::new(Op::Movsxd, Width::W64, any_r_rm(r, addr)),
        21 => Inst::new(
            Op::Lea,
            any_wide_width(r),
            Operands::RM {
                dst: any_reg(r),
                src: any_mem(r, addr),
            },
        ),
        22 => {
            let op = if r.coin() { Op::Push } else { Op::Pop };
            Inst::new(op, Width::W64, any_rm(r, addr))
        }
        23 => Inst::new(Op::Setcc(any_cond(r)), Width::W8, any_rm(r, addr)),
        24 => Inst::new(
            Op::Cmovcc(any_cond(r)),
            any_wide_width(r),
            any_r_rm(r, addr),
        ),
        25 => {
            let op = [Op::Jmp, Op::Call, Op::Jcc(any_cond(r))][r.below_usize(3)];
            Inst::new(op, Width::W64, Operands::Rel(any_target(r, addr)))
        }
        26 => {
            let op = if r.coin() { Op::CallInd } else { Op::JmpInd };
            Inst::new(op, Width::W64, any_rm(r, addr))
        }
        _ => {
            let (op, w) = [
                (Op::Ret, Width::W64),
                (Op::Cqo, any_wide_width(r)),
                (Op::Syscall, Width::W64),
                (Op::Int3, Width::W64),
                (Op::Nop, Width::W64),
                (Op::Ud2, Width::W64),
                (Op::Pushfq, Width::W64),
                (Op::Popfq, Width::W64),
            ][r.below_usize(8)];
            Inst::new(op, w, Operands::None)
        }
    }
}

/// Three properties hold exactly for every canonical-form instruction
/// at every address: the encoder accepts it, the decoder inverts the
/// encoder (`decode(encode(i)) == i`, consuming every byte), and
/// re-encoding the decoded instruction reproduces the identical bytes.
/// Trampolines are re-encoded instructions, so any non-identity here is
/// a latent rewriting bug.
#[test]
fn encode_decode_roundtrip() {
    let mut r = Rng64::new(0xB00F_0001);
    for case in 0..CASES {
        let addr = any_addr(&mut r);
        let inst = any_inst(&mut r, addr);
        let bytes = encode(&inst, addr).unwrap_or_else(|e| {
            panic!("case {case}: `{inst}` at {addr:#x} failed to encode: {e:?}")
        });
        let (decoded, len) = decode_one(&bytes, addr).unwrap_or_else(|e| {
            panic!("case {case}: `{inst}` encoded to {bytes:02x?} but failed to decode: {e:?}")
        });
        assert_eq!(
            len as usize,
            bytes.len(),
            "case {case}: `{inst}` {bytes:02x?}"
        );
        assert_eq!(decoded, inst, "case {case}: {bytes:02x?} at {addr:#x}");
        let again = encode(&decoded, addr).expect("a decoded instruction re-encodes");
        assert_eq!(again, bytes, "case {case}: `{inst}` re-encodes differently");
    }
}

#[test]
fn decoder_never_panics() {
    let mut r = Rng64::new(0xB00F_0003);
    let mut buf = [0u8; 16];
    for _ in 0..CASES {
        let len = r.below_usize(17);
        r.fill_bytes(&mut buf[..len]);
        let _ = decode_one(&buf[..len], 0x40_0000);
    }
}

#[test]
fn display_never_panics() {
    let mut r = Rng64::new(0xB00F_0004);
    for _ in 0..CASES {
        let addr = any_addr(&mut r);
        let inst = any_inst(&mut r, addr);
        let _ = format!("{inst}");
    }
}
