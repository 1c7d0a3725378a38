//! A faithful x86-64 machine-code *subset*: instruction model, binary
//! encoder, binary decoder, and a label-aware assembler.
//!
//! This crate is the ISA substrate for the RedFat reproduction. It models
//! the instruction families that compiled C-like code and the RedFat
//! instrumentation actually use (`mov`/`lea`/ALU/shift/`mul`/`div`/
//! branch/`call`/`push`/`pop`/`setcc`/`cmovcc`/`syscall`/traps), with
//! **real x86-64 encodings**: REX prefixes, ModRM, SIB, displacement and
//! immediate forms, including RIP-relative addressing. Consequently:
//!
//! * instruction *lengths* are the true x86-64 lengths, which is what makes
//!   E9Patch-style patch-tactic selection in `redfat-rewriter` meaningful;
//! * memory operands carry the full `seg:disp(base,index,scale)` 5-tuple
//!   that the paper's instrumentation reasons about (§4.1 of the paper).
//!
//! The crate deliberately does not model the entire ISA (no SSE/AVX, no
//! 16-bit operand-size arithmetic, no legacy segmented modes); the decoder
//! reports [`DecodeError::UnsupportedOpcode`] for bytes outside the subset
//! so that callers can treat unknown code conservatively, exactly as a
//! binary-rewriting tool must.
//!
//! # Examples
//!
//! ```
//! use redfat_x86::{Asm, Reg, Width, decode_one};
//!
//! let mut a = Asm::new(0x40_0000);
//! a.mov_ri(Width::W64, Reg::Rax, 42);
//! a.ret();
//! let bytes = a.finish().unwrap().bytes;
//! let (inst, len) = decode_one(&bytes, 0x40_0000).unwrap();
//! assert_eq!(format!("{inst}"), "mov $0x2a, %rax");
//! assert_eq!(len, 7);
//! ```

mod asm;
mod decode;
mod encode;
mod fmt;
mod insn;
mod reg;

pub use asm::{Asm, AsmError, Label, Program};
pub use decode::{decode_one, DecodeError};
pub use encode::{encode, encode_relocatable, rip_rel32, EncodeError, Reloc};
pub use insn::{AluOp, Cond, Inst, Mem, MulDivOp, Op, Operands, Seg, ShiftOp, Width};
pub use reg::Reg;

/// Decodes a linear stretch of machine code into `(addr, inst, len)`
/// triples, stopping at the first undecodable byte.
///
/// The `addr` of each entry is `base_addr` plus the byte offset of the
/// instruction; this is the address-space view a static rewriter needs.
pub fn decode_all(bytes: &[u8], base_addr: u64) -> Vec<(u64, Inst, u8)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        match decode_one(&bytes[off..], base_addr + off as u64) {
            Ok((inst, len)) => {
                out.push((base_addr + off as u64, inst, len));
                off += len as usize;
            }
            Err(_) => break,
        }
    }
    out
}
