//! A hand-assembled program that reaches its globals through
//! rip-relative operands.
//!
//! The mini-C compiler addresses globals absolutely, so no stand-in has
//! a rip-relative memory operand. This image has five: it stores a
//! `malloc` pointer to a global and loads it back, loads a counter from
//! a second global, stores the counter through the pointer in bounds and
//! then one word past the object's end, prints it, and writes it back.
//! A check of a rip-relative operand (checked only when elimination is
//! off) computes the operand's address with a rip-relative `lea`, the
//! one payload instruction whose bytes depend on where it lands.

use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::syscalls;
use redfat_vm::layout;
use redfat_x86::{AluOp, Asm, Mem, Reg, Width};

/// The global holding the heap pointer.
pub const POINTER: u64 = layout::GLOBALS_BASE;
/// The global holding the counter, initially [`COUNTER_START`].
pub const COUNTER: u64 = layout::GLOBALS_BASE + 8;
/// The counter's initial value.
pub const COUNTER_START: i64 = 41;

/// The image. It prints `COUNTER_START + 1` twice and exits 0; hardened,
/// the store past the 16-byte object reports one bounds error.
pub fn image() -> Image {
    let mut a = Asm::new(layout::CODE_BASE);
    a.mov_ri(Width::W64, Reg::Rdi, 16);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::MALLOC as i64);
    a.syscall();
    a.mov_mr(Width::W64, Mem::rip(POINTER), Reg::Rax);
    a.mov_rm(Width::W64, Reg::Rbx, Mem::rip(POINTER));
    a.mov_rm(Width::W64, Reg::Rcx, Mem::rip(COUNTER));
    a.alu_ri(AluOp::Add, Width::W64, Reg::Rcx, 1);
    a.mov_mr(Width::W64, Mem::base_disp(Reg::Rbx, 8), Reg::Rcx);
    a.mov_mr(Width::W64, Mem::base_disp(Reg::Rbx, 16), Reg::Rcx);
    a.mov_rm(Width::W64, Reg::Rdi, Mem::base_disp(Reg::Rbx, 8));
    a.mov_ri(Width::W64, Reg::Rax, syscalls::PRINT_INT as i64);
    a.syscall();
    a.mov_mr(Width::W64, Mem::rip(COUNTER), Reg::Rcx);
    a.mov_rm(Width::W64, Reg::Rdi, Mem::rip(COUNTER));
    a.mov_ri(Width::W64, Reg::Rax, syscalls::PRINT_INT as i64);
    a.syscall();
    a.mov_ri(Width::W64, Reg::Rdi, 0);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
    a.syscall();
    let code = a.finish().expect("straight-line code assembles");
    let mut globals = vec![0u8; 16];
    globals[8..].copy_from_slice(&COUNTER_START.to_le_bytes());
    Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![
            Segment::new(code.base, SegFlags::RX, code.bytes),
            Segment::new(layout::GLOBALS_BASE, SegFlags::RW, globals),
        ],
        symbols: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_emu::{Emu, ErrorMode, HostRuntime, RunResult};

    #[test]
    fn prints_the_counter_twice_and_has_five_rip_operands() {
        let image = image();
        let mut emu = Emu::load_image(&image, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        assert_eq!(emu.run(1_000), RunResult::Exited(0));
        let want = COUNTER_START + 1;
        assert_eq!(emu.runtime.io.out_ints, vec![want, want]);
        let code = &image.segments[0];
        let rip = redfat_x86::decode_all(&code.data, code.vaddr)
            .iter()
            .filter(|(_, inst, _)| inst.memory_access().is_some_and(|m| m.rip))
            .count();
        assert_eq!(rip, 5);
    }
}
