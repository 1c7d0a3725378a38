//! The report path end to end: a hardened program, run in log mode, is
//! driven into each of a check's report stubs -- the bounds stub and
//! the metadata stub, each a call into the cold library's report
//! routine of its kind, which reads the site beside the bounds stub's
//! call -- and each report must name its site and kind, and the run
//! must carry on past the check to a clean exit.

use redfat_core::{harden, HardenConfig};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::{syscalls, Emu, ErrorMode, HostRuntime, MemErrKind, MemoryError, RunResult};
use redfat_vm::layout;
use redfat_x86::{Asm, Mem, Reg, Width};

/// Object size: class 64 with its 16-byte redzone, so offset 40 is past
/// the object but inside its slot.
const SIZE: i64 = 40;

/// The program's four checked accesses, one object and one basic block
/// each (so no two batch or merge), in program order.
struct Sites {
    bounds_read: u64,
    bounds_write: u64,
    meta_read: u64,
    meta_write: u64,
}

/// `rbx, r12, r13, r14 = malloc(SIZE)`; then a read and a write past the
/// end of the first two, an in-bounds read and write of the last two
/// (whose SIZE words the test corrupts), and `exit(0)`.
fn program() -> (Image, Sites) {
    let mut a = Asm::new(layout::CODE_BASE);
    for r in [Reg::Rbx, Reg::R12, Reg::R13, Reg::R14] {
        a.mov_ri(Width::W64, Reg::Rdi, SIZE);
        a.mov_ri(Width::W64, Reg::Rax, syscalls::MALLOC as i64);
        a.syscall();
        a.mov_rr(Width::W64, r, Reg::Rax);
    }
    a.mov_ri(Width::W64, Reg::Rcx, 7);
    let access = |a: &mut Asm, store: bool, base: Reg, disp: i64| {
        let site = a.here();
        if store {
            a.mov_mr(Width::W64, Mem::base_disp(base, disp), Reg::Rcx);
        } else {
            a.mov_rm(Width::W64, Reg::Rdx, Mem::base_disp(base, disp));
        }
        // A jump to the next instruction ends the block.
        let next = a.label();
        a.jmp_label(next);
        a.bind(next).unwrap();
        site
    };
    let sites = Sites {
        bounds_read: access(&mut a, false, Reg::Rbx, SIZE),
        bounds_write: access(&mut a, true, Reg::R12, SIZE),
        meta_read: access(&mut a, false, Reg::R13, 8),
        meta_write: access(&mut a, true, Reg::R14, 8),
    };
    a.mov_ri(Width::W64, Reg::Rdi, 0);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
    a.syscall();
    let p = a.finish().unwrap();
    let image = Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
        symbols: vec![],
    };
    (image, sites)
}

#[test]
fn each_report_stub_names_its_site_and_kind_and_the_run_continues() {
    let (image, sites) = program();
    let hardened = harden(&image, &HardenConfig::default()).expect("hardens");
    assert_eq!(hardened.stats.checks, 4, "one check per access");
    let mut emu =
        Emu::load_image(&hardened.image, HostRuntime::new(ErrorMode::Log)).expect("loads");

    // First slice: up to the metadata read's patch site. Both bounds
    // accesses have reported and gone on.
    let mut steps = 0;
    while emu.cpu.rip != sites.meta_read {
        assert_eq!(emu.run(1), RunResult::StepLimit, "at {:#x}", emu.cpu.rip);
        steps += 1;
        assert!(steps < 10_000, "never reached the metadata read");
    }
    // Corrupt the SIZE words (at BASE, 16 bytes below the user pointer)
    // of the last two objects past their class size.
    for r in [Reg::R13, Reg::R14] {
        let size_word = emu.cpu.get(r) - layout::REDZONE;
        assert_eq!(emu.vm.read_u64(size_word), Ok(SIZE as u64));
        emu.vm.write_u64(size_word, 1 << 20).unwrap();
    }

    // Second slice: to the end.
    assert_eq!(emu.run(10_000), RunResult::Exited(0));
    let error = |site, kind, is_write| MemoryError {
        site,
        kind,
        is_write,
    };
    assert_eq!(
        emu.runtime.errors,
        [
            error(sites.bounds_read, MemErrKind::Bounds, false),
            error(sites.bounds_write, MemErrKind::Bounds, true),
            error(sites.meta_read, MemErrKind::Metadata, false),
            error(sites.meta_write, MemErrKind::Metadata, true),
        ]
    );
    // Both writes went through after their reports.
    for (r, disp) in [(Reg::R12, SIZE as u64), (Reg::R14, 8)] {
        assert_eq!(emu.vm.read_u64(emu.cpu.get(r) + disp), Ok(7), "{r:?}");
    }
}
