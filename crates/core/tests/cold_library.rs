//! The cold library at the head of each trampoline segment: every
//! check's fallback and report code is a call into it.
//!
//! Statically, over the stand-ins and kromium, hardened and as
//! profiling binaries: each call reaches a routine entry of the same
//! segment's library, each routine is called, and the segment decodes
//! from end to end. Dynamically: a full check whose base register is
//! not low-fat but whose LB is a heap pointer gets its BASE from the
//! fallback routine and tests LB against it on both backends, and a
//! check whose site does not fit the report routines' 32-bit immediate
//! still reports its own site.

use redfat_core::{
    harden, harden_with_bases, instrument_profile, run, HardenConfig, Hardened, LowFatPolicy,
    RunSpec,
};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::{syscalls, ErrorMode, ExecBackend, MemErrKind, MemoryError, RunResult};
use redfat_rewriter::RewriteBases;
use redfat_vm::layout;
use redfat_x86::{decode_all, Asm, Mem, Op, Reg, Width};
use std::collections::BTreeSet;

/// Checks the trampoline segment of `h`, rewritten at `base`: see the
/// module docs. A routine entry is the library's first instruction or
/// one that follows a `ret` and that no branch in the library targets.
fn assert_library_is_sound(what: &str, h: &Hardened, base: u64) {
    let seg = h.image.segment_at(base).expect("a trampoline segment");
    let insts = decode_all(&seg.data, base);
    let decoded: usize = insts.iter().map(|&(_, _, len)| len as usize).sum();
    assert_eq!(
        decoded,
        seg.data.len(),
        "{what}: the segment decodes completely"
    );

    let end = base + h.stats.rewrite.library_bytes as u64;
    assert!(end > base, "{what}: the payloads call a library");
    let in_library = |a: u64| (base..end).contains(&a);
    let library = || insts.iter().take_while(|&&(a, _, _)| in_library(a));
    let mut local_targets = BTreeSet::new();
    for &(addr, inst, _) in library() {
        assert_ne!(inst.op, Op::Call, "{what}: a routine calls at {addr:#x}");
        if let Some(target) = inst.branch_target() {
            assert!(in_library(target), "{what}: {addr:#x} leaves the library");
            local_targets.insert(target);
        }
    }
    let mut entries = BTreeSet::new();
    let mut after_ret = true;
    for &(addr, inst, _) in library() {
        if after_ret && !local_targets.contains(&addr) {
            entries.insert(addr);
        }
        after_ret = inst.op == Op::Ret;
    }
    assert!(after_ret, "{what}: the library ends with a `ret`");

    // Displaced original calls leave the segment.
    let in_segment = |a: u64| (base..base + seg.data.len() as u64).contains(&a);
    let mut called = BTreeSet::new();
    for &(addr, inst, _) in insts.iter().filter(|&&(a, _, _)| !in_library(a)) {
        let target = inst.branch_target().filter(|&t| in_segment(t));
        if let (Op::Call, Some(target)) = (inst.op, target) {
            assert!(
                entries.contains(&target),
                "{what}: the call at {addr:#x} reaches {target:#x}, no routine entry"
            );
            called.insert(target);
        }
    }
    assert_eq!(called, entries, "{what}: every routine is called");
}

#[test]
fn every_call_reaches_a_routine_of_its_segments_library() {
    let config = HardenConfig::with_redundant(LowFatPolicy::All);
    let mut workloads = redfat_workloads::spec::all();
    workloads.push(redfat_workloads::kromium::build());
    for w in workloads {
        let image = w.image();
        let hardened = harden(&image, &config).expect("hardens");
        assert_library_is_sound(w.name, &hardened, layout::TRAMPOLINE_BASE);
        let profiling = instrument_profile(&image).expect("instruments");
        let what = format!("{} profiling", w.name);
        assert_library_is_sound(&what, &profiling, layout::TRAMPOLINE_BASE);
    }
}

/// An executable image of the code `build` assembles at `base`.
fn image_at(base: u64, build: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(base);
    build(&mut a);
    let code = a.finish().expect("assembles");
    Image {
        kind: ImageKind::Exec,
        entry: base,
        segments: vec![Segment::new(code.base, SegFlags::RX, code.bytes)],
        symbols: vec![],
    }
}

/// `syscall` number `nr`, its argument in `rdi`.
fn call_runtime(a: &mut Asm, nr: u64, arg: Option<i64>) {
    if let Some(arg) = arg {
        a.mov_ri(Width::W64, Reg::Rdi, arg);
    }
    a.mov_ri(Width::W64, Reg::Rax, nr as i64);
    a.syscall();
}

/// `r12 = malloc(40)` (class 64, so offset 40 is past the object), then
/// a store of 7 to each of `targets` in a block of its own, then a print
/// of the words at offsets 8 and 40 of the object and `exit(0)`.
/// Returns the image and the stores' addresses.
fn stores_into_one_object(
    base: u64,
    setup: impl FnOnce(&mut Asm),
    targets: &[Mem],
) -> (Image, Vec<u64>) {
    let mut sites = Vec::new();
    let image = image_at(base, |a| {
        call_runtime(a, syscalls::MALLOC, Some(40));
        a.mov_rr(Width::W64, Reg::R12, Reg::Rax);
        setup(a);
        a.mov_ri(Width::W64, Reg::Rcx, 7);
        for &mem in targets {
            sites.push(a.here());
            a.mov_mr(Width::W64, mem, Reg::Rcx);
            // A jump to the next instruction ends the block.
            let next = a.label();
            a.jmp_label(next);
            a.bind(next).expect("binds");
        }
        for disp in [8, 40] {
            a.mov_rm(Width::W64, Reg::Rdi, Mem::base_disp(Reg::R12, disp));
            call_runtime(a, syscalls::PRINT_INT, None);
        }
        call_runtime(a, syscalls::EXIT, Some(0));
    });
    (image, sites)
}

#[test]
fn a_non_fat_base_register_with_a_heap_lb_takes_base_from_the_fallback() {
    // `rbx` is 0, read from the input so no analysis knows it: not a
    // low-fat pointer. LB = rbx + r12 + disp is inside r12's slot.
    let (image, sites) = stores_into_one_object(
        layout::CODE_BASE,
        |a| {
            call_runtime(a, syscalls::READ_INT, None);
            a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
        },
        &[
            Mem::bis(Reg::Rbx, Reg::R12, 1, 8),
            Mem::bis(Reg::Rbx, Reg::R12, 1, 40),
        ],
    );
    // Stores only: the reads that print the object stay unchecked.
    let config = HardenConfig::minus_reads(LowFatPolicy::All);
    let hardened = harden(&image, &config).expect("hardens");
    assert_eq!(hardened.stats.sites_lowfat, 2, "two full checks");
    for backend in [ExecBackend::Step, ExecBackend::Fast] {
        let spec = |mode| RunSpec {
            backend,
            ..RunSpec::new(&[0], mode, 100_000)
        };
        let base = run(&image, &spec(ErrorMode::Log)).expect("runs");
        let log = run(&hardened.image, &spec(ErrorMode::Log)).expect("runs");
        assert_eq!(log.result, RunResult::Exited(0), "{backend:?}");
        assert_eq!(log.io.out_ints, [7, 7], "{backend:?}: both stores land");
        assert_eq!(
            log.errors,
            [MemoryError {
                site: sites[1],
                kind: MemErrKind::Bounds,
                is_write: true,
            }],
            "{backend:?}: the in-bounds store passes, the overflow reports"
        );
        // Each check's BASE: the routine's `mul` and `imul` on LB.
        assert_eq!(log.counters.muls - base.counters.muls, 4, "{backend:?}");

        let abort = run(&hardened.image, &spec(ErrorMode::Abort)).expect("runs");
        assert_eq!(
            abort.result,
            RunResult::MemoryError(log.errors[0]),
            "{backend:?}"
        );
    }
}

#[test]
fn a_site_beyond_32_bits_reports_itself() {
    // Code 4 GiB up, with its trampolines and trap table beside it: the
    // report stubs cannot carry the site in a 32-bit immediate, and the
    // overflowing store through r12 must still report its own address.
    let code = 1 << 32;
    let bases = RewriteBases {
        trampoline: code + 0x0100_0000,
        trap_table: code + 0x00F0_0000,
    };
    let (image, sites) = stores_into_one_object(code, |_| {}, &[Mem::base_disp(Reg::R12, 40)]);
    assert!(sites[0] > u64::from(u32::MAX));
    let config = HardenConfig::minus_reads(LowFatPolicy::All);
    let hardened = harden_with_bases(&image, &config, bases).expect("hardens");
    assert_eq!(hardened.stats.checks, 1);
    let log = run(&hardened.image, &RunSpec::new(&[], ErrorMode::Log, 100_000)).expect("runs");
    assert_eq!(log.result, RunResult::Exited(0));
    assert_eq!(log.io.out_ints, [0, 7], "the store lands past the object");
    assert_eq!(
        log.errors,
        [MemoryError {
            site: sites[0],
            kind: MemErrKind::Bounds,
            is_write: true,
        }]
    );
}
