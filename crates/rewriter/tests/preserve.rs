//! End-to-end property: rewriting with empty payloads preserves program
//! behavior exactly (same outputs, same exit code), for both patch
//! tactics and for patches on every memory-access instruction of a real
//! little program.

use redfat_analysis::{disassemble, plan_batches, Cfg};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::{syscalls, Emu, ErrorMode, HostRuntime, RunResult};
use redfat_rewriter::{rewrite, Patch};
use redfat_vm::layout;
use redfat_x86::{AluOp, Asm, Cond, Mem, Reg, Width};

fn build_image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(layout::CODE_BASE);
    f(&mut a);
    let p = a.finish().unwrap();
    Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
        symbols: vec![],
    }
}

/// A program with a loop, calls, heap traffic and both patch tactics:
/// allocates a 10-element array, fills it with squares, prints the sum.
fn demo_program(a: &mut Asm) {
    let fill = a.named_label("fill");
    let done = a.label();
    let loop_top = a.label();

    // main: rbx = malloc(80)
    a.mov_ri(Width::W64, Reg::Rdi, 80);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::MALLOC as i64);
    a.syscall();
    a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
    a.call_label(fill);
    // sum loop
    a.mov_ri(Width::W64, Reg::Rcx, 0);
    a.mov_ri(Width::W64, Reg::Rsi, 0);
    a.bind(loop_top).unwrap();
    a.alu_ri(AluOp::Cmp, Width::W64, Reg::Rcx, 10);
    a.jcc_label(Cond::Ge, done);
    a.alu_rm(
        AluOp::Add,
        Width::W64,
        Reg::Rsi,
        Mem::bis(Reg::Rbx, Reg::Rcx, 8, 0),
    );
    a.alu_ri(AluOp::Add, Width::W64, Reg::Rcx, 1);
    a.jmp_label(loop_top);
    a.bind(done).unwrap();
    a.mov_rr(Width::W64, Reg::Rdi, Reg::Rsi);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::PRINT_INT as i64);
    a.syscall();
    a.mov_ri(Width::W64, Reg::Rdi, 0);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
    a.syscall();

    // fill(rbx): array[i] = i*i
    a.bind(fill).unwrap();
    a.mov_ri(Width::W64, Reg::Rcx, 0);
    let ftop = a.label();
    let fend = a.label();
    a.bind(ftop).unwrap();
    a.alu_ri(AluOp::Cmp, Width::W64, Reg::Rcx, 10);
    a.jcc_label(Cond::Ge, fend);
    a.mov_rr(Width::W64, Reg::Rax, Reg::Rcx);
    a.imul_rr(Width::W64, Reg::Rax, Reg::Rcx);
    a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rcx, 8, 0), Reg::Rax);
    a.alu_ri(AluOp::Add, Width::W64, Reg::Rcx, 1);
    a.jmp_label(ftop);
    a.bind(fend).unwrap();
    a.ret();
}

fn run(image: &Image) -> (RunResult, Vec<i64>, u64) {
    let mut emu = Emu::load_image(image, HostRuntime::new(ErrorMode::Abort)).expect("loads");
    let result = emu.run(1_000_000);
    let ints = emu.runtime.io.out_ints.clone();
    (result, ints, emu.counters.cycles)
}

#[test]
fn identity_rewrite_preserves_behavior() {
    let img = build_image(demo_program);
    let (r0, out0, cycles0) = run(&img);
    assert_eq!(r0, RunResult::Exited(0));
    assert_eq!(out0, vec![285]); // 0+1+4+...+81

    // Patch every heap-reachable memory access with an empty payload.
    let d = disassemble(&img);
    let cfg = Cfg::recover(&d, img.entry, &[]);
    let batches = plan_batches(&d, &cfg, true, |_, i| {
        i.memory_access()
            .is_some_and(|m| redfat_analysis::can_reach_heap(&m))
    });
    assert!(!batches.is_empty(), "demo program has checkable accesses");
    let patches: Vec<Patch> = batches
        .iter()
        .map(|b| Patch {
            anchor: b.anchor,
            code: &[],
            entry: 0,
            rip_fields: &[],
            calls: &[],
        })
        .collect();
    let out = rewrite(&img, &d, &cfg.leaders, &patches).unwrap();

    let (r1, out1, cycles1) = run(&out.image);
    assert_eq!(r1, RunResult::Exited(0));
    assert_eq!(out1, out0, "rewriting must not change output");
    assert!(
        cycles1 > cycles0,
        "trampoline jumps must cost something: {cycles1} vs {cycles0}"
    );
}

#[test]
fn identity_rewrite_on_stripped_binary() {
    let mut img = build_image(demo_program);
    img.symbols.push(redfat_elf::Symbol {
        name: "main".into(),
        value: layout::CODE_BASE,
        size: 0,
    });
    img.strip();
    let bytes = img.to_bytes();
    let img = Image::parse(&bytes).unwrap();

    let d = disassemble(&img);
    let cfg = Cfg::recover(&d, img.entry, &[]);
    let batches = plan_batches(&d, &cfg, false, |_, i| {
        i.memory_access()
            .is_some_and(|m| redfat_analysis::can_reach_heap(&m))
    });
    let patches: Vec<Patch> = batches
        .iter()
        .map(|b| Patch {
            anchor: b.anchor,
            code: &[],
            entry: 0,
            rip_fields: &[],
            calls: &[],
        })
        .collect();
    let out = rewrite(&img, &d, &cfg.leaders, &patches).unwrap();
    let (r1, out1, _) = run(&out.image);
    assert_eq!(r1, RunResult::Exited(0));
    assert_eq!(out1, vec![285]);
}

#[test]
fn trap_tactic_preserves_behavior() {
    // Force the trap tactic: patch a 3-byte store immediately followed by
    // a jump target.
    let img = build_image(|a| {
        // rbx = malloc(32)
        a.mov_ri(Width::W64, Reg::Rdi, 32);
        a.mov_ri(Width::W64, Reg::Rax, syscalls::MALLOC as i64);
        a.syscall();
        a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
        a.mov_ri(Width::W64, Reg::Rcx, 3);
        a.mov_mr(Width::W64, Mem::base(Reg::Rbx), Reg::Rcx); // 3-byte store...
        let top = a.label();
        a.bind(top).unwrap(); // ...whose next instruction is a jump target
        a.alu_ri(AluOp::Sub, Width::W64, Reg::Rcx, 1);
        a.jcc_label(Cond::Ne, top);
        a.mov_rm(Width::W64, Reg::Rdi, Mem::base(Reg::Rbx));
        a.mov_ri(Width::W64, Reg::Rax, syscalls::PRINT_INT as i64);
        a.syscall();
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
        a.syscall();
    });
    let (r0, out0, _) = run(&img);
    assert_eq!(r0, RunResult::Exited(0));

    let d = disassemble(&img);
    let cfg = Cfg::recover(&d, img.entry, &[]);
    // Find the store instruction (mov %rcx, (%rbx)).
    let store = d
        .iter()
        .find(|(_, i, _)| {
            i.memory_access().is_some_and(|m| m.base == Some(Reg::Rbx)) && i.writes_memory()
        })
        .map(|(a, _, _)| a)
        .unwrap();
    let out = rewrite(
        &img,
        &d,
        &cfg.leaders,
        &[Patch {
            anchor: store,
            code: &[],
            entry: 0,
            rip_fields: &[],
            calls: &[],
        }],
    )
    .unwrap();
    assert_eq!(out.stats.trap_patches, 1, "must use the trap tactic");

    let (r1, out1, _) = run(&out.image);
    assert_eq!(r1, RunResult::Exited(0));
    assert_eq!(out1, out0);
}

#[test]
fn payload_executes_before_displaced_instruction() {
    // Payload writes a sentinel to a global; the displaced instruction
    // then overwrites a different global. Both must happen, in order.
    let img = {
        let mut a = Asm::new(layout::CODE_BASE);
        a.mov_ri(Width::W64, Reg::Rax, 7); // 7-byte anchor
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
        a.syscall();
        let p = a.finish().unwrap();
        Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![
                Segment::new(p.base, SegFlags::RX, p.bytes),
                Segment::new(layout::GLOBALS_BASE, SegFlags::RW, vec![0; 16]),
            ],
            symbols: vec![],
        }
    };
    // Uses rax before the displaced mov sets it: proves the payload
    // runs first. Store marker without clobbering anything live (rax
    // is dead here).
    let mut payload = Asm::new(0);
    payload.mov_ri(Width::W64, Reg::Rax, 0x77);
    payload.mov_mr(Width::W64, Mem::abs(layout::GLOBALS_BASE as i64), Reg::Rax);
    let code = payload.finish().unwrap().bytes;
    let d = disassemble(&img);
    let cfg = Cfg::recover(&d, img.entry, &[]);
    let out = rewrite(
        &img,
        &d,
        &cfg.leaders,
        &[Patch {
            anchor: layout::CODE_BASE,
            code: &code,
            entry: 0,
            rip_fields: &[],
            calls: &[],
        }],
    )
    .unwrap();
    let mut emu = Emu::load_image(&out.image, HostRuntime::new(ErrorMode::Abort)).expect("loads");
    let r = emu.run(10_000);
    assert_eq!(r, RunResult::Exited(0));
    assert_eq!(emu.vm.read_u64(layout::GLOBALS_BASE).unwrap(), 0x77);
    // The displaced mov still executed.
    assert_eq!(emu.cpu.get(Reg::Rax), syscalls::EXIT);
}
