//! End-to-end detection tests: build a guest binary, harden it, run it,
//! and assert that each class of memory error from the paper is (or is
//! not) detected under each policy:
//!
//! * incremental out-of-bounds → redzone hit (detected by both policies)
//! * non-incremental out-of-bounds (redzone skip) → detected only with
//!   the LowFat component (Problem #1)
//! * use-after-free → detected (merged `SIZE == 0` check)
//! * overflow into allocation padding → detected (accurate malloc-size
//!   bounds, §4.2)
//! * intentional out-of-bounds base pointer (`array - K`) → false
//!   positive with LowFat-everywhere, eliminated by the §5 allow-list
//!   workflow (Problem #2)

use redfat_core::{
    collect_allowlist, harden, instrument_profile, run, HardenConfig, LowFatPolicy, RunSpec,
};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::{syscalls, ErrorMode, MemErrKind, RunResult};
use redfat_vm::layout;
use redfat_x86::{AluOp, Asm, Mem, Reg, Width};

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

fn sys(a: &mut Asm, nr: u64) {
    a.mov_ri(Width::W64, Reg::Rax, nr as i64);
    a.syscall();
}

fn exit0(a: &mut Asm) {
    a.mov_ri(Width::W64, Reg::Rdi, 0);
    sys(a, syscalls::EXIT);
}

/// malloc(size) -> rbx.
fn malloc_rbx(a: &mut Asm, size: i64) {
    a.mov_ri(Width::W64, Reg::Rdi, size);
    sys(a, syscalls::MALLOC);
    a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
}

/// `array[idx] = 1` with idx read from input: the attacker-controlled
/// non-incremental store of the paper's snippet (b).
fn attacker_indexed_store(a: &mut Asm) {
    malloc_rbx(a, 40); // class 64: base..base+64, user 40 bytes
    sys(a, syscalls::READ_INT); // rax = attacker index
    a.mov_ri(Width::W64, Reg::Rcx, 1);
    a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rax, 8, 0), Reg::Rcx);
    exit0(a);
}

fn full() -> HardenConfig {
    HardenConfig::with_merge(LowFatPolicy::All)
}

fn redzone_only() -> HardenConfig {
    HardenConfig::with_merge(LowFatPolicy::Disabled)
}

fn expect_error(img: &Image, input: Vec<i64>, cfg: &HardenConfig) -> redfat_emu::MemoryError {
    let hardened = harden(img, cfg).expect("hardens");
    let spec = RunSpec::new(&input, ErrorMode::Abort, 1_000_000);
    let out = run(&hardened.image, &spec).unwrap();
    match out.result {
        RunResult::MemoryError(e) => e,
        other => panic!(
            "expected memory error, got {other:?} (errors: {:?})",
            out.errors
        ),
    }
}

fn expect_clean(img: &Image, input: Vec<i64>, cfg: &HardenConfig) {
    let hardened = harden(img, cfg).expect("hardens");
    let spec = RunSpec::new(&input, ErrorMode::Abort, 1_000_000);
    let out = run(&hardened.image, &spec).unwrap();
    assert_eq!(out.result, RunResult::Exited(0), "errors: {:?}", out.errors);
}

#[test]
fn in_bounds_access_is_clean() {
    let img = build_image(attacker_indexed_store);
    for idx in [0i64, 1, 4] {
        expect_clean(&img, vec![idx], &full());
        expect_clean(&img, vec![idx], &redzone_only());
    }
}

#[test]
fn incremental_overflow_hits_redzone() {
    // Index 6/7 lands in bytes 48..64: past user data (40) but inside
    // the class -- that is *padding*, caught by the accurate SIZE bound.
    // The next object's redzone starts at +64 (index 8).
    let img = build_image(attacker_indexed_store);
    let e = expect_error(&img, vec![8], &full());
    assert_eq!(e.kind, MemErrKind::Bounds);
    assert!(e.is_write);
    // Redzone-only policy catches it too: the access lands in the
    // adjacent object's metadata redzone.
    let e = expect_error(&img, vec![8], &redzone_only());
    assert_eq!(e.kind, MemErrKind::Bounds);
}

#[test]
fn padding_overflow_detected() {
    // 40-byte object in a 64-byte class: bytes 40..48 of the user area
    // are padding (48 = 64 - 16 redzone). Index 5 = bytes 40..47.
    let img = build_image(attacker_indexed_store);
    let e = expect_error(&img, vec![5], &full());
    assert_eq!(e.kind, MemErrKind::Bounds);
    // Redzone-only *fallback* also checks the malloc size here (the
    // combined check shares the accurate bound), so it detects it too.
    let e = expect_error(&img, vec![5], &redzone_only());
    assert_eq!(e.kind, MemErrKind::Bounds);
}

#[test]
fn non_incremental_skip_detected_only_by_lowfat() {
    // Index 16 skips the adjacent object's redzone (bytes 64..80) and
    // lands in its *user data* (byte 128 = base+128: two objects over,
    // user area). Choose idx so target is allocated user memory of a
    // neighboring object: allocate two extra objects to make sure memory
    // there is valid and Allocated.
    let img = build_image(|a| {
        malloc_rbx(a, 40); // victim
        a.mov_rr(Width::W64, Reg::R12, Reg::Rbx);
        malloc_rbx(a, 40); // neighbor 1
        malloc_rbx(a, 40); // neighbor 2
        a.mov_rr(Width::W64, Reg::Rbx, Reg::R12);
        sys(a, syscalls::READ_INT);
        a.mov_ri(Width::W64, Reg::Rcx, 1);
        a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rax, 8, 0), Reg::Rcx);
        exit0(a);
    });
    // Objects are 64 bytes apart; victim user data at V = base+16.
    // V + 8*idx with idx=10 → base+96 = neighbor's user data (its base
    // is base+64, user starts base+80). Skips the redzone entirely.
    let e = expect_error(&img, vec![10], &full());
    assert_eq!(e.kind, MemErrKind::Bounds);
    assert!(e.is_write);

    // Redzone-only policy MISSES it: Problem #1 of the paper.
    expect_clean(&img, vec![10], &redzone_only());
}

#[test]
fn use_after_free_detected() {
    let img = build_image(|a| {
        malloc_rbx(a, 40);
        a.mov_rr(Width::W64, Reg::Rdi, Reg::Rbx);
        sys(a, syscalls::FREE);
        // Dangling store.
        a.mov_ri(Width::W64, Reg::Rcx, 7);
        a.mov_mr(Width::W64, Mem::base(Reg::Rbx), Reg::Rcx);
        exit0(a);
    });
    let e = expect_error(&img, vec![], &full());
    // Merged representation: UAF surfaces as a bounds failure.
    assert_eq!(e.kind, MemErrKind::Bounds);
    // Redzone-only detects UAF as well (object-based metadata).
    let e = expect_error(&img, vec![], &redzone_only());
    assert_eq!(e.kind, MemErrKind::Bounds);
}

#[test]
fn underflow_detected() {
    // array[-1]: reads the metadata redzone.
    let img = build_image(|a| {
        malloc_rbx(a, 40);
        a.mov_rm(Width::W64, Reg::Rcx, Mem::base_disp(Reg::Rbx, -8));
        exit0(a);
    });
    let e = expect_error(&img, vec![], &full());
    assert_eq!(e.kind, MemErrKind::Bounds);
    assert!(!e.is_write);
}

#[test]
fn reads_uninstrumented_in_writes_only_mode() {
    let img = build_image(|a| {
        malloc_rbx(a, 40);
        // OOB *read* (underflow).
        a.mov_rm(Width::W64, Reg::Rcx, Mem::base_disp(Reg::Rbx, -8));
        exit0(a);
    });
    // -reads: the read goes unchecked (the documented trade-off).
    expect_clean(&img, vec![], &HardenConfig::minus_reads(LowFatPolicy::All));
    // ...but a write at the same spot is still caught.
    let img_w = build_image(|a| {
        malloc_rbx(a, 40);
        a.mov_ri(Width::W64, Reg::Rcx, 1);
        a.mov_mr(Width::W64, Mem::base_disp(Reg::Rbx, -8), Reg::Rcx);
        exit0(a);
    });
    let e = expect_error(
        &img_w,
        vec![],
        &HardenConfig::minus_reads(LowFatPolicy::All),
    );
    assert!(e.is_write);
}

#[test]
fn all_optimization_levels_detect_the_same_bug() {
    let img = build_image(attacker_indexed_store);
    for cfg in [
        HardenConfig::unoptimized(LowFatPolicy::All),
        HardenConfig::with_elim(LowFatPolicy::All),
        HardenConfig::with_batch(LowFatPolicy::All),
        HardenConfig::with_merge(LowFatPolicy::All),
        HardenConfig::minus_size(LowFatPolicy::All),
        HardenConfig::minus_reads(LowFatPolicy::All),
    ] {
        let e = expect_error(&img, vec![100], &cfg);
        assert_eq!(e.kind, MemErrKind::Bounds, "config {cfg:?}");
        expect_clean(&img, vec![2], &cfg);
    }
}

/// The paper's snippet (c): `array -= K; array[i] = val` with always
/// in-bounds `i`. Intentional out-of-bounds base pointer.
fn anti_idiom_program(a: &mut Asm) {
    malloc_rbx(a, 64);
    // array -= 256 (K = 32 elements of 8 bytes).
    a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 256);
    sys(a, syscalls::READ_INT); // i, always >= 32 in valid inputs
    a.mov_ri(Width::W64, Reg::Rcx, 9);
    a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rax, 8, 0), Reg::Rcx);
    exit0(a);
}

#[test]
fn intentional_oob_base_is_a_false_positive_under_lowfat_all() {
    let img = build_image(anti_idiom_program);
    // i = 33 → accesses array base + 8 (in bounds of the real object).
    // Redzone-only: no error (correct).
    expect_clean(&img, vec![33], &redzone_only());
    // LowFat-everywhere: FALSE POSITIVE (paper Problem #2).
    let e = expect_error(&img, vec![33], &full());
    assert_eq!(e.kind, MemErrKind::Bounds);
}

#[test]
fn profile_workflow_eliminates_false_positive() {
    let img = build_image(anti_idiom_program);

    // Phase 1: profile against a training input.
    let prof = instrument_profile(&img).expect("profiles");
    let out = run(&prof.image, &RunSpec::new(&[34], ErrorMode::Log, 1_000_000)).unwrap();
    assert_eq!(out.result, RunResult::Exited(0));
    assert!(!out.profile.is_empty(), "profiling recorded events");
    let allow = collect_allowlist(&out.profile);

    // The anti-idiom store must have failed its LowFat check in
    // profiling, so at least one observed site is NOT allow-listed.
    let observed = out.profile.len();
    assert!(allow.len() < observed, "anti-idiom site excluded");

    // Phase 2: production hardening with the allow-list has no false
    // positive on fresh inputs.
    let cfg = HardenConfig::with_merge(LowFatPolicy::AllowList(allow));
    expect_clean(&img, vec![39], &cfg);
    expect_clean(&img, vec![33], &cfg);
}

#[test]
fn profile_workflow_still_detects_real_bugs() {
    // A program with both the anti-idiom AND an attacker-controlled
    // non-incremental bug on a different instruction.
    let img = build_image(|a| {
        // Anti-idiom part (benign).
        malloc_rbx(a, 64);
        a.mov_rr(Width::W64, Reg::R12, Reg::Rbx);
        a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 256);
        a.mov_ri(Width::W64, Reg::Rcx, 9);
        a.mov_ri(Width::W64, Reg::Rax, 32);
        a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rax, 8, 0), Reg::Rcx);
        // Vulnerable part: attacker index into a fresh object.
        malloc_rbx(a, 40);
        malloc_rbx(a, 40);
        a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
        sys(a, syscalls::READ_INT);
        a.mov_ri(Width::W64, Reg::Rcx, 1);
        a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rax, 8, 0), Reg::Rcx);
        exit0(a);
    });

    // Train with a benign input.
    let prof = instrument_profile(&img).expect("profiles");
    let out = run(&prof.image, &RunSpec::new(&[1], ErrorMode::Log, 1_000_000)).unwrap();
    assert_eq!(out.result, RunResult::Exited(0));
    let allow = collect_allowlist(&out.profile);
    let cfg = HardenConfig::with_merge(LowFatPolicy::AllowList(allow));

    // Benign input stays clean; attack input is detected (the vulnerable
    // site always passed in training, so it kept the full check).
    expect_clean(&img, vec![2], &cfg);
    let e = expect_error(&img, vec![50], &cfg);
    assert_eq!(e.kind, MemErrKind::Bounds);
}

#[test]
fn log_mode_reports_and_continues() {
    let img = build_image(attacker_indexed_store);
    let hardened = harden(&img, &full()).unwrap();
    let spec = RunSpec::new(&[5], ErrorMode::Log, 1_000_000);
    let out = run(&hardened.image, &spec).unwrap();
    // Padding index: access proceeds after logging (padding is mapped).
    assert_eq!(out.result, RunResult::Exited(0));
    assert_eq!(out.errors.len(), 1);
}

#[test]
fn hardening_without_runtime_tables_is_inert() {
    // Running a hardened binary without installing the runtime is the
    // analogue of forgetting LD_PRELOAD: checks read zeroed tables and
    // pass everything.
    let img = build_image(attacker_indexed_store);
    let hardened = harden(&img, &full()).unwrap();
    // Manually construct an emulator whose runtime skips `install`.
    struct NoTables(redfat_emu::HostRuntime);
    impl redfat_emu::Runtime for NoTables {
        fn on_load(&mut self, vm: &mut redfat_vm::Vm) {
            // Map the runtime page zeroed, but skip table installation.
            vm.map(
                layout::RUNTIME_BASE,
                layout::SCRATCH_BASE + layout::SCRATCH_SIZE - layout::RUNTIME_BASE,
                redfat_vm::Prot::RW,
                "zeroed-runtime",
            );
        }
        fn syscall(
            &mut self,
            cpu: &mut redfat_emu::Cpu,
            vm: &mut redfat_vm::Vm,
        ) -> redfat_emu::SyscallOutcome {
            self.0.syscall(cpu, vm)
        }
    }
    // NOTE: the heap wrapper still works (malloc goes through the host
    // runtime), but base()/size() lookups in *generated code* see zeroes.
    let runtime = NoTables(redfat_emu::HostRuntime::new(ErrorMode::Abort).with_input(vec![5]));
    let mut emu = redfat_emu::Emu::load_image(&hardened.image, runtime).expect("loads");
    let r = emu.run(1_000_000);
    assert_eq!(r, RunResult::Exited(0), "checks are inert without tables");
}

#[test]
fn stats_reflect_policy() {
    let img = build_image(attacker_indexed_store);
    let all = harden(&img, &full()).unwrap();
    assert!(all.stats.sites_lowfat > 0);
    assert_eq!(all.stats.sites_redzone, 0);
    let rz = harden(&img, &redzone_only()).unwrap();
    assert_eq!(rz.stats.sites_lowfat, 0);
    assert!(rz.stats.sites_redzone > 0);
    assert_eq!(
        all.stats.sites_lowfat + all.stats.sites_eliminated,
        all.stats.sites_considered
    );
}
