//! Fault-injection harness integration tests: the seeded sweep must
//! classify every mutant (no panics), be deterministic, and the
//! individual panic fixes must hold through the public API.

use redfat_core::{classify_bytes, fault_sweep, FaultConfig, FaultOutcome, Stage};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_vm::layout;
use redfat_workloads::spec;
use redfat_x86::{Asm, Mem, Reg, Width};

/// A scaled-down sweep config so debug-build test time stays sane.
fn small_config() -> FaultConfig {
    FaultConfig {
        mutants_per_workload: 4,
        max_steps: 50_000,
        ..FaultConfig::default()
    }
}

#[test]
fn sweep_classifies_every_mutant() {
    let report = fault_sweep(&small_config(), 4);
    assert!(report.clean(), "failures: {:#?}", report.failures);
    assert_eq!(report.cases, 4 * spec::all().len());
    assert_eq!(report.cases, report.ok + report.errors + report.degraded);
    // A sweep that rejects nothing is not exercising the error paths.
    assert!(report.errors > 0, "{report:?}");
}

#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let a = fault_sweep(&small_config(), 1);
    let b = fault_sweep(&small_config(), 7);
    assert_eq!(a, b);
}

#[test]
fn different_seed_changes_the_mutants() {
    let a = fault_sweep(&small_config(), 4);
    let b = fault_sweep(
        &FaultConfig {
            seed: 0x0DD5_EED5,
            ..small_config()
        },
        4,
    );
    // Same case count, but (overwhelmingly likely) different outcomes.
    assert_eq!(a.cases, b.cases);
    assert_ne!(a, b);
}

#[test]
fn truncated_elf_classifies_as_parse_error() {
    let w = spec::all().into_iter().next().unwrap();
    let bytes = w.image().to_bytes();
    assert_eq!(classified_stage(&bytes[..20]), Stage::Parse);
}

/// Serializes an executable image whose code is `build` assembled at
/// `base`, entered at `base`, plus `extra` segments.
fn crafted_elf(base: u64, build: impl FnOnce(&mut Asm), extra: Vec<Segment>) -> Vec<u8> {
    let mut a = Asm::new(base);
    build(&mut a);
    let code = a.finish().unwrap();
    let mut segments = vec![Segment::new(code.base, SegFlags::RX, code.bytes)];
    segments.extend(extra);
    Image {
        kind: ImageKind::Exec,
        entry: base,
        segments,
        symbols: vec![],
    }
    .to_bytes()
}

/// A load through an unknown pointer, then exit.
fn checked_load(a: &mut Asm) {
    a.mov_rm(Width::W64, Reg::Rax, Mem::base_disp(Reg::Rdi, 8));
    a.mov_ri(Width::W64, Reg::Rax, 0);
    a.syscall();
}

fn classified_stage(bytes: &[u8]) -> Stage {
    match classify_bytes(bytes, &[], 10_000) {
        FaultOutcome::Error { stage, .. } => stage,
        other => panic!("expected a stage error, got {other:?}"),
    }
}

#[test]
fn code_beyond_trampoline_reach_classifies_as_harden_error() {
    // 4 GiB above the trampoline area: no rel32 `jmp` at the checked
    // load reaches its payload, so the rewrite fails.
    let bytes = crafted_elf(layout::TRAMPOLINE_BASE + (4 << 30), checked_load, vec![]);
    assert_eq!(classified_stage(&bytes), Stage::Harden);
}

#[test]
fn overlapping_segments_classify_as_load_error() {
    let data = Segment::new(layout::CODE_BASE + 8, SegFlags::RW, vec![0; 64]);
    let bytes = crafted_elf(layout::CODE_BASE, checked_load, vec![data]);
    assert_eq!(classified_stage(&bytes), Stage::Load);
}

#[test]
fn undefined_instruction_at_entry_classifies_as_run_error() {
    let bytes = crafted_elf(layout::CODE_BASE, |a| a.ud2(), vec![]);
    assert_eq!(classified_stage(&bytes), Stage::Run);
}

#[test]
fn well_formed_workload_classifies_ok() {
    let w = spec::all().into_iter().next().unwrap();
    let bytes = w.image().to_bytes();
    let outcome = classify_bytes(&bytes, &w.train_input, 2_000_000);
    assert!(matches!(outcome, FaultOutcome::Ok), "{outcome:?}");
}
