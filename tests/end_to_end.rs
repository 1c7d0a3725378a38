//! Cross-crate integration tests: the full journey a binary takes
//! through this system -- compile (mini-C) → serialize to ELF bytes →
//! strip → parse → harden → run -- plus properties that span subsystems
//! (optimization-level equivalence, metadata hardening against foreign
//! corruption, allow-list round-trips).

use redfat::core::{
    collect_allowlist, harden, instrument_profile, run, AllowList, HardenConfig, LowFatPolicy,
    RunSpec,
};
use redfat::emu::{ErrorMode, MemErrKind, RunResult};
use redfat::minic::compile;
use redfat::vm::layout;

const VULN_PROGRAM: &str = "
fn main() {
    var a = malloc(10 * 8);
    var b = malloc(10 * 8);
    for (var i = 0; i < 10; i = i + 1) { a[i] = i; b[i] = 100 + i; }
    var idx = input();
    a[idx] = 7;
    var sum = 0;
    for (var i = 0; i < 10; i = i + 1) { sum = sum + a[i] + b[i]; }
    print(sum);
    return 0;
}";

#[test]
fn full_pipeline_through_elf_bytes_and_strip() {
    // Compile, serialize, strip, re-parse: the hardening input is a
    // genuinely stripped binary reconstructed from disk bytes.
    let mut image = compile(VULN_PROGRAM).expect("compiles");
    assert!(!image.symbols.is_empty());
    image.strip();
    let bytes = image.to_bytes();
    let stripped = redfat::elf::Image::parse(&bytes).expect("parses");
    assert!(stripped.symbols.is_empty());

    let hardened = harden(&stripped, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();

    // Behavior preserved on benign input.
    let benign = RunSpec::new(&[4], ErrorMode::Abort, 10_000_000);
    let base = run(&stripped, &benign).unwrap();
    let hard = run(&hardened.image, &benign).unwrap();
    assert_eq!(base.result, RunResult::Exited(0));
    assert_eq!(hard.result, RunResult::Exited(0));
    assert_eq!(base.io.out_ints, hard.io.out_ints);

    // Attack detected. Index 12 lands in object b's user data
    // (objects are 96 bytes apart in the 96-byte class; 12 elements =
    // 96 bytes: exactly the neighbor's user start).
    let attack = RunSpec::new(&[12], ErrorMode::Abort, 10_000_000);
    let attacked = run(&hardened.image, &attack).unwrap();
    assert!(
        matches!(attacked.result, RunResult::MemoryError(_)),
        "got {:?}",
        attacked.result
    );
}

#[test]
fn hardened_binary_serializes_and_reloads() {
    // A hardened image (trampolines, possibly trap tables) must survive
    // the ELF round trip: harden → bytes → parse → run.
    let image = compile(VULN_PROGRAM).unwrap();
    let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
    let bytes = hardened.image.to_bytes();
    let reloaded = redfat::elf::Image::parse(&bytes).unwrap();
    let out = run(&reloaded, &RunSpec::new(&[3], ErrorMode::Abort, 10_000_000)).unwrap();
    assert_eq!(out.result, RunResult::Exited(0));
    let attack = RunSpec::new(&[12], ErrorMode::Abort, 10_000_000);
    let attacked = run(&reloaded, &attack).unwrap();
    assert!(matches!(attacked.result, RunResult::MemoryError(_)));
}

#[test]
fn all_optimization_levels_agree_on_output_and_detection() {
    let image = compile(VULN_PROGRAM).unwrap();
    let benign = RunSpec::new(&[4], ErrorMode::Abort, 10_000_000);
    let attack = RunSpec::new(&[12], ErrorMode::Abort, 10_000_000);
    let expected = run(&image, &benign).unwrap().io.out_ints;
    for (name, cfg) in [
        ("unopt", HardenConfig::unoptimized(LowFatPolicy::All)),
        ("+elim", HardenConfig::with_elim(LowFatPolicy::All)),
        ("+batch", HardenConfig::with_batch(LowFatPolicy::All)),
        ("+merge", HardenConfig::with_merge(LowFatPolicy::All)),
        ("-size", HardenConfig::minus_size(LowFatPolicy::All)),
        ("-reads", HardenConfig::minus_reads(LowFatPolicy::All)),
    ] {
        let hardened = harden(&image, &cfg).unwrap();
        let ok = run(&hardened.image, &benign).unwrap();
        assert_eq!(ok.result, RunResult::Exited(0), "{name}");
        assert_eq!(ok.io.out_ints, expected, "{name} changed output");
        let bad = run(&hardened.image, &attack).unwrap();
        assert!(
            matches!(bad.result, RunResult::MemoryError(_)),
            "{name} missed the attack: {:?}",
            bad.result
        );
    }
}

#[test]
fn optimization_ladder_monotonically_cheapens() {
    // More optimization must never cost more cycles (on this workload).
    let image = compile(
        "fn main() {
            var a = malloc(64 * 8);
            var s = 0;
            for (var it = 0; it < 50; it = it + 1) {
                for (var i = 0; i < 64; i = i + 1) { a[i] = i * it; }
                for (var i = 0; i < 64; i = i + 1) { s = s + a[i]; }
            }
            print(s);
            return 0;
        }",
    )
    .unwrap();
    let spec = RunSpec::new(&[], ErrorMode::Abort, 100_000_000);
    let mut cycles = Vec::new();
    for cfg in [
        HardenConfig::unoptimized(LowFatPolicy::All),
        HardenConfig::with_elim(LowFatPolicy::All),
        HardenConfig::with_batch(LowFatPolicy::All),
        HardenConfig::with_merge(LowFatPolicy::All),
        HardenConfig::minus_size(LowFatPolicy::All),
        HardenConfig::minus_reads(LowFatPolicy::All),
    ] {
        let hardened = harden(&image, &cfg).unwrap();
        let out = run(&hardened.image, &spec).unwrap();
        assert_eq!(out.result, RunResult::Exited(0));
        cycles.push(out.counters.cycles);
    }
    for w in cycles.windows(2) {
        assert!(w[1] <= w[0], "optimization increased cost: {cycles:?}");
    }
    // And the fully-hardened binary costs more than baseline.
    let base = run(&image, &spec).unwrap();
    assert!(cycles[0] > base.counters.cycles);
}

#[test]
fn metadata_hardening_catches_foreign_corruption() {
    // An "uninstrumented library" (simulated by a privileged host poke)
    // corrupts the in-band SIZE metadata to a huge value, trying to turn
    // the bounds check into a no-op. Metadata hardening (§4.2) validates
    // SIZE against the immutable class size and aborts.
    let image = compile(
        "fn main() {
            var a = malloc(40);
            var idx = input();
            a[idx] = 1;
            print(a[0]);
            return 0;
        }",
    )
    .unwrap();
    let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();

    // Run until after malloc, then corrupt. Easiest deterministic
    // vector: corrupt *before* the indexed store by hooking the runtime
    // -- here we simply run the whole program against a pre-corrupted
    // heap by replaying: load, corrupt first object's metadata, run.
    let runtime = redfat::emu::HostRuntime::new(ErrorMode::Abort).with_input(vec![2]);
    let mut emu = redfat::emu::Emu::load_image(&hardened.image, runtime).expect("loads");
    // Execute until the first malloc has happened (watch out_ints? no:
    // step until a heap object exists).
    let mut corrupted = false;
    let result = loop {
        match emu.step() {
            Ok(None) => {
                if !corrupted {
                    let first_obj = layout::region_base(4).div_ceil(64) * 64;
                    if emu.vm.read_u64(first_obj).map(|v| v == 40).unwrap_or(false) {
                        // SIZE=40 metadata present: overwrite with 1 << 40.
                        emu.vm
                            .write_privileged(first_obj, &(1u64 << 40).to_le_bytes())
                            .unwrap();
                        corrupted = true;
                    }
                }
            }
            Ok(Some(r)) => break r,
            Err(e) => panic!("emu error: {e}"),
        }
    };
    assert!(corrupted, "test never saw the allocation");
    match result {
        RunResult::MemoryError(e) => assert_eq!(e.kind, MemErrKind::Metadata),
        other => panic!("metadata corruption not detected: {other:?}"),
    }
}

#[test]
fn minus_size_accepts_what_metadata_hardening_rejects() {
    // Same corruption, but with -size: the metadata check is gone, so
    // the (now bogus) bounds check passes. This is the documented
    // security/performance trade of the -size column.
    let image = compile(
        "fn main() {
            var a = malloc(40);
            var idx = input();
            a[idx] = 1;
            print(a[0]);
            return 0;
        }",
    )
    .unwrap();
    let hardened = harden(&image, &HardenConfig::minus_size(LowFatPolicy::All)).unwrap();
    let runtime = redfat::emu::HostRuntime::new(ErrorMode::Abort).with_input(vec![2]);
    let mut emu = redfat::emu::Emu::load_image(&hardened.image, runtime).expect("loads");
    let mut corrupted = false;
    let result = loop {
        match emu.step() {
            Ok(None) => {
                if !corrupted {
                    let first_obj = layout::region_base(4).div_ceil(64) * 64;
                    if emu.vm.read_u64(first_obj).map(|v| v == 40).unwrap_or(false) {
                        emu.vm
                            .write_privileged(first_obj, &(1u64 << 40).to_le_bytes())
                            .unwrap();
                        corrupted = true;
                    }
                }
            }
            Ok(Some(r)) => break r,
            Err(e) => panic!("emu error: {e}"),
        }
    };
    assert!(corrupted);
    assert_eq!(
        result,
        RunResult::Exited(0),
        "-size tolerates metadata lies"
    );
}

#[test]
fn allowlist_text_roundtrip_through_production() {
    let image = compile(
        "fn main() {
            var t = malloc(16 * 8);
            var t1 = t - 8;
            for (var i = 0; i < 16; i = i + 1) { t[i] = i; }
            var i = input();
            print(t1[i]);
            return 0;
        }",
    )
    .unwrap();
    let prof = instrument_profile(&image).unwrap();
    let out = run(&prof.image, &RunSpec::new(&[8], ErrorMode::Log, 10_000_000)).unwrap();
    assert_eq!(out.result, RunResult::Exited(0));
    let allow = collect_allowlist(&out.profile);

    // Round-trip through the allow.lst text format.
    let text = allow.to_text();
    let parsed = AllowList::from_text(&text).unwrap();
    assert_eq!(parsed, allow);

    let cfg = HardenConfig::with_merge(LowFatPolicy::AllowList(parsed));
    let hardened = harden(&image, &cfg).unwrap();
    let spec = RunSpec::new(&[8], ErrorMode::Abort, 10_000_000);
    let ok = run(&hardened.image, &spec).unwrap();
    assert_eq!(ok.result, RunResult::Exited(0), "no false positive");
}

#[test]
fn double_free_and_invalid_free_reported_by_allocator() {
    // The allocator rejects both frees and leaves the heap as it was;
    // the runtime records each as a memory error at the `free`'s
    // syscall, ends the run in Abort mode and goes on in Log mode.
    let double = "fn main() {
            var a = malloc(32);
            free(a);
            free(a);
            print(1);
            return 0;
        }";
    let invalid = "fn main() {
            var a = malloc(32);
            free(a + 8);
            a[0] = 2;
            print(a[0]);
            return 0;
        }";
    for (src, kind, printed) in [
        (double, MemErrKind::DoubleFree, 1),
        (invalid, MemErrKind::InvalidFree, 2),
    ] {
        let image = compile(src).unwrap();
        let abort = run(&image, &RunSpec::new(&[], ErrorMode::Abort, 1_000_000)).unwrap();
        let RunResult::MemoryError(err) = abort.result else {
            panic!("{kind:?}: Abort mode ends the run, got {:?}", abort.result);
        };
        assert_eq!((err.kind, err.is_write), (kind, true), "{err:?}");
        assert_eq!(abort.errors, [err]);
        assert!(
            abort.io.out_ints.is_empty(),
            "{kind:?}: stopped at the free"
        );

        let log = run(&image, &RunSpec::new(&[], ErrorMode::Log, 1_000_000)).unwrap();
        assert_eq!(log.result, RunResult::Exited(0), "{kind:?}");
        assert_eq!(log.errors, [err], "{kind:?}: the same error, recorded");
        assert_eq!(log.io.out_ints, [printed], "{kind:?}: the heap still works");
    }
}

#[test]
fn use_after_free_detected_until_reuse() {
    let image = compile(
        "fn main() {
            var a = malloc(40);
            a[0] = 5;
            free(a);
            var v = a[0];   // UAF read
            print(v);
            return 0;
        }",
    )
    .unwrap();
    let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
    let spec = RunSpec::new(&[], ErrorMode::Abort, 1_000_000);
    let out = run(&hardened.image, &spec).unwrap();
    assert!(matches!(out.result, RunResult::MemoryError(_)));
}

#[test]
fn position_independent_images_harden_too() {
    // The paper stresses PIC/non-PIC agnosticism (§1, §7). ET_DYN images
    // go through the identical pipeline.
    let mut image = compile(VULN_PROGRAM).unwrap();
    image.kind = redfat::elf::ImageKind::Dyn;
    let bytes = image.to_bytes();
    let image = redfat::elf::Image::parse(&bytes).unwrap();
    assert_eq!(image.kind, redfat::elf::ImageKind::Dyn);
    let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
    let benign = RunSpec::new(&[4], ErrorMode::Abort, 10_000_000);
    let ok = run(&hardened.image, &benign).unwrap();
    assert_eq!(ok.result, RunResult::Exited(0));
    let attack = RunSpec::new(&[12], ErrorMode::Abort, 10_000_000);
    let bad = run(&hardened.image, &attack).unwrap();
    assert!(matches!(bad.result, RunResult::MemoryError(_)));
}

#[test]
fn lowfat_only_ablation_misses_uaf_catches_skip() {
    // The complementarity matrix's key cells, asserted in the suite.
    let skip = compile(
        "fn main() {
            var a = malloc(40);
            var b = malloc(40);
            b[0] = 1;
            a[input()] = 7;
            return 0;
        }",
    )
    .unwrap();
    let uaf = compile(
        "fn main() {
            var a = malloc(40);
            free(a);
            a[input()] = 7;
            return 0;
        }",
    )
    .unwrap();
    let lowfat = redfat::core::HardenConfig::lowfat_only();
    let h_skip = harden(&skip, &lowfat).unwrap();
    let skip_over = RunSpec::new(&[10], ErrorMode::Abort, 1_000_000);
    let out = run(&h_skip.image, &skip_over).unwrap();
    assert!(
        matches!(out.result, RunResult::MemoryError(_)),
        "lowfat catches skips"
    );
    let h_uaf = harden(&uaf, &lowfat).unwrap();
    let write_freed = RunSpec::new(&[1], ErrorMode::Abort, 1_000_000);
    let out = run(&h_uaf.image, &write_freed).unwrap();
    assert_eq!(out.result, RunResult::Exited(0), "lowfat alone misses UAF");
}
