//! §7.4 integration: separately instrumented images -- protection
//! follows instrumentation, module by module.

use redfat::core::{harden, harden_with_bases, HardenConfig, LowFatPolicy};
use redfat::elf::Image;
use redfat::emu::{Emu, ErrorMode, HostRuntime, RunResult};
use redfat::minic::{compile, compile_library};
use redfat::rewriter::RewriteBases;

const LIB_SRC: &str = "
fn lib_store(buf, idx) {
    buf[idx] = 0x41;
    return buf[0];
}
fn lib_sum(buf, n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) { s = s + buf[i]; }
    return s;
}";

const MAIN_SRC: &str = "
fn main() {
    var store_fn = input();
    var sum_fn = input();
    var idx = input();
    var who = input();
    var a = malloc(40);
    var b = malloc(40);
    b[0] = 1;
    if (who == 0) {
        a[idx] = 7;
    } else {
        callptr(store_fn, a, idx);
    }
    print(callptr(sum_fn, a, 5));
    return 0;
}";

const LIB_BASES: RewriteBases = RewriteBases {
    trampoline: 0x7800_0000,
    trap_table: 0x77F0_0000,
};

fn run(main_img: &Image, lib_img: &Image, idx: i64, who: i64) -> (RunResult, Vec<i64>) {
    let store_fn = lib_img.symbol("lib_store").unwrap().value as i64;
    let sum_fn = lib_img.symbol("lib_sum").unwrap().value as i64;
    let rt = HostRuntime::new(ErrorMode::Abort).with_input(vec![store_fn, sum_fn, idx, who]);
    let mut emu = Emu::load_images(&[main_img, lib_img], rt).expect("loads");
    let r = emu.run(10_000_000);
    (r, emu.runtime.io.out_ints.clone())
}

#[test]
fn protection_follows_instrumentation() {
    let main_plain = compile(MAIN_SRC).unwrap();
    let lib_plain = compile_library(LIB_SRC, 0x0100_0000, 0x0120_0000).unwrap();
    let cfg = HardenConfig::with_merge(LowFatPolicy::All);
    let main_hard = harden(&main_plain, &cfg).unwrap();
    let lib_hard = harden_with_bases(&lib_plain, &cfg, LIB_BASES).unwrap();
    // Each image's checks call the cold library at the head of its own
    // trampoline segment.
    for h in [&main_hard, &lib_hard] {
        assert!(h.stats.rewrite.library_bytes > 0, "{:?}", h.stats.rewrite);
    }
    assert!(lib_hard.image.segment_at(LIB_BASES.trampoline).is_some());
    assert!(lib_hard
        .image
        .segment_at(redfat::vm::layout::TRAMPOLINE_BASE)
        .is_none());
    let (main_hard, lib_hard) = (main_hard.image, lib_hard.image);

    let detected = |r: &RunResult| matches!(r, RunResult::MemoryError(_));
    let atk = 10;

    // Nothing hardened: both bugs silent.
    assert!(!detected(&run(&main_plain, &lib_plain, atk, 0).0));
    assert!(!detected(&run(&main_plain, &lib_plain, atk, 1).0));
    // Main hardened: only main's bug caught.
    assert!(detected(&run(&main_hard, &lib_plain, atk, 0).0));
    assert!(!detected(&run(&main_hard, &lib_plain, atk, 1).0));
    // Library hardened: only the library's bug caught.
    assert!(!detected(&run(&main_plain, &lib_hard, atk, 0).0));
    assert!(detected(&run(&main_plain, &lib_hard, atk, 1).0));
    // Both hardened: both caught.
    assert!(detected(&run(&main_hard, &lib_hard, atk, 0).0));
    assert!(detected(&run(&main_hard, &lib_hard, atk, 1).0));
}

#[test]
fn cross_image_calls_compute_correctly() {
    let main_plain = compile(MAIN_SRC).unwrap();
    let lib_plain = compile_library(LIB_SRC, 0x0100_0000, 0x0120_0000).unwrap();
    let cfg = HardenConfig::with_merge(LowFatPolicy::All);
    let main_hard = harden(&main_plain, &cfg).unwrap();
    let lib_hard = harden_with_bases(&lib_plain, &cfg, LIB_BASES).unwrap();
    // Each image's checks call the cold library at the head of its own
    // trampoline segment.
    for h in [&main_hard, &lib_hard] {
        assert!(h.stats.rewrite.library_bytes > 0, "{:?}", h.stats.rewrite);
    }
    assert!(lib_hard.image.segment_at(LIB_BASES.trampoline).is_some());
    assert!(lib_hard
        .image
        .segment_at(redfat::vm::layout::TRAMPOLINE_BASE)
        .is_none());
    let (main_hard, lib_hard) = (main_hard.image, lib_hard.image);

    // Benign run through every combination gives identical output:
    // the library stores 0x41 at a[2], then sums the first 5 elements.
    let mut outputs = Vec::new();
    for (m, l) in [
        (&main_plain, &lib_plain),
        (&main_hard, &lib_plain),
        (&main_plain, &lib_hard),
        (&main_hard, &lib_hard),
    ] {
        let (r, out) = run(m, l, 2, 1);
        assert_eq!(r, RunResult::Exited(0));
        outputs.push(out);
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
    assert_eq!(outputs[0], vec![0x41]);
}

#[test]
fn library_symbols_survive_hardening() {
    let lib = compile_library(LIB_SRC, 0x0100_0000, 0x0120_0000).unwrap();
    let hard = harden_with_bases(
        &lib,
        &HardenConfig::with_merge(LowFatPolicy::All),
        LIB_BASES,
    )
    .unwrap()
    .image;
    // Exported entry points stay at their original addresses: trampoline
    // rewriting never moves function entries.
    assert_eq!(
        lib.symbol("lib_store").unwrap().value,
        hard.symbol("lib_store").unwrap().value
    );
    assert_eq!(
        lib.symbol("lib_sum").unwrap().value,
        hard.symbol("lib_sum").unwrap().value
    );
}
