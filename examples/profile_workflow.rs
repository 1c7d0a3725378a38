//! The paper's §5 two-phase workflow (Figure 5), end to end:
//!
//! 1. **Profiling phase**: instrument the binary so every memory access
//!    records whether its (LowFat) check passes, run it against a test
//!    suite, and generate an allow-list.
//! 2. **Production phase**: harden with the full (Redzone)+(LowFat)
//!    check on allow-listed sites and (Redzone)-only elsewhere.
//!
//! The demo program contains the classic `array - K` anti-idiom (the
//! paper's snippet (c)): full LowFat checking everywhere would flag it
//! as a false positive; the workflow rescues it while keeping real
//! attacks detectable.
//!
//! Run with: `cargo run --release --example profile_workflow`

use redfat::core::{
    collect_allowlist, harden, instrument_profile, run, HardenConfig, LowFatPolicy, RunSpec,
};
use redfat::emu::{ErrorMode, RunResult};
use redfat::minic::compile;

fn main() {
    let source = r#"
        fn main() {
            // A "1-indexed" lookup table: the pointer is intentionally
            // out of bounds (undefined behavior in C, natively produced
            // by Fortran's non-zero array bases).
            var table = malloc(16 * 8);
            var table1 = table - 8;
            for (var i = 0; i < 16; i = i + 1) { table[i] = i * i; }

            // A separate, genuinely vulnerable indexed store.
            var buf = malloc(8 * 8);
            var pad = malloc(8 * 8);
            pad[0] = 1;

            var i = input();       // benign lookups use 1..=16
            var j = input();       // attack vector for buf
            print(table1[i]);
            buf[j] = 7;
            return 0;
        }
    "#;
    let image = compile(source).expect("compiles");

    // Naive full-LowFat hardening false-positives on the benign run.
    let benign = RunSpec::new(&[5, 2], ErrorMode::Abort, 1_000_000);
    let naive = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
    let out = run(&naive.image, &benign).expect("image loads");
    println!(
        "naive lowfat-everywhere on benign input: {:?}  <- Problem #2!",
        out.result
    );

    // Phase 1: profile against a training suite.
    let profiling = instrument_profile(&image).expect("profiles");
    let mut profile = std::collections::HashMap::new();
    for train in [vec![1, 0], vec![8, 3], vec![16, 7]] {
        let spec = RunSpec::new(&train, ErrorMode::Log, 1_000_000);
        let out = run(&profiling.image, &spec).expect("image loads");
        assert_eq!(out.result, RunResult::Exited(0));
        for (site, stats) in out.profile {
            let e: &mut redfat::emu::ProfileStats = profile.entry(site).or_default();
            e.passes += stats.passes;
            e.fails += stats.fails;
        }
    }
    let allow = collect_allowlist(&profile);
    println!(
        "\nprofiled {} sites; {} allow-listed (allow.lst below)",
        profile.len(),
        allow.len()
    );
    print!("{}", allow.to_text());

    // Phase 2: production hardening.
    let config = HardenConfig::with_merge(LowFatPolicy::AllowList(allow));
    let production = harden(&image, &config).expect("hardens");

    // Benign inputs: no false positives.
    let ok = run(&production.image, &benign).expect("image loads");
    println!(
        "\nproduction, benign input: {:?} output {:?}",
        ok.result, ok.io.out_ints
    );
    assert_eq!(ok.result, RunResult::Exited(0));

    // The attack on `buf` is still caught (non-incremental skip).
    let skip = RunSpec::new(&[5, 12], ErrorMode::Abort, 1_000_000);
    let attack = run(&production.image, &skip).expect("image loads");
    match attack.result {
        RunResult::MemoryError(e) => println!("production, attack input: DETECTED: {e}"),
        other => panic!("expected detection, got {other:?}"),
    }
}
