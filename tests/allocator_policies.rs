//! Allocator-policy ablations called out in DESIGN.md: the quarantine's
//! role in use-after-free detection, and basic heap randomization
//! (paper §8: "our current implementation also incorporates basic heap
//! randomization"), which the `rand-lowfat` policy provides.

use redfat::core::{harden, HardenConfig, LowFatPolicy};
use redfat::emu::{Emu, ErrorMode, HostRuntime, RunResult};
use redfat::lowfat::{AllocPolicyKind, LowFatConfig};
use redfat::minic::compile;

/// Free an object, then allocate `churn` same-class objects, then
/// dereference the dangling pointer.
fn uaf_after_churn_src() -> &'static str {
    "fn main() {
        var churn = input();
        var a = malloc(40);
        a[0] = 1;
        free(a);
        for (var i = 0; i < churn; i = i + 1) {
            var x = malloc(40);
            x[0] = i;
        }
        a[1] = 7;   // dangling write
        return 0;
    }"
}

fn run_uaf(quarantine: usize, churn: i64) -> RunResult {
    let image = compile(uaf_after_churn_src()).unwrap();
    let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
    let rt = HostRuntime::with_config(
        ErrorMode::Abort,
        LowFatConfig {
            quarantine,
            ..LowFatConfig::default()
        },
    )
    .with_input(vec![churn]);
    let mut emu = Emu::load_image(&hardened.image, rt).expect("loads");
    emu.run(10_000_000)
}

#[test]
fn quarantine_extends_uaf_detection_window() {
    // With a healthy quarantine, the dangling access still sees the
    // Free state even after heavy allocation churn.
    assert!(matches!(run_uaf(64, 40), RunResult::MemoryError(_)));

    // With no quarantine, the freed slot is recycled immediately: the
    // dangling pointer aliases a *live* object and the UAF becomes
    // undetectable by any object-based scheme (the known limitation
    // quarantines exist to mitigate).
    assert!(matches!(run_uaf(0, 40), RunResult::Exited(0)));

    // Even with no quarantine, a prompt dangling access (no churn) is
    // still caught.
    assert!(matches!(run_uaf(0, 0), RunResult::MemoryError(_)));
}

#[test]
fn randomization_varies_heap_layout_not_behavior() {
    // Randomized placement: the same program gets different object
    // placements across seeds, while its output stays correct.
    let image = compile(
        "fn main() {
            var ptrs = malloc(16 * 8);
            for (var i = 0; i < 16; i = i + 1) { ptrs[i] = malloc(40); }
            for (var i = 0; i < 16; i = i + 1) { free(ptrs[i]); }
            var a = malloc(40);
            var b = malloc(40);
            a[0] = 7;
            b[0] = 9;
            print(a[0] + b[0]);
            print(a - b);
            return 0;
        }",
    )
    .unwrap();

    let mut gaps = std::collections::HashSet::new();
    for seed in 0..8u64 {
        let rt = HostRuntime::with_config(
            ErrorMode::Abort,
            LowFatConfig {
                policy: AllocPolicyKind::RandLowFat,
                quarantine: 0,
                seed,
                ..LowFatConfig::default()
            },
        );
        let mut emu = Emu::load_image(&image, rt).expect("loads");
        assert_eq!(emu.run(10_000_000), RunResult::Exited(0));
        let out = &emu.runtime.io.out_ints;
        assert_eq!(out[0], 16, "program semantics unchanged");
        gaps.insert(out[1]); // relative placement of a and b
    }
    assert!(
        gaps.len() > 1,
        "randomized allocation must vary layout: {gaps:?}"
    );
}
