//! Hardening a real-world vulnerability shape: the paper's Figure 1,
//! CVE-2012-4295 (wireshark). A crafted `speed` value writes through
//! `m_vc_index_array[speed - 1]` far past the struct -- skipping every
//! redzone -- into an adjacent heap object.
//!
//! This example shows the comparison of Table 2: the Memcheck-style
//! redzone-only baseline misses the attack, RedFat's complementary
//! check catches it.
//!
//! Run with: `cargo run --release --example harden_cve`

use redfat::core::{harden, run, HardenConfig, LowFatPolicy, RunSpec};
use redfat::emu::{Emu, ErrorMode, RunResult};
use redfat::memcheck::MemcheckRuntime;
use redfat::workloads::cve;

fn main() {
    let case = cve::wireshark_2012_4295();
    let image = case.workload.image();
    println!("{} ({})", case.cve, case.workload.name);
    println!(
        "benign speed = {:?}, attack speed = {:?}\n",
        case.benign_input, case.attack_input
    );

    // 1. Original binary: the attack corrupts the adjacent object.
    let attack = RunSpec::new(&case.attack_input, ErrorMode::Abort, 1_000_000);
    let out = run(&image, &attack).expect("image loads");
    println!(
        "original under attack:      {:?} (silent corruption)",
        out.result
    );

    // 2. Memcheck-style DBI baseline: misses the redzone skip.
    let rt = MemcheckRuntime::new(ErrorMode::Abort).with_input(case.attack_input.clone());
    let mut emu = Emu::load_image(&image, rt).expect("loads");
    let r = emu.run(1_000_000);
    println!(
        "memcheck under attack:      {:?} ({} errors) <- Problem #1",
        r,
        emu.runtime.errors.len()
    );

    // 3. RedFat: complementary (Redzone)+(LowFat) detects it.
    let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
    let out = run(&hardened.image, &attack).expect("image loads");
    match out.result {
        RunResult::MemoryError(e) => println!("redfat under attack:        DETECTED: {e}"),
        other => panic!("expected detection, got {other:?}"),
    }

    // 4. And behaves identically on benign traffic.
    let benign = RunSpec::new(&case.benign_input, ErrorMode::Abort, 1_000_000);
    let out = run(&hardened.image, &benign).expect("image loads");
    println!("redfat on benign traffic:   {:?}", out.result);
    assert_eq!(out.result, RunResult::Exited(0));
}
