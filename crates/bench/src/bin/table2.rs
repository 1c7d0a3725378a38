//! Regenerates the paper's **Table 2**: detection of non-incremental
//! bounds errors -- four real-world CVE reproductions plus the generated
//! 480-case Juliet-like CWE-122 suite -- under RedFat and the Memcheck
//! baseline.
//!
//! Flags:
//!
//! * `--alloc-policy lowfat|rand-lowfat` backs the RedFat runs with the
//!   given allocator policy (default `lowfat`, which reproduces the
//!   paper's table byte-for-byte).
//! * `--backends` emits the per-backend comparison instead: every CVE,
//!   the computed-pointer slot-skip suite, and the Juliet sweep under
//!   *each* registered policy side by side (recorded in
//!   `results/table2_backends.txt`; methodology in EXPERIMENTS.md).

use redfat_bench::{
    memcheck_detects, parallel_map, policy_from_args, redfat_detects, threads_from_args,
};
use redfat_core::AllocPolicyKind;
use redfat_workloads::{cve, juliet, skips};

fn main() {
    let threads = threads_from_args(std::env::args());
    let policy = policy_from_args(std::env::args());
    if std::env::args().any(|a| a == "--backends") {
        per_backend(threads);
    } else {
        paper_table(threads, policy);
    }
}

/// The paper's Table 2 under one allocator policy (the default policy
/// reproduces the committed `results/table2.txt` exactly).
fn paper_table(threads: usize, policy: AllocPolicyKind) {
    println!("Table 2: CVEs/CWEs for non-incremental bounds errors");
    println!();
    println!("{:<38} {:>16} {:>16}", "Entry", "Memcheck", "RedFat");

    for case in cve::all() {
        let image = case.workload.image();
        let rf = redfat_detects(&image, &case.attack_input, policy) as usize;
        let mc = memcheck_detects(&image, &case.attack_input) as usize;
        println!(
            "{:<38} {:>10}/1 ({:>3.0}%) {:>9}/1 ({:>3.0}%)",
            format!("{} ({})", case.cve, case.workload.name),
            mc,
            100.0 * mc as f64,
            rf,
            100.0 * rf as f64,
        );
    }

    // Juliet sweep (parallel; 480 hardened runs).
    let suite = juliet::generate();
    let total = suite.len();
    let verdicts = parallel_map(suite, threads, |case| {
        let image = case.workload.image();
        (
            redfat_detects(&image, &case.attack_input, policy),
            memcheck_detects(&image, &case.attack_input),
        )
    });
    let rf_hits = verdicts.iter().filter(|(rf, _)| *rf).count();
    let mc_hits = verdicts.iter().filter(|(_, mc)| *mc).count();
    println!(
        "{:<38} {:>8}/{} ({:>3.0}%) {:>7}/{} ({:>3.0}%)",
        "CWE-122-Heap-Buffer (Juliet-like)",
        mc_hits,
        total,
        100.0 * mc_hits as f64 / total as f64,
        rf_hits,
        total,
        100.0 * rf_hits as f64 / total as f64,
    );
}

/// The per-backend sweep: one RedFat column per registered allocator
/// policy, over the CVEs, the slot-skip suite, and the Juliet sweep.
fn per_backend(threads: usize) {
    println!("Table 2 (per-backend): detection under each allocator policy");
    println!();
    print!("{:<38}", "Entry");
    for kind in AllocPolicyKind::ALL {
        print!(" {:>16}", kind.to_string());
    }
    println!();

    for case in cve::all() {
        let image = case.workload.image();
        print!("{:<38}", format!("{} ({})", case.cve, case.workload.name));
        for kind in AllocPolicyKind::ALL {
            let hit = redfat_detects(&image, &case.attack_input, kind) as usize;
            print!(" {hit:>14}/1");
        }
        println!();
    }

    // The slot-skip suite: accesses with no base-register provenance.
    // The deterministic policy's live same-class neighbor makes the
    // landing slot's metadata cover the access; the randomized policy
    // leaves the adjacent slot free with high probability.
    for case in skips::all() {
        let image = case.workload.image();
        print!(
            "{:<38}",
            format!("{} (computed-pointer skip)", case.workload.name)
        );
        for kind in AllocPolicyKind::ALL {
            let hit = redfat_detects(&image, &case.attack_input, kind) as usize;
            print!(" {hit:>14}/1");
        }
        println!();
    }

    let suite = juliet::generate();
    let total = suite.len();
    let verdicts = parallel_map(suite, threads, |case| {
        let image = case.workload.image();
        AllocPolicyKind::ALL.map(|kind| redfat_detects(&image, &case.attack_input, kind))
    });
    print!("{:<38}", "CWE-122-Heap-Buffer (Juliet-like)");
    for (i, _) in AllocPolicyKind::ALL.iter().enumerate() {
        let hits = verdicts.iter().filter(|v| v[i]).count();
        print!(" {hits:>12}/{total}");
    }
    println!();
    println!();
    println!("(provenance-carrying accesses detect identically under every policy;");
    println!(" the computed-pointer skips separate them -- see EXPERIMENTS.md)");
}
