//! Regenerates the §7.1 **false positives** experiment: rerun the SPEC
//! stand-ins with full (Redzone)+(LowFat) checking on every memory
//! access (no profile-based allow-list) and count the distinct
//! false-positive sites per benchmark.
//!
//! The paper reports: perlbench 1, gcc 14, gobmk 1, povray 1, bwaves 5,
//! gromacs 3, GemsFDTD 32, wrf 26, calculix 2 -- mostly `array - K`
//! anti-idioms, natively produced by Fortran's non-zero array bases.
//!
//! Flags:
//!
//! * `--alloc-policy lowfat|rand-lowfat` backs the runs with the given
//!   allocator policy (default `lowfat` reproduces the committed
//!   `results/falsepos.txt` byte-for-byte).
//! * `--backends` emits one observed-count column per registered policy
//!   (recorded in `results/falsepos_backends.txt`): placement decides
//!   which intentional-OOB anti-idiom pointers land on metadata that
//!   fails the merged check, so per-site counts shift between policies
//!   -- which is exactly why the §5 allow-list workflow precedes
//!   production deployment under any backend.

use redfat_bench::{false_positive_sites, parallel_map, policy_from_args, threads_from_args};
use redfat_core::AllocPolicyKind;
use redfat_workloads::spec;

fn main() {
    let threads = threads_from_args(std::env::args());
    let policy = policy_from_args(std::env::args());
    if std::env::args().any(|a| a == "--backends") {
        per_backend(threads);
    } else {
        paper_table(threads, policy);
    }
}

fn paper_table(threads: usize, policy: AllocPolicyKind) {
    let suite = spec::all();
    let expected: Vec<(&str, usize)> = suite.iter().map(|w| (w.name, w.anti_idiom_sites)).collect();
    let counts = parallel_map(suite, threads, |w| false_positive_sites(w, policy));

    println!("False positives with (Redzone)+(LowFat) on ALL memory access (no allow-list):");
    println!();
    println!(
        "{:<12} {:>10} {:>24}",
        "Binary", "observed", "anti-idiom sites (src)"
    );
    let mut total = 0usize;
    for ((name, planted), observed) in expected.iter().zip(&counts) {
        if *observed > 0 || *planted > 0 {
            println!("{name:<12} {observed:>10} {planted:>24}");
        }
        total += observed;
    }
    println!();
    println!("total false-positive sites: {total}");
    println!("(the same binaries run clean under the profile-generated allow-list: see table1)");
}

fn per_backend(threads: usize) {
    let suite = spec::all();
    let names: Vec<(&str, usize)> = suite.iter().map(|w| (w.name, w.anti_idiom_sites)).collect();
    let counts = parallel_map(suite, threads, |w| {
        AllocPolicyKind::ALL.map(|kind| false_positive_sites(w, kind))
    });

    println!("False positives per allocator policy (full checking, no allow-list):");
    println!();
    print!("{:<12}", "Binary");
    for kind in AllocPolicyKind::ALL {
        print!(" {:>12}", kind.to_string());
    }
    println!(" {:>24}", "anti-idiom sites (src)");
    let mut totals = vec![0usize; AllocPolicyKind::ALL.len()];
    for ((name, planted), observed) in names.iter().zip(&counts) {
        if observed.iter().any(|&c| c > 0) || *planted > 0 {
            print!("{name:<12}");
            for &c in observed.iter() {
                print!(" {c:>12}");
            }
            println!(" {planted:>24}");
        }
        for (t, &c) in totals.iter_mut().zip(observed.iter()) {
            *t += c;
        }
    }
    println!();
    print!("total sites:");
    for t in &totals {
        print!(" {t:>12}");
    }
    println!();
    println!();
    println!("(placement decides which intentional-OOB anti-idiom pointers land on");
    println!(" metadata that fails the merged check, so per-site counts shift between");
    println!(" policies -- the profile-generated allow-list workflow covers both)");
}
