//! Differential self-test harness: the heavy, parallel counterpart of
//! `redfat selftest`.
//!
//! Runs the lockstep divergence oracle over every SPEC stand-in on its
//! `ref` input (one worker per workload), plus larger deterministic
//! round-trip and allocator-invariant fuzzing campaigns than the CLI
//! subcommand, and exits nonzero on any unexplained divergence. A
//! divergence is shrunk to a minimal input before it is reported.

use redfat_bench::parallel_map;
use redfat_core::selftest::{allocator_invariants, lockstep_images, roundtrip_fuzz, shrink_input};
use redfat_core::{harden, AllocPolicyKind, HardenConfig};
use redfat_workloads::spec;

const MAX_STEPS: u64 = 600_000_000;

fn main() {
    let threads = redfat_bench::threads_from_args(std::env::args());
    let mut failed = false;

    let rt = roundtrip_fuzz(50_000, 0x5EED_0BAD_F00D_0001);
    println!(
        "roundtrip: {} cases, {} failures",
        rt.cases,
        rt.failures.len()
    );
    for f in &rt.failures {
        eprintln!("  {f}");
        failed = true;
    }

    let ar = allocator_invariants(5_000, 0xA110_C000_0000_0002);
    println!(
        "allocator: {} cases, {} failures",
        ar.cases,
        ar.failures.len()
    );
    for f in &ar.failures {
        eprintln!("  {f}");
        failed = true;
    }

    println!(
        "lockstep: {} workloads on {} threads...",
        spec::all().len(),
        threads
    );
    let rows = parallel_map(spec::all(), threads, |w| {
        let image = w.image();
        let hardened = harden(&image, &HardenConfig::default())
            .unwrap_or_else(|e| panic!("hardening {} failed: {e}", w.name));
        let rep = lockstep_images(
            &image,
            &hardened.image,
            &hardened.clobbers,
            &w.ref_input,
            MAX_STEPS,
            AllocPolicyKind::default(),
        );
        let detail = if rep.clean() && rep.completed {
            None
        } else {
            // Shrink to a minimal failing input, then report the first
            // divergence (it embeds a disassembly window).
            let shrunk = shrink_input(
                &image,
                &hardened.image,
                &hardened.clobbers,
                &w.ref_input,
                MAX_STEPS,
                AllocPolicyKind::default(),
            );
            let rerun = lockstep_images(
                &image,
                &hardened.image,
                &hardened.clobbers,
                &shrunk,
                MAX_STEPS,
                AllocPolicyKind::default(),
            );
            let msg = rerun
                .divergences
                .first()
                .or(rep.divergences.first())
                .map(|d| d.detail.clone())
                .unwrap_or_else(|| "run did not complete within the step budget".into());
            Some(format!("input {shrunk:?}:\n{msg}"))
        };
        (
            w.name,
            rep.synced,
            rep.divergences.len(),
            rep.hardened_errors,
            detail,
        )
    });
    for (name, synced, divergences, errors, detail) in rows {
        println!(
            "  {name:<14} {synced:>9} synced, {divergences} divergences, {errors} check reports"
        );
        if let Some(d) = detail {
            eprintln!("FAIL {name}: {d}");
            failed = true;
        }
    }

    if failed {
        eprintln!("selftest FAILED");
        std::process::exit(1);
    }
    println!("selftest passed");
}
