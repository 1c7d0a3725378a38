//! The experiment harness: shared pipeline code behind the `table1`,
//! `falsepos`, `table2` and `figure8` binaries (one per paper artifact)
//! and the micro-benchmarks.

pub mod service;

use redfat_core::{
    collect_allowlist, harden, instrument_profile, run_once, try_run_backend_policy,
    AllocPolicyKind, HardenConfig, LowFatPolicy,
};
use redfat_elf::Image;
use redfat_emu::{Emu, ErrorMode, ExecBackend, RunResult};
use redfat_memcheck::{MemcheckLimits, MemcheckRuntime};
use redfat_workloads::Workload;
use std::collections::BTreeSet;

/// Step budget for any single guest run.
pub const MAX_STEPS: u64 = 4_000_000_000;

/// The Table 1 measurements for one benchmark.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Source language of the original.
    pub lang: redfat_workloads::Lang,
    /// Coverage: fraction of ref-executed sites with the full check.
    pub coverage: f64,
    /// Baseline modeled cycles on ref.
    pub baseline_cycles: u64,
    /// Slowdown factors, Table 1 column order: unoptimized, +elim,
    /// +batch, +merge, +flow, +redund, -size, -reads.
    pub redfat: [f64; 8],
    /// Memcheck slowdown, or `None` for NR.
    pub memcheck: Option<f64>,
    /// Distinct real-error sites detected during the ref run (fully
    /// optimized config, log mode).
    pub errors_detected: usize,
    /// Static sites eliminated by the syntactic rule (under "+elim").
    pub sites_elim: usize,
    /// Static sites *additionally* eliminated by flow-sensitive
    /// provenance (under "+flow").
    pub sites_flow: usize,
    /// Static full checks downgraded to redzone-only by the redundant
    /// pass (under "+redund").
    pub sites_redundant: usize,
}

/// Runs the complete §5 + Table 1 pipeline for one workload.
pub fn table1_row(wl: &Workload) -> Table1Row {
    let image = wl.image();

    // Baseline.
    let base = run_once(&image, wl.ref_input.clone(), ErrorMode::Log, MAX_STEPS);
    assert!(
        matches!(base.result, RunResult::Exited(_)),
        "{}: baseline must exit ({:?})",
        wl.name,
        base.result
    );
    let baseline_cycles = base.counters.cycles;
    let baseline_digest = base.io.digest();

    // Profiling phase on the train input.
    let prof = instrument_profile(&image).expect("profile instrumentation");
    let train = run_once(
        &prof.image,
        wl.train_input.clone(),
        ErrorMode::Log,
        MAX_STEPS,
    );
    assert!(
        matches!(train.result, RunResult::Exited(_)),
        "{}: profile run must exit ({:?})",
        wl.name,
        train.result
    );
    let allow = collect_allowlist(&train.profile);

    // Coverage accounting: sites dynamically reached on ref.
    let cov = run_once(&prof.image, wl.ref_input.clone(), ErrorMode::Log, MAX_STEPS);
    let executed: BTreeSet<u64> = cov.profile.keys().copied().collect();
    let covered = executed.iter().filter(|s| allow.contains(**s)).count();
    let coverage = if executed.is_empty() {
        0.0
    } else {
        covered as f64 / executed.len() as f64
    };

    // The eight RedFat configurations.
    let configs: [HardenConfig; 8] = [
        HardenConfig::unoptimized(LowFatPolicy::AllowList(allow.clone())),
        HardenConfig::with_elim(LowFatPolicy::AllowList(allow.clone())),
        HardenConfig::with_batch(LowFatPolicy::AllowList(allow.clone())),
        HardenConfig::with_merge(LowFatPolicy::AllowList(allow.clone())),
        HardenConfig::with_flow(LowFatPolicy::AllowList(allow.clone())),
        HardenConfig::with_redundant(LowFatPolicy::AllowList(allow.clone())),
        HardenConfig::minus_size(LowFatPolicy::AllowList(allow.clone())),
        HardenConfig::minus_reads(LowFatPolicy::AllowList(allow.clone())),
    ];
    let mut redfat = [0.0; 8];
    let mut errors_detected = 0usize;
    let mut sites_elim = 0usize;
    let mut sites_flow = 0usize;
    let mut sites_redundant = 0usize;
    for (i, cfg) in configs.iter().enumerate() {
        let hardened = harden(&image, cfg).expect("hardening");
        match i {
            1 => sites_elim = hardened.stats.sites_eliminated,
            4 => sites_flow = hardened.stats.sites_eliminated_flow,
            5 => sites_redundant = hardened.stats.sites_redundant,
            _ => {}
        }
        let out = run_once(
            &hardened.image,
            wl.ref_input.clone(),
            ErrorMode::Log,
            MAX_STEPS,
        );
        assert!(
            matches!(out.result, RunResult::Exited(_)),
            "{}: hardened run ({i}) must exit ({:?})",
            wl.name,
            out.result
        );
        assert_eq!(
            out.io.digest(),
            baseline_digest,
            "{}: hardened output differs (config {i})",
            wl.name
        );
        redfat[i] = out.counters.cycles as f64 / baseline_cycles as f64;
        if i == 5 {
            // Fully optimized (+redund): report detected real errors.
            let sites: BTreeSet<u64> = out.errors.iter().map(|e| e.site).collect();
            errors_detected = sites.len();
        }
    }

    // Memcheck baseline (or NR).
    let memcheck = match MemcheckLimits::default().check(&image, wl.requires_x87) {
        Err(_) => None,
        Ok(()) => {
            let rt = MemcheckRuntime::new(ErrorMode::Log).with_input(wl.ref_input.clone());
            let mut emu = Emu::load_image(&image, rt).expect("loads");
            let r = emu.run(MAX_STEPS);
            assert!(
                matches!(r, RunResult::Exited(_)),
                "{}: memcheck run must exit ({r:?})",
                wl.name
            );
            Some(emu.counters.cycles as f64 / baseline_cycles as f64)
        }
    };

    Table1Row {
        name: wl.name,
        lang: wl.lang,
        coverage,
        baseline_cycles,
        redfat,
        memcheck,
        errors_detected,
        sites_elim,
        sites_flow,
        sites_redundant,
    }
}

/// False-positive measurement (§7.1): harden with LowFat on *all* sites
/// (no allow-list), run ref in log mode with the runtime heap backed by
/// the given allocator policy, and count distinct erroring sites that
/// are not planted real errors. The hardened image is identical across
/// policies; only the placement decisions (and thus which
/// intentional-OOB anti-idiom pointers land on live metadata) change.
pub fn false_positive_sites(wl: &Workload, policy: AllocPolicyKind) -> usize {
    let image = wl.image();
    // Merging would attribute a merged check's error to its first member
    // site; measure without merging for exact per-site attribution.
    let cfg = HardenConfig::with_batch(LowFatPolicy::All);
    let hardened = harden(&image, &cfg).expect("hardening");
    let out = try_run_backend_policy(
        &hardened.image,
        wl.ref_input.clone(),
        ErrorMode::Log,
        ExecBackend::Step,
        MAX_STEPS,
        policy,
    )
    .expect("image loads");
    let sites: BTreeSet<u64> = out.errors.iter().map(|e| e.site).collect();
    sites.len().saturating_sub(wl.planted_errors)
}

/// Detection verdict for a vulnerable program under RedFat hardening,
/// with the runtime heap backed by the given allocator policy.
pub fn redfat_detects(image: &Image, attack_input: &[i64], policy: AllocPolicyKind) -> bool {
    let cfg = HardenConfig::with_merge(LowFatPolicy::All);
    let hardened = harden(image, &cfg).expect("hardening");
    let out = try_run_backend_policy(
        &hardened.image,
        attack_input.to_vec(),
        ErrorMode::Abort,
        ExecBackend::Step,
        MAX_STEPS,
        policy,
    )
    .expect("image loads");
    matches!(out.result, RunResult::MemoryError(_))
}

/// Parses `--alloc-policy <kind>` (or `--alloc-policy=<kind>`) from a
/// bench binary's argument list; defaults to the paper's policy.
///
/// # Panics
///
/// Panics on an unknown policy name (bench binaries fail fast).
pub fn policy_from_args(args: impl IntoIterator<Item = String>) -> AllocPolicyKind {
    let mut policy = AllocPolicyKind::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let value = if a == "--alloc-policy" {
            it.next()
        } else {
            a.strip_prefix("--alloc-policy=").map(str::to_string)
        };
        if let Some(v) = value {
            policy = AllocPolicyKind::parse(&v)
                .unwrap_or_else(|| panic!("bad --alloc-policy {v:?} (lowfat|rand-lowfat)"));
        }
    }
    policy
}

/// Detection verdict under the Memcheck baseline.
pub fn memcheck_detects(image: &Image, attack_input: &[i64]) -> bool {
    let rt = MemcheckRuntime::new(ErrorMode::Abort).with_input(attack_input.to_vec());
    let mut emu = Emu::load_image(image, rt).expect("loads");
    let r = emu.run(MAX_STEPS);
    matches!(r, RunResult::MemoryError(_)) || !emu.runtime.errors.is_empty()
}

// The work-distribution helpers moved to `redfat-parallel` so the
// hardening pipeline can shard without depending on this crate;
// re-exported here so the bins and tests keep their imports.
pub use redfat_parallel::{
    geomean, parallel_map, resolve_threads, threads_from_args, try_parallel_map,
};
