//! The 29 SPEC stand-ins, hardened by the §5 two-phase workflow, as the
//! traced replay runs them on the fast execution tier with their ref
//! inputs: the per-layer figures of the emulator, the VM and the
//! low-fat allocator, and the paper's runtime-overhead metric (Table
//! 1's +redund column) as an exact modeled-cycle ratio.
//!
//! Timed guest runs are not an end-to-end workload: on the host this
//! was built on, single-threaded guest execution spread up to 31%
//! between runs of the same code, beyond any bound the benchmark may
//! set (`STEADINESS.md`).

use crate::MAX_STEPS;
use redfat_core::{
    collect_allowlist, harden_threaded, instrument_profile, try_run_backend, HardenConfig,
    LowFatPolicy, RunOutcome,
};
use redfat_elf::Image;
use redfat_emu::{ErrorMode, ExecBackend, RunResult};
use redfat_workloads::spec;
use std::collections::BTreeSet;

/// One stand-in after set-up.
pub struct Prepared {
    /// Benchmark name.
    pub name: &'static str,
    /// The unhardened image.
    pub image: Image,
    /// The production image: +redund with the profiled allow-list.
    pub hardened: Image,
    /// The ref input.
    pub input: Vec<i64>,
    /// How the baseline ended under `step`.
    pub base_result: RunResult,
    /// Output digest of the baseline under `step`: the reference.
    pub base_digest: u64,
    /// Modeled cycles of the baseline.
    pub base_cycles: u64,
    /// Instructions the baseline retired.
    pub base_instructions: u64,
    /// Distinct error sites the hardened ref run must report.
    pub planted: usize,
}

/// Runs `image` on `input` under the standard runtime in log mode.
pub fn run_on(image: &Image, input: &[i64], backend: ExecBackend) -> RunOutcome {
    try_run_backend(image, input.to_vec(), ErrorMode::Log, backend, MAX_STEPS)
        .expect("stand-in loads")
}

/// Compiles every stand-in, runs its baseline under `step`, profiles it
/// on the train input, builds the allow-list and hardens it, the
/// stand-ins spread over `threads` threads.
pub fn prepare_all(threads: usize) -> Vec<Prepared> {
    redfat_parallel::parallel_map(spec::all(), threads, |wl| {
        let image = wl.image();
        let base = run_on(&image, &wl.ref_input, ExecBackend::Step);
        let profile = instrument_profile(&image).expect("profiling build");
        let train = run_on(&profile.image, &wl.train_input, ExecBackend::Step);
        let allow = collect_allowlist(&train.profile);
        let config = HardenConfig::with_redundant(LowFatPolicy::AllowList(allow));
        let hardened = harden_threaded(&image, &config, 1).expect("stand-in hardens");
        Prepared {
            name: wl.name,
            image,
            hardened: hardened.image,
            input: wl.ref_input.clone(),
            base_result: base.result,
            base_digest: base.io.digest(),
            base_cycles: base.counters.cycles,
            base_instructions: base.counters.instructions,
            planted: wl.planted_errors,
        }
    })
}

/// Checks a hardened run against its stand-in's reference.
pub fn check_run(p: &Prepared, out: &RunOutcome) -> Result<(), String> {
    let sites: BTreeSet<u64> = out.errors.iter().map(|e| e.site).collect();
    if out.result != p.base_result {
        return Err(format!(
            "{}: ends {:?}, baseline {:?}",
            p.name, out.result, p.base_result
        ));
    }
    if out.io.digest() != p.base_digest {
        return Err(format!("{}: output differs from the baseline", p.name));
    }
    if sites.len() != p.planted {
        return Err(format!(
            "{}: {} error sites, {} planted",
            p.name,
            sites.len(),
            p.planted
        ));
    }
    Ok(())
}
