//! The one guest-run entry point, used by the CLI, tests, examples and
//! the experiment harness.

use redfat_elf::Image;
use redfat_emu::{
    AllocPolicyKind, Counters, Emu, ErrorMode, ExecBackend, GuestIo, HostRuntime, LoadError,
    MemoryError, ProfileStats, RunResult, TraceStats,
};
use std::collections::HashMap;

/// Everything a single guest run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// How the run ended.
    pub result: RunResult,
    /// Instruction/cycle counters (the performance metric).
    pub counters: Counters,
    /// Guest I/O streams.
    pub io: GuestIo,
    /// Memory errors reported by instrumentation or by the allocator.
    pub errors: Vec<MemoryError>,
    /// Per-site profiling counters (profiling binaries only).
    pub profile: HashMap<u64, ProfileStats>,
    /// Translation-cache counters (all zero under the step backend).
    pub trace_stats: TraceStats,
}

impl RunOutcome {
    /// `true` if the run exited cleanly with status 0.
    pub fn ok(&self) -> bool {
        matches!(self.result, RunResult::Exited(0))
    }
}

/// How to run one guest: its input, the reaction to a memory error, the
/// execution backend, the step budget and the heap's allocator policy.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// The values the guest reads with `input()`.
    pub input: &'a [i64],
    /// Abort on the first memory error (hardening) or log and continue
    /// (bug finding, profiling).
    pub mode: ErrorMode,
    /// The fast tier by default; [`ExecBackend::Step`] selects the
    /// reference interpreter. Counters, I/O, errors and profile are
    /// backend-independent (the selftest backend audit checks that);
    /// only wall-clock time and [`RunOutcome::trace_stats`] differ.
    pub backend: ExecBackend,
    /// Instructions to run before giving up with
    /// [`RunResult::StepLimit`].
    pub budget: u64,
    /// The runtime heap's placement policy. The hardened image is
    /// policy-independent; only the runtime's placement decisions
    /// change.
    pub policy: AllocPolicyKind,
}

impl<'a> RunSpec<'a> {
    /// A run of `input` in `mode` for at most `budget` instructions, on
    /// the fast tier under the paper's allocator policy.
    pub fn new(input: &'a [i64], mode: ErrorMode, budget: u64) -> RunSpec<'a> {
        RunSpec {
            input,
            mode,
            backend: ExecBackend::default(),
            budget,
            policy: AllocPolicyKind::default(),
        }
    }
}

/// Loads `image`, runs it as `spec` says under the standard RedFat
/// runtime, and collects the outcome. A malformed image yields the
/// loader's structured error.
pub fn run(image: &Image, spec: &RunSpec<'_>) -> Result<RunOutcome, LoadError> {
    let runtime = HostRuntime::with_policy(spec.mode, spec.policy).with_input(spec.input.to_vec());
    let mut emu = Emu::load_image(image, runtime)?;
    let result = emu.run_backend(spec.backend, spec.budget);
    let trace_stats = emu.trace_stats();
    Ok(RunOutcome {
        result,
        counters: emu.counters,
        io: emu.runtime.io,
        errors: emu.runtime.errors,
        profile: emu.runtime.profile,
        trace_stats,
    })
}

/// [`run`] under the paper's allocator policy, kept with this signature
/// for the `e2ebench` benchmark crate, which calls it; new code calls
/// [`run`].
pub fn try_run_backend(
    image: &Image,
    input: Vec<i64>,
    mode: ErrorMode,
    backend: ExecBackend,
    max_steps: u64,
) -> Result<RunOutcome, LoadError> {
    run(
        image,
        &RunSpec {
            backend,
            ..RunSpec::new(&input, mode, max_steps)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{harden, instrument_profile, HardenConfig};

    #[test]
    fn the_default_fast_tier_and_the_step_interpreter_agree_on_every_outcome() {
        // The second input reads element 10 of a 10-element array: the
        // hardened image reports it and, in log mode, runs on.
        let src = "fn main() {
            var n = input();
            var m = input();
            var a = malloc(10 * 8);
            for (var i = 0; i < 10; i = i + 1) { a[i] = i * n; }
            var s = 0;
            for (var i = 0; i <= m; i = i + 1) { s = s + a[i]; }
            print(s);
            free(a);
            return 0;
        }";
        let image = redfat_minic::compile(src).unwrap();
        let hardened = harden(&image, &HardenConfig::default()).unwrap().image;
        let profiling = instrument_profile(&image).unwrap().image;
        for (kind, img) in [
            ("baseline", &image),
            ("hardened", &hardened),
            ("profiling", &profiling),
        ] {
            let spec = RunSpec::new(&[3, 10], ErrorMode::Log, 1_000_000);
            let fast = run(img, &spec).unwrap();
            let step = run(
                img,
                &RunSpec {
                    backend: ExecBackend::Step,
                    ..spec
                },
            )
            .unwrap();
            assert_eq!(fast.result, RunResult::Exited(0), "{kind}");
            assert_eq!(fast.result, step.result, "{kind}: result");
            assert_eq!(fast.counters, step.counters, "{kind}: counters");
            assert_eq!(fast.io.digest(), step.io.digest(), "{kind}: I/O");
            assert_eq!(fast.errors, step.errors, "{kind}: errors");
            assert_eq!(fast.profile, step.profile, "{kind}: profile");
            assert_ne!(fast.trace_stats, TraceStats::default(), "{kind}: fast");
            assert_eq!(step.trace_stats, TraceStats::default(), "{kind}: step");
            match kind {
                "hardened" => assert!(!fast.errors.is_empty(), "the overflow is reported"),
                "profiling" => assert!(!fast.profile.is_empty(), "the sites are profiled"),
                _ => {}
            }
        }
    }
}
