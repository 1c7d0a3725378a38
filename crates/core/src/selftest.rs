//! Differential self-test subsystem (`redfat selftest`).
//!
//! Rewriting running binaries is only trustworthy if the rewritten binary
//! is *behaviorally equivalent* to the original everywhere the paper's
//! design says it must be. This module provides two oracles over built
//! images, both deterministic and dependency-free:
//!
//! 1. **Lockstep differential oracle** ([`lockstep_images`]): runs the
//!    hardened and baseline images side by side in two emulator
//!    instances and compares architectural state (registers, flags,
//!    stored bytes) at every original-instruction boundary. Divergence
//!    is flagged unless it is attributable to an *intended* effect: a
//!    memory-error report from an inserted check, or a declared
//!    dead-register clobber ([`crate::ClobberInfo`], derived from the
//!    liveness analysis that justified eliding the save/restore).
//! 2. **Backend lockstep oracle** ([`backend_lockstep`]): runs the
//!    translated execution tier against the single-step reference
//!    interpreter on the *same* image and compares the full
//!    architectural state (every register, flags, `rip`, all cost
//!    counters, runtime error count) at every audit boundary, and the
//!    guest IO and per-site profile counters at the end. The
//!    translation cache is a pure performance optimization, so any
//!    difference at all is a bug.
//!
//! When the lockstep oracle diverges, [`shrink_input`] applies ddmin-style
//! [`minimize`]-ation to the program input so the repro is as small as the
//! predicate allows; divergence details embed a disassembly window of the
//! instructions leading up to the failure. [`lockstep`] runs the oracle,
//! shrinks and describes a failure in one call.
//!
//! [`assert_same_bytes`] reports where two images that must be
//! byte-identical first differ.
//!
//! The encoder/decoder round trip and the allocator's layout laws read
//! no image; their randomized campaigns are the tests of `redfat-x86`
//! (`tests/roundtrip.rs`) and `redfat-lowfat` (`tests/properties.rs`).
//!
//! Known blind spots (documented in DESIGN.md): reads below `rsp` after a
//! payload ran (the payload may push temporaries there), programs that
//! introspect their own return addresses (which legitimately point into
//! trampolines), and dead-register windows where a clobbered register is
//! not compared until a full-width write re-synchronizes it.
// Safety of the module-wide allow: this is test infrastructure that
// happens to ship in the library (so the CLI can drive it). Its
// expects/unwraps assert harness-internal invariants over images the
// harness itself built; a panic here is a failing self-test, which is
// exactly the signal the harness exists to produce. The daemon never
// calls into this module.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::pipeline::{ClobberInfo, Hardened};
use redfat_elf::Image;
use redfat_emu::{
    syscalls, AllocPolicyKind, Emu, EmuError, ErrorMode, ExecBackend, HostRuntime, RunResult,
};
use redfat_vm::{layout, Rng64};
use redfat_x86::{Op, Reg, Width};
use std::collections::VecDeque;

/// Cap on recorded divergences so a systematically broken build
/// produces a readable report instead of an unbounded one.
const MAX_FAILURES: usize = 16;

// ---------------------------------------------------------------------------
// Deterministic randomness
// ---------------------------------------------------------------------------

/// [`Rng64`]'s splitmix64 stream with a modulo [`below`](Self::below).
/// Fixed seeds make the fault sweep's mutants and the benchmark's
/// inputs reproducible, and both were drawn with this reduction, not
/// `Rng64`'s multiply-shift.
pub struct SplitMix64(Rng64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(Rng64::new(seed))
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform-ish value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ---------------------------------------------------------------------------
// Byte identity
// ---------------------------------------------------------------------------

/// Asserts that `got` equals `want` -- typically two serialized images
/// that must be byte-identical. On a mismatch it panics with `case`,
/// both lengths, the first differing offset and up to eight bytes from
/// there on each side, not with both byte strings in full.
#[track_caller]
pub fn assert_same_bytes(case: &str, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    let from = |b: &[u8]| b[at..].iter().take(8).copied().collect::<Vec<u8>>();
    panic!(
        "{case}: bytes differ from offset {at:#x} ({} bytes, expected {}): \
         {:02x?}, expected {:02x?}",
        got.len(),
        want.len(),
        from(got),
        from(want)
    );
}

// ---------------------------------------------------------------------------
// Failure minimization
// ---------------------------------------------------------------------------

/// ddmin-style list minimization: returns a subsequence of `items` on
/// which `still_fails` still returns `true`, minimal under chunk removal.
///
/// If the full input does not fail, it is returned unchanged.
pub fn minimize<T: Clone>(items: &[T], mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = items.to_vec();
    if !still_fails(&cur) {
        return cur;
    }
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let end = (i + chunk).min(cur.len());
            let mut cand: Vec<T> = Vec::with_capacity(cur.len() - (end - i));
            cand.extend_from_slice(&cur[..i]);
            cand.extend_from_slice(&cur[end..]);
            if still_fails(&cand) {
                cur = cand;
                shrunk = true;
                // Same position now holds fresh content: retry in place.
            } else {
                i = end;
            }
        }
        if !shrunk {
            if chunk == 1 {
                return cur;
            }
            chunk = (chunk / 2).max(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Backend lockstep oracle
// ---------------------------------------------------------------------------

/// Instructions per audited slice of a translated backend run.
const AUDIT_SLICE: u64 = 4096;

/// Result of a [`backend_lockstep`] run.
#[derive(Debug, Default)]
pub struct BackendReport {
    /// Audit boundaries at which full state was compared: one per
    /// backend return, so one per slice of at most 4096 instructions
    /// unless a run ends or a successor cannot be linked sooner.
    pub blocks: u64,
    /// Instructions executed (identical for both backends by design).
    pub instructions: u64,
    /// Unexplained differences between the backends (capped).
    pub divergences: Vec<Divergence>,
    /// How the translated-backend run ended (`None` only on a stall).
    pub backend_exit: Option<RunResult>,
    /// How the reference single-step run ended.
    pub step_exit: Option<RunResult>,
    /// `true` if both backends terminated within the step budget.
    pub completed: bool,
}

impl BackendReport {
    /// `true` if the backends never disagreed.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn push_divergence(divs: &mut Vec<Divergence>, rip: u64, detail: String) {
    if divs.len() < MAX_FAILURES {
        divs.push(Divergence { rip, detail });
    }
}

/// Maps a `step`/`step_fast` outcome to the run result
/// `run_backend` would report, so the two backends compare apples to
/// apples.
fn settle(outcome: Result<Option<RunResult>, EmuError>) -> Option<RunResult> {
    match outcome {
        Ok(r) => r,
        Err(EmuError::AccessVetoed { error, .. }) => Some(RunResult::MemoryError(error)),
        Err(e) => Some(RunResult::Error(e)),
    }
}

/// Runs the translated tier and the single-step reference interpreter
/// in lockstep on `image`, both runs backed by the allocator `policy`,
/// and compares the complete architectural state at every audit
/// boundary.
///
/// Unlike [`lockstep_images`], both emulators execute the *same* image,
/// so the comparison is exact: every register (no dead-clobber
/// exemptions), the flags, `rip`, the full cost-counter set, and the
/// memory-error reports must agree element-for-element at every
/// boundary, and the final run results, guest IO digests and per-site
/// profile counters (which Table 1's allow-lists are built from) must
/// be equal. Both emulators use the same policy (and thus see the same
/// deterministic pointer stream), so the oracle stays exact even under
/// the randomized backend.
///
/// The translated tier runs in slices of at most 4096 instructions,
/// and a boundary is wherever `step_fast` returns (slice exhausted, run
/// ended, or an unlinkable successor), so chained execution is audited
/// against the reference run at least once per slice and mid-trace
/// budget expiry (the exact-prefix path) is exercised continuously.
///
/// For [`ExecBackend::Fast`] this is the **boundary-audit oracle**: the
/// tier batches counter updates and skips hook dispatch *within* a
/// trace, so per-instruction lockstep would (correctly) observe
/// mid-trace counters ahead of or behind the reference. But every
/// `step_fast` return restores bit-exact `step()` state by
/// construction (static-charge rollback on every early exit; budgets
/// smaller than a block interpret per-instruction), and with no access
/// hook attached nothing can observe the interior states -- so
/// auditing all 16 GPRs, flags, `rip`, the full `Counters`, and the
/// error reports at every return boundary, plus end-state equivalence,
/// is exactly the contract the tier makes. [`ExecBackend::Step`]
/// degenerates to comparing the interpreter with itself after every
/// instruction.
pub fn backend_lockstep(
    image: &Image,
    input: &[i64],
    backend: ExecBackend,
    max_steps: u64,
    policy: AllocPolicyKind,
) -> BackendReport {
    let mut sup = Emu::load_image(
        image,
        HostRuntime::with_policy(ErrorMode::Log, policy).with_input(input.to_vec()),
    )
    .expect("image loads");
    let mut refr = Emu::load_image(
        image,
        HostRuntime::with_policy(ErrorMode::Log, policy).with_input(input.to_vec()),
    )
    .expect("image loads");
    let mut report = BackendReport::default();
    let mut remaining = max_steps;

    let (sup_end, ref_end) = loop {
        if remaining == 0 {
            break (Some(RunResult::StepLimit), Some(RunResult::StepLimit));
        }
        let (executed, outcome) = match backend {
            ExecBackend::Step => (1, sup.step()),
            ExecBackend::Fast => sup.step_fast(remaining.min(AUDIT_SLICE)),
        };
        remaining -= executed.min(remaining);
        report.instructions += executed;
        let sup_end = settle(outcome);
        // The reference interpreter retires exactly as many instructions
        // as the backend executed; if it terminates first, the state
        // comparison below reports where the two runs parted ways.
        let mut ref_end = None;
        for _ in 0..executed {
            match settle(refr.step()) {
                None => {}
                some => {
                    ref_end = some;
                    break;
                }
            }
        }

        report.blocks += 1;
        let rip = refr.cpu.rip;
        let divs = &mut report.divergences;
        if sup.cpu.rip != refr.cpu.rip {
            push_divergence(
                divs,
                rip,
                format!(
                    "rip differs after block {}: {backend} {:#x}, step {:#x}",
                    report.blocks, sup.cpu.rip, refr.cpu.rip
                ),
            );
        }
        for c in 0..16u8 {
            let r = Reg::from_code(c);
            let (sv, rv) = (sup.cpu.get(r), refr.cpu.get(r));
            if sv != rv {
                push_divergence(
                    divs,
                    rip,
                    format!("register {r:?} differs at {rip:#x}: {backend} {sv:#x}, step {rv:#x}"),
                );
            }
        }
        if sup.cpu.flags != refr.cpu.flags {
            push_divergence(
                divs,
                rip,
                format!(
                    "flags differ at {rip:#x}: {backend} {:?}, step {:?}",
                    sup.cpu.flags, refr.cpu.flags
                ),
            );
        }
        if sup.counters != refr.counters {
            push_divergence(
                divs,
                rip,
                format!(
                    "cost counters differ at {rip:#x}: {backend} {:?}, step {:?}",
                    sup.counters, refr.counters
                ),
            );
        }
        if sup.runtime.errors != refr.runtime.errors {
            let n = sup.runtime.errors.len().min(refr.runtime.errors.len());
            let at = (0..n)
                .find(|&k| sup.runtime.errors[k] != refr.runtime.errors[k])
                .unwrap_or(n);
            push_divergence(
                divs,
                rip,
                format!(
                    "error reports differ at {rip:#x} (first mismatch is report #{at}): \
                     {backend} has {}, step has {}",
                    sup.runtime.errors.len(),
                    refr.runtime.errors.len()
                ),
            );
        }
        if divs.len() >= MAX_FAILURES {
            break (sup_end, ref_end);
        }
        match (sup_end, ref_end) {
            (None, None) => {
                if executed == 0 {
                    push_divergence(divs, rip, format!("{backend} backend stalled at {rip:#x}"));
                    break (None, None);
                }
            }
            ends => break ends,
        }
    };

    if sup_end != ref_end {
        report.divergences.truncate(MAX_FAILURES - 1);
        report.divergences.push(Divergence {
            rip: refr.cpu.rip,
            detail: format!("run results differ: {backend} {sup_end:?}, step {ref_end:?}"),
        });
    } else if sup.runtime.io.digest() != refr.runtime.io.digest() {
        report.divergences.truncate(MAX_FAILURES - 1);
        report.divergences.push(Divergence {
            rip: refr.cpu.rip,
            detail: format!(
                "guest IO digests differ: {backend} {:#x}, step {:#x}",
                sup.runtime.io.digest(),
                refr.runtime.io.digest()
            ),
        });
    } else if sup.runtime.profile != refr.runtime.profile {
        let (sp, rp) = (&sup.runtime.profile, &refr.runtime.profile);
        let site = sp
            .keys()
            .chain(rp.keys())
            .filter(|s| sp.get(s) != rp.get(s))
            .min()
            .copied()
            .unwrap_or_default();
        report.divergences.truncate(MAX_FAILURES - 1);
        report.divergences.push(Divergence {
            rip: refr.cpu.rip,
            detail: format!(
                "per-site profiles differ ({backend} {} sites, step {}); first at site \
                 {site:#x}: {backend} {:?}, step {:?}",
                sp.len(),
                rp.len(),
                sp.get(&site),
                rp.get(&site)
            ),
        });
    }
    report.completed = sup_end.is_some() && ref_end.is_some();
    report.backend_exit = sup_end;
    report.step_exit = ref_end;
    report
}

// ---------------------------------------------------------------------------
// Lockstep differential oracle
// ---------------------------------------------------------------------------

/// One unexplained difference between the baseline and hardened runs.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Original-code address where the difference was observed.
    pub rip: u64,
    /// Description, including a disassembly window of the instructions
    /// executed leading up to the divergence.
    pub detail: String,
}

/// Result of a [`lockstep_images`] run.
#[derive(Debug, Default)]
pub struct LockstepReport {
    /// Original-instruction boundaries at which full state was compared.
    pub synced: u64,
    /// Unexplained divergences (capped).
    pub divergences: Vec<Divergence>,
    /// How the baseline run ended (`None` if the budget ran out first).
    pub baseline_exit: Option<RunResult>,
    /// How the hardened run ended.
    pub hardened_exit: Option<RunResult>,
    /// Memory-error reports from the hardened run's checks. These are
    /// *intended* behavior differences, not divergences.
    pub hardened_errors: usize,
    /// `true` if both runs terminated within the step budget.
    pub completed: bool,
}

impl LockstepReport {
    /// `true` if no unexplained divergence was observed.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn record(report: &mut LockstepReport, window: &VecDeque<String>, rip: u64, msg: String) {
    if report.divergences.len() >= MAX_FAILURES {
        return;
    }
    let mut detail = msg;
    if !window.is_empty() {
        detail.push_str("\n  instructions leading here:");
        for line in window {
            detail.push_str("\n    ");
            detail.push_str(line);
        }
    }
    report.divergences.push(Divergence { rip, detail });
}

/// Exit results are equivalent if they end the run the same way; error
/// payloads carry addresses that legitimately differ between the images.
fn exit_equiv(b: &RunResult, h: &RunResult) -> bool {
    match (b, h) {
        (RunResult::Exited(x), RunResult::Exited(y)) => x == y,
        (RunResult::StepLimit, RunResult::StepLimit) => true,
        (RunResult::MemoryError(_), RunResult::MemoryError(_)) => true,
        (RunResult::Error(_), RunResult::Error(_)) => true,
        _ => false,
    }
}

/// The self-test's lockstep check of one hardened image: runs
/// [`lockstep_images`] with the pipeline's own clobber declarations and,
/// if the run diverges or does not complete within `max_steps`, shrinks
/// the input ([`shrink_input`]) and describes the first divergence of
/// the shrunk run. The description reads `(input [..]):` followed by
/// the divergence's detail; it is `None` for a clean, completed run.
pub fn lockstep(
    baseline: &Image,
    hardened: &Hardened,
    input: &[i64],
    max_steps: u64,
    policy: AllocPolicyKind,
) -> (LockstepReport, Option<String>) {
    let (image, clobbers) = (&hardened.image, &hardened.clobbers[..]);
    let report = lockstep_images(baseline, image, clobbers, input, max_steps, policy);
    if report.clean() && report.completed {
        return (report, None);
    }
    let shrunk = shrink_input(baseline, image, clobbers, input, max_steps, policy);
    let rerun = lockstep_images(baseline, image, clobbers, &shrunk, max_steps, policy);
    let detail = rerun
        .divergences
        .first()
        .or(report.divergences.first())
        .map_or("run did not complete within the step budget", |d| &d.detail);
    let repro = format!("(input {shrunk:?}):\n{detail}");
    (report, Some(repro))
}

/// Shrinks `input` to a minimal vector on which the hardened image still
/// diverges from the baseline (ddmin over input elements), reproducing
/// the divergence under the given allocator policy (a divergence seen
/// under one policy need not reproduce under another).
pub fn shrink_input(
    baseline: &Image,
    hardened: &Image,
    clobbers: &[(u64, ClobberInfo)],
    input: &[i64],
    max_steps: u64,
    policy: AllocPolicyKind,
) -> Vec<i64> {
    minimize(input, |cand| {
        !lockstep_images(baseline, hardened, clobbers, cand, max_steps, policy).clean()
    })
}

/// Runs `baseline` and `hardened` in lockstep, comparing architectural
/// state at every original-instruction boundary.
///
/// The sync invariant: both emulators sit at the same original-code
/// `rip`, below the trampoline region. Each round first compares all
/// registers (minus the *dirty* set of declared clobbers), the flags, and
/// the bytes stored since the last sync; then advances the hardened run
/// until it re-emerges from instrumentation, and finally single-steps the
/// baseline to the same address, checking per instruction that nothing
/// reads a clobbered register or flag (which would falsify the liveness
/// analysis that justified the clobber).
///
/// Both runs are backed by the given allocator policy. Baseline and
/// hardened share the policy (deterministic per seed), so their pointer
/// streams stay identical and every divergence is attributable to the
/// instrumentation.
pub fn lockstep_images(
    baseline: &Image,
    hardened: &Image,
    clobbers: &[(u64, ClobberInfo)],
    input: &[i64],
    max_steps: u64,
    policy: AllocPolicyKind,
) -> LockstepReport {
    let disasm = redfat_analysis::disassemble(baseline);
    let mut base = Emu::load_image(
        baseline,
        HostRuntime::with_policy(ErrorMode::Log, policy).with_input(input.to_vec()),
    )
    .expect("image loads");
    let mut hard = Emu::load_image(
        hardened,
        HostRuntime::with_policy(ErrorMode::Log, policy).with_input(input.to_vec()),
    )
    .expect("image loads");

    let mut report = LockstepReport::default();
    // Registers (bit per GPR code) whose values may legitimately differ:
    // declared dead at a payload anchor, clobbered by the payload, and not
    // yet re-synchronized by a full-width write.
    let mut dirty: u16 = 0;
    let mut flags_dirty = false;
    // Data stores performed since the last sync, compared at the next one.
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let mut window: VecDeque<String> = VecDeque::new();
    let mut budget = max_steps;

    let mut base_done: Option<RunResult> = None;
    let mut hard_done: Option<RunResult> = None;

    'outer: while base_done.is_none() || hard_done.is_none() {
        if base_done.is_none() && hard_done.is_none() {
            // ---- sync point: compare state ----
            let rip = base.cpu.rip;
            report.synced += 1;
            for c in 0..16u8 {
                if dirty & (1 << c) != 0 {
                    continue;
                }
                let r = Reg::from_code(c);
                let (bv, hv) = (base.cpu.get(r), hard.cpu.get(r));
                if bv != hv {
                    record(
                        &mut report,
                        &window,
                        rip,
                        format!(
                            "register {r:?} differs at {rip:#x}: baseline {bv:#x}, hardened {hv:#x}"
                        ),
                    );
                    // Report once; treat as dirty from here on.
                    dirty |= 1 << c;
                }
            }
            if !flags_dirty && base.cpu.flags != hard.cpu.flags {
                record(
                    &mut report,
                    &window,
                    rip,
                    format!(
                        "flags differ at {rip:#x}: baseline {:?}, hardened {:?}",
                        base.cpu.flags, hard.cpu.flags
                    ),
                );
                flags_dirty = true;
            }
            for (addr, len) in pending.drain(..) {
                let bb = base.vm.read_bytes(addr, len).ok();
                let hb = hard.vm.read_bytes(addr, len).ok();
                if bb != hb {
                    record(
                        &mut report,
                        &window,
                        rip,
                        format!(
                            "stored bytes differ at {addr:#x} ({len} bytes): \
                             baseline {bb:02x?}, hardened {hb:02x?}"
                        ),
                    );
                }
            }
            // The payload anchored here runs *after* this comparison; mark
            // its declared clobbers as legitimately divergent.
            if let Ok(i) = clobbers.binary_search_by_key(&rip, |&(anchor, _)| anchor) {
                let ci = clobbers[i].1;
                dirty |= ci.regs;
                flags_dirty |= ci.flags;
            }
            if report.divergences.len() >= MAX_FAILURES {
                break 'outer;
            }

            // ---- advance hardened to the next original-code boundary ----
            let mut inner = 0u64;
            loop {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                match hard.step() {
                    Ok(None) => {}
                    Ok(Some(res)) => {
                        hard_done = Some(res);
                        break;
                    }
                    Err(e) => {
                        hard_done = Some(RunResult::Error(e));
                        break;
                    }
                }
                if hard.cpu.rip < layout::TRAMPOLINE_BASE {
                    break;
                }
                inner += 1;
                if inner > 200_000 {
                    record(
                        &mut report,
                        &window,
                        rip,
                        format!("hardened run stuck inside trampoline entered at {rip:#x}"),
                    );
                    break 'outer;
                }
            }
        }

        // ---- baseline catch-up, instruction by instruction ----
        let target = if hard_done.is_some() {
            None
        } else {
            Some(hard.cpu.rip)
        };
        let mut caught = 0u32;
        while base_done.is_none() {
            if Some(base.cpu.rip) == target {
                break;
            }
            if budget == 0 {
                break 'outer;
            }
            let rip = base.cpu.rip;
            let Some(&(inst, _len)) = disasm.at(rip) else {
                record(
                    &mut report,
                    &window,
                    rip,
                    format!("baseline reached undecodable code at {rip:#x}"),
                );
                break 'outer;
            };
            window.push_back(format!("{rip:#x}: {inst}"));
            if window.len() > 32 {
                window.pop_front();
            }

            // Liveness soundness: nothing may read a clobbered register or
            // flag before it is rewritten.
            for r in Reg::from_mask(inst.regs_read_mask() & dirty) {
                record(
                    &mut report,
                    &window,
                    rip,
                    format!(
                        "`{inst}` at {rip:#x} reads {r:?}, which instrumentation \
                         clobbered (liveness violation)"
                    ),
                );
                dirty &= !(1 << r.code());
            }
            if flags_dirty && inst.reads_flags() {
                record(
                    &mut report,
                    &window,
                    rip,
                    format!(
                        "`{inst}` at {rip:#x} reads flags, which instrumentation \
                         clobbered (liveness violation)"
                    ),
                );
                flags_dirty = false;
            }
            if report.divergences.len() >= MAX_FAILURES {
                break 'outer;
            }

            // Record data stores for comparison at the next sync. Stack
            // pushes are excluded: the hardened run legitimately pushes
            // trampoline-resident return addresses.
            if inst.writes_memory() {
                if let Some(m) = inst.memory_access() {
                    let ea = if m.rip {
                        m.disp as u64
                    } else {
                        let mut a = m.disp as u64;
                        if let Some(b) = m.base {
                            a = a.wrapping_add(base.cpu.get(b));
                        }
                        if let Some(i) = m.index {
                            a = a.wrapping_add(base.cpu.get(i).wrapping_mul(m.scale as u64));
                        }
                        a
                    };
                    let len = inst.access_len().unwrap_or(0) as usize;
                    pending.push((ea, len));
                }
            }

            let pre_rax = base.cpu.get(Reg::Rax);
            let pre_cond = if let Op::Cmovcc(c) = inst.op {
                base.cpu.flags.cond(c)
            } else {
                false
            };

            budget -= 1;
            match base.step() {
                Ok(None) => {}
                Ok(Some(res)) => base_done = Some(res),
                Err(e) => base_done = Some(RunResult::Error(e)),
            }

            // A full-width write re-synchronizes a dirty register (both
            // sides computed the value from clean state -- otherwise the
            // read check above already fired). Mirror the emulator's
            // actual write sets, not the static may-write model.
            match inst.op {
                Op::Syscall => {
                    dirty &= !(1u16 << Reg::Rax.code());
                    if pre_rax == syscalls::READ_INT {
                        dirty &= !(1u16 << Reg::Rdx.code());
                    }
                }
                Op::Cmovcc(_) => {
                    // A false condition keeps (W64) or partially rewrites
                    // (W32 zero-extend of the old low half) the old value:
                    // only a taken cmov cleans its destination.
                    if pre_cond {
                        dirty &= !inst.regs_written_mask();
                    }
                }
                _ => {
                    if inst.w != Width::W8 {
                        dirty &= !inst.regs_written_mask();
                    }
                }
            }
            if inst.writes_flags() {
                flags_dirty = false;
            }

            caught += 1;
            if caught > 128 && base_done.is_none() {
                record(
                    &mut report,
                    &window,
                    base.cpu.rip,
                    format!(
                        "baseline failed to re-converge with hardened at {:#x}",
                        target.unwrap_or(0)
                    ),
                );
                break 'outer;
            }
        }

        if base_done.is_some() && hard_done.is_none() {
            // The baseline terminated while the hardened run is paused at
            // a boundary; let it run to its own termination for the final
            // comparison.
            let mut extra = 0u64;
            while hard_done.is_none() {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                match hard.step() {
                    Ok(None) => {}
                    Ok(Some(res)) => hard_done = Some(res),
                    Err(e) => hard_done = Some(RunResult::Error(e)),
                }
                extra += 1;
                if extra > 200_000 {
                    record(
                        &mut report,
                        &window,
                        hard.cpu.rip,
                        "baseline terminated but the hardened run keeps running".to_string(),
                    );
                    break 'outer;
                }
            }
        }
    }

    report.hardened_errors = hard.runtime.errors.len();
    if let (Some(b), Some(h)) = (&base_done, &hard_done) {
        if !exit_equiv(b, h) {
            record(
                &mut report,
                &window,
                base.cpu.rip,
                format!("exit results differ: baseline {b:?}, hardened {h:?}"),
            );
        }
        if base.runtime.io.digest() != hard.runtime.io.digest() {
            record(
                &mut report,
                &window,
                base.cpu.rip,
                format!(
                    "guest IO digests differ: baseline {:#x}, hardened {:#x}",
                    base.runtime.io.digest(),
                    hard.runtime.io.digest()
                ),
            );
        }
        report.completed = true;
    }
    report.baseline_exit = base_done;
    report.hardened_exit = hard_done;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{harden, HardenConfig, LowFatPolicy};
    use redfat_analysis::Cfg;
    use redfat_elf::{ImageKind, SegFlags, Segment};
    use redfat_rewriter::{rewrite, Patch};
    use redfat_x86::{AluOp, Asm};

    #[test]
    fn splitmix64_stream_is_pinned() {
        // The reference splitmix64 output for seed 0, then the values
        // the fault sweep and the benchmark's inputs were drawn from.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        let mut r = SplitMix64::new(0xC0FFEE);
        assert_eq!(r.next_u64(), 0xCA82_16FA_9058_D0FA);
        assert_eq!(r.next_u64(), 0xECE4_5BAB_CE87_0479);
        let below: Vec<u64> = (0..4).map(|_| r.below(1000)).collect();
        assert_eq!(below, [851, 540, 24, 507], "modulo reduction");
    }

    fn program(build: impl FnOnce(&mut Asm) -> u64) -> (Image, u64) {
        let mut a = Asm::new(layout::CODE_BASE);
        let mark = build(&mut a);
        let p = a.finish().unwrap();
        let image = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        };
        (image, mark)
    }

    /// `image` rewritten with a payload that sets `rbx` to 99 before
    /// `anchor`.
    fn clobber_rbx_at(image: &Image, anchor: u64) -> Image {
        let mut a = Asm::new(0);
        a.mov_ri(Width::W64, Reg::Rbx, 99);
        let code = a.finish().unwrap().bytes;
        let patch = Patch {
            anchor,
            code: &code,
            entry: 0,
            rip_fields: &[],
            calls: &[],
        };
        let disasm = redfat_analysis::disassemble(image);
        let cfg = Cfg::recover(&disasm, image.entry, &[]);
        rewrite(image, &disasm, &cfg.leaders, &[patch])
            .unwrap()
            .image
    }

    #[test]
    fn minimize_reduces_to_the_failing_core() {
        let items: Vec<i32> = (0..20).collect();
        let out = minimize(&items, |c| c.contains(&3) && c.contains(&17));
        assert_eq!(out, vec![3, 17]);
        // A non-failing input is returned unchanged.
        let out = minimize(&items, |_| false);
        assert_eq!(out, items);
        // A failure independent of the input shrinks to nothing.
        let out = minimize(&items, |_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn injected_live_clobber_is_flagged() {
        // rbx is *live* across the anchor (the displaced mov reads it), so
        // a payload clobbering it without declaration must be flagged.
        let (image, anchor) = program(|a| {
            a.mov_ri(Width::W64, Reg::Rbx, 7);
            let anchor = a.here();
            a.mov_rr(Width::W64, Reg::Rdi, Reg::Rbx);
            a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
            let l = a.label();
            a.jmp_label(l);
            a.bind(l).unwrap();
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.syscall();
            anchor
        });
        let hardened = clobber_rbx_at(&image, anchor);
        let rep = lockstep_images(
            &image,
            &hardened,
            &[],
            &[],
            100_000,
            AllocPolicyKind::default(),
        );
        assert!(!rep.clean(), "undeclared clobber not flagged: {rep:#?}");
        assert!(
            rep.divergences.iter().any(|d| d.detail.contains("Rbx")),
            "divergence does not name the clobbered register: {:#?}",
            rep.divergences
        );
    }

    #[test]
    fn declared_dead_clobber_is_tolerated() {
        // rbx is *dead* after the anchor; the same clobber, declared, is
        // an intended effect and must not be reported.
        let (image, anchor) = program(|a| {
            a.mov_ri(Width::W64, Reg::Rbx, 7);
            let anchor = a.here();
            a.mov_ri(Width::W64, Reg::Rdi, 5);
            let l = a.label();
            a.jmp_label(l);
            a.bind(l).unwrap();
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.syscall();
            anchor
        });
        let hardened = clobber_rbx_at(&image, anchor);

        // Undeclared: flagged.
        let rep = lockstep_images(
            &image,
            &hardened,
            &[],
            &[],
            100_000,
            AllocPolicyKind::default(),
        );
        assert!(!rep.clean(), "expected the undeclared clobber to be seen");

        // Declared: clean, and both runs exit 5.
        let declared = [(
            anchor,
            ClobberInfo {
                regs: 1 << Reg::Rbx.code(),
                flags: false,
            },
        )];
        let rep = lockstep_images(
            &image,
            &hardened,
            &declared,
            &[],
            100_000,
            AllocPolicyKind::default(),
        );
        assert!(rep.clean(), "{:#?}", rep.divergences);
        assert!(rep.completed);
        assert_eq!(rep.baseline_exit, Some(RunResult::Exited(5)));
        assert_eq!(rep.hardened_exit, Some(RunResult::Exited(5)));
    }

    #[test]
    fn input_shrinking_reaches_a_fixpoint() {
        // The injected divergence is input-independent, so the shrinker
        // must reduce the input vector to nothing, and the description
        // names the shrunk input and the clobbered register.
        let (image, anchor) = program(|a| {
            a.mov_ri(Width::W64, Reg::Rbx, 7);
            let anchor = a.here();
            a.mov_rr(Width::W64, Reg::Rdi, Reg::Rbx);
            a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
            let l = a.label();
            a.jmp_label(l);
            a.bind(l).unwrap();
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.syscall();
            anchor
        });
        let hardened = Hardened {
            image: clobber_rbx_at(&image, anchor),
            stats: crate::HardenStats::default(),
            clobbers: vec![],
        };
        let (rep, repro) = lockstep(
            &image,
            &hardened,
            &[1, 2, 3],
            100_000,
            AllocPolicyKind::default(),
        );
        assert!(!rep.clean());
        let repro = repro.expect("a divergent run is described");
        assert!(repro.starts_with("(input []):\n"), "{repro}");
        assert!(repro.contains("Rbx"), "{repro}");
    }

    #[test]
    fn backend_lockstep_is_clean_on_baseline_hardened_and_profiling_images() {
        let src = "fn main() {
            var n = input();
            var a = malloc(12 * 8);
            for (var i = 0; i < 12; i = i + 1) { a[i] = i * n; }
            var s = 0;
            for (var i = 0; i < 12; i = i + 1) { s = s + a[i]; }
            print(s);
            free(a);
            return 0;
        }";
        let image = redfat_minic::compile(src).unwrap();
        let hardened = harden(&image, &HardenConfig::default()).unwrap();
        let profiling = crate::instrument_profile(&image).unwrap();
        let fast = ExecBackend::Fast;
        for policy in AllocPolicyKind::ALL {
            let rep = backend_lockstep(&image, &[3], fast, 5_000_000, policy);
            assert!(
                rep.completed,
                "{fast} ({policy}): baseline run incomplete: {rep:#?}"
            );
            assert!(rep.clean(), "{fast} ({policy}): {:#?}", rep.divergences);
            assert_eq!(rep.backend_exit, Some(RunResult::Exited(0)));
            assert_eq!(rep.step_exit, Some(RunResult::Exited(0)));
            assert!(rep.blocks > 0 && rep.instructions > rep.blocks);

            // The hardened image exercises trampoline crossings and the
            // inserted check payloads under the translated tier, the
            // profiling image its per-site `PROFILE_EVENT` syscalls.
            for (kind, img) in [
                ("hardened", &hardened.image),
                ("profiling", &profiling.image),
            ] {
                let rep = backend_lockstep(img, &[3], fast, 5_000_000, policy);
                assert!(
                    rep.completed,
                    "{fast} ({policy}): {kind} run incomplete: {rep:#?}"
                );
                assert!(rep.clean(), "{fast} ({policy}): {:#?}", rep.divergences);
                assert_eq!(rep.backend_exit, Some(RunResult::Exited(0)));
            }
        }
    }

    #[test]
    fn backend_lockstep_agrees_on_step_budget_exhaustion() {
        let src = "fn main() {
            var s = 0;
            for (var i = 0; i < 1000000; i = i + 1) { s = s + i; }
            print(s);
            return 0;
        }";
        let image = redfat_minic::compile(src).unwrap();
        for budget in [1u64, 7, 100, 12345] {
            let rep = backend_lockstep(
                &image,
                &[],
                ExecBackend::Fast,
                budget,
                AllocPolicyKind::default(),
            );
            assert!(rep.clean(), "budget {budget}: {:#?}", rep.divergences);
            assert!(rep.completed, "budget {budget}");
            assert_eq!(rep.backend_exit, Some(RunResult::StepLimit));
            assert_eq!(rep.step_exit, Some(RunResult::StepLimit));
            assert_eq!(rep.instructions, budget);
        }
    }

    #[test]
    fn lockstep_is_clean_on_a_hardened_minic_program() {
        let src = "fn main() {
            var n = input();
            var a = malloc(10 * 8);
            for (var i = 0; i < 10; i = i + 1) { a[i] = i * n; }
            var s = 0;
            for (var i = 0; i < 10; i = i + 1) { s = s + a[i]; }
            print(s);
            free(a);
            return 0;
        }";
        let image = redfat_minic::compile(src).unwrap();
        for config in [
            HardenConfig::unoptimized(LowFatPolicy::All),
            HardenConfig::default(),
        ] {
            let hardened = harden(&image, &config).unwrap();
            let (rep, repro) = lockstep(
                &image,
                &hardened,
                &[3],
                5_000_000,
                AllocPolicyKind::default(),
            );
            assert_eq!(repro, None);
            assert!(rep.completed, "run did not complete: {rep:#?}");
            assert!(rep.clean(), "{:#?}", rep.divergences);
            assert_eq!(rep.baseline_exit, Some(RunResult::Exited(0)));
            assert_eq!(rep.hardened_exit, Some(RunResult::Exited(0)));
            assert!(
                rep.synced > 10,
                "suspiciously few sync points: {}",
                rep.synced
            );
        }
    }
}
