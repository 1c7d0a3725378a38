//! Deterministic fault-injection harness: the no-panic gate for the
//! whole hardening toolchain.
//!
//! RedFat's value proposition is hardening *arbitrary* stripped
//! binaries, so the pipeline itself must survive arbitrary (malformed,
//! truncated, adversarial) inputs. This module mutates well-formed
//! images from every SPEC stand-in with a seeded [`SplitMix64`] stream
//! -- truncations, byte flips in the header / code / metadata regions,
//! oversized table counts, corrupt trap tables -- and drives each
//! mutant through the full parse → harden → load → run chain. Every
//! outcome must be classified:
//!
//! * **Ok** -- the mutant survived the chain: its guest run exited,
//!   hit the step limit or reported a detected memory error.
//! * **Error** -- a stage rejected the mutant with its own typed error,
//!   recorded as the [`Stage`] and the error's message. A guest run
//!   that stops on an emulator error (memory fault, undecodable bytes,
//!   divide error, stray `int3` or `ud2`) counts here too, at stage
//!   `run`.
//! * **Degraded** -- hardening succeeded but skipped sites
//!   ([`HardenStats::degraded`][crate::HardenStats::degraded]), the
//!   paper's opportunistic-hardening model applied to the toolchain.
//!
//! A panic anywhere in the chain is a harness **failure**. The sweep is
//! fully deterministic: the same seed yields the same mutants and the
//! same classification counts on every run and at any thread count.

use crate::pipeline::harden;
use crate::selftest::SplitMix64;
use crate::HardenConfig;
use redfat_elf::Image;
use redfat_emu::{Emu, EmuError, ErrorMode, HostRuntime, RunResult, Runtime, TRAP_TABLE_MAGIC};
use redfat_parallel::{panic_message, parallel_map};
use redfat_vm::layout;
use redfat_workloads::spec;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration for a fault-injection sweep.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the mutation stream (per-workload streams are derived
    /// from it and the workload name).
    pub seed: u64,
    /// Mutants generated per workload.
    pub mutants_per_workload: usize,
    /// Step budget for each mutant's guest run, in instructions retired
    /// outside the trampoline area (kept small: the chain stages, not
    /// the guest, are under test).
    pub max_steps: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0x5EED_FA17_1BAD_E1F0,
            // 35 mutants x 29 stand-ins ≈ a 1k-mutant sweep.
            mutants_per_workload: 35,
            max_steps: 200_000,
        }
    }
}

/// The stage of the parse → harden → load → run chain that rejected a
/// mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// ELF parsing ([`Image::parse`]).
    Parse,
    /// Analysis, check synthesis and trampoline rewriting.
    Harden,
    /// Image loading into the guest address space.
    Load,
    /// Guest execution under the emulator.
    Run,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::Parse => "parse",
            Stage::Harden => "harden",
            Stage::Load => "load",
            Stage::Run => "run",
        })
    }
}

/// How one mutant's trip through the chain ended.
#[derive(Debug)]
pub enum FaultOutcome {
    /// Survived every stage (guest-level failures included).
    Ok,
    /// A stage rejected the mutant with its own typed error.
    Error {
        /// The rejecting stage.
        stage: Stage,
        /// The stage error's message.
        message: String,
    },
    /// Hardened with recorded degradation (skipped sites).
    Degraded,
}

impl FaultOutcome {
    fn error(stage: Stage, e: impl std::fmt::Display) -> FaultOutcome {
        FaultOutcome::Error {
            stage,
            message: e.to_string(),
        }
    }
}

/// Aggregated sweep results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Mutants driven through the chain.
    pub cases: usize,
    /// Mutants classified `Ok`.
    pub ok: usize,
    /// Mutants rejected with a structured error.
    pub errors: usize,
    /// Mutants hardened with recorded degradation.
    pub degraded: usize,
    /// Structured-error counts by failing stage name.
    pub by_stage: BTreeMap<String, usize>,
    /// Unclassified outcomes -- panics escaping the chain, or a
    /// well-formed input failing its sanity drive. Must be empty.
    pub failures: Vec<String>,
}

impl FaultReport {
    /// `true` if every outcome was classified (no panics).
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    fn absorb(&mut self, other: FaultReport) {
        self.cases += other.cases;
        self.ok += other.ok;
        self.errors += other.errors;
        self.degraded += other.degraded;
        for (stage, n) in other.by_stage {
            *self.by_stage.entry(stage).or_insert(0) += n;
        }
        self.failures.extend(other.failures);
    }

    fn record(&mut self, outcome: FaultOutcome) {
        self.cases += 1;
        match outcome {
            FaultOutcome::Ok => self.ok += 1,
            FaultOutcome::Degraded => self.degraded += 1,
            FaultOutcome::Error { stage, .. } => {
                self.errors += 1;
                *self.by_stage.entry(stage.to_string()).or_insert(0) += 1;
            }
        }
    }
}

/// FNV-1a, used to derive a per-workload mutation stream from the sweep
/// seed so workload order (and thread count) cannot affect the mutants.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives already-parsed `image` through harden → load → run and
/// classifies the outcome.
fn drive_image(image: &Image, input: &[i64], max_steps: u64) -> FaultOutcome {
    let hardened = match harden(image, &HardenConfig::default()) {
        Ok(h) => h,
        Err(e) => return FaultOutcome::error(Stage::Harden, e),
    };
    let degraded = hardened.stats.degraded();
    match drive_load_run(&hardened.image, input, max_steps) {
        FaultOutcome::Ok if degraded => FaultOutcome::Degraded,
        other => other,
    }
}

/// Drives `image` through load → run only (used for mutants of already
/// hardened images, e.g. corrupt trap tables).
fn drive_load_run(image: &Image, input: &[i64], max_steps: u64) -> FaultOutcome {
    let runtime = HostRuntime::new(ErrorMode::Log).with_input(input.to_vec());
    let mut emu = match Emu::load_image(image, runtime) {
        Ok(emu) => emu,
        Err(e) => return FaultOutcome::error(Stage::Load, e),
    };
    match run_budgeted(&mut emu, max_steps) {
        // Guest-level endings are graceful by construction; an
        // emulator error is not.
        RunResult::Exited(_) | RunResult::StepLimit | RunResult::MemoryError(_) => FaultOutcome::Ok,
        RunResult::Error(e) => FaultOutcome::error(Stage::Run, e),
    }
}

/// Steps in a row inside the trampoline area after which a run counts
/// as stuck there (the lockstep oracle's bound).
const MAX_TRAMPOLINE_STEPS: u64 = 200_000;

/// Steps `emu` until it ends or has retired `max_steps` instructions
/// below [`layout::TRAMPOLINE_BASE`]. Trampoline steps are not counted,
/// so the budget ends at the same instruction of the program however
/// much its checks cost; a run that stays in the trampoline area for
/// [`MAX_TRAMPOLINE_STEPS`] steps in a row ends at the step limit.
fn run_budgeted<R: Runtime>(emu: &mut Emu<R>, max_steps: u64) -> RunResult {
    let (mut retired, mut inside) = (0u64, 0u64);
    loop {
        if emu.cpu.rip < layout::TRAMPOLINE_BASE {
            if retired == max_steps {
                return RunResult::StepLimit;
            }
            retired += 1;
            inside = 0;
        } else {
            if inside == MAX_TRAMPOLINE_STEPS {
                return RunResult::StepLimit;
            }
            inside += 1;
        }
        match emu.step() {
            Ok(None) => {}
            Ok(Some(result)) => return result,
            Err(EmuError::AccessVetoed { error, .. }) => return RunResult::MemoryError(error),
            Err(e) => return RunResult::Error(e),
        }
    }
}

/// Drives raw `bytes` through the full parse → harden → load → run
/// chain and classifies the outcome. This is the public single-case
/// entry point of the harness: callers hand it arbitrary (possibly
/// malformed) ELF bytes and get a classification, never a panic from a
/// stage error path (panics indicate a toolchain bug and are what
/// [`fault_sweep`] exists to catch).
pub fn classify_bytes(bytes: &[u8], input: &[i64], max_steps: u64) -> FaultOutcome {
    drive_bytes(bytes, input, max_steps)
}

/// Drives raw `bytes` through the full chain starting at ELF parsing.
fn drive_bytes(bytes: &[u8], input: &[i64], max_steps: u64) -> FaultOutcome {
    let image = match Image::parse(bytes) {
        Ok(image) => image,
        Err(e) => return FaultOutcome::error(Stage::Parse, e),
    };
    drive_image(&image, input, max_steps)
}

/// Reads the file region `[off, off+len)` of a `PT_LOAD` header matching
/// `want_exec` from well-formed ELF bytes, for targeted corruption.
fn segment_file_region(bytes: &[u8], want_exec: bool) -> Option<(usize, usize)> {
    fn field<const N: usize>(bytes: &[u8], o: usize) -> Option<[u8; N]> {
        bytes.get(o..o.checked_add(N)?)?.try_into().ok()
    }
    let u16at = |o: usize| Some(u16::from_le_bytes(field(bytes, o)?) as usize);
    let u32at = |o: usize| Some(u32::from_le_bytes(field(bytes, o)?));
    let u64at = |o: usize| Some(u64::from_le_bytes(field(bytes, o)?) as usize);
    let phoff = u64at(32)?;
    let phentsize = u16at(54)?;
    let phnum = u16at(56)?;
    for i in 0..phnum {
        let ph = phoff.checked_add(i.checked_mul(phentsize)?)?;
        if u32at(ph)? != 1 {
            continue;
        }
        let flags = u32at(ph + 4)?;
        if ((flags & 1) != 0) != want_exec {
            continue;
        }
        let off = u64at(ph + 8)?;
        let filesz = u64at(ph + 32)?;
        if filesz > 0 && off.checked_add(filesz)? <= bytes.len() {
            return Some((off, filesz));
        }
    }
    None
}

/// Produces one mutant and classifies it. `base` is the well-formed
/// image's serialization; `hardened` is the well-formed hardened image
/// (for trap-table mutations).
fn mutate_and_drive(
    base: &[u8],
    hardened: &Image,
    input: &[i64],
    rng: &mut SplitMix64,
    max_steps: u64,
) -> FaultOutcome {
    let mut bytes = base.to_vec();
    match rng.below(8) {
        // Truncation at a random offset.
        0 => {
            bytes.truncate(rng.below(bytes.len() as u64) as usize);
            drive_bytes(&bytes, input, max_steps)
        }
        // Byte flips anywhere in the file.
        1 => {
            for _ in 0..=rng.below(8) {
                let off = rng.below(bytes.len() as u64) as usize;
                bytes[off] ^= 1 << rng.below(8);
            }
            drive_bytes(&bytes, input, max_steps)
        }
        // Header corruption: flip a byte in the first 64.
        2 => {
            let off = rng.below(64.min(bytes.len() as u64)) as usize;
            bytes[off] ^= 1 << rng.below(8);
            drive_bytes(&bytes, input, max_steps)
        }
        // Oversized table counts: clobber e_phnum or e_shnum.
        3 => {
            let off = if rng.below(2) == 0 { 56 } else { 60 };
            let huge = (rng.next_u64() | 0x8000) as u16;
            if off + 2 <= bytes.len() {
                bytes[off..off + 2].copy_from_slice(&huge.to_le_bytes());
            }
            drive_bytes(&bytes, input, max_steps)
        }
        // Program-header field corruption (offsets, sizes, vaddrs).
        4 => {
            let phoff = 64u64;
            let off = (phoff + rng.below(56)) as usize;
            if off + 8 <= bytes.len() {
                let v = rng.next_u64();
                bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            drive_bytes(&bytes, input, max_steps)
        }
        // Code-segment byte flips: undecodable / altered instructions.
        5 => {
            if let Some((off, len)) = segment_file_region(&bytes, true) {
                for _ in 0..=rng.below(6) {
                    let o = off + rng.below(len as u64) as usize;
                    bytes[o] ^= 1 << rng.below(8);
                }
            }
            drive_bytes(&bytes, input, max_steps)
        }
        // Metadata (non-exec) segment byte flips.
        6 => {
            if let Some((off, len)) = segment_file_region(&bytes, false) {
                for _ in 0..=rng.below(6) {
                    let o = off + rng.below(len as u64) as usize;
                    bytes[o] ^= 1 << rng.below(8);
                }
            }
            drive_bytes(&bytes, input, max_steps)
        }
        // Corrupt trap table in the hardened image.
        _ => match mutate_trap_table(hardened, rng) {
            Some(img) => drive_load_run(&img, input, max_steps),
            // No trap table emitted for this workload: fall back to a
            // generic byte flip.
            None => {
                let off = rng.below(bytes.len() as u64) as usize;
                bytes[off] ^= 1 << rng.below(8);
                drive_bytes(&bytes, input, max_steps)
            }
        },
    }
}

/// Corrupts the hardened image's trap-table segment: truncation, count
/// inflation, a mid-entry cut with the count still claiming the partial
/// entry, or an entry byte flip. `None` if no trap table exists.
fn mutate_trap_table(hardened: &Image, rng: &mut SplitMix64) -> Option<Image> {
    let mut img = hardened.clone();
    let seg = img
        .segments
        .iter_mut()
        .find(|s| s.data.len() >= 16 && s.data[..8] == TRAP_TABLE_MAGIC.to_le_bytes())?;
    match rng.below(4) {
        0 => {
            // Truncate the table mid-entry (keeping the header so the
            // magic is still recognized).
            let keep = 16 + rng.below((seg.data.len() - 15) as u64) as usize;
            seg.data.truncate(keep.min(seg.data.len()));
            seg.mem_size = seg.data.len() as u64;
        }
        1 => {
            // Declare far more entries than the data holds.
            let huge = rng.next_u64() | (1 << 32);
            seg.data[8..16].copy_from_slice(&huge.to_le_bytes());
        }
        2 => {
            // Cut one entry in half and rewrite the declared count to
            // still claim the partial entry: the header and count look
            // internally consistent, but the last entry's field reads
            // run off the end of the data. This is the exact shape the
            // loader's unchecked `expect("8 bytes")` slice conversions
            // would have turned into a panic.
            let entries = (seg.data.len() - 16) / 16;
            if entries == 0 {
                return None;
            }
            let cut_entry = rng.below(entries as u64) as usize;
            let keep = 16 + cut_entry * 16 + 8;
            seg.data.truncate(keep);
            seg.mem_size = seg.data.len() as u64;
            let claimed = (cut_entry + 1) as u64;
            seg.data[8..16].copy_from_slice(&claimed.to_le_bytes());
        }
        _ => {
            // Flip a byte somewhere in the count or entries.
            let off = 8 + rng.below(seg.data.len() as u64 - 8) as usize;
            seg.data[off] ^= 1 << rng.below(8);
        }
    }
    Some(img)
}

/// Runs the mutation sweep for one workload (named by `name`), catching
/// panics so the caller gets a classification for every mutant.
fn fault_workload(name: &str, config: &FaultConfig) -> FaultReport {
    let mut report = FaultReport::default();
    let Some(w) = spec::all().into_iter().find(|w| w.name == name) else {
        report.failures.push(format!("unknown workload {name}"));
        return report;
    };
    let image = w.image();
    let base = image.to_bytes();
    let hardened = match harden(&image, &HardenConfig::default()) {
        Ok(h) => h,
        Err(e) => {
            report
                .failures
                .push(format!("{name}: well-formed image failed to harden: {e}"));
            return report;
        }
    };
    if hardened.stats.degraded() {
        report.failures.push(format!(
            "{name}: well-formed image hardened with degradation"
        ));
    }

    // Sanity: the unmutated image must classify Ok.
    match drive_bytes(&base, &w.train_input, config.max_steps) {
        FaultOutcome::Ok => {}
        other => report
            .failures
            .push(format!("{name}: well-formed image classified {other:?}")),
    }

    let mut rng = SplitMix64::new(config.seed ^ fnv1a(name));
    for m in 0..config.mutants_per_workload {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            mutate_and_drive(
                &base,
                &hardened.image,
                &w.train_input,
                &mut rng,
                config.max_steps,
            )
        }));
        match outcome {
            Ok(classified) => report.record(classified),
            Err(payload) => {
                report.cases += 1;
                report.failures.push(format!(
                    "{name}: PANIC on mutant {m} (seed {:#x}): {}",
                    config.seed,
                    panic_message(&*payload)
                ));
            }
        }
    }
    report
}

/// Runs the full fault-injection sweep over every SPEC stand-in on
/// `threads` workers. Panic output is suppressed for the duration (the
/// sweep *expects* to catch panics if a regression sneaks in; the
/// report, not stderr, is the record).
pub fn fault_sweep(config: &FaultConfig, threads: usize) -> FaultReport {
    let names: Vec<&'static str> = spec::all().into_iter().map(|w| w.name).collect();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reports = parallel_map(names, threads, |name: &&str| fault_workload(name, config));
    std::panic::set_hook(prev);
    let mut total = FaultReport::default();
    for r in reports {
        total.absorb(r);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LowFatPolicy;

    /// Where a budgeted run of `image` hardened under `config` stops:
    /// its result, `rip` and printed integers.
    fn budgeted_stop(
        image: &Image,
        config: &HardenConfig,
        input: &[i64],
        max_steps: u64,
    ) -> (RunResult, u64, Vec<i64>) {
        let hardened = harden(image, config).unwrap();
        let runtime = HostRuntime::new(ErrorMode::Log).with_input(input.to_vec());
        let mut emu = Emu::load_image(&hardened.image, runtime).unwrap();
        let result = run_budgeted(&mut emu, max_steps);
        (result, emu.cpu.rip, emu.runtime.io.out_ints.clone())
    }

    /// Full, metadata-free (`-size`) and redzone-only checks patch the
    /// same sites with trampolines of different cost; a budget spent
    /// mid-run stops all three at the same instruction of the program.
    #[test]
    fn budget_stops_at_the_same_original_instruction_whatever_the_checks_cost() {
        let w = spec::by_name("mcf").unwrap();
        let image = w.image();
        let budget = 400_000;
        let stop = |config: HardenConfig| budgeted_stop(&image, &config, &w.train_input, budget);
        let full = stop(HardenConfig::default());
        assert_eq!(full.0, RunResult::StepLimit);
        assert!(full.1 < layout::TRAMPOLINE_BASE);
        assert_eq!(stop(HardenConfig::minus_size(LowFatPolicy::All)), full);
        assert_eq!(
            stop(HardenConfig::with_redundant(LowFatPolicy::Disabled)),
            full
        );
    }

    #[test]
    fn segment_region_finder_locates_code() {
        let w = spec::all().into_iter().next().unwrap();
        let bytes = w.image().to_bytes();
        let (off, len) = segment_file_region(&bytes, true).expect("code segment");
        assert!(len > 0 && off + len <= bytes.len());
    }
}
