//! The hardening pipeline: disassemble → CFG → batches → checks →
//! trampoline rewrite, plus the §5 two-phase profiling workflow.

use crate::allowlist::AllowList;
use crate::analyze::{AnalysisReport, SiteReport, SiteVerdict};
use crate::checks::{library, BatchPayload, CheckSpec, PayloadMode, Routine};
use crate::config::{HardenConfig, LowFatPolicy};
use redfat_analysis::cfg::Block;
use redfat_analysis::{can_reach_heap, unknown_entries, Disasm, Provenance, RedundantChecks};
use redfat_analysis::{disassemble, merge_checks, plan_batches, Batch, Cfg, Liveness};
use redfat_elf::Image;
use redfat_emu::ProfileStats;
use redfat_parallel::parallel_map;
use redfat_rewriter::{
    rewrite_with_bases, select_group, CallField, Displaced, Library, RewriteBases, RewriteError,
    RewriteStats, RipField, Trampoline,
};
use redfat_x86::{Asm, AsmError, EncodeError, Inst};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A hardening failure.
#[derive(Debug)]
pub enum HardenError {
    /// The underlying rewrite failed.
    Rewrite(RewriteError),
}

impl std::fmt::Display for HardenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HardenError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
        }
    }
}

impl std::error::Error for HardenError {}

impl From<RewriteError> for HardenError {
    fn from(e: RewriteError) -> HardenError {
        HardenError::Rewrite(e)
    }
}

/// Instrumentation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardenStats {
    /// Memory-access instructions considered (post read/write filter).
    pub sites_considered: usize,
    /// Sites whose checks were eliminated by the syntactic rule
    /// (provably non-heap operand shape).
    pub sites_eliminated: usize,
    /// Sites *additionally* eliminated by flow-sensitive provenance
    /// (kept by the syntactic rule, proven non-heap by the interval
    /// analysis).
    pub sites_eliminated_flow: usize,
    /// Always zero: no pass eliminates sites across calls. Its only
    /// reader is `e2ebench/src/replay.rs:208`, which adds it into
    /// `core.sites_eliminated`; the field goes when the benchmark drops
    /// that sum together with `core.sites_redundant`.
    pub sites_eliminated_interproc: usize,
    /// Full-check sites downgraded to redzone-only because a dominating
    /// identical check subsumes them. Counts materialized downgrades
    /// only: a merged check is downgraded iff every site it covers is
    /// subsumed.
    pub sites_redundant: usize,
    /// Sites instrumented with the full (Redzone)+(LowFat) check.
    pub sites_lowfat: usize,
    /// Sites instrumented with the (Redzone)-only fallback.
    pub sites_redzone: usize,
    /// Batches (= trampolines) emitted.
    pub batches: usize,
    /// Merged checks emitted across all batches.
    pub checks: usize,
    /// Registers pushed by payload prologues, summed over batches (a
    /// scratch register dead at its anchor is clobbered instead).
    pub regs_saved: usize,
    /// Batches whose payload saves the flags (`pushfq`/`popfq`).
    pub flags_saved: usize,
    /// Sites skipped because a planned block member no longer decodes
    /// (graceful degradation on corrupt code; zero on well-formed
    /// inputs). Rewriter-level skips are counted separately in
    /// [`RewriteStats::skipped_sites`].
    pub sites_skipped: usize,
    /// Weakly-connected CFG components the image decomposed into (the
    /// unit of analysis sharding and of incremental reuse).
    pub components: usize,
    /// Components whose plans an edit through [`crate::harden_cached`]
    /// kept from the last full harden instead of planning them afresh.
    /// Zero on every full harden; equal to [`Self::components`] when
    /// the image is the kept one.
    pub components_reused: usize,
    /// Underlying rewriter statistics.
    pub rewrite: RewriteStats,
}

impl HardenStats {
    /// `true` if any site was skipped rather than hardened -- the
    /// `DegradedHarden` outcome of the fault-injection taxonomy: the
    /// output image is valid and runs, but covers fewer sites than
    /// planned. Always `false` for well-formed inputs.
    pub fn degraded(&self) -> bool {
        self.sites_skipped > 0 || self.rewrite.skipped_sites > 0
    }
}

/// Liveness-derived clobber metadata for one instrumentation payload.
///
/// The payload only saves/restores registers (and flags) that are *live*
/// at its anchor; anything dead may legitimately differ from the baseline
/// after the payload runs. The differential oracle consumes this to
/// distinguish intended dead-register clobbers from real divergence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClobberInfo {
    /// Registers the payload may leave modified (dead at the anchor):
    /// bit `r.code()` for register `r`.
    pub regs: u16,
    /// `true` if the payload may leave the arithmetic flags modified.
    pub flags: bool,
}

/// A hardened (or profiling-instrumented) binary.
pub struct Hardened {
    /// The rewritten image, a drop-in replacement for the original.
    pub image: Image,
    /// Statistics.
    pub stats: HardenStats,
    /// Clobber metadata per patched batch with its anchor address, in
    /// ascending anchor order (look one up by binary search).
    pub clobbers: Vec<(u64, ClobberInfo)>,
}

/// Hardens `image` under `config` (paper §3/§6; production phase of §5
/// when the policy is an allow-list), on one thread. Callers wanting
/// parallel analysis use [`harden_threaded`] with an explicit count.
pub fn harden(image: &Image, config: &HardenConfig) -> Result<Hardened, HardenError> {
    harden_threaded(image, config, 1)
}

/// [`harden`] with an explicit analysis thread count. The hardened
/// image, statistics and clobber metadata are byte-for-byte identical
/// at any thread count: analysis shards along weakly-connected CFG
/// components (whose results are exact restrictions of the whole-image
/// analyses), and the merged patch plan is ordered by anchor address
/// before the single serial rewrite.
pub fn harden_threaded(
    image: &Image,
    config: &HardenConfig,
    threads: usize,
) -> Result<Hardened, HardenError> {
    instrument(
        image,
        config,
        PayloadMode::Harden,
        RewriteBases::default(),
        threads,
    )
}

/// Hardens `image` with explicit trampoline/trap-table bases, for
/// instrumenting several images into one address space (separately
/// instrumented shared objects, paper §7.4).
pub fn harden_with_bases(
    image: &Image,
    config: &HardenConfig,
    bases: RewriteBases,
) -> Result<Hardened, HardenError> {
    instrument(image, config, PayloadMode::Harden, bases, 1)
}

/// Builds the §5 *profiling* binary: every heap-reachable access is
/// instrumented to record whether its (LowFat) check passes, via
/// `PROFILE_EVENT`. Run it against a test suite with
/// [`crate::run`], then feed the collected counters to
/// [`collect_allowlist`].
pub fn instrument_profile(image: &Image) -> Result<Hardened, HardenError> {
    let bases = RewriteBases::default();
    let config = HardenConfig {
        elim: true,
        batch: false, // singleton batches: exact per-site attribution
        merge: false,
        elim_flow: false, // profile counters must cover every site
        elim_redundant: false,
        size_harden: true,
        instrument_reads: true,
        lowfat: LowFatPolicy::All,
        lowfat_only: false,
    };
    instrument(image, &config, PayloadMode::Profile, bases, 1)
}

/// Builds the allow-list from profiling counters: a site is allowed iff
/// it was observed and its (LowFat) check never failed (§5's hypothesis:
/// "each memory operation is always a false positive or never a false
/// positive").
pub fn collect_allowlist(profile: &HashMap<u64, ProfileStats>) -> AllowList {
    AllowList::from_sites(
        profile
            .iter()
            .filter(|(_, s)| s.fails == 0 && s.passes > 0)
            .map(|(&site, _)| site),
    )
}

/// The pipeline's site rule: how `config` handles `inst`, or `None`
/// when it is no site (no memory access, or a read that the config does
/// not instrument). `flow_non_heap` says whether flow-sensitive
/// provenance proves the access avoids the heap; it is asked only of a
/// site the syntactic rule keeps. A [`SiteVerdict::Checked`] site is
/// instrumented; the planner may still downgrade its check to
/// [`SiteVerdict::Redundant`]. One rule drives the statistics, the
/// batch and redundant-check site filters and `redfat analyze`, so none
/// of them can disagree about a site.
fn classify(
    config: &HardenConfig,
    inst: &Inst,
    flow_non_heap: impl FnOnce() -> bool,
) -> Option<SiteVerdict> {
    let mem = inst.memory_access()?;
    if !config.instrument_reads && !inst.writes_memory() {
        return None;
    }
    Some(if config.elim && !can_reach_heap(&mem) {
        SiteVerdict::EliminatedSyntactic
    } else if flow_non_heap() {
        SiteVerdict::EliminatedFlow
    } else {
        SiteVerdict::Checked
    })
}

/// The per-component output of the analysis + planning stages:
/// everything the serial rewrite needs, in a form that merges
/// deterministically, with each batch's whole trampoline already
/// assembled: its payload, the instructions it displaces and the jump
/// back.
pub(crate) struct ComponentPlan {
    /// The batches' trampolines back to back, in `batches` order, or
    /// the failure that stopped their assembly.
    code: Result<Vec<u8>, AsmError>,
    /// The trampolines' fields that reach absolute addresses, in
    /// `batches` order, each at its offset from its own trampoline's
    /// start.
    rip_fields: Vec<RipField>,
    /// The payloads' calls into the cold library, likewise.
    calls: Vec<CallField>,
    batches: Vec<PlannedBatch>,
    stats: HardenStats,
    /// Each site's verdict, in address order, when the planner reports;
    /// empty otherwise.
    sites: Vec<SiteReport>,
}

impl ComponentPlan {
    /// Whether one of the plan's trampolines displaces the instruction
    /// at `addr`. A displaced group can run past its block's end into
    /// instructions no block holds, so an edit there must re-plan the
    /// group's component.
    pub(crate) fn displaces(&self, addr: u64) -> bool {
        self.batches
            .iter()
            .any(|b| b.anchor <= addr && addr < b.anchor + u64::from(b.displaced.len))
    }
}

/// One batch of a [`ComponentPlan`]: its anchor, where its trampoline
/// lies in the plan's code, fields and calls, what it displaces, and
/// its clobbers. A trampoline starts where the previous batch's ends.
struct PlannedBatch {
    anchor: u64,
    /// One past the trampoline's last byte in the plan's code.
    code_end: u32,
    /// The payload's entry, as an offset from the trampoline's start.
    entry: u32,
    /// One past the trampoline's last field in the plan's `rip_fields`.
    fields_end: u32,
    /// One past the payload's last call in the plan's `calls`.
    calls_end: u32,
    displaced: Displaced,
    clobber: ClobberInfo,
}

fn instrument(
    image: &Image,
    config: &HardenConfig,
    mode: PayloadMode,
    bases: RewriteBases,
    threads: usize,
) -> Result<Hardened, HardenError> {
    instrument_with_analysis(image, config, mode, bases, threads).map(|(hardened, _)| hardened)
}

/// The whole-image analysis of one harden, kept beside its output so an
/// edit of the same image can skip it (see [`crate::KeptBase`]). Of the
/// CFG it keeps the leaders and function entries; a block is re-sliced
/// from them when needed ([`Cfg::slice_block`]).
pub(crate) struct Analysis {
    pub(crate) disasm: Disasm,
    pub(crate) leaders: Arc<BTreeSet<u64>>,
    pub(crate) func_entries: Arc<BTreeSet<u64>>,
    pub(crate) roots: Option<BTreeSet<u64>>,
    /// The start addresses of each component's blocks, in component
    /// order ([`Cfg::component_starts`]).
    pub(crate) component_blocks: Vec<Vec<u64>>,
    /// Each component's plan, in component order.
    pub(crate) plans: Vec<ComponentPlan>,
    /// The statistics of the instructions in no recovered block.
    pub(crate) leftover: LeftoverSites,
}

/// How the instructions in no recovered block count in
/// [`HardenStats`]: they belong to no component, are never
/// instrumented, and have no flow facts, so only the syntactic rule can
/// eliminate them.
#[derive(Clone, Copy, Default)]
pub(crate) struct LeftoverSites {
    considered: usize,
    eliminated: usize,
}

impl LeftoverSites {
    /// Adds `inst`'s contribution, or removes it when `add` is false,
    /// and returns its verdict.
    pub(crate) fn count(
        &mut self,
        config: &HardenConfig,
        inst: &Inst,
        add: bool,
    ) -> Option<SiteVerdict> {
        let verdict = classify(config, inst, || false)?;
        let eliminated = verdict == SiteVerdict::EliminatedSyntactic;
        if add {
            self.considered += 1;
            self.eliminated += usize::from(eliminated);
        } else {
            self.considered -= 1;
            self.eliminated -= usize::from(eliminated);
        }
        Some(verdict)
    }
}

/// What planning one component reads besides the component itself.
pub(crate) struct Planner<'a> {
    pub(crate) disasm: &'a Disasm,
    pub(crate) config: &'a HardenConfig,
    pub(crate) mode: PayloadMode,
    pub(crate) roots: Option<&'a BTreeSet<u64>>,
    /// Whether each plan records its sites' verdicts (`redfat analyze`).
    pub(crate) report: bool,
}

thread_local! {
    /// The payload assembler of the thread planning components, reused
    /// from one component to the next so its buffers grow once per
    /// thread, not once per component.
    static PAYLOAD_ASM: RefCell<Asm> = RefCell::new(Asm::new(0));
}

impl Planner<'_> {
    /// Plans component `sub`.
    pub(crate) fn plan(&self, sub: &Cfg) -> ComponentPlan {
        // Out of its slot while the shard runs: a shard that panics
        // drops it, so no half-assembled payload reaches the thread's
        // next component.
        let mut asm = PAYLOAD_ASM.replace(Asm::new(0));
        let plan = instrument_shard(
            self.disasm,
            sub,
            self.config,
            self.mode,
            self.roots,
            self.report,
            &mut asm,
        );
        PAYLOAD_ASM.set(asm);
        plan
    }
}

/// The full pipeline, returning beside its output the analysis an edit
/// of `image` can keep.
pub(crate) fn instrument_with_analysis(
    image: &Image,
    config: &HardenConfig,
    mode: PayloadMode,
    bases: RewriteBases,
    threads: usize,
) -> Result<(Hardened, Analysis), HardenError> {
    let (analysis, _) = plan_image(image, config, mode, threads, false);
    let hardened = merge_and_rewrite(image, &analysis, 0, bases)?;
    Ok((hardened, analysis))
}

/// The pipeline up to the rewrite: disassembly, CFG recovery, each
/// component's plan on `threads` threads, and the count of the
/// instructions in no block. With `report` the planner records every
/// site's verdict, and the second value reports them all; otherwise it
/// is empty.
pub(crate) fn plan_image(
    image: &Image,
    config: &HardenConfig,
    mode: PayloadMode,
    threads: usize,
    report: bool,
) -> (Analysis, AnalysisReport) {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);

    // Unknown-entry roots are an image-wide property (the any-indirect
    // escape hatch scans every instruction): computed once here, then
    // intersected with each shard's blocks by the scoped analyses.
    let need_roots = config.elim_flow || (config.elim_redundant && mode == PayloadMode::Harden);
    let roots = need_roots.then(|| unknown_entries(&disasm, &cfg, image.entry));

    // Shard along weakly-connected CFG components (≈ functions): no
    // edge crosses a shard, so every per-shard analysis result is the
    // exact restriction of its whole-image counterpart, and the shard
    // granularity -- not the thread count -- determines the output.
    let planner = Planner {
        disasm: &disasm,
        config,
        mode,
        roots: roots.as_ref(),
        report,
    };
    // Each worker builds the sub-CFG it plans, so only as many exist at
    // once as there are threads.
    let component_blocks = cfg.component_starts();
    let mut plans = parallel_map(component_blocks.iter().collect(), threads, |starts| {
        planner.plan(&cfg.sub_cfg(starts))
    });

    // Instructions in no recovered block belong to no shard. One
    // address-ordered sweep over blocks and instructions answers
    // `cfg.block_of(addr)` for each: the last block starting at or
    // before `addr`, and whether `addr` is one of its members.
    let mut leftover = LeftoverSites::default();
    let mut sites = Vec::new();
    let mut blocks = cfg.blocks.values().peekable();
    let mut current: Option<(&Block, usize)> = None;
    for (addr, inst, _) in disasm.iter() {
        while let Some(b) = blocks.next_if(|b| b.start <= addr) {
            current = Some((b, 0));
        }
        if let Some((block, member)) = &mut current {
            while block.insts.get(*member).is_some_and(|&a| a < addr) {
                *member += 1;
            }
            if block.insts.get(*member) == Some(&addr) {
                continue;
            }
        }
        let verdict = leftover.count(config, inst, true);
        if let Some(verdict) = verdict.filter(|_| report) {
            let span = "unreached".to_string();
            sites.push(SiteReport::new(addr, inst, verdict, None, span));
        }
    }
    let mut analysis_report = AnalysisReport::default();
    if report {
        sites.extend(plans.iter_mut().flat_map(|p| std::mem::take(&mut p.sites)));
        sites.sort_unstable_by_key(|s| s.addr);
        let in_block = |addr: &&u64| cfg.blocks.contains_key(addr);
        analysis_report = AnalysisReport {
            sites,
            blocks: cfg.blocks.len(),
            insts: disasm.len(),
            roots: roots.iter().flatten().filter(in_block).count(),
        };
    }

    // The blocks are dropped here, before the rewrite.
    let Cfg {
        blocks,
        leaders,
        func_entries,
    } = cfg;
    drop(blocks);
    let analysis = Analysis {
        disasm,
        leaders,
        func_entries,
        roots,
        component_blocks,
        plans,
        leftover,
    };
    (analysis, analysis_report)
}

/// The tail the full and the edit path share: sums the per-component
/// statistics, merges the plans' batches in anchor order, builds the
/// cold library of the routines they call, in routine-id order, and
/// rewrites `image`, copying each trampoline into place. Trampoline
/// code is borrowed from the plans, not copied before that. The library
/// depends only on which routines the plans call, so an edit that adds
/// or drops none leaves every trampoline where a one-shot harden puts
/// it.
pub(crate) fn merge_and_rewrite(
    image: &Image,
    analysis: &Analysis,
    components_reused: usize,
    bases: RewriteBases,
) -> Result<Hardened, HardenError> {
    let mut stats = HardenStats {
        sites_considered: analysis.leftover.considered,
        sites_eliminated: analysis.leftover.eliminated,
        components: analysis.plans.len(),
        components_reused,
        ..HardenStats::default()
    };
    let batches = analysis.plans.iter().map(|plan| plan.batches.len()).sum();
    let mut planned: Vec<(Trampoline, ClobberInfo)> = Vec::with_capacity(batches);
    let mut skipped_sites = 0;
    let mut used = vec![false; Routine::COUNT];
    for plan in &analysis.plans {
        for c in &plan.calls {
            used[c.routine as usize] = true;
        }
        let s = &plan.stats;
        stats.sites_considered += s.sites_considered;
        stats.sites_eliminated += s.sites_eliminated;
        stats.sites_eliminated_flow += s.sites_eliminated_flow;
        stats.sites_redundant += s.sites_redundant;
        stats.sites_lowfat += s.sites_lowfat;
        stats.sites_redzone += s.sites_redzone;
        stats.checks += s.checks;
        stats.regs_saved += s.regs_saved;
        stats.flags_saved += s.flags_saved;
        stats.sites_skipped += s.sites_skipped;
        skipped_sites += s.rewrite.skipped_sites;
        let code = plan
            .code
            .as_ref()
            .map_err(|e| RewriteError::Asm(e.clone()))?;
        let (mut code_start, mut fields_start, mut calls_start) = (0, 0, 0);
        for b in &plan.batches {
            let code_end = b.code_end as usize;
            let (fields_end, calls_end) = (b.fields_end as usize, b.calls_end as usize);
            let trampoline = Trampoline {
                anchor: b.anchor,
                code: &code[code_start..code_end],
                entry: b.entry as usize,
                displaced: b.displaced,
                rip_fields: &plan.rip_fields[fields_start..fields_end],
                calls: &plan.calls[calls_start..calls_end],
            };
            planned.push((trampoline, b.clobber));
            (code_start, fields_start, calls_start) = (code_end, fields_end, calls_end);
        }
    }
    // Anchors are globally unique, so this is a total order.
    planned.sort_unstable_by_key(|(trampoline, _)| trampoline.anchor);
    stats.batches = planned.len();
    let clobbers = planned
        .iter()
        .map(|(trampoline, clobber)| (trampoline.anchor, *clobber))
        .collect();
    let trampolines: Vec<Trampoline> = planned.into_iter().map(|(t, _)| t).collect();

    let (code, entries) = library(&used).map_err(RewriteError::Asm)?;
    let library = Library {
        code: &code,
        entries: &entries,
    };
    let out = rewrite_with_bases(image, library, &trampolines, bases)?;
    stats.rewrite = RewriteStats {
        skipped_sites,
        ..out.stats
    };
    Ok(Hardened {
        image: out.image,
        stats,
        clobbers,
    })
}

/// Runs analysis and batch/payload planning for one CFG component.
/// `cfg` is a sub-`Cfg` from [`Cfg::components`]; all queries stay
/// inside its blocks, so the results equal the whole-image pipeline's
/// restricted to this component.
///
/// Each batch's trampoline -- its payload, then the instructions the
/// patch displaces and the jump back -- is assembled into `asm`, at its
/// offset from the component's first trampoline; the assembler is left
/// empty for the next component. With `report`, the plan also records
/// each site's verdict as planned.
fn instrument_shard(
    disasm: &Disasm,
    cfg: &Cfg,
    config: &HardenConfig,
    mode: PayloadMode,
    roots: Option<&BTreeSet<u64>>,
    report: bool,
    asm: &mut Asm,
) -> ComponentPlan {
    let liveness = Liveness::compute(disasm, cfg);
    let mut stats = HardenStats::default();

    // Flow-sensitive provenance (when enabled).
    let prov = config.elim_flow.then(|| {
        // Safety of the expect: the caller computes roots exactly when
        // `elim_flow || (elim_redundant && mode == Harden)` holds, and
        // this closure runs only under `elim_flow`.
        #[allow(clippy::expect_used)]
        let roots = roots.expect("roots precomputed");
        Provenance::compute_with_roots(disasm, cfg, roots)
    });

    let verdict_of = |addr: u64, inst: &Inst| {
        classify(config, inst, || {
            prov.as_ref()
                .is_some_and(|p| !p.site_can_reach_heap(disasm, cfg, addr, inst))
        })
    };
    let filter = |addr: u64, inst: &Inst| verdict_of(addr, inst) == Some(SiteVerdict::Checked);

    // Which sites the LowFat policy grants a *full* check.
    let allowed = |site: u64| match (&config.lowfat, mode) {
        (_, PayloadMode::Profile) => true,
        (LowFatPolicy::Disabled, _) => false,
        (LowFatPolicy::All, _) => true,
        (LowFatPolicy::AllowList(l), _) => l.contains(site),
    };

    // Redundant-check elimination: full checks subsumed by a dominating
    // identical full check are downgraded to redzone-only. The gen
    // predicate must be exactly "this site carries a full check", i.e.
    // the pipeline filter composed with the policy.
    let redundant = if config.elim_redundant && mode == PayloadMode::Harden {
        // Safety of the expect: this branch is the other disjunct of
        // the caller's roots-computation condition.
        #[allow(clippy::expect_used)]
        let roots = roots.expect("roots precomputed");
        Some(RedundantChecks::compute_with_roots(
            disasm,
            cfg,
            roots,
            |a, i| filter(a, i) && allowed(a),
        ))
    } else {
        None
    };
    // A site may be downgraded only when its root keeps its full check
    // (roots are non-redundant by construction, but an allow-list could
    // still withhold the root's LowFat component).
    let root_of = |site: u64| {
        redundant
            .as_ref()
            .and_then(|r| r.root_of(site))
            .filter(|&root| allowed(root))
    };

    // Classification statistics for this shard's instructions, and with
    // `report` each site's verdict.
    let mut sites: Vec<SiteReport> = Vec::new();
    for block in cfg.blocks.values() {
        for &addr in &block.insts {
            // A block member that no longer decodes (corrupt input)
            // degrades to skip-and-record instead of aborting the
            // harden.
            let Some((inst, _)) = disasm.at(addr) else {
                stats.sites_skipped += 1;
                continue;
            };
            let Some(verdict) = verdict_of(addr, inst) else {
                continue;
            };
            match verdict {
                SiteVerdict::EliminatedSyntactic => stats.sites_eliminated += 1,
                SiteVerdict::EliminatedFlow => stats.sites_eliminated_flow += 1,
                _ => {}
            }
            stats.sites_considered += 1;
            if report {
                // The owner is the nearest function entry at or below
                // the site that starts a block, as every decoded leader
                // does.
                let mut entries = cfg.func_entries.range(..=addr).rev().copied();
                let func = entries.find(|&e| disasm.at(e).is_some());
                let span = prov
                    .as_ref()
                    .map_or_else(String::new, |p| p.describe_span(disasm, cfg, addr, inst));
                sites.push(SiteReport::new(addr, inst, verdict, func, span));
            }
        }
    }

    let batching = config.batch && mode == PayloadMode::Harden;
    let batches = plan_batches(disasm, cfg, batching, filter);

    // Build and assemble each batch's trampoline; split any batch whose
    // operand registers starve the scratch allocator (extremely rare;
    // singletons always succeed).
    //
    // A displaced group stops at the next anchor. Batches run in anchor
    // order, each anchored at its first member, and the singletons of a
    // split batch run after them all. So when a batch is assembled,
    // `anchors` holds every anchor that can follow it within a group's
    // reach: one added later is a member of a batch anchored past this
    // batch's next anchor. Only this component's anchors matter: a group
    // never leaves its block but for instructions that no block holds.
    let mut planned: Vec<PlannedBatch> = Vec::new();
    let mut rip_fields: Vec<RipField> = Vec::new();
    let mut calls: Vec<CallField> = Vec::new();
    let mut failure = None;
    let mut queue: Vec<Batch> = batches;
    queue.sort_by_key(|b| b.anchor);
    let mut anchors: Vec<u64> = queue.iter().map(|b| b.anchor).collect();
    let mut qi = 0;
    while qi < queue.len() {
        let batch = queue[qi].clone();
        qi += 1;

        // Partition members by policy so merging never mixes policies.
        let (lf_members, rz_members): (Vec<u64>, Vec<u64>) =
            batch.members.iter().partition(|&&m| allowed(m));
        let mut specs: Vec<CheckSpec> = Vec::new();
        let mut batch_downgrades: Vec<u64> = Vec::new();
        // Redundant-check downgrades apply at merged-check granularity:
        // a check becomes redzone-only iff *every* site it covers is
        // subsumed by a dominating identical check. Downgrading a single
        // member would split its merge group and emit an extra check,
        // costing more than the downgrade saves.
        if !lf_members.is_empty() {
            let sub = Batch {
                anchor: batch.anchor,
                members: lf_members,
            };
            for check in merge_checks(disasm, &sub, config.merge) {
                let lowfat = !check.sites.iter().all(|&s| root_of(s).is_some());
                if !lowfat {
                    batch_downgrades.extend(&check.sites);
                }
                specs.push(CheckSpec { check, lowfat });
            }
        }
        if !rz_members.is_empty() {
            let sub = Batch {
                anchor: batch.anchor,
                members: rz_members,
            };
            for check in merge_checks(disasm, &sub, config.merge) {
                specs.push(CheckSpec {
                    check,
                    lowfat: false,
                });
            }
        }
        if specs.is_empty() {
            continue;
        }

        let dead = liveness.dead_regs_before(batch.anchor);
        let flags_dead = liveness.flags_dead_before(batch.anchor);
        let n_specs = specs.len();
        let site_counts: Vec<(usize, bool)> = specs
            .iter()
            .map(|s| (s.check.sites.len(), s.lowfat))
            .collect();
        match BatchPayload::plan(
            specs,
            &dead,
            flags_dead,
            config.size_harden,
            config.lowfat_only,
            mode,
        ) {
            Some(p) => {
                let next = anchors.get(anchors.partition_point(|&a| a <= batch.anchor));
                let Some(group) = select_group(disasm, &cfg.leaders, batch.anchor, next.copied())
                else {
                    stats.rewrite.skipped_sites += 1;
                    continue;
                };
                let start = asm.here();
                let emitted = p.emit(asm, &mut rip_fields, &mut calls).and_then(|entry| {
                    let displaced = group.emit(asm, start, &mut rip_fields)?;
                    Ok((entry, displaced))
                });
                let (entry, displaced) = match emitted {
                    Ok(emitted) => emitted,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                };
                planned.push(PlannedBatch {
                    anchor: batch.anchor,
                    code_end: asm.here() as u32,
                    entry: (entry - start) as u32,
                    fields_end: rip_fields.len() as u32,
                    calls_end: calls.len() as u32,
                    displaced,
                    clobber: ClobberInfo {
                        regs: p.clobbers.iter().fold(0, |m, r| m | 1 << r.code()),
                        flags: !p.save_flags,
                    },
                });
                stats.checks += n_specs;
                stats.regs_saved += p.saves.len();
                stats.flags_saved += p.save_flags as usize;
                stats.sites_redundant += batch_downgrades.len();
                for &site in batch_downgrades.iter().filter(|_| report) {
                    let at = sites.binary_search_by_key(&site, |s| s.addr);
                    if let (Ok(i), Some(root)) = (at, root_of(site)) {
                        sites[i].verdict = SiteVerdict::Redundant { root };
                    }
                }
                for (n, lowfat) in site_counts {
                    if lowfat {
                        stats.sites_lowfat += n;
                    } else {
                        stats.sites_redzone += n;
                    }
                }
            }
            None => {
                // Scratch starvation: fall back to singleton batches.
                for &m in &batch.members {
                    if let Err(at) = anchors.binary_search(&m) {
                        anchors.insert(at, m);
                    }
                    queue.push(Batch {
                        anchor: m,
                        members: vec![m],
                    });
                }
            }
        }
    }

    // Plans outlive the harden in kept bases: no slack.
    planned.shrink_to_fit();
    rip_fields.shrink_to_fit();
    calls.shrink_to_fit();
    let code = asm.take().and_then(|code| match u32::try_from(code.len()) {
        // The batch records hold offsets into the code as `u32`s.
        Ok(_) => Ok(code),
        Err(_) => Err(AsmError::Encode(EncodeError::OutOfRange("component code"))),
    });
    ComponentPlan {
        code: failure.map_or(code, Err),
        rip_fields,
        calls,
        batches: planned,
        stats,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_batch_saves_or_clobbers_five_registers() {
        // A harden-mode payload's save set is rax, rdx and three scratch
        // registers; each is either pushed (live) or declared clobbered
        // (dead at the anchor).
        let image = redfat_workloads::spec::by_name("gcc")
            .expect("stand-in exists")
            .image();
        let h = harden_threaded(&image, &HardenConfig::default(), 1).expect("gcc hardens");
        let clobbered: u32 = h.clobbers.iter().map(|(_, c)| c.regs.count_ones()).sum();
        let s = &h.stats;
        assert!(s.regs_saved > 0 && clobbered > 0, "both occur: {s:?}");
        assert_eq!(s.regs_saved + clobbered as usize, 5 * s.batches);
        let flag_clobbers = h.clobbers.iter().filter(|(_, c)| c.flags).count();
        assert_eq!(s.flags_saved + flag_clobbers, s.batches);
        assert_eq!(h.clobbers.len(), s.batches);
        assert!(h.clobbers.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
