//! The hardening pipeline: disassemble → CFG → batches → checks →
//! trampoline rewrite, plus the §5 two-phase profiling workflow.

use crate::allowlist::AllowList;
use crate::checks::{BatchPayload, CheckSpec, PayloadMode};
use crate::config::{HardenConfig, LowFatPolicy};
use crate::digest::{image_digest, Digest, Sha256, TOOL_VERSION};
use redfat_analysis::cfg::Block;
use redfat_analysis::{can_reach_heap, unknown_entries, Disasm, Provenance, RedundantChecks};
use redfat_analysis::{disassemble, merge_checks, plan_batches, Batch, Cfg, Liveness};
use redfat_elf::Image;
use redfat_emu::ProfileStats;
use redfat_parallel::parallel_map;
use redfat_rewriter::{
    rewrite_with_bases, Patch, RewriteBases, RewriteError, RewriteStats, RipField,
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
    /// Components whose analysis/planning results were served from a
    /// [`ComponentCache`] instead of being recomputed. Always zero when
    /// no cache is supplied; equal to [`Self::components`] on a fully
    /// warm incremental re-harden.
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

/// Default pipeline parallelism: the `REDFAT_THREADS` environment
/// variable when set to a positive integer, else 1 (serial). The
/// conservative default keeps single-workload experiment runs serial;
/// callers wanting machine-wide parallelism use [`harden_threaded`]
/// with an explicit count.
fn default_threads() -> usize {
    std::env::var("REDFAT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Hardens `image` under `config` (paper §3/§6; production phase of §5
/// when the policy is an allow-list).
pub fn harden(image: &Image, config: &HardenConfig) -> Result<Hardened, HardenError> {
    harden_threaded(image, config, default_threads())
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
    instrument(image, config, PayloadMode::Harden, bases, default_threads())
}

/// Builds the §5 *profiling* binary: every heap-reachable access is
/// instrumented to record whether its (LowFat) check passes, via
/// `PROFILE_EVENT`. Run it against a test suite with
/// [`crate::run_once`], then feed the collected counters to
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
    instrument(
        image,
        &config,
        PayloadMode::Profile,
        bases,
        default_threads(),
    )
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

/// How one memory access is handled by the pipeline, as decided by the
/// shared classification closure. One value drives both the statistics
/// accounting and the batch/redundant site filters, so the two can
/// never disagree about a site.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SiteClass {
    /// No memory access, or filtered out by the read/write policy.
    NotSite,
    /// Eliminated by the syntactic non-heap rule.
    ElimSyntactic,
    /// Additionally eliminated by flow-sensitive provenance.
    ElimFlow,
    /// Receives instrumentation.
    Instrument,
}

/// The per-component output of the analysis + planning stages:
/// everything the serial rewrite needs, in a form that merges
/// deterministically, with each batch's payload already assembled.
/// Opaque to callers -- it exists publicly only so [`ComponentCache`]
/// implementations can hold and hand back plans.
pub struct ComponentPlan {
    /// The batches' payloads back to back, in `batches` order, or the
    /// failure that stopped their assembly.
    code: Result<Vec<u8>, AsmError>,
    /// The payloads' rip-relative fields, in `batches` order, each at
    /// its offset from its own payload's start.
    rip_fields: Vec<RipField>,
    batches: Vec<PlannedBatch>,
    stats: HardenStats,
}

/// One batch of a [`ComponentPlan`]: its anchor, where its payload
/// lies in the plan's code and fields, and its clobbers. A payload
/// starts where the previous batch's ends.
struct PlannedBatch {
    anchor: u64,
    /// One past the payload's last byte in the plan's code.
    code_end: u32,
    /// The payload's entry, as an offset from its start.
    entry: u32,
    /// One past the payload's last field in the plan's `rip_fields`.
    fields_end: u32,
    clobber: ClobberInfo,
}

/// A cache of per-CFG-component analysis/planning results, keyed by a
/// content digest over everything the component's analysis can observe
/// (instruction bytes, block structure, roots, function entries,
/// config, mode, tool version -- see `component_key`). Equal key
/// therefore implies equal plan, so a `get` hit may be substituted for
/// recomputation without changing the hardened output by a single
/// byte.
///
/// Implementations must be safe to call from the analysis worker
/// threads. `put` may be called concurrently for the same key with
/// equal plans; keeping either is correct.
pub trait ComponentCache: Sync {
    /// Looks up a previously published plan.
    fn get(&self, key: &Digest) -> Option<Arc<ComponentPlan>>;
    /// Publishes a freshly computed plan.
    fn put(&self, key: &Digest, plan: Arc<ComponentPlan>);
}

/// [`harden_threaded`] with a [`ComponentCache`]: per-component
/// analysis results are reused when a component's key (byte content +
/// analysis context) matches a cached entry, and newly computed
/// results are published for future runs. The output is byte-identical
/// to an uncached run; [`HardenStats::components_reused`] reports how
/// much analysis was skipped.
pub fn harden_cached(
    image: &Image,
    config: &HardenConfig,
    threads: usize,
    cache: &dyn ComponentCache,
) -> Result<Hardened, HardenError> {
    instrument_with_cache(
        image,
        config,
        PayloadMode::Harden,
        RewriteBases::default(),
        threads,
        Some(cache),
    )
    .map(|(hardened, _)| hardened)
}

/// The digest prefix shared by every component key of one (image,
/// config, mode) run: tool version, canonical config, payload mode,
/// and -- when an executable segment overlaps another segment -- the
/// whole-image digest. Where segments overlap, the bytes at an address
/// are no longer one segment's: the disassembler keeps the instruction
/// decoded last, while a key reads the first segment holding the
/// address. Folding the image digest into the prefix keeps the key
/// sound at the cost of degrading reuse to whole-image granularity, for
/// images the loader rejects anyway (`LoadError::SegmentOverlap`).
pub(crate) fn cache_prefix(image: &Image, config: &HardenConfig, mode: PayloadMode) -> Digest {
    let mut h = Sha256::new();
    let tool = TOOL_VERSION.as_bytes();
    h.update_u64(tool.len() as u64);
    h.update(tool);
    let cfg_bytes = config.canonical_bytes();
    h.update_u64(cfg_bytes.len() as u64);
    h.update(&cfg_bytes);
    h.update(&[match mode {
        PayloadMode::Harden => 1,
        PayloadMode::Profile => 2,
    }]);
    if exec_segment_overlaps(image) {
        h.update(image_digest(image).as_bytes());
    }
    h.finalize()
}

/// Whether an executable segment overlaps another segment. Extents are
/// measured as the loader measures them: the larger of file and memory
/// size, with empty segments skipped.
pub(crate) fn exec_segment_overlaps(image: &Image) -> bool {
    let extents: Vec<(bool, u64, u64)> = image
        .segments
        .iter()
        .map(|s| {
            let size = s.mem_size.max(s.data.len() as u64);
            (s.flags.executable(), s.vaddr, s.vaddr.saturating_add(size))
        })
        .collect();
    extents.iter().enumerate().any(|(i, &(exec, lo, hi))| {
        exec && lo < hi
            && extents
                .iter()
                .enumerate()
                .any(|(j, &(_, olo, ohi))| i != j && olo < ohi && lo < ohi && olo < hi)
    })
}

/// The content key for one component: the run prefix plus every input
/// the shard analysis can observe. Each block enters as
///
/// - one structure record: start, member count, end (one past the last
///   member's last byte), successors, the opaque-exit flag, the global
///   leaders in `[start, end)` (block splits seen by in-block planning),
///   and the unknown-entry roots and function entries among its
///   members, each list found by one range over the block's own span
///   and preceded by its length;
/// - one byte per member: its length, 0 if it no longer decodes, with
///   the top bit set when the member does not start where the previous
///   one ended -- its address then follows -- so the encoding stays
///   unambiguous;
/// - its code bytes: in one `update` for the usual block, whose members
///   run back to back (see [`update_code`]).
///
/// A byte change anywhere in the component (or in context it can see)
/// changes the key; a change elsewhere in the image leaves it
/// untouched, which is exactly the incremental-reuse granularity.
fn component_key(
    prefix: &Digest,
    disasm: &Disasm,
    image: &Image,
    sub: &Cfg,
    roots: Option<&BTreeSet<u64>>,
) -> Digest {
    let mut h = Sha256::new();
    h.update(prefix.as_bytes());
    h.update_u64(sub.blocks.len() as u64);
    let mut lens: Vec<u8> = Vec::new();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut record: Vec<u8> = Vec::new();
    for block in sub.blocks.values() {
        // Members ascend from `block.start` by construction; `runs`
        // collects the address ranges of back-to-back decodable ones.
        lens.clear();
        runs.clear();
        let mut expected = Some(block.start);
        let mut end = block.start;
        for &addr in &block.insts {
            let len = disasm.at(addr).map_or(0, |&(_, len)| len);
            if expected == Some(addr) {
                lens.push(len);
            } else {
                lens.push(0x80 | len);
                lens.extend_from_slice(&addr.to_le_bytes());
            }
            // A member that no longer decodes degrades the shard to
            // skip-and-record and ends the run; it spans one byte.
            let next = addr.saturating_add(u64::from(len.max(1)));
            end = end.max(next);
            expected = (len > 0).then_some(next);
            match runs.last_mut() {
                Some(run) if run.1 == addr && len > 0 => run.1 = next,
                _ if len > 0 => runs.push((addr, next)),
                _ => {}
            }
        }
        record.clear();
        for v in [block.start, block.insts.len() as u64, end] {
            record.extend_from_slice(&v.to_le_bytes());
        }
        put_list(&mut record, block.succs.iter().copied());
        record.push(u8::from(block.opaque_exit));
        put_list(&mut record, sub.leaders.range(block.start..end).copied());
        // `None` (the analyses that need roots are disabled) must hash
        // differently from "enabled with no roots in this block".
        match roots {
            Some(roots) => put_list(&mut record, members_in(roots, block, end)),
            None => record.extend_from_slice(&u64::MAX.to_le_bytes()),
        }
        put_list(&mut record, members_in(&sub.func_entries, block, end));
        record.extend_from_slice(&lens);
        h.update(&record);
        for &(lo, hi) in &runs {
            update_code(&mut h, image, lo, hi);
        }
    }
    h.finalize()
}

/// The addresses of `set` that are members of `block`, whose members
/// lie in `[block.start, end)`.
fn members_in<'a>(
    set: &'a BTreeSet<u64>,
    block: &'a Block,
    end: u64,
) -> impl Iterator<Item = u64> + 'a {
    set.range(block.start..end)
        .copied()
        .filter(|a| block.insts.binary_search(a).is_ok())
}

/// Appends `items` to `record` as a little-endian `u64` count followed
/// by the items.
fn put_list(record: &mut Vec<u8>, items: impl Iterator<Item = u64>) {
    let at = record.len();
    record.extend_from_slice(&0u64.to_le_bytes());
    let mut count = 0u64;
    for item in items {
        record.extend_from_slice(&item.to_le_bytes());
        count += 1;
    }
    record[at..at + 8].copy_from_slice(&count.to_le_bytes());
}

/// Absorbs the code bytes in `[lo, hi)` from the data of the executable
/// segments, where the disassembler decoded them: one `update` when one
/// segment holds the range, one per segment when it runs from one
/// segment into the next, so every byte is hashed from the segment it
/// lies in.
fn update_code(h: &mut Sha256, image: &Image, mut lo: u64, hi: u64) {
    while lo < hi {
        let piece = image.exec_segments().find_map(|seg| {
            let off = usize::try_from(lo.checked_sub(seg.vaddr)?).ok()?;
            let data = seg.data.get(off..)?;
            let len = usize::try_from(hi - lo).map_or(data.len(), |n| n.min(data.len()));
            (len > 0).then(|| &data[..len])
        });
        let Some(bytes) = piece else {
            // Decodable members lie in executable segment data, so this
            // cannot happen for a recovered block; a marker keeps the
            // encoding total anyway.
            h.update_u64(u64::MAX);
            return;
        };
        h.update(bytes);
        lo += bytes.len() as u64;
    }
}

fn instrument(
    image: &Image,
    config: &HardenConfig,
    mode: PayloadMode,
    bases: RewriteBases,
    threads: usize,
) -> Result<Hardened, HardenError> {
    instrument_with_cache(image, config, mode, bases, threads, None).map(|(hardened, _)| hardened)
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
    pub(crate) plans: Vec<Arc<ComponentPlan>>,
    /// The statistics of the instructions in no recovered block.
    pub(crate) leftover: LeftoverSites,
}

/// How the instructions in no recovered block count in
/// [`HardenStats`]: they belong to no component, are never
/// instrumented, and their flow facts are `None`, so only the
/// syntactic rule can eliminate them.
#[derive(Clone, Copy, Default)]
pub(crate) struct LeftoverSites {
    considered: usize,
    eliminated: usize,
}

impl LeftoverSites {
    /// Adds `inst`'s contribution, or removes it when `add` is false.
    pub(crate) fn count(&mut self, config: &HardenConfig, inst: &Inst, add: bool) {
        let Some(mem) = inst.memory_access() else {
            return;
        };
        if !config.instrument_reads && !inst.writes_memory() {
            return;
        }
        let eliminated = config.elim && !can_reach_heap(&mem);
        if add {
            self.considered += 1;
            self.eliminated += usize::from(eliminated);
        } else {
            self.considered -= 1;
            self.eliminated -= usize::from(eliminated);
        }
    }
}

/// What planning one component reads besides the component itself.
pub(crate) struct Planner<'a> {
    pub(crate) disasm: &'a Disasm,
    pub(crate) image: &'a Image,
    pub(crate) config: &'a HardenConfig,
    pub(crate) mode: PayloadMode,
    pub(crate) roots: Option<&'a BTreeSet<u64>>,
    /// The component cache and this run's key prefix.
    pub(crate) cache: Option<(&'a dyn ComponentCache, Digest)>,
}

thread_local! {
    /// The payload assembler of the thread planning components, reused
    /// from one component to the next so its buffers grow once per
    /// thread, not once per component.
    static PAYLOAD_ASM: RefCell<Asm> = RefCell::new(Asm::new(0));
}

impl Planner<'_> {
    /// Plans component `sub`: with a cache, its plan is first looked up
    /// by content key -- a hit substitutes the cached plan for
    /// recomputation (same plan by the key's soundness argument), a miss
    /// computes and publishes. The flag says whether the plan was
    /// reused.
    pub(crate) fn plan(&self, sub: &Cfg) -> (Arc<ComponentPlan>, bool) {
        let fresh = || {
            // Out of its slot while the shard runs: a shard that panics
            // drops it, so no half-assembled payload reaches the
            // thread's next component.
            let mut asm = PAYLOAD_ASM.replace(Asm::new(0));
            let plan = instrument_shard(
                self.disasm,
                sub,
                self.config,
                self.mode,
                self.roots,
                &mut asm,
            );
            PAYLOAD_ASM.set(asm);
            Arc::new(plan)
        };
        let Some((cache, prefix)) = &self.cache else {
            return (fresh(), false);
        };
        let key = component_key(prefix, self.disasm, self.image, sub, self.roots);
        if let Some(plan) = cache.get(&key) {
            return (plan, true);
        }
        let plan = fresh();
        cache.put(&key, plan.clone());
        (plan, false)
    }
}

/// The full pipeline, returning beside its output the analysis an edit
/// of `image` can keep.
pub(crate) fn instrument_with_cache(
    image: &Image,
    config: &HardenConfig,
    mode: PayloadMode,
    bases: RewriteBases,
    threads: usize,
    cache: Option<&dyn ComponentCache>,
) -> Result<(Hardened, Analysis), HardenError> {
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
        image,
        config,
        mode,
        roots: roots.as_ref(),
        cache: cache.map(|c| (c, cache_prefix(image, config, mode))),
    };
    // Each worker builds the sub-CFG it plans, so only as many exist at
    // once as there are threads.
    let component_blocks = cfg.component_starts();
    let shards = parallel_map(component_blocks.iter().collect(), threads, |starts| {
        planner.plan(&cfg.sub_cfg(starts))
    });
    let reused = shards.iter().filter(|(_, reused)| *reused).count();
    let plans = shards.into_iter().map(|(plan, _)| plan).collect();

    // Instructions in no recovered block belong to no shard. One
    // address-ordered sweep over blocks and instructions answers
    // `cfg.block_of(addr)` for each: the last block starting at or
    // before `addr`, and whether `addr` is one of its members.
    let mut leftover = LeftoverSites::default();
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
        leftover.count(config, inst, true);
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
    let hardened = merge_and_rewrite(image, &analysis, reused, bases)?;
    Ok((hardened, analysis))
}

/// The tail the full and the edit path share: sums the per-component
/// statistics, merges the plans' batches in anchor order and rewrites
/// `image`, copying each payload into place. Payload code is borrowed
/// from the plans, not copied before that.
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
    let mut planned: Vec<(Patch, ClobberInfo)> = Vec::with_capacity(batches);
    for plan in &analysis.plans {
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
        let code = plan
            .code
            .as_ref()
            .map_err(|e| RewriteError::Asm(e.clone()))?;
        let (mut code_start, mut fields_start) = (0, 0);
        for b in &plan.batches {
            let (code_end, fields_end) = (b.code_end as usize, b.fields_end as usize);
            let patch = Patch {
                anchor: b.anchor,
                code: &code[code_start..code_end],
                entry: b.entry as usize,
                rip_fields: &plan.rip_fields[fields_start..fields_end],
            };
            planned.push((patch, b.clobber));
            (code_start, fields_start) = (code_end, fields_end);
        }
    }
    // Anchors are globally unique, so this is a total order.
    planned.sort_unstable_by_key(|(patch, _)| patch.anchor);
    stats.batches = planned.len();
    let clobbers = planned
        .iter()
        .map(|(patch, clobber)| (patch.anchor, *clobber))
        .collect();
    let patches: Vec<Patch> = planned.into_iter().map(|(patch, _)| patch).collect();

    let out = rewrite_with_bases(image, &analysis.disasm, &analysis.leaders, &patches, bases)?;
    stats.rewrite = out.stats;
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
/// Each batch's payload is assembled into `asm`, at its offset from the
/// component's first payload; the assembler is left empty for the next
/// component.
fn instrument_shard(
    disasm: &Disasm,
    cfg: &Cfg,
    config: &HardenConfig,
    mode: PayloadMode,
    roots: Option<&BTreeSet<u64>>,
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

    // The shared classification: read/write policy + (optionally)
    // syntactic and flow-sensitive check elimination.
    let classify = |addr: u64, inst: &Inst| {
        let Some(mem) = inst.memory_access() else {
            return SiteClass::NotSite;
        };
        if !config.instrument_reads && !inst.writes_memory() {
            return SiteClass::NotSite;
        }
        if config.elim && !can_reach_heap(&mem) {
            return SiteClass::ElimSyntactic;
        }
        if let Some(p) = &prov {
            if !p.site_can_reach_heap(disasm, cfg, addr, inst) {
                return SiteClass::ElimFlow;
            }
        }
        SiteClass::Instrument
    };
    let filter = |addr: u64, inst: &Inst| classify(addr, inst) == SiteClass::Instrument;

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
    let downgraded = |site: u64| {
        redundant
            .as_ref()
            .and_then(|r| r.root_of(site))
            .is_some_and(&allowed)
    };

    // Classification statistics for this shard's instructions.
    for block in cfg.blocks.values() {
        for &addr in &block.insts {
            // A block member that no longer decodes (corrupt input)
            // degrades to skip-and-record instead of aborting the
            // harden.
            let Some((inst, _)) = disasm.at(addr) else {
                stats.sites_skipped += 1;
                continue;
            };
            match classify(addr, inst) {
                SiteClass::NotSite => continue,
                SiteClass::ElimSyntactic => stats.sites_eliminated += 1,
                SiteClass::ElimFlow => stats.sites_eliminated_flow += 1,
                SiteClass::Instrument => {}
            }
            stats.sites_considered += 1;
        }
    }

    let batching = config.batch && mode == PayloadMode::Harden;
    let batches = plan_batches(disasm, cfg, batching, filter);

    // Build and assemble payloads; split any batch whose operand
    // registers starve the scratch allocator (extremely rare; singletons
    // always succeed).
    let mut planned: Vec<PlannedBatch> = Vec::new();
    let mut rip_fields: Vec<RipField> = Vec::new();
    let mut failure = None;
    let mut queue: Vec<Batch> = batches;
    let mut qi = 0;
    while qi < queue.len() {
        let batch = queue[qi].clone();
        qi += 1;

        // Partition members by policy so merging never mixes policies.
        let (lf_members, rz_members): (Vec<u64>, Vec<u64>) =
            batch.members.iter().partition(|&&m| allowed(m));
        let mut specs: Vec<CheckSpec> = Vec::new();
        let mut batch_redundant = 0usize;
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
                let lowfat = !check.sites.iter().all(|&s| downgraded(s));
                if !lowfat {
                    batch_redundant += check.sites.len();
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
                let start = asm.here();
                let entry = match p.emit(asm, &mut rip_fields) {
                    Ok(entry) => entry,
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
                    clobber: ClobberInfo {
                        regs: p.clobbers.iter().fold(0, |m, r| m | 1 << r.code()),
                        flags: !p.save_flags,
                    },
                });
                stats.checks += n_specs;
                stats.regs_saved += p.saves.len();
                stats.flags_saved += p.save_flags as usize;
                stats.sites_redundant += batch_redundant;
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
                    queue.push(Batch {
                        anchor: m,
                        members: vec![m],
                    });
                }
            }
        }
    }

    // Plans outlive the harden in caches and kept bases: no slack.
    planned.shrink_to_fit();
    rip_fields.shrink_to_fit();
    let code = asm.take().and_then(|code| match u32::try_from(code.len()) {
        // The batch records hold offsets into the code as `u32`s.
        Ok(_) => Ok(code),
        Err(_) => Err(AsmError::Encode(EncodeError::OutOfRange("component code"))),
    });
    ComponentPlan {
        code: failure.map_or(code, Err),
        rip_fields,
        batches: planned,
        stats,
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
