//! Re-hardening an edit of the last fully hardened image.
//!
//! A full harden spends most of its analysis time on whole-image work:
//! disassembly, CFG recovery, roots and the component split. When a new
//! input differs from the last fully hardened image only inside
//! instructions that keep their length and their control flow, none of
//! that can change. [`KeptBase`] keeps it, patches the changed
//! instructions into the disassembly, re-plans only the components that
//! hold one, and runs the same merge-and-rewrite tail as the full path,
//! so the output is byte-identical to a one-shot harden. It then puts
//! back what it patched, so the base always describes the image of the
//! last full harden and every edit is planned against that image.
//!
//! Why the rest cannot change: CFG recovery and `unknown_entries` read
//! only instruction lengths, control-flow operations and branch
//! targets, so leaders, blocks, roots and the component partition of
//! the edited image equal the kept ones. A component's plan reads only
//! its own blocks' instructions, the instructions its trampolines
//! displace and that structure, so a component that holds no changed
//! instruction and displaces none keeps its plan.

use crate::checks::PayloadMode;
use crate::config::HardenConfig;
use crate::pipeline::{
    instrument_with_analysis, merge_and_rewrite, Analysis, HardenError, Hardened, Planner,
};
use redfat_analysis::cfg::Block;
use redfat_analysis::Cfg;
use redfat_elf::{Image, Segment};
use redfat_parallel::parallel_map;
use redfat_rewriter::RewriteBases;
use redfat_x86::{decode_one, Inst};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The one slot in which [`harden_cached`] keeps the analysis of the
/// last image it fully hardened, with the counts of the calls it
/// answered as an edit of that image and of those that found a kept
/// analysis but took the full path.
#[derive(Default)]
pub struct KeptBaseSlot {
    base: Mutex<Option<KeptBase>>,
    edits: AtomicU64,
    fallbacks: AtomicU64,
}

/// The benchmark's name for [`KeptBaseSlot`].
pub type MemoryComponentCache = KeptBaseSlot;

impl KeptBaseSlot {
    /// An empty slot.
    pub fn new() -> KeptBaseSlot {
        KeptBaseSlot::default()
    }

    /// Calls answered as an edit of the kept base.
    pub fn edits(&self) -> u64 {
        self.edits.load(Ordering::Relaxed)
    }

    /// Calls that found a base, were no edit of it and took the full
    /// path.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Option<KeptBase>> {
        // Each critical section is one take or one store of the whole
        // `Option`, so a panic elsewhere cannot leave it half-updated.
        self.base.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`crate::harden_threaded`] through `slot`, which keeps the analysis
/// of the last image it fully hardened: the *base*. The output, clobbers
/// and statistics, apart from [`crate::HardenStats::components_reused`],
/// equal `harden_threaded`'s.
///
/// A *CFG-preserving edit* of the base's image re-plans only the
/// components that hold a changed instruction or whose trampolines
/// displace one, counts the others as reused and leaves the base as it
/// was. That is an image with:
/// - the same config;
/// - the same entry, kind and segment table, with no executable
///   segment overlapping another;
/// - every changed code byte inside a decoded instruction that
///   re-decodes to the same length and is either unchanged or not a
///   control-flow instruction before and after;
/// - every undecodable byte before a changed one still failing to
///   decode.
///
/// Anything else takes the full path, whose analysis then replaces the
/// base; a full path that fails leaves the slot empty. A call takes the
/// base out of the slot while it runs, so concurrent calls never share
/// one: a call that finds the slot empty takes the full path.
pub fn harden_cached(
    image: &Image,
    config: &HardenConfig,
    threads: usize,
    slot: &KeptBaseSlot,
) -> Result<Hardened, HardenError> {
    let taken = slot.lock().take();
    if let Some(mut base) = taken {
        if let Some(result) = base.harden_edit(image, config, threads) {
            slot.edits.fetch_add(1, Ordering::Relaxed);
            // A base a concurrent full harden left is the newer one.
            slot.lock().get_or_insert(base);
            return result;
        }
        slot.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
    let (hardened, analysis) = instrument_with_analysis(
        image,
        config,
        PayloadMode::Harden,
        RewriteBases::default(),
        threads,
    )?;
    *slot.lock() = Some(KeptBase {
        image: image.clone(),
        config: config.canonical_bytes(),
        analysis,
    });
    Ok(hardened)
}

/// The analysis of the last fully hardened image, kept so that an edit
/// of it re-does only the components the edit touches.
struct KeptBase {
    /// The image the analysis describes.
    image: Image,
    /// The canonical bytes of the config it was hardened under.
    config: Vec<u8>,
    analysis: Analysis,
}

impl KeptBase {
    /// Hardens `image` as an edit of the kept image, as
    /// [`harden_cached`] describes, or returns `None` -- take the full
    /// path -- unless `image` is a CFG-preserving edit of it. Either way
    /// the base still describes the kept image afterwards.
    fn harden_edit(
        &mut self,
        image: &Image,
        config: &HardenConfig,
        threads: usize,
    ) -> Option<Result<Hardened, HardenError>> {
        if config.canonical_bytes() != self.config {
            return None;
        }
        let edits = self.code_edits(image)?;
        Some(self.apply(image, config, threads, edits))
    }

    /// The instructions whose bytes differ between the kept image and
    /// `image`, re-decoded from `image`, in address order; `None` unless
    /// `image` is a CFG-preserving edit (see [`harden_cached`]).
    fn code_edits(&self, image: &Image) -> Option<Vec<(u64, Inst)>> {
        let old = &self.image;
        let same_shape = |a: &Segment, b: &Segment| {
            a.vaddr == b.vaddr
                && a.flags == b.flags
                && a.mem_size == b.mem_size
                && a.data.len() == b.data.len()
        };
        if image.kind != old.kind
            || image.entry != old.entry
            || image.segments.len() != old.segments.len()
            || !old
                .segments
                .iter()
                .zip(&image.segments)
                .all(|(a, b)| same_shape(a, b))
            || exec_segment_overlaps(image)
        {
            return None;
        }
        let disasm = &self.analysis.disasm;
        let mut edits: Vec<(u64, Inst)> = Vec::new();
        let segments = old.segments.iter().zip(&image.segments);
        for (before, seg) in segments.filter(|(s, _)| s.flags.executable()) {
            let mut last_changed = None;
            for off in changed_offsets(&before.data, &seg.data) {
                let addr = seg.vaddr + off as u64;
                last_changed = Some(addr);
                let (start, old_inst, len) = disasm.containing(addr)?;
                if edits.last().is_some_and(|&(a, _)| a == start) {
                    continue;
                }
                // Every instruction lies in one segment's data, and a
                // successful decode reads only its own bytes.
                let (inst, new_len) =
                    decode_one(&seg.data[(start - seg.vaddr) as usize..], start).ok()?;
                let control = inst.is_control_flow() || old_inst.is_control_flow();
                if new_len != len || (inst != *old_inst && control) {
                    return None;
                }
                edits.push((start, inst));
            }
            // A failed decode at an undecodable byte may read bytes after
            // it, so each such byte before the last change must still
            // fail for the linear sweep to take the same path.
            if let Some(last) = last_changed {
                let gaps = disasm.unknown.iter().filter(|&&(lo, _)| lo >= seg.vaddr);
                for &(lo, hi) in gaps {
                    for at in lo..hi.min(last) {
                        let off = (at - seg.vaddr) as usize;
                        if seg
                            .data
                            .get(off..)
                            .is_some_and(|b| decode_one(b, at).is_ok())
                        {
                            return None;
                        }
                    }
                }
            }
        }
        Some(edits)
    }

    /// Patches `edits` into the kept analysis, re-plans the components
    /// they touch and rewrites `image`, then restores the kept
    /// instructions, plans and leftover counts.
    fn apply(
        &mut self,
        image: &Image,
        config: &HardenConfig,
        threads: usize,
        edits: Vec<(u64, Inst)>,
    ) -> Result<Hardened, HardenError> {
        let analysis = &mut self.analysis;
        let leftover = analysis.leftover;
        let mut kept_insts: Vec<(u64, Inst)> = Vec::with_capacity(edits.len());
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        let mut blockless: Vec<u64> = Vec::new();
        for (addr, inst) in edits {
            let Some(old) = analysis.disasm.replace(addr, inst) else {
                continue;
            };
            match block_start_of(analysis, addr) {
                Some(start) => {
                    touched.insert(start);
                }
                None => {
                    analysis.leftover.count(config, &old, false);
                    analysis.leftover.count(config, &inst, true);
                    blockless.push(addr);
                }
            }
            kept_insts.push((addr, old));
        }
        // Plans carry the instructions their trampolines displace. A
        // displaced group stays in its anchor's block, or runs past the
        // end of a block capped at `MAX_BLOCK` into instructions that no
        // block holds; a changed one of those re-plans the group's
        // component.
        let dirty: Vec<(usize, Cfg)> = analysis
            .component_blocks
            .iter()
            .zip(&analysis.plans)
            .enumerate()
            .filter(|(_, (starts, plan))| {
                starts.iter().any(|s| touched.contains(s))
                    || blockless.iter().any(|&addr| plan.displaces(addr))
            })
            .map(|(c, (starts, _))| (c, sub_cfg(analysis, starts)))
            .collect();

        let planner = Planner {
            disasm: &analysis.disasm,
            config,
            mode: PayloadMode::Harden,
            roots: analysis.roots.as_ref(),
            report: false,
        };
        let mut swapped = parallel_map(dirty, threads, |(c, sub)| (*c, planner.plan(sub)));
        let reused = analysis.plans.len() - swapped.len();
        for (c, plan) in &mut swapped {
            std::mem::swap(&mut analysis.plans[*c], plan);
        }
        let hardened = merge_and_rewrite(image, analysis, reused, RewriteBases::default());
        for (c, plan) in swapped {
            analysis.plans[c] = plan;
        }
        for (addr, old) in kept_insts {
            analysis.disasm.replace(addr, old);
        }
        analysis.leftover = leftover;
        hardened
    }
}

/// The block `analysis` re-slices at `start`.
fn slice(analysis: &Analysis, start: u64) -> Option<Block> {
    Cfg::slice_block(
        &analysis.disasm,
        &analysis.leaders,
        &analysis.func_entries,
        start,
    )
}

/// The start of the recovered block holding `addr`, if any. Blocks start
/// at the leaders where an instruction starts and end before the next
/// one, so only the last such leader at or before `addr` can start it.
fn block_start_of(analysis: &Analysis, addr: u64) -> Option<u64> {
    let disasm = &analysis.disasm;
    let start = *analysis
        .leaders
        .range(..=addr)
        .rev()
        .find(|&&l| disasm.at(l).is_some())?;
    let block = slice(analysis, start)?;
    block.insts.binary_search(&addr).is_ok().then_some(start)
}

/// The sub-`Cfg` of the blocks starting at `starts`, re-sliced: what
/// [`Cfg::components`] returned for the component they make up.
fn sub_cfg(analysis: &Analysis, starts: &[u64]) -> Cfg {
    Cfg {
        blocks: starts
            .iter()
            .filter_map(|&s| Some((s, slice(analysis, s)?)))
            .collect(),
        leaders: Arc::clone(&analysis.leaders),
        func_entries: Arc::clone(&analysis.func_entries),
    }
}

/// The offsets at which `a` and `b`, of equal length, differ, in
/// ascending order. Equal 64-byte chunks are skipped by one slice
/// comparison each.
fn changed_offsets<'a>(a: &'a [u8], b: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
    const CHUNK: usize = 64;
    a.chunks(CHUNK)
        .zip(b.chunks(CHUNK))
        .enumerate()
        .filter(|(_, (x, y))| x != y)
        .flat_map(|(i, (x, y))| {
            (0..x.len())
                .filter(move |&k| x[k] != y[k])
                .map(move |k| i * CHUNK + k)
        })
}

/// Whether an executable segment overlaps another segment. Extents are
/// measured as the loader measures them: the larger of file and memory
/// size, with empty segments skipped. Where segments overlap, the
/// disassembler keeps the instruction decoded last while a byte
/// comparison reads each segment's own data, so no edit of such an
/// image is taken.
fn exec_segment_overlaps(image: &Image) -> bool {
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
