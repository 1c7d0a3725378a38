//! Re-hardening an edit of a kept image.
//!
//! A full harden spends most of its analysis time on whole-image work:
//! disassembly, CFG recovery, roots, the component split and one key
//! per component. When a new input differs from the last hardened image
//! only inside instructions that keep their length and their control
//! flow, none of that can change. [`KeptBase`] keeps it, patches the
//! changed instructions into the disassembly, re-plans only the
//! components that hold one, and runs the same merge-and-rewrite tail
//! as the full path, so the output is byte-identical to a one-shot
//! harden.
//!
//! Why the rest cannot change: CFG recovery and `unknown_entries` read
//! only instruction lengths, control-flow operations and branch
//! targets, so leaders, blocks, roots and the component partition of
//! the edited image equal the kept ones. Every other component's key
//! reads only its own blocks' bytes and that structure, so its plan is
//! the kept one.

use crate::checks::PayloadMode;
use crate::config::HardenConfig;
use crate::pipeline::{
    cache_prefix, exec_segment_overlaps, instrument_with_cache, merge_and_rewrite, Analysis,
    ComponentCache, HardenError, Hardened, Planner,
};
use redfat_analysis::cfg::Block;
use redfat_analysis::Cfg;
use redfat_elf::{Image, Segment};
use redfat_parallel::parallel_map;
use redfat_rewriter::RewriteBases;
use redfat_x86::{decode_one, Inst};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The analysis of the last hardened image, kept so that an edit of it
/// re-does only the components the edit touches. Built by
/// [`KeptBase::harden`]; advanced by each successful
/// [`KeptBase::harden_edit`].
pub struct KeptBase {
    /// The image the analysis describes.
    image: Image,
    /// The canonical bytes of the config it was hardened under.
    config: Vec<u8>,
    analysis: Analysis,
}

impl KeptBase {
    /// [`crate::harden_cached`], keeping the analysis for later edits of
    /// `image`.
    pub fn harden(
        image: &Image,
        config: &HardenConfig,
        threads: usize,
        cache: &dyn ComponentCache,
    ) -> Result<(Hardened, KeptBase), HardenError> {
        let (hardened, analysis) = instrument_with_cache(
            image,
            config,
            PayloadMode::Harden,
            RewriteBases::default(),
            threads,
            Some(cache),
        )?;
        let base = KeptBase {
            image: image.clone(),
            config: config.canonical_bytes(),
            analysis,
        };
        Ok((hardened, base))
    }

    /// Hardens `image` as an edit of the kept image, with output, stats
    /// (apart from [`crate::HardenStats::components_reused`]) and
    /// clobbers identical to [`crate::harden_cached`]'s. Components that
    /// hold no changed instruction count as reused; those that do are
    /// re-keyed and planned through `cache`.
    ///
    /// Returns `None` -- take the full path -- unless `image` is a
    /// *CFG-preserving edit* of the kept image:
    /// - the same config, not interprocedural (its summaries are
    ///   whole-image);
    /// - the same entry, kind and segment table, with no executable
    ///   segment overlapping another;
    /// - every changed code byte lies inside a decoded instruction that
    ///   re-decodes to the same length and is either unchanged or not a
    ///   control-flow instruction before and after;
    /// - every undecodable byte before a changed one still fails to
    ///   decode.
    ///
    /// After `None` the base is unchanged. After `Some` it describes
    /// `image`, whatever the rewrite returned.
    pub fn harden_edit(
        &mut self,
        image: &Image,
        config: &HardenConfig,
        threads: usize,
        cache: &dyn ComponentCache,
    ) -> Option<Result<Hardened, HardenError>> {
        if config.interproc || config.canonical_bytes() != self.config {
            return None;
        }
        let edits = self.code_edits(image)?;
        Some(self.apply(image, config, threads, cache, edits))
    }

    /// The instructions whose bytes differ between the kept image and
    /// `image`, re-decoded from `image`, in address order; `None` unless
    /// `image` is a CFG-preserving edit (see [`KeptBase::harden_edit`]).
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
    /// they touch and rewrites `image`.
    fn apply(
        &mut self,
        image: &Image,
        config: &HardenConfig,
        threads: usize,
        cache: &dyn ComponentCache,
        edits: Vec<(u64, Inst)>,
    ) -> Result<Hardened, HardenError> {
        let analysis = &mut self.analysis;
        let mut touched: BTreeSet<u64> = BTreeSet::new();
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
                }
            }
        }
        let dirty: Vec<(usize, Cfg)> = analysis
            .component_blocks
            .iter()
            .enumerate()
            .filter(|(_, starts)| starts.iter().any(|s| touched.contains(s)))
            .map(|(c, starts)| (c, sub_cfg(analysis, starts)))
            .collect();

        let planner = Planner {
            disasm: &analysis.disasm,
            image,
            config,
            mode: PayloadMode::Harden,
            roots: analysis.roots.as_ref(),
            summaries: None,
            cache: Some((cache, cache_prefix(image, config, PayloadMode::Harden))),
        };
        let untouched = analysis.plans.len() - dirty.len();
        let replanned = parallel_map(dirty, threads, |(c, sub)| (*c, planner.plan(sub)));
        let mut reused = untouched;
        for (c, (plan, hit)) in replanned {
            analysis.plans[c] = plan;
            reused += usize::from(hit);
        }
        self.image = image.clone();
        merge_and_rewrite(image, &self.analysis, reused, RewriteBases::default())
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
