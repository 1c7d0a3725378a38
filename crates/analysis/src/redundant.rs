//! Dominator-based redundant-check elimination (paper §6, "check
//! elimination" extended across instructions).
//!
//! If site A performs a full (Redzone + LowFat) check of `disp_A(base,
//! index, scale)` and site B, *strictly dominated* by A, checks the same
//! operand shape with a byte range contained in A's -- and no register
//! feeding the address is modified on **any** path from A to B, and no
//! call/syscall intervenes (so the heap cannot have been freed or
//! remapped in between) -- then B's low-fat bounds check is redundant:
//! the address was already proven in-bounds for its object. B keeps a
//! redzone-only check (cheap, catches adjacent-overflow writes) and
//! drops the expensive bounds computation.
//!
//! This module reports the per-site analysis result; the hardening
//! pipeline applies the downgrade at *merged-check* granularity (a
//! merged check flips to redzone-only iff all its sites are subsumed),
//! so a downgrade never splits a merge group into two checks.
//!
//! # Mechanics
//!
//! This is an *available-checks* forward dataflow problem on the
//! [`ForwardAnalysis`] framework:
//!
//! * Fact: a map from operand **shape** (seg/base/index/scale/rip,
//!   displacement excluded) to the dominating checked site and the byte
//!   range it proved.
//! * Transfer: a checked site *generates* its entry (unless the
//!   instruction overwrites one of its own address registers); any write
//!   to a register *kills* every shape using it; `call`/`callind`/
//!   `syscall`/`ret`/`jmpind` clear the whole map (unknown code may
//!   `free` the object or re-enter anywhere).
//! * Join: set intersection keeping only entries identical on both
//!   paths. Identical-site survival on every incoming path implies the
//!   generating site dominates the join point; this is re-validated
//!   against the [`DomTree`] before an elimination is recorded.
//!
//! Redundancy is sound for the low-fat *bounds* portion only: between A
//! and B the heap state is unchanged (no calls), the address registers
//! are unchanged, and B's accessed bytes are a subset of A's proven
//! range. The redzone probe is retained at B because redzone state is a
//! property of object *contents* (freed-object poisoning) with cheaper
//! invariants -- mirroring the paper's merged-check fallback.

use crate::cfg::Cfg;
use crate::dataflow::{solve_forward, unknown_entries, ForwardAnalysis};
use crate::disasm::Disasm;
use crate::domtree::DomTree;
use redfat_x86::{Inst, Mem, Op, Seg};
use std::collections::BTreeMap;

/// Operand shape: a memory operand with the displacement abstracted
/// away. Two accesses with equal shapes address the same object
/// provided the registers involved are unmodified in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Shape {
    seg: u8,
    base: u8,
    index: u8,
    scale: u8,
    rip: bool,
}

/// Register-code sentinel for "no register" in a [`Shape`].
const NO_REG: u8 = 0xFF;

impl Shape {
    fn of(mem: &Mem) -> Shape {
        Shape {
            seg: match mem.seg {
                None => 0,
                Some(Seg::Fs) => 1,
                Some(Seg::Gs) => 2,
            },
            base: mem.base.map_or(NO_REG, |r| r.code()),
            index: mem.index.map_or(NO_REG, |r| r.code()),
            scale: if mem.index.is_some() { mem.scale } else { 1 },
            rip: mem.rip,
        }
    }

    /// `true` when the shape reads any register whose bit is set in
    /// `mask` (an instruction's write mask).
    fn uses_mask(&self, mask: u16) -> bool {
        [self.base, self.index]
            .into_iter()
            .any(|c| c < 16 && mask & (1u16 << c) != 0)
    }
}

/// One available check: the generating site and the byte range
/// (displacement-relative, half-open) it proved in-bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avail {
    /// Address of the instruction whose full check proved the range.
    pub site: u64,
    /// First proven byte offset (the operand displacement).
    pub lo: i64,
    /// One past the last proven byte offset.
    pub hi: i64,
}

struct AvailableChecks<F> {
    checked: F,
}

impl<F: Fn(u64, &Inst) -> bool> ForwardAnalysis for AvailableChecks<F> {
    type Fact = BTreeMap<Shape, Avail>;

    fn boundary(&self) -> Self::Fact {
        // Unknown entries carry no available checks.
        BTreeMap::new()
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        // Must-analysis: keep only entries available, with identical
        // provenance, on both paths.
        a.iter()
            .filter(|(k, v)| b.get(k) == Some(v))
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    fn widen(&self, _prev: &Self::Fact, next: &Self::Fact) -> Self::Fact {
        // Entry facts only ever shrink under the intersection join, so
        // the chain is finite; widening never actually fires, but pass
        // `next` through rather than dropping to the empty boundary.
        next.clone()
    }

    fn transfer(&self, addr: u64, inst: &Inst, fact: &mut Self::Fact) {
        // Unknown code may free heap objects or re-enter anywhere:
        // nothing survives a call edge.
        if matches!(
            inst.op,
            Op::Call | Op::CallInd | Op::Syscall | Op::Ret | Op::JmpInd
        ) {
            fact.clear();
            return;
        }
        let gen = if (self.checked)(addr, inst) {
            inst.memory_access()
                .map(|m| (m, i64::from(inst.access_len().unwrap_or(8))))
        } else {
            None
        };
        let written = inst.regs_written_mask();
        if written != 0 {
            fact.retain(|shape, _| !shape.uses_mask(written));
        }
        if let Some((mem, len)) = gen {
            // The check observed the *pre-instruction* register values;
            // if the instruction overwrites one of them the shape no
            // longer describes the checked address.
            if !mem.regs().any(|r| written & (1 << r.code()) != 0) {
                let key = Shape::of(&mem);
                let (lo, hi) = (mem.disp, mem.disp + len);
                match fact.get(&key) {
                    // An earlier, still-valid check already subsumes
                    // this one; keep the earlier root so later sites
                    // chain to it directly.
                    Some(av) if av.lo <= lo && hi <= av.hi => {}
                    _ => {
                        fact.insert(key, Avail { site: addr, lo, hi });
                    }
                }
            }
        }
    }
}

/// Result of the pass: every check site proven redundant, mapped to the
/// dominating root site whose full check subsumes it.
pub struct RedundantChecks {
    redundant: BTreeMap<u64, u64>,
}

impl RedundantChecks {
    /// Runs the available-checks analysis and dominance validation.
    ///
    /// `checked` must be exactly the predicate the instrumentation
    /// pipeline uses to decide which sites receive a *full* check
    /// (after syntactic and flow-sensitive elimination): only such
    /// sites can generate availability, and only such sites are
    /// candidates for downgrading.
    pub fn compute<F: Fn(u64, &Inst) -> bool>(
        disasm: &Disasm,
        cfg: &Cfg,
        entry: u64,
        checked: F,
    ) -> RedundantChecks {
        RedundantChecks::compute_with_roots(
            disasm,
            cfg,
            &unknown_entries(disasm, cfg, entry),
            checked,
        )
    }

    /// [`RedundantChecks::compute`] with a precomputed unknown-entry
    /// set, for callers sharding one image into per-component
    /// sub-`Cfg`s (the roots are an image-wide property; see
    /// [`crate::provenance::Provenance::compute_with_roots`]). Only instructions inside
    /// `cfg`'s blocks are examined -- instructions in no block can never
    /// be proven redundant (they have no dataflow facts).
    pub fn compute_with_roots<F: Fn(u64, &Inst) -> bool>(
        disasm: &Disasm,
        cfg: &Cfg,
        roots: &std::collections::BTreeSet<u64>,
        checked: F,
    ) -> RedundantChecks {
        let roots: std::collections::BTreeSet<u64> = roots
            .iter()
            .copied()
            .filter(|r| cfg.blocks.contains_key(r))
            .collect();
        let dom = DomTree::compute(cfg, &roots);
        let solution = solve_forward(AvailableChecks { checked }, disasm, cfg, &roots);

        let mut immediate: BTreeMap<u64, u64> = BTreeMap::new();
        for block in cfg.blocks.values() {
            for &addr in &block.insts {
                let (inst, _) = disasm.at(addr).expect("block member decoded");
                if !(solution.analysis().checked)(addr, inst) {
                    continue;
                }
                let Some(mem) = inst.memory_access() else {
                    continue;
                };
                let Some(fact) = solution.fact_before(disasm, cfg, addr) else {
                    continue;
                };
                let Some(av) = fact.get(&Shape::of(&mem)).copied() else {
                    continue;
                };
                let len = i64::from(inst.access_len().unwrap_or(8));
                if av.site != addr
                    && av.lo <= mem.disp
                    && mem.disp + len <= av.hi
                    && dom.site_dominates(cfg, av.site, addr)
                {
                    immediate.insert(addr, av.site);
                }
            }
        }

        // Chase chains so every recorded root is itself non-redundant
        // (it will keep its full check). Dominance is a strict partial
        // order over distinct sites, so chains cannot cycle.
        let mut redundant: BTreeMap<u64, u64> = BTreeMap::new();
        for (&site, &first) in &immediate {
            let mut r = first;
            while let Some(&up) = immediate.get(&r) {
                r = up;
            }
            redundant.insert(site, r);
        }

        RedundantChecks { redundant }
    }

    /// Returns `true` if the full check at `addr` is subsumed by a
    /// dominating check.
    pub fn is_redundant(&self, addr: u64) -> bool {
        self.redundant.contains_key(&addr)
    }

    /// The non-redundant root whose check subsumes `addr`, if any.
    pub fn root_of(&self, addr: u64) -> Option<u64> {
        self.redundant.get(&addr).copied()
    }

    /// All `(redundant site, root site)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.redundant.iter().map(|(&s, &r)| (s, r))
    }

    /// Number of sites proven redundant.
    pub fn len(&self) -> usize {
        self.redundant.len()
    }

    /// Returns `true` when no site was proven redundant.
    pub fn is_empty(&self) -> bool {
        self.redundant.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_x86::{Operands, Reg, Width};

    fn checked_all(_: u64, inst: &Inst) -> bool {
        inst.memory_access().is_some()
    }

    fn mov_load(mem: Mem, dst: Reg) -> Inst {
        Inst {
            op: Op::Mov,
            w: Width::W64,
            operands: Operands::RM { dst, src: mem },
        }
    }

    fn mov_store(mem: Mem, src: Reg) -> Inst {
        Inst {
            op: Op::Mov,
            w: Width::W64,
            operands: Operands::MR { dst: mem, src },
        }
    }

    #[test]
    fn transfer_generates_and_kills() {
        let analysis = AvailableChecks {
            checked: checked_all,
        };
        let mut fact = analysis.boundary();

        // A checked store through [rax+8] becomes available.
        let store = mov_store(Mem::base_disp(Reg::Rax, 8), Reg::Rcx);
        analysis.transfer(0x100, &store, &mut fact);
        let key = Shape::of(&Mem::base_disp(Reg::Rax, 8));
        assert_eq!(
            fact.get(&key),
            Some(&Avail {
                site: 0x100,
                lo: 8,
                hi: 16
            })
        );

        // Writing an unrelated register keeps it...
        let clobber_rdx = Inst {
            op: Op::Mov,
            w: Width::W64,
            operands: Operands::RI {
                dst: Reg::Rdx,
                imm: 7,
            },
        };
        analysis.transfer(0x108, &clobber_rdx, &mut fact);
        assert!(fact.contains_key(&key));

        // ...writing rax kills it.
        let clobber_rax = Inst {
            op: Op::Mov,
            w: Width::W64,
            operands: Operands::RI {
                dst: Reg::Rax,
                imm: 7,
            },
        };
        analysis.transfer(0x110, &clobber_rax, &mut fact);
        assert!(!fact.contains_key(&key));
    }

    #[test]
    fn load_into_own_base_does_not_generate() {
        let analysis = AvailableChecks {
            checked: checked_all,
        };
        let mut fact = analysis.boundary();
        // mov (%rax), %rax checks the old address but invalidates the
        // shape in the same step: nothing may become available.
        let inst = mov_load(Mem::base(Reg::Rax), Reg::Rax);
        analysis.transfer(0x100, &inst, &mut fact);
        assert!(fact.is_empty());
    }

    #[test]
    fn calls_clear_everything() {
        let analysis = AvailableChecks {
            checked: checked_all,
        };
        let mut fact = analysis.boundary();
        analysis.transfer(0x100, &mov_store(Mem::base(Reg::Rbx), Reg::Rcx), &mut fact);
        assert_eq!(fact.len(), 1);
        let call = Inst {
            op: Op::Call,
            w: Width::W64,
            operands: Operands::Rel(0x40),
        };
        analysis.transfer(0x108, &call, &mut fact);
        assert!(fact.is_empty());
    }

    #[test]
    fn join_is_intersection_on_identical_entries() {
        let analysis = AvailableChecks {
            checked: checked_all,
        };
        let ka = Shape::of(&Mem::base(Reg::Rax));
        let kb = Shape::of(&Mem::base(Reg::Rbx));
        let av = |site| Avail { site, lo: 0, hi: 8 };
        let a: BTreeMap<Shape, Avail> = [(ka, av(0x100)), (kb, av(0x108))].into();
        let b: BTreeMap<Shape, Avail> = [(ka, av(0x100)), (kb, av(0x200))].into();
        let j = analysis.join(&a, &b);
        // Same site survives; differing sites are dropped.
        assert_eq!(j.get(&ka), Some(&av(0x100)));
        assert!(!j.contains_key(&kb));
    }

    #[test]
    fn range_subsumption_in_gen() {
        let analysis = AvailableChecks {
            checked: checked_all,
        };
        let mut fact = analysis.boundary();
        // Wider check first...
        let wide = Inst {
            op: Op::Push,
            w: Width::W64,
            operands: Operands::M(Mem::base_disp(Reg::Rax, 0)),
        };
        analysis.transfer(0x100, &wide, &mut fact);
        // ...then a 1-byte probe of the same bytes: the earlier root is
        // retained (subsumed), so chains point at the oldest site.
        let narrow = Inst {
            op: Op::Movzx8,
            w: Width::W64,
            operands: Operands::RM {
                dst: Reg::Rcx,
                src: Mem::base_disp(Reg::Rax, 2),
            },
        };
        analysis.transfer(0x108, &narrow, &mut fact);
        let key = Shape::of(&Mem::base(Reg::Rax));
        assert_eq!(fact.get(&key).map(|a| a.site), Some(0x100));
        // A probe *outside* the proven range replaces the entry.
        let outside = mov_store(Mem::base_disp(Reg::Rax, 64), Reg::Rcx);
        analysis.transfer(0x110, &outside, &mut fact);
        assert_eq!(fact.get(&key).map(|a| a.site), Some(0x110));
    }
}
