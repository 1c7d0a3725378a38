//! A generic forward dataflow framework over the recovered [`Cfg`].
//!
//! Clients implement [`ForwardAnalysis`] -- a join-semilattice of facts
//! plus a per-instruction transfer function -- and the worklist solver
//! computes a fixed point of block-entry facts. Two conservatisms are
//! built in, matching what binary-level analysis (as opposed to
//! compiler IR analysis) must assume:
//!
//! * **Unknown entries.** A stripped binary has no reliable function
//!   boundaries: the image entry point, every direct call target, every
//!   decode-gap boundary -- and, when the image contains *any* indirect
//!   branch, every leader -- may be reached from code we cannot see.
//!   Such blocks have their entry fact joined with the analysis's
//!   [`boundary`](ForwardAnalysis::boundary) fact (the "know nothing"
//!   element).
//! * **Widening.** Infinite-height domains (intervals) terminate via
//!   [`widen`](ForwardAnalysis::widen), applied to a block's entry fact
//!   once it has been refined more than [`WIDEN_AFTER`] times.
//!
//! The solver stores facts per *block*; per-instruction facts are
//! recovered on demand by replaying the transfer function from the block
//! entry ([`ForwardSolution::fact_before`]), which keeps memory linear
//! in the number of blocks rather than instructions.

use crate::cfg::Cfg;
use crate::disasm::Disasm;
use redfat_x86::{Inst, Op};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Number of refinements of one block's entry fact before the solver
/// starts widening (guarantees termination on interval-like domains).
pub const WIDEN_AFTER: usize = 4;

/// A forward dataflow analysis over machine instructions.
pub trait ForwardAnalysis {
    /// The abstract fact attached to each program point.
    type Fact: Clone + PartialEq;

    /// The fact holding at entries reachable from unknown code (and at
    /// the image entry): the most conservative description of state.
    fn boundary(&self) -> Self::Fact;

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Widening operator: a sound over-approximation of `next` that
    /// additionally guarantees stabilization when applied repeatedly to
    /// a chain `prev ⊑ next`. Defaults to jumping straight to
    /// [`boundary`](ForwardAnalysis::boundary) (always sound).
    fn widen(&self, _prev: &Self::Fact, _next: &Self::Fact) -> Self::Fact {
        self.boundary()
    }

    /// Applies the effect of one instruction to `fact`, in place.
    fn transfer(&self, addr: u64, inst: &Inst, fact: &mut Self::Fact);
}

/// The fixed point computed by [`solve_forward`].
pub struct ForwardSolution<A: ForwardAnalysis> {
    analysis: A,
    /// Entry fact per reachable block.
    block_in: HashMap<u64, A::Fact>,
}

/// Computes the set of blocks that must be treated as enterable from
/// statically unknown code: the image entry, direct call targets,
/// decode-gap boundaries -- and every leader if any indirect branch
/// exists anywhere in the image (an indirect `jmp`/`call` could target
/// any of them).
pub fn unknown_entries(disasm: &Disasm, cfg: &Cfg, entry: u64) -> BTreeSet<u64> {
    let mut roots = BTreeSet::new();
    roots.insert(entry);
    let mut any_indirect = false;
    for (_, inst, _) in disasm.iter() {
        match inst.op {
            Op::Call => {
                if let Some(t) = inst.branch_target() {
                    roots.insert(t);
                }
            }
            Op::CallInd | Op::JmpInd => any_indirect = true,
            _ => {}
        }
    }
    for &(_, end) in &disasm.unknown {
        if disasm.at(end).is_some() {
            roots.insert(end);
        }
    }
    if any_indirect {
        roots.extend(cfg.leaders.iter().copied());
    }
    roots.retain(|r| cfg.blocks.contains_key(r));
    roots
}

/// Runs the worklist algorithm to a fixed point.
///
/// `roots` are the unknown-entry blocks (see [`unknown_entries`]); their
/// entry facts are pinned at-or-above the boundary fact. Blocks not
/// reachable from any root keep no fact and queries on them answer
/// conservatively.
pub fn solve_forward<A: ForwardAnalysis>(
    analysis: A,
    disasm: &Disasm,
    cfg: &Cfg,
    roots: &BTreeSet<u64>,
) -> ForwardSolution<A> {
    let mut block_in: HashMap<u64, A::Fact> = HashMap::new();
    let mut updates: HashMap<u64, usize> = HashMap::new();
    let mut work: VecDeque<u64> = VecDeque::new();
    let mut queued: BTreeSet<u64> = BTreeSet::new();

    for &r in roots {
        block_in.insert(r, analysis.boundary());
        if queued.insert(r) {
            work.push_back(r);
        }
    }

    while let Some(start) = work.pop_front() {
        queued.remove(&start);
        let Some(block) = cfg.blocks.get(&start) else {
            continue;
        };
        let Some(entry_fact) = block_in.get(&start) else {
            continue;
        };
        // Apply the block's transfer.
        let mut fact = entry_fact.clone();
        for &addr in &block.insts {
            let (inst, _) = disasm.at(addr).expect("block member decoded");
            analysis.transfer(addr, inst, &mut fact);
        }
        // Propagate to successors.
        for &succ in &block.succs {
            if !cfg.blocks.contains_key(&succ) {
                continue;
            }
            let mut incoming = fact.clone();
            if roots.contains(&succ) {
                incoming = analysis.join(&incoming, &analysis.boundary());
            }
            let updated = match block_in.get(&succ) {
                None => {
                    block_in.insert(succ, incoming);
                    true
                }
                Some(old) => {
                    let mut new = analysis.join(old, &incoming);
                    if new != *old {
                        let n = updates.entry(succ).or_insert(0);
                        *n += 1;
                        if *n > WIDEN_AFTER {
                            new = analysis.widen(old, &new);
                        }
                        if new != *old {
                            block_in.insert(succ, new);
                            true
                        } else {
                            false
                        }
                    } else {
                        false
                    }
                }
            };
            if updated && queued.insert(succ) {
                work.push_back(succ);
            }
        }
    }

    ForwardSolution { analysis, block_in }
}

impl<A: ForwardAnalysis> ForwardSolution<A> {
    /// The fact holding immediately *before* the instruction at `addr`,
    /// recovered by replaying the block prefix. `None` when `addr` is in
    /// no reached block -- callers must treat that conservatively.
    pub fn fact_before(&self, disasm: &Disasm, cfg: &Cfg, addr: u64) -> Option<A::Fact> {
        let block = cfg.block_of(addr)?;
        let mut fact = self.block_in.get(&block.start)?.clone();
        for &a in &block.insts {
            if a == addr {
                return Some(fact);
            }
            let (inst, _) = disasm.at(a).expect("block member decoded");
            self.analysis.transfer(a, inst, &mut fact);
        }
        None
    }

    /// The underlying analysis (for clients that need its helpers).
    pub fn analysis(&self) -> &A {
        &self.analysis
    }
}
