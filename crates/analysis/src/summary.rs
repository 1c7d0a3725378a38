//! Per-function summaries over the provenance lattice — the
//! interprocedural tier's second layer.
//!
//! For every recovered function (see [`crate::callgraph`]) this module
//! computes a [`FuncSummary`]:
//!
//! * **closedness** — whether every exit of every block in the
//!   function's body is statically understood (`ret`, a recognized tail
//!   call, a non-returning trap, or an in-image successor edge). Only
//!   closed functions are summarized; everything else keeps the Top
//!   summary, which reproduces the intraprocedural clobber exactly.
//! * **may-write mask** — the set of registers the function (or
//!   anything it transitively calls) may write. Least fixpoint over the
//!   call graph: calls to unknown or indirect targets contribute the
//!   full mask. A register *outside* the mask is provably preserved
//!   across the call — the caller's provenance fact survives verbatim.
//! * **heap purity** — `true` when no execution of the function can
//!   reach a syscall or statically-unknown code. In this substrate the
//!   allocator is reached via `syscall` only, so a heap-pure call
//!   cannot allocate or free: available bounds-checks on registers the
//!   callee preserves remain valid across the call
//!   ([`crate::redundant`]). Greatest fixpoint: recursion among locally
//!   clean functions stays pure; one dirty reachable callee poisons all
//!   its callers.
//! * **at-return facts** — the provenance [`RegFacts`] joined over the
//!   function's `ret` blocks (and tail-call exits, through the tail
//!   callee's own effect). Computed bottom-up over call-graph SCCs so
//!   callee effects are final before callers consume them.
//!
//! # Recursion widening
//!
//! Members of a recursive SCC start from the Top summary (recursive
//! calls clobber, exactly as the intraprocedural analysis would) and
//! are then recomputed for a small fixed number of rounds
//! ([`RECURSION_ROUNDS`]). Every round is sound by induction — a
//! summary computed from sound callee summaries is sound — so stopping
//! after any round is safe; more rounds only refine. No monotonicity of
//! the summary operator is needed, which keeps the argument robust
//! against the interval widening inside each solve.

use crate::callgraph::CallGraph;
use crate::cfg::{Block, Cfg};
use crate::dataflow::solve_forward;
use crate::disasm::Disasm;
use crate::provenance::{CallEffect, ProvenanceAnalysis, RegFacts};
use redfat_x86::Op;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Recomputation rounds for recursive SCCs after the Top
/// initialization. Round 1 already incorporates one unrolling of the
/// recursion; further rounds rarely change anything in practice.
pub const RECURSION_ROUNDS: usize = 2;

/// All sixteen GPR bits (the "writes everything" mask).
const ALL_REGS_MASK: u16 = 0xffff;

/// The interprocedural summary of one recovered function.
#[derive(Debug, Clone)]
pub struct FuncSummary {
    /// Entry address of the function.
    pub entry: u64,
    /// `true` when every block exit in the body is statically
    /// understood; only closed functions yield a [`CallEffect`].
    pub closed: bool,
    /// `true` when no execution can reach a syscall or unknown code.
    pub heap_pure: bool,
    /// Bit `r.code()` set ⇔ the function may (transitively) write `r`.
    pub may_write: u16,
    /// Provenance facts at the function's return points.
    pub at_return: RegFacts,
}

impl FuncSummary {
    fn top(entry: u64) -> FuncSummary {
        FuncSummary {
            entry,
            closed: false,
            heap_pure: false,
            may_write: ALL_REGS_MASK,
            at_return: RegFacts::top(),
        }
    }

    /// The call effect this summary justifies, or `None` for the Top
    /// summary (callers fall back to clobbering).
    pub fn effect(&self) -> Option<CallEffect> {
        self.closed.then(|| CallEffect {
            at_return: self.at_return.clone(),
            may_write: self.may_write,
        })
    }
}

/// How one basic block hands off control, for closedness and at-return
/// classification.
enum ExitKind {
    /// Ends in `ret`: a return point.
    Return,
    /// Tail call to a recovered function entry: returns through it.
    TailCall(u64),
    /// `ud2`/`int3`: execution stops; contributes no return fact.
    Trap,
    /// All control flow stays on in-image successor edges.
    Flow,
    /// Control may escape to statically unknown code.
    Unknown,
}

fn classify_exit(disasm: &Disasm, cfg: &Cfg, block: &Block) -> ExitKind {
    let Some(&last) = block.insts.last() else {
        return ExitKind::Unknown;
    };
    let (inst, _) = disasm.at(last).expect("block member decoded");
    let all_succs_known =
        !block.succs.is_empty() && block.succs.iter().all(|s| cfg.blocks.contains_key(s));
    match inst.op {
        Op::Ret => ExitKind::Return,
        Op::Ud2 | Op::Int3 => ExitKind::Trap,
        Op::JmpInd => ExitKind::Unknown,
        Op::Jmp => match inst.branch_target() {
            // Tail call: recovery stripped the successor edge.
            Some(t) if block.opaque_exit && cfg.func_entries.contains(&t) => ExitKind::TailCall(t),
            Some(_) if all_succs_known => ExitKind::Flow,
            _ => ExitKind::Unknown,
        },
        Op::Jcc(_) => {
            // Both arms (target and fall-through) must be decoded.
            if block.succs.len() == 2 && all_succs_known {
                ExitKind::Flow
            } else {
                ExitKind::Unknown
            }
        }
        // Calls continue at their return site; the *callee* is handled
        // by the provenance transfer (effect or clobber), so a decoded
        // return site is all closedness needs.
        Op::Call | Op::CallInd => {
            if all_succs_known {
                ExitKind::Flow
            } else {
                ExitKind::Unknown
            }
        }
        // Straight-line block split at a leader, or fell into
        // undecodable bytes (opaque without a terminator).
        _ => {
            if !block.opaque_exit && all_succs_known {
                ExitKind::Flow
            } else {
                ExitKind::Unknown
            }
        }
    }
}

/// Summaries for every recovered function of one image.
pub struct Summaries {
    /// The call graph the fixpoint ran over.
    pub graph: CallGraph,
    funcs: BTreeMap<u64, FuncSummary>,
}

impl Summaries {
    /// Computes all function summaries bottom-up over the call graph.
    ///
    /// `roots` is the image-global unknown-entry set
    /// ([`crate::dataflow::unknown_entries`]): blocks inside a function
    /// body that are also global roots keep their boundary join, so an
    /// image with indirect branches degrades every summary toward Top
    /// automatically instead of claiming precision it cannot have.
    pub fn compute(disasm: &Disasm, cfg: &Cfg, roots: &BTreeSet<u64>) -> Summaries {
        let graph = CallGraph::build(disasm, cfg);

        // Phase 1: closedness (purely local).
        let mut closed: BTreeMap<u64, bool> = BTreeMap::new();
        for &entry in &graph.entries {
            let ok = graph.body[&entry].iter().all(|b| {
                !matches!(
                    classify_exit(disasm, cfg, &cfg.blocks[b]),
                    ExitKind::Unknown
                )
            });
            closed.insert(entry, ok);
        }

        // Phase 2: may-write masks. Least fixpoint from local masks;
        // non-closed functions and unknown callees are pinned at ⊤.
        let mut masks: BTreeMap<u64, u16> = graph
            .entries
            .iter()
            .map(|&e| {
                let m = if closed[&e] {
                    local_write_mask(disasm, cfg, &graph, e)
                } else {
                    ALL_REGS_MASK
                };
                (e, m)
            })
            .collect();
        loop {
            let mut changed = false;
            for &e in &graph.entries {
                if masks[&e] == ALL_REGS_MASK {
                    continue;
                }
                let mut m = masks[&e];
                for site in graph.sites.iter().filter(|s| s.caller == e) {
                    m |= match site.callee {
                        Some(t) => masks.get(&t).copied().unwrap_or(ALL_REGS_MASK),
                        None => ALL_REGS_MASK,
                    };
                }
                if m != masks[&e] {
                    masks.insert(e, m);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 3: heap purity. Greatest fixpoint from local purity.
        let mut pure: BTreeMap<u64, bool> = graph
            .entries
            .iter()
            .map(|&e| (e, closed[&e] && locally_heap_clean(disasm, cfg, &graph, e)))
            .collect();
        loop {
            let mut changed = false;
            for &e in &graph.entries {
                if !pure[&e] {
                    continue;
                }
                let dirty_callee = graph.sites.iter().any(|s| {
                    s.caller == e
                        && match s.callee {
                            Some(t) => !pure.get(&t).copied().unwrap_or(false),
                            None => true,
                        }
                });
                if dirty_callee {
                    pure.insert(e, false);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 4: at-return facts, bottom-up over SCCs. The effects
        // map always holds the best *sound* effect known so far;
        // recursive SCCs start at Top (absent ⇒ clobber) and are
        // recomputed for a bounded number of rounds.
        let mut effects: HashMap<u64, CallEffect> = HashMap::new();
        let mut funcs: BTreeMap<u64, FuncSummary> = BTreeMap::new();
        for scc in graph.sccs_bottom_up() {
            let rounds = if graph.is_recursive(scc) {
                RECURSION_ROUNDS
            } else {
                1
            };
            for _ in 0..rounds {
                // Jacobi update: compute all members against the same
                // effects map, then commit, so member order is
                // irrelevant.
                let staged: Vec<(u64, FuncSummary)> = scc
                    .iter()
                    .map(|&e| {
                        let s = summarize_one(
                            disasm, cfg, &graph, roots, &effects, e, closed[&e], masks[&e],
                            pure[&e],
                        );
                        (e, s)
                    })
                    .collect();
                for (e, s) in staged {
                    match s.effect() {
                        Some(eff) => {
                            effects.insert(e, eff);
                        }
                        None => {
                            effects.remove(&e);
                        }
                    }
                    funcs.insert(e, s);
                }
            }
        }

        Summaries { graph, funcs }
    }

    /// The summary of the function entered at `entry`.
    pub fn get(&self, entry: u64) -> Option<&FuncSummary> {
        self.funcs.get(&entry)
    }

    /// All summaries, in entry order.
    pub fn iter(&self) -> impl Iterator<Item = &FuncSummary> {
        self.funcs.values()
    }

    /// The call-effect map for [`ProvenanceAnalysis::with_effects`]:
    /// one entry per closed function.
    pub fn call_effects(&self) -> HashMap<u64, CallEffect> {
        self.funcs
            .iter()
            .filter_map(|(&e, s)| s.effect().map(|eff| (e, eff)))
            .collect()
    }

    /// Per-callee may-write masks for the redundant-check pass: only
    /// closed *and heap-pure* functions qualify, because an available
    /// check survives a call only if the callee can neither move the
    /// heap (syscall) nor write the registers the checked shape reads.
    pub fn pure_write_masks(&self) -> HashMap<u64, u16> {
        self.funcs
            .iter()
            .filter(|(_, s)| s.closed && s.heap_pure)
            .map(|(&e, s)| (e, s.may_write))
            .collect()
    }
}

/// Registers the function's own body may write, ignoring callees
/// (those are folded in by the fixpoint). Calls and indirect/unknown
/// transfers inside the body contribute ⊤ here directly.
fn local_write_mask(disasm: &Disasm, cfg: &Cfg, graph: &CallGraph, entry: u64) -> u16 {
    let mut mask = 1u16 << redfat_x86::Reg::Rsp.code();
    for b in &graph.body[&entry] {
        for &addr in &cfg.blocks[b].insts {
            let (inst, _) = disasm.at(addr).expect("block member decoded");
            match inst.op {
                // Direct calls/tail calls: callee masks are added by
                // the caller's fixpoint loop; a call to a target with
                // no recovered body is ⊤.
                Op::Call | Op::Jmp => {}
                Op::CallInd | Op::Syscall | Op::JmpInd => return ALL_REGS_MASK,
                _ => {}
            }
            mask |= inst.regs_written_mask();
        }
    }
    // Direct calls to targets outside the recovered entry set (e.g.
    // into a decode gap) write anything.
    for site in graph.sites.iter().filter(|s| s.caller == entry) {
        match site.callee {
            Some(t) if graph.body.contains_key(&t) => {}
            _ => return ALL_REGS_MASK,
        }
    }
    mask
}

/// `true` when the body itself contains no syscall and no transfer to
/// statically unknown code (callees are folded in by the fixpoint).
fn locally_heap_clean(disasm: &Disasm, cfg: &Cfg, graph: &CallGraph, entry: u64) -> bool {
    for b in &graph.body[&entry] {
        for &addr in &cfg.blocks[b].insts {
            let (inst, _) = disasm.at(addr).expect("block member decoded");
            if matches!(inst.op, Op::Syscall | Op::CallInd | Op::JmpInd) {
                return false;
            }
        }
    }
    graph
        .sites
        .iter()
        .filter(|s| s.caller == entry)
        .all(|s| s.callee.is_some_and(|t| graph.body.contains_key(&t)))
}

/// One summary computation for one function, against the current
/// callee-effects map. Sound whenever every effect in the map is sound.
#[allow(clippy::too_many_arguments)]
fn summarize_one(
    disasm: &Disasm,
    cfg: &Cfg,
    graph: &CallGraph,
    global_roots: &BTreeSet<u64>,
    effects: &HashMap<u64, CallEffect>,
    entry: u64,
    closed: bool,
    may_write: u16,
    heap_pure: bool,
) -> FuncSummary {
    if !closed {
        return FuncSummary::top(entry);
    }
    let body = &graph.body[&entry];
    // Roots: the function entry (boundary — arguments are unknown) plus
    // any image-global unknown entry inside the body.
    let mut roots: BTreeSet<u64> = global_roots
        .iter()
        .copied()
        .filter(|r| body.contains(r))
        .collect();
    roots.insert(entry);
    let analysis = ProvenanceAnalysis::with_effects(effects.clone());
    let sol = solve_forward(analysis, disasm, cfg, &roots);

    // Join facts over every reachable return path.
    let mut at_return: Option<RegFacts> = None;
    for b in body {
        let block = &cfg.blocks[b];
        let exit = classify_exit(disasm, cfg, block);
        let (ExitKind::Return | ExitKind::TailCall(_)) = exit else {
            continue;
        };
        let Some(entry_fact) = sol.block_entry(*b) else {
            continue; // unreachable return path
        };
        let mut fact = entry_fact.clone();
        for &addr in &block.insts {
            let (inst, _) = disasm.at(addr).expect("block member decoded");
            sol.analysis().transfer(addr, inst, &mut fact);
        }
        if let ExitKind::TailCall(t) = exit {
            // Returning *through* the tail callee: its effect maps our
            // state at the jmp to the state at the eventual ret.
            match effects.get(&t) {
                Some(eff) => eff.apply(&mut fact),
                None => fact = RegFacts::top(),
            }
        }
        match &mut at_return {
            None => at_return = Some(fact),
            Some(acc) => acc.join_with(&fact),
        }
    }
    // No reachable return path: under the model the function never
    // returns, so any at-return fact is vacuously sound; Top keeps it
    // unsurprising.
    let at_return = at_return.unwrap_or_else(RegFacts::top);
    FuncSummary {
        entry,
        closed,
        heap_pure,
        may_write,
        at_return,
    }
}

// `transfer` comes through the trait.
use crate::dataflow::ForwardAnalysis;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::unknown_entries;
    use crate::disasm::disassemble;
    use crate::provenance::AbsVal;
    use redfat_elf::{Image, ImageKind, SegFlags, Segment};
    use redfat_x86::{AluOp, Asm, Reg, Width};

    fn image_of(f: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new(0x40_0000);
        f(&mut a);
        let p = a.finish().unwrap();
        Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        }
    }

    fn summaries_of(img: &Image) -> Summaries {
        let d = disassemble(img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let roots = unknown_entries(&d, &cfg, img.entry);
        Summaries::compute(&d, &cfg, &roots)
    }

    fn entry_of(s: &Summaries, img: &Image, skip_main: bool) -> u64 {
        s.graph
            .entries
            .iter()
            .copied()
            .find(|&e| !skip_main || e != img.entry)
            .unwrap()
    }

    /// `and $7, %rax; ret` summarizes rax to [0, 7] and a tight
    /// may-write mask; callers' preserved registers stay out of it.
    #[test]
    fn leaf_summary_bounds_return_register() {
        let img = image_of(|a| {
            let f = a.label();
            a.call_label(f); // main
            a.ret();
            a.bind(f).unwrap();
            a.alu_ri(AluOp::And, Width::W64, Reg::Rax, 7);
            a.ret();
        });
        let s = summaries_of(&img);
        let f = entry_of(&s, &img, true);
        let sum = s.get(f).unwrap();
        assert!(sum.closed);
        assert!(sum.heap_pure);
        assert_eq!(
            sum.at_return.get(Reg::Rax),
            AbsVal::Interval { lo: 0, hi: 7 }
        );
        // rbx is never written by f.
        assert_eq!(sum.may_write & (1 << Reg::Rbx.code()), 0);
        assert_ne!(sum.may_write & (1 << Reg::Rax.code()), 0);
        let effects = s.call_effects();
        assert!(effects.contains_key(&f));
        // Applying the effect preserves an unwritten register.
        let mut facts = RegFacts::top();
        facts.set(Reg::Rbx, AbsVal::exact(42));
        effects[&f].apply(&mut facts);
        assert_eq!(facts.get(Reg::Rbx), AbsVal::exact(42));
        assert_eq!(facts.get(Reg::Rax), AbsVal::Interval { lo: 0, hi: 7 });
    }

    /// A self-recursive function widens to the Top-initialized rounds:
    /// its rax claim must stay sound (here: Top, because the recursive
    /// call clobbers before the final mov depends on it... the branch
    /// that recurses rejoins with arbitrary rax).
    #[test]
    fn recursion_widens_to_top() {
        let img = image_of(|a| {
            let f = a.label();
            let done = a.label();
            a.call_label(f); // main
            a.ret();
            a.bind(f).unwrap();
            a.alu_ri(AluOp::Sub, Width::W64, Reg::Rcx, 1);
            a.jcc_label(redfat_x86::Cond::E, done);
            a.call_label(f); // recurse
            a.ret();
            a.bind(done).unwrap();
            a.mov_ri(Width::W64, Reg::Rax, 5);
            a.ret();
        });
        let s = summaries_of(&img);
        let f = entry_of(&s, &img, true);
        let sum = s.get(f).unwrap();
        assert!(sum.closed);
        // The non-recursive arm returns rax = 5; the recursive arm
        // returns whatever the inner call produced. After the rounds
        // stabilize the join must still contain 5 and be sound for the
        // recursive path — the recursive call's effect itself reports
        // at-return rax ⊇ {5}, so the join stays an interval containing
        // 5 or Top; either way `and`-style misuse is impossible. What
        // must NOT happen is an *exact* 5 claim for the recursive path
        // computed from an unsound bottom initialization.
        match sum.at_return.get(Reg::Rax) {
            AbsVal::Top => {}
            AbsVal::Interval { lo, hi } => {
                assert!(lo <= 5 && 5 <= hi, "sound summaries contain 5");
            }
        }
        // Recursive SCC detected.
        let scc = s
            .graph
            .sccs_bottom_up()
            .iter()
            .find(|c| c.contains(&f))
            .unwrap();
        assert!(s.graph.is_recursive(scc));
    }

    /// A function containing a syscall is not heap-pure, and neither is
    /// its caller; masks go to ⊤ through the call chain.
    #[test]
    fn syscall_poisons_purity_transitively() {
        let img = image_of(|a| {
            let f = a.label();
            let g = a.label();
            a.call_label(f); // main
            a.ret();
            a.bind(f).unwrap();
            a.call_label(g);
            a.ret();
            a.bind(g).unwrap();
            a.syscall();
            a.ret();
        });
        let s = summaries_of(&img);
        let mut entries = s.graph.entries.clone();
        entries.retain(|&e| e != img.entry);
        for e in entries {
            let sum = s.get(e).unwrap();
            assert!(!sum.heap_pure, "syscall reachable from {e:#x}");
            assert_eq!(sum.may_write, 0xffff);
        }
        assert!(s.pure_write_masks().is_empty());
    }

    /// Tail calls thread the callee's effect into the caller's
    /// at-return fact.
    #[test]
    fn tail_call_composes_effects() {
        let img = image_of(|a| {
            let f = a.label();
            let g = a.label();
            a.call_label(f); // main
            a.call_label(g); // make g a recovered entry
            a.ret();
            a.bind(f).unwrap();
            a.jmp_label(g); // f tail-calls g
            a.bind(g).unwrap();
            a.alu_ri(AluOp::And, Width::W64, Reg::Rax, 15);
            a.ret();
        });
        let s = summaries_of(&img);
        // Identify f: the entry whose body has a tail-call site.
        let f = s
            .graph
            .sites
            .iter()
            .find(|site| site.tail)
            .map(|site| site.caller)
            .expect("tail call site");
        let sum = s.get(f).unwrap();
        assert!(sum.closed);
        assert_eq!(
            sum.at_return.get(Reg::Rax),
            AbsVal::Interval { lo: 0, hi: 15 },
            "f returns through g, so f's rax bound is g's"
        );
    }
}
