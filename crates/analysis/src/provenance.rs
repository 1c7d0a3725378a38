//! Flow-sensitive non-heap provenance analysis (the upgraded check
//! elimination of paper §6).
//!
//! The syntactic rule in [`crate::elim`] only eliminates operands whose
//! base is `%rsp`, `%rip` or an absolute displacement. This pass tracks,
//! per register and program point, an *interval of possible values*, so
//! it additionally eliminates accesses through:
//!
//! * registers holding the address of a global (`mov $addr, %r` followed
//!   by `mov disp(%r)` -- how compilers access static arrays),
//! * stack-pointer copies and `lea`-derived frame addresses,
//! * constant-propagated pointers and bounded index arithmetic.
//!
//! # Abstract domain
//!
//! Per register: `Top` (any value, "MaybeHeap") or `Interval { lo, hi }`
//! meaning the register's 64-bit value is `x mod 2^64` for some
//! `x ∈ [lo, hi]` (`i128` bounds; a negative `lo` models values that
//! wrap near `2^64`, e.g. `-8` for `0xffff...fff8`). The join is the
//! interval hull; termination comes from the framework's widening.
//!
//! A memory operand is **NonHeap** at a site iff every address its
//! access can touch -- base interval + scaled index interval +
//! displacement, over all `len` accessed bytes, *reduced mod `2^64`* --
//! avoids `[heap_start, heap_end)`. This is checked exactly
//! ([`span_avoids_heap`]), so the classification is sound by
//! construction: `Top` components simply make the span universal.
//!
//! # The `%rsp` axiom
//!
//! Like the seed's syntactic rule (and the paper's §6 argument), the
//! stack pointer is assumed to stay within the stack region pinned more
//! than 2 GiB below the heap by the address-space layout; `%rsp` is
//! never clobbered to `Top`. All other registers are clobbered at calls,
//! syscalls and unknown-entry joins.

use crate::cfg::Cfg;
use crate::dataflow::{solve_forward, unknown_entries, ForwardAnalysis, ForwardSolution};
use crate::disasm::Disasm;
use redfat_vm::layout;
use redfat_x86::{AluOp, Inst, Mem, Op, Operands, Reg, ShiftOp, Width};
use std::collections::{BTreeSet, HashMap};

/// Abstract value of one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Any 64-bit value (MaybeHeap).
    Top,
    /// Value is `x mod 2^64` for some `x ∈ [lo, hi]`.
    Interval {
        /// Inclusive lower bound.
        lo: i128,
        /// Inclusive upper bound.
        hi: i128,
    },
}

impl AbsVal {
    /// The singleton interval.
    pub fn exact(v: i128) -> AbsVal {
        AbsVal::Interval { lo: v, hi: v }
    }

    fn interval(lo: i128, hi: i128) -> AbsVal {
        // Degenerate-width guard: an interval spanning 2^64 or more
        // contains every residue, i.e. is Top. The checked subtraction
        // also catches bounds blown past the i128 range by long chains
        // of exact-constant arithmetic.
        match hi.checked_sub(lo) {
            Some(w) if w < (1i128 << 64) => AbsVal::Interval { lo, hi },
            _ => AbsVal::Top,
        }
    }

    /// `interval` on optional bounds: any overflowed component is Top.
    fn interval_checked(lo: Option<i128>, hi: Option<i128>) -> AbsVal {
        match (lo, hi) {
            (Some(lo), Some(hi)) => AbsVal::interval(lo, hi),
            _ => AbsVal::Top,
        }
    }

    fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Interval { lo: a, hi: b }, AbsVal::Interval { lo: c, hi: d }) => {
                AbsVal::interval(a.min(c), b.max(d))
            }
            _ => AbsVal::Top,
        }
    }

    fn add_const(self, k: i128) -> AbsVal {
        match self {
            AbsVal::Interval { lo, hi } => {
                AbsVal::interval_checked(lo.checked_add(k), hi.checked_add(k))
            }
            AbsVal::Top => AbsVal::Top,
        }
    }

    fn add(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Interval { lo: a, hi: b }, AbsVal::Interval { lo: c, hi: d }) => {
                AbsVal::interval_checked(a.checked_add(c), b.checked_add(d))
            }
            _ => AbsVal::Top,
        }
    }

    fn sub(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Interval { lo: a, hi: b }, AbsVal::Interval { lo: c, hi: d }) => {
                AbsVal::interval_checked(a.checked_sub(d), b.checked_sub(c))
            }
            _ => AbsVal::Top,
        }
    }

    fn mul_const(self, k: i128) -> AbsVal {
        match self {
            AbsVal::Interval { lo, hi } if k >= 0 => {
                AbsVal::interval_checked(lo.checked_mul(k), hi.checked_mul(k))
            }
            AbsVal::Interval { lo, hi } => {
                AbsVal::interval_checked(hi.checked_mul(k), lo.checked_mul(k))
            }
            AbsVal::Top => AbsVal::Top,
        }
    }

    /// Clamp through a 32-bit destination write (upper half zeroed).
    fn zext32(self) -> AbsVal {
        match self {
            AbsVal::Interval { lo, hi } if lo >= 0 && hi <= u32::MAX as i128 => self,
            _ => AbsVal::Interval {
                lo: 0,
                hi: u32::MAX as i128,
            },
        }
    }
}

/// The per-point fact: one abstract value per GPR.
#[derive(Debug, Clone, PartialEq)]
pub struct RegFacts {
    vals: [AbsVal; 16],
}

/// The abstract interval pinned on `%rsp` (the stack region; see the
/// module docs for why this is an axiom rather than a derived fact).
pub fn stack_interval() -> AbsVal {
    AbsVal::Interval {
        lo: 0,
        hi: layout::STACK_TOP as i128,
    }
}

impl RegFacts {
    pub(crate) fn top() -> RegFacts {
        let mut vals = [AbsVal::Top; 16];
        vals[Reg::Rsp.code() as usize] = stack_interval();
        RegFacts { vals }
    }

    /// The abstract value of `r` at this point.
    pub fn get(&self, r: Reg) -> AbsVal {
        self.vals[r.code() as usize]
    }

    pub(crate) fn set(&mut self, r: Reg, v: AbsVal) {
        if r != Reg::Rsp {
            self.vals[r.code() as usize] = v;
        }
    }

    fn clobber_all_but_rsp(&mut self) {
        *self = RegFacts::top();
    }

    /// Pointwise interval-hull join (the [`ForwardAnalysis::join`] of
    /// the provenance analysis, exposed for the summary fixpoint).
    pub(crate) fn join_with(&mut self, other: &RegFacts) {
        for i in 0..16 {
            self.vals[i] = self.vals[i].join(other.vals[i]);
        }
    }
}

/// The interprocedural effect of calling one *summarized* function: the
/// abstract register state its `ret` hands back to the caller.
///
/// `apply` merges the effect over the caller's pre-call facts:
///
/// * a register **not** in `may_write` is provably never written
///   anywhere in the callee (or anything it calls), so the caller's
///   fact survives the call verbatim — a *preservation* fact;
/// * a register in `may_write` takes the callee's at-return value,
///   which is `Top` unless the summary proved a bound (e.g. `%rax`
///   after `and $7, %eax; ret`).
///
/// Both directions are sound per-path: an unwritten register literally
/// holds its old value at the return site, and a written register holds
/// exactly the value the callee's `ret` left in it. `%rsp` always keeps
/// its axiom ([`RegFacts::set`] refuses it).
#[derive(Debug, Clone, PartialEq)]
pub struct CallEffect {
    /// Register facts at the callee's return points.
    pub at_return: RegFacts,
    /// Bit `r.code()` set ⇔ the callee (transitively) may write `r`.
    pub may_write: u16,
}

impl CallEffect {
    /// Merges the effect into the caller's facts at a call site.
    pub fn apply(&self, fact: &mut RegFacts) {
        for code in 0u8..16 {
            if self.may_write & (1 << code) != 0 {
                let r = Reg::from_code(code);
                fact.set(r, self.at_return.get(r));
            }
        }
    }
}

/// Returns `true` when the address span `[lo, hi]` (inclusive, `i128`
/// arithmetic), reduced mod `2^64`, avoids the low-fat heap range
/// `[heap_start, heap_end)` entirely.
pub fn span_avoids_heap(lo: i128, hi: i128) -> bool {
    match hi.checked_sub(lo) {
        Some(w) if w < (1i128 << 64) => {}
        _ => return false,
    }
    let two64 = 1i128 << 64;
    let hs = layout::heap_start() as i128;
    let he = layout::heap_end() as i128;
    // The span overlaps a translated heap copy [hs + k·2^64, he + k·2^64)
    // iff lo ≤ he + k·2^64 - 1 and hs + k·2^64 ≤ hi.
    let kmin = (lo - he).div_euclid(two64);
    let kmax = (hi - hs).div_euclid(two64);
    for k in kmin..=kmax {
        let a = hs + k * two64;
        let b = he + k * two64;
        if lo < b && a <= hi {
            return false;
        }
    }
    true
}

/// Abstract address span of a memory operand under `facts`, or `None`
/// when a component is unbounded.
fn operand_span(facts: &RegFacts, mem: &Mem, len: u8) -> Option<(i128, i128)> {
    if mem.rip {
        // disp carries the absolute target.
        return Some((mem.disp as i128, mem.disp as i128 + len as i128 - 1));
    }
    let base = match mem.base {
        None => AbsVal::exact(0),
        Some(b) => facts.get(b),
    };
    let index = match mem.index {
        None => AbsVal::exact(0),
        Some(i) => facts.get(i).mul_const(mem.scale as i128),
    };
    match base.add(index).add_const(mem.disp as i128) {
        AbsVal::Interval { lo, hi } => Some((lo, hi.checked_add(len as i128 - 1)?)),
        AbsVal::Top => None,
    }
}

/// Returns `true` if, under `facts`, the `len`-byte access through `mem`
/// provably cannot touch low-fat heap memory.
pub fn operand_non_heap(facts: &RegFacts, mem: &Mem, len: u8) -> bool {
    match operand_span(facts, mem, len) {
        Some((lo, hi)) => span_avoids_heap(lo, hi),
        None => false,
    }
}

/// The analysis instance. Stateless by default; with call effects
/// attached ([`ProvenanceAnalysis::with_effects`]) direct calls to
/// summarized functions apply the callee's [`CallEffect`] instead of
/// clobbering every register.
#[derive(Default)]
pub struct ProvenanceAnalysis {
    call_effects: HashMap<u64, CallEffect>,
}

impl ProvenanceAnalysis {
    /// The intraprocedural analysis: every call clobbers all but `%rsp`.
    pub fn new() -> ProvenanceAnalysis {
        ProvenanceAnalysis::default()
    }

    /// Attaches per-callee effects, keyed by callee entry address.
    pub fn with_effects(call_effects: HashMap<u64, CallEffect>) -> ProvenanceAnalysis {
        ProvenanceAnalysis { call_effects }
    }
}

impl ForwardAnalysis for ProvenanceAnalysis {
    type Fact = RegFacts;

    fn boundary(&self) -> RegFacts {
        RegFacts::top()
    }

    fn join(&self, a: &RegFacts, b: &RegFacts) -> RegFacts {
        let mut out = a.clone();
        for i in 0..16 {
            out.vals[i] = a.vals[i].join(b.vals[i]);
        }
        out
    }

    fn widen(&self, prev: &RegFacts, next: &RegFacts) -> RegFacts {
        // Any register still moving goes straight to Top; stable ones
        // keep their interval. Each register widens at most once, so the
        // chain stabilizes.
        let mut out = next.clone();
        for i in 0..16 {
            if prev.vals[i] != next.vals[i] {
                out.vals[i] = AbsVal::Top;
            }
        }
        out.vals[Reg::Rsp.code() as usize] = stack_interval();
        out
    }

    fn transfer(&self, _addr: u64, inst: &Inst, fact: &mut RegFacts) {
        // Calls, indirect control flow and syscalls may run unknown
        // code: every register except %rsp becomes unknown — unless the
        // call is direct and its callee has a summary, in which case the
        // callee's effect (at-return facts gated by its may-write mask)
        // replaces the blanket clobber.
        if matches!(inst.op, Op::Call | Op::CallInd | Op::Syscall) {
            if inst.op == Op::Call {
                if let Some(eff) = inst.branch_target().and_then(|t| self.call_effects.get(&t)) {
                    eff.apply(fact);
                    return;
                }
            }
            fact.clobber_all_but_rsp();
            return;
        }
        // 8-bit operations (`mov $imm, %al`, `xor %al, %al`, 8-bit ALU
        // and shifts) are *partial* writes: the upper 56 bits of the
        // destination survive, so none of the value-tracking arms below
        // apply. Fall through to the default, which sends every written
        // register to Top. (Movzx8/Movsx8/Movsxd carry their
        // *destination* width in `inst.w`, which is always W32/W64.)
        if inst.w != Width::W8 {
            self.transfer_value(inst, fact);
            return;
        }
        // 8-bit partial writes: the written register's full value is
        // unknown. %rsp keeps its axiom.
        for r in Reg::from_mask(inst.regs_written_mask()) {
            fact.set(r, AbsVal::Top);
        }
    }
}

impl ProvenanceAnalysis {
    /// Transfer for full-width (W32/W64) instructions; calls/syscalls
    /// and 8-bit partial writes are already handled by the caller.
    fn transfer_value(&self, inst: &Inst, fact: &mut RegFacts) {
        use Operands::*;
        match (inst.op, &inst.operands) {
            // Constant loads.
            (Op::Mov, RI { dst, imm }) => {
                let v = if inst.w == Width::W32 {
                    AbsVal::exact(*imm as u32 as i128)
                } else {
                    AbsVal::exact(*imm as i128)
                };
                fact.set(*dst, v);
                return;
            }
            // Register copies.
            (Op::Mov, RR { dst, src }) => {
                let v = match inst.w {
                    Width::W32 => fact.get(*src).zext32(),
                    _ => fact.get(*src),
                };
                fact.set(*dst, v);
                return;
            }
            // Address computation.
            (Op::Lea, RM { dst, src }) => {
                let v = if src.rip {
                    AbsVal::exact(src.disp as i128)
                } else {
                    let base = src.base.map_or(AbsVal::exact(0), |b| fact.get(b));
                    let index = src.index.map_or(AbsVal::exact(0), |i| {
                        fact.get(i).mul_const(src.scale as i128)
                    });
                    base.add(index).add_const(src.disp as i128)
                };
                // `leal` truncates the computed address to 32 bits and
                // zero-extends; the full-width interval would exclude
                // the truncated value.
                let v = if inst.w == Width::W32 { v.zext32() } else { v };
                fact.set(*dst, v);
                return;
            }
            // Width-bounded loads.
            (Op::Movzx8, RM { dst, .. } | RR { dst, .. }) => {
                fact.set(*dst, AbsVal::Interval { lo: 0, hi: 255 });
                return;
            }
            (Op::Movsx8, RM { dst, .. } | RR { dst, .. }) => {
                // `movsbq` yields [-128, 127] as 64-bit residues, but
                // `movsbl` sign-extends only to 32 bits and then
                // zero-extends: negative bytes land at 0xffff_ff80..=
                // 0xffff_ffff, inside [0, u32::MAX] and far from
                // [-128, -1] mod 2^64.
                let v = match inst.w {
                    Width::W64 => AbsVal::Interval { lo: -128, hi: 127 },
                    _ => AbsVal::Interval {
                        lo: 0,
                        hi: u32::MAX as i128,
                    },
                };
                fact.set(*dst, v);
                return;
            }
            (Op::Movsxd, RM { dst, .. } | RR { dst, .. }) => {
                fact.set(
                    *dst,
                    AbsVal::Interval {
                        lo: i32::MIN as i128,
                        hi: i32::MAX as i128,
                    },
                );
                return;
            }
            // Immediate arithmetic.
            (Op::Alu(op), RI { dst, imm }) => {
                let cur = fact.get(*dst);
                let v = match op {
                    AluOp::Add => cur.add_const(*imm as i128),
                    AluOp::Sub => cur.add_const(-(*imm as i128)),
                    AluOp::And if *imm >= 0 => AbsVal::Interval {
                        lo: 0,
                        hi: *imm as i128,
                    },
                    AluOp::Cmp => cur, // no register write
                    _ => AbsVal::Top,
                };
                let v = if inst.w == Width::W32 { v.zext32() } else { v };
                fact.set(*dst, v);
                return;
            }
            // Register arithmetic.
            (Op::Alu(op), RR { dst, src }) => {
                let v = match op {
                    AluOp::Add => fact.get(*dst).add(fact.get(*src)),
                    AluOp::Sub if dst == src => AbsVal::exact(0),
                    AluOp::Sub => fact.get(*dst).sub(fact.get(*src)),
                    AluOp::Xor if dst == src => AbsVal::exact(0),
                    AluOp::Cmp => return, // no register write
                    _ => AbsVal::Top,
                };
                let v = if inst.w == Width::W32 { v.zext32() } else { v };
                fact.set(*dst, v);
                return;
            }
            // Shifts by constant.
            (Op::Shift(op), RI { dst, imm }) => {
                let k = (*imm as u32).min(63);
                let v = match (op, fact.get(*dst)) {
                    (ShiftOp::Shl, AbsVal::Interval { lo, hi }) if lo >= 0 => {
                        let f = 1i128 << k;
                        AbsVal::interval_checked(lo.checked_mul(f), hi.checked_mul(f))
                    }
                    (ShiftOp::Shr | ShiftOp::Sar, AbsVal::Interval { lo, hi })
                        if lo >= 0 && hi < (1i128 << 64) =>
                    {
                        AbsVal::interval(lo >> k, hi >> k)
                    }
                    // Logical right shift of *any* 64-bit value is
                    // bounded by 2^(64-k).
                    (ShiftOp::Shr, _) if k > 0 => AbsVal::Interval {
                        lo: 0,
                        hi: (1i128 << (64 - k)) - 1,
                    },
                    _ => AbsVal::Top,
                };
                let v = if inst.w == Width::W32 { v.zext32() } else { v };
                fact.set(*dst, v);
                return;
            }
            // Conditional move: either the old or the new value.
            (Op::Cmovcc(_), RR { dst, src }) => {
                let v = fact.get(*dst).join(fact.get(*src));
                let v = if inst.w == Width::W32 { v.zext32() } else { v };
                fact.set(*dst, v);
                return;
            }
            // Sign-extension of rax into rdx.
            (Op::Cqo, _) => {
                fact.set(Reg::Rdx, AbsVal::Interval { lo: -1, hi: 0 });
                return;
            }
            _ => {}
        }
        // Default: every written register becomes unknown (loads, pop,
        // mul/div, ...). %rsp keeps its axiom.
        for r in Reg::from_mask(inst.regs_written_mask()) {
            fact.set(r, AbsVal::Top);
        }
    }
}

/// The computed provenance solution plus site-level queries.
pub struct Provenance {
    solution: ForwardSolution<ProvenanceAnalysis>,
    roots: BTreeSet<u64>,
}

impl Provenance {
    /// Runs the analysis over a disassembled image.
    pub fn compute(disasm: &Disasm, cfg: &Cfg, entry: u64) -> Provenance {
        Provenance::compute_with_roots(disasm, cfg, &unknown_entries(disasm, cfg, entry))
    }

    /// Runs the analysis with a precomputed unknown-entry set, for
    /// callers that shard one image into per-component sub-`Cfg`s:
    /// `unknown_entries` scans the whole disassembly (its any-indirect
    /// escape hatch is an image-wide property), so the pipeline computes
    /// it once globally and this constructor intersects it with the
    /// blocks actually present in `cfg`.
    pub fn compute_with_roots(disasm: &Disasm, cfg: &Cfg, roots: &BTreeSet<u64>) -> Provenance {
        Provenance::compute_with_roots_and_effects(disasm, cfg, roots, HashMap::new())
    }

    /// Interprocedural variant: direct calls to callees present in
    /// `effects` apply the callee's summary instead of clobbering.
    /// Sound for any sound effect map; an empty map reproduces the
    /// intraprocedural analysis exactly.
    pub fn compute_with_roots_and_effects(
        disasm: &Disasm,
        cfg: &Cfg,
        roots: &BTreeSet<u64>,
        effects: HashMap<u64, CallEffect>,
    ) -> Provenance {
        let roots: BTreeSet<u64> = roots
            .iter()
            .copied()
            .filter(|r| cfg.blocks.contains_key(r))
            .collect();
        let solution = solve_forward(
            ProvenanceAnalysis::with_effects(effects),
            disasm,
            cfg,
            &roots,
        );
        Provenance { solution, roots }
    }

    /// The unknown-entry blocks the analysis was rooted at.
    pub fn roots(&self) -> &BTreeSet<u64> {
        &self.roots
    }

    /// Register facts immediately before `addr`, or `None` for
    /// unreached/unknown instructions.
    pub fn facts_before(&self, disasm: &Disasm, cfg: &Cfg, addr: u64) -> Option<RegFacts> {
        self.solution.fact_before(disasm, cfg, addr)
    }

    /// Flow-sensitive version of [`crate::elim::can_reach_heap`]: `true`
    /// if the instruction's memory access might touch low-fat heap
    /// memory. Conservative (`true`) for instructions the analysis did
    /// not reach.
    pub fn site_can_reach_heap(&self, disasm: &Disasm, cfg: &Cfg, addr: u64, inst: &Inst) -> bool {
        let Some(mem) = inst.memory_access() else {
            return false;
        };
        let len = inst.access_len().unwrap_or(8);
        match self.facts_before(disasm, cfg, addr) {
            Some(facts) => !operand_non_heap(&facts, &mem, len),
            None => true,
        }
    }

    /// Human-readable rendering of the operand's abstract address span
    /// at `addr` (for `AnalysisReport`).
    pub fn describe_span(&self, disasm: &Disasm, cfg: &Cfg, addr: u64, inst: &Inst) -> String {
        let Some(mem) = inst.memory_access() else {
            return "no access".to_string();
        };
        let len = inst.access_len().unwrap_or(8);
        match self.facts_before(disasm, cfg, addr) {
            None => "unreached".to_string(),
            Some(facts) => match operand_span(&facts, &mem, len) {
                None => "addr ∈ ⊤".to_string(),
                Some((lo, hi)) => format!("addr ∈ [{lo:#x}, {hi:#x}]"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_check_basics() {
        let hs = layout::heap_start() as i128;
        let he = layout::heap_end() as i128;
        assert!(span_avoids_heap(0, hs - 1));
        assert!(!span_avoids_heap(0, hs));
        assert!(!span_avoids_heap(hs, hs));
        assert!(!span_avoids_heap(he - 1, he - 1));
        assert!(span_avoids_heap(he, he + 100));
        // Negative span wraps to the top of the address space, far above
        // heap_end.
        assert!(span_avoids_heap(-64, -1));
        // ...but a huge span covers everything.
        assert!(!span_avoids_heap(-64, (1i128 << 64) - 65));
        // A span one wraparound up still hits the translated heap copy.
        assert!(!span_avoids_heap((1i128 << 64) + hs, (1i128 << 64) + hs));
    }

    #[test]
    fn interval_arithmetic() {
        let a = AbsVal::Interval { lo: 4, hi: 8 };
        let b = AbsVal::Interval { lo: -2, hi: 2 };
        assert_eq!(a.add(b), AbsVal::Interval { lo: 2, hi: 10 });
        assert_eq!(a.sub(b), AbsVal::Interval { lo: 2, hi: 10 });
        assert_eq!(a.mul_const(8), AbsVal::Interval { lo: 32, hi: 64 });
        assert_eq!(a.join(b), AbsVal::Interval { lo: -2, hi: 8 });
        assert_eq!(AbsVal::Top.join(a), AbsVal::Top);
    }

    #[test]
    fn rsp_axiom_survives_clobbers() {
        let mut f = RegFacts::top();
        f.set(Reg::Rsp, AbsVal::Top); // set() must refuse
        assert_eq!(f.get(Reg::Rsp), stack_interval());
    }

    fn inst(op: Op, w: Width, operands: Operands) -> Inst {
        Inst { op, w, operands }
    }

    fn with_exact_rax(v: i128) -> RegFacts {
        let mut f = RegFacts::top();
        f.set(Reg::Rax, AbsVal::exact(v));
        f
    }

    /// 8-bit instructions write only the low byte; the analysis must
    /// not record a full-register fact for them.
    #[test]
    fn w8_partial_writes_clobber_to_top() {
        let a = ProvenanceAnalysis::new();
        let rax_imm = |w, imm| inst(Op::Mov, w, Operands::RI { dst: Reg::Rax, imm });

        // mov $1, %al on a register holding a (possibly-heap) pointer.
        let mut f = with_exact_rax(0x1234_5678_9abc);
        a.transfer(0, &rax_imm(Width::W8, 1), &mut f);
        assert_eq!(f.get(Reg::Rax), AbsVal::Top);

        // xor %al, %al is NOT a full zeroing idiom.
        let mut f = with_exact_rax(0x1234_5678_9abc);
        let xor8 = inst(
            Op::Alu(AluOp::Xor),
            Width::W8,
            Operands::RR {
                dst: Reg::Rax,
                src: Reg::Rax,
            },
        );
        a.transfer(0, &xor8, &mut f);
        assert_eq!(f.get(Reg::Rax), AbsVal::Top);

        // and $15, %al bounds only the low byte.
        let mut f = with_exact_rax(0x1234_5678_9abc);
        let and8 = inst(
            Op::Alu(AluOp::And),
            Width::W8,
            Operands::RI {
                dst: Reg::Rax,
                imm: 15,
            },
        );
        a.transfer(0, &and8, &mut f);
        assert_eq!(f.get(Reg::Rax), AbsVal::Top);

        // shl $4, %al shifts only the low byte.
        let mut f = with_exact_rax(3);
        let shl8 = inst(
            Op::Shift(ShiftOp::Shl),
            Width::W8,
            Operands::RI {
                dst: Reg::Rax,
                imm: 4,
            },
        );
        a.transfer(0, &shl8, &mut f);
        assert_eq!(f.get(Reg::Rax), AbsVal::Top);

        // Full-width constant loads still give exact facts.
        let mut f = RegFacts::top();
        a.transfer(0, &rax_imm(Width::W64, 42), &mut f);
        assert_eq!(f.get(Reg::Rax), AbsVal::exact(42));
    }

    /// movsbl zero-extends the 32-bit sign-extension: negative bytes
    /// land at 0xffff_ff8x, not at -1..-128 mod 2^64.
    #[test]
    fn movsx8_width_sensitivity() {
        let a = ProvenanceAnalysis::new();
        let movsx = |w| {
            inst(
                Op::Movsx8,
                w,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rcx,
                },
            )
        };

        let mut f = RegFacts::top();
        a.transfer(0, &movsx(Width::W64), &mut f);
        assert_eq!(f.get(Reg::Rax), AbsVal::Interval { lo: -128, hi: 127 });

        let mut f = RegFacts::top();
        a.transfer(0, &movsx(Width::W32), &mut f);
        assert_eq!(
            f.get(Reg::Rax),
            AbsVal::Interval {
                lo: 0,
                hi: u32::MAX as i128
            }
        );
    }

    /// leal truncates the computed address to 32 bits.
    #[test]
    fn lea32_clamps_result() {
        let a = ProvenanceAnalysis::new();
        let mut f = RegFacts::top();
        f.set(Reg::Rbx, AbsVal::exact(0x1_0000_0010));
        let lea = inst(
            Op::Lea,
            Width::W32,
            Operands::RM {
                dst: Reg::Rax,
                src: Mem::base(Reg::Rbx),
            },
        );
        a.transfer(0, &lea, &mut f);
        assert_eq!(
            f.get(Reg::Rax),
            AbsVal::Interval {
                lo: 0,
                hi: u32::MAX as i128
            }
        );
    }

    /// Bound arithmetic that overflows i128 must widen to Top, not
    /// panic (debug) or wrap (release).
    #[test]
    fn interval_arithmetic_saturates_to_top() {
        let big = AbsVal::exact(i128::MAX - 1);
        assert_eq!(big.add_const(2), AbsVal::Top);
        assert_eq!(big.add(AbsVal::exact(2)), AbsVal::Top);
        assert_eq!(
            AbsVal::exact(i128::MIN + 1).sub(AbsVal::exact(2)),
            AbsVal::Top
        );
        assert_eq!(big.mul_const(2), AbsVal::Top);
        assert_eq!(big.mul_const(-2), AbsVal::Top);

        // A long straight-line chain of doublings (each an exact,
        // zero-width interval, so widening never fires) stays safe.
        let mut v = AbsVal::exact(1);
        for _ in 0..200 {
            v = v.mul_const(2);
        }
        assert_eq!(v, AbsVal::Top);

        // Same via repeated shl-by-imm through the transfer function.
        let a = ProvenanceAnalysis::new();
        let mut f = with_exact_rax(1);
        let shl = inst(
            Op::Shift(ShiftOp::Shl),
            Width::W64,
            Operands::RI {
                dst: Reg::Rax,
                imm: 63,
            },
        );
        for _ in 0..4 {
            a.transfer(0, &shl, &mut f);
        }
        assert_eq!(f.get(Reg::Rax), AbsVal::Top);
    }
}
