//! The translated execution tier ([`Emu::step_fast`]): one trace
//! interpreter that runs pre-decoded traces in place of the step
//! interpreter.
//!
//! The step interpreter ([`Emu::step`]) pays one instruction-cache probe
//! (segment search, slot load, pool indirection, a full [`Inst`] copy),
//! one fall-through `rip` computation, one software-MMU lookup per
//! access and one counter update per instruction. The translated tier
//! instead decodes a run of instructions into a pre-resolved trace on
//! first execution, so execution needs at most one cache probe per
//! trace, and removes the per-transfer and per-access costs as well
//! (DESIGN.md §12):
//!
//! * **Trace formation.** The trace builder decodes straight-line code
//!   and follows *direct* edges: an unconditional `jmp`/`call` keeps
//!   decoding at its target (the transfer becomes an interior charge
//!   pseudo-op), a conditional branch keeps decoding along its
//!   fall-through path (predicted not taken) and becomes a checked
//!   [`FastOp::JccInline`] with a **side exit** for the taken
//!   direction, and a `ret` whose matching `call` was inlined earlier
//!   in the same trace becomes [`FastOp::RetInline`]: the return
//!   address is popped and *compared* against the build-time
//!   prediction, so an entire call-return pair of a small helper runs
//!   inside one trace. Formation stops at indirect transfers, at
//!   addresses already in the trace (loop closure, including a
//!   conditional branch back into the trace), at [`TRACE_CAP`]
//!   instructions or [`MAX_INLINE_DEPTH`] nested inlined calls.
//!   Mispredicted interior branches roll back the unexecuted
//!   tail of the block charge and leave through a per-site side link.
//! * **Chaining.** A trace ending in a direct jump, call, conditional
//!   branch or fall-through stores link slots (`link_taken` /
//!   `link_fall`) naming its successor block, and every interior side
//!   exit has its own link slot. Links are patched on first execution
//!   and validated against the owning segments' versions on every
//!   follow (a trace records one `(segment, version)` dependency per
//!   code segment it decoded from); [`Emu::invalidate_code`] bumps the
//!   version, which lazily severs every stale link. Hot loops run
//!   trace-to-trace without touching the block cache at all.
//! * **Indirect-branch inline caches.** Blocks ending in `ret` or an
//!   indirect `jmp`/`call` carry a tiny per-exit-site cache of
//!   (observed target → block index) pairs, probed before the global
//!   cache and maintained LRU. Version-checked like direct links.
//! * **Dead-flag elision.** At build time,
//!   [`redfat_analysis::dead_flags_in_run`] marks instructions whose
//!   EFLAGS outputs are provably overwritten before any read *within
//!   the block*, under a conservative "flags live at every possible
//!   exit" rule (any instruction that can fault, trap or leave the
//!   block pins flags live). Marked instructions execute through pure
//!   value helpers ([`alu_value`]/[`shift_value`]) or with the flag
//!   helpers muted (`Emu::noflags`), skipping flag materialization.
//! * **Build-time specialization.** The block body is compiled into a
//!   dense [`FastOp`] stream: operand shapes resolved once at decode
//!   time (register codes, width-masked immediates, flattened
//!   [`MemFast`] addressing), sized so the hot loop streams small
//!   fixed-width entries instead of full [`Inst`] records. Fast paths
//!   never store the architectural `rip` (it is unobservable between
//!   exits); instructions that can fault carry their fall-through
//!   address so faults report exactly the `rip` the step interpreter
//!   would, and the cold error path materializes `cpu.rip` before
//!   unwinding.
//! * **Host-pointer caching.** Every memory-touching trace op owns a
//!   [`MemSlot`]: a `(page, segment, epoch)` resolution cache that lets
//!   repeat accesses through the same operand skip the software-MMU
//!   lookup *and* the protection check entirely
//!   ([`redfat_vm::Vm::read_cached`]). Slots die with their block
//!   (rebuilds after [`Emu::invalidate_code`] get fresh ones) and are
//!   retired wholesale by the VM epoch when segments are mapped or
//!   grown; any miss falls back to the tagged-TLB path with exact
//!   fault semantics.
//! * **Batched counters.** The build-time-known counter contributions
//!   of a block's predicted path (loads/stores, multiplies, interior
//!   transfer accounting) are precomputed as prefix sums
//!   ([`StaticCharge`]) and flushed in one batch at block entry instead
//!   of per instruction; early exits roll back to the exiting op's
//!   prefix and recharge its actual partial effects.
//!
//! Counter semantics are *identical* to the step interpreter at every
//! `step_fast` return: every entry bumps `instructions` exactly as
//! [`Emu::step`] does, block-level charges are rolled back on early
//! exit, terminal transfers replicate `step()`'s
//! branch/transfer/crossing accounting (`ret` and
//! register-indirect `jmp`/`call` terminals are replicated inline;
//! memory-indirect forms and traps defer to the interpreter), and a
//! budget smaller than the block falls back to exact per-instruction
//! interpretation (with elision disabled, so flags are architecturally
//! exact at the step-limit boundary). What the tier changes is *when*
//! mid-trace state becomes current, never whether: nothing can observe
//! counters or registers between trace entry and exit, because the
//! memory path dispatches no access hook. Runtimes that do observe
//! accesses ([`Runtime::OBSERVES_MEMORY`]) therefore never enter a
//! trace; they run on the step interpreter, which dispatches the hook
//! on every access in program order. The boundary-audit oracle
//! (`redfat-core::selftest`) locksteps the tier against the step
//! interpreter at every return to enforce that equivalence rather than
//! argue it.
//!
//! Cache-maintenance counters live in [`TraceStats`], deliberately
//! outside [`crate::Counters`] (the lockstep oracle requires `Counters`
//! to be bit-identical across backends).

use crate::cost::{Counters, TraceStats};
use crate::exec::{alu_value, in_tramp, shift_value, width_mask, Emu, EmuError, RunResult};
use crate::runtime::Runtime;
use redfat_vm::{MemSlot, Vm, VmFault};
use redfat_x86::{decode_one, AluOp, Cond, Inst, Mem, MulDivOp, Op, Operands, Reg, ShiftOp, Width};

/// Upper bound on instructions per trace. Keeps pathological
/// straight-line runs (huge unrolled loops) from producing unbounded
/// decode work on a cold probe; a capped trace simply falls through to
/// the trace starting at its end. Must stay below `u8::MAX`: slow-path
/// ops index the decoded instruction table with a `u8`.
pub const TRACE_CAP: usize = 192;

/// Maximum depth of `call`s inlined into one trace (bounds the
/// build-time return stack; recursion stops at the cap).
pub const MAX_INLINE_DEPTH: usize = 8;

/// "No successor linked" sentinel for link slots and IC entries.
const NO_LINK: u32 = u32::MAX;

/// Ways in the per-exit-site indirect-branch inline cache.
const IC_WAYS: usize = 2;

/// "No register" sentinel in [`MemFast`].
const NO_REG: u8 = 0xFF;

const RSP: usize = Reg::Rsp as usize;

/// A memory operand flattened for the fast path: register codes with a
/// sentinel instead of `Option<Reg>`, and RIP-relative forms already
/// reduced to an absolute displacement (the decoder resolves them).
/// Segment overrides are ignored, exactly like [`Emu::ea`].
#[derive(Clone, Copy)]
struct MemFast {
    base: u8,
    index: u8,
    scale: u8,
    disp: i64,
}

impl MemFast {
    fn from(m: &Mem) -> MemFast {
        if m.rip {
            return MemFast {
                base: NO_REG,
                index: NO_REG,
                scale: 0,
                disp: m.disp,
            };
        }
        MemFast {
            base: m.base.map_or(NO_REG, Reg::code),
            index: m.index.map_or(NO_REG, Reg::code),
            scale: m.scale,
            disp: m.disp,
        }
    }
}

/// Effective address of a flattened memory operand; mirrors [`Emu::ea`].
#[inline(always)]
fn ea_fast(regs: &[u64; 16], m: &MemFast) -> u64 {
    let mut a = m.disp as u64;
    if m.base != NO_REG {
        a = a.wrapping_add(regs[m.base as usize]);
    }
    if m.index != NO_REG {
        a = a.wrapping_add(regs[m.index as usize].wrapping_mul(m.scale as u64));
    }
    a
}

/// Register read at width; mirrors `Cpu::read` without the `Reg`
/// round-trip.
#[inline(always)]
fn rd(regs: &[u64; 16], r: u8, w: Width) -> u64 {
    let v = regs[r as usize];
    match w {
        Width::W8 => v & 0xFF,
        Width::W32 => v & 0xFFFF_FFFF,
        Width::W64 => v,
    }
}

/// Register write at width with x86-64 semantics; mirrors `Cpu::write`.
#[inline(always)]
fn wr(regs: &mut [u64; 16], r: u8, w: Width, v: u64) {
    let slot = &mut regs[r as usize];
    match w {
        Width::W8 => *slot = (*slot & !0xFF) | (v & 0xFF),
        Width::W32 => *slot = v & 0xFFFF_FFFF,
        Width::W64 => *slot = v,
    }
}

/// Register-extension kinds with a fast path.
#[derive(Clone, Copy)]
enum ExtKind {
    Zx8,
    Sx8,
    Sxd,
}

/// Build-time specialization of one instruction. `Slow` defers to the
/// full interpreter arm ([`Emu::exec`]) via an index into the block's
/// decoded [`TraceInst`] table; every other variant replicates the
/// corresponding `exec` arm exactly (same reads, same widths, same
/// fault order) with the operand shape pre-resolved. Variants that
/// touch memory carry their fall-through address so faults report the
/// exact `rip` the step interpreter would.
#[derive(Clone, Copy)]
enum FastOp {
    /// Full interpreter dispatch of `insts[idx]`.
    Slow {
        idx: u8,
    },
    /// Full interpreter dispatch with flag computation muted (the
    /// instruction's flag outputs are provably dead in this block and
    /// it cannot exit the run).
    SlowElide {
        idx: u8,
    },
    /// No architectural effect: `nop`, or a `cmp`/`test` whose flags
    /// are dead.
    Nop,
    MovRR {
        w64: bool,
        dst: u8,
        src: u8,
    },
    /// `imm` already width-masked for a full register write.
    MovRI {
        dst: u8,
        imm: u64,
    },
    AluRR {
        op: AluOp,
        w: Width,
        dst: u8,
        src: u8,
        flags: bool,
    },
    AluRI {
        op: AluOp,
        w: Width,
        dst: u8,
        imm: u64,
        flags: bool,
    },
    AluRM {
        op: AluOp,
        w: Width,
        dst: u8,
        flags: bool,
        mem: MemFast,
        next: u64,
    },
    TestRR {
        w: Width,
        a: u8,
        b: u8,
    },
    TestRI {
        w: Width,
        a: u8,
        imm: u64,
    },
    Lea {
        w: Width,
        dst: u8,
        mem: MemFast,
    },
    LoadRM {
        w: Width,
        dst: u8,
        mem: MemFast,
        next: u64,
    },
    StoreMR {
        w: Width,
        src: u8,
        mem: MemFast,
        next: u64,
    },
    StoreMI {
        w: Width,
        imm: u64,
        mem: MemFast,
        next: u64,
    },
    ExtRR {
        kind: ExtKind,
        dst: u8,
        src: u8,
    },
    ExtRM {
        kind: ExtKind,
        dst: u8,
        mem: MemFast,
        next: u64,
    },
    SetccR {
        cond: Cond,
        dst: u8,
    },
    CmovRR {
        cond: Cond,
        w: Width,
        dst: u8,
        src: u8,
    },
    ShiftRI {
        op: ShiftOp,
        w: Width,
        dst: u8,
        count: u32,
        flags: bool,
    },
    PushR {
        src: u8,
        next: u64,
    },
    PopR {
        dst: u8,
        next: u64,
    },
    Cqo {
        w64: bool,
    },
    Imul2RR {
        w: Width,
        dst: u8,
        src: u8,
    },
    Imul2RM {
        w: Width,
        dst: u8,
        mem: MemFast,
        next: u64,
    },
    /// `imm` already width-masked.
    Imul3RRI {
        w: Width,
        dst: u8,
        src: u8,
        imm: u64,
    },
    MulDivR {
        op: MulDivOp,
        w: Width,
        src: u8,
        rip: u64,
        next: u64,
    },
    /// Interior direct `jmp` (trace formation followed the edge):
    /// transfer/crossing accounting only, control stays in-trace.
    ChargeJmp {
        next: u64,
        to: u64,
    },
    /// Interior direct `call`: push the return address (faultable),
    /// then transfer accounting; the callee body follows in-trace.
    ChargeCall {
        next: u64,
        to: u64,
    },
    /// Interior conditional branch, predicted not taken: the trace was
    /// built along the fall-through path. When the branch is not taken,
    /// control stays in-trace; when it is taken, the op charges the
    /// taken branch, sets `rip` and leaves through side link `side`.
    JccInline {
        cond: Cond,
        next: u64,
        to: u64,
        side: u16,
    },
    /// Interior `ret` whose matching `call` was inlined earlier in the
    /// trace: pop + transfer accounting, then the popped target is
    /// compared against the build-time return address `expect`; a
    /// mismatch (stack rewritten under us) leaves through `side`.
    RetInline {
        expect: u64,
        next: u64,
        side: u16,
    },
    /// Fused compare-and-branch: an adjacent `cmp`/`test` +
    /// [`FastOp::JccInline`] pair whose flags are provably dead after
    /// the branch *within the trace*
    /// ([`redfat_analysis::flags_live_after_run`]). The condition is
    /// evaluated directly from the operands -- no flag materialization
    /// on the predicted path; the mispredict side exit materializes
    /// the compare's flags exactly before leaving (the operand
    /// registers are untouched between the pair). The compare's slot
    /// in the op stream stays as a [`FastOp::Nop`] so op indices keep
    /// matching instruction indices for charge rollback.
    CmpJcc {
        w: Width,
        a: u8,
        /// `NO_REG` selects `imm` as the right-hand side.
        b: u8,
        imm: u64,
        /// `test` (and) semantics instead of `cmp` (sub).
        test: bool,
        cond: Cond,
        next: u64,
        to: u64,
        side: u16,
    },
}

/// Build-time-known counter contributions of one trace op on its
/// *predicted* (in-trace) path. The trace builder accumulates these as
/// prefix sums over the op stream ([`TraceBlock::charge`]), charges the
/// block total in one batch at entry, and on an early exit at op `i`
/// rolls back to prefix `i` (or `i + 1` for ops whose fault path keeps
/// their charge: `step()` counts an access before it faults) plus
/// the op's recharged actual effects. Counts only: cycles are priced
/// when the run returns.
#[derive(Clone, Copy, Default)]
struct StaticCharge {
    loads: u16,
    stores: u16,
    muls: u16,
    transfers: u16,
    crossings: u16,
}

impl StaticCharge {
    #[inline(always)]
    fn add(&mut self, o: StaticCharge) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.muls += o.muls;
        self.transfers += o.transfers;
        self.crossings += o.crossings;
    }

    /// Field-wise `self - o`; callers only subtract a prefix from a
    /// total that contains it.
    #[inline(always)]
    fn minus(self, o: StaticCharge) -> StaticCharge {
        StaticCharge {
            loads: self.loads - o.loads,
            stores: self.stores - o.stores,
            muls: self.muls - o.muls,
            transfers: self.transfers - o.transfers,
            crossings: self.crossings - o.crossings,
        }
    }

    #[inline(always)]
    fn apply(self, c: &mut Counters) {
        c.loads += self.loads as u64;
        c.stores += self.stores as u64;
        c.muls += self.muls as u64;
        c.transfers += self.transfers as u64;
        c.region_crossings += self.crossings as u64;
    }

    #[inline(always)]
    fn revert(self, c: &mut Counters) {
        c.loads -= self.loads as u64;
        c.stores -= self.stores as u64;
        c.muls -= self.muls as u64;
        c.transfers -= self.transfers as u64;
        c.region_crossings -= self.crossings as u64;
    }
}

/// The static (build-time-known) charge of `op`'s predicted path,
/// mirroring exactly what `step()` counts for it. Kept dynamic on
/// purpose: `MulDivR` ([`Emu::muldiv`] counts itself, and a divide
/// counts even on `DivideError`), the multiply of `Imul2RM` (counted
/// only after its load succeeds, like `exec`), and everything behind
/// `Slow`/`SlowElide`.
fn static_charge(op: &FastOp) -> StaticCharge {
    let mut c = StaticCharge::default();
    match *op {
        FastOp::LoadRM { .. }
        | FastOp::ExtRM { .. }
        | FastOp::AluRM { .. }
        | FastOp::Imul2RM { .. }
        | FastOp::PopR { .. } => c.loads = 1,
        FastOp::StoreMR { .. } | FastOp::StoreMI { .. } | FastOp::PushR { .. } => c.stores = 1,
        FastOp::Imul2RR { .. } | FastOp::Imul3RRI { .. } => c.muls = 1,
        FastOp::ChargeJmp { next, to } => {
            c.transfers = 1;
            c.crossings = (in_tramp(next) != in_tramp(to)) as u16;
        }
        FastOp::ChargeCall { next, to } => {
            c.stores = 1;
            c.transfers = 1;
            c.crossings = (in_tramp(next) != in_tramp(to)) as u16;
        }
        FastOp::RetInline { expect, next, .. } => {
            c.loads = 1;
            c.transfers = 1;
            c.crossings = (in_tramp(next) != in_tramp(expect)) as u16;
        }
        _ => {}
    }
    c
}

/// Whether the body loop's dispatch of `op` consumes one
/// [`TraceBlock::mem_cache`] slot (must match its `load_fast` /
/// `store_fast` calls, in program order).
fn uses_mem_slot(op: &FastOp) -> bool {
    matches!(
        op,
        FastOp::AluRM { .. }
            | FastOp::LoadRM { .. }
            | FastOp::StoreMR { .. }
            | FastOp::StoreMI { .. }
            | FastOp::ExtRM { .. }
            | FastOp::PushR { .. }
            | FastOp::PopR { .. }
            | FastOp::Imul2RM { .. }
            | FastOp::ChargeCall { .. }
            | FastOp::RetInline { .. }
    )
}

/// Width dispatch over [`Vm::read_cached`]: [`Emu::load_at_rip`] minus
/// the hook dispatch and the per-access counter writes, both of which
/// the translated tier batches or elides.
#[inline(always)]
fn read_cached_w(vm: &Vm, addr: u64, w: Width, slot: &MemSlot) -> Result<u64, VmFault> {
    Ok(match w {
        Width::W8 => vm.read_cached::<1>(addr, slot)?[0] as u64,
        Width::W32 => u32::from_le_bytes(vm.read_cached::<4>(addr, slot)?) as u64,
        Width::W64 => u64::from_le_bytes(vm.read_cached::<8>(addr, slot)?),
    })
}

/// Width dispatch over [`Vm::write_cached`]; see [`read_cached_w`].
#[inline(always)]
fn write_cached_w(vm: &mut Vm, addr: u64, w: Width, v: u64, slot: &MemSlot) -> Result<(), VmFault> {
    match w {
        Width::W8 => vm.write_cached(addr, &[v as u8], slot),
        Width::W32 => vm.write_cached(addr, &(v as u32).to_le_bytes(), slot),
        Width::W64 => vm.write_cached(addr, &v.to_le_bytes(), slot),
    }
}

/// Sign-extended value of a width-masked operand.
#[inline(always)]
fn sx(w: Width, v: u64) -> i64 {
    match w {
        Width::W8 => v as u8 as i8 as i64,
        Width::W32 => v as u32 as i32 as i64,
        Width::W64 => v as i64,
    }
}

/// Whether [`cmp_cond`]/[`test_cond`] can evaluate `cond` directly
/// (the unsupported combinations need the overflow/parity bits of a
/// subtraction, which cost as much as materializing the flags).
fn fusable_cond(cond: Cond, test: bool) -> bool {
    !matches!(cond, Cond::O | Cond::No | Cond::P | Cond::Np) || test
}

/// `cond` after `cmp a, b` (sub compare), via the standard x86
/// identities (zf ⇔ `a == b`, cf ⇔ unsigned borrow, sf≠of ⇔ signed
/// less-than); operands are width-masked.
#[inline(always)]
fn cmp_cond(cond: Cond, w: Width, a: u64, b: u64) -> bool {
    match cond {
        Cond::E => a == b,
        Cond::Ne => a != b,
        Cond::B => a < b,
        Cond::Ae => a >= b,
        Cond::Be => a <= b,
        Cond::A => a > b,
        Cond::L => sx(w, a) < sx(w, b),
        Cond::Ge => sx(w, a) >= sx(w, b),
        Cond::Le => sx(w, a) <= sx(w, b),
        Cond::G => sx(w, a) > sx(w, b),
        Cond::S => sx(w, a.wrapping_sub(b) & width_mask(w)) < 0,
        Cond::Ns => sx(w, a.wrapping_sub(b) & width_mask(w)) >= 0,
        Cond::O | Cond::No | Cond::P | Cond::Np => unreachable!("not fused"),
    }
}

/// `cond` after `test a, b` (`r = a & b`, cf = of = 0); `r` is
/// width-masked.
#[inline(always)]
fn test_cond(cond: Cond, w: Width, r: u64) -> bool {
    match cond {
        Cond::E | Cond::Be => r == 0,
        Cond::Ne | Cond::A => r != 0,
        Cond::B | Cond::O => false,
        Cond::Ae | Cond::No => true,
        Cond::S | Cond::L => sx(w, r) < 0,
        Cond::Ns | Cond::Ge => sx(w, r) >= 0,
        Cond::Le => r == 0 || sx(w, r) < 0,
        Cond::G => r != 0 && sx(w, r) >= 0,
        Cond::P => (r as u8).count_ones().is_multiple_of(2),
        Cond::Np => !(r as u8).count_ones().is_multiple_of(2),
    }
}

/// Resolves an instruction's fast path. `dead_flags` is the verdict of
/// [`redfat_analysis::dead_flags_in_run`]: when true the instruction
/// must-writes all flags, cannot exit the run, and no later instruction
/// reads its flag outputs before they are overwritten.
fn specialize(inst: &Inst, rip: u64, next: u64, idx: u8, dead_flags: bool) -> FastOp {
    use Operands as O;
    let w = inst.w;
    match (inst.op, &inst.operands) {
        (Op::Nop, O::None) => FastOp::Nop,
        (Op::Push, O::R(r)) => FastOp::PushR {
            src: r.code(),
            next,
        },
        (Op::Pop, O::R(r)) => FastOp::PopR {
            dst: r.code(),
            next,
        },
        (Op::Cqo, O::None) => FastOp::Cqo {
            w64: w == Width::W64,
        },
        (Op::Imul2, O::RR { dst, src }) => FastOp::Imul2RR {
            w,
            dst: dst.code(),
            src: src.code(),
        },
        (Op::Imul2, O::RM { dst, src }) => FastOp::Imul2RM {
            w,
            dst: dst.code(),
            mem: MemFast::from(src),
            next,
        },
        (Op::Imul3, O::RRI { dst, src, imm }) => FastOp::Imul3RRI {
            w,
            dst: dst.code(),
            src: src.code(),
            imm: *imm as u64 & width_mask(w),
        },
        (Op::MulDiv(op), O::R(r)) => FastOp::MulDivR {
            op,
            w,
            src: r.code(),
            rip,
            next,
        },
        (Op::Mov, O::RR { dst, src }) if w != Width::W8 => FastOp::MovRR {
            w64: w == Width::W64,
            dst: dst.code(),
            src: src.code(),
        },
        (Op::Mov, O::RI { dst, imm }) if w != Width::W8 => FastOp::MovRI {
            dst: dst.code(),
            imm: *imm as u64 & width_mask(w),
        },
        (Op::Mov, O::RM { dst, src }) => FastOp::LoadRM {
            w,
            dst: dst.code(),
            mem: MemFast::from(src),
            next,
        },
        (Op::Mov, O::MR { dst, src }) => FastOp::StoreMR {
            w,
            src: src.code(),
            mem: MemFast::from(dst),
            next,
        },
        (Op::Mov, O::MI { dst, imm }) => FastOp::StoreMI {
            w,
            imm: *imm as u64,
            mem: MemFast::from(dst),
            next,
        },
        (Op::Movzx8, O::RR { dst, src }) => FastOp::ExtRR {
            kind: ExtKind::Zx8,
            dst: dst.code(),
            src: src.code(),
        },
        (Op::Movsx8, O::RR { dst, src }) => FastOp::ExtRR {
            kind: ExtKind::Sx8,
            dst: dst.code(),
            src: src.code(),
        },
        (Op::Movsxd, O::RR { dst, src }) => FastOp::ExtRR {
            kind: ExtKind::Sxd,
            dst: dst.code(),
            src: src.code(),
        },
        (Op::Movzx8, O::RM { dst, src }) => FastOp::ExtRM {
            kind: ExtKind::Zx8,
            dst: dst.code(),
            mem: MemFast::from(src),
            next,
        },
        (Op::Movsx8, O::RM { dst, src }) => FastOp::ExtRM {
            kind: ExtKind::Sx8,
            dst: dst.code(),
            mem: MemFast::from(src),
            next,
        },
        (Op::Movsxd, O::RM { dst, src }) => FastOp::ExtRM {
            kind: ExtKind::Sxd,
            dst: dst.code(),
            mem: MemFast::from(src),
            next,
        },
        (Op::Lea, O::RM { dst, src }) => FastOp::Lea {
            w,
            dst: dst.code(),
            mem: MemFast::from(src),
        },
        (Op::Alu(op), O::RR { dst, src }) => {
            if dead_flags && op == AluOp::Cmp {
                FastOp::Nop
            } else {
                FastOp::AluRR {
                    op,
                    w,
                    dst: dst.code(),
                    src: src.code(),
                    flags: !dead_flags,
                }
            }
        }
        (Op::Alu(op), O::RI { dst, imm }) => {
            if dead_flags && op == AluOp::Cmp {
                FastOp::Nop
            } else {
                FastOp::AluRI {
                    op,
                    w,
                    dst: dst.code(),
                    imm: *imm as u64 & width_mask(w),
                    flags: !dead_flags,
                }
            }
        }
        (Op::Alu(op), O::RM { dst, src }) => FastOp::AluRM {
            op,
            w,
            dst: dst.code(),
            flags: !dead_flags,
            mem: MemFast::from(src),
            next,
        },
        (Op::Test, O::RR { dst, src }) => {
            if dead_flags {
                FastOp::Nop
            } else {
                FastOp::TestRR {
                    w,
                    a: dst.code(),
                    b: src.code(),
                }
            }
        }
        (Op::Test, O::RI { dst, imm }) => {
            if dead_flags {
                FastOp::Nop
            } else {
                FastOp::TestRI {
                    w,
                    a: dst.code(),
                    imm: *imm as u64 & width_mask(w),
                }
            }
        }
        (Op::Shift(op), O::RI { dst, imm }) => FastOp::ShiftRI {
            op,
            w,
            dst: dst.code(),
            count: *imm as u32,
            flags: !dead_flags,
        },
        (Op::Setcc(c), O::R(r)) => FastOp::SetccR {
            cond: c,
            dst: r.code(),
        },
        (Op::Cmovcc(c), O::RR { dst, src }) => FastOp::CmovRR {
            cond: c,
            w,
            dst: dst.code(),
            src: src.code(),
        },
        _ => {
            if dead_flags {
                FastOp::SlowElide { idx }
            } else {
                FastOp::Slow { idx }
            }
        }
    }
}

/// One decoded instruction of a block, kept for the slow path, the
/// budget-limited prefix path and terminal handling. The hot loop
/// streams the parallel [`FastOp`] array instead.
struct TraceInst {
    inst: Inst,
    /// The instruction's own address.
    rip: u64,
    /// Precomputed fall-through address (`rip + length`).
    next: u64,
}

/// How a block hands off control, pre-resolved for inline terminal
/// handling and successor linking.
#[derive(Clone, Copy)]
enum BlockExit {
    /// Capped straight-line run: control continues at the last entry's
    /// fall-through address.
    Fall,
    /// Direct `jmp`.
    Jmp { to: u64 },
    /// Direct conditional branch (taken → `to`, else fall-through).
    Jcc { cond: Cond, to: u64 },
    /// Direct `call` (pushes the return address, then jumps).
    Call { to: u64 },
    /// `ret`: inline pop + transfer, successor via the inline cache.
    Ret,
    /// Register-indirect `jmp`: target read inline, IC successor.
    JmpIndR { src: u8 },
    /// Register-indirect `call`: push + transfer inline, IC successor.
    CallIndR { src: u8 },
    /// Memory-indirect `jmp`/`call` and `int3` trap dispatch: terminal
    /// executed via the interpreter, successor via the inline cache.
    Indirect,
    /// Terminal executed via the interpreter with no successor worth
    /// predicting (`ud2`, malformed control flow).
    Other,
}

impl BlockExit {
    /// Whether the successor target is data-dependent (resolved through
    /// the inline cache rather than the direct link slots).
    #[inline]
    fn is_indirect(self) -> bool {
        matches!(
            self,
            BlockExit::Ret
                | BlockExit::JmpIndR { .. }
                | BlockExit::CallIndR { .. }
                | BlockExit::Indirect
                | BlockExit::Other
        )
    }
}

/// Build-time classification of a decoded instruction inside a trace:
/// either an ordinary body instruction (`None`), or a direct transfer
/// the builder followed, which executes as an interior pseudo-op.
enum Interior {
    None,
    Jmp { to: u64 },
    Call { to: u64 },
    Jcc { cond: Cond, to: u64 },
    Ret { expect: u64 },
}

/// The [`BlockExit`] a terminal instruction produces when the trace
/// ends at it (also used to demote a followed edge whose target turned
/// out to be undecodable).
fn exit_of(inst: &Inst) -> BlockExit {
    match (inst.op, &inst.operands) {
        (Op::Jmp, Operands::Rel(t)) => BlockExit::Jmp { to: *t },
        (Op::Jcc(c), Operands::Rel(t)) => BlockExit::Jcc { cond: c, to: *t },
        (Op::Call, Operands::Rel(t)) => BlockExit::Call { to: *t },
        (Op::Ret, Operands::None) => BlockExit::Ret,
        (Op::JmpInd, Operands::R(r)) => BlockExit::JmpIndR { src: r.code() },
        (Op::CallInd, Operands::R(r)) => BlockExit::CallIndR { src: r.code() },
        (Op::Ret | Op::JmpInd | Op::CallInd | Op::Int3, _) => BlockExit::Indirect,
        _ => BlockExit::Other,
    }
}

/// A decoded trace ending at a control transfer it did not follow (or
/// the cap), plus its chaining state.
pub(crate) struct TraceBlock {
    /// Dense body dispatch stream (terminal excluded unless the block
    /// falls through at the cap); parallel to `insts[..ops.len()]`.
    ops: Box<[FastOp]>,
    insts: Box<[TraceInst]>,
    exit: BlockExit,
    /// The address the block starts at (side links validate their
    /// target against this: a `ret` side exit is data-dependent).
    start: u64,
    /// `(segment index, version)` dependency per code segment the
    /// trace decoded from (a trace may cross segments through followed
    /// calls/jumps). Any version mismatch means the block is stale: it
    /// is never entered via links and its slot was cleared by the
    /// invalidation.
    deps: Box<[(u32, u32)]>,
    /// Direct-exit successor links (`NO_LINK` = not yet patched).
    /// `link_taken` covers the jump/call/branch-taken edge,
    /// `link_fall` the fall-through edge.
    link_taken: u32,
    link_fall: u32,
    /// One successor link per interior side exit (mispredicted
    /// [`FastOp::JccInline`] direction / [`FastOp::RetInline`] target).
    side_links: Box<[u32]>,
    /// Indirect-branch inline cache: (observed target, block index),
    /// most recent first.
    ic: [(u64, u32); IC_WAYS],
    /// Prefix sums of the ops' static charges (`charge[i]` covers
    /// `ops[..i]`; `charge[ops.len()]` is the block total), flushed as
    /// one batch at block entry.
    charge: Box<[StaticCharge]>,
    /// One host-resolution cache slot per memory-touching op (see
    /// [`uses_mem_slot`]), consumed in program order by the body loop.
    /// Dies with the block: invalidation rebuilds get fresh slots.
    mem_cache: Box<[MemSlot]>,
}

/// Per-segment block cache: one `u32` slot per code byte indexing the
/// block that *starts* there (`u32::MAX` = none), plus a version
/// counter bumped by [`Emu::invalidate_code`]. Invalidation clears the
/// slots and strands the segment's existing blocks (links to them fail
/// the version check and are severed lazily).
struct TraceSeg {
    base: u64,
    end: u64,
    slots: Vec<u32>,
    version: u32,
}

#[derive(Default)]
pub(crate) struct TraceCache {
    segs: Vec<TraceSeg>,
    blocks: Vec<TraceBlock>,
    last: usize,
    pub(crate) stats: TraceStats,
}

impl TraceCache {
    #[inline]
    fn lookup_idx(&mut self, rip: u64) -> Option<u32> {
        let seg = self.seg_of(rip)?;
        let s = &self.segs[seg];
        let idx = s.slots[(rip - s.base) as usize];
        if idx == NO_LINK {
            None
        } else {
            Some(idx)
        }
    }

    #[inline]
    fn seg_of(&mut self, rip: u64) -> Option<usize> {
        if let Some(s) = self.segs.get(self.last) {
            if rip >= s.base && rip < s.end {
                return Some(self.last);
            }
        }
        for (i, s) in self.segs.iter().enumerate() {
            if rip >= s.base && rip < s.end {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    fn add_seg(&mut self, base: u64, size: u64) -> usize {
        self.segs.push(TraceSeg {
            base,
            end: base + size,
            slots: vec![NO_LINK; size as usize],
            version: 0,
        });
        self.last = self.segs.len() - 1;
        self.last
    }

    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        seg: usize,
        rip: u64,
        ops: Vec<FastOp>,
        insts: Vec<TraceInst>,
        exit: BlockExit,
        side_count: usize,
        deps: Vec<(u32, u32)>,
    ) -> u32 {
        let mut charge = Vec::with_capacity(ops.len() + 1);
        let mut acc = StaticCharge::default();
        charge.push(acc);
        let mut mem_slots = 0usize;
        for op in &ops {
            acc.add(static_charge(op));
            charge.push(acc);
            mem_slots += uses_mem_slot(op) as usize;
        }
        let idx = self.blocks.len() as u32;
        self.blocks.push(TraceBlock {
            ops: ops.into_boxed_slice(),
            insts: insts.into_boxed_slice(),
            exit,
            start: rip,
            deps: deps.into_boxed_slice(),
            link_taken: NO_LINK,
            link_fall: NO_LINK,
            side_links: vec![NO_LINK; side_count].into_boxed_slice(),
            ic: [(0, NO_LINK); IC_WAYS],
            charge: charge.into_boxed_slice(),
            mem_cache: vec![MemSlot::default(); mem_slots].into_boxed_slice(),
        });
        let base = self.segs[seg].base;
        self.segs[seg].slots[(rip - base) as usize] = idx;
        idx
    }

    /// Whether a linked block is still current (none of the segments
    /// it decoded from have been invalidated since it was built).
    #[inline]
    fn block_current(&self, idx: u32) -> bool {
        self.blocks[idx as usize]
            .deps
            .iter()
            .all(|&(s, v)| self.segs[s as usize].version == v)
    }

    /// Invalidates the code segment containing `addr`: bumps the
    /// version (severing every link into the segment's blocks on next
    /// follow) and clears the slot array so re-execution rebuilds.
    /// Returns whether a tracked segment was hit.
    pub(crate) fn invalidate_addr(&mut self, addr: u64) -> bool {
        match self.seg_of(addr) {
            Some(si) => {
                let s = &mut self.segs[si];
                s.version = s.version.wrapping_add(1);
                s.slots.fill(NO_LINK);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }
}

/// Ops that end a block: everything that can transfer control away
/// from the fall-through path (plus `ud2`, which never falls through).
/// `syscall` continues at the next instruction, so it does not end a
/// block; termination outcomes are checked per entry during execution.
#[inline]
fn ends_block(op: Op) -> bool {
    matches!(
        op,
        Op::Jmp | Op::JmpInd | Op::Jcc(_) | Op::Call | Op::CallInd | Op::Ret | Op::Ud2 | Op::Int3
    )
}

/// Which execution backend [`Emu::run_backend`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Per-instruction fetch/decode-cached interpretation ([`Emu::step`]).
    #[default]
    Step,
    /// The translated tier ([`Emu::step_fast`]): trace chaining,
    /// indirect-branch inline caches, dead-flag elision, host-pointer
    /// memory caching and batched counter accounting. Counters and
    /// architectural state are bit-exact at every trace boundary
    /// (audited by the boundary-audit oracle), not at every instruction
    /// mid-trace.
    Fast,
}

impl ExecBackend {
    /// Parses a backend name (`"step"` / `"fast"`).
    pub fn parse(s: &str) -> Option<ExecBackend> {
        match s {
            "step" => Some(ExecBackend::Step),
            "fast" => Some(ExecBackend::Fast),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecBackend::Step => write!(f, "step"),
            ExecBackend::Fast => write!(f, "fast"),
        }
    }
}

impl<R: Runtime> Emu<R> {
    /// Decodes the trace starting at `rip` into a cached block,
    /// continuing across direct edges (see the module docs). Returns
    /// `None` when even the first instruction cannot be fetched or
    /// decoded (the caller defers to [`Emu::step`] so the error is
    /// produced with exactly the interpreter's semantics).
    fn build_block(&mut self, trace: &mut TraceCache, rip: u64) -> Option<u32> {
        let mut insts: Vec<TraceInst> = Vec::new();
        let mut kinds: Vec<Interior> = Vec::new();
        // Interior edge targets: dependency tracking (a trace decoding
        // from several segments must be severed when any of them is
        // invalidated).
        let mut targets: Vec<u64> = Vec::new();
        // Addresses already decoded into this trace: following an edge
        // to one would re-enter the trace mid-way, so it ends it
        // instead (loop closure chains the trace to itself).
        let mut visited: Vec<u64> = Vec::new();
        // Build-time return-address stack for inlined calls.
        let mut ret_stack: Vec<u64> = Vec::new();
        let mut addr = rip;
        let mut exit = BlockExit::Fall;
        let mut done = false;
        while !done && insts.len() < TRACE_CAP {
            let Ok(bytes) = self.vm.fetch(addr, 16) else {
                break;
            };
            let Ok((inst, len)) = decode_one(bytes, addr) else {
                break;
            };
            let next = addr + len as u64;
            visited.push(addr);
            insts.push(TraceInst {
                inst,
                rip: addr,
                next,
            });
            if !ends_block(inst.op) {
                kinds.push(Interior::None);
                addr = next;
                continue;
            }
            // Direct transfer: follow the edge.
            let followed: Option<(Interior, u64)> = match (inst.op, &inst.operands) {
                (Op::Jmp, Operands::Rel(t)) if !visited.contains(t) => {
                    Some((Interior::Jmp { to: *t }, *t))
                }
                (Op::Call, Operands::Rel(t))
                    if !visited.contains(t) && ret_stack.len() < MAX_INLINE_DEPTH =>
                {
                    ret_stack.push(next);
                    Some((Interior::Call { to: *t }, *t))
                }
                (Op::Jcc(c), Operands::Rel(t)) => {
                    // Fall-through prediction, except that a backward
                    // branch to an address already in the trace (a
                    // loop-closing conditional) ends the trace there:
                    // decoding past it would grow a tail that every
                    // iteration side-exits around. A backward branch
                    // out of the trace is predicted not taken too:
                    // mini-C closes its loops with `jmp`, and a
                    // hardened trampoline's backward branches lead to
                    // the cold code placed before the payload's entry.
                    let closes_loop = *t <= addr && visited.contains(t);
                    (!closes_loop && !visited.contains(&next))
                        .then_some((Interior::Jcc { cond: c, to: *t }, next))
                }
                (Op::Ret, Operands::None) => match ret_stack.pop() {
                    Some(ra) if !visited.contains(&ra) => Some((Interior::Ret { expect: ra }, ra)),
                    _ => None,
                },
                _ => None,
            };
            match followed {
                Some((kind, target)) => {
                    kinds.push(kind);
                    targets.push(target);
                    addr = target;
                }
                None => {
                    kinds.push(Interior::None);
                    exit = exit_of(&inst);
                    done = true;
                }
            }
        }
        if insts.is_empty() {
            return None;
        }
        if !done {
            // Ended at the cap or at an unfetchable/undecodable follow
            // target: a trailing followed edge has no in-trace
            // continuation, so demote it back to the block terminal.
            if let (Some(k), Some(last)) = (kinds.last_mut(), insts.last()) {
                if !matches!(k, Interior::None) {
                    exit = exit_of(&last.inst);
                    *k = Interior::None;
                    targets.pop();
                }
            }
        }
        // Flag liveness over the whole trace, computed once for both
        // dead-flag elision and compare-branch fusion; the terminal
        // stays on the slow path (its flag inputs -- Jcc -- are read
        // inline, and its flag writes are never dead under the
        // exit-conservative rule). Interior transfers are conservative by construction:
        // `jcc` reads the flags, `call`/`ret` touch the stack (may
        // exit), and an interior `jmp` is infallible so flowing
        // liveness through it is exact.
        let flat: Vec<Inst> = insts.iter().map(|ti| ti.inst).collect();
        let live_after = redfat_analysis::flags_live_after_run(&flat);
        let body_len = match exit {
            BlockExit::Fall => insts.len(),
            _ => insts.len() - 1,
        };
        let mut sides: u16 = 0;
        let ops: Vec<FastOp> = insts[..body_len]
            .iter()
            .zip(&kinds)
            .enumerate()
            .map(|(i, (ti, kind))| match *kind {
                Interior::None => {
                    let dead = redfat_analysis::flag_write_dead(&ti.inst, live_after[i]);
                    specialize(&ti.inst, ti.rip, ti.next, i as u8, dead)
                }
                Interior::Jmp { to } => FastOp::ChargeJmp { next: ti.next, to },
                Interior::Call { to } => FastOp::ChargeCall { next: ti.next, to },
                Interior::Jcc { cond, to } => {
                    let side = sides;
                    sides += 1;
                    FastOp::JccInline {
                        cond,
                        next: ti.next,
                        to,
                        side,
                    }
                }
                Interior::Ret { expect } => {
                    let side = sides;
                    sides += 1;
                    FastOp::RetInline {
                        expect,
                        next: ti.next,
                        side,
                    }
                }
            })
            .collect();
        // Fuse adjacent compare + interior-branch pairs whose flags
        // die (within the trace) after the branch; the compare slot
        // becomes a `Nop` to keep op indices aligned with instruction
        // indices.
        let mut ops = ops;
        for i in 0..ops.len().saturating_sub(1) {
            let FastOp::JccInline {
                cond,
                next,
                to,
                side,
            } = ops[i + 1]
            else {
                continue;
            };
            if live_after[i + 1] {
                continue;
            }
            let fused = match ops[i] {
                FastOp::AluRR {
                    op: AluOp::Cmp,
                    w,
                    dst,
                    src,
                    ..
                } if fusable_cond(cond, false) => Some((w, dst, src, 0, false)),
                FastOp::AluRI {
                    op: AluOp::Cmp,
                    w,
                    dst,
                    imm,
                    ..
                } if fusable_cond(cond, false) => Some((w, dst, NO_REG, imm, false)),
                FastOp::TestRR { w, a, b } if fusable_cond(cond, true) => Some((w, a, b, 0, true)),
                FastOp::TestRI { w, a, imm } if fusable_cond(cond, true) => {
                    Some((w, a, NO_REG, imm, true))
                }
                _ => None,
            };
            if let Some((w, a, b, imm, test)) = fused {
                ops[i] = FastOp::Nop;
                ops[i + 1] = FastOp::CmpJcc {
                    w,
                    a,
                    b,
                    imm,
                    test,
                    cond,
                    next,
                    to,
                    side,
                };
            }
        }
        let seg = match trace.seg_of(rip) {
            Some(s) => s,
            None => {
                let (base, size) = self.vm.segment_span(rip)?;
                trace.add_seg(base, size)
            }
        };
        let mut deps: Vec<(u32, u32)> = vec![(seg as u32, trace.segs[seg].version)];
        for &t in &targets {
            let s = match trace.seg_of(t) {
                Some(s) => s,
                None => {
                    let (base, size) = self.vm.segment_span(t)?;
                    trace.add_seg(base, size)
                }
            };
            if !deps.iter().any(|&(ds, _)| ds == s as u32) {
                deps.push((s as u32, trace.segs[s].version));
            }
        }
        Some(trace.insert(seg, rip, ops, insts, exit, sides as usize, deps))
    }

    /// One global-cache probe, building on miss. `None` means the first
    /// instruction at `rip` is unfetchable/undecodable; the caller
    /// defers to [`Emu::step`] for the exact error.
    fn lookup_or_build(&mut self, trace: &mut TraceCache, rip: u64) -> Option<u32> {
        if let Some(idx) = trace.lookup_idx(rip) {
            if trace.block_current(idx) {
                trace.stats.hits += 1;
                return Some(idx);
            }
            // A trace that starts in a live segment but decoded
            // across an edge into a since-invalidated one is still
            // reachable through its own segment's slot: sever it here
            // (the rebuild below overwrites the slot).
            trace.stats.links_severed += 1;
        }
        trace.stats.misses += 1;
        self.build_block(trace, rip)
    }

    /// Executes up to `budget` instructions on the translated tier: one
    /// cache probe at entry, then block-to-block execution via direct
    /// links and indirect-branch inline caches until the budget runs
    /// out or a successor cannot be linked (unfetchable target -- the
    /// next call's probe falls back to [`Emu::step`] for the exact
    /// error).
    ///
    /// Returns how many instructions were retired together with the
    /// step outcome. Architectural state, `Counters` and error
    /// semantics are bit-identical to calling [`Emu::step`] that many
    /// times whenever this function hands control back (budget
    /// exhausted, fault, termination). Between entry and return,
    /// counters lead or lag `step()` by the batched remainder of the
    /// current block -- unobservable, because traces dispatch no
    /// memory-access hook. A `budget` smaller than the trace executes a
    /// prefix and leaves `rip` mid-trace, where the next call
    /// re-enters. When [`Runtime::OBSERVES_MEMORY`] is `true` this
    /// retires one [`Emu::step`] instead, so the hook sees every access
    /// in program order.
    pub fn step_fast(&mut self, budget: u64) -> (u64, Result<Option<RunResult>, EmuError>) {
        if budget == 0 {
            return (0, Ok(None));
        }
        if R::OBSERVES_MEMORY {
            return self.step_counted();
        }
        let mut trace = std::mem::take(&mut self.trace);
        let out = self.step_trace_inner(&mut trace, budget);
        self.trace = trace;
        out
    }

    /// One [`Emu::step`], paired with the number of instructions it
    /// retired (zero when the fetch or decode fails).
    fn step_counted(&mut self) -> (u64, Result<Option<RunResult>, EmuError>) {
        let before = self.counters.instructions;
        let r = self.step();
        (self.counters.instructions - before, r)
    }

    /// One guest load from the body loop: host-pointer-cached, with the
    /// hook elided and the counters covered by the block's static
    /// charge. Consumes one `mem_cache` slot -- call sites must match
    /// [`uses_mem_slot`] in program order.
    #[inline(always)]
    fn load_fast(
        &self,
        block: &TraceBlock,
        mslot: &mut usize,
        addr: u64,
        w: Width,
        rip: u64,
    ) -> Result<u64, EmuError> {
        let slot = &block.mem_cache[*mslot];
        *mslot += 1;
        read_cached_w(&self.vm, addr, w, slot).map_err(|fault| EmuError::Fault { rip, fault })
    }

    /// Store counterpart of [`Emu::load_fast`].
    #[inline(always)]
    fn store_fast(
        &mut self,
        block: &TraceBlock,
        mslot: &mut usize,
        addr: u64,
        w: Width,
        v: u64,
        rip: u64,
    ) -> Result<(), EmuError> {
        let slot = &block.mem_cache[*mslot];
        *mslot += 1;
        write_cached_w(&mut self.vm, addr, w, v, slot)
            .map_err(|fault| EmuError::Fault { rip, fault })
    }

    /// The trace interpreter loop behind [`Emu::step_fast`].
    fn step_trace_inner(
        &mut self,
        trace: &mut TraceCache,
        budget: u64,
    ) -> (u64, Result<Option<RunResult>, EmuError>) {
        let mut executed: u64 = 0;

        let mut bidx = match self.lookup_or_build(trace, self.cpu.rip) {
            Some(b) => b,
            None => return self.step_counted(),
        };
        loop {
            // ---- execute one block ----
            let block = &trace.blocks[bidx as usize];
            let n = block.insts.len();
            let exit = block.exit;
            let remaining = budget - executed;
            if remaining < n as u64 {
                // Budget-limited prefix: exact per-instruction
                // interpretation with elision disabled -- the flags
                // must be architecturally exact at the step-limit
                // boundary, exactly as `step()` would leave them.
                let pref = remaining as usize;
                for (i, ti) in block.insts[..pref].iter().enumerate() {
                    self.counters.instructions += 1;
                    self.cpu.rip = ti.next;
                    executed += 1;
                    match self.exec(&ti.inst, ti.rip, ti.next) {
                        Ok(None) => {
                            // An interior conditional went against the
                            // recorded direction (or an inlined `ret`
                            // returned elsewhere): leave the trace, the
                            // next call re-probes at the actual `rip`.
                            if i + 1 < pref && self.cpu.rip != block.insts[i + 1].rip {
                                return (executed, Ok(None));
                            }
                        }
                        done => return (executed, done),
                    }
                }
                return (executed, Ok(None));
            }
            self.counters.instructions += n as u64;
            // Charge the whole block's predicted-path static counts
            // upfront in one shot (`charge` holds prefix sums over
            // `ops`; the last entry is the block total). Every early
            // exit below rolls the unexecuted suffix back, so counters
            // are bit-exact at every return boundary.
            let charge = &block.charge;
            let total = charge[block.ops.len()];
            total.apply(&mut self.counters);
            // Rolls back the upfront block charge to a per-instruction
            // charge and returns, after entry `$i` of an `$n`-entry
            // block ended the run early. The batched static charge is
            // rolled back to prefix `$keep`: `$i` when the exiting op's
            // static charge must not stand (any partial effects were
            // recharged inline by the arm), `$i + 1` when it stands in
            // full (plain loads/stores: `step()` counts an access
            // before it faults).
            macro_rules! bail {
                ($n:expr, $i:expr, $keep:expr, $res:expr) => {{
                    let unexecuted = ($n - ($i + 1)) as u64;
                    self.counters.instructions -= unexecuted;
                    total.minus(charge[$keep]).revert(&mut self.counters);
                    return (executed + $i as u64 + 1, $res);
                }};
            }
            // Next host-pointer cache slot; advanced by exactly the
            // ops `uses_mem_slot` claims, in program order.
            let mut mslot = 0usize;
            // Interior side exit taken: `op index << 16 | side-link
            // slot`, `u64::MAX` = none (packed: a plain register beats
            // an `Option` tuple in the dispatch loop's codegen).
            let mut side_exit: u64 = u64::MAX;
            'body: for (i, op) in block.ops.iter().enumerate() {
                match *op {
                    FastOp::Nop => {}
                    FastOp::MovRR { w64, dst, src } => {
                        let v = self.cpu.regs[src as usize];
                        self.cpu.regs[dst as usize] = if w64 { v } else { v & 0xFFFF_FFFF };
                    }
                    FastOp::MovRI { dst, imm } => self.cpu.regs[dst as usize] = imm,
                    FastOp::AluRR {
                        op,
                        w,
                        dst,
                        src,
                        flags,
                    } => {
                        let a = rd(&self.cpu.regs, dst, w);
                        let b = rd(&self.cpu.regs, src, w);
                        let r = if flags {
                            self.alu(op, w, a, b)
                        } else {
                            alu_value(op, w, a, b)
                        };
                        if op != AluOp::Cmp {
                            wr(&mut self.cpu.regs, dst, w, r);
                        }
                    }
                    FastOp::AluRI {
                        op,
                        w,
                        dst,
                        imm,
                        flags,
                    } => {
                        let a = rd(&self.cpu.regs, dst, w);
                        let r = if flags {
                            self.alu(op, w, a, imm)
                        } else {
                            alu_value(op, w, a, imm)
                        };
                        if op != AluOp::Cmp {
                            wr(&mut self.cpu.regs, dst, w, r);
                        }
                    }
                    FastOp::AluRM {
                        op,
                        w,
                        dst,
                        flags,
                        mem,
                        next,
                    } => {
                        let addr = ea_fast(&self.cpu.regs, &mem);
                        let b = match self.load_fast(block, &mut mslot, addr, w, next) {
                            Ok(v) => v,
                            Err(e) => {
                                self.cpu.rip = next;
                                bail!(n, i, i + 1, Err(e));
                            }
                        };
                        let a = rd(&self.cpu.regs, dst, w);
                        let r = if flags {
                            self.alu(op, w, a, b)
                        } else {
                            alu_value(op, w, a, b)
                        };
                        if op != AluOp::Cmp {
                            wr(&mut self.cpu.regs, dst, w, r);
                        }
                    }
                    FastOp::TestRR { w, a, b } => {
                        let r = rd(&self.cpu.regs, a, w) & rd(&self.cpu.regs, b, w);
                        self.logic_flags(w, r);
                    }
                    FastOp::TestRI { w, a, imm } => {
                        let r = rd(&self.cpu.regs, a, w) & imm;
                        self.logic_flags(w, r);
                    }
                    FastOp::Lea { w, dst, mem } => {
                        let a = ea_fast(&self.cpu.regs, &mem);
                        wr(&mut self.cpu.regs, dst, w, a);
                    }
                    FastOp::LoadRM { w, dst, mem, next } => {
                        let addr = ea_fast(&self.cpu.regs, &mem);
                        match self.load_fast(block, &mut mslot, addr, w, next) {
                            Ok(v) => wr(&mut self.cpu.regs, dst, w, v),
                            Err(e) => {
                                self.cpu.rip = next;
                                bail!(n, i, i + 1, Err(e));
                            }
                        }
                    }
                    FastOp::StoreMR { w, src, mem, next } => {
                        let addr = ea_fast(&self.cpu.regs, &mem);
                        let v = rd(&self.cpu.regs, src, w);
                        if let Err(e) = self.store_fast(block, &mut mslot, addr, w, v, next) {
                            self.cpu.rip = next;
                            bail!(n, i, i + 1, Err(e));
                        }
                    }
                    FastOp::StoreMI { w, imm, mem, next } => {
                        let addr = ea_fast(&self.cpu.regs, &mem);
                        if let Err(e) = self.store_fast(block, &mut mslot, addr, w, imm, next) {
                            self.cpu.rip = next;
                            bail!(n, i, i + 1, Err(e));
                        }
                    }
                    FastOp::ExtRR { kind, dst, src } => {
                        let v = match kind {
                            ExtKind::Zx8 => self.cpu.regs[src as usize] & 0xFF,
                            ExtKind::Sx8 => self.cpu.regs[src as usize] as u8 as i8 as i64 as u64,
                            ExtKind::Sxd => self.cpu.regs[src as usize] as u32 as i32 as i64 as u64,
                        };
                        self.cpu.regs[dst as usize] = v;
                    }
                    FastOp::ExtRM {
                        kind,
                        dst,
                        mem,
                        next,
                    } => {
                        let addr = ea_fast(&self.cpu.regs, &mem);
                        let lw = match kind {
                            ExtKind::Zx8 | ExtKind::Sx8 => Width::W8,
                            ExtKind::Sxd => Width::W32,
                        };
                        match self.load_fast(block, &mut mslot, addr, lw, next) {
                            Ok(raw) => {
                                let v = match kind {
                                    ExtKind::Zx8 => raw,
                                    ExtKind::Sx8 => raw as u8 as i8 as i64 as u64,
                                    ExtKind::Sxd => raw as u32 as i32 as i64 as u64,
                                };
                                self.cpu.regs[dst as usize] = v;
                            }
                            Err(e) => {
                                self.cpu.rip = next;
                                bail!(n, i, i + 1, Err(e));
                            }
                        }
                    }
                    FastOp::SetccR { cond, dst } => {
                        let v = self.cpu.flags.cond(cond) as u64;
                        wr(&mut self.cpu.regs, dst, Width::W8, v);
                    }
                    FastOp::CmovRR { cond, w, dst, src } => {
                        if self.cpu.flags.cond(cond) {
                            let v = rd(&self.cpu.regs, src, w);
                            wr(&mut self.cpu.regs, dst, w, v);
                        } else if w == Width::W32 {
                            // cmov always writes the destination at
                            // 32-bit width (zero-extending) even when
                            // the move is suppressed.
                            let v = rd(&self.cpu.regs, dst, Width::W32);
                            wr(&mut self.cpu.regs, dst, Width::W32, v);
                        }
                    }
                    FastOp::ShiftRI {
                        op,
                        w,
                        dst,
                        count,
                        flags,
                    } => {
                        let a = rd(&self.cpu.regs, dst, w);
                        let r = if flags {
                            self.shift(op, w, a, count)
                        } else {
                            shift_value(op, w, a, count)
                        };
                        wr(&mut self.cpu.regs, dst, w, r);
                    }
                    FastOp::PushR { src, next } => {
                        // Source read before the `rsp` adjust (push of
                        // `rsp` pushes the pre-decrement value), and
                        // `rsp` adjusted before the store faults, both
                        // like `exec`'s `push64`.
                        let v = self.cpu.regs[src as usize];
                        let rsp = self.cpu.regs[RSP].wrapping_sub(8);
                        self.cpu.regs[RSP] = rsp;
                        if let Err(e) = self.store_fast(block, &mut mslot, rsp, Width::W64, v, next)
                        {
                            self.cpu.rip = next;
                            bail!(n, i, i + 1, Err(e));
                        }
                    }
                    FastOp::PopR { dst, next } => {
                        let rsp = self.cpu.regs[RSP];
                        match self.load_fast(block, &mut mslot, rsp, Width::W64, next) {
                            Ok(v) => {
                                // Increment before the register write:
                                // `pop rsp` keeps the popped value.
                                self.cpu.regs[RSP] = rsp.wrapping_add(8);
                                self.cpu.regs[dst as usize] = v;
                            }
                            Err(e) => {
                                self.cpu.rip = next;
                                bail!(n, i, i + 1, Err(e));
                            }
                        }
                    }
                    FastOp::Cqo { w64 } => {
                        let rax = self.cpu.regs[0];
                        self.cpu.regs[2] = if w64 {
                            ((rax as i64) >> 63) as u64
                        } else {
                            (((rax as u32 as i32) >> 31) as u32) as u64
                        };
                    }
                    FastOp::Imul2RR { w, dst, src } => {
                        let a = rd(&self.cpu.regs, dst, w);
                        let b = rd(&self.cpu.regs, src, w);
                        let r = self.imul_flags(w, a, b);
                        wr(&mut self.cpu.regs, dst, w, r);
                    }
                    FastOp::Imul2RM { w, dst, mem, next } => {
                        let addr = ea_fast(&self.cpu.regs, &mem);
                        let b = match self.load_fast(block, &mut mslot, addr, w, next) {
                            Ok(v) => v,
                            Err(e) => {
                                self.cpu.rip = next;
                                bail!(n, i, i + 1, Err(e));
                            }
                        };
                        let a = rd(&self.cpu.regs, dst, w);
                        let r = self.imul_flags(w, a, b);
                        wr(&mut self.cpu.regs, dst, w, r);
                        // Dynamic: `exec` counts the multiply only once
                        // the load has succeeded.
                        self.counters.muls += 1;
                    }
                    FastOp::Imul3RRI { w, dst, src, imm } => {
                        let b = rd(&self.cpu.regs, src, w);
                        let r = self.imul_flags(w, b, imm);
                        wr(&mut self.cpu.regs, dst, w, r);
                    }
                    FastOp::MulDivR {
                        op,
                        w,
                        src,
                        rip,
                        next,
                    } => {
                        let v = rd(&self.cpu.regs, src, w);
                        if let Err(e) = self.muldiv(op, w, v, rip) {
                            self.cpu.rip = next;
                            bail!(n, i, i, Err(e));
                        }
                    }
                    // Interior direct jump: `transfer_to` minus the `rip`
                    // store (control stays in-trace), fully covered by
                    // the static charge.
                    FastOp::ChargeJmp { .. } => {}
                    FastOp::ChargeCall { next, .. } => {
                        // Interior direct call: push the return address
                        // (rsp adjusted before the store faults, like
                        // `push64`); the transfer accounting is covered
                        // by the static charge.
                        let rsp = self.cpu.regs[RSP].wrapping_sub(8);
                        self.cpu.regs[RSP] = rsp;
                        if let Err(e) =
                            self.store_fast(block, &mut mslot, rsp, Width::W64, next, next)
                        {
                            // The push is counted before it faults
                            // (charge-before-access); the transfer
                            // never happens, so drop the whole static
                            // entry and recharge just the store.
                            self.counters.stores += 1;
                            self.cpu.rip = next;
                            bail!(n, i, i, Err(e));
                        }
                    }
                    FastOp::JccInline {
                        cond,
                        next,
                        to,
                        side,
                    } => {
                        // The static charge assumed not taken; a taken
                        // branch is accounted here and leaves the trace.
                        if self.cpu.flags.cond(cond) {
                            self.counters.taken_branches += 1;
                            self.counters.count_crossing(next, to);
                            self.cpu.rip = to;
                            side_exit = ((i as u64) << 16) | side as u64;
                            break 'body;
                        }
                    }
                    FastOp::CmpJcc {
                        w,
                        a,
                        b,
                        imm,
                        test,
                        cond,
                        next,
                        to,
                        side,
                    } => {
                        let av = rd(&self.cpu.regs, a, w);
                        let bv = if b == NO_REG {
                            imm
                        } else {
                            rd(&self.cpu.regs, b, w)
                        };
                        let taken = if test {
                            test_cond(cond, w, av & bv)
                        } else {
                            cmp_cond(cond, w, av, bv)
                        };
                        if taken {
                            self.counters.taken_branches += 1;
                            self.counters.count_crossing(next, to);
                            // Leaving the trace: the compare's flags
                            // become observable, materialize them
                            // exactly (the operand registers are
                            // untouched between the fused pair).
                            if test {
                                self.logic_flags(w, av & bv);
                            } else {
                                self.alu(AluOp::Cmp, w, av, bv);
                            }
                            self.cpu.rip = to;
                            side_exit = ((i as u64) << 16) | side as u64;
                            break 'body;
                        }
                    }
                    FastOp::RetInline { expect, next, side } => {
                        // Inline `pop64` + `transfer_to` accounting;
                        // control stays in-trace only when the popped
                        // return address matches the build-time
                        // prediction.
                        let rsp = self.cpu.regs[RSP];
                        match self.load_fast(block, &mut mslot, rsp, Width::W64, next) {
                            Ok(t) => {
                                self.cpu.regs[RSP] = rsp.wrapping_add(8);
                                // A predicted return is fully covered
                                // by the static charge (its crossing
                                // was computed against `expect ==
                                // t`). A mispredict loses its static
                                // entry to the side-exit rollback, so
                                // recharge everything against the
                                // actual target.
                                if t != expect {
                                    self.counters.loads += 1;
                                    self.counters.transfers += 1;
                                    self.counters.count_crossing(next, t);
                                    self.cpu.rip = t;
                                    side_exit = ((i as u64) << 16) | side as u64;
                                    break 'body;
                                }
                            }
                            Err(e) => {
                                // `step()` counts the pop before it
                                // faults; the transfer never happens.
                                self.counters.loads += 1;
                                self.cpu.rip = next;
                                bail!(n, i, i, Err(e));
                            }
                        }
                    }
                    FastOp::SlowElide { idx } => {
                        let ti = &block.insts[idx as usize];
                        self.cpu.rip = ti.next;
                        self.noflags = true;
                        let r = self.exec(&ti.inst, ti.rip, ti.next);
                        self.noflags = false;
                        match r {
                            Ok(None) => {}
                            done => bail!(n, i, i, done),
                        }
                    }
                    FastOp::Slow { idx } => {
                        let ti = &block.insts[idx as usize];
                        self.cpu.rip = ti.next;
                        match self.exec(&ti.inst, ti.rip, ti.next) {
                            Ok(None) => {}
                            done => bail!(n, i, i, done),
                        }
                    }
                }
            }
            if side_exit != u64::MAX {
                let (i, side) = ((side_exit >> 16) as usize, (side_exit & 0xFFFF) as u16);
                // ---- interior side exit: rollback + side link ----
                // `rip` was set by the exiting op; roll the unexecuted
                // tail of the upfront charge back, then chain through
                // the per-site side link. Side links validate the
                // successor's start address: a `ret` side exit is
                // data-dependent, so a patched link may be for a
                // different target.
                let unexecuted = (n - (i + 1)) as u64;
                self.counters.instructions -= unexecuted;
                // Keep the static prefix up to (but excluding) the
                // exiting op: its actual outcome differed from the
                // prediction and was accounted dynamically inline.
                total.minus(charge[i]).revert(&mut self.counters);
                executed += (i + 1) as u64;
                if executed >= budget {
                    return (executed, Ok(None));
                }
                let target = self.cpu.rip;
                let slot = trace.blocks[bidx as usize].side_links[side as usize];
                bidx = if slot != NO_LINK
                    && trace.block_current(slot)
                    && trace.blocks[slot as usize].start == target
                {
                    trace.stats.chain_follows += 1;
                    slot
                } else {
                    if slot != NO_LINK {
                        // Stale (invalidated) or retargeted link.
                        trace.stats.links_severed += 1;
                    }
                    match self.lookup_or_build(trace, target) {
                        Some(idx) => {
                            trace.blocks[bidx as usize].side_links[side as usize] = idx;
                            idx
                        }
                        None => return (executed, Ok(None)),
                    }
                };
                continue;
            }
            // ---- terminal: replicate `exec`'s transfer accounting ----
            let mut use_taken = true;
            match exit {
                BlockExit::Fall => {
                    self.cpu.rip = block.insts[n - 1].next;
                    use_taken = false;
                }
                BlockExit::Jmp { to } => {
                    let next = block.insts[n - 1].next;
                    self.counters.transfers += 1;
                    self.counters.count_crossing(next, to);
                    self.cpu.rip = to;
                }
                BlockExit::Jcc { cond, to } => {
                    let next = block.insts[n - 1].next;
                    if self.cpu.flags.cond(cond) {
                        self.counters.taken_branches += 1;
                        self.counters.count_crossing(next, to);
                        self.cpu.rip = to;
                    } else {
                        self.cpu.rip = next;
                        use_taken = false;
                    }
                }
                BlockExit::Call { to } => {
                    let next = block.insts[n - 1].next;
                    // rip = fall-through before the push, like step():
                    // a stack fault reports the post-increment rip.
                    self.cpu.rip = next;
                    if let Err(e) = self.push64(next) {
                        return (executed + n as u64, Err(e));
                    }
                    self.counters.transfers += 1;
                    self.counters.count_crossing(next, to);
                    self.cpu.rip = to;
                }
                BlockExit::Ret => {
                    let next = block.insts[n - 1].next;
                    // Inline `pop64` + `transfer_to`, with the fault
                    // rip (= fall-through) passed explicitly; `rsp` is
                    // only bumped once the load succeeds, like `pop64`.
                    let rsp = self.cpu.regs[RSP];
                    match self.load_at_rip(rsp, Width::W64, next) {
                        Ok(t) => {
                            self.cpu.regs[RSP] = rsp.wrapping_add(8);
                            self.counters.transfers += 1;
                            self.counters.count_crossing(next, t);
                            self.cpu.rip = t;
                        }
                        Err(e) => {
                            self.cpu.rip = next;
                            return (executed + n as u64, Err(e));
                        }
                    }
                }
                BlockExit::JmpIndR { src } => {
                    let next = block.insts[n - 1].next;
                    let t = self.cpu.regs[src as usize];
                    self.counters.transfers += 1;
                    self.counters.count_crossing(next, t);
                    self.cpu.rip = t;
                }
                BlockExit::CallIndR { src } => {
                    let next = block.insts[n - 1].next;
                    // Target read before the push, like `exec` (the
                    // push may clobber `rsp`-relative sources only
                    // after the read).
                    let t = self.cpu.regs[src as usize];
                    self.cpu.rip = next;
                    if let Err(e) = self.push64(next) {
                        return (executed + n as u64, Err(e));
                    }
                    self.counters.transfers += 1;
                    self.counters.count_crossing(next, t);
                    self.cpu.rip = t;
                }
                BlockExit::Indirect | BlockExit::Other => {
                    let ti = &block.insts[n - 1];
                    self.cpu.rip = ti.next;
                    match self.exec(&ti.inst, ti.rip, ti.next) {
                        Ok(None) => {}
                        done => return (executed + n as u64, done),
                    }
                }
            }
            executed += n as u64;
            if executed >= budget {
                return (executed, Ok(None));
            }
            // ---- resolve the successor: links / IC / probe ----
            let target = self.cpu.rip;
            bidx = if exit.is_indirect() {
                let ic = trace.blocks[bidx as usize].ic;
                let mut hit = None;
                for (way, &(t, idx)) in ic.iter().enumerate() {
                    if idx != NO_LINK && t == target {
                        if trace.block_current(idx) {
                            hit = Some((way, idx));
                        } else {
                            trace.blocks[bidx as usize].ic[way] = (0, NO_LINK);
                            trace.stats.links_severed += 1;
                        }
                        break;
                    }
                }
                match hit {
                    Some((way, idx)) => {
                        trace.stats.ic_hits += 1;
                        if way != 0 {
                            trace.blocks[bidx as usize].ic.swap(0, way);
                        }
                        idx
                    }
                    None => {
                        trace.stats.ic_misses += 1;
                        match self.lookup_or_build(trace, target) {
                            Some(idx) => {
                                let b = &mut trace.blocks[bidx as usize];
                                for k in (1..IC_WAYS).rev() {
                                    b.ic[k] = b.ic[k - 1];
                                }
                                b.ic[0] = (target, idx);
                                idx
                            }
                            None => return (executed, Ok(None)),
                        }
                    }
                }
            } else {
                let slot = {
                    let b = &trace.blocks[bidx as usize];
                    if use_taken {
                        b.link_taken
                    } else {
                        b.link_fall
                    }
                };
                if slot != NO_LINK && trace.block_current(slot) {
                    trace.stats.chain_follows += 1;
                    slot
                } else {
                    if slot != NO_LINK {
                        // Stale link (segment invalidated): sever.
                        trace.stats.links_severed += 1;
                    }
                    let linked = self.lookup_or_build(trace, target);
                    let b = &mut trace.blocks[bidx as usize];
                    let slot = if use_taken {
                        &mut b.link_taken
                    } else {
                        &mut b.link_fall
                    };
                    *slot = linked.unwrap_or(NO_LINK);
                    match linked {
                        Some(idx) => idx,
                        None => return (executed, Ok(None)),
                    }
                }
            };
        }
    }

    /// Invalidates translated code containing `addr` in both the block
    /// cache (version bump: severs stale chain links and IC entries
    /// lazily) and the per-instruction icache. Returns whether any
    /// cached code was dropped. Models self-modifying / reloaded code.
    pub fn invalidate_code(&mut self, addr: u64) -> bool {
        let t = self.trace.invalidate_addr(addr);
        let i = self.icache_invalidate(addr);
        t || i
    }

    /// Cache-maintenance counters for the translated tier.
    pub fn trace_stats(&self) -> TraceStats {
        self.trace.stats
    }

    /// Runs until exit, error or `max_steps` instructions on the
    /// selected backend (see [`ExecBackend`]), then prices the counters
    /// into `counters.cycles` with [`Runtime::COST`]. The translated
    /// tier is behaviorally identical to [`Emu::run`] (result,
    /// counters, guest-visible state), just faster.
    pub fn run_backend(&mut self, backend: ExecBackend, max_steps: u64) -> RunResult {
        // The reference interpreter keeps its own tight loop;
        // one-instruction slices through `step_fast` are measurably
        // slower. Runtimes that observe memory always run on it.
        let result = if backend == ExecBackend::Step || R::OBSERVES_MEMORY {
            self.run_step(max_steps)
        } else {
            self.run_fast(max_steps)
        };
        self.counters.cycles = R::COST.price(&self.counters);
        result
    }

    /// The translated tier's run loop behind [`Emu::run_backend`].
    fn run_fast(&mut self, max_steps: u64) -> RunResult {
        let mut remaining = max_steps;
        while remaining > 0 {
            let (executed, outcome) = self.step_fast(remaining);
            remaining -= executed.min(remaining);
            match outcome {
                Ok(None) => {}
                Ok(Some(result)) => return result,
                Err(EmuError::AccessVetoed { error, .. }) => return RunResult::MemoryError(error),
                Err(e) => return RunResult::Error(e),
            }
        }
        RunResult::StepLimit
    }
}
