//! Machine-code synthesis of the Figure 4 check.
//!
//! Each batch (paper §6) becomes one trampoline payload. Its cold code
//! comes first and the rewriter jumps to the entry after it:
//!
//! ```text
//!   .fallback_k:   call fallback(lb, cls, siz); je .done_k; jmp .have_base_k
//!   .err_meta_k:   call report(metadata, w)
//!   .err_bounds_k: call report(bounds, w)
//!                  mov eax, site_k     (the reports read the site here)
//!                  jmp .after_k        (log mode continues checking)
//!   entry:         push live scratch registers; pushfq if flags live
//!   check_1        BASE from the base register (not low-fat → .fallback_1)
//!   .have_base_1:  metadata test → ja .err_meta_1;
//!                  bounds test → ja .err_bounds_1
//!   ...
//!   check_n
//!                  popfq; pop scratch
//!   (falls through to the displaced original instructions)
//! ```
//!
//! A passing heap access therefore runs straight from the entry to the
//! displaced instructions without a taken branch. Only a failed test, or
//! a full check whose base register is not low-fat, leaves the hot path.
//! A redzone-only check has no fallback: it computes BASE from LB in
//! line and skips to `.done_k` when LB is not low-fat.
//!
//! # The cold library
//!
//! What the cold code does depends on little: the redzone fallback only
//! on the batch's scratch triple, and a report only on the site and the
//! error kind. So each is a [`Routine`] of a library the rewriter places
//! once at the head of the trampoline segment, and a check's cold code
//! is calls into it, each recorded as a [`CallField`] that placement
//! writes:
//! - `fallback(lb, cls, siz)` computes BASE into `rdx` and size(BASE)
//!   into `siz` from LB, and returns ZF set when LB is not low-fat, so
//!   its call site branches to `.done_k` or `.have_base_k`;
//! - `report(kind, w)` saves `rdi`/`rsi`, reads the site from the
//!   immediate of the `mov eax, site_k` after the bounds stub's call,
//!   raises `MEMORY_ERROR` and returns to that `mov`, whose `jmp`
//!   resumes at `.after_k`. The metadata report returns past the bounds
//!   stub's call. The `mov` keeps the trampoline decodable from end to
//!   end; `rax` is scratch there.
//!
//! A site that does not fit the immediate keeps the stubs in line: they
//! save `rdi`/`rsi`, raise the error and jump to `.after_k`.
//!
//! Every branch from the hot path into its cold code is backward, so it
//! takes the 2-byte rel8 form when in reach ([`Asm::jcc_label_short`]);
//! in a single-check batch all of them are. The cold code's jumps into
//! the hot path are forward and keep rel32. Stub immediates use the
//! zero-extending 32-bit `mov` when they fit. A profiling payload has
//! one stub per check, in line: both tests record the same fail event.
//!
//! BASE is one `SIZES` lookup plus one multiply. A zero `SIZES` entry
//! means "not low-fat" (every heap pointer is at least `2^35`, above
//! every class size, so a valid class never yields BASE 0), so the
//! check tests the entry before it multiplies and a non-fat pointer
//! runs no multiply at all. BASE stays in `rdx`: `imul` scales the
//! quotient the `mul` leaves there.
//!
//! The check body implements the *merged* variant of §4.2: state and size
//! share one metadata word (`SIZE == 0` ⇒ free), the use-after-free test
//! folds into the bounds test, and the lower-bound test folds into the
//! upper-bound test via unsigned underflow of `LB - (BASE+16)`.
//!
//! Register discipline: `rax`/`rdx` are forced scratch (the `mul`
//! computing `ptr / class_size` needs them); three more scratch registers
//! are chosen from the 13 [`CHECK_SCRATCH_CANDIDATES`] (every GPR but
//! `rsp`, `rax` and `rdx`) avoiding every operand register of the batch.
//! Candidates dead at the anchor come first, so a dead register is
//! clobbered before a live one is saved; among equals the caller-saved
//! ones win. Live scratch registers are saved on the guest stack; when
//! `rax`/`rdx` are themselves operand registers of a later check in the
//! batch, their original values are reloaded from their stack slots.

use redfat_analysis::MergedCheck;
use redfat_emu::syscalls;
use redfat_rewriter::{CallField, RipField, NO_ROUTINE};
use redfat_vm::layout;
use redfat_x86::{AluOp, Asm, AsmError, Cond, Inst, Label, Mem, Op, Operands, Reg, ShiftOp, Width};

/// Registers eligible as chosen scratch (beyond the forced `rax`/`rdx`),
/// in preference order: caller-saved first, then callee-saved.
pub const CHECK_SCRATCH_CANDIDATES: [Reg; 13] = [
    Reg::Rcx,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::Rbx,
    Reg::Rbp,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
];

/// A routine of the cold library (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Routine {
    /// Raises `MEMORY_ERROR` for the site of the calling check: a
    /// metadata or a bounds failure, of a write or a read.
    Report { metadata: bool, write: bool },
    /// The redzone fallback of a full check whose scratch triple is
    /// `(lb, cls, siz)`.
    Fallback(Reg, Reg, Reg),
}

/// The length of a `call rel32`: the metadata stub's call lies this far
/// before the bounds stub's.
const CALL_LEN: i64 = 5;

impl Routine {
    /// Routine ids run from 0 to this bound: four reports, then one
    /// fallback per ordered triple of register codes.
    pub(crate) const COUNT: usize = 4 + 16 * 16 * 16;

    /// The routine's id, which orders the library.
    pub(crate) fn id(self) -> u32 {
        match self {
            Routine::Report { metadata, write } => u32::from(metadata) << 1 | u32::from(write),
            Routine::Fallback(lb, cls, siz) => {
                let code = |r: Reg| u32::from(r.code());
                4 + (code(lb) << 8 | code(cls) << 4 | code(siz))
            }
        }
    }

    /// The routine whose [`Routine::id`] is `id`.
    fn from_id(id: u32) -> Routine {
        match id {
            0..4 => Routine::Report {
                metadata: id & 2 != 0,
                write: id & 1 != 0,
            },
            _ => {
                let reg = |shift: u32| Reg::from_code(((id - 4) >> shift & 15) as u8);
                Routine::Fallback(reg(8), reg(4), reg(0))
            }
        }
    }

    /// Emits the routine's code, which does not depend on where it
    /// lands: its branches stay inside it.
    fn emit(self, a: &mut Asm) -> Result<(), AsmError> {
        match self {
            Routine::Fallback(lb, cls, siz) => {
                let not_fat = a.label();
                emit_base(a, lb, (cls, siz), not_fat);
                // ZF clear: size(BASE) is never 0 for a low-fat pointer.
                a.test_rr(Width::W64, siz, siz);
                a.ret();
                a.bind(not_fat)?;
                a.alu_rr(AluOp::Cmp, Width::W32, Reg::Rax, Reg::Rax);
                a.ret();
            }
            Routine::Report { metadata, write } => {
                // The bounds stub's call returns to the `mov eax, site`;
                // the metadata stub's call is one call before it.
                let to_site = if metadata { CALL_LEN } else { 0 };
                a.push_r(Reg::Rdi);
                a.push_r(Reg::Rsi);
                a.mov_rm(Width::W64, Reg::Rdi, Mem::base_disp(Reg::Rsp, 16));
                a.mov_rm(Width::W32, Reg::Rdi, Mem::base_disp(Reg::Rdi, to_site + 1));
                mov_imm(a, Reg::Rsi, u64::from(metadata) << 1 | u64::from(write));
                mov_imm(a, Reg::Rax, syscalls::MEMORY_ERROR);
                a.syscall();
                a.pop_r(Reg::Rsi);
                a.pop_r(Reg::Rdi);
                if metadata {
                    a.emit(Inst::new(
                        Op::Alu(AluOp::Add),
                        Width::W64,
                        Operands::MI {
                            dst: Mem::base(Reg::Rsp),
                            imm: CALL_LEN,
                        },
                    ))?;
                }
                a.ret();
            }
        }
        Ok(())
    }
}

/// The cold library holding each routine `used[id]` marks, in id
/// order: its code and the entry offset of each routine id
/// ([`NO_ROUTINE`] for the others).
pub(crate) fn library(used: &[bool]) -> Result<(Vec<u8>, Vec<u32>), AsmError> {
    let mut a = Asm::new(0);
    let mut entries = vec![NO_ROUTINE; Routine::COUNT];
    for (id, entry) in entries.iter_mut().enumerate() {
        if used.get(id).copied().unwrap_or(false) {
            *entry = a.len() as u32;
            Routine::from_id(id as u32).emit(&mut a)?;
        }
    }
    Ok((a.take()?, entries))
}

/// Emits a `call` to `routine`, its rel32 left for placement and
/// recorded in `calls` at its offset from the payload's `start`.
fn call(a: &mut Asm, routine: Routine, start: u64, calls: &mut Vec<CallField>) {
    a.raw(&[0xE8, 0, 0, 0, 0]);
    calls.push(CallField {
        at: (a.here() - 4 - start) as u32,
        routine: routine.id(),
    });
}

/// One check to synthesize, with its policy decision.
#[derive(Debug, Clone)]
pub(crate) struct CheckSpec {
    /// The merged operand/range.
    pub check: MergedCheck,
    /// `true` for the full (Redzone)+(LowFat) check; `false` for the
    /// (Redzone)-only fallback (base computed from `LB`, never from the
    /// base register).
    pub lowfat: bool,
}

/// What the payload does on a failed check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PayloadMode {
    /// Report via the `MEMORY_ERROR` syscall (abort or log is the
    /// runtime's decision).
    Harden,
    /// Record pass/fail via the `PROFILE_EVENT` syscall (§5 profiling
    /// phase). Requires singleton batches.
    Profile,
}

/// Everything needed to emit one batch's payload.
#[derive(Debug, Clone)]
pub(crate) struct BatchPayload {
    pub checks: Vec<CheckSpec>,
    /// Scratch registers saved in the prologue (live ones only), in push
    /// order.
    pub saves: Vec<Reg>,
    /// Scratch registers the payload may modify *without* restoring
    /// (they were dead at the anchor). The differential oracle uses this
    /// to attribute post-payload register divergence to liveness.
    pub clobbers: Vec<Reg>,
    /// Chosen scratch (lb, cls, siz) -- disjoint from all operand regs.
    pub scratch: (Reg, Reg, Reg),
    /// Save/restore flags around the checks.
    pub save_flags: bool,
    /// Metadata hardening on/off (`-size`).
    pub size_harden: bool,
    /// Pure-lowfat ablation: class-size bounds only (see
    /// [`crate::HardenConfig::lowfat_only`]).
    pub lowfat_only: bool,
    pub mode: PayloadMode,
}

impl BatchPayload {
    /// Chooses scratch registers and the save set for a batch.
    ///
    /// `dead` lists registers known dead at the anchor (skippable saves);
    /// `flags_dead` likewise for the flags.
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        checks: Vec<CheckSpec>,
        dead: &[Reg],
        flags_dead: bool,
        size_harden: bool,
        lowfat_only: bool,
        mode: PayloadMode,
    ) -> Option<BatchPayload> {
        let mut operand_regs = 0u16;
        for c in &checks {
            for r in c.check.mem.regs() {
                operand_regs |= 1 << r.code();
            }
        }
        let mut free: Vec<Reg> = CHECK_SCRATCH_CANDIDATES
            .iter()
            .copied()
            .filter(|r| operand_regs & (1 << r.code()) == 0)
            .collect();
        // Dead candidates first (a stable sort keeps candidate order
        // otherwise): each one chosen is a save that never runs.
        free.sort_by_key(|r| !dead.contains(r));
        if free.len() < 3 {
            return None; // caller splits the batch
        }
        let scratch = (free[0], free[1], free[2]);

        let mut save_set: Vec<Reg> = vec![Reg::Rax, Reg::Rdx, free[0], free[1], free[2]];
        if mode == PayloadMode::Profile {
            for r in [Reg::Rdi, Reg::Rsi] {
                if !save_set.contains(&r) {
                    save_set.push(r);
                }
            }
        }
        let (saves, clobbers): (Vec<Reg>, Vec<Reg>) =
            save_set.into_iter().partition(|r| !dead.contains(r));

        Some(BatchPayload {
            checks,
            saves,
            clobbers,
            scratch,
            save_flags: !flags_dead,
            size_harden,
            lowfat_only,
            mode,
        })
    }

    /// Stack offset (from `rsp` during the check body) of a saved
    /// register's slot.
    fn slot_of(&self, reg: Reg) -> Option<i64> {
        let idx = self.saves.iter().position(|&r| r == reg)?;
        let after = (self.saves.len() - 1 - idx) as i64;
        let flags = if self.save_flags { 1 } else { 0 };
        Some((after + flags) * 8)
    }

    /// Emits the payload into `a` and returns its entry address, which
    /// follows the payload's cold code. The bytes do not depend on where
    /// they are emitted, but for two kinds of rel32 field, emitted with
    /// a placeholder and recorded at their offset from the payload's
    /// start for the rewriter to write where the payload lands: the
    /// `lea` of a rip-relative operand, in `rip_fields`, and each call
    /// into the cold library, in `calls`.
    pub fn emit(
        &self,
        a: &mut Asm,
        rip_fields: &mut Vec<RipField>,
        calls: &mut Vec<CallField>,
    ) -> Result<u64, AsmError> {
        let start = a.here();
        let labels: Vec<CheckLabels> = self
            .checks
            .iter()
            .map(|spec| CheckLabels::new(a, self, spec))
            .collect();
        for (spec, l) in self.checks.iter().zip(&labels) {
            self.emit_cold(a, spec, l, start, calls)?;
        }

        let entry = a.here();
        for &r in &self.saves {
            a.push_r(r);
        }
        if self.save_flags {
            a.pushfq();
        }
        for (k, (spec, l)) in self.checks.iter().zip(&labels).enumerate() {
            if let Some(field) = self.emit_hot(a, spec, k > 0, l)? {
                // The field ends its `lea`.
                let at = (field - start) as u32;
                rip_fields.push(RipField {
                    at,
                    end: at + 4,
                    target: spec.check.mem.disp as u64,
                });
            }
        }
        if self.save_flags {
            a.popfq();
        }
        for &r in self.saves.iter().rev() {
            a.pop_r(r);
        }
        Ok(entry)
    }

    /// Emits one check's out-of-line code: the call to the redzone
    /// fallback of a full check, then its report stubs, the metadata
    /// stub before the bounds stub, so every hot-path branch into this
    /// code is backward. Calls are recorded in `calls` at their offset
    /// from the payload's `start`.
    fn emit_cold(
        &self,
        a: &mut Asm,
        spec: &CheckSpec,
        l: &CheckLabels,
        start: u64,
        calls: &mut Vec<CallField>,
    ) -> Result<(), AsmError> {
        let (lb, cls, siz) = self.scratch;
        if let Some(fallback) = l.fallback {
            a.bind(fallback)?;
            call(a, Routine::Fallback(lb, cls, siz), start, calls);
            a.jcc_label_short(Cond::E, l.done);
            a.jmp_label_short(l.have_base);
        }

        let Some(err_bounds) = l.err_bounds else {
            return Ok(());
        };
        let site = spec.check.sites[0];
        let write = spec.check.is_write;
        match self.mode {
            PayloadMode::Harden => match u32::try_from(site) {
                Ok(site) => {
                    if let Some(err_meta) = l.err_meta {
                        a.bind(err_meta)?;
                        let metadata = Routine::Report {
                            metadata: true,
                            write,
                        };
                        call(a, metadata, start, calls);
                    }
                    a.bind(err_bounds)?;
                    let bounds = Routine::Report {
                        metadata: false,
                        write,
                    };
                    call(a, bounds, start, calls);
                    // Never runs before the report: the routine reads
                    // the site from its immediate and returns to it.
                    a.mov_ri(Width::W32, Reg::Rax, i64::from(site));
                    a.jmp_label_short(l.after);
                }
                Err(_) => {
                    // Report and (in log mode) continue: preserve rdi/rsi
                    // around the syscall; rax is scratch.
                    let w_bit = u64::from(write);
                    a.bind(err_bounds)?;
                    a.push_r(Reg::Rdi);
                    a.push_r(Reg::Rsi);
                    mov_imm(a, Reg::Rsi, w_bit);
                    let report = a.label();
                    a.bind(report)?;
                    mov_imm(a, Reg::Rdi, site);
                    mov_imm(a, Reg::Rax, syscalls::MEMORY_ERROR);
                    a.syscall();
                    a.pop_r(Reg::Rsi);
                    a.pop_r(Reg::Rdi);
                    a.jmp_label_short(l.after);
                    if let Some(err_meta) = l.err_meta {
                        a.bind(err_meta)?;
                        a.push_r(Reg::Rdi);
                        a.push_r(Reg::Rsi);
                        mov_imm(a, Reg::Rsi, (1 << 1) | w_bit);
                        a.jmp_label_short(report);
                    }
                }
            },
            PayloadMode::Profile => {
                // Both tests record the same *fail* event (rsi = 0), so
                // one stub serves both; rdi/rsi are in the save set.
                if let Some(err_meta) = l.err_meta {
                    a.bind(err_meta)?;
                }
                a.bind(err_bounds)?;
                mov_imm(a, Reg::Rdi, site);
                mov_imm(a, Reg::Rsi, 0);
                mov_imm(a, Reg::Rax, syscalls::PROFILE_EVENT);
                a.syscall();
                a.jmp_label_short(l.after);
            }
        }
        Ok(())
    }

    /// Emits one (merged) check's hot path and returns the address of
    /// the rip-relative field it leaves for placement, if any.
    fn emit_hot(
        &self,
        a: &mut Asm,
        spec: &CheckSpec,
        may_be_clobbered: bool,
        l: &CheckLabels,
    ) -> Result<Option<u64>, AsmError> {
        let (lb, cls, siz) = self.scratch;
        let mem = spec.check.mem;
        let len = spec.check.len as i64;

        // If a previous check clobbered rax/rdx and this operand uses
        // them, reload the original values from their stack slots.
        if may_be_clobbered {
            for r in [Reg::Rax, Reg::Rdx] {
                if mem.regs().any(|or| or == r) {
                    // Safety of the expect: `slot_of` covers every
                    // register the batch planner marked live, and a
                    // register appearing in a check operand is live by
                    // construction; a miss here is a planner bug that
                    // must not silently emit an unreloaded operand.
                    #[allow(clippy::expect_used)]
                    let slot = self
                        .slot_of(r)
                        .expect("operand register is live, hence saved");
                    a.mov_rm(Width::W64, r, Mem::base_disp(Reg::Rsp, slot));
                }
            }
        }

        // No bounds stub: the `lowfat_only` ablation without a low-fat
        // base register, which tests nothing (paper §2.1).
        let mut rip_field = None;
        if let Some(err_bounds) = l.err_bounds {
            // LB = effective address (operand registers are intact:
            // scratch is disjoint from them, rax/rdx were reloaded). A
            // rip-relative operand's displacement depends on where the
            // payload lands; until then it reaches the `lea` itself.
            if mem.rip {
                a.lea(lb, mem.with_disp(a.here() as i64));
                rip_field = Some(a.here() - 4);
            } else {
                a.lea(lb, mem);
            }
            // A full check takes BASE from the base register and leaves
            // for its fallback when that is not low-fat (the ablation has
            // none); a redzone-only check takes BASE from LB.
            emit_base(
                a,
                l.ptr.unwrap_or(lb),
                (cls, siz),
                l.fallback.unwrap_or(l.done),
            );
            if self.lowfat_only {
                // Class-size bounds only: (u32)(LB - BASE) + len <= size(BASE).
                a.mov_rr(Width::W64, Reg::Rax, lb);
                a.alu_rr(AluOp::Sub, Width::W32, Reg::Rax, Reg::Rdx);
                a.alu_ri(AluOp::Add, Width::W64, Reg::Rax, len);
                a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, siz);
                a.jcc_label_short(Cond::A, err_bounds);
            } else {
                a.bind(l.have_base)?;

                // ---- metadata: cls := SIZE (merged state/size; 0 = free) ----
                a.mov_rm(Width::W64, cls, Mem::base(Reg::Rdx));
                if let Some(err_meta) = l.err_meta {
                    // SIZE must fit the allocation class: SIZE <= size(BASE)-16.
                    a.lea(Reg::Rax, Mem::base_disp(siz, -(layout::REDZONE as i64)));
                    a.alu_rr(AluOp::Cmp, Width::W64, cls, Reg::Rax);
                    a.jcc_label_short(Cond::A, err_meta);
                }

                // ---- merged bounds check (§4.2) ----
                // rax = (u32)(LB - (BASE+16)) + len, compared against SIZE.
                // The 32-bit `sub` is the paper's underflow trick: a
                // lower-bound violation leaves a huge 32-bit value that the
                // upper-bound compare rejects, merging both bounds (and the
                // UaF check, since SIZE == 0 fails everything) into one
                // branch. Like the paper's, the truncation leaves a blind
                // spot at offsets that are exact multiples of 2^32 --
                // irrelevant for adjacent-object attacks.
                a.lea(Reg::Rax, Mem::base_disp(lb, -(layout::REDZONE as i64)));
                a.alu_rr(AluOp::Sub, Width::W32, Reg::Rax, Reg::Rdx);
                a.alu_ri(AluOp::Add, Width::W64, Reg::Rax, len);
                a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, cls);
                a.jcc_label_short(Cond::A, err_bounds);
            }
        }

        a.bind(l.done)?;
        if self.mode == PayloadMode::Profile {
            // Passing (or non-fat) execution records a pass event.
            mov_imm(a, Reg::Rdi, spec.check.sites[0]);
            mov_imm(a, Reg::Rsi, 1);
            mov_imm(a, Reg::Rax, syscalls::PROFILE_EVENT);
            a.syscall();
        }
        a.bind(l.after)?;
        Ok(rip_field)
    }
}

/// One check's labels, made before any of the payload is emitted so the
/// cold code (emitted first) and the hot path can name each other, and
/// the register its low-fat BASE comes from.
struct CheckLabels {
    /// The register a full check takes BASE from: the operand's base
    /// register. `None` for redzone-only checks and base-less operands.
    ptr: Option<Reg>,
    /// The out-of-line redzone fallback of a full check (not under the
    /// `lowfat_only` ablation, which has none).
    fallback: Option<Label>,
    /// BASE is in `rdx` and size(BASE) in `siz`: the metadata and bounds
    /// tests.
    have_base: Label,
    /// The check passed, or its pointer is not low-fat.
    done: Label,
    /// Where a report stub resumes (log mode continues checking).
    after: Label,
    /// The metadata report stub (metadata hardening on).
    err_meta: Option<Label>,
    /// The bounds report stub; `None` when the check emits no test.
    err_bounds: Option<Label>,
}

impl CheckLabels {
    fn new(a: &mut Asm, p: &BatchPayload, spec: &CheckSpec) -> CheckLabels {
        let ptr = spec.check.mem.base.filter(|_| spec.lowfat);
        let tested = !p.lowfat_only || ptr.is_some();
        CheckLabels {
            ptr,
            fallback: (ptr.is_some() && !p.lowfat_only).then(|| a.label()),
            have_base: a.label(),
            done: a.label(),
            after: a.label(),
            err_meta: (tested && p.size_harden && !p.lowfat_only).then(|| a.label()),
            err_bounds: tested.then(|| a.label()),
        }
    }
}

/// Computes the low-fat BASE of the pointer in `ptr` into `rdx` and
/// size(BASE) into `siz`, or jumps to `not_fat`: when the region index
/// is past the tables, or when its `SIZES` entry is 0, which is tested
/// before the multiply. Clobbers `rax` and `cls`; `ptr` may be `rax`.
fn emit_base(a: &mut Asm, ptr: Reg, (cls, siz): (Reg, Reg), not_fat: Label) {
    a.mov_rr(Width::W64, cls, ptr);
    a.shift_ri(
        ShiftOp::Shr,
        Width::W64,
        cls,
        layout::REGION_SIZE_LOG2 as u8,
    );
    // `TABLE_ENTRIES - 1` fits the imm8 form of `cmp`.
    a.alu_ri(
        AluOp::Cmp,
        Width::W64,
        cls,
        layout::TABLE_ENTRIES as i64 - 1,
    );
    a.jcc_label_short(Cond::A, not_fat);
    a.mov_rm(
        Width::W64,
        siz,
        Mem::index_scale(cls, 8, layout::SIZES_TABLE as i64),
    );
    a.test_rr(Width::W64, siz, siz);
    a.jcc_label_short(Cond::E, not_fat);
    if ptr != Reg::Rax {
        a.mov_rr(Width::W64, Reg::Rax, ptr);
    }
    a.mul_m(Mem::index_scale(cls, 8, layout::MAGICS_TABLE as i64));
    a.imul_rr(Width::W64, Reg::Rdx, siz);
}

/// `mov $imm, %dst`, in the zero-extending 32-bit form when `imm` fits.
fn mov_imm(a: &mut Asm, dst: Reg, imm: u64) {
    let w = if u32::try_from(imm).is_ok() {
        Width::W32
    } else {
        Width::W64
    };
    a.mov_ri(w, dst, imm as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_x86::Op;

    fn spec(mem: Mem, len: u64, is_write: bool, lowfat: bool) -> CheckSpec {
        CheckSpec {
            check: MergedCheck {
                mem,
                len,
                is_write,
                sites: vec![0x40_1000],
            },
            lowfat,
        }
    }

    #[test]
    fn scratch_avoids_operand_regs() {
        let p = BatchPayload::plan(
            vec![spec(Mem::bis(Reg::Rcx, Reg::Rsi, 8, 0), 8, true, true)],
            &[],
            false,
            true,
            false,
            PayloadMode::Harden,
        )
        .unwrap();
        let (a, b, c) = p.scratch;
        for r in [a, b, c] {
            assert_ne!(r, Reg::Rcx);
            assert_ne!(r, Reg::Rsi);
        }
    }

    #[test]
    fn dead_regs_skip_saves() {
        let all_dead: Vec<Reg> = (0..16).map(Reg::from_code).collect();
        let p = BatchPayload::plan(
            vec![spec(Mem::base(Reg::Rbx), 8, true, true)],
            &all_dead,
            true,
            true,
            false,
            PayloadMode::Harden,
        )
        .unwrap();
        assert!(p.saves.is_empty());
        assert!(!p.save_flags);
        // Everything skipped as dead is reported as a potential clobber.
        assert!(p.clobbers.contains(&Reg::Rax));
        assert!(p.clobbers.contains(&Reg::Rdx));
        assert_eq!(p.saves.len() + p.clobbers.len(), 5);
    }

    #[test]
    fn saves_and_clobbers_partition_the_save_set() {
        let p = BatchPayload::plan(
            vec![spec(Mem::base(Reg::Rbx), 8, true, true)],
            &[Reg::Rax, Reg::R10],
            false,
            true,
            false,
            PayloadMode::Harden,
        )
        .unwrap();
        for r in &p.clobbers {
            assert!(!p.saves.contains(r), "{r:?} both saved and clobbered");
        }
        assert!(p.clobbers.contains(&Reg::Rax));
        assert!(!p.saves.contains(&Reg::Rax));
        assert!(p.saves.contains(&Reg::Rdx));
    }

    #[test]
    fn payload_assembles() {
        let p = BatchPayload::plan(
            vec![
                spec(Mem::base(Reg::Rbx), 8, true, true),
                spec(Mem::bis(Reg::Rax, Reg::Rdx, 4, 16), 4, false, false),
            ],
            &[],
            false,
            true,
            false,
            PayloadMode::Harden,
        )
        .unwrap();
        let mut a = Asm::new(redfat_vm::layout::TRAMPOLINE_BASE);
        p.emit(&mut a, &mut Vec::new(), &mut Vec::new()).unwrap();
        let prog = a.finish().unwrap();
        assert!(prog.bytes.len() > 40, "non-trivial check code emitted");
        // The whole payload must decode cleanly.
        let insts = redfat_x86::decode_all(&prog.bytes, prog.base);
        let total: usize = insts.iter().map(|(_, _, l)| *l as usize).sum();
        assert_eq!(total, prog.bytes.len(), "payload decodes completely");
    }

    #[test]
    fn full_checks_leave_the_hot_path_only_for_cold_code() {
        // From the entry on, no unconditional jump or call runs and
        // every conditional branch targets the cold code before the
        // entry, so a passing heap access falls through to the end. The
        // cold code calls the library -- each check its fallback and,
        // in harden mode, one report per test -- and every branch in it
        // goes forward into the hot path.
        for mode in [PayloadMode::Harden, PayloadMode::Profile] {
            for size_harden in [true, false] {
                let p = BatchPayload::plan(
                    vec![
                        spec(Mem::base_disp(Reg::Rbx, 8), 8, true, true),
                        spec(Mem::bis(Reg::Rax, Reg::Rdx, 4, 16), 4, false, true),
                    ],
                    &[],
                    false,
                    size_harden,
                    false,
                    mode,
                )
                .unwrap();
                let mut a = Asm::new(redfat_vm::layout::TRAMPOLINE_BASE);
                let mut calls = Vec::new();
                let entry = p.emit(&mut a, &mut Vec::new(), &mut calls).unwrap();
                let prog = a.finish().unwrap();
                assert!(entry > prog.base, "{mode:?}: cold code comes first");
                let mut call_sites = Vec::new();
                for (addr, inst, len) in redfat_x86::decode_all(&prog.bytes, prog.base) {
                    let target = inst.branch_target();
                    let case = format!("{mode:?} size_harden={size_harden}: {inst:?} at {addr:#x}");
                    match (addr >= entry, inst.op) {
                        (true, Op::Jmp | Op::Call) => panic!("{case}: transfer on the hot path"),
                        (true, Op::Jcc(_)) => assert!(target < Some(entry), "{case}"),
                        (false, Op::Jmp | Op::Jcc(_)) => assert!(target >= Some(entry), "{case}"),
                        (false, Op::Call) => {
                            call_sites.push((addr + len as u64 - 4 - prog.base) as u32)
                        }
                        _ => {}
                    }
                }
                let (lb, cls, siz) = p.scratch;
                let mut expected = Vec::new();
                for write in [true, false] {
                    expected.push(Routine::Fallback(lb, cls, siz));
                    if mode == PayloadMode::Harden {
                        if size_harden {
                            expected.push(Routine::Report {
                                metadata: true,
                                write,
                            });
                        }
                        expected.push(Routine::Report {
                            metadata: false,
                            write,
                        });
                    }
                }
                let called: Vec<Routine> =
                    calls.iter().map(|c| Routine::from_id(c.routine)).collect();
                assert_eq!(called, expected, "{mode:?} size_harden={size_harden}");
                let at: Vec<u32> = calls.iter().map(|c| c.at).collect();
                assert_eq!(at, call_sites, "{mode:?} size_harden={size_harden}");
            }
        }
    }

    #[test]
    fn routine_ids_round_trip() {
        let mut routines = vec![
            Routine::Report {
                metadata: false,
                write: false,
            },
            Routine::Report {
                metadata: true,
                write: true,
            },
        ];
        let c = CHECK_SCRATCH_CANDIDATES;
        routines.extend(
            [(0, 1, 2), (12, 11, 10), (3, 7, 5)]
                .map(|(i, j, k)| Routine::Fallback(c[i], c[j], c[k])),
        );
        for r in routines {
            assert!((r.id() as usize) < Routine::COUNT, "{r:?}");
            assert_eq!(Routine::from_id(r.id()), r);
        }
    }

    fn plan_harden(checks: Vec<CheckSpec>, dead: &[Reg]) -> BatchPayload {
        BatchPayload::plan(checks, dead, false, true, false, PayloadMode::Harden).unwrap()
    }

    #[test]
    fn dead_candidates_are_chosen_before_live_ones() {
        let store = || vec![spec(Mem::base(Reg::Rax), 8, true, true)];
        // r8 is dead, rcx/rsi/rdi live: r8 is clobbered, not saved.
        let p = plan_harden(store(), &[Reg::R8]);
        assert_eq!(p.scratch, (Reg::R8, Reg::Rcx, Reg::Rsi));
        assert!(p.clobbers.contains(&Reg::R8));
        assert!(!p.saves.contains(&Reg::R8));

        // Every caller-saved candidate live, rbx dead: rbx is scratch
        // and costs no save.
        let p = plan_harden(store(), &[Reg::Rbx]);
        assert_eq!(p.scratch, (Reg::Rbx, Reg::Rcx, Reg::Rsi));
        assert_eq!(p.clobbers, vec![Reg::Rbx]);
        assert_eq!(p.saves, vec![Reg::Rax, Reg::Rdx, Reg::Rcx, Reg::Rsi]);
    }

    #[test]
    fn every_dead_candidate_triple_is_chosen_and_encodes() {
        // The operand's base is rsp, never a candidate, so every triple
        // of candidates is free; marking one dead makes it the scratch
        // set. The check body then uses it as base, index and operand in
        // every position, rbp/r12/r13 included (their ModRM/SIB forms).
        let c = CHECK_SCRATCH_CANDIDATES;
        let mut cases = 0;
        for i in 0..c.len() {
            for j in i + 1..c.len() {
                for k in j + 1..c.len() {
                    let dead = [c[i], c[j], c[k]];
                    let check = spec(Mem::base_disp(Reg::Rsp, 24), 8, true, true);
                    let p = plan_harden(vec![check], &dead);
                    assert_eq!(p.scratch, (c[i], c[j], c[k]));
                    assert_eq!(p.saves, vec![Reg::Rax, Reg::Rdx]);
                    assert_eq!(p.clobbers, dead.to_vec());

                    let mut a = Asm::new(redfat_vm::layout::TRAMPOLINE_BASE);
                    let entry = p.emit(&mut a, &mut Vec::new(), &mut Vec::new()).unwrap();
                    let prog = a.finish().unwrap();
                    let insts = redfat_x86::decode_all(&prog.bytes, prog.base);
                    let total: usize = insts.iter().map(|(_, _, l)| *l as usize).sum();
                    assert_eq!(total, prog.bytes.len(), "{dead:?}: decodes completely");
                    // Every hot-path branch is backward into this check's
                    // cold code, and in rel8 reach.
                    for (addr, inst, len) in &insts {
                        if *addr >= entry && matches!(inst.op, Op::Jcc(_)) {
                            assert_eq!(*len, 2, "{dead:?}: {inst:?} at {addr:#x}");
                        }
                    }
                    // So does the triple's fallback routine, and writes
                    // in both stay inside the scratch set, the forced
                    // rax/rdx and rsp.
                    let mut used = vec![false; Routine::COUNT];
                    used[Routine::Fallback(c[i], c[j], c[k]).id() as usize] = true;
                    let (code, _) = library(&used).unwrap();
                    let routine = redfat_x86::decode_all(&code, 0);
                    let total: usize = routine.iter().map(|(_, _, l)| *l as usize).sum();
                    assert_eq!(
                        total,
                        code.len(),
                        "{dead:?}: the routine decodes completely"
                    );
                    for (addr, inst, _) in insts.iter().chain(&routine) {
                        for r in inst.regs_written() {
                            assert!(
                                dead.contains(&r) || [Reg::Rax, Reg::Rdx, Reg::Rsp].contains(&r),
                                "{dead:?}: {inst:?} at {addr:#x} writes {r:?}"
                            );
                        }
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 286);
    }

    #[test]
    fn slot_offsets_match_push_order() {
        let p = BatchPayload::plan(
            vec![spec(Mem::base_disp(Reg::Rax, 8), 8, true, true)],
            &[],
            false, // flags live: extra slot below saves
            true,
            false,
            PayloadMode::Harden,
        )
        .unwrap();
        // saves = [rax, rdx, ...]; with flags push the last-pushed slot
        // (flags) is at 0, the first-pushed (rax) deepest.
        let n = p.saves.len() as i64;
        assert_eq!(p.slot_of(Reg::Rax), Some((n - 1 + 1) * 8));
        assert_eq!(p.slot_of(p.saves[p.saves.len() - 1]), Some(8));
    }
}
