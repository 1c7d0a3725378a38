//! Machine-code synthesis of the Figure 4 check.
//!
//! Each batch (paper §6) becomes one trampoline payload:
//!
//! ```text
//!   prologue   push live scratch registers; pushfq if flags live
//!   check_1    BASE/metadata/bounds tests → ja .err_1
//!   ...
//!   check_n
//!   jmp .epilogue
//!   .err_k:    push rdi/rsi; report via MEMORY_ERROR syscall; pop;
//!              jmp .after_k          (log mode continues checking)
//!   .epilogue: popfq; pop scratch
//!   (falls through to the displaced original instructions)
//! ```
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
use redfat_vm::layout;
use redfat_x86::{AluOp, Asm, AsmError, Cond, Label, Mem, Reg, ShiftOp, Width};

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

    /// Emits the payload into the trampoline assembler.
    pub fn emit(&self, a: &mut Asm) -> Result<(), AsmError> {
        let (lb, cls, siz) = self.scratch;

        for &r in &self.saves {
            a.push_r(r);
        }
        if self.save_flags {
            a.pushfq();
        }

        // Deferred error/report stubs: (label, resume, site, kind_bits).
        let mut stubs: Vec<(Label, Label, u64, u64)> = Vec::new();

        for (k, spec) in self.checks.iter().enumerate() {
            self.emit_one(a, spec, k > 0, (lb, cls, siz), &mut stubs)?;
        }

        let epilogue = a.label();
        if !stubs.is_empty() {
            a.jmp_label(epilogue);
        }
        for (label, resume, site, kind_bits) in stubs {
            a.bind(label)?;
            match self.mode {
                PayloadMode::Harden => {
                    // Report and (in log mode) continue: preserve rdi/rsi
                    // around the syscall; rax is scratch.
                    a.push_r(Reg::Rdi);
                    a.push_r(Reg::Rsi);
                    a.mov_ri(Width::W64, Reg::Rdi, site as i64);
                    a.mov_ri(Width::W64, Reg::Rsi, kind_bits as i64);
                    a.mov_ri(Width::W64, Reg::Rax, syscalls::MEMORY_ERROR as i64);
                    a.syscall();
                    a.pop_r(Reg::Rsi);
                    a.pop_r(Reg::Rdi);
                    a.jmp_label(resume);
                }
                PayloadMode::Profile => {
                    // rdi/rsi are in the save set for profile mode. A
                    // stub always records a *fail* event (rsi = 0).
                    let _ = kind_bits;
                    a.mov_ri(Width::W64, Reg::Rdi, site as i64);
                    a.mov_ri(Width::W64, Reg::Rsi, 0);
                    a.mov_ri(Width::W64, Reg::Rax, syscalls::PROFILE_EVENT as i64);
                    a.syscall();
                    a.jmp_label(resume);
                }
            }
        }
        a.bind(epilogue)?;

        if self.save_flags {
            a.popfq();
        }
        for &r in self.saves.iter().rev() {
            a.pop_r(r);
        }
        Ok(())
    }

    /// Emits one (merged) check.
    #[allow(clippy::too_many_arguments)]
    fn emit_one(
        &self,
        a: &mut Asm,
        spec: &CheckSpec,
        may_be_clobbered: bool,
        (lb, cls, siz): (Reg, Reg, Reg),
        stubs: &mut Vec<(Label, Label, u64, u64)>,
    ) -> Result<(), AsmError> {
        let mem = spec.check.mem;
        let site = spec.check.sites[0];
        let w_bit = spec.check.is_write as u64;
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

        let try_lb = a.label();
        let have_base = a.label();
        let done = a.label();
        let err_meta = a.label();
        let err_bounds = a.label();
        let after = a.label(); // resume point for log-mode continuation

        // LB = effective address (uses original operand registers; must
        // be first, before any scratch writes could alias... scratch is
        // disjoint from operand regs by construction, and rax/rdx were
        // reloaded above).
        a.lea(lb, mem);

        // ---- (LowFat) path: BASE from the operand's base register ----
        let ptr_reg = if spec.lowfat { mem.base } else { None };
        if let Some(ptr) = ptr_reg {
            a.mov_rr(Width::W64, cls, ptr);
            a.shift_ri(
                ShiftOp::Shr,
                Width::W64,
                cls,
                layout::REGION_SIZE_LOG2 as u8,
            );
            a.alu_ri(AluOp::Cmp, Width::W64, cls, layout::TABLE_ENTRIES as i64);
            a.jcc_label(Cond::Ae, try_lb);
            a.mov_rm(
                Width::W64,
                siz,
                Mem::index_scale(cls, 8, layout::SIZES_TABLE as i64),
            );
            if ptr != Reg::Rax {
                a.mov_rr(Width::W64, Reg::Rax, ptr);
            }
            a.mul_m(Mem::index_scale(cls, 8, layout::MAGICS_TABLE as i64));
            a.mov_rr(Width::W64, Reg::Rax, Reg::Rdx);
            a.imul_rr(Width::W64, Reg::Rax, siz);
            a.test_rr(Width::W64, Reg::Rax, Reg::Rax);
            a.jcc_label(Cond::Ne, have_base);
        }

        // ---- (Redzone) fallback: BASE from LB ----
        a.bind(try_lb)?;
        if self.lowfat_only {
            // Pure-lowfat ablation: no redzone fallback; non-fat base
            // register means no check at all (paper §2.1).
            a.jmp_label(done);
            a.bind(have_base)?;
            // Class-size bounds only: (u32)(LB - BASE) + len <= size(BASE).
            a.mov_rr(Width::W64, Reg::Rdx, lb);
            a.alu_rr(AluOp::Sub, Width::W64, Reg::Rdx, Reg::Rax);
            a.mov_rr(Width::W32, Reg::Rdx, Reg::Rdx);
            a.alu_ri(AluOp::Add, Width::W64, Reg::Rdx, len);
            a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rdx, siz);
            a.jcc_label(Cond::A, err_bounds);
            stubs.push((err_bounds, after, site, w_bit));
            a.bind(done)?;
            a.bind(err_meta)?; // unused in this variant
            if self.mode == PayloadMode::Profile {
                a.mov_ri(Width::W64, Reg::Rdi, site as i64);
                a.mov_ri(Width::W64, Reg::Rsi, 1);
                a.mov_ri(Width::W64, Reg::Rax, syscalls::PROFILE_EVENT as i64);
                a.syscall();
            }
            a.bind(after)?;
            return Ok(());
        }
        a.mov_rr(Width::W64, cls, lb);
        a.shift_ri(
            ShiftOp::Shr,
            Width::W64,
            cls,
            layout::REGION_SIZE_LOG2 as u8,
        );
        a.alu_ri(AluOp::Cmp, Width::W64, cls, layout::TABLE_ENTRIES as i64);
        a.jcc_label(Cond::Ae, done);
        a.mov_rm(
            Width::W64,
            siz,
            Mem::index_scale(cls, 8, layout::SIZES_TABLE as i64),
        );
        a.mov_rr(Width::W64, Reg::Rax, lb);
        a.mul_m(Mem::index_scale(cls, 8, layout::MAGICS_TABLE as i64));
        a.mov_rr(Width::W64, Reg::Rax, Reg::Rdx);
        a.imul_rr(Width::W64, Reg::Rax, siz);
        a.test_rr(Width::W64, Reg::Rax, Reg::Rax);
        a.jcc_label(Cond::E, done);

        a.bind(have_base)?;
        // ---- metadata: cls := SIZE (merged state/size; 0 = free) ----
        a.mov_rm(Width::W64, cls, Mem::base(Reg::Rax));
        if self.size_harden {
            // SIZE must fit the allocation class: SIZE <= size(BASE)-16.
            a.lea(Reg::Rdx, Mem::base_disp(siz, -(layout::REDZONE as i64)));
            a.alu_rr(AluOp::Cmp, Width::W64, cls, Reg::Rdx);
            a.jcc_label(Cond::A, err_meta);
            stubs.push((err_meta, after, site, (1 << 1) | w_bit));
        }

        // ---- merged bounds check (§4.2) ----
        // rdx = (u32)(LB - (BASE+16)) + len, compared against SIZE. The
        // 32-bit truncation is the paper's underflow trick: a lower-bound
        // violation leaves a huge 32-bit value that the upper-bound
        // compare rejects, merging both bounds (and the UaF check, since
        // SIZE == 0 fails everything) into one branch. Like the paper's,
        // the truncation leaves a blind spot at offsets that are exact
        // multiples of 2^32 -- irrelevant for adjacent-object attacks.
        a.mov_rr(Width::W64, Reg::Rdx, lb);
        a.alu_rr(AluOp::Sub, Width::W64, Reg::Rdx, Reg::Rax);
        a.alu_ri(AluOp::Sub, Width::W64, Reg::Rdx, layout::REDZONE as i64);
        a.mov_rr(Width::W32, Reg::Rdx, Reg::Rdx); // zero-extending truncate
        a.alu_ri(AluOp::Add, Width::W64, Reg::Rdx, len);
        a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rdx, cls);
        a.jcc_label(Cond::A, err_bounds);
        stubs.push((err_bounds, after, site, w_bit));

        a.bind(done)?;
        if self.mode == PayloadMode::Profile {
            // Passing (or non-fat) execution records a pass event.
            a.mov_ri(Width::W64, Reg::Rdi, site as i64);
            a.mov_ri(Width::W64, Reg::Rsi, 1);
            a.mov_ri(Width::W64, Reg::Rax, syscalls::PROFILE_EVENT as i64);
            a.syscall();
        }
        a.bind(after)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        p.emit(&mut a).unwrap();
        let prog = a.finish().unwrap();
        assert!(prog.bytes.len() > 40, "non-trivial check code emitted");
        // The whole payload must decode cleanly.
        let insts = redfat_x86::decode_all(&prog.bytes, prog.base);
        let total: usize = insts.iter().map(|(_, _, l)| *l as usize).sum();
        assert_eq!(total, prog.bytes.len(), "payload decodes completely");
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
                    p.emit(&mut a).unwrap();
                    let prog = a.finish().unwrap();
                    let insts = redfat_x86::decode_all(&prog.bytes, prog.base);
                    let total: usize = insts.iter().map(|(_, _, l)| *l as usize).sum();
                    assert_eq!(total, prog.bytes.len(), "{dead:?}: decodes completely");
                    // Writes stay inside the scratch set, the forced
                    // rax/rdx, rsp, and the report stub's rdi/rsi.
                    for (addr, inst, _) in &insts {
                        for r in inst.regs_written() {
                            assert!(
                                dead.contains(&r)
                                    || [Reg::Rax, Reg::Rdx, Reg::Rsp, Reg::Rdi, Reg::Rsi]
                                        .contains(&r),
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
