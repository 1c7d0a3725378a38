//! Check batching and merging (paper §6).
//!
//! *Batching* groups the checks of several memory-access instructions
//! into one trampoline, invoked once at the first instruction of the
//! group, provided each member's effective address can be computed there
//! (no intervening write to its base/index registers, same basic block).
//!
//! *Merging* then collapses members whose operands differ only in
//! displacement into a single range check over `[min_disp, max_disp+len)`.

use crate::cfg::Cfg;
use crate::disasm::Disasm;
use redfat_x86::{Inst, Mem, Op};

/// A batch: one instrumentation point covering several member accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Address of the instruction at which the (single) trampoline is
    /// invoked: the first member's address.
    pub anchor: u64,
    /// Addresses of the member memory-access instructions, in program
    /// order. Always non-empty; `members[0] == anchor` is *not* required
    /// (the anchor is the first instruction of the group, which is the
    /// first member by construction).
    pub members: Vec<u64>,
}

/// A (possibly merged) check to emit for a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedCheck {
    /// The operand to check, with the displacement of the lowest member.
    pub mem: Mem,
    /// Total byte span covered: `max(disp+len) - min(disp)`.
    pub len: u64,
    /// `true` if any covered access writes.
    pub is_write: bool,
    /// Covered member addresses (for attribution/allow-lists).
    pub sites: Vec<u64>,
}

/// Plans check batches over a recovered CFG.
///
/// `filter` selects which memory-access instructions need checks: the
/// caller composes its policy there -- check elimination
/// ([`crate::can_reach_heap`]), write-only hardening (`inst.writes_memory()`),
/// and so on. When `batching` is false every member becomes its own
/// singleton batch (the unoptimized configuration of Table 1).
pub fn plan_batches(
    disasm: &Disasm,
    cfg: &Cfg,
    batching: bool,
    filter: impl Fn(u64, &Inst) -> bool,
) -> Vec<Batch> {
    let mut batches = Vec::new();
    for block in cfg.blocks.values() {
        let mut current: Option<Batch> = None;
        // Registers written since the current batch's anchor.
        let mut written: u16 = 0;
        for &addr in &block.insts {
            let (inst, _) = disasm.at(addr).expect("block member decoded");

            let checkable = inst.memory_access().is_some() && filter(addr, inst);

            if checkable {
                let m = inst.memory_access().expect("checked above");
                let regs_clean = m.regs().all(|r| written & (1 << r.code()) == 0);
                match (&mut current, regs_clean && batching) {
                    (Some(batch), true) => batch.members.push(addr),
                    _ => {
                        if let Some(b) = current.take() {
                            batches.push(b);
                        }
                        current = Some(Batch {
                            anchor: addr,
                            members: vec![addr],
                        });
                        written = 0;
                    }
                }
            }

            // Syscalls can allocate/free heap objects; hoisting a later
            // check across one could consult stale metadata. End the
            // batch (conservative; not required by register reordering
            // alone).
            if inst.op == Op::Syscall {
                if let Some(b) = current.take() {
                    batches.push(b);
                }
                written = 0;
                continue;
            }

            written |= inst.regs_written_mask();
        }
        if let Some(b) = current.take() {
            batches.push(b);
        }
    }
    batches.sort_by_key(|b| b.anchor);
    batches
}

/// Merges a batch's member checks (paper §6, check merging).
///
/// With `merging` disabled each member yields its own check. With it
/// enabled, members sharing `seg:base,index,scale` collapse into a single
/// range check.
pub fn merge_checks(disasm: &Disasm, batch: &Batch, merging: bool) -> Vec<MergedCheck> {
    let mut checks: Vec<MergedCheck> = Vec::new();
    for &addr in &batch.members {
        let (inst, _) = disasm.at(addr).expect("member decoded");
        let mem = inst.memory_access().expect("member is an access");
        let len = inst.access_len().expect("member has a length") as u64;
        let is_write = inst.writes_memory();
        if merging {
            if let Some(existing) = checks.iter_mut().find(|c| c.mem.same_shape(&mem)) {
                let lo = existing.mem.disp.min(mem.disp);
                let hi = (existing.mem.disp + existing.len as i64).max(mem.disp + len as i64);
                existing.mem = existing.mem.with_disp(lo);
                existing.len = (hi - lo) as u64;
                existing.is_write |= is_write;
                existing.sites.push(addr);
                continue;
            }
        }
        checks.push(MergedCheck {
            mem,
            len,
            is_write,
            sites: vec![addr],
        });
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use crate::elim::can_reach_heap;
    use redfat_elf::{Image, ImageKind, SegFlags, Segment};
    use redfat_x86::{Asm, Mem, Reg, Width};

    fn analyze(f: impl FnOnce(&mut Asm)) -> (Disasm, Cfg) {
        let mut a = Asm::new(0x40_0000);
        f(&mut a);
        let p = a.finish().unwrap();
        let img = Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        };
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        (d, cfg)
    }

    fn all(_: u64, i: &Inst) -> bool {
        i.memory_access().is_some_and(|m| can_reach_heap(&m))
    }

    #[test]
    fn example2_batches_into_one() {
        // The paper's Example 2 sequence.
        let (d, cfg) = analyze(|a| {
            a.mov_mr(Width::W64, Mem::base_disp(Reg::Rbx, 8), Reg::R10);
            a.mov_mr(Width::W64, Mem::base(Reg::Rax), Reg::R8);
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rax, 8), 0);
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rax, 0x10), 0);
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, all);
        assert_eq!(batches.len(), 1, "all four accesses share one batch");
        assert_eq!(batches[0].members.len(), 4);
        assert_eq!(batches[0].anchor, 0x40_0000);
    }

    #[test]
    fn example2_merges_rax_accesses() {
        let (d, cfg) = analyze(|a| {
            a.mov_mr(Width::W64, Mem::base_disp(Reg::Rbx, 8), Reg::R10);
            a.mov_mr(Width::W64, Mem::base(Reg::Rax), Reg::R8);
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rax, 8), 0);
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rax, 0x10), 0);
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, all);
        let checks = merge_checks(&d, &batches[0], true);
        assert_eq!(checks.len(), 2, "rbx check + merged rax check");
        let rax = checks
            .iter()
            .find(|c| c.mem.base == Some(Reg::Rax))
            .unwrap();
        // Merged bounds: LB = 0x0(%rax), UB = 0x10+8(%rax).
        assert_eq!(rax.mem.disp, 0);
        assert_eq!(rax.len, 0x18);
        assert_eq!(rax.sites.len(), 3);
    }

    #[test]
    fn no_merging_keeps_members_separate() {
        let (d, cfg) = analyze(|a| {
            a.mov_mi(Width::W64, Mem::base(Reg::Rax), 0);
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rax, 8), 0);
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, all);
        let checks = merge_checks(&d, &batches[0], false);
        assert_eq!(checks.len(), 2);
    }

    #[test]
    fn register_write_breaks_batch() {
        let (d, cfg) = analyze(|a| {
            a.mov_mi(Width::W64, Mem::base(Reg::Rax), 0);
            a.lea(Reg::Rax, Mem::base_disp(Reg::Rax, 8)); // rax changes
            a.mov_mi(Width::W64, Mem::base(Reg::Rax), 0);
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, all);
        assert_eq!(batches.len(), 2, "write to rax splits the batch");
    }

    #[test]
    fn batching_disabled_gives_singletons() {
        let (d, cfg) = analyze(|a| {
            a.mov_mi(Width::W64, Mem::base(Reg::Rax), 0);
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rax, 8), 0);
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, false, all);
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn eliminated_accesses_are_not_members() {
        let (d, cfg) = analyze(|a| {
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rsp, 8), 1); // eliminated
            a.mov_mi(Width::W64, Mem::abs(0x60_0000), 2); // eliminated
            a.mov_mi(Width::W64, Mem::base(Reg::Rax), 3); // kept
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, all);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].members.len(), 1);
    }

    #[test]
    fn write_filter_drops_loads() {
        let (d, cfg) = analyze(|a| {
            a.mov_rm(Width::W64, Reg::Rcx, Mem::base(Reg::Rax)); // load
            a.mov_mr(Width::W64, Mem::base_disp(Reg::Rax, 8), Reg::Rcx); // store
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, |_, i| i.writes_memory());
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].members.len(), 1);
        let checks = merge_checks(&d, &batches[0], true);
        assert!(checks[0].is_write);
    }

    #[test]
    fn syscall_ends_batch() {
        let (d, cfg) = analyze(|a| {
            a.mov_mi(Width::W64, Mem::base(Reg::Rbx), 0);
            a.syscall();
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rbx, 8), 0);
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, all);
        assert_eq!(batches.len(), 2, "syscall is a batch barrier");
    }

    #[test]
    fn branch_target_breaks_batch() {
        // A label between two accesses forces two blocks, hence two
        // batches (over-approximation shrinks batches, never correctness).
        let (d, cfg) = analyze(|a| {
            let l = a.label();
            a.mov_mi(Width::W64, Mem::base(Reg::Rax), 0);
            a.bind(l).unwrap();
            a.mov_mi(Width::W64, Mem::base_disp(Reg::Rax, 8), 0);
            a.jcc_label(redfat_x86::Cond::E, l);
            a.ret();
        });
        let batches = plan_batches(&d, &cfg, true, all);
        assert_eq!(batches.len(), 2);
    }
}
