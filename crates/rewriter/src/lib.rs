//! E9Patch-style static binary rewriting by trampoline (paper §2.2).
//!
//! The rewriter takes an ELF image plus a list of *patches* -- an anchor
//! instruction address and a payload's machine code -- and produces a
//! new image in which each anchor has been replaced by a jump to a
//! trampoline that executes:
//!
//! 1. the payload (e.g. a RedFat check), entered at its entry offset
//!    (code before the entry is cold: reached only through the
//!    payload's own branches),
//! 2. the displaced original instruction(s), re-encoded at their new
//!    location (RIP-relative operands and branch targets are fixed up
//!    automatically because the instruction model stores them as
//!    absolute addresses), and
//! 3. a jump back to the instruction after the patch site.
//!
//! Payloads arrive assembled: the caller builds them where it plans
//! them, and the rewrite assembles no payload code. Their bytes do not
//! depend on where they land, but for two kinds of rel32 field, which
//! placement writes with the encoder's rel32 range check: rip-relative
//! operands ([`RipField`]) and calls into the segment's cold library
//! ([`CallField`]). The placement loop copies each payload, writes its
//! fields, re-encodes the displaced instructions and the jump back, and
//! writes the patch site; those three depend on the trampoline's
//! address, so they are never part of a payload.
//!
//! # The cold library
//!
//! Code that many payloads would otherwise each carry a copy of -- the
//! check's redzone fallback and its error reports -- arrives once, as a
//! [`Library`] of routines. The rewrite places it at the head of the
//! trampoline segment, before the first payload, so every image
//! rewritten at its own [`RewriteBases`] carries its own copy, and a
//! payload reaches a routine with a `call rel32` whose field names the
//! routine, not an address.
//!
//! # Patch tactics
//!
//! A `jmp rel32` needs 5 bytes. Real E9Patch reaches 100% patchability
//! with instruction punning; this reproduction implements a simplified
//! but behavior-complete tactic set:
//!
//! * **T-jmp**: displace a run of consecutive instructions totaling ≥ 5
//!   bytes into the trampoline, provided no interior instruction is a
//!   potential jump target (conservative CFG). The patch site becomes a
//!   `jmp rel32` plus NOP padding.
//! * **T-trap**: when no safe 5-byte run exists, the anchor's first byte
//!   becomes `int3` and an entry is added to an in-binary *trap table*
//!   that the loader registers with the emulator -- the analogue of
//!   E9Patch's signal-based fallback, and priced accordingly by the cost
//!   model.
//!
//! Rewriting never moves a jump target and never changes program-visible
//! behavior of unpatched code; integration tests assert output equality
//! between original and rewritten binaries with empty payloads.

use redfat_analysis::Disasm;
use redfat_elf::{Image, SegFlags, Segment};
use redfat_vm::layout;
use redfat_x86::{rip_rel32, Asm, AsmError, EncodeError, Inst, Op};
use std::collections::BTreeSet;

/// A rip-relative disp32 field of a payload. Placement writes it so
/// that it reaches `target` from wherever the payload lands. The field
/// ends its instruction (no immediate follows it), so its rel32 counts
/// from the field's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RipField {
    /// Offset of the field in its payload's code.
    pub at: u32,
    /// The absolute address the operand names.
    pub target: u64,
}

/// The rel32 of a payload's `call` into a routine of the segment's
/// [`Library`]. Placement writes it so that the call reaches the
/// routine's entry; like a [`RipField`], it ends its instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallField {
    /// Offset of the field in its payload's code.
    pub at: u32,
    /// The routine called: an index into [`Library::entries`].
    pub routine: u32,
}

/// Out-of-line routines the payloads call, placed once at the head of
/// the trampoline segment. Their code does not depend on where it
/// lands: its branches are relative and stay inside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Library<'a> {
    /// The routines' code, back to back.
    pub code: &'a [u8],
    /// `entries[r]` is the offset in `code` of routine `r`'s entry, or
    /// [`NO_ROUTINE`] when the library does not hold routine `r`.
    pub entries: &'a [u32],
}

/// The [`Library::entries`] value of a routine the library lacks.
pub const NO_ROUTINE: u32 = u32::MAX;

/// One requested patch: an anchor and the payload to run before it.
#[derive(Debug, Clone, Copy)]
pub struct Patch<'a> {
    /// Address of the anchor instruction.
    pub anchor: u64,
    /// The payload's machine code. From the entry, the success path
    /// must fall through its end: the displaced instructions follow
    /// immediately.
    pub code: &'a [u8],
    /// Offset in `code` of the payload's entry, which the patch-site
    /// `jmp` or trap-table entry targets. Code before it runs only when
    /// the payload branches to it.
    pub entry: usize,
    /// The payload's rip-relative fields, in ascending order.
    pub rip_fields: &'a [RipField],
    /// The payload's calls into the library, in ascending order.
    pub calls: &'a [CallField],
}

/// Rewrite statistics (reported by the scalability experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Patches applied with the 5-byte jump tactic.
    pub jmp_patches: usize,
    /// Patches that fell back to the `int3` trap tactic.
    pub trap_patches: usize,
    /// Total instructions displaced into trampolines.
    pub displaced: usize,
    /// Bytes of trampoline code emitted: the sum of the four counts
    /// below.
    pub trampoline_bytes: usize,
    /// The cold library at the head of the segment.
    pub library_bytes: usize,
    /// Payload code before each payload's entry (cold: reached only
    /// through the payload's own branches).
    pub cold_bytes: usize,
    /// Payload code from each entry to the end of its payload.
    pub hot_bytes: usize,
    /// Displaced original instructions plus each jump back.
    pub displaced_bytes: usize,
    /// Patch sites skipped because their anchor (or a displaced group
    /// member) does not decode -- the opportunistic-hardening fallback
    /// for corrupt or undecodable code. Zero on well-formed inputs.
    pub skipped_sites: usize,
}

/// A rewrite failure.
///
/// Undecodable anchors are *not* an error: they degrade to
/// skip-site-and-record (see [`RewriteStats::skipped_sites`]), matching
/// the paper's opportunistic-hardening model.
#[derive(Debug)]
pub enum RewriteError {
    /// Trampoline assembly failed.
    Asm(AsmError),
    /// Patch anchors were not strictly increasing / unique.
    UnorderedPatches(u64),
    /// The code bytes at a patch site could not be written back.
    PatchWrite(u64),
    /// The payload for this anchor has its entry or a field outside its
    /// code, its fields out of order, or a call to a routine the
    /// library lacks.
    BadPayload(u64),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::Asm(e) => write!(f, "trampoline assembly failed: {e}"),
            RewriteError::UnorderedPatches(a) => {
                write!(f, "patch anchors must be unique and sorted (at {a:#x})")
            }
            RewriteError::PatchWrite(a) => write!(f, "cannot write patch bytes at {a:#x}"),
            RewriteError::BadPayload(a) => {
                write!(f, "payload for {a:#x} has a misplaced entry or field")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<AsmError> for RewriteError {
    fn from(e: AsmError) -> RewriteError {
        RewriteError::Asm(e)
    }
}

/// The outcome of a rewrite.
pub struct RewriteOutput {
    /// The rewritten image (original segments modified in place, plus a
    /// trampoline segment and, if needed, a trap-table segment).
    pub image: Image,
    /// Statistics.
    pub stats: RewriteStats,
}

/// Magic quadword marking the trap-table segment (shared with the
/// emulator's loader).
pub const TRAP_TABLE_MAGIC: u64 = 0x5041_5254_4642_5244;

/// Where a rewrite places its new segments. The defaults suit a single
/// image at the standard layout; hardening several images into one
/// address space (separately instrumented shared objects, paper §7.4)
/// passes disjoint bases per image.
#[derive(Debug, Clone, Copy)]
pub struct RewriteBases {
    /// First byte of emitted trampoline code.
    pub trampoline: u64,
    /// Base of the `int3` trap-table segment (if any traps are used).
    pub trap_table: u64,
}

impl Default for RewriteBases {
    fn default() -> RewriteBases {
        RewriteBases {
            trampoline: layout::TRAMPOLINE_BASE,
            trap_table: layout::TRAP_TABLE_BASE,
        }
    }
}

/// The most instructions a displaced group holds: each is at least one
/// byte long, and the group ends once it spans the 5-byte `jmp`.
const MAX_GROUP: usize = 5;

/// The longest patch site: four bytes of short instructions, then one of
/// at most 15 bytes.
const MAX_SITE: usize = 4 + 15;

/// Applies `patches`, which call no library routine, to `image` at the
/// default segment bases.
///
/// `disasm` must describe `image` and `leaders` must hold every potential
/// jump target (the recovered CFG's leaders; callers already have both
/// from planning). Patches must be sorted by strictly increasing anchor.
pub fn rewrite(
    image: &Image,
    disasm: &Disasm,
    leaders: &BTreeSet<u64>,
    patches: &[Patch<'_>],
) -> Result<RewriteOutput, RewriteError> {
    rewrite_with_bases(
        image,
        disasm,
        leaders,
        Library::default(),
        patches,
        RewriteBases::default(),
    )
}

/// Applies `patches` to `image`, placing the trampoline segment -- the
/// `library` first, then the payloads -- and the trap table at the given
/// bases.
pub fn rewrite_with_bases(
    image: &Image,
    disasm: &Disasm,
    leaders: &BTreeSet<u64>,
    library: Library<'_>,
    patches: &[Patch<'_>],
    bases: RewriteBases,
) -> Result<RewriteOutput, RewriteError> {
    let mut out = image.clone();
    let mut stats = RewriteStats::default();
    let mut tramp = Asm::new(bases.trampoline);
    let mut traps: Vec<(u64, u64)> = Vec::new();
    tramp.raw(library.code);
    stats.library_bytes = library.code.len();

    // Validate ordering.
    for w in patches.windows(2) {
        if w[1].anchor <= w[0].anchor {
            return Err(RewriteError::UnorderedPatches(w[1].anchor));
        }
    }

    for (i, patch) in patches.iter().enumerate() {
        let anchor = patch.anchor;
        let next_anchor = patches.get(i + 1).map(|p| p.anchor);
        // Opportunistic degradation: an anchor that does not decode
        // (possible only for corrupt or adversarial code bytes) cannot
        // be patched. The site is skipped and recorded instead of
        // failing the whole rewrite.
        let Some(&(anchor_inst, anchor_len)) = disasm.at(anchor) else {
            stats.skipped_sites += 1;
            continue;
        };

        // Select the displaced group *before* placing any trampoline
        // bytes, so a member that fails to decode degrades to a clean
        // skip rather than leaving a half-built trampoline.
        let group = select_group(disasm, leaders, anchor, next_anchor);

        let entry = place(&mut tramp, patch, bases.trampoline, &library)?;
        let payload_end = tramp.here();
        stats.cold_bytes += patch.entry;
        stats.hot_bytes += patch.code.len() - patch.entry;

        match group {
            Some((members, n)) => {
                // T-jmp: re-encode displaced instructions in the
                // trampoline, then jump back.
                let mut group_len = 0usize;
                let mut terminal = false;
                for &(inst, len) in &members[..n] {
                    group_len += len as usize;
                    tramp.emit(inst)?;
                    stats.displaced += 1;
                    terminal = always_transfers(&inst);
                }
                let resume = anchor + group_len as u64;
                if !terminal {
                    tramp.jmp_abs(resume)?;
                }
                let site = patch_site(anchor, entry)?;
                if !out.write_bytes(anchor, &site[..group_len]) {
                    return Err(RewriteError::PatchWrite(anchor));
                }
                stats.jmp_patches += 1;
            }
            None => {
                // T-trap: int3 at the anchor's first byte; the displaced
                // instruction is just the anchor.
                tramp.emit(anchor_inst)?;
                stats.displaced += 1;
                if !always_transfers(&anchor_inst) {
                    tramp.jmp_abs(anchor + anchor_len as u64)?;
                }
                if !out.write_bytes(anchor, &[0xCC]) {
                    return Err(RewriteError::PatchWrite(anchor));
                }
                traps.push((anchor, entry));
                stats.trap_patches += 1;
            }
        }
        stats.displaced_bytes += (tramp.here() - payload_end) as usize;
    }

    let tramp_prog = tramp.finish()?;
    stats.trampoline_bytes = tramp_prog.bytes.len();
    if !tramp_prog.bytes.is_empty() {
        out.segments.push(Segment::new(
            tramp_prog.base,
            SegFlags::RX,
            tramp_prog.bytes,
        ));
    }
    if !traps.is_empty() {
        let mut table = Vec::with_capacity(16 + traps.len() * 16);
        table.extend_from_slice(&TRAP_TABLE_MAGIC.to_le_bytes());
        table.extend_from_slice(&(traps.len() as u64).to_le_bytes());
        for (a, t) in traps {
            table.extend_from_slice(&a.to_le_bytes());
            table.extend_from_slice(&t.to_le_bytes());
        }
        out.segments
            .push(Segment::new(bases.trap_table, SegFlags::R, table));
    }

    Ok(RewriteOutput { image: out, stats })
}

/// Appends `patch`'s payload to the trampoline, each field written for
/// where it lands -- a call field to reach its routine in `library`,
/// placed at `library_base` -- and returns the payload's entry address.
fn place(
    tramp: &mut Asm,
    patch: &Patch<'_>,
    library_base: u64,
    library: &Library<'_>,
) -> Result<u64, RewriteError> {
    let bad = || RewriteError::BadPayload(patch.anchor);
    let base = tramp.here();
    if patch.entry > patch.code.len() {
        return Err(bad());
    }
    let mut rips = patch.rip_fields.iter().peekable();
    let mut calls = patch.calls.iter().peekable();
    let mut done = 0;
    loop {
        // The next field in code order, and the address it reaches.
        let (at, target) =
            if let Some(r) = rips.next_if(|r| calls.peek().is_none_or(|c| r.at < c.at)) {
                (r.at, r.target)
            } else if let Some(c) = calls.next() {
                let entry = library
                    .entries
                    .get(c.routine as usize)
                    .filter(|&&e| (e as usize) < library.code.len())
                    .ok_or_else(bad)?;
                (c.at, library_base + u64::from(*entry))
            } else {
                break;
            };
        let at = at as usize;
        tramp.raw(patch.code.get(done..at).ok_or_else(bad)?);
        if at + 4 > patch.code.len() {
            return Err(bad());
        }
        let rel32 = rip_rel32(target, base + at as u64 + 4)
            .map_err(|e| RewriteError::Asm(AsmError::Encode(e)))?;
        tramp.raw(&rel32.to_le_bytes());
        done = at + 4;
    }
    tramp.raw(&patch.code[done..]);
    Ok(base + patch.entry as u64)
}

/// Chooses the run of instructions to displace for a 5-byte jump patch,
/// decoded, with its length, or `None` if the trap tactic must be used.
fn select_group(
    disasm: &Disasm,
    leaders: &BTreeSet<u64>,
    anchor: u64,
    next_anchor: Option<u64>,
) -> Option<([(Inst, u8); MAX_GROUP], usize)> {
    let mut members = [*disasm.at(anchor)?; MAX_GROUP];
    let mut n = 0;
    let mut total = 0u64;
    let mut addr = anchor;
    loop {
        let member = *disasm.at(addr)?;
        members[n] = member;
        n += 1;
        total += member.1 as u64;
        if total >= 5 {
            return Some((members, n));
        }
        let next = addr + member.1 as u64;
        // The next instruction would become patch-interior: it must not
        // be a potential jump target, another patch's anchor, or unknown.
        if leaders.contains(&next) || next_anchor == Some(next) || disasm.at(next).is_none() {
            return None;
        }
        addr = next;
    }
}

/// The bytes of a jump patch site at `anchor`: a `jmp` to `entry` --
/// rel8 if the trampoline is unusually close, else rel32 -- then NOP
/// padding to the end of the longest group.
fn patch_site(anchor: u64, entry: u64) -> Result<[u8; MAX_SITE], RewriteError> {
    let mut site = [0x90; MAX_SITE];
    let rel = entry.wrapping_sub(anchor) as i64;
    if let Ok(rel8) = i8::try_from(rel.saturating_sub(2)) {
        site[..2].copy_from_slice(&[0xEB, rel8 as u8]);
    } else {
        let rel32 = i32::try_from(rel.saturating_sub(5)).map_err(|_| {
            RewriteError::Asm(AsmError::Encode(EncodeError::OutOfRange("branch rel32")))
        })?;
        site[0] = 0xE9;
        site[1..5].copy_from_slice(&rel32.to_le_bytes());
    }
    Ok(site)
}

/// Returns `true` if the instruction unconditionally transfers control
/// (so the trampoline's jump-back would be unreachable).
fn always_transfers(inst: &Inst) -> bool {
    matches!(inst.op, Op::Jmp | Op::JmpInd | Op::Ret | Op::Ud2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_analysis::{disassemble, Cfg};
    use redfat_elf::{Image, ImageKind, SegFlags, Segment};
    use redfat_x86::{AluOp, Asm, Cond, Mem, Operands, Reg, Width};

    fn build_image(f: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new(layout::CODE_BASE);
        f(&mut a);
        let p = a.finish().unwrap();
        Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        }
    }

    /// A patch with an empty payload.
    fn bare(anchor: u64) -> Patch<'static> {
        Patch {
            anchor,
            code: &[],
            entry: 0,
            rip_fields: &[],
            calls: &[],
        }
    }

    /// A payload assembled by `f` at base 0, with the entry `f` returns.
    fn payload(f: impl FnOnce(&mut Asm) -> u64) -> (Vec<u8>, usize) {
        let mut a = Asm::new(0);
        let entry = f(&mut a);
        (a.finish().unwrap().bytes, entry as usize)
    }

    #[test]
    fn patches_long_instruction_with_jmp() {
        // mov $1, %rax is 7 bytes: direct jmp tactic.
        let img = build_image(|a| {
            a.mov_ri(Width::W64, Reg::Rax, 1);
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let out = rewrite(&img, &d, &cfg.leaders, &[bare(layout::CODE_BASE)]).unwrap();
        assert_eq!(out.stats.jmp_patches, 1);
        assert_eq!(out.stats.trap_patches, 0);
        // Site now starts with E9 (jmp rel32).
        assert_eq!(out.image.read_bytes(layout::CODE_BASE, 1).unwrap()[0], 0xE9);
        // A trampoline segment exists.
        assert!(out.image.segment_at(layout::TRAMPOLINE_BASE).is_some());
    }

    #[test]
    fn short_instruction_displaces_group() {
        // push (1 byte) followed by a 7-byte mov: group of 2.
        let img = build_image(|a| {
            a.push_r(Reg::Rax); // 1 byte
            a.mov_ri(Width::W64, Reg::Rbx, 2); // 7 bytes
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let out = rewrite(&img, &d, &cfg.leaders, &[bare(layout::CODE_BASE)]).unwrap();
        assert_eq!(out.stats.jmp_patches, 1);
        assert_eq!(out.stats.displaced, 2);
    }

    #[test]
    fn leader_blocks_group_forcing_trap() {
        // A 3-byte store whose next instruction is a jump target: cannot
        // displace a 5-byte group, must trap.
        let img = build_image(|a| {
            let l = a.label();
            a.mov_mr(Width::W64, Mem::base(Reg::Rax), Reg::Rcx); // 3 bytes
            a.bind(l).unwrap();
            a.alu_ri(AluOp::Sub, Width::W64, Reg::Rcx, 1);
            a.jcc_label(Cond::Ne, l);
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let out = rewrite(&img, &d, &cfg.leaders, &[bare(layout::CODE_BASE)]).unwrap();
        assert_eq!(out.stats.trap_patches, 1);
        assert_eq!(out.image.read_bytes(layout::CODE_BASE, 1).unwrap()[0], 0xCC);
        // Trap table segment emitted with one entry.
        let seg = out.image.segment_at(layout::TRAP_TABLE_BASE).unwrap();
        let count = u64::from_le_bytes(seg.data[8..16].try_into().unwrap());
        assert_eq!(count, 1);
    }

    #[test]
    fn adjacent_patches_do_not_overlap() {
        // Two 3-byte stores back to back, both patched: the first cannot
        // take the second (the second is its own anchor), so it traps;
        // the second extends into the following mov.
        let img = build_image(|a| {
            a.mov_mr(Width::W64, Mem::base(Reg::Rax), Reg::Rcx);
            a.mov_mr(Width::W64, Mem::base(Reg::Rbx), Reg::Rdx);
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let a2 = d.next_addr(layout::CODE_BASE).unwrap();
        let out = rewrite(&img, &d, &cfg.leaders, &[bare(layout::CODE_BASE), bare(a2)]).unwrap();
        assert_eq!(out.stats.trap_patches, 1);
        assert_eq!(out.stats.jmp_patches, 1);
    }

    #[test]
    fn rip_relative_operand_survives_displacement() {
        // A rip-relative instruction moved into a trampoline keeps its
        // *absolute* target: the encoder recomputes the rel32 for the new
        // address. A stale displacement would silently read/compute a
        // different address after relocation.
        let target = 0x1234_5678u64;
        let img = build_image(|a| {
            a.lea(Reg::Rdi, redfat_x86::Mem::rip(target)); // 7 bytes: jmp tactic
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.syscall(); // exit(rdi)
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let out = rewrite(&img, &d, &cfg.leaders, &[bare(layout::CODE_BASE)]).unwrap();
        assert_eq!(out.stats.jmp_patches, 1);

        // The displaced copy decodes back to the same absolute target.
        let tramp = out.image.segment_at(layout::TRAMPOLINE_BASE).unwrap();
        let insts = redfat_x86::decode_all(&tramp.data, layout::TRAMPOLINE_BASE);
        let lea = insts
            .iter()
            .find_map(|(_, i, _)| match (i.op, &i.operands) {
                (redfat_x86::Op::Lea, redfat_x86::Operands::RM { src, .. }) => Some(*src),
                _ => None,
            })
            .expect("displaced lea present in trampoline");
        assert!(lea.rip);
        assert_eq!(lea.disp as u64, target);

        // Both images compute the same address at runtime.
        use redfat_emu::{Emu, ErrorMode, HostRuntime};
        let base = Emu::load_image(&img, HostRuntime::new(ErrorMode::Log))
            .expect("loads")
            .run(10_000);
        let hard = Emu::load_image(&out.image, HostRuntime::new(ErrorMode::Log))
            .expect("loads")
            .run(10_000);
        assert_eq!(base.expect_exit(), target as i64);
        assert_eq!(hard.expect_exit(), target as i64);
    }

    #[test]
    fn patches_target_the_payload_entry_not_its_cold_code() {
        // Each payload emits two `ud2`s before its entry, standing in
        // for out-of-line code it reaches only through its own branches.
        // The first anchor takes a jmp patch, the second traps (its
        // successor is a jump target); both must enter past the `ud2`s.
        let img = build_image(|a| {
            let next = a.label();
            a.mov_ri(Width::W64, Reg::Rdi, 0); // 7 bytes: T-jmp
            a.test_rr(Width::W64, Reg::Rdi, Reg::Rdi);
            a.jcc_label(Cond::Ne, next); // never taken; makes `next` a leader
            a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 42); // 4 bytes: T-trap
            a.bind(next).unwrap();
            a.mov_ri(Width::W64, Reg::Rax, redfat_emu::syscalls::EXIT as i64);
            a.syscall(); // exit(rdi)
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let trap_anchor = d
            .iter()
            .find(|(_, i, _)| i.op == Op::Alu(AluOp::Add))
            .unwrap()
            .0;
        let (code, entry) = payload(|a| {
            a.ud2();
            a.ud2();
            a.here()
        });
        let cold_then_entry = |anchor| Patch {
            anchor,
            code: &code,
            entry,
            rip_fields: &[],
            calls: &[],
        };
        let out = rewrite(
            &img,
            &d,
            &cfg.leaders,
            &[
                cold_then_entry(layout::CODE_BASE),
                cold_then_entry(trap_anchor),
            ],
        )
        .unwrap();
        assert_eq!(out.stats.jmp_patches, 1);
        assert_eq!(out.stats.trap_patches, 1);
        // Each entry follows its payload's two `ud2`s; the second
        // payload follows the first, the displaced `mov` and the jump
        // back.
        let entries = [
            layout::TRAMPOLINE_BASE + 4,
            layout::TRAMPOLINE_BASE + 4 + 7 + 5 + 4,
        ];

        let site = out.image.read_bytes(layout::CODE_BASE, 16).unwrap();
        let (jmp, _) = redfat_x86::decode_one(site, layout::CODE_BASE).unwrap();
        assert_eq!(jmp.branch_target(), Some(entries[0]));
        let table = out.image.segment_at(layout::TRAP_TABLE_BASE).unwrap();
        let entry = |at: usize| u64::from_le_bytes(table.data[at..at + 8].try_into().unwrap());
        assert_eq!((entry(16), entry(24)), (trap_anchor, entries[1]));

        use redfat_emu::{Emu, ErrorMode, HostRuntime, RunResult};
        let run = Emu::load_image(&out.image, HostRuntime::new(ErrorMode::Abort))
            .expect("loads")
            .run(10_000);
        assert_eq!(run, RunResult::Exited(42));
    }

    #[test]
    fn byte_breakdown_sums_to_trampoline_bytes() {
        // Each payload: two cold `ud2`s, then one hot `nop` from its
        // entry. A 7-byte `mov` takes a jmp patch, a 4-byte `add` traps,
        // and an undecodable anchor is skipped and emits nothing.
        let img = build_image(|a| {
            let next = a.label();
            a.mov_ri(Width::W64, Reg::Rdi, 0); // 7 bytes: T-jmp
            a.test_rr(Width::W64, Reg::Rdi, Reg::Rdi);
            a.jcc_label(Cond::Ne, next);
            a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 42); // 4 bytes: T-trap
            a.bind(next).unwrap();
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let trap_anchor = d
            .iter()
            .find(|(_, i, _)| i.op == Op::Alu(AluOp::Add))
            .unwrap()
            .0;
        let (code, entry) = payload(|a| {
            a.ud2();
            a.ud2();
            let entry = a.here();
            a.nop();
            entry
        });
        let patches: Vec<Patch> = [0x12345, layout::CODE_BASE, trap_anchor]
            .into_iter()
            .map(|anchor| Patch {
                anchor,
                code: &code,
                entry,
                rip_fields: &[],
                calls: &[],
            })
            .collect();
        let s = rewrite(&img, &d, &cfg.leaders, &patches).unwrap().stats;
        assert_eq!((s.jmp_patches, s.trap_patches, s.skipped_sites), (1, 1, 1));
        assert_eq!((s.cold_bytes, s.hot_bytes), (2 * 4, 2));
        // Each displaced instruction and its 5-byte jump back.
        assert_eq!(s.displaced_bytes, (7 + 5) + (4 + 5));
        assert_eq!(
            s.cold_bytes + s.hot_bytes + s.displaced_bytes,
            s.trampoline_bytes
        );
    }

    /// An image that exits with the value of `rdi`, set by nothing but
    /// a payload: its first instruction (7 bytes) takes a jmp patch.
    fn exit_rdi_image() -> Image {
        build_image(|a| {
            a.mov_ri(Width::W64, Reg::Rax, redfat_emu::syscalls::EXIT as i64);
            a.syscall();
        })
    }

    /// A payload whose entry is a rip-relative `lea` of `target` into
    /// `rdi`, assembled with a placeholder field, and that field.
    fn lea_rdi_payload(target: u64) -> (Vec<u8>, [RipField; 1]) {
        let (code, _) = payload(|a| {
            a.lea(Reg::Rdi, Mem::rip(a.here()));
            0
        });
        let at = code.len() as u32 - 4;
        (code, [RipField { at, target }])
    }

    #[test]
    fn rip_fields_reach_their_target_wherever_the_payload_lands() {
        use redfat_emu::{Emu, ErrorMode, HostRuntime};
        let img = exit_rdi_image();
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let target = layout::GLOBALS_BASE + 0x18;
        let (code, fields) = lea_rdi_payload(target);
        let patch = Patch {
            anchor: layout::CODE_BASE,
            code: &code,
            entry: 0,
            rip_fields: &fields,
            calls: &[],
        };
        for trampoline in [
            layout::TRAMPOLINE_BASE,
            layout::TRAMPOLINE_BASE + 0x0800_0123,
        ] {
            let bases = RewriteBases {
                trampoline,
                ..RewriteBases::default()
            };
            let out =
                rewrite_with_bases(&img, &d, &cfg.leaders, Library::default(), &[patch], bases)
                    .unwrap();
            let tramp = out.image.segment_at(trampoline).unwrap();
            let (lea, _) = redfat_x86::decode_one(&tramp.data, trampoline).unwrap();
            assert_eq!(lea.op, Op::Lea);
            assert_eq!(
                lea.operands,
                Operands::RM {
                    dst: Reg::Rdi,
                    src: Mem::rip(target)
                },
                "at {trampoline:#x}"
            );
            let run = Emu::load_image(&out.image, HostRuntime::new(ErrorMode::Abort))
                .expect("loads")
                .run(10_000);
            assert_eq!(run.expect_exit(), target as i64, "at {trampoline:#x}");
        }
    }

    #[test]
    fn a_rip_field_out_of_reach_fails_the_rewrite() {
        let img = exit_rdi_image();
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let (code, fields) = lea_rdi_payload(layout::GLOBALS_BASE);
        let patch = Patch {
            anchor: layout::CODE_BASE,
            code: &code,
            entry: 0,
            rip_fields: &fields,
            calls: &[],
        };
        let far = RewriteBases {
            trampoline: layout::GLOBALS_BASE + (1 << 31),
            ..RewriteBases::default()
        };
        let err =
            rewrite_with_bases(&img, &d, &cfg.leaders, Library::default(), &[patch], far).err();
        assert!(
            matches!(
                err,
                Some(RewriteError::Asm(AsmError::Encode(
                    redfat_x86::EncodeError::OutOfRange("rip rel32")
                )))
            ),
            "{err:?}"
        );
    }

    #[test]
    fn call_fields_reach_their_routine_wherever_the_payload_lands() {
        use redfat_emu::{Emu, ErrorMode, HostRuntime};
        let img = exit_rdi_image();
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        // Routine 0 traps, routine 1 sets the exit code; the payload
        // calls routine 1 through a placeholder rel32.
        let (library, _) = payload(|a| {
            a.ud2();
            a.mov_ri(Width::W32, Reg::Rdi, 42);
            a.ret();
            0
        });
        let entries = [0, 2];
        fn patch(calls: &[CallField]) -> Patch<'_> {
            Patch {
                anchor: layout::CODE_BASE,
                code: &[0xE8, 0, 0, 0, 0],
                entry: 0,
                rip_fields: &[],
                calls,
            }
        }
        let calls = [CallField { at: 1, routine: 1 }];
        for trampoline in [layout::TRAMPOLINE_BASE, layout::TRAMPOLINE_BASE + 0x123] {
            let bases = RewriteBases {
                trampoline,
                ..RewriteBases::default()
            };
            let library = Library {
                code: &library,
                entries: &entries,
            };
            let out = rewrite_with_bases(&img, &d, &cfg.leaders, library, &[patch(&calls)], bases)
                .unwrap();
            let s = out.stats;
            assert_eq!(s.library_bytes, library.code.len());
            assert_eq!(
                s.library_bytes + s.cold_bytes + s.hot_bytes + s.displaced_bytes,
                s.trampoline_bytes
            );
            let run = Emu::load_image(&out.image, HostRuntime::new(ErrorMode::Abort))
                .expect("loads")
                .run(10_000);
            assert_eq!(run.expect_exit(), 42, "at {trampoline:#x}");
        }

        // A call to a routine the library lacks, or past its entries.
        let lacking = [0, NO_ROUTINE];
        for (entries, routine) in [(&entries[..], 2), (&lacking[..], 1)] {
            let library = Library {
                code: &library,
                entries,
            };
            let calls = [CallField { at: 1, routine }];
            let err = rewrite_with_bases(
                &img,
                &d,
                &cfg.leaders,
                library,
                &[patch(&calls)],
                RewriteBases::default(),
            )
            .err();
            assert!(
                matches!(err, Some(RewriteError::BadPayload(layout::CODE_BASE))),
                "routine {routine} of {entries:?}: {err:?}"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let img = exit_rdi_image();
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let code = [0x90u8; 8];
        let field = |at| RipField { at, target: 0 };
        let cases: [(usize, &[RipField]); 4] = [
            (9, &[]),
            (0, &[field(5)]),
            (0, &[field(4), field(2)]),
            (0, &[field(0), field(2)]),
        ];
        for (entry, rip_fields) in cases {
            let patch = Patch {
                anchor: layout::CODE_BASE,
                code: &code,
                entry,
                rip_fields,
                calls: &[],
            };
            let err = rewrite(&img, &d, &cfg.leaders, &[patch]).err();
            assert!(
                matches!(err, Some(RewriteError::BadPayload(layout::CODE_BASE))),
                "entry {entry}, {rip_fields:?}: {err:?}"
            );
        }
    }

    #[test]
    fn unsorted_patches_rejected() {
        let img = build_image(|a| {
            a.mov_ri(Width::W64, Reg::Rax, 1);
            a.mov_ri(Width::W64, Reg::Rbx, 2);
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let a2 = d.next_addr(layout::CODE_BASE).unwrap();
        let err = rewrite(&img, &d, &cfg.leaders, &[bare(a2), bare(layout::CODE_BASE)]);
        assert!(matches!(err, Err(RewriteError::UnorderedPatches(_))));
    }

    #[test]
    fn bad_anchor_skipped_and_recorded() {
        // An anchor that does not decode degrades to skip-and-record:
        // the rewrite succeeds, the site is counted, and the image is
        // byte-identical to the input (no patch, no trampoline).
        let img = build_image(|a| a.ret());
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let out = rewrite(&img, &d, &cfg.leaders, &[bare(0x12345)]).unwrap();
        assert_eq!(out.stats.skipped_sites, 1);
        assert_eq!(out.stats.jmp_patches, 0);
        assert_eq!(out.stats.trap_patches, 0);
        assert_eq!(out.image, img);
    }
}
