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
//! 2. the displaced original instruction(s), re-encoded for their new
//!    location (RIP-relative operands and branch targets keep their
//!    absolute targets), and
//! 3. a jump back to the instruction after the patch site.
//!
//! # Planning and placement
//!
//! A rewrite has two halves. *Planning* builds each [`Trampoline`]'s
//! code where the caller plans its payload: [`select_group`] picks the
//! instructions a patch displaces, and [`Group::emit`] appends them and
//! the jump back after the payload. *Placement*
//! ([`rewrite_with_bases`]) decodes and encodes nothing. It reserves
//! the trampoline segment once, copies each trampoline into it, writes
//! the trampoline's rel32 fields for where it landed, and writes the
//! patch site. A trampoline's bytes do not depend on where it lands but
//! for those fields, which placement writes with the encoder's rel32
//! range check: [`RipField`]s, which reach absolute addresses (the
//! payload's rip-relative operands, the displaced instructions'
//! rip-relative operands and branches, and the jump back), and
//! [`CallField`]s, which reach the segment's cold library. A displaced
//! branch is planned in its rel32 form; every text target is out of
//! rel8 reach from the trampoline area, so its bytes equal those of
//! encoding it where it lands. [`rewrite`] runs both halves for callers
//! that plan nothing themselves.
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

/// A rel32 field of a trampoline that reaches an absolute address: a
/// rip-relative operand of the payload or of a displaced instruction, a
/// displaced branch, or the jump back. Placement writes it so that it
/// reaches `target` from wherever the trampoline lands. Its rel32 counts
/// from `end`, the end of its instruction, which an immediate may
/// separate from the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RipField {
    /// Offset of the field in its trampoline's code.
    pub at: u32,
    /// Offset in its trampoline's code of the end of the field's
    /// instruction.
    pub end: u32,
    /// The absolute address the field reaches.
    pub target: u64,
}

/// The rel32 of a payload's `call` into a routine of the segment's
/// [`Library`]. Placement writes it so that the call reaches the
/// routine's entry; it ends its instruction.
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

/// How a patch site enters its trampoline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tactic {
    /// T-jmp: the displaced group's bytes become a `jmp` to the entry
    /// and NOP padding.
    Jmp,
    /// T-trap: the anchor's first byte becomes `int3`, and a trap-table
    /// entry maps the anchor to the entry. The anchor alone is
    /// displaced.
    Trap,
}

/// What a trampoline displaces from its patch site, as [`Group::emit`]
/// planned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displaced {
    /// Offset in the trampoline's code of the first displaced
    /// instruction: the payload ends here.
    pub at: u32,
    /// Bytes of original code the displaced instructions span from the
    /// anchor.
    pub len: u8,
    /// The number of displaced instructions.
    pub insts: u8,
    /// How the patch site enters the trampoline.
    pub tactic: Tactic,
}

/// One planned trampoline: a payload, the instructions it displaces and
/// the jump back, ready to be copied into place.
#[derive(Debug, Clone, Copy)]
pub struct Trampoline<'a> {
    /// Address of the anchor instruction.
    pub anchor: u64,
    /// The payload's code, then the displaced instructions and, unless
    /// the last of them always transfers control, a `jmp` back to the
    /// instruction after them.
    pub code: &'a [u8],
    /// Offset in `code` of the payload's entry, which the patch-site
    /// `jmp` or trap-table entry targets.
    pub entry: usize,
    /// Where the displaced instructions start and how the site enters.
    pub displaced: Displaced,
    /// The fields that reach absolute addresses, in ascending order.
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
    /// Patch sites skipped because their anchor does not decode -- the
    /// opportunistic-hardening fallback for corrupt or undecodable code.
    /// Counted where the displaced groups are selected; zero on
    /// well-formed inputs.
    pub skipped_sites: usize,
}

/// A rewrite failure.
///
/// Undecodable anchors are *not* an error: they degrade to
/// skip-site-and-record (see [`RewriteStats::skipped_sites`]), matching
/// the paper's opportunistic-hardening model.
#[derive(Debug)]
pub enum RewriteError {
    /// Trampoline assembly failed, or a field is out of its rel32 reach.
    Asm(AsmError),
    /// Patch anchors were not strictly increasing / unique, or a
    /// trampoline's displaced instructions reach the next one's anchor.
    UnorderedPatches(u64),
    /// The code bytes at a patch site could not be written back.
    PatchWrite(u64),
    /// The trampoline for this anchor has its entry, its displaced
    /// instructions or a field outside its code, its fields out of
    /// order, a site length no `jmp` patch can have, or a call to a
    /// routine the library lacks.
    BadPayload(u64),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::Asm(e) => write!(f, "trampoline assembly failed: {e}"),
            RewriteError::UnorderedPatches(a) => {
                write!(f, "patch sites must be sorted and disjoint (at {a:#x})")
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

/// Plans `patches`, which call no library routine, against `disasm` and
/// places them at the default segment bases.
///
/// `disasm` must describe `image` and `leaders` must hold every potential
/// jump target (the recovered CFG's leaders). Patches must be sorted by
/// strictly increasing anchor.
pub fn rewrite(
    image: &Image,
    disasm: &Disasm,
    leaders: &BTreeSet<u64>,
    patches: &[Patch<'_>],
) -> Result<RewriteOutput, RewriteError> {
    plan_and_place(
        image,
        disasm,
        leaders,
        Library::default(),
        patches,
        RewriteBases::default(),
    )
}

/// [`rewrite`] with a library and segment bases.
fn plan_and_place(
    image: &Image,
    disasm: &Disasm,
    leaders: &BTreeSet<u64>,
    library: Library<'_>,
    patches: &[Patch<'_>],
    bases: RewriteBases,
) -> Result<RewriteOutput, RewriteError> {
    for w in patches.windows(2) {
        if w[1].anchor <= w[0].anchor {
            return Err(RewriteError::UnorderedPatches(w[1].anchor));
        }
    }
    let mut asm = Asm::new(0);
    let mut fields: Vec<RipField> = Vec::new();
    let mut planned = Vec::with_capacity(patches.len());
    let mut skipped_sites = 0;
    for (i, patch) in patches.iter().enumerate() {
        let next_anchor = patches.get(i + 1).map(|p| p.anchor);
        let Some(group) = select_group(disasm, leaders, patch.anchor, next_anchor) else {
            skipped_sites += 1;
            continue;
        };
        // Placement checks fields against the whole trampoline, so one
        // that runs past the payload is caught here.
        let len = patch.code.len();
        if patch.rip_fields.iter().any(|f| f.end as usize > len)
            || patch.calls.iter().any(|c| c.at as usize + 4 > len)
        {
            return Err(RewriteError::BadPayload(patch.anchor));
        }
        let (start, first_field) = (asm.here(), fields.len());
        asm.raw(patch.code);
        fields.extend_from_slice(patch.rip_fields);
        let displaced = group.emit(&mut asm, start, &mut fields)?;
        planned.push((
            patch,
            start..asm.here(),
            first_field..fields.len(),
            displaced,
        ));
    }
    let code = asm.take()?;
    let trampolines: Vec<Trampoline> = planned
        .into_iter()
        .map(|(patch, code_at, fields_at, displaced)| Trampoline {
            anchor: patch.anchor,
            code: &code[code_at.start as usize..code_at.end as usize],
            entry: patch.entry,
            displaced,
            rip_fields: &fields[fields_at],
            calls: patch.calls,
        })
        .collect();
    let mut out = rewrite_with_bases(image, library, &trampolines, bases)?;
    out.stats.skipped_sites = skipped_sites;
    Ok(out)
}

/// Places `trampolines`, sorted by anchor with disjoint patch sites,
/// into `image`: the trampoline segment -- the `library` first, then
/// each trampoline with its fields written for where it lands -- and
/// the trap table at the given bases, and each patch site.
pub fn rewrite_with_bases(
    image: &Image,
    library: Library<'_>,
    trampolines: &[Trampoline<'_>],
    bases: RewriteBases,
) -> Result<RewriteOutput, RewriteError> {
    // A site that reached the next anchor would overwrite its patch.
    for w in trampolines.windows(2) {
        let end = w[0]
            .anchor
            .saturating_add(u64::from(w[0].displaced.len.max(1)));
        if w[1].anchor < end {
            return Err(RewriteError::UnorderedPatches(w[1].anchor));
        }
    }
    let mut out = image.clone();
    let mut stats = RewriteStats::default();
    let mut traps: Vec<(u64, u64)> = Vec::new();
    let size = trampolines.iter().map(|t| t.code.len()).sum::<usize>();
    let mut tramp: Vec<u8> = Vec::with_capacity(library.code.len() + size);
    tramp.extend_from_slice(library.code);
    stats.library_bytes = library.code.len();

    for t in trampolines {
        let entry = place(&mut tramp, t, bases.trampoline, &library)?;
        let d = t.displaced;
        match d.tactic {
            Tactic::Jmp => {
                let site = patch_site(t.anchor, entry)?;
                let group = site
                    .get(..usize::from(d.len))
                    .filter(|g| g.len() >= 5)
                    .ok_or(RewriteError::BadPayload(t.anchor))?;
                if !out.write_bytes(t.anchor, group) {
                    return Err(RewriteError::PatchWrite(t.anchor));
                }
                stats.jmp_patches += 1;
            }
            Tactic::Trap => {
                if !out.write_bytes(t.anchor, &[0xCC]) {
                    return Err(RewriteError::PatchWrite(t.anchor));
                }
                traps.push((t.anchor, entry));
                stats.trap_patches += 1;
            }
        }
        stats.displaced += usize::from(d.insts);
        stats.cold_bytes += t.entry;
        stats.hot_bytes += d.at as usize - t.entry;
        stats.displaced_bytes += t.code.len() - d.at as usize;
    }

    stats.trampoline_bytes = tramp.len();
    if !tramp.is_empty() {
        out.segments
            .push(Segment::new(bases.trampoline, SegFlags::RX, tramp));
    }
    if !traps.is_empty() {
        let mut table = Vec::with_capacity(16 + traps.len() * 16);
        table.extend_from_slice(&layout::TRAP_TABLE_MAGIC.to_le_bytes());
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

/// Appends `t`'s code to the trampoline segment `tramp`, which starts at
/// `segment` with the `library` at its head, writes each of its fields
/// for where it landed, and returns the entry's address.
fn place(
    tramp: &mut Vec<u8>,
    t: &Trampoline<'_>,
    segment: u64,
    library: &Library<'_>,
) -> Result<u64, RewriteError> {
    let bad = || RewriteError::BadPayload(t.anchor);
    let displaced = t.displaced.at as usize;
    if t.entry > displaced || displaced > t.code.len() {
        return Err(bad());
    }
    let start = tramp.len();
    let base = segment + start as u64;
    tramp.extend_from_slice(t.code);
    let code = &mut tramp[start..];
    let mut done = 0;
    for f in t.rip_fields {
        let (at, end) = (f.at as usize, f.end as usize);
        if at < done || at + 4 > end || end > code.len() {
            return Err(bad());
        }
        write_rel32(code, at, f.target, base + end as u64)?;
        done = at + 4;
    }
    done = 0;
    for c in t.calls {
        let at = c.at as usize;
        let entry = library
            .entries
            .get(c.routine as usize)
            .filter(|&&e| (e as usize) < library.code.len())
            .ok_or_else(bad)?;
        if at < done || at + 4 > code.len() {
            return Err(bad());
        }
        write_rel32(code, at, segment + u64::from(*entry), base + at as u64 + 4)?;
        done = at + 4;
    }
    Ok(base + t.entry as u64)
}

/// Writes at `code[at..]` the rel32 that reaches `target` from an
/// instruction ending at `end`, or fails when `target` is out of reach.
fn write_rel32(code: &mut [u8], at: usize, target: u64, end: u64) -> Result<(), RewriteError> {
    let rel32 = rip_rel32(target, end).map_err(|e| RewriteError::Asm(AsmError::Encode(e)))?;
    code[at..at + 4].copy_from_slice(&rel32.to_le_bytes());
    Ok(())
}

/// The instructions a patch displaces from its site, decoded, with how
/// the site enters the trampoline ([`select_group`]).
#[derive(Debug, Clone, Copy)]
pub struct Group {
    anchor: u64,
    members: [(Inst, u8); MAX_GROUP],
    n: usize,
    tactic: Tactic,
}

/// Chooses the instructions a patch at `anchor` displaces: a run of at
/// least 5 bytes for a `jmp` patch (T-jmp) when one is safe, else the
/// anchor alone (T-trap). `None` when the anchor does not decode: the
/// site is skipped. `next_anchor` is the next patch's anchor, which no
/// group may take.
pub fn select_group(
    disasm: &Disasm,
    leaders: &BTreeSet<u64>,
    anchor: u64,
    next_anchor: Option<u64>,
) -> Option<Group> {
    let first = *disasm.at(anchor)?;
    let mut group = Group {
        anchor,
        members: [first; MAX_GROUP],
        n: 1,
        tactic: Tactic::Jmp,
    };
    let mut end = anchor + u64::from(first.1);
    while end - anchor < 5 {
        // The next instruction would become patch-interior: it must not
        // be a potential jump target, another patch's anchor, or unknown.
        let interior = disasm
            .at(end)
            .filter(|_| !leaders.contains(&end) && next_anchor != Some(end));
        let Some(&member) = interior else {
            group.n = 1;
            group.tactic = Tactic::Trap;
            break;
        };
        group.members[group.n] = member;
        group.n += 1;
        end += u64::from(member.1);
    }
    Some(group)
}

impl Group {
    /// The displaced instructions, decoded, with their lengths.
    fn members(&self) -> &[(Inst, u8)] {
        &self.members[..self.n]
    }

    /// Appends the displaced instructions to `asm`, after the patch's
    /// payload, and then -- unless the last of them always transfers
    /// control -- a `jmp` back to the instruction after them. Each rel32
    /// that depends on where they land goes to `fields` at its offset
    /// from `start`, the trampoline's first byte in `asm`.
    pub fn emit(
        &self,
        asm: &mut Asm,
        start: u64,
        fields: &mut Vec<RipField>,
    ) -> Result<Displaced, AsmError> {
        let offset = |addr: u64| (addr - start) as u32;
        let at = offset(asm.here());
        let mut resume = self.anchor;
        let members = self.members();
        for &(inst, len) in members {
            let inst_start = asm.here();
            if let Some(reloc) = asm.emit_relocatable(inst)? {
                fields.push(RipField {
                    at: offset(inst_start + reloc.at as u64),
                    end: offset(asm.here()),
                    target: reloc.target,
                });
            }
            resume += u64::from(len);
        }
        if !members
            .last()
            .is_some_and(|(inst, _)| always_transfers(inst))
        {
            asm.raw(&[0xE9, 0, 0, 0, 0]);
            fields.push(RipField {
                at: offset(asm.here() - 4),
                end: offset(asm.here()),
                target: resume,
            });
        }
        Ok(Displaced {
            at,
            len: (resume - self.anchor) as u8,
            insts: self.n as u8,
            tactic: self.tactic,
        })
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
        (
            code,
            [RipField {
                at,
                end: at + 4,
                target,
            }],
        )
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
            let out = plan_and_place(&img, &d, &cfg.leaders, Library::default(), &[patch], bases)
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
        // The payload's field, and with no payload the jump back.
        for patch in [patch, bare(layout::CODE_BASE)] {
            let err =
                plan_and_place(&img, &d, &cfg.leaders, Library::default(), &[patch], far).err();
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
    }

    /// The trampoline segment at `base` as encoding each displaced
    /// instruction and jump back at its final address builds it: the
    /// reference for placement's copy-and-relocate. The `patches` carry
    /// no fields, and the library is empty.
    fn encoded_in_place(
        disasm: &Disasm,
        leaders: &BTreeSet<u64>,
        patches: &[Patch<'_>],
        base: u64,
    ) -> Vec<u8> {
        let mut tramp = Asm::new(base);
        for (i, p) in patches.iter().enumerate() {
            let next = patches.get(i + 1).map(|p| p.anchor);
            let group = select_group(disasm, leaders, p.anchor, next).unwrap();
            tramp.raw(p.code);
            let mut resume = p.anchor;
            for &(inst, len) in group.members() {
                tramp.emit(inst).unwrap();
                resume += u64::from(len);
            }
            if !always_transfers(&group.members().last().unwrap().0) {
                tramp.jmp_abs(resume).unwrap();
            }
        }
        tramp.finish().unwrap().bytes
    }

    #[test]
    fn displaced_instructions_place_as_they_encode_at_their_address() {
        // Five 3-byte stores, each an anchor. The first four displace the
        // instruction after them: a jcc (rel8 in place), a call, a
        // rip-relative load and a rip-relative store whose immediate
        // follows its field. The fifth precedes a jump target and traps.
        let global = layout::GLOBALS_BASE;
        let img = build_image(|a| {
            let (top, join, f) = (a.label(), a.label(), a.label());
            a.bind(top).unwrap();
            a.mov_mr(Width::W64, Mem::base(Reg::Rax), Reg::Rcx);
            a.jcc_label_short(Cond::Ne, top);
            a.mov_mr(Width::W64, Mem::base(Reg::Rbx), Reg::Rcx);
            a.call_label(f);
            a.mov_mr(Width::W64, Mem::base(Reg::Rcx), Reg::Rdx);
            a.mov_rm(Width::W64, Reg::Rax, Mem::rip(global));
            a.mov_mr(Width::W64, Mem::base(Reg::Rsi), Reg::Rdx);
            a.mov_mi(Width::W32, Mem::rip(global + 8), 7);
            a.mov_mr(Width::W64, Mem::base(Reg::Rdi), Reg::Rdx);
            a.bind(join).unwrap();
            a.alu_ri(AluOp::Sub, Width::W64, Reg::Rcx, 1);
            a.jcc_label_short(Cond::Ne, join);
            a.ret();
            a.bind(f).unwrap();
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        let anchors: Vec<u64> = d
            .iter()
            .filter(|(_, i, _)| {
                i.op == Op::Mov && matches!(i.operands, Operands::MR { dst, .. } if !dst.rip)
            })
            .map(|(a, _, _)| a)
            .collect();
        assert_eq!(anchors.len(), 5);
        let (code, entry) = payload(|a| {
            a.ud2();
            let entry = a.here();
            a.nop();
            entry
        });
        let patches: Vec<Patch> = anchors
            .iter()
            .map(|&anchor| Patch {
                anchor,
                code: &code,
                entry,
                rip_fields: &[],
                calls: &[],
            })
            .collect();
        for trampoline in [
            layout::TRAMPOLINE_BASE,
            layout::TRAMPOLINE_BASE + 0x0800_0123,
        ] {
            let bases = RewriteBases {
                trampoline,
                ..RewriteBases::default()
            };
            let out = plan_and_place(&img, &d, &cfg.leaders, Library::default(), &patches, bases)
                .unwrap();
            let s = out.stats;
            assert_eq!((s.jmp_patches, s.trap_patches, s.displaced), (4, 1, 9));
            let placed = &out.image.segment_at(trampoline).unwrap().data;
            assert_eq!(
                *placed,
                encoded_in_place(&d, &cfg.leaders, &patches, trampoline),
                "at {trampoline:#x}"
            );
        }
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
            let out =
                plan_and_place(&img, &d, &cfg.leaders, library, &[patch(&calls)], bases).unwrap();
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
            let err = plan_and_place(
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
        let field = |at| RipField {
            at,
            end: at + 4,
            target: 0,
        };
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

        // Placement rejects a site that reaches the next anchor.
        let displaced = Displaced {
            at: 0,
            len: 7,
            insts: 1,
            tactic: Tactic::Jmp,
        };
        let at = |anchor| Trampoline {
            anchor,
            code: &[],
            entry: 0,
            displaced,
            rip_fields: &[],
            calls: &[],
        };
        let overlapping = [at(layout::CODE_BASE), at(layout::CODE_BASE + 6)];
        let err = rewrite_with_bases(
            &img,
            Library::default(),
            &overlapping,
            RewriteBases::default(),
        );
        assert!(
            matches!(err, Err(RewriteError::UnorderedPatches(a)) if a == layout::CODE_BASE + 6),
            "{:?}",
            err.err()
        );
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
