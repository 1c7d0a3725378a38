//! Linear-sweep disassembly with explicit unknown gaps.
//!
//! Every pass of the pipeline looks instructions up by address, once per
//! instruction, so [`Disasm::at`] is O(1): the instructions sit in one
//! address-ordered table, and a bitmap with one bit per code byte marks
//! where an instruction starts. Each 64-bit bitmap word carries the
//! table index of its first instruction (its *rank*), so an address maps
//! to its table slot with one popcount. That costs about 1.5 bits per
//! code byte, undecodable bytes included.

use redfat_elf::Image;
use redfat_x86::{decode_one, Inst};

/// A gap between instruction starts wider than this many bitmap words
/// (64 bytes each) starts a new indexed run, so unmapped address space
/// between segments costs no bitmap.
const MAX_GAP_WORDS: usize = 64;

/// Disassembly of an image's executable segments.
#[derive(Debug, Clone, Default)]
pub struct Disasm {
    /// Decoded instructions with encoded length, in strictly increasing
    /// address order.
    insts: Vec<(u64, (Inst, u8))>,
    /// Start address and first bitmap word of each indexed run of code,
    /// in address order. A run ends where the next one's words begin.
    runs: Vec<(u64, usize)>,
    /// Bit `k` of word `w` is set iff an instruction starts `64 * (w -
    /// first word) + k` bytes past its run's start address.
    starts: Vec<u64>,
    /// `rank[w]` is the index in `insts` of the first instruction at or
    /// after word `w`'s first byte.
    rank: Vec<u32>,
    /// Byte ranges that failed to decode (`[start, end)`), which the
    /// rewriter must leave untouched.
    pub unknown: Vec<(u64, u64)>,
}

impl Disasm {
    /// Builds the table and its start-bitmap index from instructions in
    /// decode order. Where exec segments overlap, the instruction decoded
    /// *last* at an address wins.
    fn from_decoded(mut insts: Vec<(u64, (Inst, u8))>, unknown: Vec<(u64, u64)>) -> Disasm {
        sort_keep_last(&mut insts);
        insts.shrink_to_fit();
        let mut runs: Vec<(u64, usize)> = Vec::new();
        let mut starts: Vec<u64> = Vec::new();
        let mut rank: Vec<u32> = Vec::new();
        for (i, &(addr, _)) in insts.iter().enumerate() {
            let slot = runs.last().and_then(|&(base, first)| {
                let word = word_index(addr, base, first)?;
                (word < starts.len() + MAX_GAP_WORDS).then_some((base, word))
            });
            let (base, word) = slot.unwrap_or_else(|| {
                runs.push((addr, starts.len()));
                (addr, starts.len())
            });
            // Each table entry takes over 50 bytes, so memory runs out
            // long before the count stops fitting a `u32`.
            let below = u32::try_from(i).expect("fewer than 2^32 instructions");
            while starts.len() <= word {
                starts.push(0);
                rank.push(below);
            }
            starts[word] |= 1 << ((addr - base) % 64);
        }
        Disasm {
            insts,
            runs,
            starts,
            rank,
            unknown,
        }
    }

    /// The index in `insts` of the instruction starting at `addr`.
    fn index_of(&self, addr: u64) -> Option<usize> {
        let run = self.runs.partition_point(|&(base, _)| base <= addr);
        let (base, first) = *self.runs.get(run.checked_sub(1)?)?;
        let end = self.runs.get(run).map_or(self.starts.len(), |&(_, w)| w);
        let word = word_index(addr, base, first)?;
        if word >= end {
            return None;
        }
        let bit = (addr - base) % 64;
        let bits = self.starts[word];
        if bits & (1 << bit) == 0 {
            return None;
        }
        let below = bits & ((1u64 << bit) - 1);
        Some(self.rank[word] as usize + below.count_ones() as usize)
    }

    /// Returns the instruction at exactly `addr`.
    pub fn at(&self, addr: u64) -> Option<&(Inst, u8)> {
        self.index_of(addr).map(|i| &self.insts[i].1)
    }

    /// Returns the instruction whose bytes cover `addr`, with its start
    /// address and length.
    pub fn containing(&self, addr: u64) -> Option<(u64, &Inst, u8)> {
        let i = self
            .insts
            .partition_point(|&(a, _)| a <= addr)
            .checked_sub(1)?;
        let (start, (inst, len)) = &self.insts[i];
        (addr - start < u64::from(*len)).then_some((*start, inst, *len))
    }

    /// Replaces the instruction starting at `addr` with `inst` and
    /// returns the old one, or `None` if no instruction starts there.
    /// The recorded length stays: `inst` must decode from the same
    /// number of bytes, or the table no longer describes the code.
    pub fn replace(&mut self, addr: u64, inst: Inst) -> Option<Inst> {
        let i = self.index_of(addr)?;
        Some(std::mem::replace(&mut self.insts[i].1 .0, inst))
    }

    /// Returns the address of the instruction following `addr`.
    pub fn next_addr(&self, addr: u64) -> Option<u64> {
        let (_, len) = self.at(addr)?;
        Some(addr + *len as u64)
    }

    /// Iterates instructions in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Inst, u8)> {
        self.insts.iter().map(|(a, (i, l))| (*a, i, *l))
    }

    /// Total decoded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if no instructions were decoded.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Sorts `entries` by address and keeps, of those sharing an address, the
/// one that came last -- what inserting them in order into an
/// address-keyed map keeps. Free when `entries` is already strictly
/// ascending, the common case.
pub(crate) fn sort_keep_last<T: Copy>(entries: &mut Vec<(u64, T)>) {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    entries.sort_by_key(|&(addr, _)| addr);
    // `dedup_by` hands over (later, kept): keep the later value.
    entries.dedup_by(|later, kept| {
        let dup = later.0 == kept.0;
        if dup {
            *kept = *later;
        }
        dup
    });
}

/// The bitmap word holding `addr` in a run that starts at address
/// `base` and bitmap word `first` (`addr >= base`).
fn word_index(addr: u64, base: u64, first: usize) -> Option<usize> {
    usize::try_from((addr - base) / 64).ok()?.checked_add(first)
}

/// Disassembles all executable segments of `image`.
///
/// Uses linear sweep with single-byte resynchronization: undecodable
/// bytes are recorded as unknown gaps and skipped one byte at a time.
/// For binaries produced by this workspace's assembler/compiler the
/// unknown set is empty; the mechanism exists so that foreign byte
/// sequences degrade coverage rather than correctness, matching the
/// paper's conservative stance.
pub fn disassemble(image: &Image) -> Disasm {
    // One allocation with room for an instruction per three code bytes
    // (the stand-ins average 3.8-4.8, as compiled x86-64 code does), which
    // `from_decoded` trims, rather than a chain of doublings: kromium's
    // chain copies through heap buffers of up to 14 MB that land wherever
    // earlier frees left room, so the process's peak resident set varied
    // by that much between runs of identical input.
    let code: usize = image.exec_segments().map(|s| s.data.len()).sum();
    let mut insts = Vec::with_capacity(code / 3);
    let mut unknown = Vec::new();
    for seg in image.exec_segments() {
        let mut off = 0usize;
        let mut gap_start: Option<u64> = None;
        while off < seg.data.len() {
            let addr = seg.vaddr + off as u64;
            match decode_one(&seg.data[off..], addr) {
                Ok((inst, len)) => {
                    if let Some(gs) = gap_start.take() {
                        unknown.push((gs, addr));
                    }
                    insts.push((addr, (inst, len)));
                    off += len as usize;
                }
                Err(_) => {
                    if gap_start.is_none() {
                        gap_start = Some(addr);
                    }
                    off += 1;
                }
            }
        }
        if let Some(gs) = gap_start {
            unknown.push((gs, seg.vaddr + seg.data.len() as u64));
        }
    }
    Disasm::from_decoded(insts, unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_elf::{ImageKind, SegFlags, Segment};
    use redfat_x86::{Asm, Reg, Width};

    fn image_with(code: Vec<u8>) -> Image {
        Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![Segment::new(0x40_0000, SegFlags::RX, code)],
            symbols: vec![],
        }
    }

    #[test]
    fn disassembles_clean_code() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(Width::W64, Reg::Rax, 5);
        a.push_r(Reg::Rax);
        a.pop_r(Reg::Rbx);
        a.ret();
        let p = a.finish().unwrap();
        let d = disassemble(&image_with(p.bytes));
        assert_eq!(d.len(), 4);
        assert!(d.unknown.is_empty());
        assert!(d.at(0x40_0000).is_some());
    }

    #[test]
    fn records_unknown_gaps() {
        // nop, SSE junk, nop.
        let code = vec![0x90, 0x0F, 0x28, 0xC1, 0x90];
        let d = disassemble(&image_with(code));
        // The 0x0F 0x28 fails; resync lands on 0x28 0xC1 (sub), then 0x90.
        assert!(!d.unknown.is_empty());
        assert!(d.at(0x40_0000).is_some());
    }

    #[test]
    fn containing_and_replace_address_by_covered_byte() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(Width::W64, Reg::Rax, 5);
        a.ret();
        let p = a.finish().unwrap();
        let mut d = disassemble(&image_with(p.bytes));
        let (mov, len) = *d.at(0x40_0000).unwrap();
        let ret_at = 0x40_0000 + u64::from(len);
        assert_eq!(d.containing(ret_at - 1), Some((0x40_0000, &mov, len)));
        assert_eq!(d.containing(ret_at).map(|(a, _, _)| a), Some(ret_at));
        assert_eq!(d.containing(ret_at + 1), None, "past the last byte");
        assert_eq!(d.containing(0x3F_FFFF), None, "before the first");

        let ret = d.at(ret_at).unwrap().0;
        assert_eq!(d.replace(0x40_0000, ret), Some(mov));
        assert_eq!(d.at(0x40_0000), Some(&(ret, len)), "length stays");
        assert_eq!(
            d.replace(0x40_0001, ret),
            None,
            "no instruction starts there"
        );
    }

    #[test]
    fn skips_data_segments() {
        let img = Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![
                Segment::new(0x40_0000, SegFlags::RX, vec![0xC3]),
                Segment::new(0x60_0000, SegFlags::RW, vec![0x90; 16]),
            ],
            symbols: vec![],
        };
        let d = disassemble(&img);
        assert_eq!(d.len(), 1);
    }
}
