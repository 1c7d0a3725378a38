//! Seeded input generation. The seed drives only what the program is
//! fed: kromium's function order, the stand-in order of the traced
//! run's SPEC sweep, which instructions the daemon's edits flip, and
//! which earlier variant each hit re-submits. The program itself never sees the seed.

use redfat_analysis::{disassemble, Cfg};
use redfat_core::selftest::SplitMix64;
use redfat_elf::Image;
use redfat_workloads::kromium;

/// Independent generator streams per purpose, so adding draws to one
/// input never shifts another.
#[derive(Clone, Copy)]
enum Stream {
    KromiumOrder = 1,
    SpecOrder = 2,
    Edits = 3,
    Ops = 4,
}

fn rng(seed: u64, stream: Stream, index: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let salt = mix.next_u64();
    SplitMix64::new(salt ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The kromium source with its generated `browser_fn_*` functions in a
/// seeded order. The prelude, the Kraken kernels, `startup` and `main`
/// keep their places; only the filler functions, which call nothing but
/// the allocator, move.
pub fn kromium_source(seed: u64) -> String {
    const FILLER: &str = "\nfn browser_fn_";
    const STARTUP: &str = "\nfn startup()";
    let src = kromium::source(kromium::DEFAULT_FILLERS);
    let first = src.find(FILLER).expect("kromium has filler functions");
    let tail = src.find(STARTUP).expect("kromium has a startup function");
    let mut starts: Vec<usize> = src[first..tail]
        .match_indices(FILLER)
        .map(|(i, _)| first + i)
        .collect();
    starts.push(tail);
    let mut fillers: Vec<&str> = starts.windows(2).map(|w| &src[w[0]..w[1]]).collect();
    shuffle(&mut rng(seed, Stream::KromiumOrder, 0), &mut fillers);
    let mut out = String::with_capacity(src.len());
    out.push_str(&src[..first]);
    for f in fillers {
        out.push_str(f);
    }
    out.push_str(&src[tail..]);
    out
}

/// The order in which sweep `sweep` runs `n` stand-ins.
pub fn spec_order(seed: u64, sweep: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut rng(seed, Stream::SpecOrder, sweep), &mut order);
    order
}

/// A one-byte edit: the low bit of the last byte of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// Address of the edited instruction.
    pub inst: u64,
    /// Address of the flipped byte.
    pub byte: u64,
}

impl Edit {
    /// `image` with this edit applied.
    pub fn apply(&self, image: &Image) -> Image {
        let mut out = image.clone();
        let seg = out
            .segments
            .iter_mut()
            .find(|s| s.vaddr <= self.byte && self.byte - s.vaddr < s.data.len() as u64)
            .expect("edited byte lies in a segment");
        seg.data[(self.byte - seg.vaddr) as usize] ^= 1;
        out
    }
}

/// Picks `count` distinct structure-preserving edits of `image`.
///
/// Candidates are instructions inside a recovered block that do not
/// transfer control. A candidate qualifies when its flipped bytes decode
/// once more to the same length, operation, width and operand form: the
/// decode boundaries, block structure, call targets and unknown-entry
/// roots are then unchanged, so exactly one CFG component's content --
/// and so its cache key -- differs from the original.
pub fn pick_edits(image: &Image, seed: u64, count: usize) -> Vec<Edit> {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    let mut candidates: Vec<(u64, u8)> = disasm
        .iter()
        .filter(|(addr, inst, _)| cfg.block_of(*addr).is_some() && !inst.is_control_flow())
        .map(|(addr, _, len)| (addr, len))
        .collect();
    shuffle(&mut rng(seed, Stream::Edits, 0), &mut candidates);
    let mut edits = Vec::with_capacity(count);
    for (addr, len) in candidates {
        if edits.len() == count {
            break;
        }
        let (inst, _) = disasm.at(addr).expect("candidate decoded");
        let mut bytes = image
            .read_bytes(addr, len as usize)
            .expect("decoded bytes are readable")
            .to_vec();
        bytes[len as usize - 1] ^= 1;
        let same = match redfat_x86::decode_one(&bytes, addr) {
            Ok((flipped, flen)) => {
                flen == len
                    && flipped.op == inst.op
                    && flipped.w == inst.w
                    && std::mem::discriminant(&flipped.operands)
                        == std::mem::discriminant(&inst.operands)
            }
            Err(_) => false,
        };
        if same {
            edits.push(Edit {
                inst: addr,
                byte: addr + u64::from(len) - 1,
            });
        }
    }
    assert_eq!(edits.len(), count, "not enough structure-preserving edits");
    edits
}

/// One request of the daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonOp {
    /// Submit edit variant `i` for the first time.
    Edit(usize),
    /// Re-submit edit variant `i`, which an earlier op submitted.
    Hit(usize),
}

/// The daemon's request sequence: `edits` edits in variant order and
/// `hits` hits, interleaved by the seed. The first request is an edit,
/// and each hit re-submits a seeded choice among the variants submitted
/// before it.
pub fn daemon_ops(seed: u64, edits: usize, hits: usize) -> Vec<DaemonOp> {
    assert!(edits > 0, "hits need an earlier edit");
    let mut rng = rng(seed, Stream::Ops, 0);
    let mut is_edit = vec![true; edits - 1];
    is_edit.extend(std::iter::repeat_n(false, hits));
    shuffle(&mut rng, &mut is_edit);
    let mut ops = vec![DaemonOp::Edit(0)];
    let mut submitted = 1;
    for edit in is_edit {
        if edit {
            ops.push(DaemonOp::Edit(submitted));
            submitted += 1;
        } else {
            ops.push(DaemonOp::Hit(rng.below(submitted as u64) as usize));
        }
    }
    ops
}
