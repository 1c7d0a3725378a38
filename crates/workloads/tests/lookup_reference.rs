//! Reference checks for the harden pipeline's indexed lookups, over every
//! SPEC stand-in and hand-built images that stress the corner cases:
//!
//! 1. `Disasm`'s instruction table and start-bitmap index answer every
//!    lookup exactly as an address-keyed `BTreeMap` filled by a plain
//!    linear sweep does -- including overlapping exec segments, where
//!    the later segment's instruction wins a shared address.
//! 2. Block-summary `Liveness` reports, before every instruction, what a
//!    per-instruction backward iteration to the least fixpoint reports.

use redfat_analysis::{disassemble, Cfg, Disasm, Liveness};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_workloads::spec;
use redfat_x86::{decode_one, AluOp, Asm, Inst, Op, Reg, Width};
use std::collections::{BTreeMap, HashMap};

/// Instructions keyed by address, with encoded length.
type InstMap = BTreeMap<u64, (Inst, u8)>;

/// The reference sweep: instructions inserted into an address-keyed map
/// in decode order, so a later segment replaces an earlier one at a
/// shared address. Returns the map and the unknown gaps.
fn reference_disasm(image: &Image) -> (InstMap, Vec<(u64, u64)>) {
    let mut insts = BTreeMap::new();
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
                    insts.insert(addr, (inst, len));
                    off += len as usize;
                }
                Err(_) => {
                    gap_start.get_or_insert(addr);
                    off += 1;
                }
            }
        }
        if let Some(gs) = gap_start {
            unknown.push((gs, seg.vaddr + seg.data.len() as u64));
        }
    }
    (insts, unknown)
}

fn assert_disasm_matches(name: &str, image: &Image) {
    let d = disassemble(image);
    let (insts, unknown) = reference_disasm(image);
    assert_eq!(d.len(), insts.len(), "{name}: len");
    assert_eq!(d.is_empty(), insts.is_empty(), "{name}: is_empty");
    assert_eq!(d.unknown, unknown, "{name}: unknown gaps");
    let got: Vec<(u64, Inst, u8)> = d.iter().map(|(a, i, l)| (a, *i, l)).collect();
    let want: Vec<(u64, Inst, u8)> = insts.iter().map(|(&a, &(i, l))| (a, i, l)).collect();
    assert_eq!(got, want, "{name}: iter");
    // Every byte of every exec segment, plus margins past both ends.
    for seg in image.exec_segments() {
        let lo = seg.vaddr.saturating_sub(200);
        let hi = seg.vaddr + seg.data.len() as u64 + 200;
        for addr in lo..hi {
            assert_eq!(d.at(addr), insts.get(&addr), "{name}: at({addr:#x})");
            let next = insts.get(&addr).map(|&(_, len)| addr + len as u64);
            assert_eq!(d.next_addr(addr), next, "{name}: next_addr({addr:#x})");
        }
    }
}

/// `[nop x 16]` at 0x40_0000 and `mov $imm32, %eax; ret` at 0x40_0004:
/// the two sweeps decode different instructions at 0x40_0004 and
/// 0x40_0009, and only the first decodes 0x40_0005..0x40_0009.
fn overlapping(nops_first: bool) -> Image {
    let nops = Segment::new(0x40_0000, SegFlags::RX, vec![0x90; 16]);
    let mut a = Asm::new(0x40_0004);
    a.mov_ri(Width::W32, Reg::Rax, 0x1234_5678);
    a.ret();
    let mov = Segment::new(0x40_0004, SegFlags::RX, a.finish().unwrap().bytes);
    Image {
        kind: ImageKind::Exec,
        entry: 0x40_0000,
        segments: if nops_first {
            vec![nops, mov]
        } else {
            vec![mov, nops]
        },
        symbols: vec![],
    }
}

/// `mov $imm32, %eax; jmp 0x40_0002; ret` at 0x40_0000, and `add $1,
/// %eax` at 0x40_0002, inside the mov's immediate, in a later segment.
/// The jump makes 0x40_0002 a leader, so the blocks starting at
/// 0x40_0000 and 0x40_0002 both end in the `jmp` at 0x40_0005.
fn overlapping_blocks() -> Image {
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(Width::W32, Reg::Rax, 0x1234_5678);
    a.jmp_abs(0x40_0002).unwrap();
    a.ret();
    let mut b = Asm::new(0x40_0002);
    b.alu_ri(AluOp::Add, Width::W32, Reg::Rax, 1);
    Image {
        kind: ImageKind::Exec,
        entry: 0x40_0000,
        segments: vec![
            Segment::new(0x40_0000, SegFlags::RX, a.finish().unwrap().bytes),
            Segment::new(0x40_0002, SegFlags::RX, b.finish().unwrap().bytes),
        ],
        symbols: vec![],
    }
}

/// Code with an undecodable stretch wider than one bitmap run, a data
/// segment, and a second exec segment far away.
fn gapped() -> Image {
    let mut code = vec![0x90];
    code.extend(std::iter::repeat_n(0x66, 5000)); // a lone prefix never decodes
    code.extend([0x90, 0xC3]);
    Image {
        kind: ImageKind::Exec,
        entry: 0x40_0000,
        segments: vec![
            Segment::new(0x40_0000, SegFlags::RX, code),
            Segment::new(0x60_0000, SegFlags::RW, vec![0x90; 64]),
            Segment::new(0x80_0000, SegFlags::RX, vec![0x90, 0x90, 0xC3]),
        ],
        symbols: vec![],
    }
}

fn hand_built() -> Vec<(&'static str, Image)> {
    vec![
        ("overlap-nops-first", overlapping(true)),
        ("overlap-mov-first", overlapping(false)),
        ("overlapping-blocks", overlapping_blocks()),
        ("gapped", gapped()),
    ]
}

#[test]
fn disasm_lookups_match_btreemap_reference() {
    for wl in spec::all() {
        assert_disasm_matches(wl.name, &wl.image());
    }
    for (name, image) in hand_built() {
        assert_disasm_matches(name, &image);
    }

    // The later exec segment wins a shared address; an address only the
    // earlier one decoded stays visible.
    let d = disassemble(&overlapping(true));
    assert_eq!(d.at(0x40_0004).unwrap().0.op, Op::Mov);
    assert_eq!(d.at(0x40_0009).unwrap().0.op, Op::Ret);
    assert_eq!(d.at(0x40_0005).unwrap().0.op, Op::Nop);
    let d = disassemble(&overlapping(false));
    assert_eq!(d.at(0x40_0004).unwrap().0.op, Op::Nop);
    assert_eq!(d.at(0x40_0009).unwrap().0.op, Op::Nop);

    let d = disassemble(&gapped());
    assert_eq!(d.unknown, vec![(0x40_0001, 0x40_0001 + 5000)]);
    assert_eq!(d.next_addr(0x40_0000 + 5001), Some(0x40_0000 + 5002));
    assert_eq!(d.at(0x80_0002).unwrap().0.op, Op::Ret);
}

type Live = (u16, bool);
const ALL: Live = (u16::MAX, true);

/// Per-instruction backward liveness to the least fixpoint: a successor
/// that starts a block reads that block's current set (empty at first),
/// and opaque exits and successors with no block read everything. Every
/// instruction's transfer is re-applied in every round, until a round
/// changes nothing.
fn reference_liveness(d: &Disasm, cfg: &Cfg) -> HashMap<u64, Live> {
    let transfer = |inst: &Inst, (mut regs, mut flags): Live| {
        for r in inst.regs_written() {
            regs &= !(1 << r.code());
        }
        if inst.writes_flags() {
            flags = false;
        }
        for r in inst.regs_read() {
            regs |= 1 << r.code();
        }
        (regs, flags || inst.reads_flags())
    };
    let live_out = |block: &redfat_analysis::cfg::Block, live_in: &HashMap<u64, Live>| {
        if block.opaque_exit {
            return ALL;
        }
        block.succs.iter().fold((0, false), |(r, f), s| {
            let (sr, sf) = live_in.get(s).copied().unwrap_or(ALL);
            (r | sr, f || sf)
        })
    };
    let mut live_in: HashMap<u64, Live> = cfg.blocks.keys().map(|&b| (b, (0, false))).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (&start, block) in cfg.blocks.iter().rev() {
            let mut live = live_out(block, &live_in);
            for &addr in block.insts.iter().rev() {
                live = transfer(&d.at(addr).unwrap().0, live);
            }
            if live_in.insert(start, live) != Some(live) {
                changed = true;
            }
        }
    }
    let mut before = HashMap::new();
    for block in cfg.blocks.values() {
        let mut live = live_out(block, &live_in);
        for &addr in block.insts.iter().rev() {
            live = transfer(&d.at(addr).unwrap().0, live);
            before.insert(addr, live);
        }
    }
    before
}

fn assert_liveness_matches(name: &str, d: &Disasm, cfg: &Cfg) {
    let lv = Liveness::compute(d, cfg);
    let reference = reference_liveness(d, cfg);
    for (addr, _, _) in d.iter() {
        let (regs, flags) = reference.get(&addr).copied().unwrap_or(ALL);
        let dead: Vec<Reg> = (0..16)
            .filter(|&c| regs & (1 << c) == 0)
            .map(Reg::from_code)
            .collect();
        assert_eq!(lv.dead_regs_before(addr), dead, "{name}: regs at {addr:#x}");
        let flags_dead = reference.contains_key(&addr) && !flags;
        assert_eq!(
            lv.flags_dead_before(addr),
            flags_dead,
            "{name}: flags at {addr:#x}"
        );
    }
}

#[test]
fn block_summary_liveness_matches_per_instruction_reference() {
    // The hand-built blocks really do share an instruction.
    let image = overlapping_blocks();
    let d = disassemble(&image);
    let cfg = Cfg::recover(&d, image.entry, &[]);
    for start in [0x40_0000, 0x40_0002] {
        assert!(cfg.blocks[&start].insts.contains(&0x40_0005));
    }

    let mut images: Vec<(&str, Image)> = spec::all()
        .into_iter()
        .map(|wl| (wl.name, wl.image()))
        .collect();
    images.extend(hand_built());
    for (name, image) in &images {
        let d = disassemble(image);
        let cfg = Cfg::recover(&d, image.entry, &[]);
        assert_liveness_matches(name, &d, &cfg);
        // The pipeline runs liveness once per component.
        for sub in cfg.components() {
            assert_liveness_matches(name, &d, &sub);
        }
    }
}
