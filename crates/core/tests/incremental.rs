//! Golden tests for re-hardening through a kept base
//! (`harden_cached`): a re-harden of the kept image re-plans nothing,
//! and an edit of it re-plans exactly the components that hold an
//! instruction differing from the kept image, with output
//! byte-identical to a one-shot harden -- across every SPEC stand-in,
//! for sibling and for chained edits. Every input that could change the
//! CFG, another config and overlapping code segments take the full
//! path, whose analysis then becomes the base.

use redfat_analysis::{disassemble, unknown_entries, Cfg, MAX_BLOCK};
use redfat_core::selftest::assert_same_bytes;
use redfat_core::{harden_cached, harden_threaded, HardenConfig, Hardened};
use redfat_core::{KeptBaseSlot, LowFatPolicy};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_vm::layout::CODE_BASE;
use redfat_workloads::riprel;
use redfat_x86::{decode_one, AluOp, Asm, Inst, Mem, Reg, Width};
use std::collections::{BTreeSet, HashMap};

/// Single-bit flips of `image` that change instruction *content* but
/// not structure: identical decode boundaries, identical
/// blocks/successors, identical leaders, function entries, and roots.
/// Each changes exactly one CFG component's instructions.
///
/// Returns the byte addresses of at most `count` flips, each in another
/// component. Candidates are the low bit of the last byte of each block
/// member of four bytes or more. A flip that moves the memory operand of
/// a batch anchor under the default config changes its component's
/// checks too, so a base that served a stale plan for it would harden
/// to other bytes. Each component offers its first such candidate, else
/// its first other one, in address order; the flips that change checks
/// come first, each kind in component order.
fn component_flips(image: &Image, count: usize) -> Vec<u64> {
    let d0 = disassemble(image);
    let cfg0 = Cfg::recover(&d0, image.entry, &[]);
    let roots0 = unknown_entries(&d0, &cfg0, image.entry);
    let bounds0: Vec<(u64, u8)> = d0.iter().map(|(a, _, l)| (a, l)).collect();
    let keeps_structure = |mutated: &Image| {
        let d1 = disassemble(mutated);
        let bounds1: Vec<(u64, u8)> = d1.iter().map(|(a, _, l)| (a, l)).collect();
        if bounds1 != bounds0 {
            return false;
        }
        let cfg1 = Cfg::recover(&d1, mutated.entry, &[]);
        cfg1.blocks == cfg0.blocks
            && cfg1.leaders == cfg0.leaders
            && cfg1.func_entries == cfg0.func_entries
            && unknown_entries(&d1, &cfg1, mutated.entry) == roots0
    };
    let anchors: BTreeSet<u64> = harden_threaded(image, &HardenConfig::default(), 1)
        .expect("hardens")
        .clobbers
        .iter()
        .map(|&(anchor, _)| anchor)
        .collect();
    // `(false, at)` for a flip at `at` that moves an anchor's operand.
    let candidate = |addr: u64| {
        let &(inst, len) = d0.at(addr)?;
        if len < 4 {
            return None;
        }
        let mut bytes = image.read_bytes(addr, len as usize)?.to_vec();
        bytes[len as usize - 1] ^= 1;
        let moved = decode_one(&bytes, addr)
            .ok()
            .map(|(m, _)| m.memory_access());
        let checked = anchors.contains(&addr) && moved != Some(inst.memory_access());
        Some((!checked, addr + u64::from(len) - 1))
    };
    let mut flips = Vec::new();
    for starts in cfg0.component_starts() {
        let mut candidates: Vec<(bool, u64)> = starts
            .iter()
            .flat_map(|s| cfg0.blocks[s].insts.iter())
            .filter_map(|&addr| candidate(addr))
            .collect();
        candidates.sort_by_key(|&(unchecked, _)| unchecked);
        let mut tried = candidates.into_iter().take(50);
        flips.extend(tried.find(|&(_, at)| keeps_structure(&flipped(image, &[at]))));
    }
    flips.sort_by_key(|&(unchecked, _)| unchecked);
    flips.into_iter().take(count).map(|(_, at)| at).collect()
}

/// `image` with the low bit of the byte at each address of `at` flipped.
fn flipped(image: &Image, at: &[u64]) -> Image {
    let mut out = image.clone();
    for &a in at {
        let seg = out
            .segments
            .iter_mut()
            .find(|s| s.vaddr <= a && a - s.vaddr < s.data.len() as u64)
            .expect("code lies in a segment");
        seg.data[(a - seg.vaddr) as usize] ^= 1;
    }
    out
}

/// The number of CFG components of `base` that hold an instruction
/// whose bytes differ in `image`: what an edit of `base` must re-plan.
fn components_differing(base: &Image, image: &Image) -> usize {
    let disasm = disassemble(base);
    let cfg = Cfg::recover(&disasm, base.entry, &[]);
    let component_of: HashMap<u64, usize> = cfg
        .component_starts()
        .into_iter()
        .enumerate()
        .flat_map(|(c, starts)| starts.into_iter().map(move |s| (s, c)))
        .collect();
    let differs = |addr: u64, len: u8| {
        base.read_bytes(addr, len as usize) != image.read_bytes(addr, len as usize)
    };
    let dirty: BTreeSet<usize> = disasm
        .iter()
        .filter(|&(addr, _, len)| differs(addr, len))
        .filter_map(|(addr, _, _)| Some(component_of[&cfg.block_of(addr)?.start]))
        .collect();
    dirty.len()
}

/// Asserts that `edit` -- a harden through a kept base -- matches a
/// one-shot harden of `image` under `config` in bytes, clobbers and
/// every statistic but `components_reused`, which must read `reused`.
fn assert_matches_one_shot(
    edit: &Hardened,
    image: &Image,
    config: &HardenConfig,
    reused: usize,
    what: &str,
) {
    let one = harden_threaded(image, config, 2)
        .unwrap_or_else(|e| panic!("{what}: one-shot harden failed: {e}"));
    assert_same_bytes(what, &edit.image.to_bytes(), &one.image.to_bytes());
    assert_eq!(edit.clobbers, one.clobbers, "{what}: clobbers");
    let mut stats = edit.stats;
    assert_eq!(stats.components_reused, reused, "{what}: components reused");
    stats.components_reused = one.stats.components_reused;
    assert_eq!(stats, one.stats, "{what}: stats");
}

/// A slot whose base is `image`, fully hardened under `config`.
fn primed(image: &Image, config: &HardenConfig, what: &str) -> (KeptBaseSlot, Hardened) {
    let slot = KeptBaseSlot::new();
    let full = harden_cached(image, config, 2, &slot)
        .unwrap_or_else(|e| panic!("{what}: full harden failed: {e}"));
    assert_eq!(full.stats.components_reused, 0, "{what}: a full harden");
    (slot, full)
}

/// Hardens `image` through `slot`, whose base was fully hardened from
/// `base`, and asserts that it was answered as an edit that re-planned
/// exactly the components holding an instruction that differs from
/// `base`, matching a one-shot harden.
fn assert_edit(
    slot: &KeptBaseSlot,
    base: &Image,
    image: &Image,
    config: &HardenConfig,
    what: &str,
) -> Hardened {
    let (edits, fallbacks) = (slot.edits(), slot.fallbacks());
    let edit = harden_cached(image, config, 2, slot)
        .unwrap_or_else(|e| panic!("{what}: edit failed: {e}"));
    assert_eq!(slot.edits(), edits + 1, "{what}: answered as an edit");
    assert_eq!(slot.fallbacks(), fallbacks, "{what}: no fallback");
    let reused = edit.stats.components - components_differing(base, image);
    assert_matches_one_shot(&edit, image, config, reused, what);
    edit
}

#[test]
fn warm_and_incremental_rehardening_is_byte_identical_on_all_stand_ins() {
    let config = HardenConfig::default();
    for w in redfat_workloads::spec::all() {
        let image = w.image();
        let (slot, cold) = primed(&image, &config, w.name);
        assert!(cold.stats.components > 1, "{}: multi-component", w.name);

        // A re-harden of the kept image re-plans nothing.
        let warm = assert_edit(&slot, &image, &image, &config, w.name);
        assert_eq!(warm.stats.components_reused, warm.stats.components);
        assert_same_bytes(w.name, &warm.image.to_bytes(), &cold.image.to_bytes());

        // A one-component edit re-plans only the touched component.
        let flips = component_flips(&image, 1);
        assert_eq!(flips.len(), 1, "{}: a structure-preserving flip", w.name);
        let incr = assert_edit(&slot, &image, &flipped(&image, &flips), &config, w.name);
        assert_eq!(
            incr.stats.components_reused,
            incr.stats.components - 1,
            "{}: exactly one component re-planned",
            w.name
        );
    }
}

#[test]
fn sibling_edits_of_one_image_each_replan_one_component() {
    // Each sibling is the primed image with one instruction flipped in
    // another component, so each also reverts its predecessor's flip: a
    // base that followed the edits would see two changed components.
    let config = HardenConfig::default();
    for name in ["gcc", "hmmer", "h264ref"] {
        let image = redfat_workloads::spec::by_name(name)
            .expect("stand-in exists")
            .image();
        let (slot, _) = primed(&image, &config, name);
        let flips = component_flips(&image, 4);
        assert_eq!(flips.len(), 4, "{name}: four components take a flip");
        for (k, &at) in flips.iter().enumerate() {
            let what = format!("{name} sibling {k}");
            let edit = assert_edit(&slot, &image, &flipped(&image, &[at]), &config, &what);
            assert_eq!(edit.stats.components_reused + 1, edit.stats.components);
        }
        assert_eq!((slot.edits(), slot.fallbacks()), (4, 0), "{name}");
    }
}

/// Code at `base`: the instructions `body` emits.
fn code_at(base: u64, body: impl FnOnce(&mut Asm)) -> Vec<u8> {
    let mut a = Asm::new(base);
    body(&mut a);
    a.finish().expect("assembles").bytes
}

/// `mov %rax, 0x40(%base); ret` at `at`: a heap-reachable store whose
/// check depends on the base register.
fn store_ret(at: u64, base: Reg) -> Vec<u8> {
    code_at(at, |a| {
        a.mov_mr(Width::W64, Mem::base_disp(base, 0x40), Reg::Rax);
        a.ret();
    })
}

/// An executable image entered at `CODE_BASE` with the given RX
/// segments.
fn rx_image(segments: Vec<(u64, Vec<u8>)>) -> Image {
    Image {
        kind: ImageKind::Exec,
        entry: CODE_BASE,
        segments: segments
            .into_iter()
            .map(|(vaddr, code)| Segment::new(vaddr, SegFlags::RX, code))
            .collect(),
        symbols: vec![],
    }
}

/// Hardens `first` and then `second` through one slot, and checks that
/// `second` takes the full path, reusing nothing, and matches a one-shot
/// harden of it byte for byte.
fn assert_full_path(first: &Image, second: &Image) {
    let config = HardenConfig::default();
    let (slot, full) = primed(first, &config, "first image");
    assert!(full.stats.checks > 0, "the store is instrumented");
    let second_full = harden_cached(second, &config, 1, &slot).expect("second harden");
    assert_eq!((slot.edits(), slot.fallbacks()), (0, 1), "a fallback");
    assert!(
        full.image.to_bytes() != second_full.image.to_bytes(),
        "the two images harden differently"
    );
    assert_matches_one_shot(&second_full, second, &config, 0, "second image");
}

#[test]
fn overlapping_code_segments_take_the_full_path() {
    // Both images share the first RX segment; the second sits on top of
    // it and differs in the store's base register. The disassembler
    // keeps the instruction decoded last, so the two plans differ,
    // while a comparison of each segment's bytes sees a change in the
    // second segment only.
    let shared = store_ret(CODE_BASE, Reg::Rcx);
    let over_rcx = rx_image(vec![
        (CODE_BASE, shared.clone()),
        (CODE_BASE, store_ret(CODE_BASE, Reg::Rcx)),
    ]);
    let over_rdx = rx_image(vec![
        (CODE_BASE, shared),
        (CODE_BASE, store_ret(CODE_BASE, Reg::Rdx)),
    ]);
    assert_full_path(&over_rcx, &over_rdx);
}

#[test]
fn an_edit_in_the_second_of_two_adjacent_code_segments_is_planned_afresh() {
    // One block runs from the first RX segment into the second, which
    // starts where the first ends; the images differ only in the
    // second segment's store.
    let head = code_at(CODE_BASE, |a| a.mov_ri(Width::W32, Reg::Rsi, 1));
    let tail_at = CODE_BASE + head.len() as u64;
    let image = |base| {
        rx_image(vec![
            (CODE_BASE, head.clone()),
            (tail_at, store_ret(tail_at, base)),
        ])
    };
    let (with_rcx, with_rdx) = (image(Reg::Rcx), image(Reg::Rdx));
    let d = disassemble(&with_rcx);
    let cfg = Cfg::recover(&d, with_rcx.entry, &[]);
    assert_eq!(cfg.blocks.len(), 1, "one block spans both segments");
    assert_eq!(cfg.blocks[&CODE_BASE].insts.len(), 3);
    let config = HardenConfig::default();
    let (slot, full) = primed(&with_rcx, &config, "rcx");
    let edit = assert_edit(&slot, &with_rcx, &with_rdx, &config, "rdx");
    assert_eq!(edit.stats.components_reused, 0, "the one component");
    assert!(full.image.to_bytes() != edit.image.to_bytes());
}

/// `call f; mov %rax, 0x40(%first); ret` at `CODE_BASE`, then
/// `f: mov %rax, 0x40(%second); ret`: two components, each a store
/// whose check's scratch triple avoids the store's base register, so it
/// calls the cold library's fallback routine of that triple.
fn two_stores(first: Reg, second: Reg) -> Image {
    let code = code_at(CODE_BASE, |a| {
        let f = a.label();
        a.call_label(f);
        a.mov_mr(Width::W64, Mem::base_disp(first, 0x40), Reg::Rax);
        a.ret();
        a.bind(f).expect("binds");
        a.mov_mr(Width::W64, Mem::base_disp(second, 0x40), Reg::Rax);
        a.ret();
    });
    rx_image(vec![(CODE_BASE, code)])
}

/// Primes a slot with `base`, hardens `edit` through it and returns the
/// library bytes of both, after checking that the edit re-planned one
/// of two components and matches a one-shot harden.
fn library_bytes_before_and_after(base: &Image, edit: &Image, what: &str) -> (usize, usize) {
    let config = HardenConfig::default();
    let (slot, full) = primed(base, &config, what);
    assert_eq!(full.stats.components, 2, "{what}: two components");
    let edited = assert_edit(&slot, base, edit, &config, what);
    assert_eq!(edited.stats.components_reused, 1, "{what}");
    (
        full.stats.rewrite.library_bytes,
        edited.stats.rewrite.library_bytes,
    )
}

#[test]
fn an_edit_that_adds_a_library_routine_matches_a_one_shot_harden() {
    // The second store's base moves from rbx to rcx, so its triple
    // avoids rcx: one no other check uses, so the edit's library gains
    // a routine and every payload after it moves.
    let (before, after) = library_bytes_before_and_after(
        &two_stores(Reg::Rbx, Reg::Rbx),
        &two_stores(Reg::Rbx, Reg::Rcx),
        "a new triple",
    );
    assert!(after > before, "the library grows: {before} -> {after}");
}

#[test]
fn an_edit_that_drops_a_library_routine_matches_a_one_shot_harden() {
    // The reverse: the only check of the rcx-avoiding triple goes back
    // to rbx, and the edit's library loses that routine.
    let (before, after) = library_bytes_before_and_after(
        &two_stores(Reg::Rbx, Reg::Rcx),
        &two_stores(Reg::Rbx, Reg::Rbx),
        "a triple's last user",
    );
    assert!(after < before, "the library shrinks: {before} -> {after}");
}

/// Hardens `image` under `config` through a slot, then chains up to
/// three edits through it, each flipping one more instruction, in
/// another component, on top of the previous edit. Each must match a
/// one-shot harden and re-plan exactly the components holding an
/// instruction that differs from `image`: one more per edit.
fn chain_edits(image: Image, config: &HardenConfig, name: &str) {
    let (slot, _) = primed(&image, config, name);
    let flips = component_flips(&image, 3);
    assert!(flips.len() >= 2, "{name}: two components take a flip");
    for k in 1..=flips.len() {
        let what = format!("{name} edit {k}");
        let edit = assert_edit(&slot, &image, &flipped(&image, &flips[..k]), config, &what);
        assert_eq!(edit.stats.components_reused + k, edit.stats.components);
    }
}

#[test]
fn chained_edits_through_a_kept_base_match_one_shot_hardens_on_all_stand_ins() {
    for w in redfat_workloads::spec::all() {
        chain_edits(w.image(), &HardenConfig::default(), w.name);
    }
}

/// `image` with the bits of `mask` flipped in the byte `from_end` bytes
/// before the end of the first instruction that `pick` accepts.
fn flip_in(image: &Image, pick: impl Fn(&Inst) -> bool, from_end: u64, mask: u8) -> Image {
    let disasm = disassemble(image);
    let (addr, _, len) = disasm
        .iter()
        .find(|(_, inst, _)| pick(inst))
        .expect("the image has such an instruction");
    let at = addr + u64::from(len) - from_end;
    let mut out = image.clone();
    let seg = out
        .segments
        .iter_mut()
        .find(|s| s.vaddr <= at && at - s.vaddr < s.data.len() as u64)
        .expect("code lies in a segment");
    seg.data[(at - seg.vaddr) as usize] ^= mask;
    out
}

/// The patch-site `jmp` target of each anchor that took one.
fn jmp_targets(h: &Hardened) -> Vec<(u64, u64)> {
    h.clobbers
        .iter()
        .filter_map(|&(anchor, _)| {
            let site = h.image.read_bytes(anchor, 5)?;
            let (jmp, _) = decode_one(site, anchor).ok()?;
            Some((anchor, jmp.branch_target()?))
        })
        .collect()
}

#[test]
fn chained_unoptimized_edits_match_one_shot_hardens_and_move_later_trampolines() {
    // Unoptimized, every access has a payload of its own, rip-relative
    // ones included.
    let config = HardenConfig::unoptimized(LowFatPolicy::All);
    for name in ["bzip2", "mcf", "lbm"] {
        let w = redfat_workloads::spec::by_name(name).expect("stand-in exists");
        chain_edits(w.image(), &config, &format!("{name} unoptimized"));
    }

    let first = redfat_workloads::riprel::image();
    let (slot, _) = primed(&first, &config, "riprel");
    // A rip-relative load moves to the neighbouring global: bit 3 of
    // its disp32.
    let rip_load =
        |inst: &Inst| inst.memory_access().is_some_and(|m| m.rip) && !inst.writes_memory();
    let image = flip_in(&first, rip_load, 4, 8);
    let before = assert_edit(&slot, &first, &image, &config, "riprel rip target");
    // The store to 8(%rbx) becomes one to 0(%rbx) through its disp8,
    // whose re-encoded forms drop that byte: its check's `lea` and its
    // displaced copy shrink, and every later trampoline moves.
    let store = |inst: &Inst| {
        inst.writes_memory() && inst.memory_access() == Some(Mem::base_disp(Reg::Rbx, 8))
    };
    let anchor = disassemble(&image)
        .iter()
        .find(|(_, inst, _)| store(inst))
        .expect("the store")
        .0;
    let image = flip_in(&image, store, 1, 8);
    let after = assert_edit(&slot, &first, &image, &config, "riprel payload length");
    let shrink = before.stats.rewrite.trampoline_bytes - after.stats.rewrite.trampoline_bytes;
    assert!(shrink > 0, "the edit shortens the trampolines");
    let (old, new) = (jmp_targets(&before), jmp_targets(&after));
    assert_eq!(old.len(), new.len());
    assert!(old.iter().any(|&(a, _)| a > anchor), "a later trampoline");
    for ((a, t0), (a1, t1)) in old.into_iter().zip(new) {
        assert_eq!(a, a1);
        let moved = if a > anchor { shrink as u64 } else { 0 };
        assert_eq!(t0 - t1, moved, "the trampoline of {a:#x}");
    }
}

/// The first image, in instruction address order, whose code differs
/// from `image` by one bit flip of one instruction inside a recovered
/// block, such that `accept(old, old length, re-decoded)` holds.
fn flip_where(image: &Image, accept: impl Fn(&Inst, u8, Option<(Inst, u8)>) -> bool) -> Image {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    for (addr, inst, len) in disasm.iter() {
        if cfg.block_of(addr).is_none() {
            continue;
        }
        let code = image.read_bytes(addr, len as usize).expect("decoded bytes");
        for bit in 0..u64::from(len) * 8 {
            let mut bytes = code.to_vec();
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            if accept(inst, len, decode_one(&bytes, addr).ok()) {
                let mut out = image.clone();
                let seg = out
                    .segments
                    .iter_mut()
                    .find(|s| s.vaddr <= addr && addr - s.vaddr < s.data.len() as u64)
                    .expect("code lies in a segment");
                let off = (addr - seg.vaddr) as usize;
                seg.data[off..off + len as usize].copy_from_slice(&bytes);
                return out;
            }
        }
    }
    panic!("no instruction takes such a flip");
}

/// Asserts that a slot whose base is `image`, fully hardened under the
/// default config, takes the full path for `variant` under `config`,
/// matching a one-shot harden, and that `variant` then is the base.
fn assert_falls_back(image: &Image, variant: &Image, config: &HardenConfig, what: &str) {
    let (slot, _) = primed(image, &HardenConfig::default(), what);
    let full = harden_cached(variant, config, 2, &slot)
        .unwrap_or_else(|e| panic!("{what}: full path failed: {e}"));
    assert_eq!(
        (slot.edits(), slot.fallbacks()),
        (0, 1),
        "{what}: must take the full path"
    );
    assert_matches_one_shot(&full, variant, config, 0, what);
    assert_edit(&slot, variant, variant, config, &format!("{what}, again"));
}

/// Where the tests below add a data segment, clear of code, globals and
/// trampolines.
const DATA_AT: u64 = 0x7000_0000;

#[test]
fn edits_that_may_change_the_cfg_take_the_full_path() {
    let config = HardenConfig::default();
    let image = redfat_workloads::spec::all()[0].image();

    let longer = flip_where(&image, |old, len, new| {
        !old.is_control_flow() && new.is_some_and(|(_, l)| l != len)
    });
    assert_falls_back(&image, &longer, &config, "length-changing edit");

    let retarget = flip_where(&image, |old, len, new| {
        old.branch_target().is_some()
            && new.is_some_and(|(n, l)| {
                l == len && n.op == old.op && n.branch_target() != old.branch_target()
            })
    });
    assert_falls_back(&image, &retarget, &config, "branch-target edit");

    let mut moved = image.clone();
    moved
        .segments
        .push(Segment::new(DATA_AT, SegFlags::RW, vec![1; 64]));
    assert_falls_back(&image, &moved, &config, "changed segment table");

    let unoptimized = HardenConfig::unoptimized(LowFatPolicy::All);
    assert_falls_back(&image, &image, &unoptimized, "different config");
}

#[test]
fn a_changed_byte_in_an_undecodable_gap_takes_the_full_path() {
    // `mov %rax, 0x40(%rcx); ret`, then bytes whose first fails to
    // decode: 0f 28 is no instruction this decoder knows, and the sweep
    // resynchronizes on `28 c1` (sub %al, %cl) and a nop.
    let mut code = store_ret(CODE_BASE, Reg::Rcx);
    let gap = code.len();
    code.extend_from_slice(&[0x0F, 0x28, 0xC1, 0x90]);
    let image = rx_image(vec![(CODE_BASE, code)]);
    let disasm = disassemble(&image);
    let gap_at = CODE_BASE + gap as u64;
    assert_eq!(disasm.unknown, vec![(gap_at, gap_at + 1)]);

    let mut variant = image.clone();
    variant.segments[0].data[gap] = 0x90;
    let config = HardenConfig::default();
    assert_falls_back(&image, &variant, &config, "edit in a gap");
}

#[test]
fn an_edit_that_makes_an_earlier_gap_decode_takes_the_full_path() {
    // `nop`, then 8f: `pop` takes only /0, so `8f 48` does not decode
    // and the sweep resynchronizes on the store `48 89 41 40`. Clearing
    // the store's REX.W keeps it a 4-byte store, but `8f 40 89` is then
    // `pop -0x77(%rax)`: the gap byte decodes and every later boundary
    // moves, although the changed byte lies in a same-length store.
    let mut code = code_at(CODE_BASE, |a| a.nop());
    let gap = code.len();
    let gap_at = CODE_BASE + gap as u64;
    code.push(0x8F);
    code.extend(store_ret(gap_at + 1, Reg::Rcx));
    let image = rx_image(vec![(CODE_BASE, code)]);
    assert_eq!(disassemble(&image).unknown, vec![(gap_at, gap_at + 1)]);

    let mut variant = image.clone();
    variant.segments[0].data[gap + 1] ^= 0x08;
    assert!(
        disassemble(&variant).at(gap_at).is_some(),
        "the gap decodes"
    );
    let config = HardenConfig::default();
    assert_falls_back(&image, &variant, &config, "edit that makes a gap decode");
}

#[test]
fn a_data_segment_edit_takes_the_edit_path() {
    // Mini-C globals are zero-filled, so the image gains an
    // initialized data segment first.
    let config = HardenConfig::default();
    let mut image = redfat_workloads::spec::all()[0].image();
    image
        .segments
        .push(Segment::new(DATA_AT, SegFlags::RW, vec![7; 64]));
    let (slot, _) = primed(&image, &config, "data");
    let mut edited = image.clone();
    edited.segments.last_mut().expect("data segment").data[5] ^= 0xFF;
    let edit = assert_edit(&slot, &image, &edited, &config, "data edit");
    assert_eq!(edit.stats.components_reused, edit.stats.components);
}

#[test]
fn an_edit_outside_every_block_moves_only_the_leftover_counts() {
    // The entry block stops at MAX_BLOCK nops without reaching a
    // leader, so the store after it and the `ret` lie in no block.
    // Turning the store's `disp32(%rcx)` operand into `disp32(%rip)`
    // keeps its length and makes it syntactically non-heap.
    let store_at = CODE_BASE + MAX_BLOCK as u64;
    let build = |dst: Mem| {
        code_at(CODE_BASE, |a| {
            for _ in 0..MAX_BLOCK {
                a.nop();
            }
            a.mov_mr(Width::W64, dst, Reg::Rax);
            a.ret();
        })
    };
    let heap = rx_image(vec![(
        CODE_BASE,
        build(Mem::base_disp(Reg::Rcx, 0x1000_0000)),
    )]);
    let global = rx_image(vec![(CODE_BASE, build(Mem::rip(store_at + 0x1000)))]);
    assert_eq!(heap.segments[0].data.len(), global.segments[0].data.len());
    let disasm = disassemble(&heap);
    let cfg = Cfg::recover(&disasm, heap.entry, &[]);
    assert!(cfg.block_of(store_at).is_none(), "the store is in no block");

    let config = HardenConfig::default();
    let (slot, before) = primed(&heap, &config, "heap store");
    let edit = assert_edit(&slot, &heap, &global, &config, "blockless edit");
    assert_eq!(
        edit.stats.sites_eliminated,
        before.stats.sites_eliminated + 1
    );
    // The edit left the base's counts as they were.
    let again = assert_edit(&slot, &heap, &heap, &config, "the kept image again");
    assert_eq!(again.stats.sites_eliminated, before.stats.sites_eliminated);
}

/// `add $imm, %rdx`: 4 bytes, no memory access.
fn add_rdx(a: &mut Asm, imm: i64) {
    a.alu_ri(AluOp::Add, Width::W64, Reg::Rdx, imm);
}

#[test]
fn an_edit_of_an_instruction_a_neighbouring_anchor_displaces_is_planned_afresh() {
    // The 3-byte store is too short for a `jmp` patch, so its trampoline
    // displaces the `add` after it as well; only the `add` changes.
    let image = |imm| {
        rx_image(vec![(
            CODE_BASE,
            code_at(CODE_BASE, |a| {
                a.mov_mr(Width::W64, Mem::base(Reg::Rcx), Reg::Rax);
                add_rdx(a, imm);
                a.ret();
            }),
        )])
    };
    let config = HardenConfig::default();
    let (slot, full) = primed(&image(1), &config, "add $1");
    assert_eq!(full.stats.rewrite.displaced, 2, "the store and the add");
    let edit = assert_edit(&slot, &image(1), &image(2), &config, "add $2");
    assert!(full.image.to_bytes() != edit.image.to_bytes());
}

#[test]
fn an_edit_in_no_block_that_a_group_displaces_replans_the_groups_component() {
    // After `call f`, a block of MAX_BLOCK instructions ends with a
    // 3-byte store, capped before the `add` that follows, so the `add`
    // and the `ret` lie in no block. The store's trampoline displaces
    // the `add`: an edit of it must re-plan the store's component,
    // although the `add` lies in none.
    let image = |imm| {
        rx_image(vec![(
            CODE_BASE,
            code_at(CODE_BASE, |a| {
                let f = a.label();
                a.call_label(f);
                for _ in 0..MAX_BLOCK - 1 {
                    a.nop();
                }
                a.mov_mr(Width::W64, Mem::base(Reg::Rcx), Reg::Rax);
                add_rdx(a, imm);
                a.ret();
                a.bind(f).expect("binds");
                a.mov_mr(Width::W64, Mem::base_disp(Reg::Rsi, 8), Reg::Rax);
                a.ret();
            }),
        )])
    };
    let (base, edited) = (image(1), image(2));
    let disasm = disassemble(&base);
    let cfg = Cfg::recover(&disasm, base.entry, &[]);
    let store = CODE_BASE + 5 + (MAX_BLOCK as u64 - 1);
    let add = store + 3;
    assert_eq!(cfg.block_of(store).map(|b| b.insts.len()), Some(MAX_BLOCK));
    assert!(cfg.block_of(add).is_none(), "the add is in no block");
    assert_eq!(components_differing(&base, &edited), 0);

    let config = HardenConfig::default();
    let (slot, full) = primed(&base, &config, "add $1");
    assert_eq!(full.stats.components, 2);
    let edit = harden_cached(&edited, &config, 2, &slot).expect("edit");
    assert_eq!((slot.edits(), slot.fallbacks()), (1, 0), "a kept-base edit");
    assert_matches_one_shot(&edit, &edited, &config, 1, "add $2");
    assert!(full.image.to_bytes() != edit.image.to_bytes());
}

#[test]
fn an_edit_of_a_displaced_rip_relative_instruction_matches_a_one_shot_harden() {
    // Under `--no-elim` the rip-relative accesses are checked, and each
    // anchor is displaced into its own trampoline. Moving one's target
    // from one global to the other keeps its length.
    let config = HardenConfig {
        elim: false,
        elim_flow: false,
        elim_redundant: false,
        ..HardenConfig::default()
    };
    let image = riprel::image();
    let (slot, full) = primed(&image, &config, "riprel");
    let anchors: BTreeSet<u64> = full.clobbers.iter().map(|&(anchor, _)| anchor).collect();
    let disasm = disassemble(&image);
    let (addr, inst, _) = disasm
        .iter()
        .find(|(a, i, _)| anchors.contains(a) && i.memory_operand().is_some_and(|m| m.rip))
        .expect("a checked rip-relative access");
    let mut buf = Vec::new();
    let field = redfat_x86::encode_relocatable(inst, &mut buf)
        .expect("encodes")
        .expect("a rip-relative field");
    let mut edited = image.clone();
    let code = &mut edited.segments[0].data;
    let start = (addr - CODE_BASE) as usize;
    let rel32 = &mut code[start + field.at..start + field.at + 4];
    let moved_rel32 = i32::from_le_bytes((&*rel32).try_into().expect("4 bytes")) + 8;
    rel32.copy_from_slice(&moved_rel32.to_le_bytes());
    let (moved, _) = decode_one(&code[start..], addr).expect("decodes");
    let target = |i: &Inst| i.memory_operand().map(|m| m.disp as u64);
    assert_eq!(
        (target(inst), target(&moved)),
        (Some(riprel::POINTER), Some(riprel::COUNTER)),
    );
    let edit = assert_edit(&slot, &image, &edited, &config, "riprel edit");
    assert!(full.image.to_bytes() != edit.image.to_bytes());
}
