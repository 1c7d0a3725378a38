//! Golden tests for incremental re-hardening: warm component-cache
//! runs must do zero analysis and a one-component byte edit must
//! re-analyze exactly that component, with output byte-identical to a
//! cold run -- across every SPEC stand-in. Edits against a kept base
//! must match one-shot hardens, and every edit that could change the
//! CFG must fall back to the full path. Hand-built images with
//! overlapping or adjacent code segments pin down which bytes a
//! component key covers.

use redfat_analysis::{disassemble, unknown_entries, Cfg, MAX_BLOCK};
use redfat_core::{harden_cached, harden_threaded, HardenConfig, Hardened};
use redfat_core::{KeptBase, LowFatPolicy, MemoryComponentCache};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_vm::layout::CODE_BASE;
use redfat_x86::{decode_one, Asm, Inst, Mem, Reg, Width};

/// Finds a single-byte mutation of `image` that changes instruction
/// *content* but not structure: identical decode boundaries, identical
/// blocks/successors, identical leaders, function entries, and roots.
/// Such an edit perturbs exactly one CFG component's content key.
///
/// Returns the mutated image for the `skip`-th such candidate (from 0).
/// Deterministic: candidates are tried in address order (low bit of
/// each instruction's last byte).
fn mutate_one_component(image: &Image, skip: usize) -> Option<Image> {
    let d0 = disassemble(image);
    let cfg0 = Cfg::recover(&d0, image.entry, &[]);
    let roots0 = unknown_entries(&d0, &cfg0, image.entry);
    let bounds0: Vec<(u64, u8)> = d0.iter().map(|(a, _, l)| (a, l)).collect();

    let mut tried = 0;
    let mut found = 0;
    for (addr, _, len) in d0.iter() {
        // Only instructions inside a recovered block participate in a
        // component key; flipping anything else proves nothing.
        if cfg0.block_of(addr).is_none() {
            continue;
        }
        // Long instructions end in immediates/displacements far more
        // often than in opcode bytes, so their low bit is the most
        // likely structure-preserving flip.
        if len < 4 {
            continue;
        }
        tried += 1;
        if tried > 300 {
            break; // candidate budget; plenty for every stand-in
        }

        let mut mutated = image.clone();
        let target = addr + u64::from(len) - 1;
        let Some(seg) = mutated
            .segments
            .iter_mut()
            .find(|s| s.vaddr <= target && target - s.vaddr < s.data.len() as u64)
        else {
            continue;
        };
        seg.data[(target - seg.vaddr) as usize] ^= 1;

        // Validate: same decode boundaries and identical CFG structure
        // (blocks compare instruction lists, successors, and opaque
        // exits), so exactly one component's *content* changed.
        let d1 = disassemble(&mutated);
        let bounds1: Vec<(u64, u8)> = d1.iter().map(|(a, _, l)| (a, l)).collect();
        if bounds1 != bounds0 {
            continue;
        }
        let cfg1 = Cfg::recover(&d1, mutated.entry, &[]);
        if cfg1.blocks != cfg0.blocks
            || cfg1.leaders != cfg0.leaders
            || cfg1.func_entries != cfg0.func_entries
        {
            continue;
        }
        if unknown_entries(&d1, &cfg1, mutated.entry) != roots0 {
            continue;
        }
        if found == skip {
            return Some(mutated);
        }
        found += 1;
    }
    None
}

#[test]
fn warm_and_incremental_rehardening_is_byte_identical_on_all_stand_ins() {
    let config = HardenConfig::default();
    for w in redfat_workloads::spec::all() {
        let image = w.image();
        let cache = MemoryComponentCache::new();

        // Cold run: populates the cache, reuses nothing.
        let cold = harden_cached(&image, &config, 2, &cache)
            .unwrap_or_else(|e| panic!("{}: cold harden failed: {e}", w.name));
        assert_eq!(cold.stats.components_reused, 0, "{}", w.name);
        assert!(cold.stats.components > 1, "{}: multi-component", w.name);

        // Warm run: every component served from the cache, zero
        // analysis, byte-identical output.
        let warm = harden_cached(&image, &config, 2, &cache)
            .unwrap_or_else(|e| panic!("{}: warm harden failed: {e}", w.name));
        assert_eq!(
            warm.stats.components_reused, warm.stats.components,
            "{}: warm run reuses every component",
            w.name
        );
        assert_eq!(
            warm.image.to_bytes(),
            cold.image.to_bytes(),
            "{}: warm bytes identical",
            w.name
        );

        // One-component edit: only the touched component re-analyzes,
        // and the result is byte-identical to hardening the edited
        // image from a cold cache.
        let mutated = mutate_one_component(&image, 0)
            .unwrap_or_else(|| panic!("{}: no structure-preserving mutation found", w.name));
        let cold_cache = MemoryComponentCache::new();
        let cold2 = harden_cached(&mutated, &config, 2, &cold_cache)
            .unwrap_or_else(|e| panic!("{}: mutated cold harden failed: {e}", w.name));
        let incr = harden_cached(&mutated, &config, 2, &cache)
            .unwrap_or_else(|e| panic!("{}: incremental harden failed: {e}", w.name));
        assert_eq!(incr.stats.components, cold2.stats.components, "{}", w.name);
        assert_eq!(
            incr.stats.components_reused,
            incr.stats.components - 1,
            "{}: exactly one component re-analyzed",
            w.name
        );
        assert_eq!(
            incr.image.to_bytes(),
            cold2.image.to_bytes(),
            "{}: incremental bytes identical to cold",
            w.name
        );
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

/// Hardens `first` and then `second` through one cache, and checks that
/// the warm run of `second` reuses nothing and matches a cold harden of
/// it byte for byte.
fn assert_no_stale_reuse(first: &Image, second: &Image) {
    let config = HardenConfig::default();
    let cache = MemoryComponentCache::new();
    let primed = harden_cached(first, &config, 1, &cache).expect("first harden");
    assert!(primed.stats.checks > 0, "the store is instrumented");
    let warm = harden_cached(second, &config, 1, &cache).expect("warm harden");
    let cold = harden_cached(second, &config, 1, &MemoryComponentCache::new()).expect("cold");
    assert_ne!(
        primed.image.to_bytes(),
        cold.image.to_bytes(),
        "the two images harden differently"
    );
    assert_eq!(
        warm.stats.components_reused, 0,
        "a changed component must not reuse the other image's plan"
    );
    assert_eq!(warm.image.to_bytes(), cold.image.to_bytes());
}

#[test]
fn overlapping_code_segments_never_serve_a_stale_plan() {
    // Both images share the first RX segment; the second sits on top of
    // it and differs in the store's base register. The disassembler
    // keeps the instruction decoded last, so the two plans differ,
    // while a lookup by address reads the shared first segment.
    let shared = store_ret(CODE_BASE, Reg::Rcx);
    let over_rcx = rx_image(vec![
        (CODE_BASE, shared.clone()),
        (CODE_BASE, store_ret(CODE_BASE, Reg::Rcx)),
    ]);
    let over_rdx = rx_image(vec![
        (CODE_BASE, shared),
        (CODE_BASE, store_ret(CODE_BASE, Reg::Rdx)),
    ]);
    assert_no_stale_reuse(&over_rcx, &over_rdx);
}

#[test]
fn a_block_across_adjacent_code_segments_hashes_both_segments() {
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
    assert_no_stale_reuse(&with_rcx, &with_rdx);
}

/// Asserts that `edit` -- a harden through a kept base -- matches a
/// one-shot harden of `image` in bytes, clobbers and every statistic
/// but `components_reused`, which must read `reused`.
fn assert_matches_one_shot(edit: &Hardened, image: &Image, reused: usize, what: &str) {
    let one = harden_threaded(image, &HardenConfig::default(), 2)
        .unwrap_or_else(|e| panic!("{what}: one-shot harden failed: {e}"));
    assert_eq!(edit.image.to_bytes(), one.image.to_bytes(), "{what}: bytes");
    assert_eq!(edit.clobbers, one.clobbers, "{what}: clobbers");
    let mut stats = edit.stats;
    assert_eq!(stats.components_reused, reused, "{what}: components reused");
    stats.components_reused = one.stats.components_reused;
    assert_eq!(stats, one.stats, "{what}: stats");
}

#[test]
fn chained_edits_through_a_kept_base_match_one_shot_hardens_on_all_stand_ins() {
    let config = HardenConfig::default();
    for w in redfat_workloads::spec::all() {
        let cache = MemoryComponentCache::new();
        let mut image = w.image();
        let (_, mut base) = KeptBase::harden(&image, &config, 2, &cache)
            .unwrap_or_else(|e| panic!("{}: full harden failed: {e}", w.name));
        // Each edit flips a candidate the previous ones left alone, so
        // its component's content is new to the cache.
        for skip in 0..3 {
            let what = format!("{} edit {skip}", w.name);
            image = mutate_one_component(&image, skip)
                .unwrap_or_else(|| panic!("{what}: no structure-preserving mutation"));
            let edit = base
                .harden_edit(&image, &config, 2, &cache)
                .unwrap_or_else(|| panic!("{what}: fell back to the full path"))
                .unwrap_or_else(|e| panic!("{what}: edit failed: {e}"));
            assert_matches_one_shot(&edit, &image, edit.stats.components - 1, &what);
        }
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

/// Asserts that a base kept for `image` refuses `variant` under
/// `config`, and that the full path then matches a one-shot harden.
fn assert_falls_back(image: &Image, variant: &Image, config: &HardenConfig, what: &str) {
    let cache = MemoryComponentCache::new();
    let (_, mut base) = KeptBase::harden(image, &HardenConfig::default(), 2, &cache)
        .unwrap_or_else(|e| panic!("{what}: full harden failed: {e}"));
    assert!(
        base.harden_edit(variant, config, 2, &cache).is_none(),
        "{what}: must take the full path"
    );
    let (full, _) = KeptBase::harden(variant, config, 2, &cache)
        .unwrap_or_else(|e| panic!("{what}: full path failed: {e}"));
    let one = harden_threaded(variant, config, 2).expect("one-shot harden");
    assert_eq!(full.image.to_bytes(), one.image.to_bytes(), "{what}: bytes");
    assert_eq!(full.clobbers, one.clobbers, "{what}: clobbers");
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
    let cache = MemoryComponentCache::new();
    let (_, mut base) = KeptBase::harden(&image, &config, 2, &cache).expect("full harden");
    let mut edited = image.clone();
    edited.segments.last_mut().expect("data segment").data[5] ^= 0xFF;
    let edit = base
        .harden_edit(&edited, &config, 2, &cache)
        .expect("a data edit keeps the CFG")
        .expect("edit hardens");
    assert_matches_one_shot(&edit, &edited, edit.stats.components, "data edit");
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
    let cache = MemoryComponentCache::new();
    let (before, mut base) = KeptBase::harden(&heap, &config, 1, &cache).expect("full harden");
    let edit = base
        .harden_edit(&global, &config, 1, &cache)
        .expect("a blockless edit keeps the CFG")
        .expect("edit hardens");
    assert_eq!(
        edit.stats.sites_eliminated,
        before.stats.sites_eliminated + 1
    );
    assert_matches_one_shot(&edit, &global, edit.stats.components, "blockless edit");
}
