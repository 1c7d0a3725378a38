//! Golden tests for incremental re-hardening: warm component-cache
//! runs must do zero analysis and a one-component byte edit must
//! re-analyze exactly that component, with output byte-identical to a
//! cold run -- across every SPEC stand-in. Hand-built images with
//! overlapping or adjacent code segments pin down which bytes a
//! component key covers.

use redfat_analysis::{disassemble, unknown_entries, Cfg};
use redfat_core::{harden_cached, HardenConfig, MemoryComponentCache};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_vm::layout::CODE_BASE;
use redfat_x86::{Asm, Mem, Reg, Width};

/// Finds a single-byte mutation of `image` that changes instruction
/// *content* but not structure: identical decode boundaries, identical
/// blocks/successors, identical leaders, function entries, and roots.
/// Such an edit perturbs exactly one CFG component's content key.
///
/// Returns the mutated image. Deterministic: candidates are tried in
/// address order (low bit of each instruction's last byte).
fn mutate_one_component(image: &Image) -> Option<Image> {
    let d0 = disassemble(image);
    let cfg0 = Cfg::recover(&d0, image.entry, &[]);
    let roots0 = unknown_entries(&d0, &cfg0, image.entry);
    let bounds0: Vec<(u64, u8)> = d0.iter().map(|(a, _, l)| (a, l)).collect();

    let mut tried = 0;
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
        return Some(mutated);
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
        let mutated = mutate_one_component(&image)
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

#[test]
fn interproc_config_degrades_reuse_to_whole_image_soundly() {
    use redfat_core::LowFatPolicy;
    let config = HardenConfig::with_interproc(LowFatPolicy::All);
    let w = &redfat_workloads::spec::all()[0];
    let image = w.image();
    let cache = MemoryComponentCache::new();

    // Same image: full reuse still applies (the whole-image digest in
    // the prefix is unchanged).
    let cold = harden_cached(&image, &config, 2, &cache).expect("cold");
    let warm = harden_cached(&image, &config, 2, &cache).expect("warm");
    assert_eq!(warm.stats.components_reused, warm.stats.components);
    assert_eq!(warm.image.to_bytes(), cold.image.to_bytes());

    // Any byte edit invalidates *every* component under interproc
    // (summaries are a whole-image fixpoint), trading reuse for
    // soundness.
    let mutated = mutate_one_component(&image).expect("mutation");
    let incr = harden_cached(&mutated, &config, 2, &cache).expect("incremental");
    assert_eq!(
        incr.stats.components_reused, 0,
        "interproc degrades to whole-image granularity"
    );
    let cold_cache = MemoryComponentCache::new();
    let cold2 = harden_cached(&mutated, &config, 2, &cold_cache).expect("mutated cold");
    assert_eq!(incr.image.to_bytes(), cold2.image.to_bytes());
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
