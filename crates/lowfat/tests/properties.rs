//! Randomized tests over the allocator policies and the RedFat wrapper:
//! the base/size laws of §2.1 and the Figure 3 object layout under random
//! malloc/calloc/realloc/free/double-free traffic, and a crafted-pointer
//! sweep pinning conservative
//! metadata answers -- all driven by deterministic seeded generators and
//! run against every registered policy.

use redfat_lowfat::{
    AllocError, AllocPolicyKind, LowFatConfig, ObjState, RedFatHeap, REDZONE_SIZE,
};
use redfat_vm::{layout, Rng64, Vm};

/// Heap operations per policy in the random-traffic campaign.
const TRAFFIC_OPS: u64 = 5_000;

/// Asserts the Figure 3 layout laws for the live object of `size > 0`
/// bytes at user pointer `p`, under whatever policy backs `heap`: its
/// allocation offset `delta` generalizes the paper's `p = base + 16` to
/// `p = base + 16 + delta`, with extent metadata `delta + size`. A
/// `fresh` object sits in exactly the size class of its padded size; one
/// resized in place only has to fit its slot.
fn check_object(heap: &RedFatHeap, vm: &Vm, p: u64, size: u64, fresh: bool, ctx: &str) {
    // Law 1: user pointer = base + 16 + delta, base is class-aligned,
    // delta respects the slot contract.
    let base = layout::lowfat_base(p);
    assert_ne!(base, 0, "{ctx}: heap pointer {p:#x} has no base");
    assert_eq!(
        layout::lowfat_base(base),
        base,
        "{ctx}: base not idempotent"
    );
    let delta = heap.user_delta(base);
    assert_eq!(p, base + REDZONE_SIZE + delta, "{ctx}");
    if heap.policy_kind() == AllocPolicyKind::LowFat {
        assert_eq!(delta, 0, "{ctx}: the default policy never offsets");
    }
    assert_eq!(p % 16, 0, "{ctx}: user pointers stay aligned");
    let class = layout::region_index(p);
    assert!((1..=layout::NUM_CLASSES).contains(&class), "{ctx}");
    let csize = layout::class_size(class);
    assert_eq!(base % csize, 0, "{ctx}");
    assert!(
        delta + size + REDZONE_SIZE <= csize,
        "{ctx}: slot too small"
    );
    if fresh {
        let want = layout::class_for_size(size + REDZONE_SIZE).map(layout::class_size);
        assert_eq!(want, Some(csize), "{ctx}: not in its size class");
    }
    // Law 2: every interior pointer maps back to base.
    for probe in [0, size / 2, size - 1] {
        assert_eq!(layout::lowfat_base(p + probe), base, "{ctx}");
        assert_eq!(layout::lowfat_size(p + probe), csize, "{ctx}");
    }
    // Law 3: metadata reflects the malloc size (the extent word holds
    // delta + size) behind an armed canary.
    assert_eq!(vm.read_u64(base).unwrap(), delta + size, "{ctx}");
    assert!(heap.check_canary(vm, p), "{ctx}: metadata canary");
    assert_eq!(heap.object_size(vm, p), Some(size), "{ctx}");
    // The check-visible states: redzone below, the object, padding above.
    for probe in [base, base + REDZONE_SIZE - 1] {
        assert_eq!(heap.state(vm, probe), ObjState::Redzone, "{ctx}");
    }
    for probe in [p, p + size - 1] {
        assert_eq!(heap.state(vm, probe), ObjState::Allocated, "{ctx}");
    }
    if delta + size + REDZONE_SIZE < csize {
        assert_eq!(heap.state(vm, p + size), ObjState::Padding, "{ctx}");
    }
}

/// Law 4: the slot of the object at `p` overlaps no other live object's.
fn check_disjoint(p: u64, live: &[(u64, u64, u8)], ctx: &str) {
    let a0 = layout::lowfat_base(p);
    let a1 = a0 + layout::lowfat_size(p);
    for &(other, _, _) in live {
        let b0 = layout::lowfat_base(other);
        let b1 = b0 + layout::lowfat_size(other);
        assert!(a1 <= b0 || b1 <= a0, "{ctx}: overlap {a0:#x} {b0:#x}");
    }
}

/// A freed object reads as free and sizeless.
fn check_freed(heap: &RedFatHeap, vm: &Vm, p: u64, ctx: &str) {
    assert_eq!(heap.state(vm, p), ObjState::Free, "{ctx}");
    assert_eq!(heap.object_size(vm, p), None, "{ctx}");
}

#[test]
fn allocator_invariants_under_random_traffic() {
    for policy in AllocPolicyKind::ALL {
        let mut r = Rng64::new(0xA110_C001);
        let mut vm = Vm::new();
        let mut heap = RedFatHeap::new(LowFatConfig {
            policy,
            ..LowFatConfig::default()
        });
        heap.install(&mut vm);
        // Live objects: (user pointer, size, fill byte).
        let mut live: Vec<(u64, u64, u8)> = Vec::new();
        for op in 0..TRAFFIC_OPS {
            let ctx = format!("{policy} op {op}");
            match r.below(10) {
                0..=3 => {
                    let cap = if r.below(10) == 0 { 1 << 16 } else { 512 };
                    let size = r.range_u64(1, cap + 1);
                    let fill = r.below(0x100) as u8;
                    let p = heap.malloc(&mut vm, size).expect("malloc succeeds");
                    vm.write_privileged(p, &vec![fill; size as usize]).unwrap();
                    check_object(&heap, &vm, p, size, true, &ctx);
                    check_disjoint(p, &live, &ctx);
                    live.push((p, size, fill));
                }
                4 => {
                    let (count, elem) = (r.range_u64(1, 33), r.range_u64(1, 65));
                    let p = heap.calloc(&mut vm, count, elem).expect("calloc succeeds");
                    let size = count * elem;
                    check_object(&heap, &vm, p, size, true, &ctx);
                    check_disjoint(p, &live, &ctx);
                    let data = vm.read_bytes(p, size as usize).unwrap();
                    assert!(data.iter().all(|&b| b == 0), "{ctx}: calloc not zeroed");
                    live.push((p, size, 0));
                }
                5 if !live.is_empty() => {
                    let i = r.below_usize(live.len());
                    let (p, old_size, fill) = live.swap_remove(i);
                    let new_size = r.range_u64(1, 1025);
                    let q = heap
                        .realloc(&mut vm, p, new_size)
                        .expect("realloc succeeds");
                    if layout::lowfat_base(q) != layout::lowfat_base(p) {
                        check_freed(&heap, &vm, p, &ctx);
                    }
                    check_object(&heap, &vm, q, new_size, false, &ctx);
                    check_disjoint(q, &live, &ctx);
                    let keep = old_size.min(new_size) as usize;
                    let data = vm.read_bytes(q, keep).unwrap();
                    assert!(
                        data.iter().all(|&b| b == fill),
                        "{ctx}: realloc lost contents"
                    );
                    vm.write_privileged(q, &vec![fill; new_size as usize])
                        .unwrap();
                    live.push((q, new_size, fill));
                }
                6..=9 if !live.is_empty() => {
                    let i = r.below_usize(live.len());
                    let (p, _, _) = live.swap_remove(i);
                    heap.free(&mut vm, p).expect("live object frees");
                    check_freed(&heap, &vm, p, &ctx);
                    // One free in four is followed by a second, which
                    // must be reported.
                    if r.below(4) == 0 {
                        let again = heap.free(&mut vm, p);
                        assert_eq!(again, Err(AllocError::DoubleFree(p)), "{ctx}");
                    }
                }
                _ => {}
            }
            assert_eq!(heap.stats().live as usize, live.len(), "{ctx}");
        }
        for (p, _, _) in live {
            heap.free(&mut vm, p).expect("live object frees");
        }
        assert_eq!(heap.stats().live, 0, "{policy}");
    }
}

#[test]
fn nonfat_pointers_never_get_bases() {
    let mut r = Rng64::new(0xA110_C002);
    for _ in 0..4096 {
        let addr = r.below(layout::heap_start());
        assert_eq!(layout::lowfat_base(addr), 0);
        assert_eq!(layout::lowfat_size(addr), u64::MAX);
    }
}

#[test]
fn magic_division_matches_u128_reference() {
    // The machine-code path computes base via mulhi(ptr, magic);
    // verify against exact 128-bit division for random pointers.
    let mut r = Rng64::new(0xA110_C003);
    for _ in 0..16_384 {
        let class = r.below_usize(layout::NUM_CLASSES) + 1;
        let offset = r.below(layout::REGION_SIZE);
        let ptr = layout::region_base(class) + offset;
        let size = layout::class_size(class);
        let magic = layout::class_magic(class);
        let q_magic = ((ptr as u128 * magic as u128) >> 64) as u64;
        assert_eq!(q_magic, ptr / size, "class {class} ptr {ptr:#x}");
    }
}

#[test]
fn state_partitions_the_object() {
    for policy in AllocPolicyKind::ALL {
        let mut r = Rng64::new(0xA110_C004);
        for _ in 0..64 {
            let size = r.range_u64(1, 2000);
            let mut vm = Vm::new();
            let mut heap = RedFatHeap::new(LowFatConfig {
                policy,
                ..LowFatConfig::default()
            });
            heap.install(&mut vm);
            let ptr = heap.malloc(&mut vm, size).unwrap();
            let base = layout::lowfat_base(ptr);
            let delta = heap.user_delta(base);
            let csize = layout::lowfat_size(ptr);
            for off in 0..csize.min(256) {
                let st = heap.state(&vm, base + off);
                // `state()` mirrors the emitted check: the extent covers
                // slack + user data; redzone below, padding above.
                let expect = if off < REDZONE_SIZE {
                    ObjState::Redzone
                } else if off - REDZONE_SIZE < delta + size {
                    ObjState::Allocated
                } else {
                    ObjState::Padding
                };
                assert_eq!(st, expect, "{policy} size {size} offset {off}");
            }
        }
    }
}

/// The satellite sweep: crafted interior/foreign/dangling pointers must
/// get conservative answers from every metadata query -- no panics, no
/// misattribution to a neighboring object, no state mutation from
/// rejected free/realloc calls.
#[test]
fn crafted_pointer_sweep_is_conservative() {
    for policy in AllocPolicyKind::ALL {
        let mut r = Rng64::new(0xC4AF_7ED0 ^ policy as u64);
        let mut vm = Vm::new();
        let mut heap = RedFatHeap::new(LowFatConfig {
            policy,
            seed: 99,
            ..LowFatConfig::default()
        });
        heap.install(&mut vm);

        // Ground truth: a population of live and freed objects across
        // classes, including zero-size and power-of-two-class objects.
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut freed: Vec<u64> = Vec::new();
        for _ in 0..96 {
            let size = match r.below(4) {
                0 => 0,
                1 => r.range_u64(1, 64),
                2 => r.range_u64(65, 1008),
                _ => r.range_u64(1009, 6000),
            };
            let p = heap.malloc(&mut vm, size).expect("allocs succeed");
            live.push((p, size));
        }
        for _ in 0..32 {
            let (p, _) = live.swap_remove(r.below_usize(live.len()));
            heap.free(&mut vm, p).expect("live frees");
            freed.push(p);
        }
        let truth_size = |ptr: u64| -> Option<u64> {
            live.iter()
                .find(|(p, s)| ptr >= *p && ptr < p + *s)
                .map(|(_, s)| *s)
        };
        let live_ptrs: std::collections::HashSet<u64> = live.iter().map(|(p, _)| *p).collect();

        // Crafted pointers: pure random, near-heap, and perturbations of
        // real (live and dangling) pointers.
        let mut crafted: Vec<u64> = Vec::new();
        for _ in 0..512 {
            crafted.push(match r.below(6) {
                0 => r.next_u64(),
                1 => r.below(layout::heap_start()),
                2 => layout::heap_end().saturating_add(r.below(1 << 40)),
                3 => {
                    let (p, _) = live[r.below_usize(live.len())];
                    p.wrapping_add(r.range_i64(-96, 96) as u64)
                }
                4 => freed[r.below_usize(freed.len())].wrapping_add(r.range_i64(-32, 32) as u64),
                _ => {
                    let class = r.below_usize(layout::NUM_CLASSES) + 1;
                    layout::region_base(class) + r.below(layout::REGION_SIZE)
                }
            });
        }
        crafted.extend([0, 1, u64::MAX, layout::heap_start(), layout::heap_end() - 1]);

        for &ptr in &crafted {
            // Never panic, whatever the pointer.
            let base = heap.slot_base(ptr);
            let ssize = heap.slot_size(ptr);
            let osize = heap.object_size(&vm, ptr);
            let state = heap.state(&vm, ptr);
            let _ = heap.check_canary(&vm, ptr);

            // base/size are the pure §2.1 functions: base never exceeds
            // the pointer and never crosses a region boundary.
            if base != 0 {
                assert!(base <= ptr, "{policy}: base {base:#x} > ptr {ptr:#x}");
                assert_eq!(
                    layout::region_index(base),
                    layout::region_index(ptr),
                    "{policy}: base crossed a region boundary"
                );
                assert!(ptr - base < ssize);
            } else {
                assert_eq!(state, ObjState::NonFat, "{policy}: {ptr:#x}");
            }

            // object_size never misattributes: a Some answer must match
            // a live object whose user area really contains the pointer.
            match (osize, truth_size(ptr)) {
                (Some(got), Some(want)) => {
                    assert_eq!(got, want, "{policy}: {ptr:#x}")
                }
                (Some(got), None) => {
                    panic!("{policy}: {ptr:#x} attributed to a {got}-byte object")
                }
                (None, _) => {} // conservative answers are always fine
            }

            // Rejected free/realloc calls must not disturb the heap.
            // (ptr == 0 is exempt: realloc(0, n) is malloc by contract.)
            if ptr != 0 && !live_ptrs.contains(&ptr) {
                let stats = heap.stats();
                assert!(heap.free(&mut vm, ptr).is_err(), "{policy}: {ptr:#x}");
                assert!(
                    heap.realloc(&mut vm, ptr, 32).is_err(),
                    "{policy}: {ptr:#x}"
                );
                assert_eq!(heap.stats(), stats, "{policy}: {ptr:#x} mutated state");
                for &(p, s) in live.iter().take(8) {
                    let want = if s == 0 { None } else { Some(s) };
                    assert_eq!(heap.object_size(&vm, p), want, "{policy}");
                }
            }
        }
    }
}
