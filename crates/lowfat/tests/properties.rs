//! Randomized tests over the allocator policies and the RedFat wrapper:
//! the base/size laws of §2.1, structural invariants under random
//! malloc/free traffic, and a crafted-pointer sweep pinning conservative
//! metadata answers -- all driven by deterministic seeded generators and
//! run against every registered policy.

use redfat_lowfat::{AllocPolicyKind, LowFatConfig, ObjState, RedFatHeap, REDZONE_SIZE};
use redfat_vm::{layout, Rng64};

#[derive(Debug, Clone)]
enum Op {
    Malloc(u64),
    FreeNth(usize),
}

fn random_script(r: &mut Rng64) -> Vec<Op> {
    let n = r.below_usize(119) + 1;
    (0..n)
        .map(|_| {
            if r.coin() {
                Op::Malloc(r.range_u64(1, 5000))
            } else {
                Op::FreeNth(r.below_usize(64))
            }
        })
        .collect()
}

#[test]
fn allocator_invariants_under_random_traffic() {
    for policy in AllocPolicyKind::ALL {
        let mut r = Rng64::new(0xA110_C001);
        for case in 0..128 {
            let script = random_script(&mut r);
            let randomize = r.coin();
            let mut vm = redfat_vm::Vm::new();
            let mut heap = RedFatHeap::new(LowFatConfig {
                policy,
                randomize,
                seed: 1234,
                ..LowFatConfig::default()
            });
            heap.install(&mut vm);

            let mut live: Vec<(u64, u64)> = Vec::new(); // (ptr, size)
            for op in script {
                match op {
                    Op::Malloc(size) => {
                        let ptr = heap.malloc(&mut vm, size).expect("small allocs succeed");
                        // Law 1: user pointer = base + 16 + delta, base is
                        // class-aligned, delta respects the slot contract.
                        let base = layout::lowfat_base(ptr);
                        let delta = heap.user_delta(base);
                        assert_eq!(ptr, base + REDZONE_SIZE + delta, "{policy} case {case}");
                        if policy == AllocPolicyKind::LowFat {
                            assert_eq!(delta, 0, "default policy never offsets");
                        }
                        assert_eq!(delta % 16, 0, "user pointers stay aligned");
                        let class = layout::region_index(ptr);
                        assert!((1..=layout::NUM_CLASSES).contains(&class));
                        let csize = layout::class_size(class);
                        assert_eq!(base % csize, 0);
                        assert!(delta + size + REDZONE_SIZE <= csize);
                        // Law 2: every interior pointer maps back to base.
                        for probe in [0, size / 2, size.saturating_sub(1)] {
                            assert_eq!(layout::lowfat_base(ptr + probe), base);
                            assert_eq!(layout::lowfat_size(ptr + probe), csize);
                        }
                        // Law 3: metadata reflects the malloc size (the
                        // extent word holds delta + size).
                        assert_eq!(heap.object_size(&vm, ptr), Some(size));
                        assert_eq!(vm.read_u64(base).unwrap(), delta + size);
                        // Law 4: no overlap with any live object.
                        for &(other, _osize) in &live {
                            let a0 = base;
                            let a1 = base + csize;
                            let b0 = layout::lowfat_base(other);
                            let b1 = b0 + layout::lowfat_size(other);
                            assert!(a1 <= b0 || b1 <= a0, "overlap {a0:#x} {b0:#x}");
                        }
                        live.push((ptr, size));
                    }
                    Op::FreeNth(n) => {
                        if !live.is_empty() {
                            let (ptr, _) = live.swap_remove(n % live.len());
                            heap.free(&mut vm, ptr).expect("live object frees");
                            // Freed metadata reads as Free (extent 0).
                            assert_eq!(heap.object_size(&vm, ptr), None);
                        }
                    }
                }
            }

            // Stats agree with the script.
            let stats = heap.stats();
            assert_eq!(stats.live as usize, live.len(), "{policy} case {case}");
        }
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
            let mut vm = redfat_vm::Vm::new();
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
        let mut vm = redfat_vm::Vm::new();
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
