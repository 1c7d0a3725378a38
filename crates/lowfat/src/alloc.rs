//! The low-fat slot allocator: one subheap per size class in its 32 GiB
//! region, with the slot supply picked by [`LowFatConfig::policy`].

use std::collections::{HashMap, HashSet, VecDeque};

use redfat_vm::layout;
use redfat_vm::{Prot, Rng64, Vm};

use crate::AllocPolicyKind;

/// An allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Request exceeds the largest size class.
    TooLarge(u64),
    /// Subheap region exhausted.
    OutOfMemory,
    /// `free` of a pointer that is not an allocation base.
    InvalidFree(u64),
    /// `free` of an object that is already free.
    DoubleFree(u64),
    /// `calloc(count, elem)` whose byte count overflows `u64`.
    CallocOverflow {
        /// Element count.
        count: u64,
        /// Element size.
        elem: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::TooLarge(s) => write!(f, "allocation of {s} bytes exceeds largest class"),
            AllocError::OutOfMemory => write!(f, "subheap exhausted"),
            AllocError::InvalidFree(p) => write!(f, "invalid free of {p:#x}"),
            AllocError::DoubleFree(p) => write!(f, "double free of {p:#x}"),
            AllocError::CallocOverflow { count, elem } => {
                write!(f, "calloc({count}, {elem}) byte count overflows")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Allocator configuration.
#[derive(Debug, Clone)]
pub struct LowFatConfig {
    /// Which slot supply backs the heap (the `--alloc-policy` knob).
    pub policy: AllocPolicyKind,
    /// RNG seed of the randomized policy.
    pub seed: u64,
    /// Bytes of address space each subheap may use before reporting OOM.
    /// Defaults to 16 MiB per class, ample for the workloads while keeping
    /// the simulated segments small.
    pub subheap_limit: u64,
    /// How many freed objects are quarantined before becoming reusable.
    /// Delayed reuse is what gives the `SIZE == 0` use-after-free check
    /// time to catch dangling accesses.
    pub quarantine: usize,
}

impl Default for LowFatConfig {
    fn default() -> LowFatConfig {
        LowFatConfig {
            policy: AllocPolicyKind::LowFat,
            seed: 0x5EED_F00D,
            subheap_limit: 16 << 20,
            quarantine: 64,
        }
    }
}

/// Allocation statistics (for experiments and diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Current live objects.
    pub live: u64,
    /// Peak live objects.
    pub peak_live: u64,
    /// Total bytes requested.
    pub bytes_requested: u64,
}

/// Target byte span of the randomized window's first mapping per class.
/// Small classes get thousands of candidate slots; classes larger than
/// the target start with one slot plus the guard and grow on demand.
const WINDOW_TARGET: u64 = 256 << 10;

/// Upper bound on the randomized allocation offset.
const MAX_DELTA: u64 = 64;

/// Where a subheap's next slot comes from.
enum Supply {
    /// The paper's bump-or-reuse: the most recently released slot, else
    /// a fresh one at the bump frontier, mapped in 64 KiB steps; the user
    /// area always starts right after the redzone (offset 0).
    BumpOrReuse,
    /// The randomized window (Fully Randomized Pointers style): a random
    /// slot from a mapped window whose last slot stays an unallocated
    /// guard, and a random 16-byte-aligned offset within the slot's
    /// padding. A pointer that skips one class size past an object then
    /// lands, with probability `~(1 - occupancy)`, in a free slot
    /// (`E == 0` metadata) -- the neighbor skip that bump order hides
    /// (EXPERIMENTS.md). Deterministic per seed, so the two runs of a
    /// lockstep pair see the same pointer stream.
    Window(Rng64),
}

/// One size class's slots.
struct Subheap {
    /// First slot base: the smallest multiple of the class size at or
    /// above the region base. Slots sit at *global* multiples of their
    /// size, which makes `base(ptr)` a pure function of the pointer
    /// (paper §2.1).
    first: u64,
    /// Slots below this have been handed out or released into `free`.
    next_fresh: u64,
    /// End of the mapped part of the region (exclusive).
    mapped_end: u64,
    /// Slots ready for reuse.
    free: Vec<u64>,
    /// Recently freed slots, oldest first (delayed reuse).
    quarantine: VecDeque<u64>,
    /// Slots holding a live object.
    live: HashSet<u64>,
}

impl Subheap {
    fn new(class: usize) -> Subheap {
        let size = layout::class_size(class);
        let region = layout::region_base(class);
        let first = region.div_ceil(size) * size;
        Subheap {
            first,
            next_fresh: first,
            mapped_end: region,
            free: Vec::new(),
            quarantine: VecDeque::new(),
            live: HashSet::new(),
        }
    }

    /// Maps (or grows) the class's segment up to `end`. A window under a
    /// subheap limit below 64 KiB already fits the head the runtime
    /// install mapped.
    fn map_to(&mut self, vm: &mut Vm, class: usize, end: u64) {
        let region = layout::region_base(class);
        match vm.segment_span(region) {
            Some((_, len)) if len > end - region => {}
            Some(_) => vm.grow(region, end - region),
            None => vm.map(region, end - region, Prot::RW, &format!("subheap{class}")),
        }
        self.mapped_end = end;
    }

    /// Bump-or-reuse: the last released slot, else a fresh one.
    fn bump_or_reuse(&mut self, vm: &mut Vm, class: usize, limit: u64) -> Option<u64> {
        if let Some(base) = self.free.pop() {
            return Some(base);
        }
        let base = self.next_fresh;
        let end = base + layout::class_size(class);
        let region = layout::region_base(class);
        if end - region > limit {
            return None;
        }
        if end > self.mapped_end {
            self.map_to(
                vm,
                class,
                region + (end - region).next_multiple_of(64 << 10),
            );
        }
        self.next_fresh = end;
        Some(base)
    }

    /// Grows the randomized window and releases its new slots into
    /// `free`: first to [`WINDOW_TARGET`], then by doubling, capped by
    /// `limit`, always by at least one slot plus the guard. The old guard
    /// becomes allocatable and the new last slot is the guard. False when
    /// the limit leaves no room.
    fn grow_window(&mut self, vm: &mut Vm, class: usize, limit: u64) -> bool {
        let csize = layout::class_size(class);
        let region = layout::region_base(class);
        let used = self.mapped_end - region;
        if used + 2 * csize > limit {
            return false;
        }
        let want = if used == 0 {
            WINDOW_TARGET.max(2 * csize)
        } else {
            used * 2
        };
        let new_end = region + want.min(limit).max(used + 2 * csize);
        self.map_to(vm, class, new_end);
        let guard = ((new_end - self.first) / csize).saturating_sub(1) * csize + self.first;
        let grew = guard > self.next_fresh;
        while self.next_fresh < guard {
            self.free.push(self.next_fresh);
            self.next_fresh += csize;
        }
        grew
    }
}

/// The slot allocator behind [`RedFatHeap`](crate::RedFatHeap).
///
/// Owns only bookkeeping; guest memory is reached through the [`Vm`]
/// passed in. It deals in raw slots: padded sizes already include the
/// redzone, and the wrapper writes the metadata words.
pub(crate) struct SlotAlloc {
    config: LowFatConfig,
    supply: Supply,
    subheaps: Vec<Subheap>,
    stats: AllocStats,
    /// Last allocation offset handed out per slot under the randomized
    /// window. Entries outlive frees (overwritten on reuse) so double-free
    /// reporting can rebuild the freed object's user pointer and tell a
    /// slot handed out before from one never handed out; absent means
    /// offset 0.
    deltas: HashMap<u64, u64>,
}

impl SlotAlloc {
    pub(crate) fn new(config: LowFatConfig) -> SlotAlloc {
        let supply = match config.policy {
            AllocPolicyKind::LowFat => Supply::BumpOrReuse,
            AllocPolicyKind::RandLowFat => {
                Supply::Window(Rng64::new(config.seed ^ 0x7A4D_10F7_A75E_ED01))
            }
        };
        SlotAlloc {
            config,
            supply,
            subheaps: (1..=layout::NUM_CLASSES).map(Subheap::new).collect(),
            stats: AllocStats::default(),
            deltas: HashMap::new(),
        }
    }

    pub(crate) fn policy(&self) -> AllocPolicyKind {
        self.config.policy
    }

    /// Places an object of `padded` bytes (user size plus redzone) and
    /// returns its slot base and allocation offset, with
    /// `offset % 16 == 0` and `offset + padded <= class size`.
    pub(crate) fn alloc(&mut self, vm: &mut Vm, padded: u64) -> Result<(u64, u64), AllocError> {
        let class = layout::class_for_size(padded).ok_or(AllocError::TooLarge(padded))?;
        let limit = self.config.subheap_limit;
        let heap = &mut self.subheaps[class - 1];
        while heap.quarantine.len() > self.config.quarantine {
            let base = heap.quarantine.pop_front().expect("non-empty");
            heap.free.push(base);
        }
        let (base, delta) = match &mut self.supply {
            Supply::BumpOrReuse => {
                let base = heap
                    .bump_or_reuse(vm, class, limit)
                    .ok_or(AllocError::OutOfMemory)?;
                (base, 0)
            }
            Supply::Window(rng) => {
                if heap.free.is_empty() && !heap.grow_window(vm, class, limit) {
                    return Err(AllocError::OutOfMemory);
                }
                let base = heap.free.swap_remove(rng.below_usize(heap.free.len()));
                let slack = (layout::class_size(class) - padded).min(MAX_DELTA);
                let delta = 16 * rng.below(slack / 16 + 1);
                self.deltas.insert(base, delta);
                (base, delta)
            }
        };
        heap.live.insert(base);
        self.stats.allocs += 1;
        self.stats.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.bytes_requested += padded;
        Ok((base, delta))
    }

    /// Retires the live object at slot `base` into the quarantine; the
    /// slot stays mapped, so dangling reads see `E == 0` metadata. Freeing
    /// a slot that is not live is a double free of the guest pointer
    /// `ptr` if this heap handed the slot out before, else an invalid one.
    pub(crate) fn free(&mut self, base: u64, ptr: u64) -> Result<(), AllocError> {
        let class = layout::region_index(base);
        if !(1..=layout::NUM_CLASSES).contains(&class) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let heap = &mut self.subheaps[class - 1];
        if !heap.live.remove(&base) {
            // Bump order hands out exactly the slots below its frontier;
            // the window records the offset of each slot it hands out.
            let handed_out = match self.supply {
                Supply::BumpOrReuse => {
                    base.is_multiple_of(layout::class_size(class))
                        && (heap.first..heap.next_fresh).contains(&base)
                }
                Supply::Window(_) => self.deltas.contains_key(&base),
            };
            let error = if handed_out {
                AllocError::DoubleFree
            } else {
                AllocError::InvalidFree
            };
            return Err(error(ptr));
        }
        heap.quarantine.push_back(base);
        self.stats.frees += 1;
        self.stats.live -= 1;
        Ok(())
    }

    /// The allocation offset of the object at slot `base`, or of the last
    /// object there once it is freed; 0 for a slot never offset.
    pub(crate) fn delta_of(&self, base: u64) -> u64 {
        self.deltas.get(&base).copied().unwrap_or(0)
    }

    /// Whether slot `base` holds a live object: the tie breaker for the
    /// one state the merged metadata cannot express, since a live
    /// zero-size object also reads `E == 0`.
    pub(crate) fn slot_is_live(&self, base: u64) -> bool {
        let class = layout::region_index(base);
        (1..=layout::NUM_CLASSES).contains(&class) && self.subheaps[class - 1].live.contains(&base)
    }

    pub(crate) fn stats(&self) -> AllocStats {
        self.stats
    }
}

/// Installs the guest-side runtime state: the SIZES/MAGICS tables plus
/// region head/tail guards. The same under both supply rules, because
/// generated check code reads only this (DESIGN.md §14).
///
/// This is the reproduction's `LD_PRELOAD` analogue: without it every
/// table lookup yields 0 and all checks degenerate to no-ops, exactly
/// like running a RedFat binary without `libredfat.so`.
pub(crate) fn install_runtime_tables(vm: &mut Vm) {
    if !vm.is_mapped(layout::RUNTIME_BASE) {
        let size = layout::SCRATCH_BASE + layout::SCRATCH_SIZE - layout::RUNTIME_BASE;
        vm.map(layout::RUNTIME_BASE, size, Prot::RW, "libredfat");
    }
    // Reserve the head of every subheap region (zeroed ⇒ any metadata
    // read there sees SIZE == 0 ⇒ Free). The real allocator reserves
    // whole regions up front; this keeps cross-region stray pointers
    // (e.g. `array - K` landing in the previous region) reporting a
    // clean memory error instead of a segmentation fault.
    for class in 1..=layout::NUM_CLASSES {
        let region = layout::region_base(class);
        if !vm.is_mapped(region) {
            vm.map(region, 64 << 10, Prot::RW, &format!("subheap{class}"));
        }
        // Tail guard: stray pointers that underflow into the *end* of
        // a neighboring region (the `array - K` anti-idiom) must read
        // zeroed metadata, not fault.
        let tail = layout::region_base(class + 1) - (64 << 10);
        if !vm.is_mapped(tail) {
            vm.map(tail, 64 << 10, Prot::RW, &format!("subheap{class}.tail"));
        }
    }
    for (i, v) in layout::sizes_table().iter().enumerate() {
        vm.write_privileged(layout::SIZES_TABLE + 8 * i as u64, &v.to_le_bytes())
            .expect("runtime page mapped");
    }
    for (i, v) in layout::magics_table().iter().enumerate() {
        vm.write_privileged(layout::MAGICS_TABLE + 8 * i as u64, &v.to_le_bytes())
            .expect("runtime page mapped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(config: LowFatConfig) -> (SlotAlloc, Vm) {
        let mut vm = Vm::new();
        install_runtime_tables(&mut vm);
        (SlotAlloc::new(config), vm)
    }

    fn with(policy: AllocPolicyKind) -> LowFatConfig {
        LowFatConfig {
            policy,
            ..LowFatConfig::default()
        }
    }

    #[test]
    fn placements_respect_the_slot_contract() {
        for policy in AllocPolicyKind::ALL {
            let (mut a, mut vm) = setup(with(policy));
            for padded in [17u64, 32, 48, 64, 100, 1024, 1025, 4096, 5000, 1 << 20] {
                let (base, delta) = a.alloc(&mut vm, padded).unwrap();
                let class = layout::class_for_size(padded).unwrap();
                let csize = layout::class_size(class);
                let ctx = format!("{policy} padded {padded}");
                assert_eq!(base % csize, 0, "{ctx}");
                assert_eq!(layout::region_index(base), class, "{ctx}");
                assert_eq!(layout::lowfat_base(base + padded / 2), base, "{ctx}");
                assert_eq!(delta % 16, 0, "{ctx}");
                assert!(delta + padded <= csize, "{ctx}");
                assert_eq!(a.delta_of(base), delta, "{ctx}");
                assert!(a.slot_is_live(base), "{ctx}");
                // The slot is usable memory from metadata to padding end.
                vm.write_u64(base, 0x1234).unwrap();
                vm.write_u64(base + csize - 8, 0x5678).unwrap();
                assert_eq!(vm.read_u64(base).unwrap(), 0x1234, "{ctx}");
                assert_eq!(vm.read_u64(base + csize - 8).unwrap(), 0x5678, "{ctx}");
                // Under the window, the next slot up is a readable guard
                // or another slot of the window.
                if policy == AllocPolicyKind::RandLowFat {
                    assert!(vm.read_u64(base + csize).is_ok(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn slots_are_never_handed_out_twice() {
        for policy in AllocPolicyKind::ALL {
            let (mut a, mut vm) = setup(with(policy));
            let mut seen = HashSet::new();
            for _ in 0..1000 {
                let (base, _) = a.alloc(&mut vm, 48).unwrap();
                assert!(
                    seen.insert(base),
                    "{policy}: slot {base:#x} handed out twice"
                );
            }
        }
    }

    #[test]
    fn slot_order_follows_the_policy() {
        let order = |policy, seed| -> Vec<u64> {
            let (mut a, mut vm) = setup(LowFatConfig {
                seed,
                ..with(policy)
            });
            (0..32).map(|_| a.alloc(&mut vm, 48).unwrap().0).collect()
        };
        // Bump order: consecutive slots, whatever the seed.
        let bump = order(AllocPolicyKind::LowFat, 1);
        assert!(bump.windows(2).all(|w| w[1] == w[0] + 48));
        assert_eq!(bump, order(AllocPolicyKind::LowFat, 2));
        // The window: random order, deterministic per seed.
        let a = order(AllocPolicyKind::RandLowFat, 1);
        assert_eq!(
            a,
            order(AllocPolicyKind::RandLowFat, 1),
            "same seed, same stream"
        );
        assert_ne!(
            a,
            order(AllocPolicyKind::RandLowFat, 2),
            "different seed, different stream"
        );
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_ne!(a, sorted, "selection is not bump order");
    }

    #[test]
    fn offsets_use_only_the_slot_padding() {
        // padded == class size: no padding, no offset.
        let (mut a, mut vm) = setup(with(AllocPolicyKind::RandLowFat));
        assert_eq!(a.alloc(&mut vm, 64).unwrap().1, 0);
        // 2 KiB class with ~1.1 KiB padded: offsets vary. (The
        // 16-byte-spaced classes never have >= 16 bytes of padding, so
        // offsets only materialize in the power-of-two classes.)
        let deltas: HashSet<u64> = (0..64).map(|_| a.alloc(&mut vm, 1100).unwrap().1).collect();
        assert!(deltas.len() > 1, "offsets never varied: {deltas:?}");
        assert!(deltas.iter().all(|d| d % 16 == 0 && *d <= MAX_DELTA));
        // Bump-or-reuse never offsets.
        let (mut a, mut vm) = setup(with(AllocPolicyKind::LowFat));
        assert!((0..64).all(|_| a.alloc(&mut vm, 1100).unwrap().1 == 0));
    }

    #[test]
    fn freed_slot_is_reused_once_the_quarantine_drains() {
        for policy in AllocPolicyKind::ALL {
            let (mut a, mut vm) = setup(LowFatConfig {
                quarantine: 0,
                ..with(policy)
            });
            // 1 MiB slots: the window's first mapping holds one slot plus
            // its guard, so the freed slot is the only one to hand out.
            let (p, _) = a.alloc(&mut vm, 1 << 20).unwrap();
            a.free(p, p + 16).unwrap();
            assert!(!a.slot_is_live(p), "{policy}");
            assert_eq!(a.alloc(&mut vm, 1 << 20).unwrap().0, p, "{policy}");
            assert!(a.slot_is_live(p), "{policy}");
        }
    }

    #[test]
    fn quarantine_delays_reuse() {
        for policy in AllocPolicyKind::ALL {
            let (mut a, mut vm) = setup(with(policy));
            let (p, _) = a.alloc(&mut vm, 32).unwrap();
            a.free(p, p + 16).unwrap();
            // One freed slot never overflows a 64-deep quarantine.
            for _ in 0..200 {
                let (q, _) = a.alloc(&mut vm, 32).unwrap();
                assert_ne!(p, q, "{policy}: quarantined slot reused");
            }
        }
    }

    #[test]
    fn invalid_and_double_free_detected() {
        for policy in AllocPolicyKind::ALL {
            let (mut a, mut vm) = setup(with(policy));
            // Errors name the guest's pointer, not the slot base.
            let code = layout::CODE_BASE;
            assert_eq!(
                a.free(code, code + 16),
                Err(AllocError::InvalidFree(code + 16)),
                "{policy}"
            );
            let (p, _) = a.alloc(&mut vm, 32).unwrap();
            assert_eq!(
                a.free(p + 8, p + 8),
                Err(AllocError::InvalidFree(p + 8)),
                "{policy}"
            );
            // A slot past the frontier and the window was never handed out.
            let far = p + (8 << 20);
            assert_eq!(
                a.free(far, far + 16),
                Err(AllocError::InvalidFree(far + 16)),
                "{policy}"
            );
            let before = a.stats();
            a.free(p, p + 16).unwrap();
            assert_eq!(
                a.free(p, p + 16),
                Err(AllocError::DoubleFree(p + 16)),
                "{policy}"
            );
            assert_eq!(a.stats().frees, before.frees + 1, "{policy}");
        }
    }

    #[test]
    fn too_large_rejected() {
        for policy in AllocPolicyKind::ALL {
            let (mut a, mut vm) = setup(with(policy));
            let max = layout::class_size(layout::NUM_CLASSES);
            assert_eq!(
                a.alloc(&mut vm, max + 1),
                Err(AllocError::TooLarge(max + 1))
            );
            assert_eq!(a.stats(), AllocStats::default(), "{policy}");
        }
        // The largest class fits a default subheap under bump order; the
        // window also needs room for its guard slot.
        let (mut a, mut vm) = setup(with(AllocPolicyKind::LowFat));
        assert!(a
            .alloc(&mut vm, layout::class_size(layout::NUM_CLASSES))
            .is_ok());
    }

    #[test]
    fn oom_at_the_subheap_limit() {
        for policy in AllocPolicyKind::ALL {
            // The window keeps its last mapped slot as a guard.
            let guard = u64::from(policy == AllocPolicyKind::RandLowFat);
            for (limit, padded) in [(1024u64, 256u64), (8 << 20, 1 << 20)] {
                let (mut a, mut vm) = setup(LowFatConfig {
                    subheap_limit: limit,
                    quarantine: 0,
                    ..with(policy)
                });
                let mut n = 0;
                loop {
                    match a.alloc(&mut vm, padded) {
                        Ok(_) => n += 1,
                        Err(AllocError::OutOfMemory) => break,
                        Err(e) => panic!("{policy}: unexpected {e}"),
                    }
                }
                assert_eq!(n, limit / padded - guard, "{policy}: limit {limit}");
            }
        }
    }

    #[test]
    fn stats_track_lifecycle() {
        for policy in AllocPolicyKind::ALL {
            let (mut a, mut vm) = setup(with(policy));
            let (p, _) = a.alloc(&mut vm, 100).unwrap();
            a.alloc(&mut vm, 100).unwrap();
            a.free(p, p + 16).unwrap();
            let s = a.stats();
            assert_eq!(s.allocs, 2, "{policy}");
            assert_eq!(s.frees, 1, "{policy}");
            assert_eq!(s.live, 1, "{policy}");
            assert_eq!(s.peak_live, 2, "{policy}");
            assert_eq!(s.bytes_requested, 200, "{policy}");
        }
    }

    #[test]
    fn install_writes_tables() {
        let (_a, vm) = setup(LowFatConfig::default());
        assert_eq!(vm.read_u64(layout::SIZES_TABLE).unwrap(), 0);
        assert_eq!(vm.read_u64(layout::SIZES_TABLE + 8).unwrap(), 16);
        assert_eq!(
            vm.read_u64(layout::MAGICS_TABLE + 8).unwrap(),
            layout::class_magic(1)
        );
    }
}
