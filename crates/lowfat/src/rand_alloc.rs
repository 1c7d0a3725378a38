//! Randomized low-fat placement (Fully Randomized Pointers style).
//!
//! Same slot discipline as the default policy -- objects occupy
//! class-size-aligned slots inside the class's 32 GiB region, so
//! `base(ptr)`/`size(ptr)` stay pure functions of the pointer -- but
//! placement is randomized along two axes:
//!
//! * **Random slot selection.** Instead of bump-allocating consecutive
//!   slots, the policy maps a window of slots up front and hands them
//!   out in random order. A pointer that skips exactly one class size
//!   past an object therefore lands in a slot that is, with probability
//!   `~(1 - occupancy)`, *free* (`E == 0` metadata) -- turning the
//!   computed-pointer neighbor-skip the deterministic policy cannot see
//!   into a detected error (EXPERIMENTS.md).
//! * **Randomized allocation offsets.** When the slot has padding to
//!   spare, the user area is shifted by a random 16-byte-aligned
//!   `delta`, so object addresses are not predictable even within a
//!   slot. The metadata extent `E = delta + size` keeps the emitted
//!   merged check exact at the object's end; the `delta` bytes of front
//!   slack are check-invisible (the documented trade-off: small
//!   underflows into the slack are missed, where the default policy's
//!   adjacent redzone catches them deterministically).
//!
//! Placement is deterministic per seed, which is what lets the lockstep
//! oracle run baseline and hardened images against two *independent*
//! policy instances and still expect identical pointer streams.

use std::collections::{HashMap, HashSet, VecDeque};

use redfat_vm::layout;
use redfat_vm::Rng64;
use redfat_vm::Vm;

use crate::alloc::{install_runtime_tables, AllocError, AllocStats, LowFatConfig};
use crate::policy::{AllocPolicy, AllocPolicyKind, Placement};

/// Target byte span of the initially mapped slot window per class.
/// Small classes get thousands of candidate slots; classes larger than
/// the target degrade to one slot and grow on demand.
const WINDOW_TARGET: u64 = 256 << 10;

/// Upper bound on the randomized allocation offset.
const MAX_DELTA: u64 = 64;

struct RandSubheap {
    /// First slot base in the region (smallest in-region multiple of the
    /// class size).
    first: u64,
    /// End of the mapped window (exclusive). Includes one trailing guard
    /// slot that is mapped but never handed out, so a one-slot skip past
    /// the last live slot still reads zeroed metadata.
    mapped_end: u64,
    /// Slot bases available for allocation, in no particular order.
    free: Vec<u64>,
    /// Recently freed slot bases, oldest first (delayed reuse).
    quarantine: VecDeque<u64>,
    /// Currently live slot bases.
    live: HashSet<u64>,
}

impl RandSubheap {
    fn new(class: usize) -> RandSubheap {
        let size = layout::class_size(class);
        let region = layout::region_base(class);
        let first = region.div_ceil(size) * size;
        RandSubheap {
            first,
            mapped_end: region,
            free: Vec::new(),
            quarantine: VecDeque::new(),
            live: HashSet::new(),
        }
    }
}

/// The randomized low-fat allocator policy.
pub struct RandLowFatAlloc {
    config: LowFatConfig,
    subheaps: Vec<RandSubheap>,
    rng: Rng64,
    stats: AllocStats,
    /// Last allocation offset handed out per slot base. Entries persist
    /// across frees (overwritten on reuse) so double-free reporting can
    /// reconstruct the user pointer of the freed object.
    deltas: HashMap<u64, u64>,
}

impl RandLowFatAlloc {
    /// Creates the policy with the given configuration, randomized from
    /// `config.seed`.
    pub fn new(config: LowFatConfig) -> RandLowFatAlloc {
        let rng = Rng64::new(config.seed ^ 0x7A4D_10F7_A75E_ED01);
        RandLowFatAlloc {
            config,
            subheaps: (1..=layout::NUM_CLASSES).map(RandSubheap::new).collect(),
            rng,
            stats: AllocStats::default(),
            deltas: HashMap::new(),
        }
    }

    /// Grows the mapped window of `class` and refills the free pool.
    /// Returns false when the subheap limit is exhausted.
    fn grow_window(&mut self, vm: &mut Vm, class: usize) -> bool {
        let heap = &mut self.subheaps[class - 1];
        let csize = layout::class_size(class);
        let region = layout::region_base(class);
        let used = heap.mapped_end.saturating_sub(region);
        // Growing needs room for at least one new slot plus the guard.
        if used + 2 * csize > self.config.subheap_limit {
            return false;
        }
        // First growth maps WINDOW_TARGET (at least two slots: one to
        // hand out plus the trailing guard); later growths double the
        // window. Always capped by the subheap limit.
        let want = if used == 0 {
            WINDOW_TARGET.max(2 * csize)
        } else {
            used * 2
        };
        let new_used = want.min(self.config.subheap_limit).max(used + 2 * csize);
        let new_end = region + new_used;
        if !vm.is_mapped(region) {
            vm.map(
                region,
                new_used,
                redfat_vm::Prot::RW,
                &format!("subheap{class}"),
            );
        } else {
            vm.grow(region, new_used);
        }
        // Register every complete slot in the new window except the last
        // one, which stays a mapped guard.
        let old_slots_end = if heap.mapped_end <= heap.first {
            heap.first
        } else {
            // Previous guard slot becomes allocatable now that the
            // window extends past it.
            (heap.mapped_end - heap.first) / csize * csize + heap.first - csize
        };
        let new_slots_end = ((new_end - heap.first) / csize).saturating_sub(1) * csize + heap.first;
        let mut slot = old_slots_end;
        while slot < new_slots_end {
            heap.free.push(slot);
            slot += csize;
        }
        heap.mapped_end = new_end;
        new_slots_end > old_slots_end
    }
}

impl AllocPolicy for RandLowFatAlloc {
    fn kind(&self) -> AllocPolicyKind {
        AllocPolicyKind::RandLowFat
    }

    fn install(&self, vm: &mut Vm) {
        install_runtime_tables(vm);
    }

    fn alloc_object(&mut self, vm: &mut Vm, padded: u64) -> Result<Placement, AllocError> {
        let class = layout::class_for_size(padded).ok_or(AllocError::TooLarge(padded))?;
        let csize = layout::class_size(class);
        {
            let heap = &mut self.subheaps[class - 1];
            // Overflow quarantine into the free pool.
            while heap.quarantine.len() > self.config.quarantine {
                let base = heap.quarantine.pop_front().expect("non-empty");
                heap.free.push(base);
            }
        }
        if self.subheaps[class - 1].free.is_empty() && !self.grow_window(vm, class) {
            return Err(AllocError::OutOfMemory);
        }
        let heap = &mut self.subheaps[class - 1];
        if heap.free.is_empty() {
            return Err(AllocError::OutOfMemory);
        }
        let idx = self.rng.below_usize(heap.free.len());
        let base = heap.free.swap_remove(idx);
        // Randomized allocation offset within the slot's padding.
        let slack = (csize - padded).min(MAX_DELTA);
        let delta = 16 * self.rng.below(slack / 16 + 1);
        heap.live.insert(base);
        self.deltas.insert(base, delta);
        self.stats.allocs += 1;
        self.stats.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.bytes_requested += padded;
        Ok(Placement { base, delta })
    }

    fn free_object(&mut self, _vm: &mut Vm, base: u64) -> Result<(), AllocError> {
        let class = layout::region_index(base);
        if class == 0 || class > layout::NUM_CLASSES {
            return Err(AllocError::InvalidFree(base));
        }
        let csize = layout::class_size(class);
        if !base.is_multiple_of(csize) {
            return Err(AllocError::InvalidFree(base));
        }
        let heap = &mut self.subheaps[class - 1];
        if !heap.live.remove(&base) {
            if heap.free.contains(&base) || heap.quarantine.contains(&base) {
                return Err(AllocError::DoubleFree(base));
            }
            return Err(AllocError::InvalidFree(base));
        }
        heap.quarantine.push_back(base);
        self.stats.frees += 1;
        self.stats.live = self.stats.live.saturating_sub(1);
        Ok(())
    }

    fn delta_of(&self, base: u64) -> u64 {
        self.deltas.get(&base).copied().unwrap_or(0)
    }

    fn slot_is_live(&self, base: u64) -> bool {
        let class = layout::region_index(base);
        (1..=layout::NUM_CLASSES).contains(&class) && self.subheaps[class - 1].live.contains(&base)
    }

    fn size(&self, ptr: u64) -> u64 {
        layout::lowfat_size(ptr)
    }

    fn base(&self, ptr: u64) -> u64 {
        layout::lowfat_base(ptr)
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RandLowFatAlloc, Vm) {
        let mut vm = Vm::new();
        let alloc = RandLowFatAlloc::new(LowFatConfig::default());
        alloc.install(&mut vm);
        (alloc, vm)
    }

    #[test]
    fn placements_respect_the_slot_contract() {
        let (mut a, mut vm) = setup();
        for padded in [16u64, 32, 48, 64, 1024, 4096] {
            let p = a.alloc_object(&mut vm, padded).unwrap();
            let class = layout::class_for_size(padded).unwrap();
            let csize = layout::class_size(class);
            assert_eq!(p.base % csize, 0, "padded {padded}");
            assert_eq!(layout::region_index(p.base), class, "padded {padded}");
            assert_eq!(p.delta % 16, 0, "padded {padded}");
            assert!(p.delta + padded <= csize, "padded {padded}");
            assert_eq!(a.delta_of(p.base), p.delta);
            // The whole slot and the adjacent guard are readable.
            assert!(vm.read_u64(p.base + csize).is_ok() || csize >= WINDOW_TARGET);
        }
    }

    #[test]
    fn slot_order_is_randomized_but_deterministic_per_seed() {
        let order = |seed: u64| -> Vec<u64> {
            let mut vm = Vm::new();
            let mut a = RandLowFatAlloc::new(LowFatConfig {
                seed,
                ..LowFatConfig::default()
            });
            a.install(&mut vm);
            (0..32)
                .map(|_| a.alloc_object(&mut vm, 48).unwrap().base)
                .collect()
        };
        let a = order(1);
        let b = order(1);
        let c = order(2);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different stream");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_ne!(a, sorted, "selection is not bump order");
        let uniq: HashSet<u64> = a.iter().copied().collect();
        assert_eq!(uniq.len(), a.len(), "no slot handed out twice");
    }

    #[test]
    fn quarantine_delays_reuse_and_double_free_detected() {
        let (mut a, mut vm) = setup();
        let p = a.alloc_object(&mut vm, 48).unwrap();
        a.free_object(&mut vm, p.base).unwrap();
        assert_eq!(
            a.free_object(&mut vm, p.base),
            Err(AllocError::DoubleFree(p.base))
        );
        let q = a.alloc_object(&mut vm, 48).unwrap();
        assert_ne!(p.base, q.base, "quarantined slot must not be reused yet");
        assert_eq!(
            a.free_object(&mut vm, layout::CODE_BASE),
            Err(AllocError::InvalidFree(layout::CODE_BASE))
        );
    }

    #[test]
    fn window_growth_reaches_the_subheap_limit() {
        let mut vm = Vm::new();
        let mut a = RandLowFatAlloc::new(LowFatConfig {
            subheap_limit: 8 << 20,
            quarantine: 0,
            ..LowFatConfig::default()
        });
        a.install(&mut vm);
        // 1 MiB objects: the initial window holds only a couple of
        // slots; keep allocating until OOM and count how many fit.
        let mut n = 0u64;
        loop {
            match a.alloc_object(&mut vm, 1 << 20) {
                Ok(_) => n += 1,
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(n >= 6, "window growth stalled at {n} slots");
        assert!(n <= 8, "exceeded the subheap limit: {n} slots");
    }

    #[test]
    fn deltas_are_zero_when_the_slot_is_exact() {
        let (mut a, mut vm) = setup();
        // padded == class size: no padding, delta must be 0.
        let p = a.alloc_object(&mut vm, 64).unwrap();
        assert_eq!(p.delta, 0);
    }

    #[test]
    fn deltas_vary_when_padding_allows() {
        let (mut a, mut vm) = setup();
        // 2 KiB class with ~1.1 KiB payload: plenty of slack. (The
        // 16-byte-spaced classes never have >= 16 bytes of padding, so
        // offsets only materialize in the power-of-two classes.)
        let deltas: HashSet<u64> = (0..64)
            .map(|_| a.alloc_object(&mut vm, 1100).unwrap().delta)
            .collect();
        assert!(deltas.len() > 1, "offsets never varied: {deltas:?}");
        assert!(deltas.iter().all(|d| d % 16 == 0 && *d <= MAX_DELTA));
    }
}
