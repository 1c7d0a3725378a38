//! The low-fat allocator proper: size-class subheaps in 32 GiB regions.

use redfat_vm::layout;
use redfat_vm::{Prot, Vm};

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
    /// Which placement policy backs the heap (the `--alloc-policy` knob).
    pub policy: crate::AllocPolicyKind,
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
            policy: crate::AllocPolicyKind::LowFat,
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

struct Subheap {
    /// Next fresh (never-allocated) object base.
    next_fresh: u64,
    /// How far the backing segment has been mapped/grown.
    mapped_end: u64,
    /// Reusable object bases.
    free_list: Vec<u64>,
    /// Quarantined (recently freed) object bases, oldest first.
    quarantine: std::collections::VecDeque<u64>,
}

impl Subheap {
    fn new(class: usize) -> Subheap {
        let size = layout::class_size(class);
        let region = layout::region_base(class);
        // First object base: smallest multiple of `size` that is >= the
        // region base. Objects are aligned to *global* multiples of their
        // size, which is what makes `base(ptr)` a pure function of the
        // pointer (paper §2.1).
        let first = region.div_ceil(size) * size;
        Subheap {
            next_fresh: first,
            mapped_end: region,
            free_list: Vec::new(),
            quarantine: std::collections::VecDeque::new(),
        }
    }
}

/// The low-fat allocator.
///
/// All methods take the guest [`Vm`] explicitly; the allocator owns no
/// memory itself, only bookkeeping.
pub struct LowFatAlloc {
    config: LowFatConfig,
    subheaps: Vec<Subheap>,
    stats: AllocStats,
}

impl LowFatAlloc {
    /// Creates an allocator with the given configuration.
    pub fn new(config: LowFatConfig) -> LowFatAlloc {
        LowFatAlloc {
            config,
            subheaps: (1..=layout::NUM_CLASSES).map(Subheap::new).collect(),
            stats: AllocStats::default(),
        }
    }

    /// Writes the SIZES/MAGICS tables to the guest runtime page.
    ///
    /// This is the reproduction's `LD_PRELOAD` analogue: generated check
    /// code reads these tables at fixed addresses; without installation
    /// every lookup yields 0 and all checks degenerate to no-ops, exactly
    /// like running a RedFat binary without `libredfat.so`.
    pub fn install(&self, vm: &mut Vm) {
        install_runtime_tables(vm);
    }

    /// Allocates `size` bytes, returning the object base address.
    ///
    /// The object is aligned to its class size and lies entirely within
    /// the class's 32 GiB region.
    pub fn lowfat_malloc(&mut self, vm: &mut Vm, size: u64) -> Result<u64, AllocError> {
        let class = layout::class_for_size(size).ok_or(AllocError::TooLarge(size))?;
        let ptr = self.alloc_in_class(vm, class)?;
        self.stats.allocs += 1;
        self.stats.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.bytes_requested += size;
        Ok(ptr)
    }

    fn alloc_in_class(&mut self, vm: &mut Vm, class: usize) -> Result<u64, AllocError> {
        let heap = &mut self.subheaps[class - 1];
        let csize = layout::class_size(class);

        // Overflow quarantine into the free list.
        while heap.quarantine.len() > self.config.quarantine {
            let base = heap.quarantine.pop_front().expect("non-empty");
            heap.free_list.push(base);
        }

        // Prefer the free list.
        if let Some(base) = heap.free_list.pop() {
            return Ok(base);
        }

        // Bump-allocate a fresh object, growing the backing segment.
        let base = heap.next_fresh;
        let end = base + csize;
        let region = layout::region_base(class);
        if end - region > self.config.subheap_limit {
            return Err(AllocError::OutOfMemory);
        }
        if end > heap.mapped_end {
            // Grow in 64 KiB increments (or enough for one object).
            let grow_to = (end - region).next_multiple_of(64 << 10);
            let new_end = region + grow_to;
            if !vm.is_mapped(region) {
                vm.map(
                    region,
                    new_end - region,
                    Prot::RW,
                    &format!("subheap{class}"),
                );
            } else {
                vm.grow(region, new_end - region);
            }
            heap.mapped_end = new_end;
        }
        heap.next_fresh = end;
        Ok(base)
    }

    /// Frees the object whose base is `ptr`.
    ///
    /// The pointer must be exactly an allocation base (class-size
    /// aligned and below the bump frontier).
    pub fn lowfat_free(&mut self, _vm: &mut Vm, ptr: u64) -> Result<(), AllocError> {
        let class = layout::region_index(ptr);
        if class == 0 || class > layout::NUM_CLASSES {
            return Err(AllocError::InvalidFree(ptr));
        }
        let csize = layout::class_size(class);
        if !ptr.is_multiple_of(csize) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let heap = &mut self.subheaps[class - 1];
        if ptr >= heap.next_fresh {
            return Err(AllocError::InvalidFree(ptr));
        }
        if heap.free_list.contains(&ptr) || heap.quarantine.contains(&ptr) {
            return Err(AllocError::DoubleFree(ptr));
        }
        heap.quarantine.push_back(ptr);
        self.stats.frees += 1;
        self.stats.live = self.stats.live.saturating_sub(1);
        Ok(())
    }

    /// `size(ptr)`: class size for heap pointers, `u64::MAX` otherwise.
    pub fn size(&self, ptr: u64) -> u64 {
        layout::lowfat_size(ptr)
    }

    /// `base(ptr)`: allocation base for heap pointers, 0 otherwise.
    pub fn base(&self, ptr: u64) -> u64 {
        layout::lowfat_base(ptr)
    }

    /// Returns allocation statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }
}

/// Installs the guest-side runtime state shared by every policy: the
/// SIZES/MAGICS tables plus region head/tail guards. Policy independent
/// by contract (DESIGN.md §14) -- generated check code reads only this.
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

impl crate::AllocPolicy for LowFatAlloc {
    fn kind(&self) -> crate::AllocPolicyKind {
        crate::AllocPolicyKind::LowFat
    }

    fn install(&self, vm: &mut Vm) {
        install_runtime_tables(vm);
    }

    fn alloc_object(
        &mut self,
        vm: &mut Vm,
        padded: u64,
    ) -> Result<crate::policy::Placement, AllocError> {
        // Deterministic placement: the user area always starts right
        // after the redzone (delta 0).
        let base = self.lowfat_malloc(vm, padded)?;
        Ok(crate::policy::Placement { base, delta: 0 })
    }

    fn free_object(&mut self, vm: &mut Vm, base: u64) -> Result<(), AllocError> {
        self.lowfat_free(vm, base)
    }

    fn delta_of(&self, _base: u64) -> u64 {
        0
    }

    fn slot_is_live(&self, base: u64) -> bool {
        // The default policy keeps no explicit live set: a slot is live
        // iff it was ever handed out (below the bump frontier, aligned)
        // and is not currently free or quarantined.
        let class = layout::region_index(base);
        if class == 0 || class > layout::NUM_CLASSES {
            return false;
        }
        if !base.is_multiple_of(layout::class_size(class)) {
            return false;
        }
        let heap = &self.subheaps[class - 1];
        base >= layout::region_base(class).div_ceil(layout::class_size(class))
            * layout::class_size(class)
            && base < heap.next_fresh
            && !heap.free_list.contains(&base)
            && !heap.quarantine.contains(&base)
    }

    fn size(&self, ptr: u64) -> u64 {
        LowFatAlloc::size(self, ptr)
    }

    fn base(&self, ptr: u64) -> u64 {
        LowFatAlloc::base(self, ptr)
    }

    fn stats(&self) -> AllocStats {
        LowFatAlloc::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (LowFatAlloc, Vm) {
        let mut vm = Vm::new();
        let alloc = LowFatAlloc::new(LowFatConfig::default());
        alloc.install(&mut vm);
        (alloc, vm)
    }

    #[test]
    fn malloc_respects_class_alignment() {
        let (mut a, mut vm) = setup();
        for size in [1u64, 16, 17, 48, 100, 1024, 1025, 5000, 1 << 20] {
            let p = a.lowfat_malloc(&mut vm, size).unwrap();
            let class = layout::class_for_size(size).unwrap();
            let csize = layout::class_size(class);
            assert_eq!(p % csize, 0, "size {size}");
            assert_eq!(layout::region_index(p), class, "size {size}");
            assert_eq!(a.base(p + size / 2), p, "size {size}");
            assert_eq!(a.size(p), csize);
        }
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut a, mut vm) = setup();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let p = a.lowfat_malloc(&mut vm, 48).unwrap();
            assert!(seen.insert(p), "duplicate object base {p:#x}");
        }
    }

    #[test]
    fn memory_is_usable() {
        let (mut a, mut vm) = setup();
        let p = a.lowfat_malloc(&mut vm, 64).unwrap();
        vm.write_u64(p, 0x1234).unwrap();
        vm.write_u64(p + 56, 0x5678).unwrap();
        assert_eq!(vm.read_u64(p).unwrap(), 0x1234);
        assert_eq!(vm.read_u64(p + 56).unwrap(), 0x5678);
    }

    #[test]
    fn free_and_reuse_after_quarantine() {
        let mut vm = Vm::new();
        let mut a = LowFatAlloc::new(LowFatConfig {
            quarantine: 0,
            ..LowFatConfig::default()
        });
        a.install(&mut vm);
        let p = a.lowfat_malloc(&mut vm, 32).unwrap();
        a.lowfat_free(&mut vm, p).unwrap();
        // With quarantine 0, a second alloc drains the quarantine and
        // reuses the object.
        let q = a.lowfat_malloc(&mut vm, 32).unwrap();
        let r = a.lowfat_malloc(&mut vm, 32).unwrap();
        assert!(p == q || p == r, "freed object eventually reused");
    }

    #[test]
    fn quarantine_delays_reuse() {
        let (mut a, mut vm) = setup();
        let p = a.lowfat_malloc(&mut vm, 32).unwrap();
        a.lowfat_free(&mut vm, p).unwrap();
        let q = a.lowfat_malloc(&mut vm, 32).unwrap();
        assert_ne!(p, q, "quarantined object must not be immediately reused");
    }

    #[test]
    fn invalid_and_double_free_detected() {
        let (mut a, mut vm) = setup();
        assert_eq!(
            a.lowfat_free(&mut vm, layout::CODE_BASE),
            Err(AllocError::InvalidFree(layout::CODE_BASE))
        );
        let p = a.lowfat_malloc(&mut vm, 32).unwrap();
        assert_eq!(
            a.lowfat_free(&mut vm, p + 8),
            Err(AllocError::InvalidFree(p + 8))
        );
        a.lowfat_free(&mut vm, p).unwrap();
        assert_eq!(a.lowfat_free(&mut vm, p), Err(AllocError::DoubleFree(p)));
    }

    #[test]
    fn too_large_rejected() {
        let (mut a, mut vm) = setup();
        let max = layout::class_size(layout::NUM_CLASSES);
        assert!(a.lowfat_malloc(&mut vm, max).is_ok());
        assert_eq!(
            a.lowfat_malloc(&mut vm, max + 1),
            Err(AllocError::TooLarge(max + 1))
        );
    }

    #[test]
    fn oom_when_subheap_exhausted() {
        let mut vm = Vm::new();
        let mut a = LowFatAlloc::new(LowFatConfig {
            subheap_limit: 1024,
            ..LowFatConfig::default()
        });
        a.install(&mut vm);
        let mut n = 0;
        loop {
            match a.lowfat_malloc(&mut vm, 256) {
                Ok(_) => n += 1,
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(n >= 3, "got {n} allocations before OOM");
    }

    #[test]
    fn stats_track_lifecycle() {
        let (mut a, mut vm) = setup();
        let p = a.lowfat_malloc(&mut vm, 100).unwrap();
        let _q = a.lowfat_malloc(&mut vm, 100).unwrap();
        a.lowfat_free(&mut vm, p).unwrap();
        let s = a.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live, 1);
        assert_eq!(s.peak_live, 2);
        assert_eq!(s.bytes_requested, 200);
    }

    #[test]
    fn install_writes_tables() {
        let (_a, vm) = setup();
        assert_eq!(vm.read_u64(layout::SIZES_TABLE).unwrap(), 0);
        assert_eq!(vm.read_u64(layout::SIZES_TABLE + 8).unwrap(), 16);
        assert_eq!(
            vm.read_u64(layout::MAGICS_TABLE + 8).unwrap(),
            layout::class_magic(1)
        );
    }
}
