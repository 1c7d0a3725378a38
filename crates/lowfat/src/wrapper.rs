//! The RedFat `malloc` wrapper: redzone + in-band metadata over the
//! slot allocator (paper §4.1, Figure 3; DESIGN.md §14).

use crate::alloc::{install_runtime_tables, AllocError, AllocStats, LowFatConfig, SlotAlloc};
use crate::AllocPolicyKind;
use redfat_vm::{layout, Vm};

/// Redzone size in bytes, which doubles as the metadata block size.
pub const REDZONE_SIZE: u64 = 16;

/// The RedFat heap: `malloc(SIZE) = slot(SIZE + 16) + 16 + delta`.
///
/// Object layout (paper Figure 3 generalized to an allocation offset,
/// addresses growing up):
///
/// ```text
///   base+0        E               u64: user extent (delta + size);
///                                 0 encodes Free
///   base+8        canary          u64: metadata integrity cookie
///   base+16       (slack)         delta bytes (always 0 for the
///                                 default policy)
///   base+16+delta OBJECT          user data (size bytes)
///   ...           (padding)       up to the class size
/// ```
///
/// The 16-byte prefix is the *redzone*: user code holding the user
/// pointer never legitimately accesses `[base, base+16)`, so any access
/// there is an out-of-bounds error. Because the next object in memory
/// begins with its own redzone, every object is also protected at its
/// end (paper: "the redzone at the start of the next object serves as a
/// redzone at the end of the current object").
///
/// Which slot an object lands in -- and whether `delta` can be non-zero
/// -- is the policy's choice ([`AllocPolicyKind`]); the metadata
/// protocol above is fixed, which is what keeps the emitted Figure-4
/// checks policy independent.
pub struct RedFatHeap {
    alloc: SlotAlloc,
    canary: u64,
}

impl RedFatHeap {
    /// Creates the heap, with the slot supply named by `config.policy`.
    pub fn new(config: LowFatConfig) -> RedFatHeap {
        let canary = 0x5AFE_C0DE_5AFE_C0DE ^ config.seed.rotate_left(17);
        RedFatHeap {
            alloc: SlotAlloc::new(config),
            canary,
        }
    }

    /// Which policy backs this heap.
    pub fn policy_kind(&self) -> AllocPolicyKind {
        self.alloc.policy()
    }

    /// The allocation offset recorded for the slot at `base`: the live
    /// object's, or the last one handed out there; 0 under the default
    /// policy.
    pub fn user_delta(&self, base: u64) -> u64 {
        self.alloc.delta_of(base)
    }

    /// `base(ptr)`: slot base for heap pointers, 0 otherwise.
    pub fn slot_base(&self, ptr: u64) -> u64 {
        layout::lowfat_base(ptr)
    }

    /// `size(ptr)`: class size for heap pointers, `u64::MAX` otherwise.
    pub fn slot_size(&self, ptr: u64) -> u64 {
        layout::lowfat_size(ptr)
    }

    /// Installs the SIZES/MAGICS tables and region guards into the guest
    /// (the `LD_PRELOAD` analogue); the same under every policy.
    pub fn install(&self, vm: &mut Vm) {
        install_runtime_tables(vm);
    }

    /// Allocates `size` bytes and returns the user pointer
    /// (`base + 16 + delta`).
    pub fn malloc(&mut self, vm: &mut Vm, size: u64) -> Result<u64, AllocError> {
        // A guest can pass any size (e.g. `malloc(-1)`); the redzone
        // padding must not wrap around to a tiny allocation. A zero-size
        // object still claims one byte past the redzone, otherwise its
        // slot would be all metadata and the user pointer would alias
        // the *next* slot's base (making the object impossible to free).
        let padded = size
            .checked_add(REDZONE_SIZE)
            .ok_or(AllocError::TooLarge(size))?
            .max(REDZONE_SIZE + 1);
        let (base, delta) = self.alloc.alloc(vm, padded)?;
        // Safety of the expects: `alloc` just returned this slot, which
        // is mapped for at least `padded >= 16` bytes.
        vm.write_privileged(base, &(delta + size).to_le_bytes())
            .expect("fresh object mapped");
        vm.write_privileged(base + 8, &self.canary.to_le_bytes())
            .expect("fresh object mapped");
        Ok(base + REDZONE_SIZE + delta)
    }

    /// Frees the object at user pointer `ptr`.
    ///
    /// `ptr` must be exactly the user pointer of a live object. The
    /// allocator's records decide, not the metadata word: a stray store
    /// can overwrite the word, and a live *zero-size* object reads
    /// `E == 0` like a free one. Freeing a slot that is not live is a
    /// double free if the heap handed the slot out before and an invalid
    /// free if not; the error carries `ptr`, and a rejected free writes
    /// nothing.
    pub fn free(&mut self, vm: &mut Vm, ptr: u64) -> Result<(), AllocError> {
        let base = self.slot_base(ptr);
        if base == 0 || ptr != base + REDZONE_SIZE + self.alloc.delta_of(base) {
            return Err(AllocError::InvalidFree(ptr));
        }
        self.alloc.free(base, ptr)?;
        // Merged state representation: E = 0 ⇒ Free. The object stays
        // mapped (and quarantined), so dangling dereferences hit the
        // metadata check rather than unmapped memory.
        // Safety of the expect: the slot held a live object, so its
        // metadata word is mapped and writable via the privileged path.
        vm.write_privileged(base, &0u64.to_le_bytes())
            .expect("object mapped");
        Ok(())
    }

    /// `calloc`: zeroed allocation. `count * elem` overflow is a
    /// reported error, never a wrapped-around tiny allocation.
    pub fn calloc(&mut self, vm: &mut Vm, count: u64, elem: u64) -> Result<u64, AllocError> {
        let size = count
            .checked_mul(elem)
            .ok_or(AllocError::CallocOverflow { count, elem })?;
        let ptr = self.malloc(vm, size)?;
        // Fresh subheap memory is already zero, but reused objects are
        // not: clear explicitly.
        let zeros = vec![0u8; size as usize];
        // Safety of the expect: `malloc` above mapped at least `size`
        // bytes at `ptr`.
        vm.write_privileged(ptr, &zeros).expect("object mapped");
        Ok(ptr)
    }

    /// `realloc`: grow/shrink preserving contents.
    ///
    /// * `ptr == 0` behaves as `malloc(new_size)`.
    /// * `ptr` must be *exactly* the user pointer of a live object;
    ///   interior or foreign pointers are `InvalidFree` and leave the
    ///   heap untouched (previously they copied past the object's end
    ///   and leaked the new allocation).
    /// * `new_size == 0` frees the object and returns a fresh zero-size
    ///   allocation (a unique, valid-to-free pointer).
    /// * When the new user area still fits the object's slot, the
    ///   resize happens in place: the extent metadata is rewritten and
    ///   the canary re-armed, so a shrink immediately re-exposes the
    ///   tail to the merged check as padding.
    /// * Otherwise the object moves, copying
    ///   `min(old_size, new_size)` bytes; on allocation failure the
    ///   original object is left intact (C semantics).
    pub fn realloc(&mut self, vm: &mut Vm, ptr: u64, new_size: u64) -> Result<u64, AllocError> {
        if ptr == 0 {
            return self.malloc(vm, new_size);
        }
        let base = self.slot_base(ptr);
        if base == 0 {
            return Err(AllocError::InvalidFree(ptr));
        }
        let extent = vm
            .read_u64(base)
            .map_err(|_| AllocError::InvalidFree(ptr))?;
        let delta = self.alloc.delta_of(base);
        if ptr != base + REDZONE_SIZE + delta || extent < delta || !self.alloc.slot_is_live(base) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let old_size = extent - delta;
        if new_size == 0 {
            self.free(vm, ptr)?;
            return self.malloc(vm, 0);
        }
        let csize = self.slot_size(ptr);
        if delta + new_size + REDZONE_SIZE <= csize {
            // In-place resize: same slot, same delta, same pointer.
            let new_extent = delta + new_size;
            // Safety of the expects: the metadata word was just read, so
            // it is mapped and writable via the privileged path.
            vm.write_privileged(base, &new_extent.to_le_bytes())
                .expect("object mapped");
            vm.write_privileged(base + 8, &self.canary.to_le_bytes())
                .expect("object mapped");
            return Ok(ptr);
        }
        let new_ptr = self.malloc(vm, new_size)?;
        let copy = old_size.min(new_size) as usize;
        // Safety of the expects: `ptr` is the user pointer of a live
        // object of `old_size >= copy` bytes, and `malloc` just mapped
        // `new_size >= copy` bytes at `new_ptr`.
        let data = vm.read_bytes(ptr, copy).expect("old object mapped");
        vm.write_privileged(new_ptr, &data)
            .expect("new object mapped");
        self.free(vm, ptr)?;
        Ok(new_ptr)
    }

    /// Returns the malloc size of the live object whose *user area*
    /// contains `ptr`, or `None` otherwise.
    ///
    /// Conservative on purpose: redzone, slack, padding, free-slot and
    /// non-heap pointers all answer `None` (they are not inside any
    /// object's data), and corrupt metadata (`E < delta`) is treated as
    /// no object rather than misattributed.
    pub fn object_size(&self, vm: &Vm, ptr: u64) -> Option<u64> {
        let base = self.slot_base(ptr);
        if base == 0 {
            return None;
        }
        let extent = vm.read_u64(base).ok()?;
        if extent == 0 {
            return None;
        }
        let delta = self.alloc.delta_of(base);
        let size = extent.checked_sub(delta)?;
        let user = base + REDZONE_SIZE + delta;
        if ptr < user || ptr - user >= size {
            return None;
        }
        Some(size)
    }

    /// Validates the metadata canary of the object containing `ptr`.
    ///
    /// Metadata hardening (paper §4.2) limits what an attacker can do by
    /// corrupting the in-band metadata from *uninstrumented* code; the
    /// canary gives the runtime an independent tamper signal used by
    /// failure-injection tests.
    pub fn check_canary(&self, vm: &Vm, ptr: u64) -> bool {
        let base = self.slot_base(ptr);
        if base == 0 {
            return false;
        }
        vm.read_u64(base + 8)
            .map(|c| c == self.canary)
            .unwrap_or(false)
    }

    /// Returns allocator statistics.
    pub fn stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    /// Reference implementation of the paper's Figure 4 `state()`:
    /// `Redzone` if `ptr` is within 16 bytes of the base, otherwise the
    /// merged allocated/free state read from metadata.
    ///
    /// This mirrors what the *emitted check* can see, so under a policy
    /// with non-zero allocation offsets the front slack classifies as
    /// `Allocated` (the check cannot distinguish it from user data);
    /// [`RedFatHeap::object_size`] gives the object-granular truth.
    pub fn state(&self, vm: &Vm, ptr: u64) -> ObjState {
        let base = self.slot_base(ptr);
        if base == 0 {
            return ObjState::NonFat;
        }
        if ptr - base < REDZONE_SIZE {
            return ObjState::Redzone;
        }
        match vm.read_u64(base) {
            Ok(0) | Err(_) => ObjState::Free,
            Ok(extent) => {
                if ptr - base - REDZONE_SIZE < extent {
                    ObjState::Allocated
                } else {
                    ObjState::Padding
                }
            }
        }
    }
}

/// The shadow state of an address under the RedFat heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjState {
    /// Not a heap address.
    NonFat,
    /// Inside a live object's check-visible extent.
    Allocated,
    /// Inside the 16-byte metadata redzone.
    Redzone,
    /// Inside a free (or never-allocated) object.
    Free,
    /// Between the object's extent and its class size.
    Padding,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RedFatHeap, Vm) {
        setup_policy(AllocPolicyKind::LowFat)
    }

    fn setup_policy(policy: AllocPolicyKind) -> (RedFatHeap, Vm) {
        let mut vm = Vm::new();
        let heap = RedFatHeap::new(LowFatConfig {
            policy,
            ..LowFatConfig::default()
        });
        heap.install(&mut vm);
        (heap, vm)
    }

    #[test]
    fn huge_malloc_is_too_large_not_a_wraparound() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            // `size + REDZONE_SIZE` must not wrap to a tiny allocation.
            for size in [u64::MAX, u64::MAX - 8, u64::MAX - 15] {
                assert_eq!(
                    h.malloc(&mut vm, size),
                    Err(AllocError::TooLarge(size)),
                    "{kind}: malloc({size:#x})"
                );
            }
            // The largest non-wrapping size still classifies as too
            // large (no size class holds it), through the normal path.
            assert!(matches!(
                h.malloc(&mut vm, u64::MAX - 16),
                Err(AllocError::TooLarge(_))
            ));
        }
    }

    #[test]
    fn malloc_layout_matches_figure3() {
        let (mut h, mut vm) = setup();
        let p = h.malloc(&mut vm, 40).unwrap();
        let base = layout::lowfat_base(p);
        assert_eq!(p, base + 16);
        // 40 + 16 rounds into the 64-byte class.
        assert_eq!(layout::lowfat_size(p), 64);
        assert_eq!(vm.read_u64(base).unwrap(), 40);
        assert_eq!(h.object_size(&vm, p), Some(40));
        assert!(h.check_canary(&vm, p));
    }

    #[test]
    fn malloc_layout_under_randomized_offsets() {
        let (mut h, mut vm) = setup_policy(AllocPolicyKind::RandLowFat);
        for _ in 0..64 {
            let p = h.malloc(&mut vm, 40).unwrap();
            let base = h.slot_base(p);
            let delta = h.user_delta(base);
            assert_eq!(p, base + 16 + delta);
            assert_eq!(p % 16, 0, "user pointers stay 16-aligned");
            assert_eq!(vm.read_u64(base).unwrap(), delta + 40);
            assert!(delta + 40 + 16 <= h.slot_size(p));
            assert_eq!(h.object_size(&vm, p), Some(40));
            assert_eq!(h.object_size(&vm, p + 39), Some(40));
            assert!(h.check_canary(&vm, p));
        }
    }

    #[test]
    fn state_classification() {
        let (mut h, mut vm) = setup();
        let p = h.malloc(&mut vm, 20).unwrap();
        let base = p - 16;
        assert_eq!(h.state(&vm, base), ObjState::Redzone);
        assert_eq!(h.state(&vm, base + 15), ObjState::Redzone);
        assert_eq!(h.state(&vm, p), ObjState::Allocated);
        assert_eq!(h.state(&vm, p + 19), ObjState::Allocated);
        // 20+16=36 -> class 48; bytes 20..32 of the object are padding.
        assert_eq!(h.state(&vm, p + 20), ObjState::Padding);
        assert_eq!(h.state(&vm, layout::CODE_BASE), ObjState::NonFat);
        h.free(&mut vm, p).unwrap();
        assert_eq!(h.state(&vm, p), ObjState::Free);
    }

    #[test]
    fn free_rejects_interior_and_foreign_pointers() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            let p = h.malloc(&mut vm, 24).unwrap();
            assert!(matches!(
                h.free(&mut vm, p + 4),
                Err(AllocError::InvalidFree(_))
            ));
            assert!(matches!(
                h.free(&mut vm, 0x1234),
                Err(AllocError::InvalidFree(_))
            ));
            h.free(&mut vm, p).unwrap();
            assert!(
                matches!(h.free(&mut vm, p), Err(AllocError::DoubleFree(_))),
                "{kind}: double free must be recognized at the old user pointer"
            );
        }
    }

    #[test]
    fn a_rejected_free_writes_nothing_and_names_the_pointer() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            // A 64-byte slot. The next slot is mapped under both supplies
            // (bump order maps 64 KiB at a time, the window ends in a
            // guard slot) and was never handed out.
            let p = h.malloc(&mut vm, 40).unwrap();
            let fresh = h.slot_base(p) + 64;
            h.free(&mut vm, p).unwrap();
            let freed = h.slot_base(p);
            // Whatever a stray store left in the metadata word, the heap's
            // own record classifies the free, and the word stays as it was.
            for stray in [0u64, 0x28] {
                for (base, ptr, want) in [
                    (fresh, fresh + 16, AllocError::InvalidFree(fresh + 16)),
                    (freed, p, AllocError::DoubleFree(p)),
                ] {
                    vm.write_privileged(base, &stray.to_le_bytes()).unwrap();
                    assert_eq!(h.free(&mut vm, ptr), Err(want), "{kind}: E = {stray}");
                    assert_eq!(vm.read_u64(base).unwrap(), stray, "{kind}: E = {stray}");
                }
            }
            assert_eq!(h.stats().frees, 1, "{kind}");
        }
    }

    #[test]
    fn calloc_zeroes_reused_memory() {
        for kind in AllocPolicyKind::ALL {
            let mut vm = Vm::new();
            let mut h = RedFatHeap::new(LowFatConfig {
                policy: kind,
                quarantine: 0,
                ..LowFatConfig::default()
            });
            h.install(&mut vm);
            let p = h.malloc(&mut vm, 32).unwrap();
            vm.write_u64(p, 0xFFFF_FFFF).unwrap();
            h.free(&mut vm, p).unwrap();
            // Drain quarantine and reuse (under the randomized policy the
            // dirty slot may come back later; scrub a few).
            for _ in 0..8 {
                let q = h.calloc(&mut vm, 8, 4).unwrap();
                assert_eq!(vm.read_u64(q).unwrap(), 0, "{kind}: calloc must zero");
            }
        }
    }

    #[test]
    fn calloc_overflow_reports_the_factors() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            // Regression: count * elem wrapping must be an error, not a
            // tiny allocation. u64::MAX/2 * 4 wraps to u64::MAX - 3.
            let count = u64::MAX / 2;
            assert_eq!(
                h.calloc(&mut vm, count, 4),
                Err(AllocError::CallocOverflow { count, elem: 4 }),
                "{kind}"
            );
            assert_eq!(
                h.calloc(&mut vm, u64::MAX, 2),
                Err(AllocError::CallocOverflow {
                    count: u64::MAX,
                    elem: 2
                })
            );
            // Boundary: a product that does not overflow but exceeds the
            // largest class still fails through the normal path.
            assert!(matches!(
                h.calloc(&mut vm, 1 << 32, 1 << 31),
                Err(AllocError::TooLarge(_))
            ));
            assert_eq!(h.stats().allocs, 0, "{kind}: no allocation leaked");
        }
    }

    #[test]
    fn realloc_preserves_prefix() {
        let (mut h, mut vm) = setup();
        let p = h.malloc(&mut vm, 16).unwrap();
        vm.write_u64(p, 0xAABB).unwrap();
        vm.write_u64(p + 8, 0xCCDD).unwrap();
        let q = h.realloc(&mut vm, p, 64).unwrap();
        assert_eq!(vm.read_u64(q).unwrap(), 0xAABB);
        assert_eq!(vm.read_u64(q + 8).unwrap(), 0xCCDD);
        // 64 + 16 needs a bigger slot: the object moved and the old one
        // is now free.
        assert_ne!(p, q);
        assert_eq!(h.state(&vm, p), ObjState::Free);
    }

    #[test]
    fn realloc_shrink_in_place_rearms_the_boundary() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            let p = h.malloc(&mut vm, 40).unwrap();
            vm.write_u64(p, 0x11).unwrap();
            let q = h.realloc(&mut vm, p, 24).unwrap();
            assert_eq!(q, p, "{kind}: shrink fits the slot, stays in place");
            assert_eq!(vm.read_u64(q).unwrap(), 0x11, "{kind}: prefix preserved");
            assert_eq!(h.object_size(&vm, q), Some(24), "{kind}");
            // The abandoned tail is padding again: the merged check (and
            // its reference `state()`) must reject accesses there.
            assert_eq!(h.state(&vm, q + 24), ObjState::Padding, "{kind}");
            assert!(h.check_canary(&vm, q), "{kind}: canary re-armed");
            h.free(&mut vm, q).unwrap();
        }
    }

    #[test]
    fn realloc_grow_within_slot_stays_in_place() {
        let (mut h, mut vm) = setup();
        // 20 + 16 -> 48-byte class; growing to 30 still fits.
        let p = h.malloc(&mut vm, 20).unwrap();
        let q = h.realloc(&mut vm, p, 30).unwrap();
        assert_eq!(q, p);
        assert_eq!(h.object_size(&vm, q), Some(30));
        assert_eq!(h.state(&vm, q + 29), ObjState::Allocated);
        h.free(&mut vm, q).unwrap();
    }

    #[test]
    fn realloc_zero_frees_and_returns_fresh_pointer() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            let p = h.malloc(&mut vm, 48).unwrap();
            let q = h.realloc(&mut vm, p, 0).unwrap();
            assert_ne!(q, p, "{kind}: old object is gone");
            assert_eq!(h.state(&vm, p), ObjState::Free, "{kind}");
            assert_eq!(h.object_size(&vm, q), None, "{kind}: zero-size object");
            // The returned pointer is a real allocation: freeing it works.
            h.free(&mut vm, q).unwrap();
        }
    }

    #[test]
    fn realloc_rejects_interior_and_foreign_pointers() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            let p = h.malloc(&mut vm, 32).unwrap();
            vm.write_u64(p, 0xFEED).unwrap();
            let before = h.stats();
            // Regression: an interior pointer must not be treated as an
            // object (previously this copied past the object's end and
            // leaked the new allocation when the final free failed).
            assert!(matches!(
                h.realloc(&mut vm, p + 8, 64),
                Err(AllocError::InvalidFree(_))
            ));
            assert!(matches!(
                h.realloc(&mut vm, 0x4444, 64),
                Err(AllocError::InvalidFree(_))
            ));
            assert_eq!(h.stats(), before, "{kind}: failed realloc left state");
            assert_eq!(h.object_size(&vm, p), Some(32), "{kind}: object intact");
            assert_eq!(vm.read_u64(p).unwrap(), 0xFEED);
            h.free(&mut vm, p).unwrap();
            // A dangling (freed) pointer is invalid too, not a new object.
            assert!(matches!(
                h.realloc(&mut vm, p, 16),
                Err(AllocError::InvalidFree(_) | AllocError::DoubleFree(_))
            ));
        }
    }

    #[test]
    fn adjacent_object_starts_with_redzone() {
        // The "end redzone" of object A is the start redzone of the next
        // object in the same class (paper Figure 3).
        let (mut h, mut vm) = setup();
        let a = h.malloc(&mut vm, 48).unwrap(); // class 64
        let b = h.malloc(&mut vm, 48).unwrap();
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if hi - lo == 64 {
            // Contiguous: the byte just past lo's padding is hi's redzone.
            assert_eq!(h.state(&vm, hi - 16), ObjState::Redzone);
        }
    }

    #[test]
    fn zero_size_objects_are_freeable_exactly_once() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            // Regression: malloc(0) writes E == 0, which used to make the
            // live object indistinguishable from Free -- free() reported
            // a false DoubleFree and leaked the slot.
            let p = h.malloc(&mut vm, 0).unwrap();
            h.free(&mut vm, p).unwrap();
            assert!(
                matches!(h.free(&mut vm, p), Err(AllocError::DoubleFree(_))),
                "{kind}: second free is still a double free"
            );
            // realloc can revive a zero-size object into a real one.
            let q = h.malloc(&mut vm, 0).unwrap();
            let r = h.realloc(&mut vm, q, 24).unwrap();
            assert_eq!(h.object_size(&vm, r), Some(24), "{kind}");
            h.free(&mut vm, r).unwrap();
        }
    }

    #[test]
    fn object_size_is_conservative_outside_user_data() {
        for kind in AllocPolicyKind::ALL {
            let (mut h, mut vm) = setup_policy(kind);
            let p = h.malloc(&mut vm, 20).unwrap(); // padded 36 -> 48 class
            let base = h.slot_base(p);
            assert_eq!(h.object_size(&vm, p), Some(20), "{kind}");
            assert_eq!(h.object_size(&vm, p + 19), Some(20), "{kind}");
            // Redzone, padding past the object's end, and foreign
            // pointers are not "inside the object".
            assert_eq!(h.object_size(&vm, base), None, "{kind}: metadata");
            assert_eq!(h.object_size(&vm, base + 15), None, "{kind}: redzone");
            assert_eq!(h.object_size(&vm, p + 20), None, "{kind}: padding");
            assert_eq!(h.object_size(&vm, layout::CODE_BASE), None, "{kind}");
        }
    }
}
