//! The canonical guest address-space layout and low-fat size classes.
//!
//! ```text
//!   0x0000_0000_0040_0000  CODE_BASE        program text (non-fat region #0)
//!   0x0000_0000_0060_0000  GLOBALS_BASE     program data/bss
//!   0x0000_0000_5000_0000  RUNTIME_BASE     libredfat runtime page:
//!                                           SIZES/MAGICS tables, scratch
//!   0x0000_0000_7000_0000  TRAMPOLINE_BASE  rewriter trampolines
//!                                           (within ±2GiB of CODE_BASE)
//!   0x0000_0001_f800_0000  STACK            grows down from STACK_TOP
//!   0x0000_0008_0000_0000  region #1        low-fat subheap, sizes 1..=16
//!   0x0000_0010_0000_0000  region #2        low-fat subheap, sizes 17..=32
//!   ...                                     one 32 GiB region per class
//! ```
//!
//! Everything below `REGION_SIZE` (32 GiB) is non-fat region #0: code,
//! globals, stack, runtime -- matching the paper's Figure 2 where non-fat
//! regions hold "stack, globals, code, etc.". The stack deliberately sits
//! more than 2 GiB below the first heap region so that the rewriter's
//! check-elimination rule (§6: "a base register not within ±2GB from heap
//! memory") applies to `%rsp`-based operands.

/// Redzone / in-band metadata block size in bytes (paper §4.1).
pub const REDZONE: u64 = 16;

/// log2 of the region size: regions are `2^35` = 32 GiB.
pub const REGION_SIZE_LOG2: u32 = 35;

/// The region size in bytes (32 GiB).
pub const REGION_SIZE: u64 = 1 << REGION_SIZE_LOG2;

/// Number of low-fat size classes (regions #1..=#NUM_CLASSES).
///
/// Classes 1..=64 serve 16-byte-spaced sizes (16, 32, ..., 1024), the
/// default configuration of the LowFat allocator; classes 65..=78 serve
/// power-of-two sizes 2 KiB .. 16 MiB for large allocations.
pub const NUM_CLASSES: usize = 78;

/// Bound used by generated check code: region indices `>= TABLE_ENTRIES`
/// are treated as non-fat without a table lookup.
pub const TABLE_ENTRIES: usize = 128;

/// Base address of program text.
pub const CODE_BASE: u64 = 0x40_0000;

/// Base address of program globals.
pub const GLOBALS_BASE: u64 = 0x60_0000;

/// Base address of the libredfat runtime data page (SIZES/MAGICS tables,
/// register spill scratch). Referenced by generated check code via
/// absolute `disp32` operands, so it must stay below `2^31`.
pub const RUNTIME_BASE: u64 = 0x5000_0000;

/// Address of the SIZES table: `TABLE_ENTRIES` little-endian `u64`s.
pub const SIZES_TABLE: u64 = RUNTIME_BASE;

/// Address of the MAGICS table: `TABLE_ENTRIES` little-endian `u64`s.
pub const MAGICS_TABLE: u64 = RUNTIME_BASE + (TABLE_ENTRIES as u64) * 8;

/// Scratch area used by instrumentation to spill registers when the
/// surrounding code has none free (single-threaded guest).
pub const SCRATCH_BASE: u64 = MAGICS_TABLE + (TABLE_ENTRIES as u64) * 8;

/// Size of the scratch area in bytes.
pub const SCRATCH_SIZE: u64 = 256;

/// Base address of the rewriter's `int3` trap table (a read-only data
/// segment emitted into rewritten binaries).
pub const TRAP_TABLE_BASE: u64 = 0x6F00_0000;

/// Base address for rewriter trampolines. Within rel32 range of
/// `CODE_BASE` so a 5-byte `jmp` can always reach.
pub const TRAMPOLINE_BASE: u64 = 0x7000_0000;

/// Stack top (stack grows down). More than 2 GiB away from both code and
/// heap.
pub const STACK_TOP: u64 = 0x1_F800_0000;

/// Default stack reservation (16 MiB).
pub const STACK_SIZE: u64 = 16 << 20;

/// First address of low-fat heap region `class` (1-based).
pub const fn region_base(class: usize) -> u64 {
    (class as u64) << REGION_SIZE_LOG2
}

/// One past the last byte of the entire low-fat heap.
pub const fn heap_end() -> u64 {
    region_base(NUM_CLASSES + 1)
}

/// First heap address (start of region #1).
pub const fn heap_start() -> u64 {
    region_base(1)
}

/// Returns the region index (0 = non-fat) for an address.
pub const fn region_index(addr: u64) -> usize {
    (addr >> REGION_SIZE_LOG2) as usize
}

/// Returns the allocation size served by `class` (1-based).
///
/// # Panics
///
/// Panics if `class` is 0 or greater than [`NUM_CLASSES`].
pub const fn class_size(class: usize) -> u64 {
    assert!(class >= 1 && class <= NUM_CLASSES);
    if class <= 64 {
        16 * class as u64
    } else {
        2048 << (class - 65)
    }
}

/// Returns the smallest class whose size can hold `size` bytes, or `None`
/// if `size` exceeds the largest class.
pub fn class_for_size(size: u64) -> Option<usize> {
    if size == 0 {
        return Some(1);
    }
    if size <= 1024 {
        return Some(size.div_ceil(16) as usize);
    }
    let mut class = 65;
    let mut cap = 2048u64;
    while class <= NUM_CLASSES {
        if size <= cap {
            return Some(class);
        }
        cap <<= 1;
        class += 1;
    }
    None
}

/// Computes the division magic for `size`: `mulhi(ptr, magic) == ptr /
/// size` for every `ptr < heap_end()`.
///
/// For power-of-two sizes the magic is exact (`2^64 / size`); otherwise
/// `floor(2^64/size) + 1`, whose error term `ptr * e / (size * 2^64)`
/// stays below `1/size` because all non-power-of-two classes have
/// `size <= 1024` and `heap_end() < 2^43`. The allocator's property tests
/// verify this exhaustively at the boundaries.
pub const fn class_magic(class: usize) -> u64 {
    let size = class_size(class) as u128;
    let two64: u128 = 1 << 64;
    if size.is_power_of_two() {
        (two64 / size) as u64
    } else {
        (two64 / size + 1) as u64
    }
}

/// `base(ptr)` reference implementation: the low-fat base address, or 0
/// for non-fat pointers (paper §2.1).
pub fn lowfat_base(ptr: u64) -> u64 {
    let idx = region_index(ptr);
    if idx == 0 || idx > NUM_CLASSES {
        return 0;
    }
    let size = class_size(idx);
    let magic = class_magic(idx);
    let q = ((ptr as u128 * magic as u128) >> 64) as u64;
    q * size
}

/// `size(ptr)` reference implementation: the allocation-class size, or
/// `u64::MAX` for non-fat pointers (the paper's "over-approximate bounds"
/// for non-fat regions).
pub fn lowfat_size(ptr: u64) -> u64 {
    let idx = region_index(ptr);
    if idx == 0 || idx > NUM_CLASSES {
        return u64::MAX;
    }
    class_size(idx)
}

/// Builds the SIZES table as stored at [`SIZES_TABLE`]: entry `i` holds
/// `class_size(i)` for valid classes and 0 otherwise (0 ⇒ non-fat, which
/// generated code turns into `base == 0`).
pub fn sizes_table() -> Vec<u64> {
    let mut t = vec![0u64; TABLE_ENTRIES];
    for (i, slot) in t.iter_mut().enumerate().take(NUM_CLASSES + 1).skip(1) {
        *slot = class_size(i);
    }
    t
}

/// Builds the MAGICS table as stored at [`MAGICS_TABLE`]: entry `i` holds
/// `class_magic(i)` for valid classes and 0 otherwise (0 ⇒ `mulhi` yields
/// 0 ⇒ `base == 0` ⇒ non-fat).
pub fn magics_table() -> Vec<u64> {
    let mut t = vec![0u64; TABLE_ENTRIES];
    for (i, slot) in t.iter_mut().enumerate().take(NUM_CLASSES + 1).skip(1) {
        *slot = class_magic(i);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sizes_monotone() {
        let mut prev = 0;
        for c in 1..=NUM_CLASSES {
            let s = class_size(c);
            assert!(s > prev, "class {c}");
            prev = s;
        }
        assert_eq!(class_size(1), 16);
        assert_eq!(class_size(64), 1024);
        assert_eq!(class_size(65), 2048);
        assert_eq!(class_size(NUM_CLASSES), 16 << 20);
    }

    #[test]
    fn class_for_size_inverts() {
        for c in 1..=NUM_CLASSES {
            let s = class_size(c);
            assert_eq!(class_for_size(s), Some(c));
            if s > 1 {
                assert_eq!(class_for_size(s - 1), Some(c));
            }
        }
        assert_eq!(class_for_size(class_size(NUM_CLASSES) + 1), None);
        assert_eq!(class_for_size(0), Some(1));
        assert_eq!(class_for_size(17), Some(2));
    }

    #[test]
    fn magic_division_exact_at_boundaries() {
        // The magic must compute floor(ptr / size) exactly for pointers in
        // the class's own region, including the nastiest spots: multiples
        // of size and multiples minus one.
        for c in 1..=NUM_CLASSES {
            let size = class_size(c);
            let magic = class_magic(c);
            let base = region_base(c);
            let end = region_base(c + 1);
            let probe = |ptr: u64| {
                let q = ((ptr as u128 * magic as u128) >> 64) as u64;
                assert_eq!(q, ptr / size, "class {c} ptr {ptr:#x}");
            };
            // First and last aligned objects in the region.
            let first = base.div_ceil(size) * size;
            probe(first);
            probe(first + size - 1);
            probe(first + size);
            let last = (end - 1) / size * size;
            probe(last);
            probe(end - 1);
        }
    }

    #[test]
    fn lowfat_base_size_laws() {
        // Non-fat pointers.
        assert_eq!(lowfat_base(CODE_BASE), 0);
        assert_eq!(lowfat_size(CODE_BASE), u64::MAX);
        assert_eq!(lowfat_base(STACK_TOP - 8), 0);
        assert_eq!(lowfat_base(heap_end() + 123), 0);
        // A fat pointer in region 3 (48-byte class).
        let base = region_base(3).div_ceil(48) * 48;
        for off in [0u64, 1, 13, 47] {
            assert_eq!(lowfat_base(base + off), base);
            assert_eq!(lowfat_size(base + off), 48);
        }
        assert_eq!(lowfat_base(base + 48), base + 48);
    }

    #[test]
    fn stack_far_from_heap_and_code() {
        // Check-elimination precondition: stack more than 2 GiB from heap.
        assert!(heap_start() - STACK_TOP > 2 << 30);
        const { assert!(STACK_TOP - STACK_SIZE > TRAMPOLINE_BASE) };
        // Trampolines reachable from code with rel32.
        assert!(TRAMPOLINE_BASE - CODE_BASE < i32::MAX as u64);
    }

    #[test]
    fn tables_have_expected_shape() {
        let sizes = sizes_table();
        let magics = magics_table();
        assert_eq!(sizes.len(), TABLE_ENTRIES);
        assert_eq!(sizes[0], 0);
        assert_eq!(sizes[1], 16);
        assert_eq!(sizes[NUM_CLASSES], 16 << 20);
        assert_eq!(sizes[NUM_CLASSES + 1], 0);
        assert_eq!(magics[0], 0);
        assert_ne!(magics[1], 0);
        assert_eq!(magics[NUM_CLASSES + 1], 0);
    }

    #[test]
    fn zero_sizes_entry_iff_zero_magic_iff_not_fat() {
        // Generated checks test the SIZES entry before the multiply, in
        // place of testing BASE after it: a zero entry must mean exactly
        // what BASE == 0 means. It does because every heap pointer is at
        // least 2^35, above every class size, so a valid class never
        // rounds a pointer down to 0.
        let (sizes, magics) = (sizes_table(), magics_table());
        for c in 0..TABLE_ENTRIES {
            let first = region_base(c);
            for p in [first, first + REGION_SIZE / 2, first + (REGION_SIZE - 1)] {
                let not_fat = lowfat_base(p) == 0;
                assert_eq!(sizes[c] == 0, not_fat, "region {c}, ptr {p:#x}: SIZES");
                assert_eq!(magics[c] == 0, not_fat, "region {c}, ptr {p:#x}: MAGICS");
            }
        }
    }

    #[test]
    fn heap_end_fits_pointer_model() {
        // All guest addresses stay below 2^43 so the magic error analysis
        // holds.
        assert!(heap_end() < 1 << 43);
    }
}
