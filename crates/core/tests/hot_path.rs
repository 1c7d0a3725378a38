//! What a trampoline costs at run time: hardened-minus-baseline
//! counters of small mini-C programs under `HardenConfig::default()`.
//!
//! A passing check on a heap pointer must run straight from the
//! trampoline's entry to the displaced instructions: the only transfers
//! it adds are the jump in and the jump back, and it takes no branch.

use redfat_core::{harden, run, HardenConfig, RunSpec};
use redfat_emu::{Counters, ErrorMode, RunResult};

/// Hardened-minus-baseline counters of `src` on `input`, after checking
/// that both runs exit 0, print the same and report no error.
fn overhead(src: &str, input: &[i64]) -> Counters {
    let image = redfat_minic::compile(src).expect("compiles");
    let hardened = harden(&image, &HardenConfig::default())
        .expect("hardens")
        .image;
    let base = run(&image, &RunSpec::new(input, ErrorMode::Abort, 1_000_000)).unwrap();
    let hard = run(&hardened, &RunSpec::new(input, ErrorMode::Abort, 1_000_000)).unwrap();
    assert_eq!(base.result, RunResult::Exited(0));
    assert_eq!(hard.result, RunResult::Exited(0));
    assert_eq!(base.io.out_ints, hard.io.out_ints);
    assert!(hard.errors.is_empty(), "{:?}", hard.errors);
    let (b, h) = (base.counters, hard.counters);
    Counters {
        instructions: h.instructions - b.instructions,
        cycles: h.cycles - b.cycles,
        loads: h.loads - b.loads,
        stores: h.stores - b.stores,
        muls: h.muls - b.muls,
        divs: h.divs - b.divs,
        taken_branches: h.taken_branches - b.taken_branches,
        transfers: h.transfers - b.transfers,
        region_crossings: h.region_crossings - b.region_crossings,
        syscalls: h.syscalls - b.syscalls,
        int3_traps: h.int3_traps - b.int3_traps,
    }
}

const HEAP_LOOP: &str = "
fn main() {
    var n = input();
    var a = malloc(8 * n);
    for (var i = 0; i < n; i = i + 1) { a[i] = i; }
    return 0;
}
";

#[test]
fn a_passing_heap_check_only_jumps_in_and_out() {
    for n in [1, 10, 25] {
        let d = overhead(HEAP_LOOP, &[n]);
        assert_eq!(d.transfers, d.region_crossings, "n={n}: {d:?}");
        assert_eq!(d.transfers, 2 * n as u64, "n={n}: one trampoline per store");
        assert_eq!(d.taken_branches, 0, "n={n}: {d:?}");
        assert_eq!(d.int3_traps, 0, "n={n}: {d:?}");
        // The low-fat base: one `mul` by the class's magic reciprocal
        // (the object index) and one `imul` scaling it by the size.
        assert_eq!(d.muls, 2 * n as u64, "n={n}: {d:?}");
    }
}

/// A store through a pointer that is not low-fat but that no analysis
/// can prove so: `gp` holds a global's address, and the store's base
/// register is loaded from it.
const GLOBAL_POINTER_STORE: &str = "
global g[4];
global gp;
fn main() {
    gp = &g;
    var q = gp;
    q[1] = input();
    return 0;
}
";

#[test]
fn a_non_fat_pointer_check_runs_no_multiply() {
    let d = overhead(GLOBAL_POINTER_STORE, &[5]);
    // One full check runs: the jump in and back (2 x 4 cycles), four
    // pushes and pops (16) and the region-index and SIZES tests on the
    // base register (10, leaving for the fallback). The fallback then
    // runs in the cold library: the `call` (3), the same tests on LB
    // (9, leaving for the routine's not-low-fat exit), the `cmp` that
    // sets ZF there (1) and the `ret` (3). The call site's `je` takes
    // the check to its end (2).
    assert_eq!(d.cycles, 52, "{d:?}");
    // The jump in and back cross regions; the call and return do not.
    assert_eq!((d.transfers, d.region_crossings), (4, 2), "{d:?}");
    assert_eq!(d.taken_branches, 3, "{d:?}");
    assert_eq!(d.muls, 0, "{d:?}");
}
