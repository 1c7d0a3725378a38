//! The **computed-pointer slot-skip** suite: the bug class that
//! separates the allocator backends.
//!
//! Every Table 2 CVE accesses the heap *through the victim's base
//! register* (`palette[idx]`), so the emitted Figure-4 check inherits
//! the victim's provenance and catches the skip. This suite instead
//! materializes the out-of-bounds address into a fresh register first
//! (`var p = a + idx * 8; p[0] = v`), so the check's base-register
//! provenance proxy sees only the *landing* slot:
//!
//! * Under the deterministic low-fat policy, sequential allocation puts
//!   a live same-class neighbor exactly one slot over; the landing
//!   slot's extent metadata covers the access and the check passes --
//!   a **missed** bug.
//! * Under the randomized policy, the slot adjacent to the victim is
//!   (with high probability) unallocated, its metadata reads `E == 0`
//!   (Free), and the merged check reports the access.
//!
//! Allocation sizes are chosen so `size + 16` fills its class exactly,
//! mirroring the CVE suite's worst case for redzone-only tools.

use crate::{Lang, Workload, PRELUDE};

/// A slot-skip test case: a workload plus benign/attack inputs.
pub struct SkipCase {
    /// The program.
    pub workload: Workload,
    /// In-bounds index: behaves identically under every policy.
    pub benign_input: Vec<i64>,
    /// Index that lands the access exactly one class-size slot past the
    /// victim object, through a computed pointer.
    pub attack_input: Vec<i64>,
}

fn source(elems: u64, write: bool) -> String {
    let access = if write {
        "p[0] = 0x42;"
    } else {
        "var v = p[0]; print(v);"
    };
    format!(
        "{PRELUDE}
fn main() {{
    var a = malloc({elems} * 8);
    var b = malloc({elems} * 8); // same class: the deterministic neighbor
    for (var i = 0; i < {elems}; i = i + 1) {{ a[i] = i; b[i] = 0x77; }}
    var idx = input();
    var p = a + idx * 8;   // address computed away from the base register
    {access}
    print(a[0] + b[0]);
    return 0;
}}"
    )
}

fn case(name: &'static str, class_size: u64, write: bool) -> SkipCase {
    // size + 16 fills the class exactly (the CVE-suite sizing rule).
    let elems = (class_size - 16) / 8;
    let benign = vec![1];
    // idx * 8 == class_size: the access lands at the adjacent slot's
    // user offset, past the victim's trailing redzone.
    let attack = vec![(class_size / 8) as i64];
    SkipCase {
        workload: Workload {
            name,
            lang: Lang::C,
            source: source(elems, write),
            train_input: benign.clone(),
            ref_input: benign.clone(),
            requires_x87: false,
            planted_errors: 0,
            anti_idiom_sites: 0,
        },
        benign_input: benign,
        attack_input: attack,
    }
}

/// All slot-skip cases: write and read variants across a 16-byte-spaced
/// class, two larger spaced classes, and a power-of-two class.
pub fn all() -> Vec<SkipCase> {
    vec![
        case("skip-272-write", 272, true),
        case("skip-272-read", 272, false),
        case("skip-528-write", 528, true),
        case("skip-528-read", 528, false),
        case("skip-1024-write", 1024, true),
        case("skip-1024-read", 1024, false),
        case("skip-2048-write", 2048, true),
        case("skip-2048-read", 2048, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_compiles_and_benign_runs_clean() {
        for case in all() {
            let image = case.workload.image();
            let out = redfat_core::run(
                &image,
                &redfat_core::RunSpec::new(
                    &case.benign_input,
                    redfat_emu::ErrorMode::Abort,
                    10_000_000,
                ),
            )
            .unwrap();
            assert!(
                matches!(out.result, redfat_emu::RunResult::Exited(0)),
                "{}: benign run must exit cleanly ({:?})",
                case.workload.name,
                out.result
            );
        }
    }
}
