//! Integration tests for the flow-sensitive passes over real compiled
//! mini-C images: provenance elimination, dominator-validated redundant
//! checks, and conservatism on patterns that must NOT be eliminated.

use redfat_analysis::{
    analyze_image, can_reach_heap, disassemble, Cfg, DomTree, Provenance, RedundantChecks,
    SiteVerdict,
};
use redfat_minic::compile;
use redfat_vm::Rng64;

/// Const-index accesses through a register holding a global's address:
/// kept by the syntactic rule (general-purpose base), eliminated by
/// provenance (the register provably holds the global's address).
#[test]
fn global_array_const_index_is_flow_eliminated() {
    let src = "
        global tab[8];
        fn main() {
            var p = &tab;
            p[0] = 41;
            p[3] = p[0] + 1;
            print(p[3]);
            return 0;
        }";
    let image = compile(src).expect("compiles");
    let report = analyze_image(&image, 0);
    let flow = report.eliminated_flow();
    assert!(
        flow >= 2,
        "expected the const-index global accesses flow-eliminated, got report:\n{}",
        redfat_analysis::report::render(&report)
    );
}

/// A heap pointer returned by malloc flows from a call: every access
/// through it must keep its check.
#[test]
fn heap_accesses_survive_flow_elimination() {
    let src = "
        fn main() {
            var a = malloc(64);
            a[0] = 7;
            a[1] = a[0] + 1;
            print(a[1]);
            return 0;
        }";
    let image = compile(src).expect("compiles");
    let report = analyze_image(&image, 0);
    // The heap stores/loads (plus the RMW pattern) must remain checked
    // or at most be *redundant* (still redzone-checked) -- never
    // flow-eliminated.
    let checked_or_redundant = report.checked() + report.redundant();
    assert!(
        checked_or_redundant >= 3,
        "heap accesses vanished:\n{}",
        redfat_analysis::report::render(&report)
    );
}

/// The read-modify-write idiom `a[k] = a[k] + v` checks the same operand
/// shape twice with no intervening call or register write: the second
/// (store) check is redundant, rooted at the first (load).
#[test]
fn rmw_store_check_is_redundant() {
    let src = "
        fn main() {
            var a = malloc(64);
            a[2] = 1;
            a[2] = a[2] + 5;
            a[2] = a[2] + 7;
            print(a[2]);
            return 0;
        }";
    let image = compile(src).expect("compiles");
    let disasm = disassemble(&image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    let redundant = RedundantChecks::compute(&disasm, &cfg, image.entry, |_, inst| {
        inst.memory_access().is_some_and(|m| can_reach_heap(&m))
    });
    assert!(
        !redundant.is_empty(),
        "RMW sequence produced no redundant checks"
    );
    // Every root must strictly dominate its site and must itself be
    // non-redundant (chains fully chased).
    let roots = redfat_analysis::unknown_entries(&disasm, &cfg, image.entry);
    let dom = DomTree::compute(&cfg, &roots);
    for (site, root) in redundant.iter() {
        assert_ne!(site, root);
        assert!(dom.site_dominates(&cfg, root, site));
        assert!(!redundant.is_redundant(root));
    }
}

/// A call between two identical checks clears availability: unknown code
/// may `free` the object, so the later check must stay.
#[test]
fn call_kills_redundancy() {
    let src = "
        fn nop() { return 0; }
        fn main() {
            var a = malloc(64);
            a[2] = 1;
            nop();
            a[2] = 2;
            print(a[2]);
            return 0;
        }";
    let image = compile(src).expect("compiles");
    let disasm = disassemble(&image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    let redundant = RedundantChecks::compute(&disasm, &cfg, image.entry, |_, inst| {
        inst.memory_access().is_some_and(|m| can_reach_heap(&m))
    });
    // The two `a[2]` stores bracket a call; neither may be considered
    // redundant with the other. (The `a[2]` load feeding print may
    // legitimately be redundant w.r.t. the second store.)
    // We assert the stronger property per-pair via the fact that any
    // surviving redundancy's root/site pair has no call between them --
    // here by checking every redundant site sits *after* the call-free
    // suffix store.
    for (site, root) in redundant.iter() {
        // No Call instruction may exist in [root, site] in address
        // order when both live in the same straight-line block chain.
        let calls_between = disasm
            .iter()
            .filter(|(a, i, _)| *a > root && *a < site && matches!(i.op, redfat_x86::Op::Call))
            .count();
        assert_eq!(
            calls_between, 0,
            "redundant pair ({root:#x},{site:#x}) spans a call"
        );
    }
}

/// Randomized agreement: on random safe programs, flow elimination never
/// drops a site the syntactic rule keeps *and* the emulator would touch
/// the heap through -- validated structurally here (heap-derived bases
/// come from calls, which clobber to Top), and dynamically by the
/// workloads oracle test.
#[test]
fn random_programs_static_sanity() {
    let mut r = Rng64::new(0xF10_0001);
    for _ in 0..32 {
        let elems = r.range_u64(2, 10);
        let muts = r.below(4);
        let src = format!(
            "global g[{elems}];
            fn main() {{
                var a = malloc({elems} * 8);
                var p = &g;
                var s = 0;
                for (var i = 0; i < {elems}; i = i + 1) {{
                    a[i] = i + {muts};
                    p[{muts}] = a[i];
                    s = s + p[{muts}];
                }}
                print(s);
                return 0;
            }}"
        );
        let image = compile(&src).expect("compiles");
        let disasm = disassemble(&image);
        let cfg = Cfg::recover(&disasm, image.entry, &[]);
        let prov = Provenance::compute(&disasm, &cfg, image.entry);
        for (addr, inst, _) in disasm.iter() {
            let Some(mem) = inst.memory_access() else {
                continue;
            };
            if !can_reach_heap(&mem) {
                continue;
            }
            if prov.site_can_reach_heap(&disasm, &cfg, addr, inst) {
                continue;
            }
            // Flow-eliminated: the abstract span must be disjoint from
            // the heap, which for this program shape means a global or
            // stack address -- never a malloc result. Structural proxy:
            // the base register cannot be the malloc return conduit
            // immediately after a call (calls clobber to Top, so any
            // surviving interval is call-free provenance).
            let facts = prov
                .facts_before(&disasm, &cfg, addr)
                .expect("eliminated site must have facts");
            for reg in mem.regs() {
                assert!(
                    facts.get(reg) != redfat_analysis::AbsVal::Top,
                    "eliminated site {addr:#x} has Top operand register"
                );
            }
        }
    }
}

/// The report classifies every access site exactly once and counts add
/// up.
#[test]
fn report_partitions_sites() {
    let src = "
        global t[4];
        fn main() {
            var a = malloc(32);
            var p = &t;
            p[1] = 3;
            a[1] = p[1];
            a[1] = a[1] * 2;
            print(a[1]);
            return 0;
        }";
    let image = compile(src).expect("compiles");
    let report = analyze_image(&image, 0);
    let total = report.checked()
        + report.eliminated_syntactic()
        + report.eliminated_flow()
        + report.redundant();
    assert_eq!(total, report.sites.len());
    assert!(!report.sites.is_empty());
    for s in &report.sites {
        if let SiteVerdict::Redundant { root } = s.verdict {
            assert!(report.sites.iter().any(|o| o.addr == root));
        }
    }
}
