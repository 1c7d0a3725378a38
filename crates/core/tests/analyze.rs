//! `redfat analyze` over compiled mini-C programs: the report partitions
//! every access site, attributes each in-block site to a function and
//! is the same at any thread count.

use redfat_core::{analyze, SiteVerdict};
use redfat_minic::compile;

const WEIGH: &str = "fn weigh(x) {
        var t = malloc(4 * 8);
        for (var i = 0; i < 4; i = i + 1) { t[i] = x * i; }
        var s = 0;
        for (var i = 0; i < 4; i = i + 1) { s = s + t[i]; }
        free(t);
        return s;
    }
    fn main() {
        var a = malloc(16 * 8);
        var s = 0;
        for (var i = 0; i < 16; i = i + 1) { a[i] = weigh(i); }
        for (var i = 0; i < 16; i = i + 1) { s = s + a[i]; }
        print(s);
        free(a);
        return 0;
    }";

#[test]
fn report_is_the_same_at_any_thread_count() {
    let image = compile(WEIGH).expect("compiles");
    let one = analyze(&image, 1);
    assert!(!one.sites.is_empty());
    for threads in [2usize, 8] {
        let par = analyze(&image, threads);
        assert_eq!(
            one.to_string(),
            par.to_string(),
            "report differs at {threads} threads"
        );
        assert_eq!(
            (one.insts, one.blocks, one.roots),
            (par.insts, par.blocks, par.roots)
        );
    }
}

#[test]
fn sites_carry_function_attribution() {
    let image = compile(WEIGH).expect("compiles");
    let report = analyze(&image, 1);
    // Every in-block site is attributed to some recovered function.
    assert!(report.sites.iter().all(|s| s.func.is_some()));
    // More than one function exists, and sites spread across them.
    let funcs: std::collections::BTreeSet<u64> =
        report.sites.iter().filter_map(|s| s.func).collect();
    assert!(funcs.len() >= 2, "weigh and main both have sites");
}

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
    let report = analyze(&image, 1);
    assert!(
        report.eliminated_flow() >= 2,
        "expected the const-index global accesses flow-eliminated, got report:\n{report}"
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
    let report = analyze(&image, 1);
    // The heap stores/loads (plus the RMW pattern) must remain checked
    // or at most be *redundant* (still redzone-checked) -- never
    // flow-eliminated.
    assert!(
        report.checked() + report.redundant() >= 3,
        "heap accesses vanished:\n{report}"
    );
}

/// The report classifies every access site exactly once, counts add up,
/// and every redundant site names a reported root.
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
    let report = analyze(&image, 1);
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
