//! Tests for the experiment harness itself: the full Table 1 pipeline on
//! one benchmark, false-positive counting, and the helpers.

use redfat_bench::{false_positive_sites, geomean, parallel_map, table1_row};
use redfat_core::AllocPolicyKind;
use redfat_workloads::spec;

#[test]
fn geomean_is_correct() {
    assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-9);
    assert!((geomean([3.0]) - 3.0).abs() < 1e-9);
    assert_eq!(geomean(std::iter::empty()), 0.0);
}

#[test]
fn parallel_map_preserves_order() {
    let out = parallel_map((0..40).collect(), 4, |&x| x * 2);
    assert_eq!(out, (0..40).map(|x| x * 2).collect::<Vec<_>>());
}

#[test]
fn table1_pipeline_on_one_benchmark() {
    let wl = spec::by_name("perlbench").unwrap();
    let row = table1_row(&wl);
    // Structural sanity of the whole pipeline.
    assert!(row.coverage > 0.5 && row.coverage <= 1.0);
    assert!(row.baseline_cycles > 100_000);
    // Optimization ladder: unoptimized is the most expensive; each later
    // column is no more expensive than the previous.
    for w in row.redfat.windows(2) {
        assert!(w[1] <= w[0] * 1.02, "ladder violated: {:?}", row.redfat);
    }
    assert!(row.redfat[5] < row.redfat[0]);
    assert!(row.redfat[8] >= 1.0, "-reads still costs something");
    // +interproc can only remove checks relative to +redund.
    assert!(row.redfat[6] <= row.redfat[5] * 1.02);
    // Memcheck runs and is slower than optimized RedFat.
    let mc = row.memcheck.expect("perlbench is memcheck-runnable");
    assert!(
        mc > row.redfat[4],
        "memcheck {mc} vs +flow {}",
        row.redfat[4]
    );
}

#[test]
fn false_positive_counts_match_planted_sites() {
    for name in ["gobmk", "calculix"] {
        let wl = spec::by_name(name).unwrap();
        let expected = wl.anti_idiom_sites;
        assert_eq!(
            false_positive_sites(&wl, AllocPolicyKind::default()),
            expected,
            "{name} planted sites"
        );
    }
}

#[test]
fn nr_rows_have_no_memcheck_numbers() {
    let wl = spec::by_name("zeusmp").unwrap();
    let row = table1_row(&wl);
    assert!(row.memcheck.is_none(), "zeusmp models Valgrind's x87 NR");
}
