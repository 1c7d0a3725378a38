//! Tests of the benchmark's own logic: the percentile rule, the edit
//! generator and seed determinism.

use redfat_analysis::{disassemble, Cfg};
use redfat_core::{harden_cached, harden_threaded, HardenConfig, MemoryComponentCache};
use redfat_e2ebench::inputs::{daemon_ops, kromium_source, pick_edits, spec_order, DaemonOp};
use redfat_e2ebench::stats::{tail_percentile, MIN_BEYOND};
use redfat_workloads::{kromium, spec};

#[test]
fn p90_is_reported_only_with_ten_samples_beyond_it() {
    let values: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(tail_percentile(&values[..100], 90.0), Some(90.0));
    assert_eq!(tail_percentile(&values[..99], 90.0), None);
    assert_eq!(tail_percentile(&values[..20], 90.0), None);
    assert_eq!(tail_percentile(&values, 90.0), Some(180.0));
    // p50 of 20 samples has 10 beyond it; p50 of 19 does not.
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(tail_percentile(&values[..20], 50.0), Some(10.0));
    assert_eq!(tail_percentile(&values[..19], 50.0), None);
}

#[test]
fn every_edit_of_a_stand_in_reanalyzes_exactly_one_component() {
    let config = HardenConfig::default();
    for name in ["gcc", "calculix"] {
        let image = spec::by_name(name).expect("stand-in").image();
        let cache = MemoryComponentCache::new();
        harden_cached(&image, &config, 2, &cache).expect("cold harden");
        for (i, edit) in pick_edits(&image, 11, 8).into_iter().enumerate() {
            let variant = edit.apply(&image);
            let warm = harden_cached(&variant, &config, 2, &cache).expect("edit hardens");
            assert_eq!(
                warm.stats.components_reused + 1,
                warm.stats.components,
                "{name} edit {i} at {:#x}",
                edit.inst
            );
            let cold = harden_threaded(&variant, &config, 1).expect("cold edit hardens");
            assert_eq!(
                warm.image.to_bytes(),
                cold.image.to_bytes(),
                "{name} edit {i}"
            );
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_op_sequence() {
    assert_eq!(daemon_ops(3, 10, 150), daemon_ops(3, 10, 150));
    assert_ne!(daemon_ops(3, 10, 150), daemon_ops(4, 10, 150));
    assert_eq!(spec_order(3, 2, 29), spec_order(3, 2, 29));
    assert_ne!(spec_order(3, 2, 29), spec_order(3, 3, 29));

    let ops = daemon_ops(9, 10, 150);
    assert_eq!(ops.len(), 160);
    assert_eq!(ops[0], DaemonOp::Edit(0));
    let mut submitted = 0;
    for op in ops {
        match op {
            DaemonOp::Edit(v) => {
                assert_eq!(v, submitted, "edits submit variants in order");
                submitted += 1;
            }
            DaemonOp::Hit(v) => assert!(v < submitted, "hits re-submit an earlier variant"),
        }
    }
    assert_eq!(submitted, 10);

    let mut order = spec_order(5, 0, 29);
    order.sort_unstable();
    assert_eq!(order, (0..29).collect::<Vec<_>>());
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_exact_counts() {
    let base = kromium::source(kromium::DEFAULT_FILLERS);
    let (a, b, c) = (kromium_source(3), kromium_source(3), kromium_source(4));
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!(a.len(), base.len(), "reordering keeps every function");

    let counts = |src: &str| {
        let image = redfat_minic::compile(src).expect("kromium compiles");
        let disasm = disassemble(&image);
        let cfg = Cfg::recover(&disasm, image.entry, &[]);
        let edits = pick_edits(&image, 3, 4);
        (
            image.to_bytes(),
            disasm.len(),
            cfg.components().len(),
            edits,
        )
    };
    let (ia, na, ca, ea) = counts(&a);
    let (ib, nb, cb, eb) = counts(&b);
    let (ic, nc, cc, _) = counts(&c);
    assert_eq!((ia.clone(), na, ca, ea), (ib, nb, cb, eb));
    assert_ne!(ia, ic, "another seed moves the functions");
    assert_eq!((na, ca), (nc, cc), "another seed keeps the exact counts");
    assert_eq!(ca, 3419);
}
