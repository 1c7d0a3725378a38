//! Determinism of the sharded hardening pipeline: the hardened image,
//! the statistics, and the clobber declarations must be identical at
//! every thread count. The shard unit is one weakly-connected CFG
//! component, so the worker count can only change *who* computes a
//! shard, never what any shard computes (see `Cfg::components`).

use redfat_core::selftest::assert_same_bytes;
use redfat_core::{harden_threaded, HardenConfig, LowFatPolicy};

#[test]
fn harden_is_identical_across_thread_counts() {
    for w in redfat_workloads::spec::all() {
        let image = w.image();
        for config in [
            HardenConfig::default(),
            HardenConfig::unoptimized(LowFatPolicy::All),
        ] {
            let serial = harden_threaded(&image, &config, 1).expect("serial harden");
            let serial_bytes = serial.image.to_bytes();
            for threads in [2usize, 8] {
                let parallel = harden_threaded(&image, &config, threads).expect("parallel harden");
                assert_same_bytes(
                    &format!("{} at {threads} threads", w.name),
                    &parallel.image.to_bytes(),
                    &serial_bytes,
                );
                assert_eq!(
                    serial.stats, parallel.stats,
                    "{}: stats differ at {threads} threads",
                    w.name
                );
                assert_eq!(
                    serial.clobbers, parallel.clobbers,
                    "{}: clobber declarations differ at {threads} threads",
                    w.name
                );
            }
        }
    }
}

#[test]
fn threads_beyond_component_count_are_harmless() {
    let image = redfat_minic::compile(
        "fn main() {
            var a = malloc(8 * 8);
            for (var i = 0; i < 8; i = i + 1) { a[i] = i * 3; }
            var s = 0;
            for (var i = 0; i < 8; i = i + 1) { s = s + a[i]; }
            print(s);
            free(a);
            return 0;
        }",
    )
    .expect("program compiles");
    let config = HardenConfig::default();
    let serial = harden_threaded(&image, &config, 1).expect("serial harden");
    let wide = harden_threaded(&image, &config, 64).expect("wide harden");
    assert_same_bytes(
        "64 threads",
        &wide.image.to_bytes(),
        &serial.image.to_bytes(),
    );
    assert_eq!(serial.stats, wide.stats);
}
