//! Quickstart: compile a vulnerable program, harden it with RedFat, and
//! watch the hardened binary catch an attack the original misses.
//!
//! Run with: `cargo run --release --example quickstart`

use redfat::core::{harden, run, HardenConfig, LowFatPolicy, RunSpec};
use redfat::emu::{ErrorMode, RunResult};
use redfat::minic::compile;

fn main() {
    // A program with the paper's "snippet (b)": an attacker-controlled,
    // non-incremental array index.
    let source = r#"
        fn main() {
            var tickets = malloc(10 * 8);      // 10 seats
            var prices = malloc(10 * 8);       // adjacent heap object
            for (var i = 0; i < 10; i = i + 1) {
                tickets[i] = 0;
                prices[i] = 100;
            }
            var seat = input();                 // attacker-controlled!
            tickets[seat] = 1;                  // no bounds check
            print(prices[2]);
            return 0;
        }
    "#;
    let image = compile(source).expect("compiles");

    // The original binary: the attack silently corrupts `prices`.
    let seat_3 = RunSpec::new(&[3], ErrorMode::Abort, 1_000_000);
    let seat_14 = RunSpec::new(&[14], ErrorMode::Abort, 1_000_000);
    let benign = run(&image, &seat_3).expect("image loads");
    println!(
        "original, seat=3  -> {:?}, prices[2] = {:?}",
        benign.result, benign.io.out_ints
    );
    let attacked = run(&image, &seat_14).expect("image loads");
    println!(
        "original, seat=14 -> {:?}, prices[2] = {:?}  (corrupted!)",
        attacked.result, attacked.io.out_ints
    );

    // Harden with the full (Redzone)+(LowFat) check (paper Figure 4).
    let config = HardenConfig::with_merge(LowFatPolicy::All);
    let hardened = harden(&image, &config).expect("hardens");
    println!(
        "\nhardened: {} sites full check, {} eliminated, {} trampolines",
        hardened.stats.sites_lowfat, hardened.stats.sites_eliminated, hardened.stats.batches
    );

    // The hardened binary behaves identically on benign input...
    let benign = run(&hardened.image, &seat_3).expect("image loads");
    println!(
        "hardened, seat=3  -> {:?}, prices[2] = {:?}",
        benign.result, benign.io.out_ints
    );

    // ...and aborts cleanly on the attack.
    let attacked = run(&hardened.image, &seat_14).expect("image loads");
    match attacked.result {
        RunResult::MemoryError(e) => {
            println!("hardened, seat=14 -> DETECTED: {e}");
        }
        other => panic!("expected detection, got {other:?}"),
    }
}
