//! The paper's §3 core argument as a measured matrix: which memory-error
//! classes each methodology detects, for (Redzone)-only, (LowFat)-only,
//! and the combined check. "Complementary protection offers an overall
//! stronger defense than each individual protection can offer alone."

use redfat_core::{harden, run, HardenConfig, LowFatPolicy, RunSpec};
use redfat_emu::{ErrorMode, RunResult};
use redfat_minic::compile;

/// An error-class probe: a program + input that triggers exactly that
/// class of memory error.
struct Probe {
    class: &'static str,
    source: &'static str,
    input: Vec<i64>,
}

fn probes() -> Vec<Probe> {
    vec![
        Probe {
            class: "incremental overflow (redzone hit)",
            source: "fn main() {
                var a = malloc(40);
                var b = malloc(40);
                b[0] = 1;
                var n = input();
                for (var i = 0; i < n; i = i + 1) { a[i] = i; }
                return 0;
            }",
            // Runs off the end, through padding, into the next redzone.
            input: vec![7],
        },
        Probe {
            class: "non-incremental skip into live object",
            source: "fn main() {
                var a = malloc(40);
                var b = malloc(40);
                b[0] = 1;
                a[input()] = 7;
                return 0;
            }",
            // Object stride is 64B = 8 elements; land in b's user data.
            input: vec![10],
        },
        Probe {
            class: "use-after-free",
            source: "fn main() {
                var a = malloc(40);
                free(a);
                a[input()] = 7;
                return 0;
            }",
            input: vec![1],
        },
        Probe {
            class: "overflow into allocation padding",
            source: "fn main() {
                var a = malloc(40);
                a[input()] = 7;
                return 0;
            }",
            // Elements 5 of 40B object in a 64B class: padding.
            input: vec![5],
        },
        Probe {
            class: "underflow into own redzone",
            source: "fn main() {
                var a = malloc(40);
                a[input()] = 7;
                return 0;
            }",
            input: vec![-1],
        },
    ]
}

fn detects(cfg: &HardenConfig, probe: &Probe) -> bool {
    let image = compile(probe.source).expect("probe compiles");
    let hardened = harden(&image, cfg).expect("hardens");
    let spec = RunSpec::new(&probe.input, ErrorMode::Abort, 10_000_000);
    let out = run(&hardened.image, &spec).expect("image loads");
    matches!(out.result, RunResult::MemoryError(_))
}

fn main() {
    let configs: [(&str, HardenConfig); 3] = [
        ("Redzone", HardenConfig::with_merge(LowFatPolicy::Disabled)),
        ("LowFat", HardenConfig::lowfat_only()),
        ("Combined", HardenConfig::with_merge(LowFatPolicy::All)),
    ];
    println!("Complementarity matrix (paper §3): detected = x, missed = .");
    println!();
    println!(
        "{:<40} {:>8} {:>8} {:>9}",
        "error class", "Redzone", "LowFat", "Combined"
    );
    for probe in probes() {
        let verdicts: Vec<bool> = configs.iter().map(|(_, c)| detects(c, &probe)).collect();
        println!(
            "{:<40} {:>8} {:>8} {:>9}",
            probe.class,
            if verdicts[0] { "x" } else { "." },
            if verdicts[1] { "x" } else { "." },
            if verdicts[2] { "x" } else { "." },
        );
        assert!(
            verdicts[2],
            "combined check must detect every class: {}",
            probe.class
        );
    }
    println!();
    println!("The combined column dominates: each individual methodology");
    println!("misses classes the other catches (Problem #1 / UAF vs. skips).");
}
