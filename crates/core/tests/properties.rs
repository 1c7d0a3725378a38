//! Randomized tests for the hardening pipeline: random mini-C programs
//! must behave identically before and after hardening (on inputs with
//! no memory errors), under every optimization configuration. Driven by
//! a deterministic seeded generator.

use redfat_core::{harden, run, HardenConfig, LowFatPolicy, RunSpec};
use redfat_emu::{ErrorMode, RunResult};
use redfat_minic::compile;
use redfat_vm::Rng64;

/// Generates a random but memory-safe mini-C program: fixed-size heap
/// arrays accessed through in-bounds indices only, with random
/// arithmetic and control flow.
fn random_program(r: &mut Rng64) -> String {
    let elems = r.range_u64(2, 12);
    let loops = r.range_u64(1, 6);
    let n_ops = r.below_usize(11) + 1;
    let mut body = String::new();
    for _ in 0..n_ops {
        let slot = r.below(8);
        let val = r.range_i64(0, 50);
        let idx = slot % elems;
        match r.below(5) {
            0 => body.push_str(&format!("a[{idx}] = {val};\n")),
            1 => body.push_str(&format!("a[{idx}] = a[{idx}] + {val};\n")),
            2 => body.push_str(&format!("s = s + a[{idx}] * {val};\n")),
            3 => body.push_str(&format!(
                "if (a[{idx}] > {val}) {{ s = s + 1; }} else {{ a[{idx}] = {val}; }}\n"
            )),
            _ => body.push_str(&format!(
                "for (var k = 0; k < {elems}; k = k + 1) {{ s = s + a[k] + {val}; }}\n"
            )),
        }
    }
    format!(
        "fn main() {{
            var a = malloc({elems} * 8);
            for (var i = 0; i < {elems}; i = i + 1) {{ a[i] = i; }}
            var s = 0;
            for (var l = 0; l < {loops}; l = l + 1) {{
                {body}
            }}
            print(s);
            for (var i = 0; i < {elems}; i = i + 1) {{ print(a[i]); }}
            return 0;
        }}"
    )
}

#[test]
fn hardening_preserves_random_program_behavior() {
    let mut r = Rng64::new(0xC04E_0001);
    for case in 0..48 {
        let src = random_program(&mut r);
        let image = compile(&src).expect("generated programs compile");
        let base = run(&image, &RunSpec::new(&[], ErrorMode::Abort, 20_000_000)).unwrap();
        assert_eq!(base.result, RunResult::Exited(0), "case {case}");

        for cfg in [
            HardenConfig::unoptimized(LowFatPolicy::All),
            HardenConfig::with_merge(LowFatPolicy::All),
            HardenConfig::with_redundant(LowFatPolicy::All),
            HardenConfig::minus_reads(LowFatPolicy::Disabled),
        ] {
            let hardened = harden(&image, &cfg).expect("hardens");
            let spec = RunSpec::new(&[], ErrorMode::Abort, 100_000_000);
            let out = run(&hardened.image, &spec).unwrap();
            assert_eq!(
                out.result,
                RunResult::Exited(0),
                "case {case} config {cfg:?}"
            );
            assert_eq!(
                out.io.out_ints, base.io.out_ints,
                "case {case} config {cfg:?}"
            );
            assert!(out.counters.cycles >= base.counters.cycles);
        }
    }
}

#[test]
fn out_of_bounds_index_always_detected() {
    // Any index that lands beyond the object's class must be caught
    // by the full check (write path).
    let mut r = Rng64::new(0xC04E_0002);
    for _ in 0..24 {
        let elems = r.range_u64(2, 12);
        let excess = r.range_u64(3, 40);
        let src = format!(
            "fn main() {{
                var a = malloc({elems} * 8);
                var pad = malloc({elems} * 8);
                pad[0] = 1;
                a[input()] = 7;
                return 0;
            }}"
        );
        let image = compile(&src).expect("compiles");
        let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
        // Class capacity in elements (user area minus nothing; the
        // check bound is the malloc size).
        let idx = (elems + excess) as i64;
        let overflow = [idx];
        let spec = RunSpec::new(&overflow, ErrorMode::Abort, 10_000_000);
        let out = run(&hardened.image, &spec).unwrap();
        assert!(
            matches!(out.result, RunResult::MemoryError(_)),
            "idx {} on {} elems gave {:?}",
            idx,
            elems,
            out.result
        );
        // And the in-bounds probe is clean.
        let last = [elems as i64 - 1];
        let spec = RunSpec::new(&last, ErrorMode::Abort, 10_000_000);
        let ok = run(&hardened.image, &spec).unwrap();
        assert_eq!(ok.result, RunResult::Exited(0));
    }
}
