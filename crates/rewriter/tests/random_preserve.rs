//! Randomized test: identity rewriting (empty payloads on every
//! heap-reachable access) preserves the behavior of *random* compiled
//! programs -- the strongest evidence that trampoline displacement,
//! RIP-relative fix-ups and patch-tactic selection are sound. Driven by
//! a deterministic seeded generator.

use redfat_analysis::{can_reach_heap, disassemble, plan_batches, Cfg};
use redfat_emu::{Emu, ErrorMode, HostRuntime, RunResult};
use redfat_minic::compile;
use redfat_rewriter::{rewrite, Patch};
use redfat_vm::Rng64;

fn random_program(r: &mut Rng64) -> String {
    let elems = r.range_u64(2, 10);
    let n_ops = r.below_usize(12) + 2;
    let mut body = String::new();
    for _ in 0..n_ops {
        let slot = r.below(10);
        let val = r.range_i64(1, 30);
        let idx = slot % elems;
        match r.below(6) {
            0 => body.push_str(&format!("a[{idx}] = s + {val};\n")),
            1 => body.push_str(&format!("s = s + a[{idx}];\n")),
            2 => body.push_str(&format!("s = s * {val} % 10007;\n")),
            3 => body.push_str(&format!("while (s > {val}) {{ s = s - {val}; }}\n")),
            4 => body.push_str(&format!("s = s + helper(a[{idx}], {val});\n")),
            _ => body.push_str(&format!("if (s % 3 == 0) {{ a[{idx}] = {val}; }}\n")),
        }
    }
    format!(
        "fn helper(x, y) {{ return x * 2 + y; }}
        fn main() {{
            var a = malloc({elems} * 8);
            for (var i = 0; i < {elems}; i = i + 1) {{ a[i] = i + 1; }}
            var s = 1;
            {body}
            print(s);
            for (var i = 0; i < {elems}; i = i + 1) {{ print(a[i]); }}
            return 0;
        }}"
    )
}

#[test]
fn identity_rewrite_preserves_random_programs() {
    let mut r = Rng64::new(0x4E1_0001);
    for case in 0..64 {
        let src = random_program(&mut r);
        let image = compile(&src).expect("compiles");
        let mut base_emu =
            Emu::load_image(&image, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        let base = base_emu.run(20_000_000);
        assert_eq!(base, RunResult::Exited(0), "case {case}");
        let base_out = base_emu.runtime.io.out_ints.clone();

        let d = disassemble(&image);
        let cfg = Cfg::recover(&d, image.entry, &[]);
        let batches = plan_batches(&d, &cfg, true, |_, i| {
            i.memory_access().is_some_and(|m| can_reach_heap(&m))
        });
        let patches: Vec<Patch> = batches
            .iter()
            .map(|b| Patch {
                anchor: b.anchor,
                code: &[],
                entry: 0,
                rip_fields: &[],
                calls: &[],
            })
            .collect();
        let n_patches = patches.len();
        let out = rewrite(&image, &d, &cfg.leaders, &patches).expect("rewrites");
        assert!(n_patches > 0, "case {case}: programs always touch the heap");

        let mut emu =
            Emu::load_image(&out.image, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        let result = emu.run(40_000_000);
        assert_eq!(result, RunResult::Exited(0), "case {case}");
        assert_eq!(emu.runtime.io.out_ints, base_out, "case {case}");
    }
}
