//! Trampolines are assembled where they are planned and copied into
//! place by the rewrite. Their bytes do not depend on where they land,
//! but for the rel32 fields that placement writes, among them the `lea`
//! of a rip-relative operand: checked under `--no-elim`, such a `lea`
//! must compute the operand's absolute address at any trampoline base.

use redfat_core::{harden_with_bases, HardenConfig, RunOutcome, RunSpec};
use redfat_emu::ErrorMode;
use redfat_rewriter::RewriteBases;
use redfat_vm::layout;
use redfat_workloads::riprel;
use redfat_x86::{decode_all, Op, Operands};
use std::collections::BTreeSet;

/// `--no-elim`: every access checked, rip-relative ones included.
fn no_elim() -> HardenConfig {
    HardenConfig {
        elim: false,
        elim_flow: false,
        elim_redundant: false,
        ..HardenConfig::default()
    }
}

/// The targets of the rip-relative `lea`s in the trampoline segment at
/// `base`, in address order.
fn rip_lea_targets(image: &redfat_elf::Image, base: u64) -> Vec<u64> {
    let tramp = image.segment_at(base).expect("trampoline segment");
    let insts = decode_all(&tramp.data, base);
    let decoded: usize = insts.iter().map(|(_, _, len)| usize::from(*len)).sum();
    assert_eq!(decoded, tramp.data.len(), "trampolines decode completely");
    insts
        .iter()
        .filter_map(|(_, inst, _)| match (inst.op, inst.operands) {
            (Op::Lea, Operands::RM { src, .. }) if src.rip => Some(src.disp as u64),
            _ => None,
        })
        .collect()
}

fn run(image: &redfat_elf::Image) -> RunOutcome {
    redfat_core::run(image, &RunSpec::new(&[], ErrorMode::Log, 100_000)).unwrap()
}

#[test]
fn rip_relative_checks_reach_their_operands_at_any_trampoline_base() {
    let image = riprel::image();
    let baseline = run(&image);
    let bases = [
        layout::TRAMPOLINE_BASE,
        layout::TRAMPOLINE_BASE + 0x0800_0123,
    ];
    let mut runs = Vec::new();
    let mut leas = Vec::new();
    for trampoline in bases {
        let bases = RewriteBases {
            trampoline,
            ..RewriteBases::default()
        };
        let hardened = harden_with_bases(&image, &no_elim(), bases).expect("hardens");
        let targets = rip_lea_targets(&hardened.image, trampoline);
        let distinct: BTreeSet<u64> = targets.iter().copied().collect();
        assert_eq!(
            distinct,
            BTreeSet::from([riprel::POINTER, riprel::COUNTER]),
            "at {trampoline:#x}: {targets:x?}"
        );
        leas.push(targets);
        runs.push(run(&hardened.image));
    }
    assert_eq!(leas[0], leas[1], "the same checks at both bases");
    assert_eq!(runs[0].result, runs[1].result);
    assert_eq!(runs[0].io.out_ints, runs[1].io.out_ints);
    assert_eq!(runs[0].errors, runs[1].errors);
    // The hardened runs print what the baseline prints and report the
    // store past the object's end, once.
    assert_eq!(runs[0].io.out_ints, baseline.io.out_ints);
    assert!(baseline.errors.is_empty());
    assert_eq!(runs[0].errors.len(), 1, "{:?}", runs[0].errors);
}

#[test]
fn a_rip_relative_check_out_of_reach_fails_the_harden() {
    // A trampoline 2 GiB past the globals cannot reach them with a
    // rel32: the harden reports it rather than emitting a wrong `lea`.
    // Under the default config no payload reaches a global, but the
    // jumps back to the text are out of reach as well, and so fail the
    // harden on their own.
    let bases = RewriteBases {
        trampoline: layout::GLOBALS_BASE + (1 << 31),
        ..RewriteBases::default()
    };
    let default = HardenConfig::default();
    let near = harden_with_bases(&riprel::image(), &default, RewriteBases::default())
        .expect("hardens at the default base");
    assert!(near.stats.batches > 0, "the heap stores are checked");
    let leas = rip_lea_targets(&near.image, layout::TRAMPOLINE_BASE);
    assert!(leas.is_empty(), "no payload reaches a global: {leas:x?}");
    for config in [no_elim(), default] {
        let err = harden_with_bases(&riprel::image(), &config, bases)
            .err()
            .expect("out of reach");
        assert!(err.to_string().contains("rip rel32"), "{err}");
    }
}
