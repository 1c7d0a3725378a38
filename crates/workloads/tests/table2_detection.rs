//! Table 2 end-to-end: RedFat detects every non-incremental overflow
//! (CVEs + Juliet sample); the Memcheck baseline detects none of them,
//! while both behave cleanly on benign inputs.

use redfat_core::{harden, run, HardenConfig, LowFatPolicy, RunSpec};
use redfat_emu::{Emu, ErrorMode, RunResult};
use redfat_memcheck::MemcheckRuntime;
use redfat_workloads::{cve, juliet};

fn redfat_detects(workload: &redfat_workloads::Workload, input: &[i64]) -> bool {
    let hardened = harden(
        &workload.image(),
        &HardenConfig::with_merge(LowFatPolicy::All),
    )
    .expect("hardens");
    let out = run(
        &hardened.image,
        &RunSpec::new(input, ErrorMode::Abort, 50_000_000),
    )
    .unwrap();
    matches!(out.result, RunResult::MemoryError(_))
}

fn redfat_clean(workload: &redfat_workloads::Workload, input: &[i64]) -> bool {
    let hardened = harden(
        &workload.image(),
        &HardenConfig::with_merge(LowFatPolicy::All),
    )
    .expect("hardens");
    let out = run(
        &hardened.image,
        &RunSpec::new(input, ErrorMode::Abort, 50_000_000),
    )
    .unwrap();
    matches!(out.result, RunResult::Exited(_))
}

fn memcheck_detects(workload: &redfat_workloads::Workload, input: &[i64]) -> (bool, bool) {
    let rt = MemcheckRuntime::new(ErrorMode::Abort).with_input(input.to_vec());
    let mut emu = Emu::load_image(&workload.image(), rt).expect("loads");
    let r = emu.run(50_000_000);
    let detected = matches!(r, RunResult::MemoryError(_)) || !emu.runtime.errors.is_empty();
    let clean_exit = matches!(r, RunResult::Exited(_));
    (detected, clean_exit)
}

#[test]
fn cves_detected_by_redfat_missed_by_memcheck() {
    for case in cve::all() {
        // Benign inputs are clean everywhere.
        assert!(
            redfat_clean(&case.workload, &case.benign_input),
            "{}: RedFat false positive on benign input",
            case.cve
        );
        let (mc_benign, mc_clean) = memcheck_detects(&case.workload, &case.benign_input);
        assert!(!mc_benign && mc_clean, "{}: Memcheck benign", case.cve);

        // Attack inputs: RedFat 1/1, Memcheck 0/1 (Table 2).
        assert!(
            redfat_detects(&case.workload, &case.attack_input),
            "{}: RedFat must detect the attack",
            case.cve
        );
        let (mc_attack, _) = memcheck_detects(&case.workload, &case.attack_input);
        assert!(
            !mc_attack,
            "{}: Memcheck should miss the redzone-skipping attack",
            case.cve
        );
    }
}

#[test]
fn juliet_sample_detected_by_redfat_missed_by_memcheck() {
    // The full 480-case sweep runs in the table2 harness; here a
    // deterministic sample across the parameter grid keeps the test
    // fast while covering every pattern and shape.
    let suite = juliet::generate();
    assert_eq!(suite.len(), 480);
    for (i, case) in suite.iter().enumerate() {
        if i % 23 != 0 {
            continue;
        }
        assert!(
            redfat_clean(&case.workload, &case.benign_input),
            "{}: benign must be clean",
            case.id
        );
        assert!(
            redfat_detects(&case.workload, &case.attack_input),
            "{}: RedFat must detect",
            case.id
        );
        let (mc, _) = memcheck_detects(&case.workload, &case.attack_input);
        assert!(!mc, "{}: Memcheck must miss", case.id);
    }
}
