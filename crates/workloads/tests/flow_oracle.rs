//! Soundness oracle for the flow-sensitive passes, run over the whole
//! SPEC stand-in suite:
//!
//! 1. **Provenance oracle** (property test): every check site the static
//!    analysis eliminates -- syntactically or flow-sensitively -- must
//!    never dereference a low-fat heap address at runtime. Checked by
//!    executing the *original* image under a wrapper runtime that
//!    observes every memory access.
//! 2. **Ablation win**: "+flow" must eliminate strictly more sites than
//!    "+elim" (and cost no more cycles) on a sizable share of the suite.
//! 3. **Redundant-pass detection equivalence** (integration test): the
//!    fully optimized configuration (with redundant-check downgrading)
//!    must reach exactly the same detection verdicts as "+merge" on the
//!    Table 2 attack/benign suites.

use redfat_analysis::{analyze_image, SiteVerdict};
use redfat_core::{harden, run_once, HardenConfig, LowFatPolicy};
use redfat_emu::{
    Cpu, Emu, ErrorMode, HostRuntime, MemoryError, RunResult, Runtime, SyscallOutcome,
};
use redfat_vm::{layout, Vm};
use redfat_workloads::{cve, juliet, spec};
use std::collections::BTreeSet;

/// Delegates everything to [`HostRuntime`] but records any access that
/// an *eliminated* site makes to low-fat heap memory.
struct OracleRuntime {
    inner: HostRuntime,
    eliminated: BTreeSet<u64>,
    violations: Vec<(u64, u64)>,
}

impl Runtime for OracleRuntime {
    // The oracle audits every access through the hook.
    const OBSERVES_MEMORY: bool = true;

    fn on_load(&mut self, vm: &mut Vm) {
        self.inner.on_load(vm);
    }

    fn syscall(&mut self, cpu: &mut Cpu, vm: &mut Vm) -> SyscallOutcome {
        self.inner.syscall(cpu, vm)
    }

    fn on_memory_access(
        &mut self,
        vm: &Vm,
        addr: u64,
        len: u8,
        is_write: bool,
        rip: u64,
    ) -> Result<(), MemoryError> {
        if self.eliminated.contains(&rip) {
            let lo = addr;
            let hi = addr.wrapping_add(len as u64);
            if hi > layout::heap_start() && lo < layout::heap_end() {
                self.violations.push((rip, addr));
            }
        }
        self.inner.on_memory_access(vm, addr, len, is_write, rip)
    }
}

/// Every site the static analysis claims non-heap, on every benchmark,
/// for both train and ref inputs: the claim must hold dynamically.
#[test]
fn eliminated_sites_never_touch_the_heap() {
    for wl in spec::all() {
        let image = wl.image();
        let report = analyze_image(&image, 0);
        let eliminated_addrs: BTreeSet<u64> = report
            .sites
            .iter()
            .filter(|s| {
                matches!(
                    s.verdict,
                    SiteVerdict::EliminatedSyntactic | SiteVerdict::EliminatedFlow
                )
            })
            .map(|s| s.addr)
            .collect();
        // The emulator reports accesses against the *fall-through* rip
        // (the step loop advances before executing), so translate each
        // eliminated site to its successor address.
        let disasm = redfat_analysis::disassemble(&image);
        let eliminated: BTreeSet<u64> = disasm
            .iter()
            .filter(|(a, _, _)| eliminated_addrs.contains(a))
            .map(|(a, _, len)| a + len as u64)
            .collect();

        for input in [&wl.train_input, &wl.ref_input] {
            let rt = OracleRuntime {
                inner: HostRuntime::new(ErrorMode::Log).with_input(input.clone()),
                eliminated: eliminated.clone(),
                violations: Vec::new(),
            };
            let mut emu = Emu::load_image(&image, rt).expect("loads");
            let r = emu.run(4_000_000_000);
            assert!(
                matches!(r, RunResult::Exited(_)),
                "{}: oracle run must exit ({r:?})",
                wl.name
            );
            assert!(
                emu.runtime.violations.is_empty(),
                "{}: {} eliminated site(s) touched the heap, first at rip {:#x} addr {:#x}",
                wl.name,
                emu.runtime.violations.len(),
                emu.runtime.violations[0].0,
                emu.runtime.violations[0].1
            );
        }
    }
}

/// `redfat analyze` and `redfat harden` classify sites with separate
/// code: under the default config both must count the same sites, the
/// same syntactic eliminations and the same flow eliminations on every
/// stand-in. (Redundant counts differ by design: the pipeline counts a
/// downgrade per merged check, the report per site.)
#[test]
fn analyze_and_harden_agree_on_site_counts() {
    for wl in spec::all() {
        let image = wl.image();
        let report = analyze_image(&image, 0);
        let stats = harden(&image, &HardenConfig::default()).unwrap().stats;
        assert_eq!(
            (
                report.sites.len(),
                report.eliminated_syntactic(),
                report.eliminated_flow()
            ),
            (
                stats.sites_considered,
                stats.sites_eliminated,
                stats.sites_eliminated_flow
            ),
            "{}: analyze vs harden (sites, syntactic, flow)",
            wl.name
        );
    }
}

/// The tentpole's Table 1 claim: "+flow" eliminates strictly more sites
/// than "+elim" -- with no extra runtime cost -- on a large share of the
/// suite, and the redundant pass finds subsumed checks on top.
#[test]
fn flow_pass_wins_on_most_benchmarks() {
    let mut flow_wins = 0usize;
    let mut redundant_total = 0usize;
    let suite = spec::all();
    for wl in &suite {
        let image = wl.image();
        let merge = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All)).unwrap();
        let flow = harden(&image, &HardenConfig::with_flow(LowFatPolicy::All)).unwrap();
        let redund = harden(&image, &HardenConfig::with_redundant(LowFatPolicy::All)).unwrap();

        assert_eq!(merge.stats.sites_eliminated_flow, 0);
        assert!(
            flow.stats.sites_eliminated >= merge.stats.sites_eliminated,
            "{}: flow config lost syntactic eliminations",
            wl.name
        );
        redundant_total += redund.stats.sites_redundant;

        if flow.stats.sites_eliminated_flow == 0 {
            continue;
        }
        // Strictly more instrumentation removed; runs must agree and
        // cost no more cycles than "+merge".
        let base = run_once(
            &merge.image,
            wl.train_input.clone(),
            ErrorMode::Log,
            4_000_000_000,
        );
        let opt = run_once(
            &flow.image,
            wl.train_input.clone(),
            ErrorMode::Log,
            4_000_000_000,
        );
        assert_eq!(
            base.io.digest(),
            opt.io.digest(),
            "{}: +flow changed output",
            wl.name
        );
        if opt.counters.cycles <= base.counters.cycles {
            flow_wins += 1;
        }
    }
    assert!(
        flow_wins >= 10,
        "+flow must win (more sites eliminated, no extra cycles) on at least \
         10 of {} benchmarks, got {flow_wins}",
        suite.len()
    );
    assert!(
        redundant_total > 0,
        "the redundant pass should fire somewhere in the suite"
    );
}

/// Zero detection regressions: the fully optimized configuration reaches
/// exactly the same verdicts as "+merge" on every Table 2 case.
#[test]
fn redundant_pass_preserves_detection_verdicts() {
    let verdict = |cfg: &HardenConfig, wl: &redfat_workloads::Workload, input: &[i64]| -> bool {
        let hardened = harden(&wl.image(), cfg).expect("hardens");
        let out = run_once(
            &hardened.image,
            input.to_vec(),
            ErrorMode::Abort,
            50_000_000,
        );
        matches!(out.result, RunResult::MemoryError(_))
    };
    let merge = HardenConfig::with_merge(LowFatPolicy::All);
    let redund = HardenConfig::with_redundant(LowFatPolicy::All);

    for case in cve::all() {
        for (input, what) in [
            (&case.benign_input, "benign"),
            (&case.attack_input, "attack"),
        ] {
            assert_eq!(
                verdict(&merge, &case.workload, input),
                verdict(&redund, &case.workload, input),
                "{} {what}: detection verdict changed under +redund",
                case.cve
            );
        }
    }
    for case in juliet::generate() {
        for (input, what) in [
            (&case.benign_input, "benign"),
            (&case.attack_input, "attack"),
        ] {
            assert_eq!(
                verdict(&merge, &case.workload, input),
                verdict(&redund, &case.workload, input),
                "juliet {} {what}: detection verdict changed under +redund",
                case.id
            );
        }
    }
}
