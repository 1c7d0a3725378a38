//! Performance trajectory harness (`BENCH_perf.json`).
//!
//! Measures, across the SPEC stand-in suite:
//!
//! * **Emulator throughput** -- retired instructions/sec of the step
//!   interpreter vs the fast tier (chaining, indirect-branch inline
//!   caches, dead-flag elision, host-pointer caching, batched counters)
//!   on the baseline image. Both backends must agree exactly on the
//!   run result and every cost counter; a difference aborts the run
//!   naming the first counter that diverged and both values. The
//!   headline `fast_speedup` is step → fast. The fast run's
//!   translation-cache behavior (hits, misses, chain follows,
//!   inline-cache hits/misses) is recorded per workload.
//! * **Harden wall-clock** -- end-to-end `harden()` time serial
//!   (1 thread) vs parallel (`--threads`/`REDFAT_THREADS`/available
//!   parallelism). The two images must be byte-identical, and the
//!   parallel path must not regress below serial beyond timing noise
//!   (the 1-thread thread-pool overhead regression stays fixed).
//!
//! Modes:
//!
//! * default: full sweep (ref inputs) plus the quick subset, written as
//!   JSON to `-o` (default `BENCH_perf.json`). The quick-subset geomeans
//!   are stored alongside the full ones so CI can compare like for like.
//! * `--quick`: measure only the quick subset (train inputs, reduced
//!   step budget), validate the committed baseline's schema, and fail
//!   if the measured geomean fast-tier speedup regressed more than 10%
//!   against the baseline's recorded quick geomean.
//! * `--micro`: run only the microbenchmark suite (reg-ALU, branch,
//!   mem-load, mem-store and mixed loops; `micro_suite`), printing
//!   per-category M instr/s for both backends. The full sweep
//!   always records the same suite in the `"micro"` JSON section, so
//!   the per-category numbers are versioned with `BENCH_perf.json`.
//! * `--check <file>`: validate the schema of an existing JSON file and
//!   exit (no measurement).
//!
//! All numbers are modeled-deterministic except wall-clock; the speedup
//! *ratios* are the stable, host-independent quantities the regression
//! gate uses.

use redfat_bench::{geomean, threads_from_args};
use redfat_core::{harden_threaded, HardenConfig};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::{syscalls, Emu, ErrorMode, ExecBackend, HostRuntime, RunResult, TraceStats};
use redfat_vm::layout;
use redfat_workloads::{spec, Workload};
use redfat_x86::{AluOp, Asm, Cond, Mem, Reg, Width};
use std::fmt::Write as _;
use std::time::Instant;

const SCHEMA: &str = "redfat-bench-perf/v7";
/// Step cap for the full sweep (ref inputs all exit well below this).
const FULL_BUDGET: u64 = 4_000_000_000;
/// Step cap for the quick subset (train inputs).
const QUICK_BUDGET: u64 = 100_000_000;
/// Quick mode fails if the fast-tier speedup geomean drops below
/// `baseline * (1 - REGRESSION_TOLERANCE)`.
const REGRESSION_TOLERANCE: f64 = 0.10;
/// Per-workload floor on serial/parallel harden ratio: the parallel
/// entry point must never be meaningfully slower than the serial path
/// (catches a return of the 1-thread thread-pool overhead bug while
/// absorbing wall-clock jitter).
const MIN_HARDEN_SPEEDUP: f64 = 0.80;
/// Timing repetitions; the minimum is reported.
const REPS: usize = 3;

struct Row {
    name: &'static str,
    instructions: u64,
    step_mips: f64,
    fast_mips: f64,
    /// Headline: step → fast throughput ratio.
    fast_speedup: f64,
    /// Translation-cache counters of the fast run.
    stats: TraceStats,
    harden_serial_ms: f64,
    harden_parallel_ms: f64,
    harden_speedup: f64,
}

/// Every 4th stand-in: 8 workloads spanning the suite.
fn quick_subset(suite: Vec<Workload>) -> Vec<Workload> {
    suite.into_iter().step_by(4).collect()
}

/// Counter-equality precondition for the throughput comparison: when
/// the fast run disagrees with `step()`, name the first counter that
/// diverged and both values -- "cost counters diverge" with two debug
/// dumps made people diff structs by eye. Cycles are priced from the
/// events, so equal events mean equal cycles.
fn assert_counters_equal(wl: &str, step: &redfat_emu::Counters, fast: &redfat_emu::Counters) {
    for ((name, s), (_, f)) in step.events().into_iter().zip(fast.events()) {
        assert_eq!(
            s, f,
            "{wl}: counter {name:?} diverges between step ({s}) and fast ({f})"
        );
    }
}

/// Times one emulator run; returns (result, counters, stats, best secs).
fn time_backend(
    image: &redfat_elf::Image,
    input: &[i64],
    backend: ExecBackend,
    budget: u64,
) -> (RunResult, redfat_emu::Counters, TraceStats, f64) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..REPS {
        let rt = HostRuntime::new(ErrorMode::Log).with_input(input.to_vec());
        let mut emu = Emu::load_image(image, rt).expect("loads");
        let t = Instant::now();
        let r = emu.run_backend(backend, budget);
        best = best.min(t.elapsed().as_secs_f64());
        outcome = Some((r, emu.counters, emu.trace_stats()));
    }
    let (r, c, s) = outcome.expect("REPS > 0");
    (r, c, s, best.max(1e-9))
}

fn measure(wl: &Workload, input: &[i64], budget: u64, threads: usize) -> Row {
    let image = wl.image();

    let (r_step, c_step, _, t_step) = time_backend(&image, input, ExecBackend::Step, budget);
    let (r_fast, c_fast, stats, t_fast) = time_backend(&image, input, ExecBackend::Fast, budget);
    assert_eq!(
        r_step, r_fast,
        "{}: backend run results diverge (step {r_step:?}, fast {r_fast:?})",
        wl.name
    );
    assert_counters_equal(wl.name, &c_step, &c_fast);
    assert!(
        matches!(r_step, RunResult::Exited(_) | RunResult::StepLimit),
        "{}: unexpected run result {r_step:?}",
        wl.name
    );

    let config = HardenConfig::default();
    let mut serial_best = f64::INFINITY;
    let mut parallel_best = f64::INFINITY;
    let mut serial_bytes = None;
    let mut parallel_bytes = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let h = harden_threaded(&image, &config, 1).expect("serial harden");
        serial_best = serial_best.min(t.elapsed().as_secs_f64());
        serial_bytes = Some(h.image.to_bytes());

        let t = Instant::now();
        let h = harden_threaded(&image, &config, threads).expect("parallel harden");
        parallel_best = parallel_best.min(t.elapsed().as_secs_f64());
        parallel_bytes = Some(h.image.to_bytes());
    }
    assert_eq!(
        serial_bytes, parallel_bytes,
        "{}: hardened image differs between 1 and {threads} threads",
        wl.name
    );
    let harden_speedup = serial_best / parallel_best.max(1e-9);
    assert!(
        harden_speedup >= MIN_HARDEN_SPEEDUP,
        "{}: harden_threaded({threads}) is {harden_speedup:.2}x vs serial -- the \
         parallel entry point regressed below the {MIN_HARDEN_SPEEDUP:.2}x floor",
        wl.name
    );

    Row {
        name: wl.name,
        instructions: c_step.instructions,
        step_mips: c_step.instructions as f64 / t_step / 1e6,
        fast_mips: c_step.instructions as f64 / t_fast / 1e6,
        fast_speedup: t_step / t_fast,
        stats,
        harden_serial_ms: serial_best * 1e3,
        harden_parallel_ms: parallel_best.max(1e-9) * 1e3,
        harden_speedup,
    }
}

fn sweep(suite: &[Workload], quick: bool, threads: usize) -> Vec<Row> {
    suite
        .iter()
        .map(|wl| {
            let input = if quick {
                &wl.train_input
            } else {
                &wl.ref_input
            };
            let budget = if quick { QUICK_BUDGET } else { FULL_BUDGET };
            let row = measure(wl, input, budget, threads);
            eprintln!(
                "perf: {:<14} {:>11} insts  step {:>6.1} M/s  \
                 fast {:>7.1} M/s  speedup {:.2}x  harden {:.2}x",
                row.name,
                row.instructions,
                row.step_mips,
                row.fast_mips,
                row.fast_speedup,
                row.harden_speedup
            );
            row
        })
        .collect()
}

fn rows_json(rows: &[Row]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"name\":\"{}\",\"instructions\":{},\"step_mips\":{:.3},\
             \"fast_mips\":{:.3},\"fast_speedup\":{:.4},\
             \"trace_hits\":{},\"trace_misses\":{},\"trace_chain_follows\":{},\
             \"trace_ic_hits\":{},\"trace_ic_misses\":{},\
             \"harden_serial_ms\":{:.3},\"harden_parallel_ms\":{:.3},\"harden_speedup\":{:.4}}}",
            r.name,
            r.instructions,
            r.step_mips,
            r.fast_mips,
            r.fast_speedup,
            r.stats.hits,
            r.stats.misses,
            r.stats.chain_follows,
            r.stats.ic_hits,
            r.stats.ic_misses,
            r.harden_serial_ms,
            r.harden_parallel_ms,
            r.harden_speedup
        );
    }
    s.push_str("\n  ]");
    s
}

fn fast_geomean(rows: &[Row]) -> f64 {
    geomean(rows.iter().map(|r| r.fast_speedup))
}

fn harden_geomean(rows: &[Row]) -> f64 {
    geomean(rows.iter().map(|r| r.harden_speedup))
}

/// One microbenchmark category: retired instructions and throughput on
/// each backend, run on the same hand-assembled loop.
struct MicroRow {
    name: &'static str,
    instructions: u64,
    step_mips: f64,
    fast_mips: f64,
}

/// Iterations per microbenchmark loop; each body is 2-5 instructions,
/// so every category retires 1-2 M instructions per run.
const MICRO_ITERS: i64 = 300_000;

/// Hand-assembled single-category loops. The SPEC stand-ins mix
/// categories; these isolate them so a per-backend win or regression
/// can be attributed (e.g. host-pointer caching only moves the mem-*
/// and mixed rows; batched counters move all of them).
///
/// Every loop uses the same skeleton -- rdi accumulator, rsi data base,
/// rbx countdown, `sub rbx,1; jne` backedge -- so the backedge cost is
/// a constant across categories. Memory categories get a small RW
/// segment at `layout::GLOBALS_BASE`.
fn micro_suite() -> Vec<(&'static str, Image)> {
    fn build(with_data: bool, body: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new(layout::CODE_BASE);
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        a.mov_ri(Width::W64, Reg::Rsi, layout::GLOBALS_BASE as i64);
        a.mov_ri(Width::W64, Reg::Rbx, MICRO_ITERS);
        let spin = a.label();
        a.bind(spin).unwrap();
        body(&mut a);
        a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 1);
        a.jcc_label(Cond::Ne, spin);
        a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
        a.syscall();
        let p = a.finish().unwrap();
        let mut segments = vec![Segment::new(p.base, SegFlags::RX, p.bytes)];
        if with_data {
            segments.push(Segment::new(
                layout::GLOBALS_BASE,
                SegFlags::RW,
                vec![0; 4096],
            ));
        }
        Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments,
            symbols: vec![],
        }
    }

    vec![
        (
            "reg-alu",
            build(false, |a| {
                a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 5);
                a.mov_rr(Width::W64, Reg::Rcx, Reg::Rdi);
                a.alu_ri(AluOp::And, Width::W64, Reg::Rcx, 7);
                a.alu_rr(AluOp::Xor, Width::W64, Reg::Rdi, Reg::Rcx);
            }),
        ),
        // Taken on even counts, fall-through on odd: a 50% mispredict
        // rate against the fast tier's expect-taken/expect-fallthrough
        // block shapes, stressing the side-exit path.
        (
            "branch",
            build(false, |a| {
                a.mov_rr(Width::W64, Reg::Rcx, Reg::Rbx);
                a.alu_ri(AluOp::And, Width::W64, Reg::Rcx, 1);
                let skip = a.label();
                a.jcc_label(Cond::E, skip);
                a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
                a.bind(skip).unwrap();
            }),
        ),
        (
            "mem-load",
            build(true, |a| {
                a.alu_rm(AluOp::Add, Width::W64, Reg::Rdi, Mem::base(Reg::Rsi));
                a.mov_rm(Width::W64, Reg::Rcx, Mem::base_disp(Reg::Rsi, 8));
                a.alu_rm(
                    AluOp::Add,
                    Width::W64,
                    Reg::Rdi,
                    Mem::base_disp(Reg::Rsi, 16),
                );
            }),
        ),
        (
            "mem-store",
            build(true, |a| {
                a.mov_mr(Width::W64, Mem::base(Reg::Rsi), Reg::Rbx);
                a.mov_mi(Width::W64, Mem::base_disp(Reg::Rsi, 8), 7);
                a.mov_mr(Width::W64, Mem::base_disp(Reg::Rsi, 16), Reg::Rdi);
            }),
        ),
        (
            "mixed",
            build(true, |a| {
                a.mov_mr(Width::W64, Mem::base(Reg::Rsi), Reg::Rbx);
                a.alu_rm(AluOp::Add, Width::W64, Reg::Rdi, Mem::base(Reg::Rsi));
                a.mov_rr(Width::W64, Reg::Rcx, Reg::Rdi);
                a.alu_ri(AluOp::And, Width::W64, Reg::Rcx, 15);
                let skip = a.label();
                a.jcc_label(Cond::E, skip);
                a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
                a.bind(skip).unwrap();
            }),
        ),
    ]
}

/// Times every category on both backends, under the same run-result and
/// counter-equality preconditions as the main sweep.
fn sweep_micro() -> Vec<MicroRow> {
    micro_suite()
        .into_iter()
        .map(|(name, image)| {
            let (r_step, c_step, _, t_step) =
                time_backend(&image, &[], ExecBackend::Step, FULL_BUDGET);
            let (r_fast, c_fast, _, t_fast) =
                time_backend(&image, &[], ExecBackend::Fast, FULL_BUDGET);
            assert!(
                matches!(r_step, RunResult::Exited(_)),
                "micro {name}: unexpected run result {r_step:?}"
            );
            assert_eq!(
                r_step, r_fast,
                "micro {name}: backend run results diverge (step {r_step:?}, fast {r_fast:?})"
            );
            assert_counters_equal(name, &c_step, &c_fast);
            let insts = c_step.instructions as f64;
            let row = MicroRow {
                name,
                instructions: c_step.instructions,
                step_mips: insts / t_step / 1e6,
                fast_mips: insts / t_fast / 1e6,
            };
            eprintln!(
                "perf micro: {:<10} {:>9} insts  step {:>6.1} M/s  fast {:>7.1} M/s",
                row.name, row.instructions, row.step_mips, row.fast_mips
            );
            row
        })
        .collect()
}

fn micro_rows_json(rows: &[MicroRow]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"name\":\"{}\",\"instructions\":{},\"step_mips\":{:.3},\
             \"fast_mips\":{:.3}}}",
            r.name, r.instructions, r.step_mips, r.fast_mips
        );
    }
    s.push_str("\n  ]");
    s
}

fn render_json(
    full: &[Row],
    quick: &[Row],
    micro: &[MicroRow],
    threads: usize,
    cores: usize,
) -> String {
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"threads\": {threads},\n  \"cores\": {cores},\n  \
         \"full_budget\": {FULL_BUDGET},\n  \"quick_budget\": {QUICK_BUDGET},\n  \
         \"geomean_fast_speedup\": {:.4},\n  \
         \"geomean_harden_speedup\": {:.4},\n  \
         \"quick_geomean_fast_speedup\": {:.4},\n  \
         \"quick_geomean_harden_speedup\": {:.4},\n  \
         \"workloads\": {},\n  \"quick_workloads\": {},\n  \"micro\": {}\n}}\n",
        fast_geomean(full),
        harden_geomean(full),
        fast_geomean(quick),
        harden_geomean(quick),
        rows_json(full),
        rows_json(quick),
        micro_rows_json(micro),
    )
}

/// Minimal extractor for our own flat JSON keys: finds `"key":` and
/// parses the number that follows.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = text.find(&pat)? + pat.len();
    let rest = text[i..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Schema validation: required keys, non-empty workload arrays.
fn validate_schema(text: &str) -> Result<(), String> {
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing or unexpected schema id (want {SCHEMA})"));
    }
    for key in [
        "geomean_fast_speedup",
        "geomean_harden_speedup",
        "quick_geomean_fast_speedup",
        "quick_geomean_harden_speedup",
        "threads",
        "cores",
    ] {
        if json_number(text, key).is_none() {
            return Err(format!("missing numeric key {key:?}"));
        }
    }
    if !text.contains("\"workloads\":") || !text.contains("\"quick_workloads\":") {
        return Err("missing workload arrays".into());
    }
    if !text.contains("\"name\":") {
        return Err("workload arrays are empty".into());
    }
    if !text.contains("\"fast_mips\":") || !text.contains("\"fast_speedup\":") {
        return Err("missing per-workload fast backend columns".into());
    }
    if !text.contains("\"trace_chain_follows\":") {
        return Err("missing per-workload translation-cache columns".into());
    }
    if !text.contains("\"micro\":") {
        return Err("missing microbenchmark section".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_from_args(args.iter().cloned());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let quick = args.iter().any(|a| a == "--quick");
    let micro_only = args.iter().any(|a| a == "--micro");
    let mut out_path = "BENCH_perf.json".to_string();
    let mut baseline_path = "BENCH_perf.json".to_string();
    let mut check_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => out_path = it.next().expect("-o requires a path").clone(),
            "--baseline" => baseline_path = it.next().expect("--baseline requires a path").clone(),
            "--check" => check_path = Some(it.next().expect("--check requires a path").clone()),
            _ => {}
        }
    }

    if let Some(path) = check_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match validate_schema(&text) {
            Ok(()) => {
                println!("perf: {path}: schema ok ({SCHEMA})");
                return;
            }
            Err(e) => {
                eprintln!("perf: {path}: schema invalid: {e}");
                std::process::exit(1);
            }
        }
    }

    if micro_only {
        eprintln!("perf: microbenchmark suite...");
        let rows = sweep_micro();
        println!(
            "perf micro: fast/step geomean {:.3}x over {} categories",
            geomean(rows.iter().map(|r| r.fast_mips / r.step_mips)),
            rows.len()
        );
        return;
    }

    let suite = spec::all();
    if quick {
        eprintln!("perf: quick subset on {threads} threads ({cores} cores)...",);
        let rows = sweep(&quick_subset(suite), true, threads);
        let measured = fast_geomean(&rows);
        println!(
            "perf quick: geomean fast speedup {measured:.3}x, harden speedup {:.3}x",
            harden_geomean(&rows)
        );

        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read committed baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = validate_schema(&text) {
            eprintln!("perf: baseline {baseline_path} schema invalid: {e}");
            std::process::exit(1);
        }
        let recorded = json_number(&text, "quick_geomean_fast_speedup").expect("validated");
        let floor = recorded * (1.0 - REGRESSION_TOLERANCE);
        println!("perf quick: baseline quick geomean {recorded:.3}x, regression floor {floor:.3}x");
        if measured < floor {
            eprintln!(
                "perf: REGRESSION: fast-tier speedup geomean {measured:.3}x fell below \
                 {floor:.3}x (baseline {recorded:.3}x - {:.0}%)",
                REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        println!("perf quick: ok");
        return;
    }

    eprintln!(
        "perf: full sweep, {} workloads on {threads} threads ({cores} cores)...",
        suite.len()
    );
    let full = sweep(&suite, false, threads);
    eprintln!("perf: quick subset...");
    let quick_rows = sweep(&quick_subset(spec::all()), true, threads);
    eprintln!("perf: microbenchmark suite...");
    let micro = sweep_micro();
    let json = render_json(&full, &quick_rows, &micro, threads, cores);
    validate_schema(&json).expect("self-produced JSON validates");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "perf: geomean fast speedup {:.3}x, \
         harden speedup {:.3}x ({} workloads) -> {out_path}",
        fast_geomean(&full),
        harden_geomean(&full),
        full.len()
    );
}
