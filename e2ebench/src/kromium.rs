//! `harden-kromium`: repeated cold hardening of the Chrome stand-in.
//!
//! Why this workload: it is the paper's §7.3 scale case and what
//! `redfat harden` does. Every analysis stage, check synthesis and the
//! rewriter do the work; nothing is emulated and no cache is consulted.
//!
//! The op hardens on one thread, where the CLI defaults to `nproc`: on
//! a host whose vCPUs change speed independently, a two-thread harden
//! waits for the slower one, and its median spread about twice as far
//! between runs (`STEADINESS.md`). `parallel.speedup` in the traced run
//! covers the threaded path.

use crate::inputs::kromium_source;
use crate::report::{EndToEnd, Report};
use crate::stats::{median, tail_percentile};
use crate::{setup_reps, MAX_STEPS};
use redfat_core::{harden_threaded, try_run_backend, HardenConfig};
use redfat_elf::Image;
use redfat_emu::{ErrorMode, ExecBackend, RunResult};
use std::hint::black_box;
use std::time::Instant;

/// The kromium input of the startup run, `[kernel 0, scale 1]`.
const STARTUP_INPUT: [i64; 2] = [0, 1];

/// Compiles kromium with its functions in the seed's order.
pub fn build(seed: u64) -> Image {
    redfat_minic::compile(&kromium_source(seed)).expect("kromium compiles")
}

/// Threads of the timed harden.
const THREADS: usize = 1;

/// Hardened ops per run: three per two requested seconds (a cold
/// harden takes roughly 0.45-0.9 s on one thread), at least five.
fn ops_for(seconds: u64) -> usize {
    (3 * seconds as usize / 2).max(5)
}

/// Checks that `hardened` prints under `step` what `image` prints, on
/// the startup input, with no memory error, and returns the hardened
/// run's modeled cycles over the unhardened run's.
pub fn startup_cycles_x(image: &Image, hardened: &Image) -> Result<f64, String> {
    let run = |img: &Image| {
        try_run_backend(
            img,
            STARTUP_INPUT.to_vec(),
            ErrorMode::Abort,
            ExecBackend::Step,
            MAX_STEPS,
        )
        .map_err(|e| format!("startup run does not load: {e}"))
    };
    let (base, hard) = (run(image)?, run(hardened)?);
    if base.result != RunResult::Exited(0) || hard.result != RunResult::Exited(0) {
        return Err(format!(
            "startup exits: baseline {:?}, hardened {:?}",
            base.result, hard.result
        ));
    }
    if base.io.out_ints != hard.io.out_ints || base.io.digest() != hard.io.digest() {
        return Err("hardened startup prints differently".into());
    }
    if !hard.errors.is_empty() {
        return Err(format!("hardened startup reports {:?}", hard.errors));
    }
    Ok(hard.counters.cycles as f64 / base.counters.cycles as f64)
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    let config = HardenConfig::default();
    let (image, setup_s) = setup_reps(|| {
        let image = build(seed);
        // Warm-up: one untimed harden.
        black_box(harden_threaded(&image, &config, THREADS).expect("kromium hardens"));
        image
    });

    let ops = ops_for(seconds);
    let mut times = Vec::with_capacity(ops);
    let mut first: Option<(Image, Vec<u8>)> = None;
    for i in 0..ops {
        let start = Instant::now();
        let out = harden_threaded(black_box(&image), &config, THREADS);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let ok = match out {
            Ok(h) => {
                let bytes = h.image.to_bytes();
                let same = first.as_ref().is_none_or(|(_, b)| *b == bytes);
                let degraded = h.stats.degraded();
                first.get_or_insert((h.image, bytes));
                same && !degraded
            }
            Err(_) => false,
        };
        report.op(ok, || {
            format!("harden op {i}: error, degraded or bytes differ")
        });
    }

    let (hardened, bytes) = first.expect("at least one op");
    let startup = startup_cycles_x(&image, &hardened);
    let cycles_x = *startup.as_ref().unwrap_or(&f64::NAN);
    report.op(startup.is_ok(), || startup.unwrap_err());

    report.note(match tail_percentile(&times, 90.0) {
        Some(p90) => format!("harden p90 {p90:.3} ms over {ops} ops (log only)"),
        None => format!("harden p90 omitted: {ops} ops leave fewer than 10 beyond it"),
    });
    EndToEnd {
        setup_s,
        op_ms: (
            median(&times),
            format!("median harden of {ops} ops at {THREADS} thread"),
        ),
        out_kb: (
            bytes.len() as f64 / 1024.0,
            "exact, hardened image size".into(),
        ),
        cycles_x: (
            cycles_x,
            "exact, hardened/baseline modeled cycles of the startup run".into(),
        ),
    }
    .report(report);
}
