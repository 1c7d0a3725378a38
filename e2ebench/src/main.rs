//! Benchmark entry point.
//!
//! ```text
//! redfat-e2ebench --workload <harden-kromium|daemon-kromium>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload and reports its
//! end-to-end metrics; with `--trace 1` it runs the per-layer replay
//! and writes its spans as Chrome trace-event JSON under `work/traces`.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check
//! makes the exit code 1.

use redfat_e2ebench::report::Report;
use redfat_e2ebench::trace::Tracer;
use redfat_e2ebench::{daemon, kromium, replay, WORKLOADS};
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // Scratch files (daemon sockets and caches, traces) live in the
    // crate's own `work` directory; working from there keeps the socket
    // paths short.
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(work.join("traces")).expect("create the work directory");
    std::env::set_current_dir(&work).expect("enter the work directory");

    let threads = redfat_parallel::available_threads();
    let mut report = Report::default();
    let header = format!(
        "e2ebench {} seed={} seconds={} trace={} threads={threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        let tracer = Tracer::new();
        replay::run(args.seed, threads, &mut report, &tracer);
        let path = PathBuf::from(format!("traces/{}-{}.json", args.workload, args.seed));
        match tracer.write_chrome_json(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.len(),
                work.join(&path).display()
            )),
            Err(e) => report.note(format!("trace not written: {e}")),
        }
        let layers: Vec<String> = tracer
            .layer_self_ms()
            .iter()
            .map(|(layer, ms)| format!("{layer} {ms:.1}"))
            .collect();
        report.note(format!("self time by layer, ms: {}", layers.join(", ")));
    } else {
        match args.workload.as_str() {
            "harden-kromium" => kromium::run(args.seed, args.seconds, &mut report),
            _ => daemon::run(args.seed, args.seconds, threads, &mut report),
        }
    }
    print!("{}", report.render(&header));
    if !report.correct() {
        std::process::exit(1);
    }
}
