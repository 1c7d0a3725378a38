//! The redfat benchmark: two closed-loop workloads built from a seed,
//! every output checked against a reference, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! The host this runs on drifts, so every statistic is either an exact
//! count the program produces or a median over a fixed op sequence; no
//! statistic depends on how many ops fit in a time window. Every
//! workload reports the same end-to-end metrics ([`report::EndToEnd`]),
//! each taken on its own op and output. See `README.md` beside this
//! crate for the workloads and metrics.

pub mod daemon;
pub mod inputs;
pub mod kromium;
pub mod replay;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;

use std::time::Instant;

/// Step budget of any single guest run.
pub const MAX_STEPS: u64 = 4_000_000_000;

/// How many times each run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 2] = ["harden-kromium", "daemon-kromium"];

/// Runs `setup` [`SETUP_REPS`] times, timing each, and returns the last
/// result with the times in seconds. Each earlier result is dropped
/// before the next set-up starts, outside the timer, so only one set-up
/// is live at a time and `peak_rss_mb` measures the workload rather than
/// overlapping set-ups.
pub fn setup_reps<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}
