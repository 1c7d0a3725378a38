//! What one invocation prints: a line per metric with its unit and
//! sample count, then, as the last line, one JSON object with the
//! verdict, the op counts and the metrics.

use crate::stats::{median, peak_rss_mb};
use std::fmt::Write as _;

/// The end-to-end metrics, in `BENCHMARK.json`'s order. Every workload
/// reports every one of them, each measured on that workload's own op
/// and output; [`EndToEnd::report`] adds `peak_rss_mb`.
#[derive(Debug)]
pub struct EndToEnd {
    /// Seconds each set-up took; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// `op_ms`: the workload's per-op time, with how it was taken.
    pub op_ms: (f64, String),
    /// `out_kb`: size of the workload's hardened output, exact.
    pub out_kb: (f64, String),
    /// `cycles_x`: modeled cycles of the hardened output over the
    /// unhardened input's, exact.
    pub cycles_x: (f64, String),
}

impl EndToEnd {
    /// Adds the metrics to `report`. A missing `VmHWM` is reported as
    /// NaN, which makes the run incorrect rather than short a metric.
    pub fn report(self, report: &mut Report) {
        report.metric(
            "setup_s",
            "s",
            median(&self.setup_s),
            format!("median of {} set-ups", self.setup_s.len()),
        );
        report.metric("op_ms", "ms", self.op_ms.0, self.op_ms.1);
        report.metric("out_kb", "KiB", self.out_kb.0, self.out_kb.1);
        report.metric("cycles_x", "ratio", self.cycles_x.0, self.cycles_x.1);
        report.metric(
            "peak_rss_mb",
            "MB",
            peak_rss_mb().unwrap_or(f64::NAN),
            "VmHWM of the process".into(),
        );
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// How the value was obtained, e.g. `median of 20 ops` or `exact`.
    pub basis: String,
}

/// The metrics and the correctness record of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Ops whose outputs were checked (timed ops plus the reference
    /// checks made outside the timed loop).
    pub attempted: u64,
    /// Ops with at least one failed check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a checked op: `ok` is whether every check on it held.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, basis: String) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            basis,
        });
    }

    /// Adds a line to the log.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `true` if every check held and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable lines followed by the JSON result line.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<28} {:>14.4} {:<9} {}",
                m.name, m.value, m.unit, m.basis
            );
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  fail_ratio {ratio} ({} failed of {} checked ops)",
            self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let finite: Vec<&Metric> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .collect();
        for (i, m) in finite.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_last_and_keeps_every_digit() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.metric("latency_ms", "ms", 1.203_456_789, "median of 1 op".into());
        let text = r.render("test");
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn every_workload_reports_the_same_end_to_end_names() {
        let mut r = Report::default();
        EndToEnd {
            setup_s: vec![1.0, 3.0, 2.0],
            op_ms: (5.0, String::new()),
            out_kb: (6.0, String::new()),
            cycles_x: (2.5, String::new()),
        }
        .report(&mut r);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            ["setup_s", "op_ms", "out_kb", "cycles_x", "peak_rss_mb"]
        );
        assert_eq!(r.metrics[0].value, 2.0);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.op(false, || "wrong bytes".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (1, 1));
    }
}
