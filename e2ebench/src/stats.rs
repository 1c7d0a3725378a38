//! The statistics the benchmark reports: medians per op kind, tail
//! percentiles only where the sample supports them.

/// Least number of samples that must lie beyond a tail percentile for it
/// to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are bugs in the
/// caller, which always times at least one op.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct` percentile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the estimate would rest on a
/// handful of samples). With 100 samples p90 has exactly 10 beyond it;
/// with 99 it is omitted.
pub fn tail_percentile(values: &[f64], pct: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    Some(v[rank - 1])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
