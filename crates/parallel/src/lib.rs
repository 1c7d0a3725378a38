//! Shared scoped-thread work distribution and small numeric helpers.
//!
//! [`parallel_map`] and [`try_parallel_map`] spread one batch of items
//! over scoped threads, which end with the call, for the hardening
//! pipeline (`redfat-core`), the CLI and the experiment bins; the
//! thread-count helpers resolve `--threads`. Hoisted out of
//! `redfat-bench` so the pipeline need not depend on the experiment
//! harness; `redfat_bench` re-exports the helpers for its bins and
//! tests.

/// Geometric mean helper.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// Extracts the human-readable message from a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `f(&items[i])` under `catch_unwind`, mapping a panic to the
/// canonical `"item {i} panicked: {msg}"` error string. Shared by the
/// threaded and serial paths of [`try_parallel_map`] so the observable
/// failure shape is identical in both.
fn catch_item<T, U>(i: usize, item: &T, f: impl Fn(&T) -> U) -> Result<U, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
        .map_err(|payload| format!("item {i} panicked: {}", panic_message(&*payload)))
}

/// Runs closures in parallel over a work list with scoped threads,
/// preserving input order in the output. Each slot is `Err` with the
/// item's index and panic message if its closure panicked; a poisoned
/// item never prevents the other items from completing and reporting.
///
/// The calling thread is one of the workers, and no more workers run
/// than there are items: `threads.min(items.len()) - 1` threads are
/// spawned, so a small work list pays for no idle thread start-up.
///
/// With `threads <= 1` no worker thread is spawned at all: the items
/// run serially on the *calling* thread (same `ThreadId`), with the
/// same per-item `catch_unwind` isolation and error format. This keeps
/// `--threads 1` a true baseline -- no scope/channel setup, no
/// thread-spawn cost, and thread-local state on the caller stays
/// visible to the closures.
pub fn try_parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<Result<U, String>>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| catch_item(i, item, &f))
            .collect();
    }
    let n = items.len();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<U, String>)>();
    let items_ref = &items;
    let f_ref = &f;
    let next_ref = &next;
    let work = move |tx: std::sync::mpsc::Sender<(usize, Result<U, String>)>| loop {
        let i = next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = catch_item(i, &items_ref[i], f_ref);
        if tx.send((i, out)).is_err() {
            break;
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(n) {
            let tx = tx.clone();
            scope.spawn(move || work(tx));
        }
        work(tx);
        let mut results: Vec<Option<Result<U, String>>> = (0..n).map(|_| None).collect();
        for (i, out) in rx {
            results[i] = Some(out);
        }
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| Err(format!("item {i}: no result reported"))))
            .collect()
    })
}

/// Runs closures in parallel over a work list with scoped threads,
/// preserving input order in the output.
///
/// # Panics
///
/// Panics after *all* items have finished if any closure panicked,
/// naming every failed item -- completed work is never thrown away
/// mid-run by one bad item.
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let results = try_parallel_map(items, threads, f);
    let failures: Vec<&str> = results
        .iter()
        .filter_map(|r| r.as_ref().err().map(|s| s.as_str()))
        .collect();
    if !failures.is_empty() {
        panic!(
            "parallel_map: {}/{} items failed:\n  {}",
            failures.len(),
            n,
            failures.join("\n  ")
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("failures checked above"))
        .collect()
}

/// Number of worker threads implied by the machine: `available_parallelism`,
/// falling back to 1 when the runtime cannot tell.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves the effective thread count from an explicit request (CLI
/// `--threads`), the `REDFAT_THREADS` environment variable, or the
/// machine's available parallelism, in that priority order. Zero or
/// unparsable requests fall through to the next source.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Ok(v) = std::env::var("REDFAT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_threads()
}

/// Scans an argv-style iterator for `--threads N` and resolves the
/// thread count with [`resolve_threads`]. Convenience for the bench
/// bins, which otherwise take no arguments.
pub fn threads_from_args(args: impl IntoIterator<Item = String>) -> usize {
    let mut explicit = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            explicit = it.next().and_then(|v| v.parse::<usize>().ok());
        } else if let Some(v) = a.strip_prefix("--threads=") {
            explicit = v.parse::<usize>().ok();
        }
    }
    resolve_threads(explicit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_item_does_not_sink_the_rest() {
        let items: Vec<u32> = (0..8).collect();
        let results = try_parallel_map(items, 4, |&v| {
            if v == 3 {
                panic!("poisoned workload {v}");
            }
            v * 10
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let err = r.as_ref().expect_err("item 3 must fail");
                assert!(err.contains("item 3"), "error names the item: {err}");
                assert!(
                    err.contains("poisoned workload 3"),
                    "error keeps message: {err}"
                );
            } else {
                assert_eq!(*r, Ok(i as u32 * 10), "item {i} must still complete");
            }
        }
    }

    #[test]
    fn single_thread_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let results = try_parallel_map((0..4).collect::<Vec<u32>>(), 1, |&v| {
            (std::thread::current().id(), v * 10)
        });
        for (i, r) in results.iter().enumerate() {
            let (tid, v) = r.as_ref().expect("no panics");
            assert_eq!(*tid, caller, "item {i} must run on the caller's thread");
            assert_eq!(*v, i as u32 * 10);
        }
        // threads == 0 takes the same serial path.
        let results = try_parallel_map(vec![7u32], 0, |_| std::thread::current().id());
        assert_eq!(results[0], Ok(caller));
    }

    #[test]
    fn caller_works_and_workers_never_outnumber_items() {
        let caller = std::thread::current().id();
        // One item at many threads: no worker is spawned at all.
        let results = try_parallel_map(vec![7u32], 8, |_| std::thread::current().id());
        assert_eq!(results[0], Ok(caller));
        // Three items at sixteen threads: at most three threads, one of
        // which may be the caller.
        let results = try_parallel_map((0..3).collect::<Vec<u32>>(), 16, |_| {
            std::thread::current().id()
        });
        let mut ids: Vec<_> = results.into_iter().map(|r| r.expect("no panics")).collect();
        ids.sort_by_key(|id| format!("{id:?}"));
        ids.dedup();
        assert!(ids.len() <= 3, "{} threads ran 3 items", ids.len());
    }

    #[test]
    fn single_thread_keeps_per_item_panic_isolation() {
        let results = try_parallel_map((0..4).collect::<Vec<u32>>(), 1, |&v| {
            if v == 2 {
                panic!("boom {v}");
            }
            v
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Ok(1));
        let err = results[2].as_ref().expect_err("item 2 must fail");
        assert_eq!(err, "item 2 panicked: boom 2");
        assert_eq!(results[3], Ok(3), "later items still run after a panic");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..32).collect();
        let doubled = parallel_map(items, 5, |&v| v * 2);
        assert_eq!(doubled, (0..32).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_threads_priority() {
        // Explicit beats everything.
        assert_eq!(resolve_threads(Some(3)), 3);
        // Zero falls through to env/default, which is at least 1.
        assert!(resolve_threads(Some(0)) >= 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn threads_from_args_parses_both_forms() {
        let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(argv(&["--threads", "7"])), 7);
        assert_eq!(threads_from_args(argv(&["--threads=5"])), 5);
    }
}
