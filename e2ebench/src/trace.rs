//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer; nothing inside the program is instrumented. Each span
//! holds its name (`layer.what`), start, end, parent and op id. Counts
//! are recorded at the same boundaries. Everything stays in memory until
//! the run ends, when [`Tracer::write_chrome_json`] writes the spans as
//! Chrome trace-event JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `analysis.liveness`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

/// The recorder.
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else {
            return;
        };
        let now = self.tracer.now();
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[index].end = now;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(index), "spans close in LIFO order");
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording: true,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// A recorder that records nothing, for timing the same calls
    /// untraced.
    pub fn off() -> Tracer {
        Tracer {
            recording: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts the next op: spans opened from now on carry its id,
    /// which is returned.
    pub fn next_op(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.op += 1;
        inner.op
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.recording {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start = self.now();
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let span = Span {
            name,
            start,
            end: start,
            parent: inner.open.last().copied(),
            op: inner.op,
        };
        inner.spans.push(span);
        inner.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Records a finished span under the innermost open one, for
    /// intervals timed elsewhere (the syscall wrapper's).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.recording {
            return;
        }
        let (start, end) = (self.at(start), self.at(end));
        let mut inner = self.inner.borrow_mut();
        let span = Span {
            name,
            start,
            end,
            parent: inner.open.last().copied(),
            op: inner.op,
        };
        inner.spans.push(span);
    }

    /// Adds `n` to the count `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().counts.entry(name).or_insert(0) += n;
    }

    /// The count `name` (0 if never recorded).
    pub fn counted(&self, name: &str) -> u64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// `true` if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total duration in milliseconds of op `op`'s spans, by name.
    pub fn op_totals_ms(&self, op: u64) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.inner.borrow().spans.iter().filter(|s| s.op == op) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) as f64 / 1e6;
        }
        out
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part its direct children cover, summed by name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in inner.spans.iter().zip(child_ns) {
            let own = (s.end - s.start).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Self time summed by layer (the name's part before the first dot).
    pub fn layer_self_ms(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, ms) in self.self_ms() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_insert(0.0) += ms;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events,
    /// times in microseconds), loadable in any trace viewer.
    pub fn chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in inner.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                layer,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                i,
                parent,
                s.op
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Writes [`Tracer::chrome_json`] to `path`.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new();
        {
            let _outer = t.span("a.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = t.span("b.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let own = t.self_ms();
        let totals = t.op_totals_ms(0);
        let (total, inner) = (totals["a.outer"], totals["b.inner"]);
        assert!((own["a.outer"] - (total - inner)).abs() < 1e-9);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        {
            let _outer = t.span("a.outer");
            t.record("b.inner", Instant::now(), Instant::now());
        }
        assert!(t.is_empty());
    }
}
