//! In-memory spans recorded around calls into the program's public API.
//!
//! A span is `(run, id, parent, name, start, end, thread)`; spans are kept in
//! memory and written as JSON lines once the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are µs since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// End, µs since the tracer's epoch.
    pub end_us: f64,
    /// Small per-thread number, for reading the file.
    pub thread: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_NO: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// An empty tracer for run `run_id`.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent further spans. Returns `f`'s result and the span's
    /// duration in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        self.record(Span {
            id,
            parent,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            thread: THREAD_NO.with(|n| *n),
        });
        (r, end.duration_since(start).as_secs_f64())
    }

    /// Records a span measured by the caller (for intervals that are not one
    /// closure call, such as accumulated waits).
    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking span")
            .push(span);
    }

    /// A fresh span id, for [`Tracer::record`].
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// µs since the tracer's epoch, for [`Tracer::record`].
    pub fn now_us(&self) -> f64 {
        self.us(Instant::now())
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking span")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"thread\":{}}}",
                self.run_id, s.id, s.name, s.start_us, s.end_us, s.thread
            )?;
        }
        out.flush()
    }
}
