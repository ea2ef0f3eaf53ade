//! Benchmark-side spans.
//!
//! A span wraps one call into a public function of the system under test
//! (`DgfIndex::plan_with_strategy`, `execute_sink`, a `KvStore` method,
//! `StreamIngestor::flush`, ...). Spans live in a per-thread buffer while
//! a run is going, carry the request id the calling client set, and are
//! collected by `main` at the end. Nothing is recorded unless
//! tracing was switched on for the run, and the disabled path costs one
//! relaxed atomic load.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `plan` or `kv.scan_range`.
    pub name: &'static str,
    /// Request the calling thread was serving (0 = none).
    pub request: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process's trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    muted: bool,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the calling thread is recording spans.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && !LOCAL.with(|l| l.borrow().muted)
}

/// Run `f` with the calling thread's recording off: the reference
/// requests of a traced run pay no tracing cost below their outer span.
pub fn muted<T>(f: impl FnOnce() -> T) -> T {
    let was = LOCAL.with(|l| std::mem::replace(&mut l.borrow_mut().muted, true));
    let out = f();
    LOCAL.with(|l| l.borrow_mut().muted = was);
    out
}

/// Tag the calling thread's following spans with `request`.
pub fn set_request(request: u64) {
    LOCAL.with(|l| l.borrow_mut().request = request);
}

/// Run `f` inside a span named `name` (or just run it when tracing is
/// off). Spans opened inside `f` on the same thread become children.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let span = Span {
            name,
            request: l.request,
            parent: l.open.last().copied(),
            start_ns: now_ns(),
            end_ns: 0,
        };
        l.spans.push(span);
        let idx = l.spans.len() - 1;
        l.open.push(idx);
        idx
    });
    let out = f();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.spans[idx].end_ns = now_ns();
        l.open.pop();
    });
    out
}

/// Move the calling thread's finished spans out of its buffer. Parent
/// indices stay relative to the returned vector.
pub fn take_thread_spans() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.clear();
        std::mem::take(&mut l.spans)
    })
}

/// Per-request span totals of one thread's buffer: for every request
/// id, the summed duration of each span name, with `kv.*` children of
/// `plan` folded into the pseudo-name `plan.kv`.
pub fn totals_by_request(
    spans: &[Span],
) -> std::collections::BTreeMap<u64, Vec<(&'static str, f64)>> {
    let mut out: std::collections::BTreeMap<u64, Vec<(&'static str, f64)>> = Default::default();
    for s in spans {
        let name = if s.name.starts_with("kv.") && s.parent.map(|p| spans[p].name) == Some("plan") {
            "plan.kv"
        } else {
            s.name
        };
        let entry = out.entry(s.request).or_default();
        match entry.iter_mut().find(|(n, _)| *n == name) {
            Some((_, ms)) => *ms += s.ms(),
            None => entry.push((name, s.ms())),
        }
    }
    out
}

/// Write spans as CSV (`thread,index,request,name,parent,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,index,request,name,parent,start_ns,end_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{t},{i},{},{},{parent},{},{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}
