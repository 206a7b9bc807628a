//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around the calls it
//! makes into each layer; nothing inside the library crates is
//! instrumented. A span is `(name, start, end, parent)`; the spans of one
//! process all belong to one workload. They are kept in memory and written
//! out once, as Chrome-trace JSON, when the run ends. With the recorder
//! off (every untraced run) [`scope`] costs one thread-local flag test.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{num, quote};

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns recording on or off for this thread. Spans recorded so far stay.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
    if on {
        RECORDER.with(|r| {
            r.borrow_mut().get_or_insert_with(|| Recorder {
                epoch: Instant::now(),
                spans: Vec::new(),
                stack: Vec::new(),
            });
        });
    }
}

/// Runs `f` inside a span called `name` (or just runs it, recorder off).
pub fn scope<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("enabled recorder exists");
        let index = rec.spans.len() as u32;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.stack.last().copied(),
        });
        rec.stack.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("enabled recorder exists");
        rec.spans[index as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.stack.pop();
    });
    out
}

/// Takes every span recorded on this thread so far.
pub fn drain() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|rec| std::mem::take(&mut rec.spans))
            .unwrap_or_default()
    })
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Sums spans by name. A span's self time is its duration minus its
/// direct children's durations (children never overlap: one thread).
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let total = span.end_ns - span.start_ns;
        let agg = out.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(*children);
    }
    out
}

/// Most events of one name written to the trace file; hot-loop spans (one
/// per `TieredWal` call) number in the hundreds of thousands, and the
/// aggregates carry their totals.
const MAX_EVENTS_PER_NAME: u64 = 2_000;

/// Renders spans as a Chrome-trace document (`chrome://tracing`, Perfetto):
/// complete events (`"ph":"X"`, microseconds), one process per workload,
/// plus the per-name aggregates under `"aggregates"`.
pub fn chrome_trace(workload: &str, pid: usize, spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        quote(workload)
    ));
    let mut written: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let seen = written.entry(span.name).or_insert(0);
        *seen += 1;
        if *seen > MAX_EVENTS_PER_NAME {
            continue;
        }
        let parent = span.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            ",{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"name\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{index},\"parent\":{parent},\"workload\":{}}}}}",
            quote(span.name),
            num(span.start_ns as f64 / 1e3),
            num((span.end_ns - span.start_ns) as f64 / 1e3),
            quote(workload)
        ));
    }
    out.push_str("],\"aggregates\":{");
    for (i, (name, agg)) in aggregate(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            quote(name),
            agg.count,
            agg.total_ns,
            agg.self_ns
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        drain();
        scope("outer", || {
            scope("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            scope("inner", || ());
        });
        set_enabled(false);
        scope("ignored", || ());
        let spans = drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let agg = aggregate(&spans);
        assert_eq!(agg["inner"].count, 2);
        assert!(agg["outer"].self_ns <= agg["outer"].total_ns - agg["inner"].total_ns);
        let doc = Json::parse(&chrome_trace("w", 1, &spans)).expect("valid trace json");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().len(), 4);
    }
}
