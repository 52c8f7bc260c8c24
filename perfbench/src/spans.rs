//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions — the program itself is not instrumented, and
//! `mass-obs` stays uninstalled. Each span keeps its name, start, end,
//! parent span and op id; spans live in memory until the run ends and are
//! then written out as JSON lines.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder (one per generator thread).
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Sets the op id stamped on the spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Runs `f` inside a span when a recorder is present, bare otherwise, so
/// the timed and traced runs share one code path.
pub fn traced<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The unattributed row: for every root span named `op_name`, the op's wall
/// time minus the time its child spans cover, in milliseconds.
pub fn unattributed_ms(spans: &[Span], op_name: &str) -> Vec<f64> {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == op_name)
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect()
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Per-name totals of self time, sorted by descending total:
/// `(name, spans, total self ms)`.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, f64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += ns as f64 / 1e6;
            }
            None => rows.push((s.name, 1, ns as f64 / 1e6)),
        }
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

/// Writes the spans as JSON lines (one object per span).
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_several_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps a by 5
            span("c", 60, 70, Some(0)),
            span("grandchild", 12, 20, Some(1)), // belongs to a, not op
        ];
        let selfs = self_times_ns(&spans);
        // Children cover [10,50) and [60,70): 50 ns of the op's 100.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 12);
        assert_eq!(selfs[2], 25);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 8);
    }

    #[test]
    fn unattributed_row_is_op_self_time() {
        let spans = vec![
            span("op", 0, 1_000_000, None),
            span("stage", 0, 600_000, Some(0)),
            span("stage", 600_000, 900_000, Some(0)),
            span("standalone", 1_000_000, 2_000_000, None),
            span("op", 2_000_000, 4_000_000, None),
            span("stage", 2_000_000, 4_000_000, Some(4)),
        ];
        assert_eq!(unattributed_ms(&spans, "op"), vec![0.1, 0.0]);
        let table = self_time_table(&spans);
        assert_eq!((table[0].0, table[0].1), ("stage", 3));
        assert!((table[0].2 - 2.9).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_ops() {
        let rec = Recorder::new(Instant::now());
        rec.set_op(7);
        let v = rec.span("op", || rec.span("inner", || 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(traced(None, "untraced", || 3), 3);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
