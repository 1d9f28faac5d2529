//! Spans and counters recorded around the benchmark's calls into the
//! program.
//!
//! A span holds a name, a start and end offset from the tracer's origin,
//! its parent span and the run id. Spans stay in memory and are written
//! out once, when the repetition ends. With tracing off, [`Tracer::span`]
//! only calls the closure, so an untraced run pays nothing per call.
//! Counters are recorded in both modes: they are plain sums of numbers the
//! workloads already hold.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.solve_ssa`.
    pub name: &'static str,
    /// Start offset from the tracer's origin, ns.
    pub start_ns: u64,
    /// End offset from the tracer's origin, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total and self time of one span name, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, s.
    pub total_s: f64,
    /// Summed duration minus the time covered by direct children, s.
    pub self_s: f64,
}

/// Records spans (when on) and counters (always).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A tracer for the repetition `run_id`; `on` enables spans.
    pub fn new(on: bool, run_id: u64) -> Tracer {
        Tracer {
            on,
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&self, name: &'static str, v: f64) {
        *self.counters.borrow_mut().entry(name).or_insert(0.0) += v;
    }

    /// Every counter, by name.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters.borrow().clone()
    }

    /// Every closed span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &c) in spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// The spans as CSV (`run,id,parent,name,start_ns,end_ns`), parent
    /// `-1` for a root span.
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("run,id,parent,name,start_ns,end_ns\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{},{i},{parent},{},{},{}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let t = Tracer::new(true, 7);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.count, 1);
        assert!(outer.total_s >= inner.total_s + 0.004);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t
            .spans_csv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("7,1,0,inner,"));
    }

    #[test]
    fn off_records_no_spans_but_keeps_counters() {
        let t = Tracer::new(false, 0);
        assert_eq!(t.span("x", || 3), 3);
        t.count("c", 2.0);
        t.count("c", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counters()["c"], 3.0);
    }
}
